"""Triangle-mesh ingestion, surface point sampling, and coordinate normalization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Faces below this area are treated as degenerate and dropped at load time.
DEGENERATE_AREA = 1e-12


class MeshError(ValueError):
    """A mesh file could not be parsed or violates basic mesh invariants."""


@dataclass
class TriMesh:
    """Indexed triangle mesh: vertex coordinates in meters, faces as index triples."""

    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray     # (F, 3) int64

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3 or len(self.vertices) < 3:
            raise MeshError("vertices must form a (V, 3) array with V >= 3")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertices contain non-finite coordinates")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3 or len(self.faces) == 0:
            raise MeshError("faces must form a non-empty (F, 3) index array")
        if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
            raise MeshError("face index out of range")

    @property
    def triangles(self) -> np.ndarray:
        """Per-face vertex coordinates, shape (F, 3, 3)."""
        return self.vertices[self.faces]


@dataclass(frozen=True)
class NormalizationTransform:
    """Centering plus isotropic down-scaling applied to positions before learning."""

    centroid: np.ndarray  # (3,)
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=np.float64))
        if self.centroid.shape != (3,):
            raise ValueError("centroid must be a 3-vector")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive finite scalar")


def face_areas(mesh: TriMesh) -> np.ndarray:
    """Triangle areas, shape (F,)."""
    tri = mesh.triangles
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def load_mesh(path) -> tuple[TriMesh, int]:
    """Parse an ASCII triangle mesh with "v x y z" and "f i j k" lines (1-based).

    Zero-area faces are dropped. Returns the mesh and the number of faces dropped.
    Raises MeshError on malformed input or if nothing usable remains.
    """
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        tag, rest = tokens[0], tokens[1:]
        try:
            if tag == "v":
                if len(rest) < 3:
                    raise ValueError("expected 3 coordinates")
                verts.append([float(x) for x in rest[:3]])
            elif tag == "f":
                if len(rest) != 3:
                    raise ValueError("expected 3 vertex indices")
                faces.append([int(i) - 1 for i in rest])
            else:
                raise ValueError(f"unknown record {tag!r}")
        except ValueError as exc:
            raise MeshError(f"{path}:{lineno}: {exc}") from exc
    if not verts or not faces:
        raise MeshError(f"{path}: mesh has no vertices or no faces")
    try:
        mesh = TriMesh(np.array(verts), np.array(faces))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    areas = face_areas(mesh)
    keep = areas > DEGENERATE_AREA
    dropped = int((~keep).sum())
    if dropped:
        if not keep.any():
            raise MeshError(f"{path}: all faces are degenerate")
        mesh = TriMesh(mesh.vertices, mesh.faces[keep])
    return mesh, dropped


def save_mesh(mesh: TriMesh, path, vertex_scalars: np.ndarray | None = None) -> None:
    """Write the ASCII mesh format; an optional per-vertex scalar is appended to each v line."""
    lines = []
    if vertex_scalars is None:
        for x, y, z in mesh.vertices:
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    else:
        vertex_scalars = np.asarray(vertex_scalars, dtype=np.float64)
        if vertex_scalars.shape != (len(mesh.vertices),):
            raise ValueError("vertex_scalars length must match vertex count")
        for (x, y, z), s in zip(mesh.vertices, vertex_scalars):
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g} {s:.17g}")
    for i, j, k in mesh.faces + 1:
        lines.append(f"f {i} {j} {k}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_point_cloud(points: np.ndarray, path) -> None:
    """Write one "x y z" line per point."""
    points = np.asarray(points, dtype=np.float64)
    lines = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in points]
    Path(path).write_text("\n".join(lines) + "\n")


def load_point_cloud(path) -> np.ndarray:
    rows = [[float(t) for t in line.split()]
            for line in Path(path).read_text().splitlines() if line.strip()]
    cloud = np.array(rows, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or len(cloud) == 0:
        raise ValueError(f"{path}: expected one 'x y z' line per point")
    if not np.isfinite(cloud).all():
        raise ValueError(f"{path}: non-finite coordinate")
    return cloud


def _greedy_thin(points: np.ndarray, radius: float, n_target: int) -> list[int]:
    """Dart-throwing pass: accept points at least `radius` apart, in candidate order."""
    inv = 1.0 / radius
    r2 = radius * radius
    grid: dict[tuple[int, int, int], list[int]] = {}
    accepted: list[int] = []
    for i, p in enumerate(points):
        cell = (int(np.floor(p[0] * inv)), int(np.floor(p[1] * inv)), int(np.floor(p[2] * inv)))
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for j in grid.get((cell[0] + dx, cell[1] + dy, cell[2] + dz), ()):
                        d = points[j] - p
                        if d @ d < r2:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            accepted.append(i)
            grid.setdefault(cell, []).append(i)
            if len(accepted) >= n_target:
                break
    return accepted


def sample_point_cloud(mesh: TriMesh, n: int, seed: int, radius: float | None = None,
                       oversample: int = 4, return_faces: bool = False):
    """Sample exactly n points on the mesh surface, approximately evenly spread.

    Area-weighted uniform candidates are thinned by greedy dart throwing at the
    given radius (default 0.7 * sqrt(area / n)); any shortfall is filled from the
    remaining candidates so the count is exact. Deterministic per seed.

    Returns the (n, 3) points, plus the generating face index per point when
    return_faces is set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    areas = face_areas(mesh)
    total_area = areas.sum()
    if total_area <= 0:
        raise MeshError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    m = max(n, oversample * n)
    fidx = rng.choice(len(areas), size=m, p=areas / total_area)
    uv = rng.random((m, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    tri = mesh.triangles[fidx]
    pts = tri[:, 0] + uv[:, :1] * (tri[:, 1] - tri[:, 0]) + uv[:, 1:] * (tri[:, 2] - tri[:, 0])
    if radius is None:
        radius = 0.7 * np.sqrt(total_area / n)
    if radius > 0.0:
        kept = _greedy_thin(pts, radius, n)
    else:
        kept = list(range(n))
    if len(kept) < n:
        chosen = np.zeros(m, dtype=bool)
        chosen[kept] = True
        fill = np.nonzero(~chosen)[0][: n - len(kept)]
        sel = np.concatenate([np.array(kept, dtype=np.int64), fill])
    else:
        sel = np.array(kept[:n], dtype=np.int64)
    if return_faces:
        return pts[sel], fidx[sel]
    return pts[sel]


def normalize(cloud: np.ndarray, strokes: list[np.ndarray], scale: float):
    """Center the cloud to zero mean and down-scale; apply the same transform to stroke positions.

    Orientation columns of the strokes are left untouched. Returns the
    transformed cloud, transformed strokes, and the invertible transform.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError("scale must be positive")
    cloud = np.asarray(cloud, dtype=np.float64)
    centroid = cloud.mean(axis=0)
    out_cloud = (cloud - centroid) / scale
    out_strokes = []
    for s in strokes:
        s = np.asarray(s, dtype=np.float64)
        t = s.copy()
        t[:, :3] = (s[:, :3] - centroid) / scale
        out_strokes.append(t)
    return out_cloud, out_strokes, NormalizationTransform(centroid, float(scale))


def denormalize(arrays, transform: NormalizationTransform) -> list[np.ndarray]:
    """Invert `normalize` on the positions (the first 3 of the last axis) of each array."""
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=np.float64).copy()
        a[..., :3] = a[..., :3] * transform.scale + transform.centroid
        out.append(a)
    return out
