"""Triangle-mesh ingestion, surface point sampling, and coordinate normalization."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kvio import format_rows, load_rows, save_rows, write_file

# Faces below this area are treated as degenerate and dropped at load time.
DEGENERATE_AREA = 1e-12
# Surface sampling draws this many candidates per requested point.
_OVERSAMPLE = 4
# Allowed deviation of a pose orientation's norm from 1.
_UNIT_TOL = 1e-6
# Offsets of the 27 cells around a grid cell: the cell size is the thinning radius,
# so every point closer than it lies in one of them.
_NEIGHBOUR_CELLS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
# (0, 0, 0) and the 13 offsets after it. The other 13 are their negations, so pairing each
# cell with these meets every pair of neighbouring cells once.
_FORWARD_CELLS = np.array(_NEIGHBOUR_CELLS[13:], dtype=np.int64)


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


def check_poses(poses, where: str = "") -> np.ndarray:
    """`poses` as a finite (N, 6) float array with unit orientations; errors name `where`."""
    prefix = f"{where}: " if where else ""
    poses = np.asarray(poses, dtype=np.float64)
    if poses.ndim != 2 or poses.shape[1] != 6:
        raise ValueError(f"{prefix}each stroke must be an (N, 6) pose array")
    if not np.isfinite(poses).all():
        raise ValueError(f"{prefix}non-finite pose value")
    if (np.abs(np.linalg.norm(poses[:, 3:], axis=1) - 1.0) > _UNIT_TOL).any():
        raise ValueError(f"{prefix}orientations must be unit vectors")
    return poses


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
    try:
        mesh = TriMesh(np.array(verts), np.array(faces))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    except OverflowError:   # an index beyond int64: no mesh has that many vertices
        raise MeshError(f"{path}: face index out of range") from None
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
    verts = mesh.vertices
    if vertex_scalars is not None:
        vertex_scalars = np.asarray(vertex_scalars, dtype=np.float64)
        if vertex_scalars.shape != (len(verts),):
            raise ValueError("vertex_scalars length must match vertex count")
        verts = np.column_stack([verts, vertex_scalars])
    write_file(path, format_rows(verts, "f" * verts.shape[1], prefix="v ")
               + format_rows(mesh.faces + 1, "ddd", prefix="f "))


def save_point_cloud(points: np.ndarray, path) -> None:
    """Write one "x y z" line per point."""
    save_rows(path, points)


def load_point_cloud(path) -> np.ndarray:
    return load_rows(path, 3)


def _conflict_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of candidates closer than `radius` in neighbouring grid cells.

    Returns (later, earlier) index arrays with later > earlier; a pair may repeat once cell
    keys wrap. A pair conflicts when its `np.floor(points / radius)` cells are at most 1
    apart on each axis and `d @ d < radius**2`, d being the earlier point minus the later one.
    """
    m = len(points)
    r2 = radius * radius
    cells = np.floor(points * (1.0 / radius)).astype(np.int64)
    # Mixed-radix cell keys, sorted, so memory grows with the candidates and not with the
    # grid. Beyond 2**63 cells the keys wrap and a far cell may share a neighbour's key; its
    # candidates lie at least `radius` away and fail the distance test.
    c = cells - (cells.min(axis=0) - 1)
    span = c.max(axis=0) + 2
    strides = np.array([span[1:].prod(), span[2], 1])
    key = c @ strides
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    bounds = np.append(np.flatnonzero(first), m)  # sorted position where each cell starts
    cell_keys = key[bounds[:-1]]
    # Sorted positions [start, stop) of each candidate's neighbours, one row per offset
    near = cell_keys + (_FORWARD_CELLS @ strides)[:, None]
    idx = np.searchsorted(cell_keys, near)
    found = np.take(cell_keys, idx, mode="clip") == near
    cell_of = np.cumsum(first) - 1
    start, stop = bounds[idx][:, cell_of], bounds[idx + found][:, cell_of]
    start[0] = np.arange(1, m + 1)  # within its own cell a candidate pairs with those after it
    count = (stop - start).ravel()
    a = np.repeat(np.tile(np.arange(m), len(_FORWARD_CELLS)), count)
    b = np.arange(count.sum()) + np.repeat(start.ravel() - (np.cumsum(count) - count), count)
    sorted_points = points[order]
    diff = np.take(sorted_points, b, axis=0) - np.take(sorted_points, a, axis=0)
    d2 = (diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) + diff[:, 2] * diff[:, 2]
    # once keys wrap, an offset may land on a candidate's own cell: drop it paired with itself
    close = (d2 < r2) & (a != b)
    # `d @ d` may round differently from d2, so it decides the values this near r2
    for k in np.flatnonzero(np.abs(d2 - r2) <= 1e-9 * r2):
        j, i = sorted((order[a[k]], order[b[k]]))
        close[k] = (d := points[j] - points[i]) @ d < r2
    i, j = order[a[close]], order[b[close]]
    return np.maximum(i, j), np.minimum(i, j)


def _greedy_thin(points: np.ndarray, radius: float, n_target: int) -> list[int]:
    """Dart throwing: the first `n_target` candidates, in index order, that lie at least
    `radius` from every candidate accepted before them.

    Candidate i is accepted when none of its conflicts j < i was. Each round decides every
    open candidate whose earlier conflicts are all rejected or one accepted, so at least the
    first open one; once a round decides under a quarter of the open candidates, a plain loop
    decides the rest. Each round costs O(open candidates + their conflicts), so the pass
    stays linear in candidates plus conflicts, besides one sort.
    """
    later, earlier = _conflict_pairs(points, radius)
    state = np.zeros(len(points), dtype=np.int8)  # 1 accepted, -1 rejected, 0 open
    blocked = np.zeros(len(points), dtype=bool)
    open_ = np.arange(len(points))
    while open_.size:
        blocked[later[state[earlier] >= 0]] = True
        state[open_[~blocked[open_]]] = 1
        blocked[later] = False
        state[later[state[earlier] == 1]] = -1
        keep = state[later] == 0
        later, earlier = later[keep], earlier[keep]
        was_open = open_.size
        open_ = open_[state[open_] == 0]
        if 4 * (was_open - open_.size) < was_open:
            break
    by_later = np.argsort(later, kind="stable")
    later, earlier = later[by_later], earlier[by_later]
    starts = np.searchsorted(later, open_, side="left").tolist()
    stops = np.searchsorted(later, open_, side="right").tolist()
    for i, lo, hi in zip(open_.tolist(), starts, stops):
        state[i] = -1 if (state[earlier[lo:hi]] == 1).any() else 1
    return np.flatnonzero(state == 1)[:n_target].tolist()


def sample_point_cloud(mesh: TriMesh, n: int, seed: int, return_faces: bool = False):
    """Sample exactly n points on the mesh surface.

    Area-weighted uniform candidates are thinned by greedy dart throwing at
    radius 0.7 * sqrt(area / n); any shortfall is filled from the remaining
    candidates, in candidate order, so the count is exact. The fill is not
    thinned: on the generated objects (4 categories x 10 at face_grid 6 and 3,
    dataset seed 0) thinning accepts 291 to 494 of n = 512 points, so 4% to 43%
    of each cloud is fill. Deterministic per seed.

    Returns the (n, 3) points, plus the generating face index per point when
    return_faces is set.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError("n must be an integer >= 1")
    areas = face_areas(mesh)
    total_area = areas.sum()
    if total_area <= 0:
        raise MeshError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    m = _OVERSAMPLE * n
    fidx = rng.choice(len(areas), size=m, p=areas / total_area)
    uv = rng.random((m, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    tri = mesh.triangles[fidx]
    pts = tri[:, 0] + uv[:, :1] * (tri[:, 1] - tri[:, 0]) + uv[:, 1:] * (tri[:, 2] - tri[:, 0])
    kept = _greedy_thin(pts, 0.7 * np.sqrt(total_area / n), n)
    chosen = np.zeros(m, dtype=bool)
    chosen[kept] = True
    fill = np.nonzero(~chosen)[0][: n - len(kept)]
    sel = np.concatenate([np.array(kept, dtype=np.int64), fill])
    if return_faces:
        return pts[sel], fidx[sel]
    return pts[sel]


def normalize(cloud: np.ndarray, strokes: list[np.ndarray], scale: float):
    """Center the cloud to zero mean and down-scale; apply the same transform to stroke positions.

    Orientation columns of the strokes are left untouched. Returns the
    transformed cloud, transformed strokes, and the invertible transform.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    tf = NormalizationTransform(cloud.mean(axis=0), float(scale))
    out_cloud = (cloud - tf.centroid) / tf.scale
    out_strokes = []
    for s in strokes:
        s = np.asarray(s, dtype=np.float64)
        t = s.copy()
        t[:, :3] = (s[:, :3] - tf.centroid) / tf.scale
        out_strokes.append(t)
    return out_cloud, out_strokes, tf


def denormalize(arrays, transform: NormalizationTransform) -> list[np.ndarray]:
    """Invert `normalize` on the positions (the first 3 of the last axis) of each array."""
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=np.float64).copy()
        a[..., :3] = a[..., :3] * transform.scale + transform.centroid
        out.append(a)
    return out
