"""Procedural (mesh, expert strokes) generation plus stroke decomposition utilities.

A pose is a row [px py pz ox oy oz]: a 3D position and a unit spray-approach
direction. A stroke is an (N, 6) float array of poses executed in order; a
segment is a fixed-length window of a stroke.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .geometry import TriMesh
from .kvio import read_keyvalues, write_keyvalues

CATEGORIES = ("cuboids", "windows", "shelves", "containers")
_CAT_INDEX = {c: i for i, c in enumerate(CATEGORIES)}


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the procedural object generator.

    Pass/turn counts are fixed per category so that the stroke layout varies
    smoothly with the sampled dimensions.
    """

    standoff_frac: float = 0.28       # stand-off as a fraction of the characteristic dimension
    margin_frac: float = 0.15         # raster inset from panel borders (fraction of half extent)
    face_grid: int = 6                # per-panel subdivision of the simulation mesh
    tilt_deg: tuple[float, float] = (15.0, 25.0)   # per-stroke lead angle into travel
    phase_jitter: float = 0.5         # raster pass shift, in pass-pitch units
    standoff_jitter: tuple[float, float] = (0.9, 1.15)
    cuboid_size: tuple[float, float] = (0.3, 0.5)
    cuboid_passes: int = 6
    cuboid_poses: int = 333
    window_outer: tuple[float, float] = (0.5, 0.9)
    window_bar: tuple[float, float] = (0.07, 0.12)
    window_depth: tuple[float, float] = (0.04, 0.07)
    window_passes: int = 2
    window_poses: int = 160
    shelf_span: tuple[float, float] = (0.5, 0.9)
    shelf_depth: tuple[float, float] = (0.25, 0.4)
    shelf_thickness: tuple[float, float] = (0.02, 0.035)
    shelf_count: tuple[int, int] = (2, 4)
    shelf_passes: int = 4
    shelf_poses: int = 240
    container_base: tuple[float, float] = (0.3, 0.6)
    container_height: tuple[float, float] = (0.25, 0.5)
    container_wall: tuple[float, float] = (0.02, 0.04)
    container_turns: int = 6
    container_poses: int = 700


@dataclass
class SampleRecord:
    """One generated object: mesh, expert strokes, category label, and seed."""

    mesh: TriMesh
    strokes: list[np.ndarray]
    category: str
    seed: int


def validate_strokes(strokes: list[np.ndarray], unit_tol: float = 1e-6) -> None:
    """Check pose-array invariants: shape, finiteness, unit orientations, motion."""
    for s in strokes:
        s = np.asarray(s)
        if s.ndim != 2 or s.shape[1] != 6 or len(s) < 2:
            raise ValueError("each stroke must be an (N, 6) array with N >= 2")
        if not np.isfinite(s).all():
            raise ValueError("stroke contains non-finite values")
        norms = np.linalg.norm(s[:, 3:], axis=1)
        if np.abs(norms - 1.0).max() > unit_tol:
            raise ValueError("orientations must be unit vectors")
        steps = np.linalg.norm(np.diff(s[:, :3], axis=0), axis=1)
        if (steps == 0).any():
            raise ValueError("consecutive stroke positions must be distinct")


# ---------------------------------------------------------------------------
# mesh construction


def _box_panels(center, size, cell: float):
    """Axis-aligned box as six face grids subdivided to ~`cell`-sized quads."""
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(size, dtype=np.float64) / 2.0
    verts: list[np.ndarray] = []
    faces: list[list[int]] = []
    for axis in range(3):
        ua, va = (axis + 1) % 3, (axis + 2) % 3
        gu = max(1, int(round(size[ua] / cell)))
        gv = max(1, int(round(size[va] / cell)))
        for sign in (1.0, -1.0):
            base = len(verts)
            us = np.linspace(-half[ua], half[ua], gu + 1)
            vs = np.linspace(-half[va], half[va], gv + 1)
            for u in us:
                for v in vs:
                    p = center.copy()
                    p[axis] += sign * half[axis]
                    p[ua] += u
                    p[va] += v
                    verts.append(p)
            for i in range(gu):
                for j in range(gv):
                    a = base + i * (gv + 1) + j
                    b = a + gv + 1
                    faces.append([a, b, b + 1])
                    faces.append([a, b + 1, a + 1])
    return verts, faces


def _mesh_from_boxes(boxes, cell: float) -> TriMesh:
    verts: list[np.ndarray] = []
    faces: list[list[int]] = []
    for center, size in boxes:
        v, f = _box_panels(center, size, cell)
        offset = len(verts)
        verts.extend(v)
        faces.extend([[a + offset, b + offset, c + offset] for a, b, c in f])
    return TriMesh(np.array(verts), np.array(faces))


# ---------------------------------------------------------------------------
# stroke construction


def _resample_polyline(corners: np.ndarray, n: int) -> np.ndarray:
    """n points evenly spaced in arc length along the polyline, endpoints included."""
    corners = np.asarray(corners, dtype=np.float64)
    seg = np.linalg.norm(np.diff(corners, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, cum[-1], n)
    out = np.empty((n, 3))
    for d in range(3):
        out[:, d] = np.interp(targets, cum, corners[:, d])
    return out


def _travel_directions(pos: np.ndarray) -> np.ndarray:
    steps = np.diff(pos, axis=0)
    steps = np.vstack([steps, steps[-1]])
    norms = np.linalg.norm(steps, axis=1, keepdims=True)
    return steps / np.where(norms < 1e-12, 1.0, norms)


def _tilted_orientations(pos: np.ndarray, inward: np.ndarray, tilt: float) -> np.ndarray:
    """Approach vectors leaning by `tilt` into the direction of travel."""
    ori = np.cos(tilt) * inward + np.sin(tilt) * _travel_directions(pos)
    return ori / np.linalg.norm(ori, axis=1, keepdims=True)


def _raster_stroke(face_center, u_dir, v_dir, normal, half_u, half_v,
                   standoff, n_passes, n_poses, tilt: float = 0.0,
                   phase: float = 0.0) -> np.ndarray:
    """Serpentine raster over a rectangle, hovering at stand-off along `normal`.

    `phase` shifts all passes along the cross direction (in pass-pitch units);
    `tilt` leans the spray into the travel direction.
    """
    origin = np.asarray(face_center, dtype=np.float64) + standoff * np.asarray(normal, dtype=np.float64)
    vs = np.linspace(-half_v, half_v, n_passes)
    if n_passes > 1:
        vs = vs + phase * (vs[1] - vs[0])
    corners = []
    for i, v in enumerate(vs):
        u_from, u_to = (-half_u, half_u) if i % 2 == 0 else (half_u, -half_u)
        corners.append(origin + u_from * u_dir + v * v_dir)
        corners.append(origin + u_to * u_dir + v * v_dir)
    pos = _resample_polyline(np.array(corners), n_poses)
    inward = np.tile(-np.asarray(normal, dtype=np.float64), (n_poses, 1))
    if tilt == 0.0:
        return np.hstack([pos, inward])
    return np.hstack([pos, _tilted_orientations(pos, inward, tilt)])


def _spiral_stroke(half_x, half_y, z_lo, z_hi, turns, n_poses, inward: bool,
                   tilt: float = 0.0) -> np.ndarray:
    """Rectangular helix around a wall loop; orientations face the nearest wall."""
    loop = [(half_x, half_y), (-half_x, half_y), (-half_x, -half_y), (half_x, -half_y)]
    corners = []
    for k in range(turns):
        for cx, cy in loop:
            corners.append([cx, cy, 0.0])
    corners.append([half_x, half_y, 0.0])
    corners = np.array(corners, dtype=np.float64)
    seg = np.linalg.norm(np.diff(corners[:, :2], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    corners[:, 2] = z_lo + (z_hi - z_lo) * cum / cum[-1]
    pos = _resample_polyline(corners, n_poses)
    inward_dir = np.zeros((n_poses, 3))
    side_x = (half_x - np.abs(pos[:, 0])) <= (half_y - np.abs(pos[:, 1]))
    sign = -1.0 if inward else 1.0
    inward_dir[side_x, 0] = sign * np.sign(pos[side_x, 0])
    inward_dir[~side_x, 1] = sign * np.sign(pos[~side_x, 1])
    if tilt == 0.0:
        return np.hstack([pos, inward_dir])
    return np.hstack([pos, _tilted_orientations(pos, inward_dir, tilt)])


def _gen_cuboid(rng: np.random.Generator, cfg: GeneratorConfig) -> tuple[TriMesh, list[np.ndarray]]:
    size = rng.uniform(*cfg.cuboid_size, size=3)
    mesh = _mesh_from_boxes([(np.zeros(3), size)], size.max() / cfg.face_grid)
    standoff = cfg.standoff_frac * size.min() * rng.uniform(*cfg.standoff_jitter)
    # the pass envelope leaves room for the phase shift to stay inside the margin
    envelope = (1 - cfg.margin_frac) * (cfg.cuboid_passes - 1) / cfg.cuboid_passes
    strokes = []
    for axis in range(3):
        ua, va = (axis + 1) % 3, (axis + 2) % 3
        for sign in (1.0, -1.0):
            phase = rng.uniform(-cfg.phase_jitter, cfg.phase_jitter)
            tilt = np.deg2rad(rng.uniform(*cfg.tilt_deg))
            center = np.zeros(3)
            center[axis] = sign * size[axis] / 2
            normal = np.zeros(3)
            normal[axis] = sign
            strokes.append(_raster_stroke(
                center, np.eye(3)[ua], np.eye(3)[va], normal,
                (1 - cfg.margin_frac) * size[ua] / 2,
                envelope * size[va] / 2,
                standoff, cfg.cuboid_passes, cfg.cuboid_poses,
                tilt=tilt, phase=phase))
    return mesh, strokes


def _gen_window(rng: np.random.Generator, cfg: GeneratorConfig) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*cfg.window_outer)
    h = rng.uniform(*cfg.window_outer)
    bar = rng.uniform(*cfg.window_bar)
    depth = rng.uniform(*cfg.window_depth)
    # frame in the xz plane, depth along y; four slabs: left, right, top, bottom
    slabs = [
        (np.array([-(w - bar) / 2, 0.0, 0.0]), np.array([bar, depth, h])),
        (np.array([+(w - bar) / 2, 0.0, 0.0]), np.array([bar, depth, h])),
        (np.array([0.0, 0.0, +(h - bar) / 2]), np.array([w - 2 * bar, depth, bar])),
        (np.array([0.0, 0.0, -(h - bar) / 2]), np.array([w - 2 * bar, depth, bar])),
    ]
    mesh = _mesh_from_boxes(slabs, max(w, h) / cfg.face_grid)
    standoff = cfg.standoff_frac * 4.0 * bar * rng.uniform(*cfg.standoff_jitter)
    normal = np.array([0.0, 1.0, 0.0])
    strokes = []
    for center, size in slabs:
        tilt = np.deg2rad(rng.uniform(*cfg.tilt_deg))
        face_center = center + np.array([0.0, size[1] / 2, 0.0])
        long_axis = 2 if size[2] >= size[0] else 0
        short_axis = 0 if long_axis == 2 else 2
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[long_axis], np.eye(3)[short_axis], normal,
            (1 - cfg.margin_frac) * size[long_axis] / 2,
            (1 - cfg.margin_frac) * size[short_axis] / 2,
            standoff, cfg.window_passes, cfg.window_poses, tilt=tilt))
    return mesh, strokes


def _gen_shelf(rng: np.random.Generator, cfg: GeneratorConfig) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*cfg.shelf_span)
    h = rng.uniform(*cfg.shelf_span)
    d = rng.uniform(*cfg.shelf_depth)
    t = rng.uniform(*cfg.shelf_thickness)
    n_sh = int(rng.integers(cfg.shelf_count[0], cfg.shelf_count[1] + 1))
    boxes = [
        (np.array([-(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([+(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
    ]
    for z in np.linspace(-h / 2 + t, h / 2 - t, n_sh):
        boxes.append((np.array([0.0, 0.0, z]), np.array([w - 2 * t, d, t])))
    mesh = _mesh_from_boxes(boxes, max(w, h) / cfg.face_grid)
    standoff = cfg.standoff_frac * d * rng.uniform(*cfg.standoff_jitter)
    strokes = []
    for side, (center, size) in zip((-1.0, 1.0), boxes[:2]):
        tilt = np.deg2rad(rng.uniform(*cfg.tilt_deg))
        normal = np.array([side, 0.0, 0.0])
        face_center = center + normal * size[0] / 2
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[2], np.eye(3)[1], normal,
            (1 - cfg.margin_frac) * size[2] / 2,
            (1 - cfg.margin_frac) * size[1] / 2,
            standoff, cfg.shelf_passes, cfg.shelf_poses, tilt=tilt))
    # keep shelf-top poses closer to their own panel than to the shelf above
    # or the side panels, so orientations always face the nearest surface
    air_gap = (h - 2 * t) / (n_sh - 1) - t if n_sh > 1 else h
    shelf_standoff = min(standoff, 0.45 * air_gap)
    normal = np.array([0.0, 0.0, 1.0])
    for center, size in boxes[2:]:
        tilt = np.deg2rad(rng.uniform(*cfg.tilt_deg))
        face_center = center + normal * size[2] / 2
        half_x = min((1 - cfg.margin_frac) * size[0] / 2,
                     size[0] / 2 - 1.25 * shelf_standoff)
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[0], np.eye(3)[1], normal,
            half_x,
            (1 - cfg.margin_frac) * size[1] / 2,
            shelf_standoff, cfg.shelf_passes, cfg.shelf_poses, tilt=tilt))
    return mesh, strokes


def _gen_container(rng: np.random.Generator, cfg: GeneratorConfig) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*cfg.container_base)
    d = rng.uniform(*cfg.container_base)
    h = rng.uniform(*cfg.container_height)
    t = rng.uniform(*cfg.container_wall)
    boxes = [
        (np.array([0.0, 0.0, -(h - t) / 2]), np.array([w - 2 * t, d - 2 * t, t])),
        (np.array([-(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([+(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([0.0, -(d - t) / 2, 0.0]), np.array([w - 2 * t, t, h])),
        (np.array([0.0, +(d - t) / 2, 0.0]), np.array([w - 2 * t, t, h])),
    ]
    mesh = _mesh_from_boxes(boxes, max(w, d, h) / cfg.face_grid)
    standoff = cfg.standoff_frac * min(w, d) * rng.uniform(*cfg.standoff_jitter)
    tilt_outer = np.deg2rad(rng.uniform(*cfg.tilt_deg))
    tilt_inner = np.deg2rad(rng.uniform(*cfg.tilt_deg))
    z_margin = 0.08 * h
    outer = _spiral_stroke(w / 2 + standoff, d / 2 + standoff,
                           -h / 2 + z_margin, h / 2 - z_margin,
                           cfg.container_turns, cfg.container_poses, inward=True,
                           tilt=tilt_outer)
    inner_off = min(standoff, 0.35 * (min(w, d) / 2 - t))
    # start the inner spiral high enough that the wall stays the nearest surface
    inner_z_lo = -h / 2 + t + max(z_margin, 1.25 * inner_off)
    inner = _spiral_stroke(w / 2 - t - inner_off, d / 2 - t - inner_off,
                           inner_z_lo, h / 2 - z_margin,
                           cfg.container_turns, cfg.container_poses, inward=False,
                           tilt=tilt_inner)
    return mesh, [outer, inner]


_GENERATORS = {
    "cuboids": _gen_cuboid,
    "windows": _gen_window,
    "shelves": _gen_shelf,
    "containers": _gen_container,
}


def generate_object(category: str, seed: int, params: GeneratorConfig | None = None) -> SampleRecord:
    """Generate one (mesh, expert strokes) pair; bit-deterministic per (category, seed)."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    cfg = params or GeneratorConfig()
    rng = np.random.default_rng([_CAT_INDEX[category], seed])
    mesh, strokes = _GENERATORS[category](rng, cfg)
    return SampleRecord(mesh=mesh, strokes=strokes, category=category, seed=seed)


# ---------------------------------------------------------------------------
# stroke processing


def downsample_strokes(strokes: list[np.ndarray], budget: int) -> list[np.ndarray]:
    """Reduce total pose count to ~budget, proportionally per stroke.

    Per-stroke counts are proportional to the original lengths (largest-remainder
    rounding), each stroke keeps at least 2 poses including both endpoints, and
    the combined count never exceeds the budget plus the per-stroke rounding slack.
    """
    counts = np.array([len(s) for s in strokes])
    n_strokes = len(strokes)
    if budget < 2 * n_strokes:
        raise ValueError("budget must be at least twice the stroke count")
    total = counts.sum()
    if total <= budget:
        return [np.asarray(s, dtype=np.float64).copy() for s in strokes]
    quota = budget * counts / total
    m = np.maximum(np.floor(quota).astype(int), 2)
    leftover = budget - m.sum()
    if leftover > 0:
        order = np.argsort(-(quota - np.floor(quota)), kind="stable")
        while leftover > 0:
            progressed = False
            for idx in order:
                if leftover == 0:
                    break
                if m[idx] < counts[idx]:
                    m[idx] += 1
                    leftover -= 1
                    progressed = True
            if not progressed:
                break
    while leftover < 0:
        idx = int(np.argmax(m))
        if m[idx] <= 2:
            break
        m[idx] -= 1
        leftover += 1
    out = []
    for s, mi in zip(strokes, m):
        idx = np.linspace(0, len(s) - 1, mi).astype(int)
        out.append(np.asarray(s, dtype=np.float64)[idx])
    return out


def decompose_segments(strokes: list[np.ndarray], lam: int, overlap: int) -> np.ndarray:
    """Slice strokes into fixed-length windows sharing `overlap` poses: (K, lam, 6).

    Per stroke this yields `output_slot_count(N, lam, overlap)` windows;
    trailing poses that do not fill a window are dropped.
    """
    segs = []
    for s in strokes:
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] != 6:
            raise ValueError("each stroke must be an (N, 6) pose array")
        if len(s) < lam:
            raise ValueError(f"stroke of {len(s)} poses is shorter than lam={lam}")
        stride = lam - overlap
        for k in range(output_slot_count(len(s), lam, overlap)):
            segs.append(s[k * stride: k * stride + lam])
    return np.stack(segs)


def output_slot_count(total_poses: int, lam: int, overlap: int) -> int:
    """Window count of a stroke of `total_poses` poses; as the model's slot count
    it covers any decomposition of that many poses."""
    if total_poses < lam:
        raise ValueError("total_poses must be >= lam")
    if not 0 <= overlap < lam:
        raise ValueError("overlap must satisfy 0 <= overlap < lam")
    return (total_poses - lam) // (lam - overlap) + 1


def split_dataset(records: list, seed: int) -> tuple[list, list]:
    """Deterministic disjoint 80/20 split of any record list."""
    n = len(records)
    if n < 5:
        raise ValueError("need at least 5 records to split")
    rng = np.random.default_rng([7, seed])
    order = rng.permutation(n)
    n_test = max(1, int(round(0.2 * n)))
    test = [records[i] for i in sorted(order[:n_test])]
    train = [records[i] for i in sorted(order[n_test:])]
    return train, test


# ---------------------------------------------------------------------------
# serialization


def save_strokes(strokes: list[np.ndarray], dirpath, stem: str = "stroke") -> None:
    """One file per stroke, lines "px py pz ox oy oz"."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(strokes):
        lines = [" ".join(f"{x:.17g}" for x in pose) for pose in np.asarray(s, dtype=np.float64)]
        (dirpath / f"{stem}_{i:03d}.txt").write_text("\n".join(lines) + "\n")


def load_strokes(dirpath, stem: str = "stroke") -> list[np.ndarray]:
    paths = sorted(Path(dirpath).glob(f"{stem}_*.txt"))
    if not paths:
        raise FileNotFoundError(f"no {stem}_*.txt files under {dirpath}")
    strokes = []
    for p in paths:
        rows = [[float(t) for t in line.split()]
                for line in p.read_text().splitlines() if line.strip()]
        s = np.array(rows, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] != 6:
            raise ValueError(f"{p}: expected 6 values per line")
        if not np.isfinite(s).all():
            raise ValueError(f"{p}: non-finite pose value")
        strokes.append(s)
    return strokes


def save_sample(record: SampleRecord, dirpath) -> None:
    """Serialize a sample as a directory: mesh file, stroke files, metadata."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    geometry.save_mesh(record.mesh, dirpath / "mesh.txt")
    save_strokes(record.strokes, dirpath)
    write_keyvalues(dirpath / "meta.txt", {"category": record.category, "seed": record.seed})


def load_sample(dirpath) -> SampleRecord:
    dirpath = Path(dirpath)
    mesh, _ = geometry.load_mesh(dirpath / "mesh.txt")
    strokes = load_strokes(dirpath)
    meta = read_keyvalues(dirpath / "meta.txt")
    return SampleRecord(mesh=mesh, strokes=strokes,
                        category=meta["category"], seed=int(meta["seed"]))
