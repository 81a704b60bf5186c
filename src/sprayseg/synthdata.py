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
from .kvio import format_rows, load_rows, write_file, write_keyvalues

CATEGORIES = ("cuboids", "windows", "shelves", "containers")

# Procedural generator distributions. Pass/turn counts are fixed per category
# so that the stroke layout varies smoothly with the sampled dimensions.
_STANDOFF_FRAC = 0.28      # stand-off as a fraction of the characteristic dimension
_MARGIN_FRAC = 0.15        # raster inset from panel borders (fraction of half extent)
_TILT_DEG = (15.0, 25.0)   # per-stroke lead angle into travel
_PHASE_JITTER = 0.5        # raster pass shift, in pass-pitch units
_STANDOFF_JITTER = (0.9, 1.15)
_CUBOID_SIZE = (0.3, 0.5)
_CUBOID_PASSES = 6
_CUBOID_POSES = 333
_WINDOW_OUTER = (0.5, 0.9)
_WINDOW_BAR = (0.07, 0.12)
_WINDOW_DEPTH = (0.04, 0.07)
_WINDOW_PASSES = 2
_WINDOW_POSES = 160
_SHELF_SPAN = (0.5, 0.9)
_SHELF_DEPTH = (0.25, 0.4)
_SHELF_THICKNESS = (0.02, 0.035)
_SHELF_COUNT = (2, 4)
_SHELF_PASSES = 4
_SHELF_POSES = 240
_CONTAINER_BASE = (0.3, 0.6)
_CONTAINER_HEIGHT = (0.25, 0.5)
_CONTAINER_WALL = (0.02, 0.04)
_CONTAINER_TURNS = 6
_CONTAINER_POSES = 700


@dataclass
class SampleRecord:
    """One generated object: mesh, expert strokes, category label, and seed."""

    mesh: TriMesh
    strokes: list[np.ndarray]
    category: str
    seed: int


# ---------------------------------------------------------------------------
# mesh construction


def _box_panels(center, size, cell: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box as six face grids subdivided to ~`cell`-sized quads."""
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(size, dtype=np.float64) / 2.0
    verts: list[np.ndarray] = []
    faces: list[np.ndarray] = []
    base = 0
    for axis in range(3):
        ua, va = (axis + 1) % 3, (axis + 2) % 3
        gu = max(1, int(round(size[ua] / cell)))
        gv = max(1, int(round(size[va] / cell)))
        a = (np.arange(gu)[:, None] * (gv + 1) + np.arange(gv)).ravel()
        b = a + gv + 1
        quad = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(-1, 3)
        for sign in (1.0, -1.0):
            p = np.empty((gu + 1, gv + 1, 3))
            p[..., axis] = center[axis] + sign * half[axis]
            p[..., ua] = center[ua] + np.linspace(-half[ua], half[ua], gu + 1)[:, None]
            p[..., va] = center[va] + np.linspace(-half[va], half[va], gv + 1)
            verts.append(p.reshape(-1, 3))
            faces.append(quad + base)
            base += (gu + 1) * (gv + 1)
    return np.concatenate(verts), np.concatenate(faces)


def _mesh_from_boxes(boxes, cell: float) -> TriMesh:
    verts: list[np.ndarray] = []
    faces: list[np.ndarray] = []
    offset = 0
    for center, size in boxes:
        v, f = _box_panels(center, size, cell)
        verts.append(v)
        faces.append(f + offset)
        offset += len(v)
    return TriMesh(np.concatenate(verts), np.concatenate(faces))


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
                   standoff, n_passes, n_poses, tilt: float,
                   phase: float = 0.0) -> np.ndarray:
    """Serpentine raster over a rectangle, hovering at stand-off along `normal`.

    `phase` shifts all passes along the cross direction (in pass-pitch units);
    `tilt` leans the spray into the travel direction.
    """
    origin = np.asarray(face_center, dtype=np.float64) + standoff * np.asarray(normal, dtype=np.float64)
    vs = np.linspace(-half_v, half_v, n_passes)
    vs = vs + phase * (vs[1] - vs[0])
    corners = []
    for i, v in enumerate(vs):
        u_from, u_to = (-half_u, half_u) if i % 2 == 0 else (half_u, -half_u)
        corners.append(origin + u_from * u_dir + v * v_dir)
        corners.append(origin + u_to * u_dir + v * v_dir)
    pos = _resample_polyline(np.array(corners), n_poses)
    inward = np.tile(-np.asarray(normal, dtype=np.float64), (n_poses, 1))
    return np.hstack([pos, _tilted_orientations(pos, inward, tilt)])


def _spiral_stroke(half_x, half_y, z_lo, z_hi, turns, n_poses, inward: bool,
                   tilt: float) -> np.ndarray:
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
    return np.hstack([pos, _tilted_orientations(pos, inward_dir, tilt)])


def _gen_cuboid(rng: np.random.Generator, face_grid: int) -> tuple[TriMesh, list[np.ndarray]]:
    size = rng.uniform(*_CUBOID_SIZE, size=3)
    mesh = _mesh_from_boxes([(np.zeros(3), size)], size.max() / face_grid)
    standoff = _STANDOFF_FRAC * size.min() * rng.uniform(*_STANDOFF_JITTER)
    # the pass envelope leaves room for the phase shift to stay inside the margin
    envelope = (1 - _MARGIN_FRAC) * (_CUBOID_PASSES - 1) / _CUBOID_PASSES
    strokes = []
    for axis in range(3):
        ua, va = (axis + 1) % 3, (axis + 2) % 3
        for sign in (1.0, -1.0):
            phase = rng.uniform(-_PHASE_JITTER, _PHASE_JITTER)
            tilt = np.deg2rad(rng.uniform(*_TILT_DEG))
            center = np.zeros(3)
            center[axis] = sign * size[axis] / 2
            normal = np.zeros(3)
            normal[axis] = sign
            strokes.append(_raster_stroke(
                center, np.eye(3)[ua], np.eye(3)[va], normal,
                (1 - _MARGIN_FRAC) * size[ua] / 2,
                envelope * size[va] / 2,
                standoff, _CUBOID_PASSES, _CUBOID_POSES,
                tilt=tilt, phase=phase))
    return mesh, strokes


def _gen_window(rng: np.random.Generator, face_grid: int) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*_WINDOW_OUTER)
    h = rng.uniform(*_WINDOW_OUTER)
    bar = rng.uniform(*_WINDOW_BAR)
    depth = rng.uniform(*_WINDOW_DEPTH)
    # frame in the xz plane, depth along y; four slabs: left, right, top, bottom
    slabs = [
        (np.array([-(w - bar) / 2, 0.0, 0.0]), np.array([bar, depth, h])),
        (np.array([+(w - bar) / 2, 0.0, 0.0]), np.array([bar, depth, h])),
        (np.array([0.0, 0.0, +(h - bar) / 2]), np.array([w - 2 * bar, depth, bar])),
        (np.array([0.0, 0.0, -(h - bar) / 2]), np.array([w - 2 * bar, depth, bar])),
    ]
    mesh = _mesh_from_boxes(slabs, max(w, h) / face_grid)
    standoff = _STANDOFF_FRAC * 4.0 * bar * rng.uniform(*_STANDOFF_JITTER)
    normal = np.array([0.0, 1.0, 0.0])
    strokes = []
    for center, size in slabs:
        tilt = np.deg2rad(rng.uniform(*_TILT_DEG))
        face_center = center + np.array([0.0, size[1] / 2, 0.0])
        long_axis = 2 if size[2] >= size[0] else 0
        short_axis = 0 if long_axis == 2 else 2
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[long_axis], np.eye(3)[short_axis], normal,
            (1 - _MARGIN_FRAC) * size[long_axis] / 2,
            (1 - _MARGIN_FRAC) * size[short_axis] / 2,
            standoff, _WINDOW_PASSES, _WINDOW_POSES, tilt=tilt))
    return mesh, strokes


def _gen_shelf(rng: np.random.Generator, face_grid: int) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*_SHELF_SPAN)
    h = rng.uniform(*_SHELF_SPAN)
    d = rng.uniform(*_SHELF_DEPTH)
    t = rng.uniform(*_SHELF_THICKNESS)
    n_sh = int(rng.integers(_SHELF_COUNT[0], _SHELF_COUNT[1] + 1))
    boxes = [
        (np.array([-(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([+(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
    ]
    for z in np.linspace(-h / 2 + t, h / 2 - t, n_sh):
        boxes.append((np.array([0.0, 0.0, z]), np.array([w - 2 * t, d, t])))
    mesh = _mesh_from_boxes(boxes, max(w, h) / face_grid)
    standoff = _STANDOFF_FRAC * d * rng.uniform(*_STANDOFF_JITTER)
    strokes = []
    for side, (center, size) in zip((-1.0, 1.0), boxes[:2]):
        tilt = np.deg2rad(rng.uniform(*_TILT_DEG))
        normal = np.array([side, 0.0, 0.0])
        face_center = center + normal * size[0] / 2
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[2], np.eye(3)[1], normal,
            (1 - _MARGIN_FRAC) * size[2] / 2,
            (1 - _MARGIN_FRAC) * size[1] / 2,
            standoff, _SHELF_PASSES, _SHELF_POSES, tilt=tilt))
    # keep shelf-top poses closer to their own panel than to the shelf above
    # or the side panels, so orientations always face the nearest surface
    air_gap = (h - 2 * t) / (n_sh - 1) - t
    shelf_standoff = min(standoff, 0.45 * air_gap)
    normal = np.array([0.0, 0.0, 1.0])
    for center, size in boxes[2:]:
        tilt = np.deg2rad(rng.uniform(*_TILT_DEG))
        face_center = center + normal * size[2] / 2
        half_x = min((1 - _MARGIN_FRAC) * size[0] / 2,
                     size[0] / 2 - 1.25 * shelf_standoff)
        strokes.append(_raster_stroke(
            face_center, np.eye(3)[0], np.eye(3)[1], normal,
            half_x,
            (1 - _MARGIN_FRAC) * size[1] / 2,
            shelf_standoff, _SHELF_PASSES, _SHELF_POSES, tilt=tilt))
    return mesh, strokes


def _gen_container(rng: np.random.Generator, face_grid: int) -> tuple[TriMesh, list[np.ndarray]]:
    w = rng.uniform(*_CONTAINER_BASE)
    d = rng.uniform(*_CONTAINER_BASE)
    h = rng.uniform(*_CONTAINER_HEIGHT)
    t = rng.uniform(*_CONTAINER_WALL)
    boxes = [
        (np.array([0.0, 0.0, -(h - t) / 2]), np.array([w - 2 * t, d - 2 * t, t])),
        (np.array([-(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([+(w - t) / 2, 0.0, 0.0]), np.array([t, d, h])),
        (np.array([0.0, -(d - t) / 2, 0.0]), np.array([w - 2 * t, t, h])),
        (np.array([0.0, +(d - t) / 2, 0.0]), np.array([w - 2 * t, t, h])),
    ]
    mesh = _mesh_from_boxes(boxes, max(w, d, h) / face_grid)
    standoff = _STANDOFF_FRAC * min(w, d) * rng.uniform(*_STANDOFF_JITTER)
    tilt_outer = np.deg2rad(rng.uniform(*_TILT_DEG))
    tilt_inner = np.deg2rad(rng.uniform(*_TILT_DEG))
    z_margin = 0.08 * h
    outer = _spiral_stroke(w / 2 + standoff, d / 2 + standoff,
                           -h / 2 + z_margin, h / 2 - z_margin,
                           _CONTAINER_TURNS, _CONTAINER_POSES, inward=True,
                           tilt=tilt_outer)
    inner_off = min(standoff, 0.35 * (min(w, d) / 2 - t))
    # start the inner spiral high enough that the wall stays the nearest surface
    inner_z_lo = -h / 2 + t + max(z_margin, 1.25 * inner_off)
    inner = _spiral_stroke(w / 2 - t - inner_off, d / 2 - t - inner_off,
                           inner_z_lo, h / 2 - z_margin,
                           _CONTAINER_TURNS, _CONTAINER_POSES, inward=False,
                           tilt=tilt_inner)
    return mesh, [outer, inner]


_GENERATORS = {
    "cuboids": _gen_cuboid,
    "windows": _gen_window,
    "shelves": _gen_shelf,
    "containers": _gen_container,
}


def generate_object(category: str, seed: int, face_grid: int = 6) -> SampleRecord:
    """Generate one (mesh, expert strokes) pair; bit-deterministic per (category, seed).

    `face_grid` is the per-panel subdivision of the simulation mesh.
    """
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    rng = np.random.default_rng([CATEGORIES.index(category), seed])
    mesh, strokes = _GENERATORS[category](rng, face_grid)
    return SampleRecord(mesh=mesh, strokes=strokes, category=category, seed=seed)


# ---------------------------------------------------------------------------
# stroke processing


def downsample_strokes(strokes: list[np.ndarray], budget: int) -> list[np.ndarray]:
    """Reduce the total pose count to exactly `budget`, proportionally per stroke.

    Per-stroke counts are proportional to the original lengths (largest-remainder
    rounding), and each stroke keeps at least 2 poses including both endpoints.
    Strokes whose total is within the budget are returned as they are.
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
    # a shortfall is below the count of strokes not raised to 2 (each has m < count), so one
    # pass meets it; a surplus leaves a stroke above 2 poses since budget >= 2 * n_strokes
    if leftover > 0:
        order = np.argsort(-(quota - np.floor(quota)), kind="stable")
        for idx in order:
            if leftover == 0:
                break
            if m[idx] < counts[idx]:
                m[idx] += 1
                leftover -= 1
    while leftover < 0:
        idx = int(np.argmax(m))
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


def save_strokes(strokes: list[np.ndarray], path) -> None:
    """One line per pose, "k px py pz ox oy oz", where k is the index of its stroke."""
    rows = np.concatenate([np.column_stack([np.full(len(s), k), s])
                           for k, s in enumerate(strokes)])
    write_file(path, format_rows(rows, "dffffff"))  # k is a float here; "%d" writes it whole


def load_strokes(path) -> list[np.ndarray]:
    """The strokes of a `save_strokes` file, in order; errors name the file."""
    rows = load_rows(path, 7)
    steps = np.diff(rows[:, 0])
    if rows[0, 0] != 0 or not np.isin(steps, (0, 1)).all():
        raise ValueError(f"{path}: stroke indices must start at 0 and step by 0 or 1")
    poses = geometry.check_poses(np.ascontiguousarray(rows[:, 1:]), str(path))
    return np.split(poses, np.flatnonzero(steps) + 1)


def save_sample(record: SampleRecord, dirpath) -> None:
    """Serialize a sample as a directory: mesh file, stroke file, metadata."""
    dirpath = Path(dirpath)
    geometry.save_mesh(record.mesh, dirpath / "mesh.txt")
    save_strokes(record.strokes, dirpath / "strokes.txt")
    write_keyvalues(dirpath / "meta.txt", {"category": record.category, "seed": record.seed})

