"""Conic spray deposition on mesh vertices, plus the two evaluation metrics.

Each pose sprays a cone around its approach direction: a vertex inside the cone
and range receives flux * cos(angle) / r^2 unless another triangle occludes the
ray from the gun to the vertex. Coverage is threshold-relative, so metric values
do not depend on the particular flux constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TriMesh, check_poses
from .kvio import load_rows, save_rows
from .objective import LossWeights, _chamfer
from .parallel import spread


@dataclass(frozen=True)
class SprayGunModel:
    """Hard-cutoff cone gun, rotationally symmetric about the approach axis."""

    cone_half_angle: float = np.deg2rad(30.0)
    max_range: float = 0.5
    flux: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.cone_half_angle < np.pi / 2:
            raise ValueError("cone_half_angle must lie in (0, pi/2)")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not self.flux > 0:
            raise ValueError("flux must be positive")


@dataclass
class CoverageReport:
    threshold: float
    gt_covered: int
    pred_covered_of_gt: int
    pc: float

    def __post_init__(self) -> None:
        if not 0 <= self.pred_covered_of_gt <= self.gt_covered:
            raise ValueError("covered counts are inconsistent")
        if not 0.0 <= self.pc <= 100.0:
            raise ValueError("pc must lie in [0, 100]")


def _visible(origins: np.ndarray, targets: np.ndarray, dists: np.ndarray,
             tris: np.ndarray) -> np.ndarray:
    """Per-ray flag: no triangle intersects the ray strictly before its target.

    Möller–Trumbore ray/triangle test, run in two stages per chunk of rays:

    - dense: ``pvec = dir x e2``, ``det = pvec . e1`` and the barycentric
      ``u = (origin - v0) . pvec / det`` for every (ray, face) pair;
    - sparse: ``qvec``, ``v`` and the ray parameter ``t`` only for the pairs
      that survive the ``det`` and ``u`` tests, usually a small share.

    Cross and dot products are written out per component in the operation
    order of ``np.cross`` followed by ``.sum(-1)``, i.e. ``(x + y) + z``. Every
    intermediate therefore rounds exactly as the plain vectorised test does
    (kept in the tests as the oracle), and the flags, hence the paint fields,
    are bit-identical to it: another order could move a ray that grazes an
    edge or vertex across one of the epsilons.

    Chunks are independent and run concurrently (``parallel.spread``). Each
    chunk writes only its own slice of the result, so the flags do not depend
    on the worker count.
    """
    v0x, v0y, v0z = np.ascontiguousarray(tris[:, 0].T)
    e1x, e1y, e1z = np.ascontiguousarray((tris[:, 1] - tris[:, 0]).T)
    e2x, e2y, e2z = np.ascontiguousarray((tris[:, 2] - tris[:, 0]).T)
    out = np.ones(len(targets), dtype=bool)
    # chunk rays so each (rays x faces) intermediate stays near cache size
    # (~0.4 MB); two chunks in flight then hold what one serial chunk of
    # ~100k pairs did, which was the fastest serial size
    step = max(1, int(50_000 / max(len(tris), 1)))

    def chunk(lo: int) -> None:
        hi = lo + step
        org = origins[lo:hi]
        dirs = (targets[lo:hi] - org) / dists[lo:hi, None]
        dx, dy, dz = (c[:, None] for c in dirs.T)
        ox, oy, oz = (c[:, None] for c in org.T)
        px = dy * e2z - dz * e2y
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = px * e1x
        det += py * e1y
        det += pz * e1z
        valid = np.abs(det) > 1e-12
        inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        u = (ox - v0x) * px
        u += (oy - v0y) * py
        u += (oz - v0z) * pz
        u *= inv
        # v >= -1e-12 and u + v <= 1 + 1e-12 bound u by 1 + 2e-12 plus rounding;
        # the looser cut here keeps every pair the full test could call a hit
        ri, fi = np.nonzero(valid & (u >= -1e-12) & (u <= 1.0 + 1e-11))
        if len(ri) == 0:
            return
        tx = org[ri, 0] - v0x[fi]
        ty = org[ri, 1] - v0y[fi]
        tz = org[ri, 2] - v0z[fi]
        qx = ty * e1z[fi] - tz * e1y[fi]
        qy = tz * e1x[fi] - tx * e1z[fi]
        qz = tx * e1y[fi] - ty * e1x[fi]
        inv = inv[ri, fi]
        v = (dirs[ri, 0] * qx + dirs[ri, 1] * qy + dirs[ri, 2] * qz) * inv
        t = (qx * e2x[fi] + qy * e2y[fi] + qz * e2z[fi]) * inv
        hit = ((v >= -1e-12) & (u[ri, fi] + v <= 1.0 + 1e-12)
               & (t > 1e-9) & (t < dists[lo + ri] * (1.0 - 1e-6)))
        out[lo + ri[hit]] = False

    spread(chunk, range(0, len(targets), step))
    return out


def deposit(mesh: TriMesh, strokes: list[np.ndarray], gun: SprayGunModel) -> np.ndarray:
    """Accumulated per-vertex paint thickness from executing the strokes.

    Contributions are summed in pose order, so the field is additive over
    disjointly deposited stroke lists.
    """
    verts = mesh.vertices
    tris = mesh.triangles
    field = np.zeros(len(verts))
    cos_half = np.cos(gun.cone_half_angle)
    all_poses = [check_poses(stroke) for stroke in strokes]
    if not all_poses:
        return field
    poses = np.concatenate(all_poses)
    chunk = max(1, int(500_000 / max(len(verts), 1)))
    for lo in range(0, len(poses), chunk):
        p = poses[lo: lo + chunk, :3]
        axis = poses[lo: lo + chunk, 3:]
        d = verts[None, :, :] - p[:, None, :]
        r2 = np.einsum("cvd,cvd->cv", d, d)
        r = np.sqrt(r2)
        ok = (r > 1e-12) & (r <= gun.max_range)
        cosang = np.zeros_like(r)
        np.divide(np.einsum("cvd,cd->cv", d, axis), r, out=cosang, where=ok)
        ok &= cosang >= cos_half
        ci, vi = np.nonzero(ok)
        if len(ci) == 0:
            continue
        vis = _visible(p[ci], verts[vi], r[ci, vi], tris)
        np.add.at(field, vi[vis],
                  gun.flux * cosang[ci, vi][vis] / r2[ci, vi][vis])
    return field


def coverage_threshold(gt_field: np.ndarray) -> float:
    """10th percentile (linear interpolation) of the non-zero thickness values."""
    gt_field = np.asarray(gt_field, dtype=np.float64)
    nonzero = gt_field[gt_field > 0]
    if len(nonzero) == 0:
        raise ValueError("ground-truth thickness field is all zero")
    return float(np.percentile(nonzero, 10.0))


def paint_coverage(pred_field: np.ndarray, gt_field: np.ndarray) -> CoverageReport:
    """Share of ground-truth-covered vertices that the prediction also covers."""
    pred_field = np.asarray(pred_field, dtype=np.float64)
    gt_field = np.asarray(gt_field, dtype=np.float64)
    if pred_field.shape != gt_field.shape:
        raise ValueError("thickness fields must have equal length")
    threshold = coverage_threshold(gt_field)
    gt_mask = gt_field >= threshold
    both = int((pred_field[gt_mask] >= threshold).sum())
    total = int(gt_mask.sum())
    return CoverageReport(threshold=threshold, gt_covered=total,
                          pred_covered_of_gt=both, pc=100.0 * both / total)


def pose_chamfer(pred_poses: np.ndarray, gt_poses: np.ndarray,
                 weights: LossWeights) -> float:
    """Symmetric Chamfer distance between two 6D-pose clouds, connectivity ignored:
    the segment Chamfer of the training loss over single-pose segments.

    Reporting layers conventionally scale this by 1e4.
    """
    pred_poses = np.asarray(pred_poses, dtype=np.float64)
    gt_poses = np.asarray(gt_poses, dtype=np.float64)
    if pred_poses.ndim != 2 or pred_poses.shape[1] != 6 or len(pred_poses) == 0:
        raise ValueError("pred_poses must be a non-empty (N, 6) array")
    if gt_poses.ndim != 2 or gt_poses.shape[1] != 6 or len(gt_poses) == 0:
        raise ValueError("gt_poses must be a non-empty (M, 6) array")
    return _chamfer(pred_poses[:, None], gt_poses[:, None], weights)[0]


def save_thickness(field: np.ndarray, path) -> None:
    """One thickness value per line, aligned with mesh vertex order."""
    save_rows(path, field)


def load_thickness(path) -> np.ndarray:
    return load_rows(path, 1)[:, 0]
