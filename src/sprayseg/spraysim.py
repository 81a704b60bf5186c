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


def _visible(origins: np.ndarray, targets: np.ndarray, dists: np.ndarray,
             tris: np.ndarray) -> np.ndarray:
    """Per-ray flag: no triangle intersects the ray strictly before its target.

    Möller–Trumbore ray/triangle test, run in two stages per chunk of rays:

    - cut: keep the (ray, face) pairs whose segment crosses the face's plane,
      about a fifth of them on a deposit;
    - exact: ``pvec``, ``det``, ``u``, ``qvec``, ``v`` and ``t`` for the kept
      pairs only.

    The cut uses the face normal ``N = e1 x e2``, the origin's plane value
    ``a = N . origin - N . v0`` and ``c = N . (target - origin)``. The segment
    meets the plane at the fraction ``-a / c`` of its length, and a pair is
    kept when that fraction is below ``1 / (1 + 1e-9)``, i.e. when
    ``sign(a) * c < -(1 + 1e-9) * |a|``. Why this keeps every pair the exact
    test can call a hit: in exact arithmetic the test's ``t`` is
    ``d * a / -c``, so a hit (``1e-9 < t < d * (1 - 1e-6)``) has ``-c / a``
    above ``1 + 1e-6``, a relative gap of about ``1e-6 * |a|`` over the cut.
    Rounding moves each three-term product involved (the test's ``qvec . e2``
    and ``det * d``, the cut's ``a`` and ``c``) by at most about
    ``10 * 2**-53 * |e1| |e2| L``, where ``L <= 2 * sqrt(3) * R`` bounds every
    distance between the call's points and ``R`` is their largest absolute
    coordinate. So all four together move by under ``2e-14 * |e1| |e2| R``.
    Pairs with ``|a| > 1e-6 * R * |e1| |e2|`` therefore keep a gap some 50
    times their rounding; every other pair, an origin on or next to the
    face's plane, where ``t`` can be mere rounding, is kept whatever ``c``
    is. Both sides of that rule scale as length cubed, so it holds at any
    coordinate scale.

    ``a`` is computed once per run of consecutive rays with equal origins,
    which is how ``deposit`` passes them: each pose's rays together. Any ray
    order gives the same flags; an origin that changes every row only makes
    the per-run table as large as the chunk.

    The exact stage writes cross and dot products out per component in the
    operation order of ``np.cross`` followed by ``.sum(-1)``, i.e.
    ``(x + y) + z``. Every intermediate therefore rounds exactly as the plain
    vectorised test does (kept in the tests as the oracle), and the flags,
    hence the paint fields, are bit-identical to it: another order could move
    a ray that grazes an edge or vertex across one of the epsilons. No step
    calls BLAS.
    """
    v0x, v0y, v0z = np.ascontiguousarray(tris[:, 0].T)
    e1x, e1y, e1z = np.ascontiguousarray((tris[:, 1] - tris[:, 0]).T)
    e2x, e2y, e2z = np.ascontiguousarray((tris[:, 2] - tris[:, 0]).T)
    out = np.ones(len(targets), dtype=bool)
    faces = len(tris)
    if len(targets) == 0 or faces == 0:
        return out
    normal = np.stack([e1y * e2z - e1z * e2y, e1z * e2x - e1x * e2z, e1x * e2y - e1y * e2x])
    offset = normal[0] * v0x + normal[1] * v0y + normal[2] * v0z
    scale = max(np.abs(origins).max(), np.abs(targets).max(), np.abs(tris).max())
    near = 1e-6 * scale * np.sqrt((e1x * e1x + e1y * e1y + e1z * e1z)
                                  * (e2x * e2x + e2y * e2y + e2z * e2z))
    new_run = np.ones(len(origins), dtype=bool)
    np.any(origins[1:] != origins[:-1], axis=1, out=new_run[1:])
    run_start = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    # chunk rays so each (rays x faces) intermediate stays near cache size
    # (~0.4 MB): in a ground-truth evaluate, chunks of 25k, 100k and 200k
    # pairs were slower on one worker
    step = max(1, int(50_000 / faces))

    for lo in range(0, len(targets), step):
        hi = min(lo + step, len(targets))
        org = origins[lo:hi]
        seg = targets[lo:hi] - org
        runs = run[lo:hi] - run[lo]
        a = np.einsum("rd,df->rf", origins[run_start[run[lo]:run[hi - 1] + 1]], normal)
        a -= offset
        side = np.where(a < 0.0, -1.0, 1.0)
        bound = np.where(np.abs(a) > near, -(1.0 + 1e-9) * np.abs(a), np.inf)
        c = np.einsum("rd,df->rf", seg, normal)
        c *= side[runs]
        pair = np.flatnonzero(c < bound[runs])
        if len(pair) == 0:
            continue
        ri = pair // faces
        fi = pair - ri * faces
        dirs = seg / dists[lo:hi, None]
        dx, dy, dz = (np.ascontiguousarray(col)[ri] for col in dirs.T)
        ax, ay, az = e1x[fi], e1y[fi], e1z[fi]
        bx, by, bz = e2x[fi], e2y[fi], e2z[fi]
        px = dy * bz - dz * by
        py = dz * bx - dx * bz
        pz = dx * by - dy * bx
        det = px * ax
        det += py * ay
        det += pz * az
        valid = np.abs(det) > 1e-12
        inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        tx, ty, tz = (np.ascontiguousarray(col)[ri] for col in org.T)
        tx -= v0x[fi]
        ty -= v0y[fi]
        tz -= v0z[fi]
        u = tx * px
        u += ty * py
        u += tz * pz
        u *= inv
        qx = ty * az - tz * ay
        qy = tz * ax - tx * az
        qz = tx * ay - ty * ax
        v = dx * qx
        v += dy * qy
        v += dz * qz
        v *= inv
        t = qx * bx
        t += qy * by
        t += qz * bz
        t *= inv
        hit = (valid & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
               & (t > 1e-9) & (t < dists[lo + ri] * (1.0 - 1e-6)))
        out[lo + ri[hit]] = False
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
