"""Training losses over predicted segment sets, with analytic gradients.

Two terms: a symmetric set-to-set Chamfer distance between predicted and
reference segments, and an attraction term pulling each predicted segment's
begin pose toward some other segment's end pose (and vice versa). Pose
differences weight the orientation components separately from the positions;
for unit vectors the squared orientation difference equals 2 - 2 cos(angle),
so it penalizes by cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Above this many scalar entries the pairwise distance matrix is built with the
# |a|^2 + |b|^2 - 2ab expansion instead of explicit differences; selected
# distances are always recomputed exactly.
_DIRECT_LIMIT = 50_000


@dataclass(frozen=True)
class LossWeights:
    """Attraction weight and per-component weight on orientation dimensions."""

    alpha: float = 0.5
    orientation_weight: float = 0.25

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and non-negative")
        if not (np.isfinite(self.orientation_weight) and self.orientation_weight >= 0):
            raise ValueError("orientation_weight must be finite and non-negative")

    def vector(self) -> np.ndarray:
        """Per-component weights of a 6D pose difference."""
        w = self.orientation_weight
        return np.array([1.0, 1.0, 1.0, w, w, w])


@dataclass
class LossReport:
    """Loss values and the flat gradient over the predicted segment components."""

    total: float
    y2s: float
    b2e: float
    gradient: np.ndarray  # (K* * lam * 6,)


def weighted_pose_distance(a: np.ndarray, b: np.ndarray, weights: LossWeights) -> float:
    """Squared position plus weighted squared orientation distance, summed over aligned poses."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float((weights.vector() * d * d).sum())


def _sq_dist_matrix(aw: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """All pairwise squared distances between rows; approximate only above _DIRECT_LIMIT."""
    n, d = aw.shape
    m = bw.shape[0]
    if n * m * d <= _DIRECT_LIMIT:
        diff = aw[:, None, :] - bw[None, :, :]
        return np.einsum("nmd,nmd->nm", diff, diff)
    sq = (aw * aw).sum(axis=1)[:, None] + (bw * bw).sum(axis=1)[None, :] - 2.0 * aw @ bw.T
    return np.maximum(sq, 0.0)


def _check_segment_sets(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.ndim != 3 or pred.shape[2] != 6 or target.ndim != 3 or target.shape[2] != 6:
        raise ValueError("segment sets must form (K, lam, 6) arrays")
    if len(pred) == 0 or len(target) == 0:
        raise ValueError("segment sets must be non-empty")
    if pred.shape[1] != target.shape[1]:
        raise ValueError("segment length mismatch between sets")


def chamfer_segments(pred: np.ndarray, target: np.ndarray,
                     weights: LossWeights) -> tuple[float, np.ndarray]:
    """Symmetric segment Chamfer distance and its gradient w.r.t. `pred`.

    Mean of nearest-target distances over predicted segments plus mean of
    nearest-prediction distances over target segments. Nearest-neighbor ties
    resolve to the lowest index; the gradient treats the matches as fixed.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_segment_sets(pred, target)
    return _chamfer(pred, target, weights)


def _chamfer(pred: np.ndarray, target: np.ndarray,
             weights: LossWeights) -> tuple[float, np.ndarray]:
    """`chamfer_segments` on validated float64 (K, lam, 6) arrays."""
    n_pred, n_target = len(pred), len(target)
    wvec = weights.vector()
    sqrt_w = np.sqrt(wvec)
    pw = (pred * sqrt_w).reshape(n_pred, -1)
    tw = (target * sqrt_w).reshape(n_target, -1)
    dist = _sq_dist_matrix(pw, tw)
    j_star = np.argmin(dist, axis=1)
    k_star = np.argmin(dist, axis=0)
    diff_fwd = pred - target[j_star]
    diff_bwd = pred[k_star] - target
    loss = float((wvec * diff_fwd * diff_fwd).sum() / n_pred
                 + (wvec * diff_bwd * diff_bwd).sum() / n_target)
    grad = (2.0 / n_pred) * wvec * diff_fwd
    np.add.at(grad, k_star, (2.0 / n_target) * wvec * diff_bwd)
    return loss, grad


def attraction_loss(pred: np.ndarray, weights: LossWeights) -> tuple[float, np.ndarray]:
    """Begin-to-end attraction over a predicted segment set, with gradient.

    For each segment, the weighted distance from its begin pose to the nearest
    *other* segment's end pose, and from its end pose to the nearest other
    begin pose, averaged over 2 K*. A single segment yields 0 by convention.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3 or pred.shape[2] != 6:
        raise ValueError("segment set must form a (K, lam, 6) array")
    k = len(pred)
    grad = np.zeros_like(pred)
    if k < 2:
        return 0.0, grad
    wvec = weights.vector()
    sqrt_w = np.sqrt(wvec)
    begins = pred[:, 0, :]
    ends = pred[:, -1, :]
    dist = _sq_dist_matrix(begins * sqrt_w, ends * sqrt_w)  # dist[i, j] = d(begin_i, end_j)
    np.fill_diagonal(dist, np.inf)
    j_b2e = np.argmin(dist, axis=1)   # nearest end for each begin
    j_e2b = np.argmin(dist, axis=0)   # nearest begin for each end
    diff_b = begins - ends[j_b2e]
    diff_e = ends - begins[j_e2b]
    scale = 1.0 / (2.0 * k)
    loss = float(((wvec * diff_b * diff_b).sum() + (wvec * diff_e * diff_e).sum()) * scale)
    g_b = 2.0 * scale * wvec * diff_b
    g_e = 2.0 * scale * wvec * diff_e
    grad[:, 0, :] += g_b
    grad[:, -1, :] += g_e
    np.add.at(grad[:, -1, :], j_b2e, -g_b)
    np.add.at(grad[:, 0, :], j_e2b, -g_e)
    return loss, grad


def total_loss(pred: np.ndarray, target: np.ndarray, weights: LossWeights) -> LossReport:
    """Combined objective: Chamfer term plus alpha times the attraction term."""
    y2s, g_y2s = chamfer_segments(pred, target, weights)
    b2e, g_b2e = attraction_loss(pred, weights)
    grad = g_y2s + weights.alpha * g_b2e
    return LossReport(total=y2s + weights.alpha * b2e, y2s=y2s, b2e=b2e,
                      gradient=grad.ravel())
