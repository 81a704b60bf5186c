"""Greedy concatenation of predicted segments into long strokes.

Segments are graph nodes; a directed edge k -> j means "j continues k". Each
node keeps at most one outgoing and one incoming edge. One pass over the
candidate edges scored below a threshold, in ascending score order, commits
each edge whose source has no successor and whose target no predecessor yet.
Committed junctions merge the two overlapping poses into their average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import LossWeights


@dataclass(frozen=True)
class LinkConfig:
    """Linking threshold (in normalized coordinates) and pose-distance weights."""

    tau: float = 0.15
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError("tau must be finite and non-negative")


@dataclass
class LinkGraph:
    """Successor/predecessor arrays; -1 marks a free slot."""

    succ: np.ndarray
    pred: np.ndarray

    @property
    def n_edges(self) -> int:
        return int((self.succ >= 0).sum())


def link_distances(segments: np.ndarray, weights: LossWeights) -> np.ndarray:
    """dist[k, j] scores appending segment j after k: end-to-begin pose distance
    plus the squared mismatch of the terminal step directions (positions only).
    The diagonal is inf."""
    if segments.shape[1] < 2:
        raise ValueError("linking needs segments of at least 2 poses")
    wvec = weights.vector()
    ends = segments[:, -1, :]
    begins = segments[:, 0, :]
    diff = ends[:, None, :] - begins[None, :, :]
    dist = np.einsum("kjd,d,kjd->kj", diff, wvec, diff)
    dir_end = segments[:, -1, :3] - segments[:, -2, :3]
    dir_begin = segments[:, 1, :3] - segments[:, 0, :3]
    ddiff = dir_end[:, None, :] - dir_begin[None, :, :]
    dist += np.einsum("kjd,kjd->kj", ddiff, ddiff)
    np.fill_diagonal(dist, np.inf)
    return dist


def build_link_graph(segments: np.ndarray, config: LinkConfig) -> LinkGraph:
    """Keep each edge with d < tau, in ascending (d, k, j) order, whose k has no successor
    and whose j has no predecessor yet. These are the paper's edges: an end once taken
    stays taken, so every edge before a kept one was seen with a taken end, and the kept
    edge is the smallest (d, k, j) left free, i.e. the k with the smallest d_k linked to
    its nearest successor among those with no predecessor."""
    segments = np.asarray(segments, dtype=np.float64)
    succ, pred = [-1] * len(segments), [-1] * len(segments)
    if len(segments) >= 2:   # link_distances would reject a lone single-pose segment
        dist = link_distances(segments, config.weights)
        src, dst = np.nonzero(dist < config.tau)
        order = np.argsort(dist[src, dst], kind="stable")
        for k, j in zip(src[order].tolist(), dst[order].tolist()):
            if succ[k] == -1 and pred[j] == -1:
                succ[k], pred[j] = j, k
    return LinkGraph(np.array(succ, dtype=np.int64), np.array(pred, dtype=np.int64))


def _merge_pose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Average two poses; identical orientations are passed through unchanged."""
    pos = (a[:3] + b[:3]) / 2.0
    if np.array_equal(a[3:], b[3:]):
        ori = a[3:]
    else:
        s = a[3:] + b[3:]
        n = np.linalg.norm(s)
        ori = a[3:] if n < 1e-12 else s / n
    return np.concatenate([pos, ori])


def _emit_chain(segments: np.ndarray, nodes: list[int], closed: bool) -> np.ndarray:
    poses = [segments[nodes[0]][i] for i in range(segments.shape[1])]
    for node in nodes[1:]:
        seg = segments[node]
        poses[-1] = _merge_pose(poses[-1], seg[0])
        poses.extend(seg[1:])
    if closed:
        # wrap-around junction: fold the final pose into the first one
        poses[0] = _merge_pose(poses[-1], poses[0])
        poses.pop()
    return np.array(poses)


def concatenate(segments: np.ndarray, config: LinkConfig) -> list[np.ndarray]:
    """Link segments into strokes; unlinked segments come out unchanged.

    Every input pose is accounted for exactly once, except that each committed
    edge merges the adjoining end/begin pose pair into one averaged pose.
    Cycles are emitted as closed strokes cut at their smallest segment index.
    """
    segments = np.asarray(segments, dtype=np.float64)
    if len(segments) == 0:
        return []
    graph = build_link_graph(segments, config)
    succ, pred = graph.succ, graph.pred
    visited = np.zeros(len(segments), dtype=bool)
    strokes = []
    # open chains start at nodes without a predecessor; the nodes left after
    # them sit on cycles, and scanning ascending makes k a cycle's cut point
    for closed in (False, True):
        for k in range(len(segments)):
            if visited[k] or (not closed and pred[k] != -1):
                continue
            chain = [k]
            visited[k] = True
            node = succ[k]
            while node != (k if closed else -1):
                chain.append(int(node))
                visited[node] = True
                node = succ[node]
            strokes.append(_emit_chain(segments, chain, closed))
    return strokes
