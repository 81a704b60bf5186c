import numpy as np
import pytest

from sprayseg import synthdata
from sprayseg.linker import LinkConfig, build_link_graph, concatenate, link_distances
from sprayseg.objective import LossWeights

W = LossWeights(alpha=0.5, orientation_weight=0.25)


def straight_segment(start, step, lam=4, ori=(0.0, 0, 1)):
    start = np.asarray(start, dtype=float)
    step = np.asarray(step, dtype=float)
    pos = start + np.arange(lam)[:, None] * step
    return np.hstack([pos, np.tile(ori, (lam, 1))])


class TestLinkDistance:
    def test_perfect_continuation(self):
        a = straight_segment([0, 0, 0], [0.1, 0, 0])
        b = straight_segment(a[-1, :3], [0.1, 0, 0])
        assert link_distances(np.stack([a, b]), W)[0, 1] == pytest.approx(0.0)

    def test_opposite_directions(self):
        a = straight_segment([0, 0, 0], [0.1, 0, 0])
        b = straight_segment(a[-1, :3], [-0.1, 0, 0])
        assert link_distances(np.stack([a, b]), W)[0, 1] == pytest.approx(0.04)

    def test_positional_gap(self):
        a = straight_segment([0, 0, 0], [0.1, 0, 0])
        b = straight_segment(a[-1, :3] + [0.2, 0, 0], [0.1, 0, 0])
        assert link_distances(np.stack([a, b]), W)[0, 1] == pytest.approx(0.04)

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            link_distances(np.zeros((2, 1, 6)), W)


def chainable_run(start, n_segments, lam=4, step=(0.1, 0, 0)):
    """Segments that continue each other exactly (end pose == next begin pose)."""
    segs = []
    cur = np.asarray(start, dtype=float)
    for _ in range(n_segments):
        seg = straight_segment(cur, step, lam=lam)
        segs.append(seg)
        cur = seg[-1, :3]
    return np.stack(segs)


class TestConcatenate:
    def test_tau_zero_no_links(self):
        segs = chainable_run([0, 0, 0], 4)
        strokes = concatenate(segs, LinkConfig(tau=0.0, weights=W))
        assert len(strokes) == 4
        for seg, stroke in zip(segs, strokes):
            assert np.array_equal(seg, stroke)

    def test_single_chain(self):
        segs = chainable_run([0, 0, 0], 5)
        strokes = concatenate(segs, LinkConfig(tau=1.0, weights=W))
        assert len(strokes) == 1
        assert len(strokes[0]) == 5 * 4 - 4  # one merged pose per junction

    def test_two_distant_groups(self):
        a = chainable_run([0, 0, 0], 3)
        b = chainable_run([50, 0, 0], 3)
        segs = np.concatenate([a, b])
        strokes = concatenate(segs, LinkConfig(tau=0.5, weights=W))
        assert len(strokes) == 2

    def test_roundtrip_from_decomposition(self):
        rec = synthdata.generate_object("cuboids", seed=5)
        stroke = synthdata.downsample_strokes(rec.strokes, 400)[0]
        segs = synthdata.decompose_segments([stroke], lam=4, overlap=1)
        dist = link_distances(segs, W)
        d_true = max(dist[i, i + 1] for i in range(len(segs) - 1))
        strokes = concatenate(segs, LinkConfig(tau=d_true * 1.5 + 1e-12, weights=W))
        covered = (len(segs) - 1) * 3 + 4
        assert len(strokes) == 1
        assert np.array_equal(strokes[0], stroke[:covered])

    def test_degree_constraints_and_pose_count(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            segs = rng.normal(size=(12, 3, 6))
            segs[..., 3:] /= np.linalg.norm(segs[..., 3:], axis=-1, keepdims=True)
            tau = float(rng.uniform(0.1, 30.0))
            graph = build_link_graph(segs, LinkConfig(tau=tau, weights=W))
            out_deg = np.bincount(graph.succ[graph.succ >= 0], minlength=12)
            assert out_deg.max(initial=0) <= 1
            assert (graph.succ >= 0).sum() == (graph.pred >= 0).sum()
            strokes = concatenate(segs, LinkConfig(tau=tau, weights=W))
            total = sum(len(s) for s in strokes)
            assert total == 12 * 3 - graph.n_edges

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            segs = rng.normal(size=(10, 3, 6))
            segs[..., 3:] /= np.linalg.norm(segs[..., 3:], axis=-1, keepdims=True)
            taus = [0.1, 0.5, 2.0, 10.0, 100.0]
            counts = [build_link_graph(segs, LinkConfig(tau=t, weights=W)).n_edges
                      for t in taus]
            assert counts == sorted(counts)

    def test_cycle_emitted_closed(self):
        # three segments tracing a triangle loop: every end meets another begin
        lam = 3
        corners = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1.0, 0]])
        segs = []
        for i in range(3):
            a, b = corners[i], corners[(i + 1) % 3]
            pos = a + np.linspace(0, 1, lam)[:, None] * (b - a)
            segs.append(np.hstack([pos, np.tile([0.0, 0, 1], (lam, 1))]))
        segs = np.stack(segs)
        strokes = concatenate(segs, LinkConfig(tau=10.0, weights=W))
        assert len(strokes) == 1
        assert len(strokes[0]) == 3 * lam - 3
        # cut at the smallest index: stroke starts at segment 0's merged begin
        assert np.allclose(strokes[0][0, :3], corners[0])

    def test_idempotent_on_linked_output(self):
        segs = chainable_run([0, 0, 0], 6)
        cfg = LinkConfig(tau=0.5, weights=W)
        strokes = concatenate(segs, cfg)
        assert len(strokes) == 1
        resegmented = synthdata.decompose_segments(strokes, lam=4, overlap=1)
        again = concatenate(resegmented, cfg)
        assert len(again) == 1
        covered = (len(resegmented) - 1) * 3 + 4
        assert np.array_equal(again[0], strokes[0][:covered])

    def test_deterministic_tie_break(self):
        # two identical candidate targets: the lower (k, j) pair must win
        a = straight_segment([0, 0, 0], [0.1, 0, 0])
        b1 = straight_segment(a[-1, :3] + [0.0, 0.1, 0], [0.1, 0, 0])
        b2 = straight_segment(a[-1, :3] + [0.0, -0.1, 0], [0.1, 0, 0])
        segs = np.stack([a, b1, b2])
        graph = build_link_graph(segs, LinkConfig(tau=1.0, weights=W))
        assert graph.succ[0] == 1

    def test_empty_input(self):
        assert concatenate(np.zeros((0, 4, 6)), LinkConfig(tau=1.0, weights=W)) == []

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            LinkConfig(tau=-0.1)


def paper_rule(segments, config):
    """The paper's linking rule written out, O(K^3): until no edge is left, among the
    segments k with no successor, commit the smallest (d, k, j) over the targets j != k
    with no predecessor and d < tau."""
    n = len(segments)
    succ, pred = [-1] * n, [-1] * n
    pairs = [(k, j) for k in range(n) for j in range(n) if j != k]
    dist = link_distances(segments, config.weights) if pairs else None
    while True:
        free = [(dist[k, j], k, j) for k, j in pairs
                if succ[k] == -1 and pred[j] == -1 and dist[k, j] < config.tau]
        if not free:
            return succ, pred
        _, k, j = min(free)
        succ[k], pred[j] = j, k


class TestLinkOrder:
    @pytest.mark.parametrize("grid", [False, True], ids=["continuous", "coarse_grid"])
    def test_matches_the_paper_rule(self, grid):
        rng = np.random.default_rng(11)
        ties = 0
        for k_total in [0, 1, 2, *range(3, 14)] * 8:
            shape = (k_total, int(rng.integers(2, 5)), 6)
            # coordinates of 0, 0.5 and 1 make the scores exact, with many real ties
            segs = rng.integers(0, 3, size=shape) / 2 if grid else rng.normal(size=shape)
            scores = (link_distances(segs, W)[~np.eye(k_total, dtype=bool)]
                      if k_total >= 2 else np.zeros(0))
            ties += len(scores) - len(np.unique(scores))
            # tau = 0, equal to a score, in between, and above every score
            for tau in (0.0, rng.choice(scores) if len(scores) else 1.0,
                        float(rng.uniform(0.0, 20.0)), scores.max(initial=0.0) + 1.0):
                cfg = LinkConfig(tau=tau, weights=W)
                graph = build_link_graph(segs, cfg)
                assert graph.succ.dtype == graph.pred.dtype == np.int64
                assert (graph.succ.tolist(), graph.pred.tolist()) == paper_rule(segs, cfg)
        assert (ties > 0) == grid

    def test_single_pose_segment(self):
        segs = np.zeros((1, 1, 6))
        cfg = LinkConfig(tau=1.0, weights=W)
        graph = build_link_graph(segs, cfg)
        assert (graph.succ.tolist(), graph.pred.tolist()) == paper_rule(segs, cfg) == ([-1], [-1])
