import numpy as np
import pytest

from sprayseg.objective import (
    LossWeights,
    attraction_loss,
    chamfer_segments,
    regression_loss,
    total_loss,
)

from conftest import finite_difference_gradient, min_gap, random_segments, relative_error

W = LossWeights(alpha=0.5, orientation_weight=0.25)


def pose(px, py, pz, ox=0.0, oy=0.0, oz=1.0):
    return np.array([px, py, pz, ox, oy, oz], dtype=float)


class TestChamfer:
    def test_identical_sets(self):
        rng = np.random.default_rng(0)
        segs = random_segments(rng, 5, 4)
        loss, grad = chamfer_segments(segs, segs, W)
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pred = random_segments(rng, 6, 3)
        target = random_segments(rng, 5, 3)
        base, _ = chamfer_segments(pred, target, W)
        perm = np.random.default_rng(2).permutation(6)
        shuffled, _ = chamfer_segments(pred[perm], target, W)
        assert shuffled == pytest.approx(base, rel=1e-12)
        tperm = np.random.default_rng(3).permutation(5)
        shuffled2, _ = chamfer_segments(pred, target[tperm], W)
        assert shuffled2 == pytest.approx(base, rel=1e-12)

    def test_singleton_offset(self):
        # a unit position offset costs 1 per pose and direction; reversing the
        # orientation costs 4 per pose and direction, scaled by orientation_weight
        seg = np.stack([pose(i, 0, 0) for i in range(4)])
        moved = seg.copy()
        moved[:, 0] += 1.0
        flipped = seg.copy()
        flipped[:, 5] = -1.0
        for other, weights, want in [(moved, W, 8.0), (flipped, W, 8.0),
                                     (flipped, LossWeights(orientation_weight=0.5), 16.0)]:
            loss, _ = chamfer_segments(seg[None], other[None], weights)
            assert loss == pytest.approx(want)

    def test_symmetry_when_counts_match(self):
        rng = np.random.default_rng(4)
        a = random_segments(rng, 4, 3)
        b = random_segments(rng, 4, 3)
        ab, _ = chamfer_segments(a, b, W)
        ba, _ = chamfer_segments(b, a, W)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        a = random_segments(rng, 4, 3)
        b = random_segments(rng, 6, 3)
        base, _ = chamfer_segments(a, b, W)
        shift = np.array([0.3, -1.2, 2.2])
        a2, b2 = a.copy(), b.copy()
        a2[..., :3] += shift
        b2[..., :3] += shift
        moved, _ = chamfer_segments(a2, b2, W)
        assert abs(moved - base) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            chamfer_segments(np.zeros((0, 2, 6)), np.zeros((1, 2, 6)), W)

    def test_ties_resolve_to_the_lowest_index(self):
        # Every coordinate is a multiple of 0.5, so the distances are exact and the ties real.
        # Targets 1 and 2 are equal, so prediction 1 is tied between them; either choice gives
        # the same difference. Predictions 0 and 2 are equal, so target 0 is tied between them,
        # and its backward gradient must land on prediction 0 alone.
        pred = np.stack([pose(0, 0, 0), pose(4, 0, 0), pose(0, 0, 0)])[:, None]
        target = np.stack([pose(1, 0, 0), pose(3, 0, 0), pose(3, 0, 0)])[:, None]
        loss, grad = chamfer_segments(pred, target, W)
        assert loss == pytest.approx(2.0, rel=1e-15)
        want = np.zeros_like(pred)
        want[:, 0, 0] = [-4.0 / 3.0, 2.0, -2.0 / 3.0]
        assert np.allclose(grad, want, rtol=0, atol=1e-15)


class TestAttraction:
    def test_closed_chain_is_zero(self):
        # three segments arranged so every begin coincides with another's end
        a = np.stack([pose(0, 0, 0), pose(1, 0, 0)])
        b = np.stack([pose(1, 0, 0), pose(2, 0, 0)])
        c = np.stack([pose(2, 0, 0), pose(0, 0, 0)])
        loss, grad = attraction_loss(np.stack([a, b, c]), W)
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_single_segment_zero(self):
        seg = np.stack([pose(0, 0, 0), pose(1, 0, 0)])
        loss, grad = attraction_loss(seg[None], W)
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_two_segment_offsets(self):
        a = np.stack([pose(0, 0, 0), pose(5, 0, 0)])
        b = np.stack([pose(6, 0, 0), pose(1, 0, 0)])
        loss, _ = attraction_loss(np.stack([a, b]), W)
        assert loss == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        segs = random_segments(rng, 7, 3)
        base, _ = attraction_loss(segs, W)
        perm = np.random.default_rng(7).permutation(7)
        shuffled, _ = attraction_loss(segs[perm], W)
        assert shuffled == pytest.approx(base, rel=1e-12)


def stable_instance(seed, n_pred=4, n_target=5, lam=3):
    """Random instance re-drawn until nearest-neighbor choices are well separated."""
    rng = np.random.default_rng(seed)
    sqrt_w = np.sqrt(W.vector())
    for _ in range(50):
        pred = random_segments(rng, n_pred, lam)
        target = random_segments(rng, n_target, lam)
        pw = (pred * sqrt_w).reshape(n_pred, -1)
        tw = (target * sqrt_w).reshape(n_target, -1)
        diff = pw[:, None] - tw[None]
        d_chamfer = (diff * diff).sum(-1)
        bw = (pred[:, 0] * sqrt_w)
        ew = (pred[:, -1] * sqrt_w)
        d_b2e = ((bw[:, None] - ew[None]) ** 2).sum(-1)
        np.fill_diagonal(d_b2e, np.inf)
        if min_gap(d_chamfer) > 1e-3 and min_gap(d_b2e) > 1e-3:
            return pred, target
    raise AssertionError("could not build a tie-free instance")


class TestGradients:
    def test_chamfer_gradient(self):
        for seed in range(10):
            pred, target = stable_instance(seed)
            _, grad = chamfer_segments(pred, target, W)
            numeric = finite_difference_gradient(
                lambda x: chamfer_segments(x, target, W)[0], pred.copy())
            assert relative_error(grad, numeric) < 1e-4

    def test_attraction_gradient(self):
        for seed in range(100, 110):
            pred, _ = stable_instance(seed)
            _, grad = attraction_loss(pred, W)
            numeric = finite_difference_gradient(
                lambda x: attraction_loss(x, W)[0], pred.copy())
            assert relative_error(grad, numeric) < 1e-4

    def test_total_gradient(self):
        for seed in range(200, 210):
            pred, target = stable_instance(seed)
            report = total_loss(pred, target, W)
            numeric = finite_difference_gradient(
                lambda x: total_loss(x, target, W).total, pred.copy())
            assert relative_error(report.gradient, numeric.ravel()) < 1e-4

    def test_regression_gradient(self):
        for seed in range(300, 310):
            pred, target = stable_instance(seed, n_target=4)
            report = regression_loss(pred, target, W)
            numeric = finite_difference_gradient(
                lambda x: regression_loss(x, target, W).total, pred.copy())
            assert relative_error(report.gradient, numeric.ravel()) < 1e-4
            assert report.y2s == report.total and report.b2e == 0.0


class TestTotal:
    def test_identical_closed_chain(self):
        a = np.stack([pose(0, 0, 0), pose(1, 0, 0)])
        b = np.stack([pose(1, 0, 0), pose(0, 0, 0)])
        segs = np.stack([a, b])
        report = total_loss(segs, segs, W)
        assert report.total == 0.0
        assert report.y2s == 0.0 and report.b2e == 0.0

    def test_alpha_zero(self):
        rng = np.random.default_rng(8)
        pred = random_segments(rng, 4, 3)
        target = random_segments(rng, 4, 3)
        w0 = LossWeights(alpha=0.0, orientation_weight=0.25)
        report = total_loss(pred, target, w0)
        assert report.total == report.y2s

    def test_total_is_exact_combination(self):
        rng = np.random.default_rng(9)
        pred = random_segments(rng, 5, 2)
        target = random_segments(rng, 3, 2)
        report = total_loss(pred, target, W)
        assert report.total == report.y2s + W.alpha * report.b2e
        assert report.gradient.shape == (5 * 2 * 6,)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pred = random_segments(rng, 3, 2)
            target = random_segments(rng, 4, 2)
            report = total_loss(pred, target, W)
            assert report.total >= 0.0 and report.y2s >= 0.0 and report.b2e >= 0.0

    def test_regression_needs_aligned_arrays(self):
        with pytest.raises(ValueError):
            regression_loss(np.zeros((2, 3, 6)), np.zeros((3, 3, 6)), W)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-1.0)
        with pytest.raises(ValueError):
            LossWeights(orientation_weight=float("nan"))
