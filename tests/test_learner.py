import numpy as np
import pytest

from sprayseg import learner
from sprayseg.learner import (
    AdamState,
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainingSample,
    adam_step,
    init_params,
    load_checkpoint,
    num_params,
    predict,
    save_checkpoint,
    train,
)
from sprayseg.objective import LossWeights, total_loss

from conftest import finite_difference_gradient, random_segments, relative_error

TINY = ModelConfig(input_points=8, lam=2, slots=2, latent_dim=5,
                   encoder_hidden=(6,), head_hidden=(7,))


def tiny_setup(seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, seed)
    cloud = rng.normal(size=(TINY.input_points, 3))
    return rng, params, cloud


class TestForward:
    def test_shapes(self):
        cfg = ModelConfig(input_points=512, lam=4, slots=7, latent_dim=128)
        params = init_params(cfg, 0)
        cloud = np.random.default_rng(1).normal(size=(512, 3))
        latent = learner._encode_batch(params, cloud[None])[0][0]
        assert latent.shape == (128,)
        segs = learner._head_batch(params, latent[None])[0][0]
        assert segs.shape == (7, 4, 6)
        assert np.allclose(predict(params, cloud), segs)

    def test_permutation_invariance_bitwise(self):
        _, params, cloud = tiny_setup(3)
        perm = np.random.default_rng(4).permutation(len(cloud))
        assert np.array_equal(learner._encode_batch(params, cloud[None])[0],
                              learner._encode_batch(params, cloud[perm][None])[0])
        assert np.array_equal(predict(params, cloud), predict(params, cloud[perm]))

    def test_zero_weights_zero_latent(self):
        params = ModelParams(TINY, np.zeros(num_params(TINY)))
        cloud = np.random.default_rng(5).normal(size=(TINY.input_points, 3))
        assert np.abs(learner._encode_batch(params, cloud[None])[0]).max() == 0.0

    def test_unit_orientations(self):
        _, params, cloud = tiny_setup(6)
        segs = predict(params, cloud)
        norms = np.linalg.norm(segs[..., 3:], axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_zero_orientation_fallback(self):
        params = ModelParams(TINY, np.zeros(num_params(TINY)))
        cloud = np.random.default_rng(7).normal(size=(TINY.input_points, 3))
        segs = predict(params, cloud)
        assert np.array_equal(segs[..., 3:], np.broadcast_to([0.0, 0, 1], segs[..., 3:].shape))

    def test_cloud_size_mismatch(self):
        _, params, _ = tiny_setup()
        with pytest.raises(ValueError):
            predict(params, np.zeros((TINY.input_points + 1, 3)))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(input_points=8, lam=2, slots=2, mode="pointwise")
        with pytest.raises(ValueError):
            ModelConfig(input_points=8, lam=2, slots=2, mode="nonsense")


class TestBackward:
    def test_matches_finite_differences(self):
        rng, params, cloud = tiny_setup(8)
        assert num_params(TINY) <= 500
        grad_out = rng.normal(size=(TINY.slots, TINY.lam, 6))

        def scalar(flat):
            p = ModelParams(TINY, flat)
            return float((predict(p, cloud) * grad_out).sum())

        _, cache = learner._forward_batch(params, cloud[None])
        analytic = learner._backward_batch(params, cache, grad_out[None])
        numeric = finite_difference_gradient(scalar, params.flat.copy())
        assert relative_error(analytic, numeric) < 1e-4

    def test_zero_loss_gradient(self):
        _, params, cloud = tiny_setup(9)
        _, cache = learner._forward_batch(params, cloud[None])
        grad = learner._backward_batch(params, cache, np.zeros((1, TINY.slots, TINY.lam, 6)))
        assert np.abs(grad).max() == 0.0

    def test_orientation_gradient_orthogonal(self):
        # the backprop through L2 normalization projects onto the tangent space,
        # so the raw-orientation gradient is orthogonal to the unit output
        rng, params, cloud = tiny_setup(10)
        segs, cache = learner._forward_batch(params, cloud[None])
        gu = rng.normal(size=(TINY.slots, TINY.lam, 6))
        u = cache["u"][0]
        vnorm = cache["vnorm"][0]
        gv = (gu[..., 3:] - u * (u * gu[..., 3:]).sum(-1, keepdims=True)) / vnorm
        dots = (gv * u).sum(-1)
        assert np.abs(dots).max() < 1e-12

    def test_end_to_end_gradient(self):
        rng, params, cloud = tiny_setup(11)
        target = random_segments(rng, 3, TINY.lam)
        weights = LossWeights(alpha=0.5, orientation_weight=0.25)

        def scalar(flat):
            return total_loss(predict(ModelParams(TINY, flat), cloud), target, weights).total

        segs, cache = learner._forward_batch(params, cloud[None])
        report = total_loss(segs[0], target, weights)
        analytic = learner._backward_batch(params, cache,
                                           report.gradient.reshape(1, TINY.slots, TINY.lam, 6))
        numeric = finite_difference_gradient(scalar, params.flat.copy())
        assert relative_error(analytic, numeric) < 1e-3


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        x = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros(3)
        out, state = adam_step(x, np.zeros(3), state, learning_rate=0.1)
        assert np.array_equal(out, x)

    def test_first_step_size(self):
        x = np.zeros(1)
        state = AdamState.zeros(1)
        out, _ = adam_step(x, np.ones(1), state, learning_rate=1e-3)
        assert out[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_limit(self):
        # with a constant gradient the bias-corrected update approaches lr * sign(g)
        x = np.zeros(1)
        state = AdamState.zeros(1)
        g = np.array([0.37])
        lr = 1e-2
        prev = x
        for _ in range(2000):
            prev, x = x, adam_step(x, g, state, lr)[0]
        assert abs(abs(x[0] - prev[0]) - lr) < lr * 0.01

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), 0.1)


def make_cuboid_samples(n, lam=4, overlap=1, points=64, budget=120, seed=0):
    from sprayseg import geometry, synthdata
    samples = []
    slots = synthdata.output_slot_count(budget, lam, overlap)
    for i in range(n):
        rec = synthdata.generate_object("cuboids", seed=seed * 1000 + i)
        strokes = synthdata.downsample_strokes(rec.strokes, budget)
        cloud = geometry.sample_point_cloud(rec.mesh, points, seed=i)
        n_cloud, n_strokes, _ = geometry.normalize(cloud, strokes, scale=0.5)
        target = synthdata.decompose_segments(n_strokes, lam, overlap)
        assert len(target) <= slots
        samples.append(TrainingSample(cloud=n_cloud, target=target))
    return samples, slots


class TestTrain:
    def test_loss_decreases_and_deterministic(self):
        samples, slots = make_cuboid_samples(8)
        cfg = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=32,
                          encoder_hidden=(16, 32), head_hidden=(64,))
        tc = TrainConfig(epochs=200, learning_rate=1e-3, seed=1)
        params, history = train(samples, cfg, tc)
        assert history.shape == (200, 3)
        assert history[-1, 0] < 0.5 * history[0, 0]
        params2, history2 = train(samples, cfg, tc)
        assert np.array_equal(history, history2)
        assert np.array_equal(params.flat, params2.flat)

    def test_prediction_improves_over_untrained(self):
        from sprayseg.spraysim import pose_chamfer
        samples, slots = make_cuboid_samples(4, seed=2)
        cfg = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=32,
                          encoder_hidden=(16, 32), head_hidden=(64,))
        tc = TrainConfig(epochs=150, seed=3)
        params, _ = train(samples, cfg, tc)
        before = init_params(cfg, tc.seed)
        weights = LossWeights()
        gt = samples[0].target.reshape(-1, 6)
        pcd_before = pose_chamfer(predict(before, samples[0].cloud).reshape(-1, 6), gt, weights)
        pcd_after = pose_chamfer(predict(params, samples[0].cloud).reshape(-1, 6), gt, weights)
        assert pcd_after < pcd_before

    def test_coverage_precondition(self):
        samples, slots = make_cuboid_samples(2)
        cfg = ModelConfig(input_points=64, lam=4, slots=len(samples[0].target) - 1,
                          latent_dim=8, encoder_hidden=(8,), head_hidden=(8,))
        with pytest.raises(ValueError):
            train(samples, cfg, TrainConfig(epochs=1))

    def test_multipath_mode(self):
        rng = np.random.default_rng(12)
        cfg = ModelConfig(input_points=16, lam=5, slots=3, latent_dim=8,
                          encoder_hidden=(8,), head_hidden=(16,),
                          mode="multipath_regression")
        samples = [TrainingSample(cloud=rng.normal(size=(16, 3)),
                                  target=random_segments(rng, 3, 5))
                   for _ in range(3)]
        params, history = train(samples, cfg, TrainConfig(epochs=60, seed=4))
        assert history[-1, 0] < history[0, 0]
        assert np.all(history[:, 2] == 0.0)

    def test_minibatch_runs_deterministically(self):
        samples, slots = make_cuboid_samples(5)
        cfg = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=16,
                          encoder_hidden=(16,), head_hidden=(32,))
        tc = TrainConfig(epochs=5, seed=5, batch_size=2)
        _, h1 = train(samples, cfg, tc)
        _, h2 = train(samples, cfg, tc)
        assert np.array_equal(h1, h2)

    def test_warm_start_config_mismatch(self):
        samples, slots = make_cuboid_samples(2)
        cfg = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=16,
                          encoder_hidden=(16,), head_hidden=(32,))
        other = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=8,
                            encoder_hidden=(16,), head_hidden=(32,))
        with pytest.raises(ValueError):
            train(samples, cfg, TrainConfig(epochs=1), initial=init_params(other, 0))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        _, params, _ = tiny_setup(13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        again = load_checkpoint(path)
        assert again.config == TINY
        assert np.array_equal(again.flat, params.flat)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)
