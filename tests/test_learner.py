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

from conftest import (fast_switching, finite_difference_gradient, random_segments,
                      relative_error, spread_over)

TINY = ModelConfig(input_points=8, lam=2, slots=2, latent_dim=5,
                   encoder_hidden=(6,), head_hidden=(7,))
# the default model's 1,104,616 parameters: 159 slots at budget 480, overlap 1
DEFAULT_PARAMS = num_params(ModelConfig(input_points=512, lam=4, slots=159))


def _adam_reference(values, grad, state, learning_rate):
    """Unchunked Adam update, the oracle for the chunked `adam_step`."""
    state.t += 1
    state.m *= learner._BETA1
    state.m += (1.0 - learner._BETA1) * grad
    state.v *= learner._BETA2
    state.v += (1.0 - learner._BETA2) * grad * grad
    m_hat = state.m / (1.0 - learner._BETA1 ** state.t)
    v_hat = state.v / (1.0 - learner._BETA2 ** state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += learner._ADAM_EPS
    m_hat /= v_hat
    m_hat *= learning_rate
    return values - m_hat, state


def _mlp_forward_reference(chain, x):
    """Forward pass with ReLU into a new array, the oracle for the in-place ReLU."""
    caches = []
    h = x
    for i, (w, b) in enumerate(chain):
        z = h @ w + b
        caches.append((h, z))
        h = z if i == len(chain) - 1 else np.maximum(z, 0.0)
    return h, caches


def _mlp_backward_reference(chain, caches, grad_views, g_out):
    """Backward pass that adds into zero-filled gradient views."""
    g = g_out
    for i in reversed(range(len(chain))):
        w, _ = chain[i]
        inp, z = caches[i]
        gz = g if i == len(chain) - 1 else g * (z > 0.0)
        gw, gb = grad_views[i]
        gw += inp.T @ gz
        gb += gz.sum(axis=0)
        g = gz @ w.T
    return g


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

    def test_relu_mask_matches_reference(self):
        # equal consecutive widths, so one layer's buffer could stand in for the next's
        cfg = ModelConfig(input_points=8, lam=2, slots=2, latent_dim=6,
                          encoder_hidden=(6, 6), head_hidden=(7, 7))
        rng = np.random.default_rng(14)
        params = init_params(cfg, 14)
        for chain, x in zip(learner._unpack(cfg, params.flat),
                            (rng.normal(size=(16, 3)), rng.normal(size=(3, 6)))):
            zs, caches = learner._mlp_buffers(chain, x)
            out = learner._mlp_rows(chain, x, zs, slice(None))
            want, want_caches = _mlp_forward_reference(chain, x)
            assert np.array_equal(out, want)
            for (inp, z), (want_inp, want_z) in zip(caches, want_caches):
                assert np.array_equal(inp, want_inp)
                assert np.array_equal(z > 0.0, want_z > 0.0)
                assert 0 < (want_z > 0.0).sum() < want_z.size

    def test_flat_layout(self):
        # distinct widths, so a swapped din/dout or a misplaced block changes a shape
        cfg = ModelConfig(input_points=4, lam=2, slots=3, latent_dim=5,
                          encoder_hidden=(2, 7), head_hidden=(9,))
        flat = np.arange(num_params(cfg), dtype=float)
        enc, head = learner._unpack(cfg, flat)
        assert [w.shape for w, _ in enc] == [(3, 2), (2, 7), (7, 5)]
        assert [w.shape for w, _ in head] == [(5, 9), (9, cfg.output_dim)]
        assert [b.shape for _, b in enc + head] == [(2,), (7,), (5,), (9,), (cfg.output_dim,)]
        assert all(np.shares_memory(a, flat) for layer in enc + head for a in layer)
        # encoder first, each layer's W (row-major) before its b
        assert np.array_equal(np.concatenate([a.ravel() for layer in enc + head
                                              for a in layer]), flat)
        init_enc, init_head = learner._unpack(cfg, init_params(cfg, 3).flat)
        for w, b in init_enc + init_head:   # each block drawn within +-1/sqrt(din)
            assert np.abs(np.concatenate([w.ravel(), b])).max() <= 1.0 / np.sqrt(len(w))

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

    def test_writes_every_gradient_once(self, monkeypatch):
        # a NaN-filled buffer shows any gradient element that is not written
        rng, params, _ = tiny_setup(15)
        clouds = rng.normal(size=(3, TINY.input_points, 3))
        segs, cache = learner._forward_batch(params, clouds)
        grad_out = rng.normal(size=segs.shape)
        with monkeypatch.context() as m:
            m.setattr(learner, "_mlp_backward", _mlp_backward_reference)
            m.setattr(np, "empty_like", np.zeros_like)
            want = learner._backward_batch(params, cache, grad_out)
        empty_like = np.empty_like

        def nan_filled(*args, **kwargs):
            out = empty_like(*args, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty_like", nan_filled)
        got = learner._backward_batch(params, cache, grad_out)
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)

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
        cases = [
            (np.zeros(3), np.zeros(4), AdamState.zeros(3)),
            (np.zeros(3), np.zeros(3), AdamState(np.zeros(3), np.zeros(4))),
            (np.zeros(3), np.zeros(3), AdamState(np.zeros(3), np.zeros(2))),
            (np.zeros((2, 3)), np.zeros((2, 3)), AdamState(np.zeros((2, 3)), np.zeros((2, 3)))),
        ]
        for values, grad, state in cases:
            with pytest.raises(ValueError):
                adam_step(values, grad, state, 0.1)

    @pytest.mark.parametrize("n", [1, learner._ADAM_CHUNK - 1, learner._ADAM_CHUNK,
                                   learner._ADAM_CHUNK + 1, 3 * learner._ADAM_CHUNK + 5,
                                   DEFAULT_PARAMS])
    def test_matches_unchunked_reference(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n)
        want_values = values.copy()
        state, want_state = AdamState.zeros(n), AdamState.zeros(n)
        for _ in range(40):
            grad = rng.normal(scale=rng.uniform(1e-4, 10.0), size=n)
            values, state = adam_step(values, grad, state, 1e-3)
            want_values, want_state = _adam_reference(want_values, grad, want_state, 1e-3)
            assert np.array_equal(values, want_values)
            assert np.array_equal(state.m, want_state.m)
            assert np.array_equal(state.v, want_state.v)
        assert state.t == want_state.t == 40


class TestWorkers:
    """Samples and Adam chunks spread over threads: results do not depend on the count."""

    # 3 workers is more threads than cores on a 2-core machine
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("points", [1, 7, 16])
    def test_encode_batch_matches_serial_reference(self, workers, batch, points, monkeypatch):
        cfg = ModelConfig(input_points=points, lam=2, slots=2, latent_dim=12,
                          encoder_hidden=(10, 14), head_hidden=(7,))
        params = init_params(cfg, 21)
        first = (points + 1) // 2
        half = np.random.default_rng(batch).normal(size=(batch, first, 3))
        # each later point repeats one of the first half
        clouds = np.concatenate([half, half], axis=1)[:, :points]
        enc_chain, _ = learner._unpack(cfg, params.flat)
        want_feat, want_caches = _mlp_forward_reference(enc_chain, clouds.reshape(-1, 3))
        want_outs = [inp for inp, _ in want_caches[1:]] + [want_feat]
        want_feat = want_feat.reshape(batch, points, 12)
        helped = spread_over(monkeypatch, workers)
        with fast_switching():
            latent, cache = learner._encode_batch(params, clouds)
        # one-point clouds run serially
        assert len(helped) == (min(workers, batch) - 1 if points > 1 else 0)
        assert np.array_equal(cache["amax"], want_feat.argmax(axis=1))
        assert (cache["amax"] < first).all()   # a repeated maximum ties: the first index wins
        assert np.array_equal(latent, want_feat.max(axis=1))
        assert len(cache["enc_caches"]) == len(want_caches)
        for (inp, z), (want_inp, _), want_z in zip(cache["enc_caches"], want_caches, want_outs):
            assert np.array_equal(inp, want_inp)
            assert np.array_equal(z, want_z)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_adam_matches_unchunked_reference(self, workers, monkeypatch):
        n = 3 * learner._ADAM_CHUNK + 5   # 4 chunks
        rng = np.random.default_rng(workers)
        values = rng.normal(size=n)
        want_values = values.copy()
        state, want_state = AdamState.zeros(n), AdamState.zeros(n)
        helped = spread_over(monkeypatch, workers)
        for _ in range(10):
            grad = rng.normal(scale=rng.uniform(1e-4, 10.0), size=n)
            with fast_switching():
                values, state = adam_step(values, grad, state, 1e-3)
            want_values, want_state = _adam_reference(want_values, grad, want_state, 1e-3)
            assert np.array_equal(values, want_values)
            assert np.array_equal(state.m, want_state.m)
            assert np.array_equal(state.v, want_state.v)
        assert len(helped) == 10 * (workers - 1)


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

    def test_more_targets_than_slots(self):
        # the overlap sweep's case: the Chamfer loss matches K > slots targets
        samples, slots = make_cuboid_samples(2)
        cfg = ModelConfig(input_points=64, lam=4, slots=len(samples[0].target) - 1,
                          latent_dim=8, encoder_hidden=(8,), head_hidden=(8,))
        assert len(samples[0].target) > cfg.slots
        _, history = train(samples, cfg, TrainConfig(epochs=2))
        assert history.shape == (2, 3)
        assert np.isfinite(history).all()

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
        short = [TrainingSample(cloud=s.cloud, target=s.target[:2]) for s in samples]
        with pytest.raises(ValueError, match="equal"):   # regression_loss's shape check
            train(short, cfg, TrainConfig(epochs=1))

    def test_minibatch_runs_deterministically(self):
        samples, slots = make_cuboid_samples(5)
        cfg = ModelConfig(input_points=64, lam=4, slots=slots, latent_dim=16,
                          encoder_hidden=(16,), head_hidden=(32,))
        tc = TrainConfig(epochs=5, seed=5, batch_size=2)
        _, h1 = train(samples, cfg, tc)
        _, h2 = train(samples, cfg, tc)
        assert np.array_equal(h1, h2)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 0"):
            TrainConfig(epochs=1, batch_size=-3)
        assert TrainConfig(epochs=1, batch_size=0).batch_size == 0

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
