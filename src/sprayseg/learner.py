"""Trainable model: per-point MLP encoder with max-pool, pose head, Adam training.

All forward/backward passes are plain numpy with explicit gradients; no autodiff.
Orientation triples in the head output are L2-normalized, so predictions carry
unit approach vectors by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import parallel
from .kvio import write_file
from .objective import LossWeights, regression_loss, total_loss

MODES = ("segments", "pointwise", "multipath_regression")

_FALLBACK_AXIS = np.array([0.0, 0.0, 1.0])
_NORM_EPS = 1e-12
_CHECKPOINT_MAGIC = b"SPRAYSEG-CKPT v1"
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8
_ADAM_CHUNK = 1 << 15   # elements per Adam chunk: its scratch buffers stay in cache


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; `slots` is the fixed number of output segments."""

    input_points: int
    lam: int
    slots: int
    latent_dim: int = 128
    encoder_hidden: tuple[int, ...] = (64, 128)
    head_hidden: tuple[int, ...] = (256, 256)
    mode: str = "segments"

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_hidden", tuple(int(x) for x in self.encoder_hidden))
        object.__setattr__(self, "head_hidden", tuple(int(x) for x in self.head_hidden))
        dims = (self.input_points, self.lam, self.slots, self.latent_dim,
                *self.encoder_hidden, *self.head_hidden)
        if any(d < 1 for d in dims):
            raise ValueError("all model dimensions must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "pointwise" and self.lam != 1:
            raise ValueError("pointwise mode requires lam == 1")

    @property
    def output_dim(self) -> int:
        return self.slots * self.lam * 6


def _layers(config: ModelConfig):
    """Each layer as (chain, din, dout, offset), in the order of the flat array (and so of
    a checkpoint): the encoder (chain 0), then the head (chain 1); per layer its W,
    din x dout in row-major order, then its b."""
    offset = 0
    for chain, sizes in enumerate(((3, *config.encoder_hidden, config.latent_dim),
                                   (config.latent_dim, *config.head_hidden, config.output_dim))):
        for din, dout in zip(sizes[:-1], sizes[1:]):
            yield chain, din, dout, offset
            offset += din * dout + dout


def num_params(config: ModelConfig) -> int:
    return sum(din * dout + dout for _, din, dout, _ in _layers(config))


@dataclass
class ModelParams:
    """All learnable weights as one flat array, indexable per layer."""

    config: ModelConfig
    flat: np.ndarray

    def __post_init__(self) -> None:
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.shape != (num_params(self.config),):
            raise ValueError("parameter vector length does not match the config")
        if not np.isfinite(self.flat).all():
            raise ValueError("parameters contain non-finite values")

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


def _unpack(config: ModelConfig, flat: np.ndarray):
    """Per-layer (W, b) views into the flat array, as (encoder_chain, head_chain)."""
    chains = ([], [])
    for chain, din, dout, off in _layers(config):
        w_end = off + din * dout
        chains[chain].append((flat[off: w_end].reshape(din, dout), flat[w_end: w_end + dout]))
    return chains


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fan-in scaled uniform init, deterministic per seed."""
    rng = np.random.default_rng([11, seed])
    flat = np.empty(num_params(config))
    for _, din, dout, off in _layers(config):
        bound = 1.0 / np.sqrt(din)
        flat[off: off + din * dout + dout] = rng.uniform(-bound, bound, din * dout + dout)
    return ModelParams(config, flat)


# ---------------------------------------------------------------------------
# forward / backward


def _mlp_rows(chain, x: np.ndarray, zs: list[np.ndarray], rows: slice) -> np.ndarray:
    """Write `rows` of every layer's output into `zs`: linear layers with ReLU
    between them, linear output. Returns the last layer's rows."""
    h = x[rows]
    last = len(chain) - 1
    for i, ((w, b), z) in enumerate(zip(chain, zs)):
        z = z[rows]
        np.matmul(h, w, out=z)
        z += b
        if i != last:
            np.maximum(z, 0.0, out=z)   # z > 0 marks the same units after ReLU
        h = z
    return h


def _mlp_buffers(chain, x: np.ndarray):
    """Each layer's output buffer, and the (input, output) caches they make."""
    zs = [np.empty((len(x), w.shape[1])) for w, _ in chain]
    return zs, list(zip([x, *zs[:-1]], zs))


def _mlp_backward(chain, caches, grad_views, g_out: np.ndarray) -> np.ndarray:
    """Write parameter gradients into grad_views; return gradient w.r.t. input."""
    g = g_out
    last = len(chain) - 1
    for i in reversed(range(len(chain))):
        w, _ = chain[i]
        inp, z = caches[i]
        gz = g if i == last else g * (z > 0.0)
        gw, gb = grad_views[i]
        np.matmul(inp.T, gz, out=gw)
        np.sum(gz, axis=0, out=gb)
        g = gz @ w.T
    return g


def _encode_batch(params: ModelParams, clouds: np.ndarray):
    """Clouds (B, P, 3) -> latents (B, latent_dim) via per-point MLP and channel max-pool.

    Samples are independent, so spans of them run concurrently
    (`parallel.spread`), each writing only its own rows. A row of a product
    does not depend on the rows beside it, so the result does not depend on
    the split. One-point clouds run serially: a one-row share would be a
    matrix-vector product, which BLAS may sum in another order.
    """
    cfg = params.config
    b, p, _ = clouds.shape
    enc_chain, _ = _unpack(cfg, params.flat)
    x = clouds.reshape(b * p, 3)
    zs, enc_caches = _mlp_buffers(enc_chain, x)
    amax = np.empty((b, cfg.latent_dim), dtype=np.intp)

    def share(samples: slice) -> None:
        feat = _mlp_rows(enc_chain, x, zs, slice(samples.start * p, samples.stop * p))
        # first index wins on ties
        np.argmax(feat.reshape(-1, p, cfg.latent_dim), axis=1, out=amax[samples])

    if p > 1:
        parallel.spread(share, b)
    else:
        share(slice(0, b))
    feat = zs[-1].reshape(b, p, cfg.latent_dim)
    latent = np.take_along_axis(feat, amax[:, None, :], axis=1)[:, 0, :]
    return latent, {"enc_caches": enc_caches, "amax": amax, "points": p, "batch": b}


def _head_batch(params: ModelParams, latent: np.ndarray):
    """Latents (B, latent_dim) -> segments (B, slots, lam, 6) with unit orientations."""
    cfg = params.config
    _, head_chain = _unpack(cfg, params.flat)
    zs, head_caches = _mlp_buffers(head_chain, latent)
    out = _mlp_rows(head_chain, latent, zs, slice(None))
    raw = out.reshape(latent.shape[0], cfg.slots, cfg.lam, 6)
    pos = raw[..., :3]
    v = raw[..., 3:]
    vnorm = np.linalg.norm(v, axis=-1, keepdims=True)
    fallback = vnorm < _NORM_EPS
    safe = np.where(fallback, 1.0, vnorm)
    u = np.where(fallback, _FALLBACK_AXIS, v / safe)
    segments = np.concatenate([pos, u], axis=-1)
    return segments, {"head_caches": head_caches, "u": u, "vnorm": safe, "fallback": fallback}


def _forward_batch(params: ModelParams, clouds: np.ndarray):
    latent, enc_cache = _encode_batch(params, clouds)
    segments, head_cache = _head_batch(params, latent)
    return segments, {**enc_cache, **head_cache}


def _backward_batch(params: ModelParams, cache: dict, grad_segments: np.ndarray) -> np.ndarray:
    cfg = params.config
    b = cache["batch"]
    p = cache["points"]
    gflat = np.empty_like(params.flat)   # _mlp_backward writes every element once
    enc_views, head_views = _unpack(cfg, gflat)
    enc_chain, head_chain = _unpack(cfg, params.flat)
    u, vnorm, fallback = cache["u"], cache["vnorm"], cache["fallback"]
    gpos = grad_segments[..., :3]
    gu = grad_segments[..., 3:]
    # Jacobian of v / |v| is (I - u u^T) / |v|; zero-vector fallback gets no gradient.
    gv = (gu - u * (u * gu).sum(axis=-1, keepdims=True)) / vnorm
    gv = np.where(fallback, 0.0, gv)
    graw = np.concatenate([gpos, gv], axis=-1).reshape(b, cfg.output_dim)
    glatent = _mlp_backward(head_chain, cache["head_caches"], head_views, graw)
    # only the max-pool winner points carry gradient; backprop just those rows
    rows = (cache["amax"] + np.arange(b)[:, None] * p).ravel()
    urows, inv = np.unique(rows, return_inverse=True)
    gfeat = np.zeros((len(urows), cfg.latent_dim))
    channels = np.tile(np.arange(cfg.latent_dim), b)
    np.add.at(gfeat, (inv, channels), glatent.ravel())
    sel_caches = [(inp[urows], z[urows]) for inp, z in cache["enc_caches"]]
    _mlp_backward(enc_chain, sel_caches, enc_views, gfeat)
    return gflat


def predict(params: ModelParams, cloud: np.ndarray) -> np.ndarray:
    """Predicted segment set (slots, lam, 6) for one cloud."""
    segments, _ = _forward_batch(params, _check_cloud(params.config, cloud)[None])
    return segments[0]


def _check_cloud(config: ModelConfig, cloud: np.ndarray) -> np.ndarray:
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape != (config.input_points, 3):
        raise ValueError(f"cloud must have shape ({config.input_points}, 3)")
    return cloud


# ---------------------------------------------------------------------------
# optimization


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_step(values: np.ndarray, grad: np.ndarray, state: AdamState,
              learning_rate: float) -> tuple[np.ndarray, AdamState]:
    """One Adam update; mutates the moment state, returns the updated values.

    Runs in chunks of `_ADAM_CHUNK` elements through two chunk-sized scratch
    buffers, with each element's float operations in the unchunked order.
    Contiguous runs of chunks go concurrently (`parallel.spread`), each with
    its own buffers and its own slices of the output and the state.
    """
    if values.ndim != 1:
        raise ValueError("values must be a 1-D array")
    if not values.shape == grad.shape == state.m.shape == state.v.shape:
        raise ValueError("values, grad, and state must have matching lengths")
    state.t += 1
    bias1 = 1.0 - _BETA1 ** state.t
    bias2 = 1.0 - _BETA2 ** state.t
    out = np.empty_like(values)
    chunks = range(0, len(values), _ADAM_CHUNK)

    def run(part: slice) -> None:
        step_buf = np.empty(min(len(values), _ADAM_CHUNK))
        denom_buf = np.empty_like(step_buf)
        for lo in chunks[part]:
            hi = min(lo + _ADAM_CHUNK, len(values))
            g, m, v = grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
            step, denom = step_buf[: hi - lo], denom_buf[: hi - lo]
            m *= _BETA1
            np.multiply(1.0 - _BETA1, g, out=step)
            m += step
            v *= _BETA2
            np.multiply(1.0 - _BETA2, g, out=step)
            step *= g
            v += step
            np.divide(m, bias1, out=step)       # m_hat
            np.divide(v, bias2, out=denom)      # v_hat
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            step /= denom
            step *= learning_rate
            np.subtract(values[lo:hi], step, out=out[lo:hi])

    parallel.spread(run, len(chunks))
    return out, state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    batch_size: int = 0        # 0 = full batch

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")


@dataclass
class TrainingSample:
    """One normalized training instance: input cloud and target segment array."""

    cloud: np.ndarray   # (P, 3)
    target: np.ndarray  # (K_i, lam, 6); exactly (slots, lam, 6) in multipath mode


def train(samples: list[TrainingSample], model_config: ModelConfig,
          train_config: TrainConfig,
          initial: ModelParams | None = None) -> tuple[ModelParams, np.ndarray]:
    """Train with Adam; returns final params and per-epoch (total, y2s, b2e) history.

    Segment and pointwise modes optimize `objective.total_loss` against
    per-sample target sets of any size: the Chamfer loss matches more targets
    than slots as well as fewer. Multipath mode regresses a fixed-size target
    array with `objective.regression_loss`, which rejects a target that is not
    (slots, lam, 6). Deterministic per seed.
    Raises ValueError naming the first epoch (as numbered in the history) whose
    mean loss or updated parameters are non-finite.
    """
    if not samples:
        raise ValueError("training set is empty")
    cfg = model_config
    clouds = np.stack([_check_cloud(cfg, s.cloud) for s in samples])
    targets = []
    for s in samples:
        t = np.asarray(s.target, dtype=np.float64)
        if t.ndim != 3 or t.shape[1] != cfg.lam or t.shape[2] != 6 or len(t) == 0:
            raise ValueError("target must be a non-empty (K, lam, 6) array")
        targets.append(t)
    if initial is not None:
        if initial.config != cfg:
            raise ValueError("initial parameters were built for a different config")
        params = initial.copy()
    else:
        params = init_params(cfg, train_config.seed)
    weights = train_config.weights
    loss = regression_loss if cfg.mode == "multipath_regression" else total_loss
    state = AdamState.zeros(len(params.flat))
    rng = np.random.default_rng([13, train_config.seed])
    n = len(samples)
    bs = train_config.batch_size if 0 < train_config.batch_size < n else n
    history = np.zeros((train_config.epochs, 3))
    for epoch in range(train_config.epochs):
        order = rng.permutation(n) if bs < n else np.arange(n)
        epoch_losses = []
        for start in range(0, n, bs):
            idx = order[start: start + bs]
            segs, cache = _forward_batch(params, clouds[idx])
            grad_out = np.empty_like(segs)
            for bi, si in enumerate(idx):
                rep = loss(segs[bi], targets[si], weights)
                epoch_losses.append((rep.total, rep.y2s, rep.b2e))
                grad_out[bi] = rep.gradient.reshape(cfg.slots, cfg.lam, 6) / len(idx)
            gflat = _backward_batch(params, cache, grad_out)
            params.flat, state = adam_step(params.flat, gflat, state,
                                           train_config.learning_rate)
        history[epoch] = np.mean(epoch_losses, axis=0)
        if not (np.isfinite(history[epoch]).all() and np.isfinite(params.flat).all()):
            raise ValueError(f"training diverged at epoch {epoch}: "
                             "non-finite loss or parameters")
    return params, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    """Versioned binary checkpoint: magic line, JSON config, raw little-endian weights."""
    header = json.dumps({"config": asdict(params.config)}, sort_keys=True)
    write_file(path, b"\n".join([_CHECKPOINT_MAGIC, header.encode("utf-8"),
                                 params.flat.astype("<f8").tobytes()]))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; any format or parameter error names the file."""
    with open(path, "rb") as f:
        if f.readline().rstrip(b"\n") != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a recognized checkpoint")
        header, data = f.readline(), f.read()
    try:
        meta = json.loads(header.decode("utf-8"))
        flat = np.frombuffer(data, dtype="<f8")
        return ModelParams(ModelConfig(**meta["config"]), flat.copy())
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
