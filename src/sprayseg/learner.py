"""Trainable model: per-point MLP encoder with max-pool, pose head, Adam training.

All forward/backward passes are plain numpy with explicit gradients; no autodiff.
Orientation triples in the head output are L2-normalized, so predictions carry
unit approach vectors by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .objective import LossWeights, total_loss

MODES = ("segments", "pointwise", "multipath_regression")

_FALLBACK_AXIS = np.array([0.0, 0.0, 1.0])
_NORM_EPS = 1e-12
_CHECKPOINT_MAGIC = b"SPRAYSEG-CKPT v1"


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


def _layer_sizes(config: ModelConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    enc = (3, *config.encoder_hidden, config.latent_dim)
    head = (config.latent_dim, *config.head_hidden, config.output_dim)
    return enc, head


def num_params(config: ModelConfig) -> int:
    total = 0
    for sizes in _layer_sizes(config):
        total += sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    return total


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
    chains = []
    off = 0
    for sizes in _layer_sizes(config):
        chain = []
        for din, dout in zip(sizes[:-1], sizes[1:]):
            w = flat[off: off + din * dout].reshape(din, dout)
            off += din * dout
            b = flat[off: off + dout]
            off += dout
            chain.append((w, b))
        chains.append(chain)
    return chains[0], chains[1]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fan-in scaled uniform init, deterministic per seed."""
    rng = np.random.default_rng([11, seed])
    flat = np.empty(num_params(config))
    off = 0
    for sizes in _layer_sizes(config):
        for din, dout in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(din)
            count = din * dout + dout
            flat[off: off + count] = rng.uniform(-bound, bound, count)
            off += count
    return ModelParams(config, flat)


# ---------------------------------------------------------------------------
# forward / backward


def _mlp_forward(chain, x: np.ndarray):
    """Linear layers with ReLU between them, linear output. Returns (out, caches)."""
    caches = []
    h = x
    last = len(chain) - 1
    for i, (w, b) in enumerate(chain):
        z = h @ w
        z += b
        caches.append((h, z))
        h = z if i == last else np.maximum(z, 0.0)
    return h, caches


def _mlp_backward(chain, caches, grad_views, g_out: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients into grad_views; return gradient w.r.t. input."""
    g = g_out
    last = len(chain) - 1
    for i in reversed(range(len(chain))):
        w, _ = chain[i]
        inp, z = caches[i]
        gz = g if i == last else g * (z > 0.0)
        gw, gb = grad_views[i]
        gw += inp.T @ gz
        gb += gz.sum(axis=0)
        g = gz @ w.T
    return g


def _encode_batch(params: ModelParams, clouds: np.ndarray):
    """Clouds (B, P, 3) -> latents (B, latent_dim) via per-point MLP and channel max-pool."""
    cfg = params.config
    b, p, _ = clouds.shape
    enc_chain, _ = _unpack(cfg, params.flat)
    feat_flat, enc_caches = _mlp_forward(enc_chain, clouds.reshape(b * p, 3))
    feat = feat_flat.reshape(b, p, cfg.latent_dim)
    amax = feat.argmax(axis=1)  # (B, latent_dim), first index wins on ties
    latent = np.take_along_axis(feat, amax[:, None, :], axis=1)[:, 0, :]
    return latent, {"enc_caches": enc_caches, "amax": amax, "points": p, "batch": b}


def _head_batch(params: ModelParams, latent: np.ndarray):
    """Latents (B, latent_dim) -> segments (B, slots, lam, 6) with unit orientations."""
    cfg = params.config
    _, head_chain = _unpack(cfg, params.flat)
    out, head_caches = _mlp_forward(head_chain, latent)
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
    gflat = np.zeros_like(params.flat)
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
              learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, AdamState]:
    """One Adam update; mutates the moment state, returns the updated values."""
    if values.shape != grad.shape or values.shape != state.m.shape:
        raise ValueError("values, grad, and state must have matching lengths")
    state.t += 1
    state.m *= beta1
    state.m += (1.0 - beta1) * grad
    state.v *= beta2
    state.v += (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += eps
    m_hat /= v_hat
    m_hat *= learning_rate
    return values - m_hat, state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    alpha: float = 0.5
    orientation_weight: float = 0.25
    seed: int = 0
    batch_size: int = 0        # 0 = full batch
    lr_final: float = 0.0      # > 0 enables cosine annealing down to this rate

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.lr_final < 0 or self.lr_final > self.learning_rate:
            raise ValueError("lr_final must lie in [0, learning_rate]")

    def rate_at(self, epoch: int) -> float:
        if self.lr_final <= 0.0 or self.epochs == 1:
            return self.learning_rate
        span = self.learning_rate - self.lr_final
        phase = np.pi * epoch / (self.epochs - 1)
        return float(self.lr_final + 0.5 * span * (1.0 + np.cos(phase)))


@dataclass
class TrainingSample:
    """One normalized training instance: input cloud and target segment array."""

    cloud: np.ndarray   # (P, 3)
    target: np.ndarray  # (K_i, lam, 6); exactly (slots, lam, 6) in multipath mode


def train(samples: list[TrainingSample], model_config: ModelConfig,
          train_config: TrainConfig, initial: ModelParams | None = None,
          require_coverage: bool = True) -> tuple[ModelParams, np.ndarray]:
    """Train with Adam; returns final params and per-epoch (total, y2s, b2e) history.

    Segment and pointwise modes optimize the Chamfer + attraction objective
    against per-sample target sets; multipath mode regresses a fixed-size
    target array with per-pose weighted squared error. Deterministic per seed.
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
        if cfg.mode == "multipath_regression" and t.shape[0] != cfg.slots:
            raise ValueError("multipath mode needs exactly `slots` target strokes")
        if cfg.mode != "multipath_regression" and require_coverage and len(t) > cfg.slots:
            raise ValueError(f"sample has {len(t)} target segments but only "
                             f"{cfg.slots} output slots")
        targets.append(t)
    if initial is not None:
        if initial.config != cfg:
            raise ValueError("initial parameters were built for a different config")
        params = initial.copy()
    else:
        params = init_params(cfg, train_config.seed)
    weights = LossWeights(alpha=train_config.alpha,
                          orientation_weight=train_config.orientation_weight)
    wvec = weights.vector()
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
                if cfg.mode == "multipath_regression":
                    diff = segs[bi] - targets[si]
                    denom = cfg.slots * cfg.lam
                    value = float((wvec * diff * diff).sum() / denom)
                    grad = (2.0 / denom) * wvec * diff
                    epoch_losses.append((value, value, 0.0))
                    grad_out[bi] = grad / len(idx)
                else:
                    rep = total_loss(segs[bi], targets[si], weights)
                    epoch_losses.append((rep.total, rep.y2s, rep.b2e))
                    grad_out[bi] = rep.gradient.reshape(cfg.slots, cfg.lam, 6) / len(idx)
            gflat = _backward_batch(params, cache, grad_out)
            params.flat, state = adam_step(params.flat, gflat, state,
                                           train_config.rate_at(epoch))
        history[epoch] = np.mean(epoch_losses, axis=0)
    return params, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    """Versioned binary checkpoint: magic line, JSON config, raw little-endian weights."""
    header = json.dumps({"config": asdict(params.config)}, sort_keys=True)
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC + b"\n")
        f.write(header.encode("utf-8") + b"\n")
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n")
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a recognized checkpoint")
        meta = json.loads(f.readline().decode("utf-8"))
        flat = np.frombuffer(f.read(), dtype="<f8")
    return ModelParams(ModelConfig(**meta["config"]), flat.copy())
