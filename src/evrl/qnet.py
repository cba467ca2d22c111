"""Q-network: conv-bn-relu x2, then two fully connected layers.

Forward, exact analytic backward, and Adam are implemented directly on
numpy arrays (float32 by default; float64 supported for high-precision
gradient checking). The architecture is fixed in shape but configurable
in resolution, strides, and action count:

    input (B, 1, H, W), values in {-1, 0, +1}
    conv 3x3 -> 2 ch -> batchnorm -> relu
    conv 3x3 -> 4 ch -> batchnorm -> relu
    flatten -> fc 100 -> relu -> fc action_count

Batch normalization uses batch statistics in train mode (updating the
running estimates as a side effect) and running statistics in eval mode,
so single-frame action selection is deterministic. Any non-finite value
appearing in an activation or gradient raises FloatingPointError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

import numpy as np

HUBER_DELTA = 1.0


def conv_out_len(n: int, kernel: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class NetworkConfig:
    height: int
    width: int
    action_count: int
    conv_channels: Tuple[int, int] = (2, 4)
    kernel: int = 3
    strides: Tuple[int, int] = (4, 4)
    padding: int = 1
    fc_width: int = 100
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.action_count < 1:
            raise ValueError("height, width and action_count must be >= 1")
        h1, w1 = self.conv1_out
        h2, w2 = self.conv2_out
        if min(h1, w1, h2, w2) < 1:
            raise ValueError(
                f"input {self.height}x{self.width} too small for "
                f"kernel={self.kernel} strides={self.strides}"
            )

    @property
    def conv1_out(self) -> Tuple[int, int]:
        return (conv_out_len(self.height, self.kernel, self.strides[0], self.padding),
                conv_out_len(self.width, self.kernel, self.strides[0], self.padding))

    @property
    def conv2_out(self) -> Tuple[int, int]:
        h1, w1 = self.conv1_out
        return (conv_out_len(h1, self.kernel, self.strides[1], self.padding),
                conv_out_len(w1, self.kernel, self.strides[1], self.padding))

    @property
    def flat_dim(self) -> int:
        h2, w2 = self.conv2_out
        return self.conv_channels[1] * h2 * w2


@dataclass
class QNetworkParams:
    """All weights and batchnorm statistics, as plain numpy arrays."""

    cfg: NetworkConfig
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    bn1_gamma: np.ndarray
    bn1_beta: np.ndarray
    bn1_mean: np.ndarray
    bn1_var: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    bn2_gamma: np.ndarray
    bn2_beta: np.ndarray
    bn2_mean: np.ndarray
    bn2_var: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    def arrays(self):
        """(name, array) pairs in declaration order."""
        for name in PARAM_FIELDS:
            yield name, getattr(self, name)


# Parameter arrays in declaration (= serialization) order.
PARAM_FIELDS = tuple(f.name for f in fields(QNetworkParams) if f.name != "cfg")
# Fields updated by the optimizer; bn running statistics are excluded
# (they are updated by train-mode forward passes, not by gradients).
TRAINABLE_FIELDS = tuple(f for f in PARAM_FIELDS if f not in
                         ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var"))


def param_shapes(cfg: NetworkConfig) -> Dict[str, Tuple[int, ...]]:
    """The shape of each parameter array, in PARAM_FIELDS order."""
    c1, c2 = cfg.conv_channels
    k = cfg.kernel
    return {
        "conv1_w": (c1, 1, k, k), "conv1_b": (c1,),
        "bn1_gamma": (c1,), "bn1_beta": (c1,), "bn1_mean": (c1,), "bn1_var": (c1,),
        "conv2_w": (c2, c1, k, k), "conv2_b": (c2,),
        "bn2_gamma": (c2,), "bn2_beta": (c2,), "bn2_mean": (c2,), "bn2_var": (c2,),
        "fc1_w": (cfg.fc_width, cfg.flat_dim), "fc1_b": (cfg.fc_width,),
        "fc2_w": (cfg.action_count, cfg.fc_width), "fc2_b": (cfg.action_count,),
    }


def init_params(cfg: NetworkConfig, rng: np.random.Generator, dtype=np.float32) -> QNetworkParams:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases, identity batchnorm.

    A weight's fan-in is the product of its trailing dimensions. Weights
    are drawn from rng in PARAM_FIELDS order.
    """
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_w"):
            bound = math.sqrt(1.0 / math.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        elif name.endswith(("_gamma", "_var")):
            arrays[name] = np.ones(shape, dtype=dtype)
        else:
            arrays[name] = np.zeros(shape, dtype=dtype)
    return QNetworkParams(cfg=cfg, **arrays)


def copy_params(src: QNetworkParams) -> QNetworkParams:
    """Deep, independent copy (used for the target network)."""
    kwargs = {name: arr.copy() for name, arr in src.arrays()}
    return QNetworkParams(cfg=src.cfg, **kwargs)


def _check_finite(name: str, arr: np.ndarray):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {name}")


@functools.lru_cache(maxsize=16)
def _patch_index(ci, hp, wp, k, stride):
    """Flat offsets of every receptive field in one padded (ci, hp, wp) map.

    Row r = i * wo + j is output pixel (i, j); its columns walk the field in
    (channel, kernel row, kernel column) order, the order of w.reshape(co, -1).
    """
    ho = conv_out_len(hp, k, stride, 0)
    wo = conv_out_len(wp, k, stride, 0)
    corner = (np.arange(ho)[:, None] * (stride * wp)
              + np.arange(wo)[None, :] * stride).reshape(-1, 1)
    within = (np.arange(ci)[:, None, None] * (hp * wp)
              + np.arange(k)[None, :, None] * wp
              + np.arange(k)[None, None, :]).reshape(1, -1)
    idx = corner + within
    idx.flags.writeable = False  # shared by every caller of the cache
    return idx


def _conv_forward(x, w, b, stride, pad):
    bsz, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    xp = np.zeros((bsz, ci, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    idx = _patch_index(ci, h + 2 * pad, wd + 2 * pad, k, stride)
    # (B*Ho*Wo, Ci*K*K). np.take gathers the same values as
    # xp.reshape(bsz, -1)[:, idx], about 3x faster at 240x180 with B=32
    # (2-vCPU VM) and no slower at batch 1.
    cols = np.take(xp.reshape(bsz, -1), idx, axis=1).reshape(-1, idx.shape[1])
    ho = conv_out_len(h, k, stride, pad)
    # Keep the F-ordered view w.reshape(co, -1).T: a C-contiguous copy takes
    # another BLAS path, whose float64 sums differ in the last bits and so
    # break seeded reproducibility (see TestConvEquivalence).
    out = np.dot(cols, w.reshape(co, -1).T).reshape(bsz, ho, -1, co)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b[None, :, None, None]
    return out, (xp, cols)


def _conv_backward(dout, xp, cols, w, stride, pad, in_hw, need_dx=True):
    """(dx, dw, db) of one conv layer; dx is None when need_dx is False."""
    db = dout.sum(axis=(0, 2, 3))
    co = w.shape[0]
    dw = np.dot(dout.transpose(1, 0, 2, 3).reshape(co, -1), cols).reshape(w.shape)
    if not need_dx:
        return None, dw, db
    k = w.shape[2]
    ho, wo = dout.shape[2], dout.shape[3]
    g = np.tensordot(dout, w, axes=([1], [0]))  # (B, Ho, Wo, Ci, K, K)
    dxp = np.zeros_like(xp)
    for u in range(k):
        for v in range(k):
            dxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += \
                g[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    h, wdt = in_hw
    return dxp[:, :, pad:pad + h, pad:pad + wdt], dw, db


def _bn_forward(x, gamma, beta, running_mean, running_var, eps, momentum, train):
    if train:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, (xhat, inv)


def _bn_backward(dout, xhat, inv, gamma):
    n = dout.shape[0] * dout.shape[2] * dout.shape[3]
    dbeta = dout.sum(axis=(0, 2, 3))
    dgamma = (dout * xhat).sum(axis=(0, 2, 3))
    dxhat = dout * gamma[None, :, None, None]
    s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    dx = (inv[None, :, None, None] / n) * (n * dxhat - s1 - xhat * s2)
    return dx, dgamma, dbeta


def _as_batch(x, cfg: NetworkConfig, dtype) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None, None]
    elif x.ndim == 3:
        x = x[:, None]
    elif x.ndim != 4:
        raise ValueError(f"expected 2-4 dims, got shape {x.shape}")
    if x.shape[1] != 1 or x.shape[2] != cfg.height or x.shape[3] != cfg.width:
        raise ValueError(
            f"input shape {x.shape} does not match network input "
            f"(B, 1, {cfg.height}, {cfg.width})"
        )
    return x.astype(dtype, copy=False)


def _forward_with_cache(params: QNetworkParams, x: np.ndarray, train: bool):
    cfg = params.cfg
    s1, s2 = cfg.strides
    p = cfg.padding
    eps, mom = cfg.bn_eps, cfg.bn_momentum

    z1, conv1_cache = _conv_forward(x, params.conv1_w, params.conv1_b, s1, p)
    _check_finite("conv1", z1)
    b1, (xhat1, inv1) = _bn_forward(z1, params.bn1_gamma, params.bn1_beta,
                                    params.bn1_mean, params.bn1_var, eps, mom, train)
    a1 = np.maximum(b1, 0.0)

    z2, conv2_cache = _conv_forward(a1, params.conv2_w, params.conv2_b, s2, p)
    _check_finite("conv2", z2)
    b2, (xhat2, inv2) = _bn_forward(z2, params.bn2_gamma, params.bn2_beta,
                                    params.bn2_mean, params.bn2_var, eps, mom, train)
    a2 = np.maximum(b2, 0.0)

    flat = a2.reshape(a2.shape[0], -1)
    z3 = flat @ params.fc1_w.T + params.fc1_b
    a3 = np.maximum(z3, 0.0)
    q = a3 @ params.fc2_w.T + params.fc2_b
    _check_finite("q_values", q)

    cache = (x, conv1_cache, b1, xhat1, inv1, a1,
             conv2_cache, b2, xhat2, inv2, a2, flat, z3, a3)
    return q, cache


def forward(params: QNetworkParams, batch, mode: str = "eval") -> np.ndarray:
    """Q-values, one row per batch element, one column per action.

    mode="train" normalizes with batch statistics and updates the running
    estimates; mode="eval" uses the stored running statistics and leaves
    the parameters untouched.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _as_batch(batch, params.cfg, params.conv1_w.dtype)
    q, _ = _forward_with_cache(params, x, train=(mode == "train"))
    return q


def backward(params: QNetworkParams, batch, actions, targets,
             loss_kind: str = "huber"):
    """One training pass: loss on the selected actions plus exact gradients.

    Runs a train-mode forward internally (updating bn running statistics),
    then backpropagates d/dparam of mean_i loss(Q(s_i, a_i) - y_i).
    Returns (grads, loss) where grads maps each trainable field name to an
    array shaped like the parameter.
    """
    if loss_kind not in ("huber", "squared"):
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    cfg = params.cfg
    x = _as_batch(batch, cfg, params.conv1_w.dtype)
    bsz = x.shape[0]
    actions = np.asarray(actions, dtype=np.int64).reshape(bsz)
    if (actions < 0).any() or (actions >= cfg.action_count).any():
        raise ValueError("action index out of range")
    targets = np.asarray(targets, dtype=x.dtype).reshape(bsz)

    q, cache = _forward_with_cache(params, x, train=True)
    (x0, conv1_cache, b1, xhat1, inv1, a1,
     conv2_cache, b2, xhat2, inv2, a2, flat, z3, a3) = cache

    rows = np.arange(bsz)
    resid = q[rows, actions] - targets
    if loss_kind == "huber":
        small = np.abs(resid) <= HUBER_DELTA
        loss = np.where(small, 0.5 * resid ** 2,
                        HUBER_DELTA * (np.abs(resid) - 0.5 * HUBER_DELTA)).mean()
        dresid = np.where(small, resid, HUBER_DELTA * np.sign(resid))
    else:
        loss = (0.5 * resid ** 2).mean()
        dresid = resid
    dq = np.zeros_like(q)
    dq[rows, actions] = dresid / bsz

    grads: Dict[str, np.ndarray] = {}
    grads["fc2_w"] = dq.T @ a3
    grads["fc2_b"] = dq.sum(axis=0)
    da3 = dq @ params.fc2_w
    dz3 = da3 * (z3 > 0)
    grads["fc1_w"] = dz3.T @ flat
    grads["fc1_b"] = dz3.sum(axis=0)
    dflat = dz3 @ params.fc1_w
    da2 = dflat.reshape(a2.shape)

    db2 = da2 * (b2 > 0)
    dz2, grads["bn2_gamma"], grads["bn2_beta"] = _bn_backward(db2, xhat2, inv2, params.bn2_gamma)
    da1, grads["conv2_w"], grads["conv2_b"] = _conv_backward(
        dz2, *conv2_cache, params.conv2_w, cfg.strides[1], cfg.padding, a1.shape[2:])

    db1 = da1 * (b1 > 0)
    dz1, grads["bn1_gamma"], grads["bn1_beta"] = _bn_backward(db1, xhat1, inv1, params.bn1_gamma)
    _, grads["conv1_w"], grads["conv1_b"] = _conv_backward(
        dz1, *conv1_cache, params.conv1_w, cfg.strides[0], cfg.padding, x0.shape[2:],
        need_dx=False)

    for name, g in grads.items():
        _check_finite(f"grad[{name}]", g)
    return grads, float(loss)


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 0.01
    t: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: QNetworkParams, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 0.01) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name in TRAINABLE_FIELDS:
        arr = getattr(params, name)
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(params: QNetworkParams, grads: Dict[str, np.ndarray], state: AdamState):
    """Bias-corrected Adam update, applied to the parameters in place."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for name in TRAINABLE_FIELDS:
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        arr = getattr(params, name)
        arr -= (state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)).astype(arr.dtype)
