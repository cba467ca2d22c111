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

Frames keep their own dtype (int8 event frames stay int8): conv1 pads and
gathers them as they are and casts only the gathered columns to the
weights' dtype.

A network's arrays live in one flat buffer in PARAM_FIELDS order (the
checkpoint body). Gradients and the Adam moments share that layout, so
an optimizer step and a target sync are whole-buffer operations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

HUBER_DELTA = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 0.01


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
        if min(self.height, self.width, self.action_count, self.kernel, *self.strides,
               *self.conv_channels, self.fc_width) < 1 or self.padding < 0:
            raise ValueError("height, width, action_count, kernel, strides, conv_channels "
                             "and fc_width must be >= 1, and padding >= 0")
        if not (math.isfinite(self.bn_eps) and self.bn_eps > 0
                and 0.0 <= self.bn_momentum <= 1.0):
            raise ValueError(f"bn_eps must be finite and > 0 and bn_momentum in [0, 1], "
                             f"got {self.bn_eps} and {self.bn_momentum}")
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


# Parameter arrays in serialization order (the same for every config).
PARAM_FIELDS = tuple(param_shapes(NetworkConfig(height=1, width=1, action_count=1)))
# Fields updated by the optimizer; bn running statistics are excluded
# (they are updated by train-mode forward passes, not by gradients).
TRAINABLE_FIELDS = tuple(f for f in PARAM_FIELDS if f not in
                         ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var"))


@functools.lru_cache(maxsize=16)
def _layout(cfg: NetworkConfig):
    """((name, start, stop, shape) per field in PARAM_FIELDS order, flat length)."""
    fields, offset = [], 0
    for name, shape in param_shapes(cfg).items():
        stop = offset + math.prod(shape)
        fields.append((name, offset, stop, shape))
        offset = stop
    return tuple(fields), offset


def param_count(cfg: NetworkConfig) -> int:
    """Length of the flat buffer that holds every parameter array."""
    return _layout(cfg)[1]


class QNetworkParams:
    """All weights and batchnorm statistics of one network.

    flat holds every array, concatenated in PARAM_FIELDS order; each named
    field (conv1_w, ..., fc2_b) is a view into it, so writing into a field
    (params.fc1_b[:] = b) writes flat, while rebinding the attribute would
    detach it. Gradients use the same type and layout.
    """

    def __init__(self, cfg: NetworkConfig, flat: np.ndarray):
        fields, count = _layout(cfg)
        if flat.shape != (count,):
            raise ValueError(f"expected {count} values, got shape {flat.shape}")
        self.cfg, self.flat = cfg, flat
        for name, start, stop, shape in fields:
            setattr(self, name, flat[start:stop].reshape(shape))

    def arrays(self):
        """(name, array) pairs in declaration order."""
        for name in PARAM_FIELDS:
            yield name, getattr(self, name)


def init_params(cfg: NetworkConfig, rng: np.random.Generator, dtype=np.float32) -> QNetworkParams:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases, identity batchnorm.

    A weight's fan-in is the product of its trailing dimensions. Weights
    are drawn from rng in PARAM_FIELDS order.
    """
    params = QNetworkParams(cfg, np.zeros(param_count(cfg), dtype=dtype))
    for name, arr in params.arrays():
        if name.endswith("_w"):
            bound = math.sqrt(1.0 / math.prod(arr.shape[1:]))
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
        elif name.endswith(("_gamma", "_var")):
            arr[...] = 1.0
    return params


def copy_params(src: QNetworkParams) -> QNetworkParams:
    """Deep, independent copy (used for the target network)."""
    return QNetworkParams(src.cfg, src.flat.copy())


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


def _patches(x, k, stride, pad):
    """(xp, cols): x zero-padded, and its receptive fields as rows of cols,
    (B*Ho*Wo, Ci*K*K), both in x's dtype."""
    bsz, ci, h, wd = x.shape
    xp = np.zeros((bsz, ci, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    idx = _patch_index(ci, h + 2 * pad, wd + 2 * pad, k, stride)
    # np.take gathers the same values as xp.reshape(bsz, -1)[:, idx], about
    # 3x faster at 240x180 with B=32 (2-vCPU VM) and no slower at batch 1.
    return xp, np.take(xp.reshape(bsz, -1), idx, axis=1).reshape(-1, idx.shape[1])


def _conv_forward(x, w, b, stride, pad, patches=None):
    """Conv of x by w; patches, if given, is _patches(x, k, stride, pad).

    The patches are gathered in x's dtype (int8 for event frames) and the
    columns cast to w's dtype after: the cast is exact elementwise, so the
    GEMM sees the values it would see for x cast first.
    """
    bsz, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    xp, cols = _patches(x, k, stride, pad) if patches is None else patches
    cols = cols.astype(w.dtype, copy=False)
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
        # x.mean and x.var to the bit, with x - mu computed once
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.sum(axis=(0, 2, 3)) / n
        d = x - mu[None, :, None, None]
        var = (d * d).sum(axis=(0, 2, 3)) / n
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
        d = x - mu[None, :, None, None]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv[None, :, None, None]
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


def _as_batch(x, cfg: NetworkConfig) -> np.ndarray:
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
    return x


def _forward_with_cache(params: QNetworkParams, x: np.ndarray, train: bool,
                        patches=None):
    cfg = params.cfg
    s1, s2 = cfg.strides
    p = cfg.padding
    eps, mom = cfg.bn_eps, cfg.bn_momentum

    # Five arguments unless the patches are shared: a reference conv with
    # that signature can then stand in for every conv of forward and backward.
    if patches is None:
        z1, conv1_cache = _conv_forward(x, params.conv1_w, params.conv1_b, s1, p)
    else:
        z1, conv1_cache = _conv_forward(x, params.conv1_w, params.conv1_b, s1, p, patches)
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
    x = _as_batch(batch, params.cfg)
    q, _ = _forward_with_cache(params, x, train=(mode == "train"))
    return q


def forward_shared(networks: Sequence[QNetworkParams], batch) -> List[np.ndarray]:
    """Eval-mode Q-values of each network on one batch.

    Each result is bit-equal to forward(net, batch, mode="eval"); the conv1
    patches depend only on the batch, so they are gathered once for all the
    networks, which must share one config.
    """
    cfg = networks[0].cfg
    if any(net.cfg != cfg for net in networks):
        raise ValueError("networks must share one config")
    x = _as_batch(batch, cfg)
    xp, cols = _patches(x, cfg.kernel, cfg.strides[0], cfg.padding)
    patches = (xp, cols.astype(networks[0].conv1_w.dtype, copy=False))
    return [_forward_with_cache(net, x, train=False, patches=patches)[0]
            for net in networks]


def backward(params: QNetworkParams, batch, actions, targets,
             loss_kind: str = "huber"):
    """One training pass: loss on the selected actions plus exact gradients.

    Runs a train-mode forward internally (updating bn running statistics),
    then backpropagates d/dparam of mean_i loss(Q(s_i, a_i) - y_i).
    Returns (grads, loss) where grads is a QNetworkParams laid out like
    params, zero at the bn running statistics.
    """
    if loss_kind not in ("huber", "squared"):
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    cfg = params.cfg
    x = _as_batch(batch, cfg)
    bsz = x.shape[0]
    actions = np.asarray(actions, dtype=np.int64).reshape(bsz)
    if (actions < 0).any() or (actions >= cfg.action_count).any():
        raise ValueError("action index out of range")
    targets = np.asarray(targets, dtype=params.flat.dtype).reshape(bsz)

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

    grads = QNetworkParams(cfg, np.zeros_like(params.flat))
    grads.fc2_w[:] = dq.T @ a3
    grads.fc2_b[:] = dq.sum(axis=0)
    da3 = dq @ params.fc2_w
    dz3 = da3 * (z3 > 0)
    grads.fc1_w[:] = dz3.T @ flat
    grads.fc1_b[:] = dz3.sum(axis=0)
    dflat = dz3 @ params.fc1_w
    da2 = dflat.reshape(a2.shape)

    db2 = da2 * (b2 > 0)
    dz2, grads.bn2_gamma[:], grads.bn2_beta[:] = _bn_backward(db2, xhat2, inv2, params.bn2_gamma)
    da1, grads.conv2_w[:], grads.conv2_b[:] = _conv_backward(
        dz2, *conv2_cache, params.conv2_w, cfg.strides[1], cfg.padding, a1.shape[2:])

    db1 = da1 * (b1 > 0)
    dz1, grads.bn1_gamma[:], grads.bn1_beta[:] = _bn_backward(db1, xhat1, inv1, params.bn1_gamma)
    _, grads.conv1_w[:], grads.conv1_b[:] = _conv_backward(
        dz1, *conv1_cache, params.conv1_w, cfg.strides[0], cfg.padding, x0.shape[2:],
        need_dx=False)

    _check_finite("gradients", grads.flat)
    return grads, float(loss)


@dataclass
class AdamState:
    """First and second moment estimates, laid out like the parameters'
    flat buffer, plus the step counter and the learning rate. The betas
    and eps are the module constants ADAM_BETA1, ADAM_BETA2, ADAM_EPS."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3


def init_adam(params: QNetworkParams, lr: float = 1e-3) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(params: QNetworkParams, grads: QNetworkParams, state: AdamState):
    """Bias-corrected Adam update, applied to the parameters in place. Where
    the gradient is zero (bn running statistics) the update is exactly +0.0."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    g, m, v = grads.flat, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    params.flat -= (state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(params.flat.dtype)
