"""Q-network forward/backward/Adam against naive-summation and FD oracles."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import evrl.qnet as qnet
from evrl.qnet import (PARAM_FIELDS, NetworkConfig, QNetworkParams, TRAINABLE_FIELDS,
                       adam_step, backward, copy_params, forward, init_adam, init_params)


def naive_conv(x, w, bias, stride, pad):
    """Direct six-loop summation."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=np.float64)
    for bi in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                hi = i * stride + u - pad
                                wj = j * stride + v - pad
                                if 0 <= hi < h and 0 <= wj < wd:
                                    acc += float(x[bi, ci, hi, wj]) * float(w[o, ci, u, v])
                    out[bi, o, i, j] = acc + float(bias[o])
    return out


def naive_bn(x, gamma, beta, rm, rv, eps, train):
    if train:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
    else:
        mu, var = rm, rv
    xhat = (x - mu[None, :, None, None]) / np.sqrt(var + eps)[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None]


def naive_forward(params, x, mode):
    cfg = params.cfg
    x = x.astype(np.float64)
    h = naive_conv(x, params.conv1_w, params.conv1_b, cfg.strides[0], cfg.padding)
    h = naive_bn(h, params.bn1_gamma.astype(np.float64), params.bn1_beta.astype(np.float64),
                 params.bn1_mean.astype(np.float64), params.bn1_var.astype(np.float64),
                 cfg.bn_eps, mode == "train")
    h = np.maximum(h, 0.0)
    h = naive_conv(h, params.conv2_w, params.conv2_b, cfg.strides[1], cfg.padding)
    h = naive_bn(h, params.bn2_gamma.astype(np.float64), params.bn2_beta.astype(np.float64),
                 params.bn2_mean.astype(np.float64), params.bn2_var.astype(np.float64),
                 cfg.bn_eps, mode == "train")
    h = np.maximum(h, 0.0)
    flat = h.reshape(h.shape[0], -1)
    h = np.maximum(flat @ params.fc1_w.astype(np.float64).T + params.fc1_b, 0.0)
    return h @ params.fc2_w.astype(np.float64).T + params.fc2_b


def tensordot_conv_forward(x, w, b, stride, pad):
    """The np.pad + sliding_window_view + tensordot conv, as it was before
    the cached patch gather; the gather must reproduce it bit for bit."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # (B, Ho, Wo, Co)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b[None, :, None, None]
    return out, (xp, win)


def tensordot_conv_backward(dout, xp, win, w, stride, pad, in_hw, need_dx=True):
    """Backward of tensordot_conv_forward; always computes dx."""
    db = dout.sum(axis=(0, 2, 3))
    dw = np.tensordot(dout, win, axes=([0, 2, 3], [0, 2, 3]))  # (Co, Ci, K, K)
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


SMALL = NetworkConfig(height=8, width=8, action_count=3)
GRADCHECK = NetworkConfig(height=16, width=12, action_count=2)


def ternary(rng, shape):
    return rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=shape)


class TestForward:
    def test_matches_naive_summation(self, rng):
        params = init_params(SMALL, rng, dtype=np.float64)
        # decouple running stats from init so eval mode is nontrivial
        params.bn1_mean += rng.normal(0, 0.1, params.bn1_mean.shape)
        params.bn1_var *= rng.uniform(0.5, 2.0, params.bn1_var.shape)
        x = ternary(rng, (4, 1, 8, 8))
        for mode in ("eval", "train"):
            got = forward(params, x, mode=mode)
            want = naive_forward(params, x, mode)
            assert np.allclose(got, want, rtol=1e-5, atol=1e-9)

    def test_zero_input_constant_output(self, rng):
        params = init_params(SMALL, rng)
        q = forward(params, np.zeros((5, 1, 8, 8)), mode="eval")
        assert q.shape == (5, 3)
        assert np.array_equal(q, np.tile(q[0], (5, 1)))
        again = forward(params, np.zeros((2, 1, 8, 8)), mode="eval")
        assert np.array_equal(again[0], q[0])

    def test_identity_kernel_reproduces_input(self):
        cfg = NetworkConfig(height=6, width=6, action_count=2, strides=(1, 1))
        params = init_params(cfg, np.random.default_rng(0))
        params.conv1_w[:] = 0.0
        params.conv1_w[0, 0, 1, 1] = 1.0  # identity-center kernel, channel 0
        params.conv1_b[:] = 0.0
        x = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6) / 36.0
        out, _ = qnet._conv_forward(x, params.conv1_w, params.conv1_b, 1, 1)
        assert np.allclose(out[0, 0], x[0, 0])

    def test_eval_mode_is_pure_and_deterministic(self, rng):
        params = init_params(SMALL, rng)
        x = ternary(rng, (3, 1, 8, 8))
        before = {n: a.copy() for n, a in params.arrays()}
        q1 = forward(params, x, mode="eval")
        q2 = forward(params, x, mode="eval")
        assert np.array_equal(q1, q2)
        for name, arr in params.arrays():
            assert np.array_equal(arr, before[name])

    def test_train_mode_updates_running_stats(self, rng):
        params = init_params(SMALL, rng)
        x = rng.normal(0, 1, (6, 1, 8, 8)).astype(np.float32)
        rm0 = params.bn1_mean.copy()
        forward(params, x, mode="train")
        assert not np.array_equal(params.bn1_mean, rm0)

    def test_batchnorm_train_moments(self, rng):
        params = init_params(SMALL, rng, dtype=np.float64)
        params.bn1_gamma[:] = rng.uniform(0.5, 1.5, params.bn1_gamma.shape)
        params.bn1_beta[:] = rng.normal(0, 1, params.bn1_beta.shape)
        x = rng.normal(0, 2, (8, 1, 8, 8))
        _, cache = qnet._forward_with_cache(params, x, train=True)
        post_bn1 = cache[2]
        mean = post_bn1.mean(axis=(0, 2, 3))
        var = post_bn1.var(axis=(0, 2, 3))
        assert np.allclose(mean, params.bn1_beta, atol=1e-4)
        assert np.allclose(var, params.bn1_gamma ** 2, atol=1e-4)

    def test_shape_mismatch_rejected(self, rng):
        params = init_params(SMALL, rng)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 1, 8, 9)))
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 2, 8, 8)))

    def test_nonfinite_input_aborts(self, rng):
        params = init_params(SMALL, rng)
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            forward(params, x)

    def test_conv_shape_chain_at_full_sensor_resolution(self):
        cfg = NetworkConfig(height=180, width=240, action_count=2)
        assert cfg.conv1_out == (45, 60)
        assert cfg.conv2_out == (12, 15)
        assert cfg.flat_dim == 720


def relative_errors(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return np.abs(analytic - fd) / denom


def finite_difference_check(cfg, residual_shift, rng, h=1e-5, tol=1e-3):
    params = init_params(cfg, rng, dtype=np.float64)
    # check at a generic point: exact-zero betas park post-bn activations
    # on the relu kink where one-sided fd and the subgradient disagree
    for name in ("bn1_beta", "bn2_beta", "conv1_b", "conv2_b", "fc1_b"):
        arr = getattr(params, name)
        arr += rng.normal(0.0, 0.3, arr.shape)
    for name in ("bn1_gamma", "bn2_gamma"):
        arr = getattr(params, name)
        arr *= rng.uniform(0.7, 1.3, arr.shape)
    bsz = 2
    x = ternary(rng, (bsz, 1, cfg.height, cfg.width))
    actions = rng.integers(0, cfg.action_count, size=bsz)
    q0, _ = qnet._forward_with_cache(params, x.astype(np.float64), train=True)
    targets = q0[np.arange(bsz), actions] + residual_shift
    grads, _ = backward(params, x, actions, targets)

    worst = 0.0
    for name in TRAINABLE_FIELDS:
        arr = getattr(params, name)
        fd = np.zeros_like(arr)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            _, loss_plus = backward(params, x, actions, targets)
            flat[i] = orig - h
            _, loss_minus = backward(params, x, actions, targets)
            flat[i] = orig
            fd_flat[i] = (loss_plus - loss_minus) / (2.0 * h)
        significant = (np.abs(getattr(grads, name)) > 1e-8) | (np.abs(fd) > 1e-8)
        if significant.any():
            err = relative_errors(getattr(grads, name)[significant], fd[significant])
            worst = max(worst, float(err.max()))
            assert (err <= tol).all(), f"{name}: max rel err {err.max():.2e}"
    return worst


class TestBackward:
    def test_zero_residual_zero_gradients(self, rng):
        params = init_params(SMALL, rng, dtype=np.float64)
        x = ternary(rng, (4, 1, 8, 8))
        actions = rng.integers(0, 3, size=4)
        q, _ = qnet._forward_with_cache(params, x.astype(np.float64), train=True)
        targets = q[np.arange(4), actions]
        grads, loss = backward(params, x, actions, targets)
        assert loss == 0.0
        for name in TRAINABLE_FIELDS:
            assert not getattr(grads, name).any(), name

    def test_gradients_match_fd_interior(self, rng):
        cfg = NetworkConfig(height=10, width=8, action_count=2, fc_width=6)
        finite_difference_check(cfg, residual_shift=0.4, rng=rng)

    def test_gradients_match_fd_exterior(self, rng):
        # residual beyond the Huber knee exercises the clipped branch
        cfg = NetworkConfig(height=10, width=8, action_count=2, fc_width=6)
        finite_difference_check(cfg, residual_shift=1.7, rng=rng)

    def test_huber_equals_squared_inside_delta(self, rng):
        params = init_params(SMALL, rng, dtype=np.float64)
        x = ternary(rng, (3, 1, 8, 8))
        actions = rng.integers(0, 3, size=3)
        q, _ = qnet._forward_with_cache(params, x.astype(np.float64), train=True)
        targets = q[np.arange(3), actions] + np.array([0.3, -0.8, 0.99])
        huber_grads, huber_loss = backward(params, x, actions, targets, "huber")
        sq_grads, sq_loss = backward(params, x, actions, targets, "squared")
        assert huber_loss == sq_loss
        for name in TRAINABLE_FIELDS:
            assert np.array_equal(getattr(huber_grads, name), getattr(sq_grads, name)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_int8_frames_match_float_frames(self, rng, dtype):
        # targets are cast to the weights' dtype, not the frames': an int8
        # cast would truncate 0.75 to 0
        params = init_params(SMALL, rng, dtype=dtype)
        ref_params = copy_params(params)
        x = ternary(rng, (6, 1, 8, 8))
        actions = rng.integers(0, 3, size=6)
        targets = rng.normal(0.0, 1.0, size=6) + 0.75
        grads, loss = backward(params, x, actions, targets)
        ref_grads, ref_loss = backward(ref_params, x.astype(np.float32), actions, targets)
        assert loss == ref_loss
        assert grads.flat.dtype == dtype
        assert np.array_equal(grads.flat, ref_grads.flat)
        assert np.array_equal(params.flat, ref_params.flat)  # bn running statistics

    def test_action_out_of_range(self, rng):
        params = init_params(SMALL, rng)
        with pytest.raises(ValueError):
            backward(params, np.zeros((1, 1, 8, 8)), [3], [0.0])


def frozen_bn_forward(x, gamma, beta, running_mean, running_var, eps, momentum):
    """Train-mode batch norm as it was written with np.mean and np.var,
    kept as the bit-level reference for the centre-once form."""
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, (xhat, inv)


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_matches_mean_and_var_bit_for_bit(self, dtype):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 6)),
                     int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            c = shape[1]
            x = (rng.normal(rng.normal(0, 3), rng.uniform(0.01, 5), shape)
                 * (rng.random(shape) < rng.uniform(0.1, 1.0))).astype(dtype)
            gamma, beta = rng.normal(1, 0.3, c).astype(dtype), rng.normal(0, 0.3, c).astype(dtype)
            stats = [rng.normal(0, 1, c).astype(dtype), rng.uniform(0.5, 2, c).astype(dtype)]
            ref_stats = [a.copy() for a in stats]
            out, (xhat, inv) = qnet._bn_forward(x, gamma, beta, *stats, 1e-5, 0.1, True)
            ref_out, (ref_xhat, ref_inv) = frozen_bn_forward(x, gamma, beta, *ref_stats,
                                                             1e-5, 0.1)
            for got, want in ((out, ref_out), (xhat, ref_xhat), (inv, ref_inv),
                              (stats[0], ref_stats[0]), (stats[1], ref_stats[1])):
                assert got.dtype == want.dtype and np.array_equal(got, want), shape


class TestConvEquivalence:
    """The patch-gather conv is bit-identical to the tensordot reference."""

    @pytest.mark.parametrize("bsz", [1, 7, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("strides", [(4, 4), (1, 1), (2, 3), (3, 2)])
    def test_bit_identical_to_tensordot_conv(self, rng, monkeypatch, strides, dtype, bsz):
        cfg = NetworkConfig(height=48, width=64, action_count=4, strides=strides)
        params = init_params(cfg, rng, dtype=dtype)
        for name in ("conv1_b", "conv2_b", "bn1_beta", "bn2_beta"):
            arr = getattr(params, name)
            arr += rng.normal(0.0, 0.3, arr.shape).astype(dtype)
        ref_params = copy_params(params)
        x = ternary(rng, (bsz, 1, cfg.height, cfg.width)).astype(dtype)
        actions = rng.integers(0, cfg.action_count, size=bsz)
        targets = rng.normal(0.0, 1.0, size=bsz)
        s1, s2 = strides
        p = cfg.padding

        z1, _ = qnet._conv_forward(x, params.conv1_w, params.conv1_b, s1, p)
        ref_z1, _ = tensordot_conv_forward(x, params.conv1_w, params.conv1_b, s1, p)
        assert np.array_equal(z1, ref_z1)
        a1 = qnet._forward_with_cache(params, x, train=False)[1][5]
        z2, _ = qnet._conv_forward(a1, params.conv2_w, params.conv2_b, s2, p)
        ref_z2, _ = tensordot_conv_forward(a1, params.conv2_w, params.conv2_b, s2, p)
        assert np.array_equal(z2, ref_z2)

        q = forward(params, x, mode="eval")
        grads, loss = backward(params, x, actions, targets)
        calls = []

        def counted_conv(*args):
            calls.append(len(args))
            return tensordot_conv_forward(*args)

        monkeypatch.setattr(qnet, "_conv_forward", counted_conv)
        monkeypatch.setattr(qnet, "_conv_backward", tensordot_conv_backward)
        ref_q = forward(ref_params, x, mode="eval")
        ref_grads, ref_loss = backward(ref_params, x, actions, targets)
        assert calls == [5] * 4  # both convs of forward and of backward

        assert np.array_equal(q, ref_q)
        assert loss == ref_loss
        for name in TRAINABLE_FIELDS:
            assert getattr(grads, name).dtype == getattr(ref_grads, name).dtype, name
            assert np.array_equal(getattr(grads, name), getattr(ref_grads, name)), name
        for name, arr in params.arrays():
            assert np.array_equal(arr, getattr(ref_params, name)), name


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, rng):
        params = init_params(SMALL, rng)
        state = init_adam(params, lr=0.1)
        before = {n: a.copy() for n, a in params.arrays()}
        zero = QNetworkParams(params.cfg, np.zeros_like(params.flat))
        adam_step(params, zero, state)
        assert state.t == 1
        for name, arr in params.arrays():
            assert np.array_equal(arr, before[name]), name

    def test_hand_worked_scalar_step(self, rng):
        # w=0, g=1, lr=0.1 -> m_hat=1, v_hat=1, w' = -0.1/(1+0.01)
        params = init_params(SMALL, rng)
        assert qnet.ADAM_EPS == 0.01
        state = init_adam(params, lr=0.1)
        grads = QNetworkParams(params.cfg, np.zeros_like(params.flat))
        grads.conv1_b[0] = 1.0
        adam_step(params, grads, state)
        assert abs(float(params.conv1_b[0]) - (-0.1 / 1.01)) < 1e-7

    def test_two_runs_identical(self, rng):
        results = []
        for _ in range(2):
            params = init_params(SMALL, np.random.default_rng(42))
            state = init_adam(params)
            g_rng = np.random.default_rng(7)
            for _ in range(3):
                grads = QNetworkParams(params.cfg, np.zeros_like(params.flat))
                for n in TRAINABLE_FIELDS:
                    getattr(grads, n)[...] = g_rng.normal(0, 0.1, getattr(grads, n).shape)
                adam_step(params, grads, state)
            results.append({n: a.copy() for n, a in params.arrays()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr", [1e-3, 0.05])
    def test_flat_step_matches_frozen_per_field_loop(self, dtype, lr):
        cfg = NetworkConfig(height=48, width=64, action_count=3)
        rng = np.random.default_rng(21)
        params = init_params(cfg, rng, dtype=dtype)
        params.bn1_mean += rng.normal(0, 0.3, params.bn1_mean.shape)
        params.bn2_mean[:] = rng.normal(0, 0.3, params.bn2_mean.shape)
        params.bn2_mean[0] = -0.0  # a signed zero must survive the +0.0 update
        params.bn1_var *= rng.uniform(0.2, 3.0, params.bn1_var.shape)
        params.bn2_var *= rng.uniform(0.2, 3.0, params.bn2_var.shape)
        running = {n: getattr(params, n).tobytes() for n in PARAM_FIELDS
                   if n not in TRAINABLE_FIELDS}
        ref = {n: a.copy() for n, a in params.arrays()}
        ref_state = frozen_init_adam(ref)
        state = init_adam(params, lr=lr)
        for _ in range(12):
            grads = QNetworkParams(cfg, np.zeros_like(params.flat))
            for n in TRAINABLE_FIELDS:
                g = getattr(grads, n)
                g[...] = rng.normal(0, rng.choice([1e-4, 0.1, 3.0]), g.shape)
                g[rng.random(g.shape) < 0.2] = 0.0
            frozen_adam_step(ref, {n: getattr(grads, n) for n in TRAINABLE_FIELDS},
                             ref_state, lr)
            adam_step(params, grads, state)
        assert state.t == ref_state["t"] == 12
        for name, arr in params.arrays():
            assert arr.tobytes() == ref[name].tobytes(), name
        for name, blob in running.items():
            assert getattr(params, name).tobytes() == blob, name


def frozen_init_adam(params):
    """The per-field Adam state that preceded the flat buffer."""
    return {"t": 0, "m": {n: np.zeros_like(params[n]) for n in TRAINABLE_FIELDS},
            "v": {n: np.zeros_like(params[n]) for n in TRAINABLE_FIELDS}}


def frozen_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=0.01):
    """The per-field Adam loop that preceded the flat buffer, kept as the
    reference the whole-buffer adam_step must reproduce bit for bit."""
    state["t"] += 1
    c1 = 1.0 - beta1 ** state["t"]
    c2 = 1.0 - beta2 ** state["t"]
    for name in TRAINABLE_FIELDS:
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        arr = params[name]
        arr -= (lr * (m / c1) / (np.sqrt(v / c2) + eps)).astype(arr.dtype)


def frozen_init_params(cfg, rng, dtype):
    """The hand-written init that preceded qnet.param_shapes, kept as the
    reference for draw order, fan-ins and fill values."""
    c1, c2 = cfg.conv_channels
    k = cfg.kernel

    def uniform(shape, fan_in):
        bound = math.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    def zeros(n):
        return np.zeros(n, dtype=dtype)

    def ones(n):
        return np.ones(n, dtype=dtype)

    return dict(
        conv1_w=uniform((c1, 1, k, k), k * k),
        conv1_b=zeros(c1),
        bn1_gamma=ones(c1), bn1_beta=zeros(c1), bn1_mean=zeros(c1), bn1_var=ones(c1),
        conv2_w=uniform((c2, c1, k, k), c1 * k * k),
        conv2_b=zeros(c2),
        bn2_gamma=ones(c2), bn2_beta=zeros(c2), bn2_mean=zeros(c2), bn2_var=ones(c2),
        fc1_w=uniform((cfg.fc_width, cfg.flat_dim), cfg.flat_dim),
        fc1_b=zeros(cfg.fc_width),
        fc2_w=uniform((cfg.action_count, cfg.fc_width), cfg.fc_width),
        fc2_b=zeros(cfg.action_count),
    )


class TestInitParams:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [
        NetworkConfig(height=24, width=32, action_count=2),
        NetworkConfig(height=48, width=64, action_count=3),
        NetworkConfig(height=24, width=32, action_count=3, conv_channels=(3, 5),
                      kernel=5, strides=(1, 2), padding=2, fc_width=7),
    ], ids=["32x24", "64x48", "wide-kernel"])
    def test_matches_frozen_hand_written_init(self, cfg, dtype):
        ref = frozen_init_params(cfg, np.random.default_rng(7), dtype)
        params = init_params(cfg, np.random.default_rng(7), dtype)
        assert tuple(ref) == qnet.PARAM_FIELDS == tuple(qnet.param_shapes(cfg))
        for name, arr in params.arrays():
            assert arr.dtype == dtype, name
            assert np.array_equal(arr, ref[name]), name


class TestCopyParams:
    def test_copy_then_mutate_source(self, rng):
        src = init_params(SMALL, rng)
        dup = copy_params(src)
        x = ternary(rng, (2, 1, 8, 8))
        assert np.array_equal(forward(src, x), forward(dup, x))
        src.fc2_w += 1.0
        src.bn1_mean += 0.5
        assert not np.array_equal(src.fc2_w, dup.fc2_w)
        assert not np.array_equal(src.bn1_mean, dup.bn1_mean)

    def test_serialized_copies_identical(self, rng):
        src = init_params(SMALL, rng)
        dup = copy_params(src)
        blob_src = b"".join(arr.tobytes() for _, arr in src.arrays())
        blob_dup = b"".join(arr.tobytes() for _, arr in dup.arrays())
        assert blob_src == blob_dup


class TestFlatLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_field_is_a_view_of_flat(self, rng, dtype):
        params = init_params(SMALL, rng, dtype=dtype)
        dup = copy_params(params)
        assert params.flat.shape == (qnet.param_count(SMALL),)
        assert np.array_equal(
            np.concatenate([arr.ravel() for _, arr in params.arrays()]), params.flat)
        for name, arr in params.arrays():
            assert arr.shape == qnet.param_shapes(SMALL)[name], name
            assert np.shares_memory(arr, params.flat), name
            assert not np.shares_memory(getattr(dup, name), params.flat), name
            assert np.shares_memory(getattr(dup, name), dup.flat), name
        assert not np.shares_memory(dup.flat, params.flat)
        params.fc1_b[:] = 5.0  # every init value lies in [-1, 1]
        assert np.count_nonzero(params.flat == 5.0) == params.fc1_b.size
        assert not (dup.flat == 5.0).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fields_tile_flat_in_field_order(self, dtype):
        configs = (SMALL, NetworkConfig(height=48, width=64, action_count=4),
                   NetworkConfig(height=24, width=32, action_count=3, conv_channels=(3, 5),
                                 kernel=5, strides=(1, 2), padding=2, fc_width=7), SMALL)
        for cfg in configs:  # SMALL again, after the others, reads its own layout
            params = QNetworkParams(cfg, np.zeros(qnet.param_count(cfg), dtype=dtype))
            base = params.flat.__array_interface__["data"][0]
            offset = 0
            for name, arr in params.arrays():
                assert arr.shape == qnet.param_shapes(cfg)[name], name
                assert arr.__array_interface__["data"][0] == base + offset * arr.itemsize
                assert arr.flags.c_contiguous and np.shares_memory(arr, params.flat), name
                offset += arr.size
            assert offset == params.flat.size

    def test_gradients_share_the_layout(self, rng):
        params = init_params(SMALL, rng)
        x = ternary(rng, (4, 1, 8, 8))
        grads, _ = backward(params, x, rng.integers(0, 3, size=4), rng.normal(size=4))
        assert isinstance(grads, QNetworkParams)
        assert grads.flat.shape == params.flat.shape
        assert grads.flat.dtype == params.flat.dtype
        assert not np.shares_memory(grads.flat, params.flat)
        for name in PARAM_FIELDS:
            if name not in TRAINABLE_FIELDS:
                assert not getattr(grads, name).any(), name

    def test_buffer_length_checked(self):
        with pytest.raises(ValueError, match="values"):
            QNetworkParams(SMALL, np.zeros(qnet.param_count(SMALL) + 1, dtype=np.float32))
        with pytest.raises(ValueError, match="values"):
            QNetworkParams(SMALL, np.zeros((1, qnet.param_count(SMALL)), dtype=np.float32))


class TestConfig:
    def test_gradcheck_network_shapes(self):
        assert GRADCHECK.conv1_out == (4, 3)
        assert GRADCHECK.conv2_out == (1, 1)
        assert GRADCHECK.flat_dim == 4

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(height=2, width=2, action_count=2, kernel=5)
        with pytest.raises(ValueError):
            NetworkConfig(height=8, width=8, action_count=0)

    @pytest.mark.parametrize("bad", [
        {"kernel": 0}, {"strides": (0, 4)}, {"strides": (4, 0)},
        {"conv_channels": (0, 4)}, {"conv_channels": (2, 0)}, {"fc_width": 0},
        {"padding": -1}, {"bn_eps": 0.0}, {"bn_eps": -1e-5}, {"bn_eps": math.nan},
        {"bn_eps": math.inf}, {"bn_momentum": -0.1}, {"bn_momentum": 1.5},
        {"bn_momentum": math.nan},
    ], ids=repr)
    def test_degenerate_layer_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            NetworkConfig(height=48, width=64, action_count=2, **bad)

    def test_boundary_layer_settings_accepted(self):
        NetworkConfig(height=8, width=8, action_count=1, conv_channels=(1, 1), kernel=1,
                      strides=(1, 1), padding=0, fc_width=1, bn_momentum=0.0)
        NetworkConfig(height=8, width=8, action_count=1, bn_momentum=1.0)
