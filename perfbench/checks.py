"""Output checks, each against a computation made apart from the program.

The references here use plain numpy written for this benchmark: window
assignment by integer division, last-event-wins accumulation through
``np.maximum.at``, the reward formulas of the paper, and the Double DQN
target one transition at a time. Only ``qnet.forward`` is shared with the
program, as the model whose outputs the references compare against.
Every check raises ``CheckFailed`` with the first mismatch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# --- control ---------------------------------------------------------------

def check_frame(frame, height: int, width: int):
    require(isinstance(frame, np.ndarray) and frame.dtype == np.int8,
            f"frame is not an int8 array: {type(frame).__name__} "
            f"{getattr(frame, 'dtype', None)}")
    require(frame.shape == (height, width),
            f"frame shape {frame.shape} != {(height, width)}")
    require(int(frame.min(initial=0)) >= -1 and int(frame.max(initial=0)) <= 1,
            "frame values outside {-1, 0, +1}")


def reference_reward(task: str, action: int, info: Dict[str, object]) -> float:
    """Avoidance: -50 on a collision, else -d^2/10 (+0.2 when driving
    forward, action 0). Tracking: 10 * (1 - |theta|)."""
    if task == "avoidance":
        if info["collision"]:
            return -50.0
        d = float(info["d"])
        return -d * d / 10.0 + (0.2 if action == 0 else 0.0)
    if task == "tracking":
        return 10.0 * (1.0 - abs(float(info["theta"])))
    raise ValueError(f"unknown task {task!r}")


def check_reward(task: str, action: int, reward: float, info: Dict[str, object]):
    want = reference_reward(task, action, info)
    require(math.isclose(reward, want, rel_tol=1e-12, abs_tol=1e-12),
            f"{task} reward {reward!r} != reference {want!r} for action "
            f"{action} and info {info}")


def check_episode_end(done: bool, collided: bool, step: int, max_steps: int):
    want = bool(collided) or step >= max_steps
    require(step <= max_steps, f"episode ran past max_steps: step {step}")
    require(bool(done) == want,
            f"done={done} at step {step}/{max_steps} with collision={collided}")


def binomial_bounds(trials: int, p: float, z: float = 6.0):
    mean = trials * p
    sd = math.sqrt(trials * p * (1.0 - p))
    return mean - z * sd, mean + z * sd


def check_reset_noise(nonzero: int, frames: int, height: int, width: int, p: float):
    """Reset frames are noise on a static scene: each pixel is hit
    independently with probability p."""
    lo, hi = binomial_bounds(frames * height * width, p)
    require(lo <= nonzero <= hi,
            f"{nonzero} nonzero pixels in {frames} reset frames, "
            f"outside the binomial bound [{lo:.1f}, {hi:.1f}]")


# --- serve -----------------------------------------------------------------

def window_index(t: np.ndarray, dt_us: int) -> np.ndarray:
    """0-based window of each event; window 0 starts at the first event."""
    t = np.asarray(t, dtype=np.int64)
    return (t - t[0]) // int(dt_us)


def accumulate_last_wins(x, y, p, width: int, height: int) -> np.ndarray:
    """Ternary frame keeping, per pixel, the polarity of the last event
    (events given in time order)."""
    frame = np.zeros(height * width, dtype=np.int8)
    lin = np.asarray(y, dtype=np.int64) * width + np.asarray(x, dtype=np.int64)
    if lin.size == 0:
        return frame.reshape(height, width)
    last = np.full(height * width, -1, dtype=np.int64)
    np.maximum.at(last, lin, np.arange(lin.size))
    hit = last >= 0
    frame[hit] = np.asarray(p, dtype=np.int8)[last[hit]]
    return frame.reshape(height, width)


def reference_actions(t, x, y, p, dt_us: int, params, forward) -> List[int]:
    """One greedy action per window, windows 1..N with N covering the
    last event; empty windows see the all-zero frame."""
    cfg = params.cfg
    win = window_index(t, dt_us)
    count = int(win[-1]) + 1
    bounds = np.searchsorted(win, np.arange(count + 1), side="left")
    actions = []
    empty_action = None
    for w in range(count):
        lo, hi = bounds[w], bounds[w + 1]
        if lo == hi and empty_action is not None:
            actions.append(empty_action)
            continue
        frame = accumulate_last_wins(x[lo:hi], y[lo:hi], p[lo:hi], cfg.width, cfg.height)
        action = int(np.argmax(forward(params, frame, mode="eval")[0]))
        if lo == hi:
            empty_action = action
        actions.append(action)
    return actions


def check_session(replies: Sequence[dict], expected_actions: Sequence[int]):
    """Replies of one session: no errors, steps 1..N in order, actions equal."""
    errors = [r for r in replies if r.get("type") != "action"]
    require(not errors, f"{len(errors)} non-action replies, first {errors[:1]}")
    steps = [r["step"] for r in replies]
    require(steps == list(range(1, len(expected_actions) + 1)),
            f"action steps run {steps[:3]}..{steps[-3:]} over {len(steps)} replies, "
            f"expected 1..{len(expected_actions)}")
    for r, want in zip(replies, expected_actions):
        require(r["action"] == want,
                f"window {r['step']}: action {r['action']} != reference {want}")


# --- train -----------------------------------------------------------------

def check_grad_steps(logged: int, env_steps: int, batch_size: int, warmup_steps: int):
    want = env_steps - max(batch_size, warmup_steps) + 1
    require(logged == want,
            f"log reports {logged} grad steps, {env_steps} env steps give {want}")


def check_finite(name: str, values):
    arr = np.asarray(values, dtype=np.float64)
    require(arr.size > 0 and bool(np.isfinite(arr).all()), f"non-finite {name}")


def reference_target(r: float, s_next, done: bool, online, target, gamma: float,
                     forward) -> float:
    """r + gamma * Q_target(s', argmax_a Q_online(s', a)), or r when done,
    from batch-1 forward passes."""
    if done:
        return float(r)
    best = int(np.argmax(forward(online, s_next, mode="eval")[0]))
    return float(r) + gamma * float(forward(target, s_next, mode="eval")[0][best])


def check_targets(y, y_ref, rtol: float = 1e-4, atol: float = 1e-4):
    y = np.asarray(y, dtype=np.float64)
    y_ref = np.asarray(y_ref, dtype=np.float64)
    require(y.shape == y_ref.shape, f"target shape {y.shape} != {y_ref.shape}")
    bad = ~np.isclose(y, y_ref, rtol=rtol, atol=atol)
    require(not bad.any(),
            f"{int(bad.sum())} Double DQN targets differ, first at "
            f"{int(np.argmax(bad)) if bad.any() else -1}")
