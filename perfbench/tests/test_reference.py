"""The benchmark's reference code on tiny inputs with known answers, and
each output check shown to fail on a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import timing
from checks import CheckFailed
from spans import SpanTable


# --- window assignment ------------------------------------------------------

def test_window_index_anchors_at_first_event():
    t = np.array([100, 105, 109, 110, 119, 150, 151])
    assert checks.window_index(t, 10).tolist() == [0, 0, 0, 1, 1, 5, 5]


def test_window_index_large_timestamps_stay_exact():
    t = np.array([2 ** 40, 2 ** 40 + 9_999, 2 ** 40 + 10_000])
    assert checks.window_index(t, 10_000).tolist() == [0, 0, 1]


# --- accumulation -----------------------------------------------------------

def test_accumulate_last_event_wins_per_pixel():
    x = [0, 1, 0, 2, 1]
    y = [0, 0, 0, 1, 0]
    p = [1, -1, -1, 1, 1]
    frame = checks.accumulate_last_wins(x, y, p, width=3, height=2)
    assert frame.dtype == np.int8
    assert frame.tolist() == [[-1, 1, 0], [0, 0, 1]]


def test_accumulate_no_events_is_zero_frame():
    frame = checks.accumulate_last_wins([], [], [], width=4, height=3)
    assert frame.shape == (3, 4) and not frame.any()


def test_reference_actions_one_per_window_including_empty():
    # fake model: action 1 when the frame sums negative, else 0
    params = SimpleNamespace(cfg=SimpleNamespace(width=2, height=1))

    def forward(_params, frame, mode="eval"):
        s = float(frame.sum())
        return np.array([[s, -s]]) if s < 0 else np.array([[1.0, 0.0]])

    t = np.array([0, 3, 10, 35])
    x = np.array([0, 1, 0, 1])
    y = np.zeros(4, dtype=int)
    p = np.array([1, -1, -1, 1])
    # windows of 10: [0,10) sum 0 -> 0; [10,20) sum -1 -> 1; two empty -> 0; [30,40) -> 0
    assert checks.reference_actions(t, x, y, p, 10, params, forward) == [0, 1, 0, 0]


# --- rewards and episode ends ----------------------------------------------

@pytest.mark.parametrize("task, action, info, want", [
    ("avoidance", 0, {"d": 1.0, "collision": False}, 0.1),
    ("avoidance", 1, {"d": 2.0, "collision": False}, -0.4),
    ("avoidance", 0, {"d": 0.1, "collision": True}, -50.0),
    ("tracking", 2, {"theta": 0.5, "collision": False}, 5.0),
    ("tracking", 0, {"theta": -1.5, "collision": False}, -5.0),
])
def test_reference_reward(task, action, info, want):
    assert checks.reference_reward(task, action, info) == pytest.approx(want, abs=1e-12)


def test_check_reward_rejects_a_wrong_reward():
    info = {"d": 1.0, "collision": False}
    checks.check_reward("avoidance", 0, 0.1, info)
    with pytest.raises(CheckFailed):
        checks.check_reward("avoidance", 0, 0.1 + 1e-6, info)
    with pytest.raises(CheckFailed):  # the forward bonus on a stop action
        checks.check_reward("avoidance", 1, 0.1, info)


def test_check_episode_end():
    checks.check_episode_end(False, False, 5, 100)
    checks.check_episode_end(True, True, 5, 100)
    checks.check_episode_end(True, False, 100, 100)
    for done, collided, step in ((True, False, 5), (False, True, 5), (False, False, 100)):
        with pytest.raises(CheckFailed):
            checks.check_episode_end(done, collided, step, 100)
    with pytest.raises(CheckFailed):
        checks.check_episode_end(True, False, 101, 100)


# --- frames and noise -------------------------------------------------------

def test_check_frame_rejects_dtype_shape_and_values():
    good = np.zeros((3, 4), dtype=np.int8)
    checks.check_frame(good, 3, 4)
    bad_value = good.copy()
    bad_value[1, 1] = 2
    for frame in (good.astype(np.int16), good.T.copy(), bad_value, good.tolist()):
        with pytest.raises(CheckFailed):
            checks.check_frame(frame, 3, 4)


def test_check_reset_noise_binomial_bound():
    # 10 frames of 100x100 at p=0.001: mean 100, sd ~10, bound ~[40, 160]
    checks.check_reset_noise(100, 10, 100, 100, 0.001)
    for count in (0, 30, 200):
        with pytest.raises(CheckFailed):
            checks.check_reset_noise(count, 10, 100, 100, 0.001)


# --- serve replies ------------------------------------------------------------

def _replies(actions):
    return [{"type": "action", "step": i + 1, "action": a, "latency_us": 5}
            for i, a in enumerate(actions)]


def test_check_session_rejects_errors_gaps_and_wrong_actions():
    want = [0, 2, 1, 1]
    checks.check_session(_replies(want), want)
    with_error = _replies(want)
    with_error[2] = {"type": "error", "message": "late"}
    gap = _replies(want)
    gap[3]["step"] = 5
    wrong = _replies([0, 2, 0, 1])
    for replies in (with_error, gap, wrong, _replies(want[:3])):
        with pytest.raises(CheckFailed):
            checks.check_session(replies, want)


# --- train ------------------------------------------------------------------

def test_check_grad_steps_counts_from_the_fill_step():
    checks.check_grad_steps(logged=201, env_steps=300, batch_size=32, warmup_steps=100)
    checks.check_grad_steps(logged=9, env_steps=40, batch_size=32, warmup_steps=0)
    with pytest.raises(CheckFailed):
        checks.check_grad_steps(logged=200, env_steps=300, batch_size=32, warmup_steps=100)


def test_check_finite():
    checks.check_finite("loss", [0.5, 1.0])
    for values in ([0.5, float("nan")], [float("inf")], []):
        with pytest.raises(CheckFailed):
            checks.check_finite("loss", values)


def test_reference_target_and_check_targets():
    # fake nets on a 1-element "frame": online prefers action 1, target
    # values each action by its index plus the frame value
    def forward(params, s, mode="eval"):
        v = float(np.asarray(s).sum())
        return np.array([[0.0, 1.0]]) if params == "online" else np.array([[v, v + 1.0]])

    y = checks.reference_target(2.0, np.array([3.0]), False, "online", "target", 0.5, forward)
    assert y == pytest.approx(2.0 + 0.5 * 4.0)
    assert checks.reference_target(2.0, np.array([3.0]), True, "online", "target", 0.5,
                                   forward) == 2.0
    checks.check_targets([4.0, 2.0], [4.0 + 1e-6, 2.0])
    with pytest.raises(CheckFailed):
        checks.check_targets([4.0, 2.0], [4.1, 2.0])
    with pytest.raises(CheckFailed):
        checks.check_targets([4.0], [4.0, 2.0])


# --- tail percentile ----------------------------------------------------------

def test_tail_percentile_rule():
    assert timing.tail_rank(1000) == 990
    assert timing.tail_rank(1001) == 991
    assert timing.min_tail_samples() == 1000
    samples = list(range(1000, 0, -1))  # order must not matter
    assert timing.tail_percentile(samples) == 990
    with pytest.raises(ValueError):
        timing.tail_percentile(list(range(999)))
    with pytest.raises(ValueError):
        timing.tail_percentile([])


def test_median():
    assert timing.median([3, 1, 2]) == 2
    assert timing.median([4, 1, 3, 2]) == 2.5


# --- spans ------------------------------------------------------------------------

def _table(rows):
    names = sorted({r[0] for r in rows})
    return SpanTable({
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows]),
        "end": np.array([r[2] for r in rows]),
        "parent": np.array([r[3] for r in rows]),
        "size": np.array([r[4] for r in rows]),
    })


def test_self_time_subtracts_direct_children():
    table = _table([
        ("envs.step", 0, 100, -1, 0),
        ("renderer.render", 10, 70, 0, 0),
        ("events.noise", 70, 90, 0, 0),
        ("envs.step", 200, 250, -1, 0),
    ])
    assert table.self_ns.tolist() == [20, 60, 20, 50]
    m = table.layer_metrics(rounds=1)
    assert m["envs.step_self_ms"]["value"] == pytest.approx(35e-6)
    assert m["renderer.calls"]["value"] == 1


def test_bucket_time_charged_to_the_window_it_closes():
    table = _table([
        ("service.bucket", 0, 2, -1, 0),
        ("service.bucket", 3, 4, -1, 0),
        ("service.infer", 5, 9, -1, 3),
        ("service.infer", 9, 12, -1, 0),   # empty window, no bucketing
        ("service.bucket", 13, 16, -1, 0),
        ("service.infer", 17, 20, -1, 1),
        ("service.bucket", 21, 22, -1, 0),  # after the last window: dropped
    ])
    assert table.bucket_ns_per_window().tolist() == [3, 0, 3]
    m = table.layer_metrics(rounds=1)
    assert m["service.windows"]["value"] == 3
    assert m["service.empty_windows"]["value"] == 1


# --- serve input ----------------------------------------------------------------

def test_serve_stream_make_up():
    import wl_serve

    t, x, y, p = wl_serve.make_stream(np.random.default_rng(7))
    assert (np.diff(t) >= 0).all() and t[0] == wl_serve.T_BASE_US
    assert x.min() >= 0 and x.max() < wl_serve.WIDTH
    assert y.min() >= 0 and y.max() < wl_serve.HEIGHT
    assert set(np.unique(p).tolist()) == {-1, 1}
    counts = np.bincount(checks.window_index(t, wl_serve.DT_US))
    assert len(counts) == wl_serve.WINDOWS
    assert (counts == 0).sum() == sum(wl_serve.GAP_RUNS)
    assert counts[0] > 0 and counts[-1] > 0
    assert (counts >= 1900).sum() == wl_serve.BURSTS
    assert abs(len(t) / wl_serve.WINDOWS - wl_serve.MEAN_EVENTS) < 5

    messages, closes = wl_serve.encode_messages(t[:50], x[:50], y[:50], p[:50])
    assert closes[0] == 0 and sum(closes) == int(checks.window_index(t[:50], wl_serve.DT_US)[-1]) + 1
    assert messages[-1] == b'{"type":"flush"}\n'


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert set(timing.end_to_end(1.0, list(range(1, 1001)), 1.0, 1.0)) == \
        {m["name"] for m in spec["end_to_end"]}
    layers = _table([("envs.step", 0, 1, -1, 0)]).layer_metrics(rounds=1)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]
