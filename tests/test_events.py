"""Event emulation and Algorithm-1 accumulation against brute-force oracles."""

import numpy as np
import pytest

from evrl.events import (EVENT_DTYPE, EmulatorConfig, accumulate_events,
                         emulate_frame, events_array, inject_impulse_noise)


def oracle_emulate(l_prev, l_curr, threshold):
    """Per-pixel three-way comparison, pure Python."""
    h, w = l_prev.shape
    out = np.zeros((h, w), dtype=np.int8)
    for y in range(h):
        for x in range(w):
            diff = float(l_curr[y, x]) - float(l_prev[y, x])
            if diff >= threshold:
                out[y, x] = 1
            elif diff <= -threshold:
                out[y, x] = -1
    return out


def oracle_accumulate(events, t_start, t_end, width, height):
    """Last polarity per pixel within the half-open window, dict walk."""
    last = {}
    for ev in sorted(events, key=lambda e: e[0]):
        t, x, y, p = ev
        if t_start <= t < t_end:
            last[(x, y)] = p
    out = np.zeros((height, width), dtype=np.int8)
    for (x, y), p in last.items():
        out[y, x] = p
    return out


class TestEmulateFrame:
    def test_matches_oracle_on_random_pairs(self, rng):
        # a smaller copy of acceptance criterion 1 for quick feedback
        for _ in range(50):
            l_prev = rng.uniform(-2.5, 0.0, size=(12, 16))
            l_curr = l_prev + rng.uniform(-0.5, 0.5, size=(12, 16))
            got = emulate_frame(l_prev, l_curr, 0.2)
            assert np.array_equal(got, oracle_emulate(l_prev, l_curr, 0.2))

    def test_boundaries_inclusive(self):
        l_prev = np.zeros((1, 3))
        l_curr = np.array([[0.2, -0.2, 0.19999]])
        got = emulate_frame(l_prev, l_curr, 0.2)
        assert got.tolist() == [[1, -1, 0]]

    def test_zero_diff_zero_frame(self):
        l = np.full((4, 5), -1.0)
        assert not emulate_frame(l, l, 0.2).any()

    def test_dtype_and_shape(self, rng):
        l = rng.uniform(-2, 0, size=(6, 7))
        out = emulate_frame(l, l + 1.0, 0.2)
        assert out.dtype == np.int8 and out.shape == (6, 7)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            emulate_frame(np.zeros((2, 2)), np.zeros((2, 3)), 0.2)


class TestAccumulateEvents:
    def test_matches_oracle_random_streams(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 300))
            w, h = 16, 12
            t = rng.integers(0, 1000, size=n)
            ev = list(zip(t.tolist(),
                          rng.integers(0, w, size=n).tolist(),
                          rng.integers(0, h, size=n).tolist(),
                          rng.choice([-1, 1], size=n).tolist()))
            t0, t1 = 100, 900
            got = accumulate_events(events_array(ev), t0, t1, w, h)
            assert np.array_equal(got, oracle_accumulate(ev, t0, t1, w, h))

    def test_last_event_wins_on_same_pixel(self):
        ev = events_array([(1, 3, 2, 1), (5, 3, 2, -1)])
        out = accumulate_events(ev, 0, 10, 8, 6)
        assert out[2, 3] == -1

    def test_equal_timestamps_keep_input_order(self):
        # stable sort: later element of the input wins at equal t
        ev = events_array([(5, 1, 1, 1), (5, 1, 1, -1)])
        out = accumulate_events(ev, 0, 10, 4, 4)
        assert out[1, 1] == -1

    def test_window_half_open(self):
        ev = events_array([(10, 0, 0, 1), (20, 1, 0, 1)])
        out = accumulate_events(ev, 10, 20, 4, 4)
        assert out[0, 0] == 1 and out[0, 1] == 0

    def test_empty_stream(self):
        out = accumulate_events(events_array([]), 0, 10, 5, 5)
        assert out.shape == (5, 5) and not out.any()

    def test_coordinates_out_of_range_raise(self):
        with pytest.raises(ValueError):
            accumulate_events(events_array([(1, 9, 0, 1)]), 0, 10, 8, 8)

    def test_bad_polarity_raises(self):
        with pytest.raises(ValueError, match="event 0"):
            accumulate_events(events_array([(1, 1, 1, 5)]), 0, 10, 4, 4)

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            accumulate_events(events_array([]), 10, 10, 4, 4)


class TestImpulseNoise:
    def test_zero_prob_is_identity(self, rng):
        frame = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(10, 10))
        out = inject_impulse_noise(frame, 0.0, rng)
        assert np.array_equal(out, frame)

    def test_overwrites_with_fair_coin(self):
        # prob 1: every pixel replaced; polarity should be about half +1
        rng = np.random.default_rng(7)
        frame = np.zeros((100, 100), dtype=np.int8)
        out = inject_impulse_noise(frame, 1.0, rng)
        assert np.abs(out).all()
        pos = (out == 1).mean()
        assert 0.45 < pos < 0.55

    def test_rate_within_binomial_ci(self):
        # mirrors acceptance criterion 3 at a smaller scale
        rng = np.random.default_rng(99)
        p, n_frames, shape = 0.001, 30, (48, 64)
        flipped = 0
        for _ in range(n_frames):
            frame = np.zeros(shape, dtype=np.int8)
            flipped += int(np.abs(inject_impulse_noise(frame, p, rng)).sum())
        n = n_frames * shape[0] * shape[1]
        mean, sd = n * p, (n * p * (1 - p)) ** 0.5
        assert mean - 2.576 * sd <= flipped <= mean + 2.576 * sd

    def test_does_not_mutate_input(self, rng):
        frame = np.zeros((8, 8), dtype=np.int8)
        inject_impulse_noise(frame, 1.0, rng)
        assert not frame.any()

    def test_seeded_determinism(self):
        frame = np.zeros((16, 16), dtype=np.int8)
        a = inject_impulse_noise(frame, 0.05, np.random.default_rng(5))
        b = inject_impulse_noise(frame, 0.05, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_matches_full_frame_sign_reference(self):
        # seeded fixtures rest on this stream: a hit mask, then a fair coin
        # drawn for every pixel, whether or not it was hit
        for seed in range(20):
            frame = np.random.default_rng(seed).choice(
                np.array([-1, 0, 1], dtype=np.int8), size=(37, 61))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = inject_impulse_noise(frame, 0.05, rng)
            want = frame.copy()
            hit = ref_rng.random(frame.shape) < 0.05
            sign = np.where(ref_rng.random(frame.shape) < 0.5, -1, 1).astype(np.int8)
            want[hit] = sign[hit]
            assert out.dtype == np.int8 and np.array_equal(out, want)
            assert rng.random() == ref_rng.random()


class TestEventsArray:
    def test_dtype_layout(self):
        assert EVENT_DTYPE.itemsize == 16
        arr = events_array([(1, 2, 3, -1)])
        assert arr["t"][0] == 1 and arr["x"][0] == 2
        assert arr["y"][0] == 3 and arr["p"][0] == -1

    def test_packed_structured_input_converted_field_by_field(self):
        rng = np.random.default_rng(11)
        ev = np.zeros(50, dtype=EVENT_DTYPE)
        ev["t"] = np.sort(rng.integers(0, 2 ** 63, 50).astype(np.uint64)) * np.uint64(2)
        ev["x"], ev["y"] = rng.integers(0, 2 ** 16, (2, 50))
        ev["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), 50)
        # what np.concatenate of EVENT_DTYPE arrays gives on numpy 2.x
        packed = ev.astype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
        assert packed.dtype.itemsize == 13
        out = events_array(packed)
        assert out.dtype == EVENT_DTYPE
        for name in ("t", "x", "y", "p"):
            assert np.array_equal(out[name], ev[name])
        assert out.tobytes() == ev.tobytes()  # pad bytes are zero

    def test_sequence_matches_row_by_row_fill(self):
        seq = [(0, 1, 2, 1), (5, 0, 0, -1), (2 ** 64 - 1, 65535, 65535, -1)]
        want = np.zeros(len(seq), dtype=EVENT_DTYPE)
        for i, row in enumerate(seq):
            want[i] = row
        for given in (seq, [list(r) for r in seq], iter(seq)):
            out = events_array(given)
            assert out.dtype == EVENT_DTYPE and out.tobytes() == want.tobytes()
        assert events_array([]).dtype == EVENT_DTYPE and len(events_array([])) == 0

    def test_event_dtype_array_returned_as_is(self):
        ev = np.zeros(3, dtype=EVENT_DTYPE)
        assert events_array(ev) is ev

    def test_emulator_config_validation(self):
        with pytest.raises(ValueError):
            EmulatorConfig(threshold=0.0)
        with pytest.raises(ValueError):
            EmulatorConfig(noise_prob=1.5)
