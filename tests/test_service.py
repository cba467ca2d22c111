"""Window bucketing and the TCP action service."""

import json
import re
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from evrl import service as service_mod
from evrl.events import accumulate_events, events_array
from evrl.eventio import FormatError, save_checkpoint
from evrl.qnet import NetworkConfig, copy_params, forward, init_params
from evrl.service import ActionService, WindowBucketer, infer_action, offline_actions

NET = NetworkConfig(height=24, width=32, action_count=2)
DT = 10_000  # us


def one(t, x, y, p):
    """A one-event batch."""
    return events_array([(t, x, y, p)])


def rows(events):
    """A window's events as plain (t, x, y, p) tuples."""
    return [tuple(int(v) for v in e) for e in events]


def pending_rows(b):
    return [r for chunk in b.pending for r in rows(chunk)]


class TestWindowBucketer:
    def test_first_event_anchors_t0(self):
        b = WindowBucketer(DT)
        assert b.window_start is None
        assert b.add(one(500, 1, 2, 1)) == ([], 0)
        assert b.t0 == 500
        assert b.window_start == 500
        assert b.bounds(b.step) == (500, 10_500)

    def test_event_at_window_end_closes_it(self):
        b = WindowBucketer(DT)
        b.add(one(500, 1, 2, 1))
        closed, late = b.add(one(10_500, 3, 4, -1))
        assert [(step, rows(ev)) for step, ev in closed] == [(1, [(500, 1, 2, 1)])]
        assert late == 0
        assert pending_rows(b) == [(10_500, 3, 4, -1)]
        assert b.step == 2

    def test_event_inside_window_stays_pending(self):
        b = WindowBucketer(DT)
        b.add(one(500, 1, 2, 1))
        assert b.add(one(10_499, 3, 4, 1)) == ([], 0)
        assert len(pending_rows(b)) == 2

    def test_gap_closes_empty_windows_without_listing_them(self):
        b = WindowBucketer(DT)
        b.add(one(0, 1, 1, 1))
        closed, late = b.add(one(35_000, 2, 2, -1))
        assert [(step, rows(ev)) for step, ev in closed] == [(1, [(0, 1, 1, 1)])]
        assert late == 0
        assert b.step == 4  # steps 2 and 3 closed empty
        assert pending_rows(b) == [(35_000, 2, 2, -1)]

    def test_gap_costs_nothing_per_window(self):
        """A gap closes all its windows in one add, with no entry or
        allocation for any of them: 10**6 windows stay under 64 KiB of
        peak memory, and then 2**40 windows at dt_us=1 close at once."""
        b = WindowBucketer(1)
        b.add(one(0, 1, 1, 1))
        tracemalloc.start()
        try:
            closed, late = b.add(one(10 ** 6, 2, 2, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert [step for step, _ in closed] == [1] and late == 0
        assert b.step == 10 ** 6 + 1
        closed, late = b.add(one(2 ** 40, 3, 3, 1))
        assert [step for step, _ in closed] == [10 ** 6 + 1] and late == 0
        assert b.step == 2 ** 40 + 1 and b.window_start == 2 ** 40

    def test_late_event_is_counted_and_preserves_state(self):
        b = WindowBucketer(DT)
        b.add(one(500, 1, 2, 1))
        b.add(one(10_500, 3, 4, 1))
        assert b.add(one(9_000, 0, 0, 1)) == ([], 1)
        assert b.step == 2
        assert pending_rows(b) == [(10_500, 3, 4, 1)]

    def test_flush_semantics(self):
        b = WindowBucketer(DT)
        assert b.flush() is None  # nothing ever arrived
        b.add(one(500, 1, 2, 1))
        step, events = b.flush()
        assert step == 1 and rows(events) == [(500, 1, 2, 1)]
        step, events = b.flush()
        assert step == 2 and rows(events) == []  # an empty open window still closes

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            WindowBucketer(0)
        with pytest.raises(ValueError):
            WindowBucketer(2 ** 64)  # window indices are computed in uint64

    def test_late_head_dropped_and_rest_served(self):
        b = WindowBucketer(DT)
        b.add(one(500, 1, 2, 1))
        b.add(one(10_500, 3, 4, 1))
        batch = events_array([(100, 0, 0, 1), (9_000, 0, 0, -1), (10_600, 5, 5, 1),
                              (20_500, 6, 6, -1)])
        closed, late = b.add(batch)
        # the two late events are gone; the rest closed window 2
        assert late == 2
        assert [(s, rows(ev)) for s, ev in closed] == [
            (2, [(10_500, 3, 4, 1), (10_600, 5, 5, 1)])]
        step, events = b.flush()
        assert step == 3 and rows(events) == [(20_500, 6, 6, -1)]

    def test_late_head_with_closed_windows(self):
        b = WindowBucketer(DT)
        b.add(one(500, 1, 2, 1))
        b.add(one(10_500, 3, 4, 1))
        closed, late = b.add(events_array([(9_000, 0, 0, 1), (40_500, 5, 5, 1)]))
        assert late == 1
        assert [(s, rows(ev)) for s, ev in closed] == [(2, [(10_500, 3, 4, 1)])]
        assert b.step == 5  # steps 3 and 4 closed empty
        assert pending_rows(b) == [(40_500, 5, 5, 1)]

    def test_unsorted_batch_is_not_a_late_error(self):
        b = WindowBucketer(DT)
        with pytest.raises(ValueError, match="sorted"):
            b.add(events_array([(900, 1, 1, 1), (100, 2, 2, 1)]))
        assert b.t0 is None and b.step == 1

    def test_batch_cut_matches_per_event_windows(self):
        b = WindowBucketer(DT)
        batch = events_array([(0, 0, 0, 1), (0, 1, 0, 1), (9_999, 2, 0, 1),
                              (10_000, 3, 0, 1), (30_000, 4, 0, -1), (39_999, 5, 0, 1)])
        closed, late = b.add(batch)
        assert [(s, rows(ev)) for s, ev in closed] == [
            (1, [(0, 0, 0, 1), (0, 1, 0, 1), (9_999, 2, 0, 1)]),
            (2, [(10_000, 3, 0, 1)]),
        ]
        assert late == 0
        assert pending_rows(b) == [(30_000, 4, 0, -1), (39_999, 5, 0, 1)]
        assert b.step == 4  # step 3 closed empty

    def test_windows_near_the_top_of_uint64(self):
        top = 2 ** 64 - 1
        b = WindowBucketer(DT)
        closed, late = b.add(events_array([(top - 24_999, 1, 1, 1), (top, 2, 2, -1)]))
        assert [step for step, _ in closed] == [1] and late == 0
        assert b.step == 3  # step 2 closed empty
        assert pending_rows(b) == [(top, 2, 2, -1)]
        step, events = b.flush()
        assert step == 3 and rows(events) == [(top, 2, 2, -1)]
        assert b.window_start > top  # bounds are Python ints: no wrap
        assert b.add(one(top, 0, 0, 1)) == ([], 1)
        assert b.step == 4 and b.pending == []


class TestInference:
    def test_infer_action_matches_direct_pipeline(self, rng):
        params = init_params(NET, rng)
        ev = events_array([(100, 5, 6, 1), (200, 5, 6, -1), (900, 10, 11, 1)])
        action, latency = infer_action(params, list(zip(ev["t"], ev["x"], ev["y"], ev["p"])), 0, DT)
        frame = accumulate_events(ev, 0, DT, NET.width, NET.height)
        q = forward(params, frame, mode="eval")
        assert action == int(np.argmax(q[0]))
        assert latency >= 0

    def test_offline_actions_empty(self, rng):
        params = init_params(NET, rng)
        assert offline_actions([], DT, params) == []

    def test_offline_actions_counts_windows(self, rng):
        params = init_params(NET, rng)
        ev = events_array([(0, 1, 1, 1), (25_000, 2, 2, 1)])
        # windows [0,10k) [10k,20k) closed by the second event, plus the
        # trailing partial [20k,30k) that a final flush would close
        assert len(offline_actions(ev, DT, params)) == 3


def random_stream(rng, count=250, t_max=48_000):
    ev = np.zeros(count, dtype=events_array([]).dtype)
    ev["t"] = np.sort(rng.integers(0, t_max, size=count).astype(np.uint64))
    ev["x"] = rng.integers(0, NET.width, size=count)
    ev["y"] = rng.integers(0, NET.height, size=count)
    ev["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), size=count)
    return ev


class Client:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def recv(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def hello(self, width=NET.width, height=NET.height, dt_us=DT):
        self.send({"type": "hello", "width": width, "height": height,
                   "dt_us": dt_us})
        return self.recv()

    def close(self):
        self.reader.close()
        self.sock.close()


def replay(address, ev, count, spell=json.dumps):
    """The first `count` actions a fresh session sends back for a stream,
    sent as one events message that `spell` turns into JSON text."""
    c = Client(address)
    try:
        assert c.hello()["type"] == "ready"
        c.send_raw((spell({"type": "events", "events": [
            [int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])] for e in ev]}) + "\n").encode())
        c.send({"type": "flush"})
        got = []
        while len(got) < count:
            msg = c.recv()
            assert msg is not None and msg["type"] == "action"
            got.append(msg["action"])
        return got
    finally:
        c.close()


@pytest.fixture
def service():
    params = init_params(NET, np.random.default_rng(3))
    svc = ActionService(params, "127.0.0.1", 0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc, params
    svc.shutdown()
    thread.join(timeout=5)


class TestActionService:
    def test_hello_ready(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            reply = c.hello()
            assert reply == {"type": "ready", "action_count": 2}
        finally:
            c.close()

    def test_hello_dimension_mismatch_errors(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            reply = c.hello(width=240, height=180)
            assert reply["type"] == "error"
            assert c.recv() is None  # server closed the connection
        finally:
            c.close()

    def test_window_closure_and_flush(self, service):
        svc, params = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[500, 1, 2, 1]]})
            c.send({"type": "events", "events": [[10_500, 3, 4, -1]]})
            first = c.recv()
            assert first["type"] == "action" and first["step"] == 1
            assert first["latency_us"] >= 0
            c.send({"type": "flush"})
            second = c.recv()
            assert second["type"] == "action" and second["step"] == 2
            # independent check of the emitted actions
            want = offline_actions(events_array(
                [(500, 1, 2, 1), (10_500, 3, 4, -1)]), DT, params)
            assert [first["action"], second["action"]] == want
        finally:
            c.close()

    def test_flush_before_any_event_is_silent(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "flush"})
            c.send({"type": "flush"})
            c.send({"type": "events", "events": [[0, 1, 1, 1], [10_000, 2, 2, 1]]})
            msg = c.recv()  # nothing arrived for the flushes
            assert msg["type"] == "action" and msg["step"] == 1
        finally:
            c.close()

    def test_late_event_error_keeps_session(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[500, 1, 2, 1]]})
            c.send({"type": "events", "events": [[20_500, 3, 4, 1]]})
            assert c.recv()["step"] == 1
            assert c.recv()["step"] == 2  # empty window skipped over
            c.send({"type": "events", "events": [[3_000, 0, 0, 1]]})
            err = c.recv()
            assert err["type"] == "error"
            c.send({"type": "flush"})
            msg = c.recv()
            assert msg["type"] == "action" and msg["step"] == 3
        finally:
            c.close()

    def test_malformed_line_errors_and_closes(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send_raw(b"this is not json\n")
            err = c.recv()
            assert err["type"] == "error"
            assert c.recv() is None
        finally:
            c.close()

    def test_events_before_hello_rejected(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            c.send({"type": "events", "events": [[0, 1, 1, 1]]})
            assert c.recv()["type"] == "error"
            assert c.recv() is None
        finally:
            c.close()

    def test_repeated_hello_errors_and_closes(self, service):
        """A second hello must not drop the open window's events and
        restart the steps: it draws an error, then a close."""
        svc, params = service
        ev = [[0, 1, 1, 1], [10_000, 2, 2, 1], [15_000, 3, 3, 1]]
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": ev})
            assert c.recv()["step"] == 1
            assert c.hello() == {"type": "error", "message":
                                 "malformed message: hello repeated within a session"}
            assert c.recv() is None
        finally:
            c.close()
        want = offline_actions(events_array(ev), DT, params)
        assert replay(svc.address, events_array(ev), len(want)) == want

    def test_unsorted_batch_rejected(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[900, 1, 1, 1], [100, 2, 2, 1]]})
            assert c.recv()["type"] == "error"
            assert c.recv() is None
        finally:
            c.close()

    def test_bad_polarity_rejected(self, service):
        svc, _ = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[900, 1, 1, 0]]})
            assert c.recv()["type"] == "error"
            assert c.recv() is None
        finally:
            c.close()

    def test_online_matches_offline_pipeline(self, service, rng):
        svc, params = service
        for trial in range(3):
            ev = random_stream(rng)
            want = offline_actions(ev, DT, params)
            c = Client(svc.address)
            try:
                assert c.hello()["type"] == "ready"
                rows = [[int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])]
                        for e in ev]
                i = 0
                while i < len(rows):
                    n = int(rng.integers(1, 50))
                    c.send({"type": "events", "events": rows[i:i + n]})
                    i += n
                c.send({"type": "flush"})
                got = []
                while len(got) < len(want):
                    msg = c.recv()
                    assert msg["type"] == "action"
                    assert msg["step"] == len(got) + 1
                    got.append(msg["action"])
            finally:
                c.close()
            assert got == want, f"trial {trial}"

    def test_two_sequential_sessions_agree(self, service, rng):
        svc, params = service
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        rows = [[int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])] for e in ev]
        results = []
        for _ in range(2):
            c = Client(svc.address)
            try:
                assert c.hello()["type"] == "ready"
                c.send({"type": "events", "events": rows})
                c.send({"type": "flush"})
                got = []
                while len(got) < len(want):
                    msg = c.recv()
                    assert msg["type"] == "action"
                    got.append(msg["action"])
            finally:
                c.close()
            results.append(got)
        assert results[0] == results[1] == want

    @pytest.mark.parametrize("bad", [
        [0, -1, 0, 1],            # negative column
        [0, NET.width, 0, 1],     # column past the hello width
        [0, 0, NET.height, 1],    # row past the hello height
        [-5, 0, 0, 1],            # negative timestamp
        [0.9, 1, 1, True],        # float time, boolean polarity
        [0, 1.0, 1, 1],           # integral float
        [0, 1, 1, False],         # boolean that == 0
        [0, 1, 1],                # too few fields
        [2 ** 64, 0, 0, 1],       # timestamp past uint64
        [0, 2 ** 70, 0, 1],       # column past every integer type
        [0, 1, 1, 2 ** 70],       # polarity past every integer type
    ])
    def test_bad_event_fields_rejected_and_server_survives(self, service, rng, bad):
        svc, params = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            # one write, so the flush is on its way before the server answers
            c.send_raw((json.dumps({"type": "events", "events": [bad]}) + "\n"
                        + json.dumps({"type": "flush"}) + "\n").encode())
            err = c.recv()
            assert err is not None and err["type"] == "error"
            assert "malformed message" in err["message"]
            assert c.recv() is None
        finally:
            c.close()
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want

    def test_failed_session_does_not_stop_the_listener(self, service, rng, monkeypatch):
        svc, params = service
        real = service_mod.accumulate_events
        calls = []

        def fail_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected fault")
            return real(*args)

        monkeypatch.setattr(service_mod, "accumulate_events", fail_once)
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[0, 1, 1, 1]]})
            c.send({"type": "flush"})
            assert c.recv() is None  # the session ended without a reply
        finally:
            c.close()
        monkeypatch.setattr(service_mod, "accumulate_events", real)
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_forward_draws_an_error(self, service, rng, monkeypatch):
        svc, params = service
        real = service_mod.qnet.forward

        def overflow(params, batch, mode="eval"):  # finite weights, huge values
            huge = copy_params(params)
            huge.fc1_b[...] = 1.0  # every fc1 unit active, so fc2 sums overflow
            huge.fc2_w[...] = 3e38
            return real(huge, batch, mode)

        monkeypatch.setattr(service_mod.qnet, "forward", overflow)
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[0, 1, 1, 1]]})
            c.send({"type": "flush"})
            reply = c.recv()
            assert reply["type"] == "error"
            assert "non-finite values in q_values" in reply["message"]
            assert c.recv() is None
        finally:
            c.close()
        monkeypatch.setattr(service_mod.qnet, "forward", real)
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want

    def test_unusable_checkpoint_fails_before_listening(self, tmp_path, monkeypatch):
        params = init_params(NET, np.random.default_rng(4))
        params.fc1_w[0, 0] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, params)
        started = []

        class NoListener:
            def __init__(self, *args, **kwargs):
                started.append(args)

            def serve_forever(self):
                pass

            def shutdown(self):
                pass

        monkeypatch.setattr(service_mod, "ActionService", NoListener)
        with pytest.raises(FormatError, match="non-finite"):
            service_mod.serve("127.0.0.1", 0, path)
        assert started == []


class ReferenceBucketer:
    """The per-event window loop that WindowBucketer.add replaced."""

    def __init__(self, dt_us):
        self.dt, self.t0, self.step, self.pending = dt_us, None, 1, []

    @property
    def window_start(self):
        return self.t0 + (self.step - 1) * self.dt

    def add(self, t, x, y, p):
        if self.t0 is None:
            self.t0 = t
        if t < self.window_start:
            raise ValueError("late")
        closed = []
        while t >= self.window_start + self.dt:
            closed.append((self.step, self.pending))
            self.pending, self.step = [], self.step + 1
        self.pending.append((t, x, y, p))
        return closed

    def flush(self):
        out = (self.step, self.pending)
        self.pending, self.step = [], self.step + 1
        return out


def reference_action(params, bucketer, step, events):
    start = bucketer.t0 + (step - 1) * bucketer.dt
    frame = accumulate_events(events_array(events), start, start + bucketer.dt,
                              NET.width, NET.height)
    return int(np.argmax(forward(params, frame, mode="eval")[0]))


def edge_stream(rng, windows=24):
    """Sorted rows anchored at t0: duplicate timestamps, events on window
    edges (offset 0 and dt - 1), and runs of empty windows."""
    t0 = int(rng.integers(0, 3 * DT))
    counts = rng.integers(1, 9, windows)
    counts[1:][rng.random(windows - 1) < 0.3] = 0  # gaps
    offsets = np.array([0, 0, 1, DT // 2, DT - 1, DT - 1])
    t = np.concatenate([k * DT + rng.choice(offsets, n) for k, n in enumerate(counts)])
    t = np.sort(t) + t0
    t[0] = t0
    n = len(t)
    return [[int(t[i]), int(rng.integers(0, NET.width)), int(rng.integers(0, NET.height)),
             int(rng.choice([-1, 1]))] for i in range(n)]


class TestSharedPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_served_equals_offline_equals_per_event_reference(self, service, seed):
        svc, params = service
        rng = np.random.default_rng(1000 + seed)
        stream = edge_stream(rng)
        want = offline_actions(events_array([tuple(r) for r in stream]), DT, params)

        # messages cut at random points; some get a late head
        ref = ReferenceBucketer(DT)
        ref_actions, messages, late_heads = [], [], 0
        cuts = np.sort(rng.choice(np.arange(1, len(stream)), size=8, replace=False))
        for part in np.split(np.arange(len(stream)), cuts):
            body = [stream[i] for i in part]
            if ref.t0 is not None and ref.window_start > 0 and rng.random() < 0.5:
                late = np.sort(rng.integers(0, ref.window_start, int(rng.integers(1, 4))))
                body = [[int(t), 0, 0, 1] for t in late] + body
                late_heads += 1
            messages.append(body)
            for t, x, y, p in body:
                try:
                    for step, events in ref.add(t, x, y, p):
                        ref_actions.append(reference_action(params, ref, step, events))
                except ValueError:  # late: dropped
                    pass
        ref_actions.append(reference_action(params, ref, *ref.flush()))
        assert ref_actions == want

        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            for body in messages:
                c.send({"type": "events", "events": body})
            c.send({"type": "flush"})
            got, errors = [], 0
            while len(got) < len(want):
                msg = c.recv()
                if msg["type"] == "error":
                    assert "precede the open window" in msg["message"]
                    errors += 1
                    continue
                assert msg["type"] == "action" and msg["step"] == len(got) + 1
                got.append(msg["action"])
        finally:
            c.close()
        assert got == want
        assert errors == late_heads  # one error per message with a late head


class TestServiceInput:
    @pytest.mark.parametrize("hello", [
        {"width": 32.9, "height": 24.2, "dt_us": 10000.7},
        {"width": NET.width, "height": NET.height, "dt_us": 10000.0},
        {"width": NET.width, "height": NET.height, "dt_us": True},
        {"width": 32.0, "height": NET.height, "dt_us": DT},
        {"width": NET.width, "height": NET.height, "dt_us": 2 ** 70},
        {"width": NET.width, "height": NET.height, "dt_us": 0},
    ])
    def test_bad_hello_rejected(self, service, hello):
        svc, _ = service
        c = Client(svc.address)
        try:
            c.send({"type": "hello", **hello})
            reply = c.recv()
            assert reply["type"] == "error" and "malformed message" in reply["message"]
            assert c.recv() is None
        finally:
            c.close()

    def test_last_representable_timestamp_accepted(self, service):
        svc, params = service
        top = 2 ** 64 - 1
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[top - 1, 1, 1, -1], [top, 2, 3, 1]]})
            c.send({"type": "flush"})
            msg = c.recv()
            assert msg["type"] == "action" and msg["step"] == 1
        finally:
            c.close()
        want = offline_actions(events_array([(top - 1, 1, 1, -1), (top, 2, 3, 1)]), DT, params)
        assert [msg["action"]] == want

    def test_late_head_draws_one_error_after_the_actions(self, service):
        svc, params = service
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[500, 1, 2, 1], [10_600, 2, 2, 1]]})
            assert c.recv()["step"] == 1
            c.send({"type": "events", "events": [[100, 0, 0, 1], [600, 0, 0, 1],
                                                 [9_000, 0, 0, 1], [20_500, 3, 3, -1]]})
            msg = c.recv()
            assert msg["type"] == "action" and msg["step"] == 2
            err = c.recv()
            assert err["type"] == "error" and err["message"].startswith("3 event(s)")
            c.send({"type": "flush"})
            last = c.recv()
            assert last["type"] == "action" and last["step"] == 3
        finally:
            c.close()
        want = offline_actions(events_array([(500, 1, 2, 1), (10_600, 2, 2, 1),
                                             (20_500, 3, 3, -1)]), DT, params)
        assert [msg["action"], last["action"]] == want[1:]

    def test_replies_to_one_message_are_not_held_back(self, service):
        """A message that closes six windows gets all six actions at once,
        not the later five behind the client's delayed ACK."""
        svc, _ = service
        c = Client(svc.address)
        took = []
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[0, 1, 1, 1]]})
            for k in range(1, 6):
                begin = time.perf_counter()
                c.send({"type": "events", "events": [[6 * k * DT, 1, 1, 1]]})
                steps = [c.recv()["step"] for _ in range(6)]
                took.append(time.perf_counter() - begin)
                assert steps == list(range(6 * k - 5, 6 * k + 1))
        finally:
            c.close()
        assert sorted(took)[2] < 0.020, took

    def test_line_length_is_bounded(self, service, rng):
        """A line of the limit is served; one byte more draws an error and a
        close, where a read would otherwise wait for a newline forever."""
        svc, params = service
        limit = service_mod._MAX_LINE
        assert limit >= 16 * 2 ** 20
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            head = b'{"type":"events","events":[[0,1,1,1],[%d,1,1,1]]}' % DT
            c.send_raw(head + b" " * (limit - len(head) - 1) + b"\n")
            assert c.recv()["step"] == 1
            c.send_raw(b" " * (limit + 1))
            err = c.recv()
            assert err == {"type": "error",
                           "message": f"malformed message: line longer than {limit} bytes"}
            assert c.recv() is None
        finally:
            c.close()
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want


def compact(msg):
    return json.dumps(msg, separators=(",", ":"))


def keys_swapped(msg):
    return json.dumps({"events": msg["events"], "note": None, "type": msg["type"]})


def spaced(msg):
    return json.dumps(msg, separators=(" , ", " : "))


@pytest.mark.parametrize("spell, fast", [(json.dumps, True), (compact, True),
                                         (keys_swapped, False), (spaced, False)])
def test_every_spelling_serves_the_same_actions(service, rng, spell, fast):
    """Lines in the compact or json.dumps default form are decoded without
    json.loads; every other spelling goes through it. Both serve alike."""
    svc, params = service
    ev = random_stream(rng)
    line = spell({"type": "events", "events": [[int(v) for v in e] for e in ev]}).encode()
    assert (service_mod._decode_events_line(line, NET.width, NET.height) is not None) == fast
    want = offline_actions(ev, DT, params)
    assert replay(svc.address, ev, len(want), spell) == want


# Tokens the decoder differential test splices into valid events lines.
SPLICE = [b"0", b"00", b"01", b"-0", b"-", b"+1", b"1.0", b".5", b"1e2", b"1E+2",
          b"true", b"false", b"null", b" ", b"  ", b"\t", b"\r\n", b"\n", b"[", b"]",
          b",", b",]", b"}", b'"', b"-1", b"2", b"%d" % NET.width, b"%d" % NET.height,
          b"9" * 18, b"1" + b"0" * 18, b"%d" % (2 ** 63 - 1), b"%d" % 2 ** 63,
          b"9" * 19, b"%d" % (2 ** 64 - 1), b"9" * 20]


def decoded_or_none(raw):
    """_decode_events_line on one line, checked against the generic path:
    a decoded array must be the one json.loads + _parse_events give."""
    got = service_mod._decode_events_line(raw, NET.width, NET.height)
    if got is not None:
        try:
            msg = json.loads(raw.decode())
            want = service_mod._parse_events(msg["events"], NET.width, NET.height)
            kind = msg["type"]
        except (ValueError, KeyError, TypeError) as exc:
            pytest.fail(f"decoded a line the generic path refuses ({exc}): {raw!r}")
        assert kind == "events", raw
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), raw
    return got


# Other envelopes for an events list: json.loads takes them all, the
# decoder only the last two (JSON whitespace between tokens).
ENVELOPES = [b'{"events":%s,"type":"events"}\n', b'{"type":"events","events":%s,"k":1}\n',
             b'{"k":[1],"type":"events","events":%s}\n', b'{"type":"events","events":%s}\r\n',
             b' \t{ "type" :"events" ,\r\n"events"\t: %s }  \n']


def mutate(raw, rng):
    """One seeded edit of an events line, at the byte, number, row or
    envelope level."""
    op = int(rng.integers(5))
    if op == 4:  # the same events in another envelope, if the line still parses
        try:
            return ENVELOPES[int(rng.integers(len(ENVELOPES)))] % json.dumps(
                json.loads(raw.decode())["events"]).encode()
        except (ValueError, KeyError, TypeError):
            op = 0
    spans = [m.span() for m in re.finditer(rb"-?[0-9]+" if op == 2 else rb"\[[^][]*\]", raw)]
    if op == 2 and spans:  # replace one number
        lo, hi = spans[int(rng.integers(len(spans)))]
        return raw[:lo] + SPLICE[int(rng.integers(len(SPLICE)))] + raw[hi:]
    if op == 3 and spans:  # a row of 3 or 5 fields
        lo, hi = spans[int(rng.integers(len(spans)))]
        row = raw[lo:hi - 1]
        row = row[:row.rindex(b",")] if rng.random() < 0.5 and b"," in row else row + b",1"
        return raw[:lo] + row + raw[hi - 1:]
    if op == 1:  # drop one byte
        at = int(rng.integers(len(raw)))
        return raw[:at] + raw[at + 1:]
    at = int(rng.integers(len(raw) + 1))  # splice a token in anywhere
    return raw[:at] + SPLICE[int(rng.integers(len(SPLICE)))] + raw[at:]


def test_decoder_agrees_with_the_generic_path():
    """Seeded differential test of _decode_events_line against json.loads +
    _parse_events: valid lines in both fast forms, and up to three edits
    of them (leading zeros, -0, floats, exponents, booleans, whitespace,
    brackets, trailing commas, short and long rows, other key orders, extra
    keys, CRLF, 18- to 20-digit fields, t at 2**63 and 2**64 - 1)."""
    for spell in (compact, json.dumps):  # every token at every byte and as every field
        raw = (spell({"type": "events", "events": [[15, 1, 12, 1], [27, 3, 4, -1]]})
               + "\n").encode()
        assert decoded_or_none(raw) is not None
        for at in range(len(raw)):
            decoded_or_none(raw[:at] + raw[at + 1:])
        for token in SPLICE:
            for at in range(len(raw) + 1):
                decoded_or_none(raw[:at] + token + raw[at:])
            for m in re.finditer(rb"-?[0-9]+", raw):
                decoded_or_none(raw[:m.start()] + token + raw[m.end():])
    rng = np.random.default_rng(1408)
    edited_fast = 0
    for case in range(4000):
        n = int(rng.integers(0, 6))
        t = np.sort(rng.integers(0, 10 ** int(rng.integers(1, 19)), n))
        rows = [[int(v) for v in row] for row in zip(
            t, rng.integers(0, NET.width, n), rng.integers(0, NET.height, n),
            rng.choice([-1, 1], n))]
        raw = ((compact if case % 2 else json.dumps)(
            {"type": "events", "events": rows}) + "\n").encode()
        assert decoded_or_none(raw) is not None, raw  # both valid forms go fast
        for _ in range(int(rng.integers(1, 4))):
            raw = mutate(raw, rng)
        edited_fast += decoded_or_none(raw) is not None
    assert 0 < edited_fast < 4000


def count_forwards(monkeypatch):
    """A list that gains one entry per qnet.forward call from here on."""
    calls = []
    real = service_mod.qnet.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(service_mod.qnet, "forward", counted)
    return calls


class TestEmptyWindows:
    """A run of empty windows costs one forward pass, not one per window,
    and a message may close at most _MAX_WINDOWS windows."""

    GAP = 20_000
    STREAM = [[0, 1, 1, 1], [GAP * DT, 2, 2, -1]]

    def test_gap_in_one_message_shares_one_forward_pass(self, service, monkeypatch):
        svc, params = service
        want = offline_actions(events_array([tuple(r) for r in self.STREAM]), DT, params)
        assert len(want) == self.GAP + 1
        calls = count_forwards(monkeypatch)
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": self.STREAM})
            replies = [c.recv() for _ in range(self.GAP)]
            forwards = len(calls)
            c.send({"type": "flush"})
            replies.append(c.recv())
        finally:
            c.close()
        assert forwards <= 2  # window 1, then one for all the empty ones
        assert [r["step"] for r in replies] == list(range(1, self.GAP + 2))
        assert [r["action"] for r in replies] == want
        assert {r["latency_us"] for r in replies[2:-1]} == {0}

    def test_offline_gap_costs_three_forward_passes(self, monkeypatch):
        params = init_params(NET, np.random.default_rng(5))
        params.fc2_b[1] += 0.5  # not every frame gets the same action
        calls = count_forwards(monkeypatch)
        actions = offline_actions(events_array([tuple(r) for r in self.STREAM]), DT, params)
        assert len(calls) <= 3
        assert len(actions) == self.GAP + 1
        ev = events_array([tuple(r) for r in self.STREAM])
        direct = [int(np.argmax(forward(params, accumulate_events(
            ev, k * DT, (k + 1) * DT, NET.width, NET.height), mode="eval")[0]))
            for k in (0, 1, self.GAP)]  # the first, an empty and the last window
        assert actions[0] == direct[0] and actions[-1] == direct[2]
        assert actions[1:-1] == [direct[1]] * (self.GAP - 1)

    def test_message_over_the_window_cap_is_refused(self, service, rng):
        svc, params = service
        cap = service_mod._MAX_WINDOWS
        assert cap == 2 ** 16
        c = Client(svc.address)
        try:
            assert c.hello()["type"] == "ready"
            c.send({"type": "events", "events": [[0, 1, 1, 1], [cap * DT, 2, 2, 1]]})
            lines = [c.reader.readline() for _ in range(cap)]  # exactly the cap: served
            assert json.loads(lines[-1])["step"] == cap and b'"error"' not in b"".join(lines)
            c.send({"type": "events", "events": [[(2 * cap + 1) * DT, 2, 2, 1]]})
            assert c.recv() == {"type": "error", "message": "malformed message: message "
                                f"closes {cap + 1} windows, more than {cap}"}
            assert c.recv() is None
        finally:
            c.close()
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want


class TestSessionLimits:
    def test_idle_client_does_not_hold_the_listener(self, service, rng, monkeypatch):
        svc, params = service
        monkeypatch.setattr(service_mod, "_IDLE_TIMEOUT_S", 0.2)
        idle = Client(svc.address)
        try:
            ev = random_stream(rng)
            want = offline_actions(ev, DT, params)
            assert replay(svc.address, ev, len(want)) == want
            assert idle.recv() is None  # closed without a reply
        finally:
            idle.close()

    def test_client_that_stops_reading_does_not_hold_the_listener(self, service, rng,
                                                                  monkeypatch):
        """The replies to one message fill every socket buffer; the send
        that then waits past the timeout ends the session."""
        svc, params = service
        monkeypatch.setattr(service_mod, "_IDLE_TIMEOUT_S", 0.2)
        stuck = socket.socket()
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            stuck.connect(svc.address)
            cap = service_mod._MAX_WINDOWS
            stuck.sendall(b'{"type":"hello","width":%d,"height":%d}\n' % (NET.width, NET.height)
                          + b'{"type":"events","events":[[0,1,1,1],[%d,1,1,1]]}\n' % (cap * DT)
                          + b'{"type":"events","events":[[%d,1,1,1]]}\n' % (2 * cap * DT))
            ev = random_stream(rng)
            want = offline_actions(ev, DT, params)
            assert replay(svc.address, ev, len(want)) == want
        finally:
            stuck.close()


class SessionModel:
    """The window state a session's replies follow: t0, the open step and
    the events kept so far."""

    def __init__(self):
        self.t0, self.step, self.kept = None, 1, []

    @property
    def start(self):
        return None if self.t0 is None else self.t0 + (self.step - 1) * DT

    def add(self, rows):
        """(windows closed, late events) for one sorted events message."""
        if not rows:
            return 0, 0
        if self.t0 is None:
            self.t0 = rows[0][0]
        late = sum(r[0] < self.start for r in rows)
        rest, before = rows[late:], self.step
        if rest:
            self.step = max(self.step, (rest[-1][0] - self.t0) // DT + 1)
        self.kept += rest
        return self.step - before, late

    def flush(self):
        if self.t0 is None:
            return 0
        self.step += 1
        return 1


def fuzz_rows(rng, model, base, n=None):
    """n sorted in-sensor rows from the open window onward (or from base),
    over up to three windows, with t below 2**64."""
    lo = base if model.start is None else model.start
    n = int(rng.integers(1, 30)) if n is None else n
    t = np.sort(lo + rng.integers(0, 3 * DT, n).astype(object))
    return [[min(int(v), 2 ** 64 - 1), int(rng.integers(0, NET.width)),
             int(rng.integers(0, NET.height)), int(rng.choice([-1, 1]))] for v in t]


def events_line(rows, rng):
    msg = {"type": "events", "events": rows}
    return ((compact if rng.random() < 0.5 else json.dumps)(msg) + "\n").encode()


BAD_JSON = [b"not json\n", b"{\n", b'{"type":"events","events":[[1,2,3,4]]\n', b"\n",
            b'{"type":"events","events":[[1,2,3,4],]}\n', b"\xff\xfe\n",
            b'{"type":"flush"}}\n']
NOT_OBJECTS = [b"[]\n", b"1\n", b'"events"\n', b"null\n", b"true\n", b"[[0,1,1,1]]\n"]
BAD_TYPES = [b"{}\n", b'{"type":"stop"}\n', b'{"type":null}\n', b'{"type":"events"}\n',
             b'{"type":"events","events":{}}\n', b'{"type":"events","events":[[0,1,1]]}\n']
BAD_FIELDS = [1.5, 2.0, True, False, None, "1", 2 ** 64 + 7, 10 ** 19, -10 ** 19, -2]


def fatal_line(rng, model, base):
    """One line that must draw a single 'malformed message' error and a
    close, given the session's window state."""
    kind = int(rng.integers(7))
    if kind == 0:
        return BAD_JSON[int(rng.integers(len(BAD_JSON)))]
    if kind == 1:
        return NOT_OBJECTS[int(rng.integers(len(NOT_OBJECTS)))]
    if kind == 2:
        return BAD_TYPES[int(rng.integers(len(BAD_TYPES)))]
    rows = fuzz_rows(rng, model, base, int(rng.integers(2, 8)))
    if kind == 3:  # one field a float, boolean, string, too large or negative
        row = rows[int(rng.integers(len(rows)))]
        row[int(rng.integers(4))] = BAD_FIELDS[int(rng.integers(len(BAD_FIELDS)))]
    elif kind == 4:  # unsorted
        rows[0][0], rows[-1][0] = rows[-1][0] + 1, rows[0][0]
    elif kind == 5:  # a gap of one window over the cap
        t0, step = (rows[0][0], 1) if model.t0 is None else (model.t0, model.step)
        rows = rows[:1] + [[t0 + (step + service_mod._MAX_WINDOWS) * DT, 1, 1, 1]]
    else:  # a line over the length limit
        line = events_line(rows, rng)
        return line[:-1] + b" " * (service_mod._MAX_LINE + 1 - len(line)) + line[-1:]
    return events_line(rows, rng)


class TestSessionFuzz:
    """Seeded sessions of valid, late-head, at-the-cap, empty and flush
    lines, each ended by a flush or one hostile line: every line draws its
    documented replies, and a clean session afterwards matches
    offline_actions."""

    def test_hostile_sessions(self, service, monkeypatch):
        svc, params = service
        monkeypatch.setattr(service_mod, "_MAX_WINDOWS", 40)  # gaps at the cap stay cheap
        monkeypatch.setattr(service_mod, "_MAX_LINE", 4096)
        rng = np.random.default_rng(2024)
        zero = int(np.argmax(forward(params, np.zeros((NET.height, NET.width), np.int8),
                                     mode="eval")[0]))
        lines = sessions = 0
        while lines < 600:
            lines += self.session(svc.address, params, rng, zero)
            sessions += 1
        assert sessions >= 100
        monkeypatch.undo()  # the clean session sends one long line
        ev = random_stream(rng)
        want = offline_actions(ev, DT, params)
        assert replay(svc.address, ev, len(want)) == want

    def session(self, address, params, rng, zero):
        base = [0, int(rng.integers(1, 10 ** 9)), 10 ** 18 + int(rng.integers(10 ** 17)),
                2 ** 64 - 10 ** 7][int(rng.integers(4))]  # 19- and 20-digit times too
        model, got, sent = SessionModel(), [], 0
        c = Client(address)
        try:
            if rng.random() < 0.1:  # a line before hello
                c.send_raw([b'{"type":"flush"}\n', events_line(fuzz_rows(rng, model, base), rng),
                            b'{"type":"hello","width":32.0,"height":24,"dt_us":10000}\n',
                            b'{"type":"hello","width":32,"height":24,"dt_us":0}\n',
                            b'{"type":"hello","width":64,"height":48}\n'][int(rng.integers(5))])
                self.expect_close(c)
                return 1
            assert c.hello()["type"] == "ready"
            sent += 1
            for _ in range(int(rng.integers(0, 6))):
                op = rng.random()
                late_rows = []
                if op < 0.1:
                    c.send({"type": "flush"})
                    closed, late = model.flush(), 0
                else:
                    rows = [] if op < 0.15 else fuzz_rows(rng, model, base)
                    if op > 0.85 and model.t0 is not None:  # closes exactly the cap
                        rows = [[model.t0 + (model.step + service_mod._MAX_WINDOWS - 1) * DT,
                                 1, 2, 1]]
                    elif op > 0.5 and model.start is not None and model.start > base:
                        back = rng.integers(0, min(2 * DT, model.start - base),
                                            int(rng.integers(1, 4)))
                        late_rows = [[model.start - 1 - int(v), 0, 0, 1]
                                     for v in sorted(back, reverse=True)]
                    start = model.start
                    c.send_raw(events_line(late_rows + rows, rng))
                    closed, late = model.add(late_rows + rows)
                sent += 1
                for _ in range(closed):
                    msg = c.recv()
                    assert msg["type"] == "action" and msg["step"] == len(got) + 1, msg
                    got.append(msg["action"])
                if late:
                    assert c.recv() == {"type": "error", "message": (
                        f"{late} event(s) from t={late_rows[0][0]} precede the open window "
                        f"starting at {start}; dropped")}
            if rng.random() < 0.2:
                c.send({"type": "flush"})
                for _ in range(model.flush()):
                    got.append(c.recv()["action"])
            else:
                c.send_raw(fatal_line(rng, model, base))
                self.expect_close(c)
            sent += 1
        finally:
            c.close()
        kept = sorted(model.kept, key=lambda r: r[0])  # stable: ties keep their order
        want = offline_actions(events_array([tuple(r) for r in kept]), DT, params)
        assert got == (want + [zero] * len(got))[:len(got)]
        return sent

    @staticmethod
    def expect_close(c):
        err = c.recv()
        assert err["type"] == "error" and err["message"].startswith("malformed message"), err
        assert c.recv() is None
