"""serve-240x180: one closed-loop client replaying events to ActionService.

The service runs in its own process (serve_proc.py) with parameters
loaded from a checkpoint file. One session (round) replays a seeded
synthetic stream: one ``events`` message per non-empty window, each sent
only after every action it closes has come back, then a ``flush`` for
the last window. One operation is one served window; its time runs from
sending the message that closes it to reading its action. The stream
comes from the benchmark's own generator, not from the program's
renderer, so the input does not change when the renderer or the noise
RNG does.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from evrl import qnet
from evrl.eventio import save_checkpoint
from evrl.events import EVENT_DTYPE
from evrl.qnet import NetworkConfig
from evrl.service import offline_actions

import checks
import timing
from spans import SpanTable, overhead_pct

WIDTH, HEIGHT, ACTIONS = 240, 180, 3
DT_US = 10_000
T_BASE_US = 1_000_000
# Make-up of one session's stream; see README.md.
WINDOWS = 500
GAP_RUNS = (2, 3, 4, 5)          # runs of empty windows
BURSTS = 15                      # windows of 2000..6000 events
QUIET = 100                      # windows of 1..30 events
MEAN_EVENTS = 1000               # per window, over the whole stream
IO_TIMEOUT_S = 30.0
SERVER = Path(__file__).resolve().parent / "serve_proc.py"


def window_sizes(rng: np.random.Generator) -> np.ndarray:
    """Events per window: fixed make-up, seeded order and jitter."""
    gaps = sum(GAP_RUNS)
    normal = WINDOWS - gaps - BURSTS - QUIET
    bursts = np.linspace(2000, 6000, BURSTS) + rng.integers(-100, 101, BURSTS)
    quiet = rng.integers(1, 31, QUIET)
    normal_mean = (MEAN_EVENTS * WINDOWS - bursts.sum() - quiet.sum()) / normal
    normal_sizes = np.linspace(0.5, 1.5, normal) * normal_mean + rng.integers(-20, 21, normal)
    busy = rng.permutation(np.concatenate([bursts, quiet, normal_sizes]).astype(np.int64))
    # gap runs go between non-empty windows, never first or last
    cuts = np.sort(rng.choice(np.arange(1, len(busy)), size=len(GAP_RUNS), replace=False))
    parts = np.split(busy, cuts)
    runs = rng.permutation(GAP_RUNS)
    sizes = [parts[0]]
    for run_len, part in zip(runs, parts[1:]):
        sizes += [np.zeros(run_len, dtype=np.int64), part]
    return np.concatenate(sizes)


def make_stream(rng: np.random.Generator):
    """Sorted (t, x, y, p) arrays; every coordinate inside the sensor."""
    sizes = window_sizes(rng)
    total = int(sizes.sum())
    win = np.repeat(np.arange(len(sizes)), sizes)
    t = T_BASE_US + win * DT_US + rng.integers(0, DT_US, total)
    t = np.sort(t)
    # the first event opens window 0 at exactly T_BASE_US
    t[0] = T_BASE_US
    x = rng.integers(0, WIDTH, total)
    y = rng.integers(0, HEIGHT, total)
    p = np.where(rng.random(total) < 0.5, -1, 1)
    return t.astype(np.int64), x, y, p


def encode_messages(t, x, y, p):
    """One events line per non-empty window, and the window count each
    line closes (every window from the previous non-empty one onward)."""
    win = checks.window_index(t, DT_US)
    starts = np.flatnonzero(np.r_[True, win[1:] != win[:-1]])
    ends = np.r_[starts[1:], len(t)]
    rows = np.stack([t, x, y, p], axis=1).tolist()
    messages, closes = [], []
    prev = None
    for lo, hi in zip(starts, ends):
        body = ",".join("[%d,%d,%d,%d]" % tuple(r) for r in rows[lo:hi])
        messages.append(('{"type":"events","events":[%s]}\n' % body).encode())
        cur = int(win[lo])
        closes.append(0 if prev is None else cur - prev)
        prev = cur
    messages.append(b'{"type":"flush"}\n')
    closes.append(1)
    return messages, closes


class Server:
    """serve_proc.py as a child process, stopped and reaped on close()."""

    def __init__(self, checkpoint: Path, spans: Path = None):
        cmd = [sys.executable, str(SERVER), "--checkpoint", str(checkpoint)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        self.port = json.loads(self._readline())["port"]

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], IO_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"server process gave no reply (exit {self.proc.poll()})")
        return line

    def command(self, cmd: str):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        reply = self._readline().strip()
        if reply != "ok":
            raise RuntimeError(f"server answered {reply!r} to {cmd!r}")

    def close(self) -> dict:
        """Stop the server and reap it; returns its last status line."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=IO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.splitlines()
        return json.loads(lines[-1]) if lines else {}


def session(port, messages, closes, on_first_timed=None, skip=0):
    """One replay; returns (per-window ns, replies, first send, last read)."""
    lat, lines = [], []
    with socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        sock.sendall(json.dumps({"type": "hello", "width": WIDTH, "height": HEIGHT,
                                 "dt_us": DT_US}).encode() + b"\n")
        ready = json.loads(rfile.readline())
        checks.require(ready == {"type": "ready", "action_count": ACTIONS},
                       f"hello answered with {ready}")
        first = None
        for msg, n in zip(messages, closes):
            if first is None and len(lat) >= skip:
                if on_first_timed is not None:
                    on_first_timed()
                first = time.perf_counter_ns()
            t0 = time.perf_counter_ns()
            sock.sendall(msg)
            for _ in range(n):
                line = rfile.readline()
                lat.append(time.perf_counter_ns() - t0)
                if not line:
                    raise checks.CheckFailed(f"server closed the session after "
                                             f"{len(lines)} replies")
                lines.append(line)
        last = time.perf_counter_ns()
        rfile.close()
    return lat, [json.loads(line) for line in lines], first, last


def run(run):
    ss = np.random.SeedSequence(run.seed)
    net_ss, stream_ss = ss.spawn(2)
    params = qnet.init_params(NetworkConfig(HEIGHT, WIDTH, ACTIONS),
                              np.random.default_rng(net_ss))

    gen_t0 = time.perf_counter()
    t, x, y, p = make_stream(np.random.default_rng(stream_ss))
    messages, closes = encode_messages(t, x, y, p)
    checkpoint = run.out / f"serve-{run.seed}-{id(run)}.ckpt"
    save_checkpoint(checkpoint, params)
    spans_path = run.out / "trace-serve-240x180.npz" if run.trace else None
    run.clock.exclude(time.perf_counter() - gen_t0)
    n_windows = sum(closes)

    ops_ns, traced_ns = [], []
    untraced = []  # (window ns, replies) of untraced rounds, for the layer split
    sessions = []
    timed_wall = 0.0
    rounds = 0
    server = Server(checkpoint, spans_path)
    try:
        started = time.perf_counter()
        while run.more_rounds(started, rounds, len(ops_ns) + len(traced_ns)):
            traced = run.traced_round(rounds)
            if run.trace:
                server.command("trace on" if traced else "trace off")
            skip = timing.WARMUP_OPS if rounds == 0 else 0
            lat, replies, first, last = session(server.port, messages, closes,
                                                run.clock.first_operation, skip)
            run.attempted += len(lat)
            sessions.append(replies)
            timed_wall += (last - first) / 1e9
            (traced_ns if traced else ops_ns).extend(lat[skip:])
            if not traced:
                untraced.append((lat[skip:], replies[skip:]))
            rounds += 1
    finally:
        status = server.close()
        checkpoint.unlink(missing_ok=True)
    checks.require("peak_rss_kb" in status, f"server did not stop cleanly: {status}")
    rss_mb = status["peak_rss_kb"] / 1024.0

    # checks, outside the timed section
    expected = checks.reference_actions(t, x, y, p, DT_US, params, qnet.forward)
    checks.require(len(expected) == n_windows,
                   f"reference has {len(expected)} windows, stream has {n_windows}")
    for replies in sessions:
        checks.check_session(replies, expected)
    events = np.zeros(len(t), dtype=EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["p"] = t, x, y, p
    checks.require(offline_actions(events, DT_US, params) == expected,
                   "offline_actions disagrees with the reference")

    print(f"serve-240x180: {rounds} sessions of {n_windows} windows, "
          f"{len(t)} events each", file=sys.stderr)
    if not run.trace:
        return timing.end_to_end(run.clock.setup_s, ops_ns, timed_wall, rss_mb)
    table = SpanTable.load(spans_path)
    metrics = table.layer_metrics(rounds // 2)
    infer_ms = [r["latency_us"] / 1e3 for _, replies in untraced for r in replies]
    client_ms = [ns / 1e6 for lat, _ in untraced for ns in lat]
    metrics["service.infer_ms"] = {"value": timing.median(infer_ms), "unit": "ms"}
    metrics["service.ingest_ms"] = {
        "value": timing.median([c - i for c, i in zip(client_ms, infer_ms)]), "unit": "ms"}
    metrics["trace.overhead_pct"] = overhead_pct(traced_ns, ops_ns)
    print(table.format_summary(), file=sys.stderr)
    return metrics
