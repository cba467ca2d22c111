"""TCP action service: event batches in, one greedy action per window out.

Wire protocol: newline-delimited JSON objects over a plain TCP socket.

    client -> {"type": "hello", "width": W, "height": H, "dt_us": D}
              {"type": "events", "events": [[t, x, y, p], ...]}
              {"type": "flush"}
    server -> {"type": "ready", "action_count": A}
              {"type": "action", "step": n, "action": a, "latency_us": L}
              {"type": "error", "message": m}

The first event's timestamp anchors window 1; window n spans
[t0 + (n-1)*dt, t0 + n*dt). An event at or past the current window's end
closes it (and any skipped empty windows); a flush closes the current
window early. One action is emitted per closed window, computed by
accumulating the window's events into a frame and taking the argmax of
an eval-mode forward pass. The empty windows that one message closes share
one forward pass on the all-zero frame: the first reports its latency, the
others latency_us 0. Latency covers conversion plus inference on a
monotonic clock. Replies are sent with TCP_NODELAY, so every action of a
message that closes several windows leaves at once.

Each events message is parsed and checked as one array, and the same
WindowBucketer.add that offline_actions runs cuts it into windows. An
events line in the compact or the json.dumps default form, with fields of
at most 18 digits, is checked by regexes and decoded from its bytes by
one np.fromstring; every other line goes through json.loads, and both give
the same array and the same replies. Hello width, height and dt_us and
every event field must be JSON integers (not floats or booleans); events
must pass the record rules of events.event_faults and be non-decreasing
in t within a message. A malformed line, one longer than 16 MiB (newline
included), or a message that would close more than 2**16 windows draws an
error, before any action, and closes the connection. So does a second
hello in one session, which would otherwise drop the open window's
events and restart the steps. A message is sorted, so its events older
than the open window form its head: they are all dropped with one error
reply, the rest of the message is served, and the session stays up. A
forward pass that overflows (FloatingPointError) draws an error and
closes the connection. A session is closed, without a reply, when its
client sends nothing for 60 s or a reply cannot be sent within 60 s. A
session that fails in any other way is closed, and the server goes on
accepting connections. A default dt_us outside [1, 2**64) fails
before the listener binds.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import traceback
from contextlib import nullcontext
from itertools import chain
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from . import qnet
from .events import EVENT_DTYPE, accumulate_events, event_faults, events_array, pack_events
from .qnet import QNetworkParams


# Timestamps are stored as uint64 microseconds (EVENT_DTYPE).
_T_LIMIT = 2 ** 64
_NO_EVENTS = np.zeros(0, dtype=EVENT_DTYPE)
_NO_EVENTS.flags.writeable = False

Window = Tuple[int, np.ndarray]  # (step, that window's events)

# Longest accepted line, newline included. The largest message the
# benchmark sends is about 120 KB; a longer line draws an error reply and
# a close instead of a read that waits for a newline forever.
_MAX_LINE = 16 * 2 ** 20

# Most windows one message may close, each with its own reply. 2**16 replies
# took 0.8 s over loopback on 2 vCPUs; decoding a 16 MiB line takes 0.3 s.
_MAX_WINDOWS = 2 ** 16

# Seconds a session waits for its client's next bytes, or for a reply to
# drain, before it is closed; the listener serves one session at a time.
_IDLE_TIMEOUT_S = 60.0

# An events line in the compact or the json.dumps default form: the head
# up to the list's "[", rows [t,x,y,p] joined by "," or ", ", and the tail
# after its "]". Integers are JSON integers of at most 18 digits, so int64
# parsing cannot saturate; longer ones, and every other spelling of the
# message, go to json.loads. Every quantifier in _ROWS is possessive, so
# the engine keeps no backtracking state per row: one fullmatch checks a
# 16 MiB line in about 1 kB of memory (a greedy repeated group keeps about
# 1 kB per row, 6.6 MB for 6000 rows).
_WS = rb"[ \t\r\n]*"  # JSON whitespace
_EVENTS_HEAD = re.compile(_WS.join([b"", rb"\{", b'"type"', b":", b'"events"', b",",
                                    b'"events"', b":", rb"\["]))
_EVENTS_TAIL = re.compile(_WS + rb"\}" + _WS)
_INT = rb"-?+(?:0|[1-9][0-9]{0,17}+)"
_ROW = rb"\[%s, ?+%s, ?+%s, ?+%s\]" % (_INT, _INT, _INT, _INT)
_ROWS = re.compile(rb"%s(?:, ?+%s)*+" % (_ROW, _ROW))


class WindowBucketer:
    """Cuts a non-decreasing event stream into fixed-width windows."""

    def __init__(self, dt_us: int):
        if not 1 <= dt_us < _T_LIMIT:
            raise ValueError(f"dt_us must be in [1, 2**64), got {dt_us}")
        self.dt = int(dt_us)
        self.t0: Optional[int] = None
        self.step = 1
        self.pending: List[np.ndarray] = []  # chunks of the open window

    def bounds(self, step: int) -> Tuple[int, int]:
        """[start, end) of window `step`, as Python ints (they may pass 2**64)."""
        start = self.t0 + (step - 1) * self.dt
        return start, start + self.dt

    @property
    def window_start(self) -> Optional[int]:
        return None if self.t0 is None else self.bounds(self.step)[0]

    def add(self, events: np.ndarray) -> Tuple[List[Window], int]:
        """Add one EVENT_DTYPE batch sorted by t; returns (windows, late).

        Every step before self.step is closed afterwards. windows lists the
        non-empty windows the batch closed, in step order; a closed step
        missing from it was empty. late counts the events at the head of
        the batch that precede the open window; they are dropped.
        """
        t = events["t"]
        if (t[1:] < t[:-1]).any():
            raise ValueError("events must be sorted by t")
        if len(t) == 0:
            return [], 0
        if self.t0 is None:
            self.t0 = int(t[0])
        start = self.window_start
        late = len(t) if start >= _T_LIMIT else int(np.searchsorted(t, np.uint64(start)))
        rest = events[late:]
        closed: List[Window] = []
        if len(rest):
            # window indices from uint64 offsets: t0 + k*dt could wrap past 2**64
            win = (rest["t"] - np.uint64(self.t0)) // np.uint64(self.dt)
            cuts = [0, *(np.flatnonzero(win[1:] != win[:-1]) + 1).tolist(), len(rest)]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                step = int(win[lo]) + 1  # win is 0-based
                if step > self.step:  # close the open window and skip the empty ones
                    if self.pending:
                        closed.append(self.flush())
                    self.step = step
                self.pending.append(rest[lo:hi])
        return closed, late

    def flush(self) -> Optional[Window]:
        """Close the current window now; None if no event ever arrived."""
        if self.t0 is None:
            return None
        chunks = self.pending
        if len(chunks) == 1:
            window = chunks[0]
        else:
            window = np.concatenate(chunks, dtype=EVENT_DTYPE) if chunks else _NO_EVENTS
        out = (self.step, window)
        self.pending = []
        self.step += 1
        return out


def infer_action(params: QNetworkParams, events: np.ndarray, t_start: int,
                 t_end: int) -> Tuple[int, int]:
    """(action, latency_us) for one window's events."""
    cfg = params.cfg
    begin = time.perf_counter_ns()
    frame = accumulate_events(events, t_start, t_end, cfg.width, cfg.height)
    q = qnet.forward(params, frame, mode="eval")
    action = int(np.argmax(q[0]))
    latency_us = (time.perf_counter_ns() - begin) // 1000
    return action, latency_us


def _window_actions(params: QNetworkParams, bucketer: WindowBucketer, first: int,
                    windows: List[Window]) -> Iterator[Tuple[int, int, int, int]]:
    """(step, action, latency_us, events) for steps first .. bucketer.step - 1.

    Steps missing from windows were empty. They share the action of one
    infer_action call on no events; all but the first report latency_us 0.
    """
    found, empty_action = dict(windows), None
    for step in range(first, bucketer.step):
        events = found.get(step, _NO_EVENTS)
        if len(events) or empty_action is None:
            action, latency_us = infer_action(params, events, *bucketer.bounds(step))
            empty_action = empty_action if len(events) else action
        else:
            action, latency_us = empty_action, 0
        yield step, action, latency_us, len(events)


def offline_actions(events, dt_us: int, params: QNetworkParams) -> List[int]:
    """Reference pipeline: the action sequence a service replay must match.

    The whole stream, sorted by t, goes through the service's own
    WindowBucketer.add and _window_actions, and then a flush closes the
    trailing partial window.
    """
    bucketer = WindowBucketer(dt_us)
    windows, _ = bucketer.add(events_array(events))
    final = bucketer.flush()
    if final is not None:
        windows.append(final)
    return [action for _, action, _, _ in _window_actions(params, bucketer, 1, windows)]


def _parse_events(events, width: int, height: int) -> np.ndarray:
    """One JSON events list as an EVENT_DTYPE array, checked as a whole.

    Each event is [t, x, y, p] of JSON integers (not floats or booleans)
    that pass event_faults. A ValueError names the first item that breaks
    a rule.
    """
    if type(events) is not list:
        raise ValueError("events must be a list")
    if not events:
        return _NO_EVENTS
    if set(map(type, events)) != {list} or set(map(len, events)) != {4}:
        item = next(e for e in events if type(e) is not list or len(e) != 4)
        raise ValueError(f"event must be [t, x, y, p], got {item!r}")
    fields = list(chain.from_iterable(events))
    if set(map(type, fields)) != {int}:
        item = next(e for e in events if set(map(type, e)) != {int})
        raise ValueError(f"event fields must be integers, got {item!r}")
    try:
        t, x, y, p = np.array(fields, dtype=np.int64).reshape(-1, 4).T
    except OverflowError:  # t >= 2**63 or a field past 64 bits: the masks name it
        t, x, y, p = np.array(fields, dtype=object).reshape(-1, 4).T
    outside, polarity = event_faults(t, x, y, p, width, height)
    if outside.any():
        raise ValueError(f"event {events[int(np.argmax(outside))]!r} outside t >= 0 "
                         f"and the {width}x{height} sensor")
    if polarity.any():
        raise ValueError(f"polarity must be -1 or 1, got {events[int(np.argmax(polarity))][3]}")
    return pack_events(t, x, y, p)


def _decode_events_line(raw: bytes, width: int, height: int) -> Optional[np.ndarray]:
    """The events of one raw events line, decoded without json.loads.

    Returns the array _parse_events would build from the parsed line, or
    None for any line it has not fully checked: another message type or
    spelling, a field of more than 18 digits, or an event that breaks a
    rule. None sends the line down the json.loads path, which serves it or
    names its fault.
    """
    head = _EVENTS_HEAD.match(raw)
    end = raw.rfind(b"]")  # the head holds none, so this closes the list
    if head is None or end < head.end() or _EVENTS_TAIL.fullmatch(raw, end + 1) is None:
        return None
    lo = head.end()
    if end == lo:
        return _NO_EVENTS
    if _ROWS.fullmatch(raw, lo, end) is None:
        return None
    t, x, y, p = np.fromstring(raw[lo:end].translate(None, b"[]"), dtype=np.int64,
                               sep=",").reshape(-1, 4).T
    outside, polarity = event_faults(t, x, y, p, width, height)
    if (outside | polarity).any():
        return None
    return pack_events(t, x, y, p)


class ActionService:
    """Single-client TCP server around a fixed parameter snapshot."""

    def __init__(self, params: QNetworkParams, host: str = "127.0.0.1",
                 port: int = 0, log: Optional[Callable[[dict], None]] = None,
                 default_dt_us: int = 10000):
        self.params = params
        self.log = log
        self.default_dt_us = default_dt_us
        WindowBucketer(default_dt_us)  # a bad default fails here, not in every hello
        self._shutdown = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(1)
        except (OSError, OverflowError):
            self._listener.close()
            raise
        self.address = self._listener.getsockname()

    def shutdown(self):
        self._shutdown.set()
        try:
            # wakes a blocked accept(); close() alone does not on linux
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def serve_forever(self):
        """Accept and handle one session at a time until shutdown()."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by shutdown()
                try:
                    # replies go out at once: a message that closes several
                    # windows must not hold the later ones for a delayed ACK
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.settimeout(_IDLE_TIMEOUT_S)
                    self._handle_session(conn)
                except OSError:
                    pass  # the client left, or a read or send timed out
                except Exception:  # one broken session must not stop the listener
                    traceback.print_exc()
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
        finally:
            self.shutdown()

    def _handle_session(self, conn: socket.socket):
        cfg = self.params.cfg

        def send(obj: dict):  # an OSError, a timeout included, ends the session
            conn.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())

        bucketer: Optional[WindowBucketer] = None
        with conn.makefile("rb") as reader:
            while True:
                raw = reader.readline(_MAX_LINE + 1)  # a TimeoutError ends the session
                if not raw or self._shutdown.is_set():
                    break
                try:
                    if len(raw) > _MAX_LINE:
                        raise ValueError(f"line longer than {_MAX_LINE} bytes")
                    if bucketer is not None:  # hello checked the stream's resolution
                        events = _decode_events_line(raw, cfg.width, cfg.height)
                        if events is not None:
                            self._ingest(bucketer, events, send)
                            continue
                    msg = json.loads(raw.decode())
                    if not isinstance(msg, dict):
                        raise ValueError("message is not an object")
                    mtype = msg.get("type")
                    if mtype == "hello":
                        if bucketer is not None:  # its pending window would be lost
                            raise ValueError("hello repeated within a session")
                        width, height = msg["width"], msg["height"]
                        dt_us = msg.get("dt_us", self.default_dt_us)
                        if {type(width), type(height), type(dt_us)} != {int}:
                            raise ValueError("hello width, height and dt_us must be integers")
                        if (width, height) != (cfg.width, cfg.height):
                            raise ValueError(
                                f"stream is {width}x{height}, checkpoint expects "
                                f"{cfg.width}x{cfg.height}"
                            )
                        bucketer = WindowBucketer(dt_us)
                        send({"type": "ready", "action_count": cfg.action_count})
                    elif mtype == "events":
                        if bucketer is None:
                            raise ValueError("events before hello")
                        self._ingest(bucketer, _parse_events(msg["events"], cfg.width,
                                                             cfg.height), send)
                    elif mtype == "flush":
                        if bucketer is None:
                            raise ValueError("flush before hello")
                        first = bucketer.step
                        closed = bucketer.flush()
                        if closed is not None:
                            self._emit(bucketer, first, [closed], send)
                    else:
                        raise ValueError(f"unknown message type {mtype!r}")
                except (ValueError, KeyError, TypeError) as exc:
                    send({"type": "error", "message": f"malformed message: {exc}"})
                    break
                except FloatingPointError as exc:  # finite weights can still overflow
                    send({"type": "error", "message": f"inference failed: {exc}"})
                    break

    def _ingest(self, bucketer: WindowBucketer, events: np.ndarray, send):
        first, start = bucketer.step, bucketer.window_start
        windows, late = bucketer.add(events)
        self._emit(bucketer, first, windows, send)
        if late:  # the late head was dropped; the session stays up
            send({"type": "error", "message": f"{late} event(s) from t={events['t'][0]} "
                  f"precede the open window starting at {start}; dropped"})

    def _emit(self, bucketer: WindowBucketer, first: int, windows: List[Window], send):
        """Sends the actions of steps first .. bucketer.step - 1."""
        if bucketer.step - first > _MAX_WINDOWS:
            raise ValueError(f"message closes {bucketer.step - first} windows, "
                             f"more than {_MAX_WINDOWS}")
        for step, action, latency_us, count in _window_actions(self.params, bucketer,
                                                               first, windows):
            if self.log is not None:
                self.log({"step": step, "action": action, "latency_us": latency_us,
                          "events": count})
            send({"type": "action", "step": step, "action": action,
                  "latency_us": latency_us})


def serve(host: str, port: int, checkpoint_path, log_path=None,
          default_dt_us: int = 10000):
    """Blocking entry point for the CLI; returns on shutdown."""
    from .eventio import load_checkpoint

    params, _ = load_checkpoint(checkpoint_path)
    # bind, and check the default width, before the log is opened: a failed
    # start leaves an earlier log as it was
    service = ActionService(params, host=host, port=port, default_dt_us=default_dt_us)
    try:
        with open(log_path, "w") if log_path else nullcontext() as log_file:
            if log_file:
                service.log = lambda record: print(json.dumps(record), file=log_file,
                                                   flush=True)
            service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
