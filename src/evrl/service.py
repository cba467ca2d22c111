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
an eval-mode forward pass. Latency covers conversion plus inference on
a monotonic clock.

Every event field must be a JSON integer (not a float or a boolean), with
0 <= t < 2**64, 0 <= x < W, 0 <= y < H and p in {-1, 1}. A malformed
line draws an error and closes the connection; events older than the
current window draw an error but keep the session alive. A session that
fails in any other way is closed, and the server goes on accepting
connections.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import qnet
from .events import accumulate_events, events_array
from .qnet import QNetworkParams


# Timestamps are stored as uint64 microseconds (EVENT_DTYPE).
_T_LIMIT = 2 ** 64


class LateEventError(ValueError):
    """Event timestamp precedes the currently open window."""


class WindowBucketer:
    """Assigns a non-decreasing event stream to fixed-width windows."""

    def __init__(self, dt_us: int):
        if dt_us < 1:
            raise ValueError(f"dt_us must be >= 1, got {dt_us}")
        self.dt = int(dt_us)
        self.t0: Optional[int] = None
        self.step = 1
        self.pending: List[Tuple[int, int, int, int]] = []

    @property
    def window_start(self) -> Optional[int]:
        return None if self.t0 is None else self.t0 + (self.step - 1) * self.dt

    @property
    def window_end(self) -> Optional[int]:
        return None if self.t0 is None else self.t0 + self.step * self.dt

    def add(self, t: int, x: int, y: int, p: int):
        """Returns the list of (step, events) windows this event closed."""
        t = int(t)
        if self.t0 is None:
            self.t0 = t
        if t < self.window_start:
            raise LateEventError(
                f"event at t={t} precedes open window starting at {self.window_start}"
            )
        closed = []
        while t >= self.window_end:
            closed.append((self.step, self.pending))
            self.pending = []
            self.step += 1
        self.pending.append((t, int(x), int(y), int(p)))
        return closed

    def flush(self):
        """Close the current window now; None if no event ever arrived."""
        if self.t0 is None:
            return None
        out = (self.step, self.pending)
        self.pending = []
        self.step += 1
        return out


def infer_action(params: QNetworkParams, events: Sequence, t_start: int,
                 t_end: int) -> Tuple[int, int]:
    """(action, latency_us) for one window's events."""
    cfg = params.cfg
    begin = time.perf_counter_ns()
    frame = accumulate_events(events_array(list(events)), t_start, t_end,
                              cfg.width, cfg.height)
    q = qnet.forward(params, frame, mode="eval")
    action = int(np.argmax(q[0]))
    latency_us = (time.perf_counter_ns() - begin) // 1000
    return action, latency_us


def offline_actions(events, dt_us: int, params: QNetworkParams) -> List[int]:
    """Reference pipeline: the action sequence a service replay must match.

    Windows start at the first event's timestamp; the trailing partial
    window is included (it is what a final flush would close).
    """
    arr = events_array(events)
    if len(arr) == 0:
        return []
    bucketer = WindowBucketer(dt_us)
    actions: List[int] = []

    def emit(step, window_events):
        start = bucketer.t0 + (step - 1) * bucketer.dt
        action, _ = infer_action(params, window_events, start, start + bucketer.dt)
        actions.append(action)

    for t, x, y, p in zip(arr["t"], arr["x"], arr["y"], arr["p"]):
        for step, window_events in bucketer.add(int(t), int(x), int(y), int(p)):
            emit(step, window_events)
    final = bucketer.flush()
    if final is not None:
        emit(*final)
    return actions


class ActionService:
    """Single-client TCP server around a fixed parameter snapshot."""

    def __init__(self, params: QNetworkParams, host: str = "127.0.0.1",
                 port: int = 0, log: Optional[Callable[[dict], None]] = None,
                 default_dt_us: int = 10000):
        self.params = params
        self.log = log
        self.default_dt_us = default_dt_us
        self._shutdown = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
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
                    self._handle_session(conn)
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
        reader = conn.makefile("rb")

        def send(obj: dict):
            try:
                conn.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
            except OSError:
                pass

        bucketer: Optional[WindowBucketer] = None
        for raw in reader:
            if self._shutdown.is_set():
                break
            try:
                msg = json.loads(raw.decode())
                if not isinstance(msg, dict):
                    raise ValueError("message is not an object")
                mtype = msg.get("type")
                if mtype == "hello":
                    width, height = int(msg["width"]), int(msg["height"])
                    dt_us = int(msg.get("dt_us", self.default_dt_us))
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
                    self._ingest(bucketer, msg["events"], send)
                elif mtype == "flush":
                    if bucketer is None:
                        raise ValueError("flush before hello")
                    closed = bucketer.flush()
                    if closed is not None:
                        self._emit(bucketer, *closed, send)
                else:
                    raise ValueError(f"unknown message type {mtype!r}")
            except LateEventError as exc:
                send({"type": "error", "message": str(exc)})  # session survives
            except (ValueError, KeyError, TypeError) as exc:
                send({"type": "error", "message": f"malformed message: {exc}"})
                break
        reader.close()

    def _ingest(self, bucketer: WindowBucketer, events, send):
        if not isinstance(events, list):
            raise ValueError("events must be a list")
        # hello has checked that the stream's resolution is the checkpoint's
        width, height = self.params.cfg.width, self.params.cfg.height
        prev_t = None
        parsed = []
        for item in events:
            if type(item) is not list or len(item) != 4:
                raise ValueError(f"event must be [t, x, y, p], got {item!r}")
            t, x, y, p = item
            if not (type(t) is int and type(x) is int and type(y) is int
                    and type(p) is int):
                raise ValueError(f"event fields must be integers, got {item!r}")
            if not (0 <= x < width and 0 <= y < height and 0 <= t < _T_LIMIT):
                raise ValueError(f"event {item!r} outside t >= 0 and the "
                                 f"{width}x{height} sensor")
            if prev_t is not None and t < prev_t:
                raise ValueError("events within a message must be sorted by t")
            if p not in (-1, 1):
                raise ValueError(f"polarity must be -1 or 1, got {p}")
            prev_t = t
            parsed.append((t, x, y, p))
        late: Optional[LateEventError] = None
        for t, x, y, p in parsed:
            try:
                for step, window_events in bucketer.add(t, x, y, p):
                    self._emit(bucketer, step, window_events, send)
            except LateEventError as exc:
                late = exc  # drop the event, keep the rest of the batch
        if late is not None:
            raise late

    def _emit(self, bucketer: WindowBucketer, step: int, window_events, send):
        start = bucketer.t0 + (step - 1) * bucketer.dt
        action, latency_us = infer_action(self.params, window_events,
                                          start, start + bucketer.dt)
        if self.log is not None:
            self.log({"step": step, "action": action, "latency_us": latency_us,
                      "events": len(window_events)})
        send({"type": "action", "step": step, "action": action,
              "latency_us": latency_us})


def serve(host: str, port: int, checkpoint_path, log_path=None,
          default_dt_us: int = 10000):
    """Blocking entry point for the CLI; returns on shutdown."""
    from .eventio import load_checkpoint

    params, _ = load_checkpoint(checkpoint_path)
    log_file = open(log_path, "w") if log_path else None

    def log(record: dict):
        if log_file:
            log_file.write(json.dumps(record) + "\n")
            log_file.flush()

    service = ActionService(params, host=host, port=port, log=log,
                            default_dt_us=default_dt_us)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        if log_file:
            log_file.close()
