"""Span recording around calls into the program's public functions.

Nothing inside ``src/evrl`` is instrumented. The tracer replaces module
and class attributes where the program looks them up at call time, so a
call such as ``qnet.forward(...)`` inside the trainer reaches the
wrapper. ``install()`` and ``uninstall()`` swap the originals in and out,
so untraced rounds run the program's own functions with no wrapper in
between. Spans (name, start, end, parent, size) are kept in flat arrays
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


def _batch_size(params, batch, *_, **__) -> int:
    shape = np.shape(batch)
    return shape[0] if len(shape) >= 3 else 1


def _len_of(index: int):
    """Size function: the length of the positional argument at index."""
    return lambda *args, **_: len(args[index])


# (module, attribute, span name, size function). Every target is looked up
# by the program at call time, so patching the attribute reaches its callers.
TARGETS = (
    ("evrl.envs", "render", "renderer.render", None),
    ("evrl.envs", "emulate_frame", "events.emulate", None),
    ("evrl.envs", "inject_impulse_noise", "events.noise", None),
    ("evrl.qnet", "forward", "qnet.forward", _batch_size),
    ("evrl.qnet", "backward", "qnet.backward", None),
    ("evrl.qnet", "adam_step", "qnet.adam", None),
    ("evrl.trainer", "double_dqn_target", "trainer.target", None),
    ("evrl.trainer.ReplayBuffer", "sample", "trainer.sample", None),
    ("evrl.service", "accumulate_events", "events.accumulate", _len_of(0)),
    ("evrl.service", "infer_action", "service.infer", _len_of(1)),
    ("evrl.service.WindowBucketer", "add", "service.bucket", None),
    ("evrl.eventio", "load_checkpoint", "eventio.load_checkpoint", None),
)


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.size = array("q")
        self._stack: List[int] = []
        self._patches = []
        for module, attr, name, size_fn in TARGETS:
            owner = _resolve(module)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original,
                                  self.wrap(name, original, size_fn)))
        self.installed = False

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, size: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, size_fn: Optional[Callable] = None):
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name, size_fn(*args, **kwargs) if size_fn else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


class SpanTable:
    """Read-side view of saved spans: per-name durations and self times."""

    def __init__(self, arrays):
        self.names = [str(n) for n in arrays["names"]]
        self.name_id = np.asarray(arrays["name_id"])
        self.start = np.asarray(arrays["start"])
        self.end = np.asarray(arrays["end"])
        self.parent = np.asarray(arrays["parent"])
        self.size = np.asarray(arrays["size"])
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        self.self_ns = self.dur - covered

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as data:
            return cls({k: data[k] for k in data.files})

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def summary(self) -> Dict[str, dict]:
        """Calls, total and self time per span name."""
        out = {}
        for name in self.names:
            m = self.mask(name)
            out[name] = {"calls": int(m.sum()),
                         "total_ms": float(self.dur[m].sum() / 1e6),
                         "self_ms": float(self.self_ns[m].sum() / 1e6)}
        return out

    def format_summary(self) -> str:
        lines = [f"{'span':26s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}"]
        for name, row in sorted(self.summary().items()):
            lines.append(f"{name:26s} {row['calls']:8d} {row['total_ms']:10.1f} "
                         f"{row['self_ms']:10.1f}")
        return "\n".join(lines)

    def bucket_ns_per_window(self) -> np.ndarray:
        """WindowBucketer.add time charged to each served window: the add
        calls after the previous window's inference and before its own."""
        infer = np.sort(self.start[self.mask("service.infer")])
        add = self.mask("service.bucket")
        group = np.searchsorted(infer, self.start[add])
        sums = np.bincount(group, weights=self.dur[add], minlength=len(infer) + 1)
        return sums[:len(infer)]

    def layer_metrics(self, rounds: int) -> Dict[str, dict]:
        """Per-layer p50 times (ms per call) and per-round counts.

        A layer that made no call in this workload reads 0. Metrics that
        do not come from spans (grad steps, the service's own latency
        field, the overhead) start at 0 for the workload to fill in.
        """
        def p50(ns) -> float:
            return float(np.median(ns)) / 1e6 if len(ns) else 0.0

        def ms(name, select=None):
            m = self.mask(name) if select is None else self.mask(name) & select
            return {"value": p50(self.dur[m]), "unit": "ms"}

        def count(value):
            return {"value": value / rounds, "unit": "count"}

        infer = self.mask("service.infer")
        acc = self.mask("events.accumulate")
        step = self.mask("envs.step")
        return {
            "renderer.render_ms": ms("renderer.render"),
            "renderer.calls": count(int(self.mask("renderer.render").sum())),
            "events.emulate_ms": ms("events.emulate"),
            "events.noise_ms": ms("events.noise"),
            "events.accumulate_ms": ms("events.accumulate"),
            "events.accumulated": count(int(self.size[acc].sum())),
            "envs.step_self_ms": {"value": p50(self.self_ns[step]), "unit": "ms"},
            "qnet.forward_b1_ms": ms("qnet.forward", self.size == 1),
            "qnet.forward_b32_ms": ms("qnet.forward", self.size > 1),
            "qnet.backward_ms": ms("qnet.backward"),
            "qnet.adam_ms": ms("qnet.adam"),
            "trainer.target_ms": ms("trainer.target"),
            "trainer.sample_ms": ms("trainer.sample"),
            "trainer.grad_steps": count(0),
            "service.infer_ms": {"value": 0.0, "unit": "ms"},
            "service.ingest_ms": {"value": 0.0, "unit": "ms"},
            "service.bucket_ms": {"value": p50(self.bucket_ns_per_window()), "unit": "ms"},
            "service.windows": count(int(infer.sum())),
            "service.empty_windows": count(int((infer & (self.size == 0)).sum())),
            "eventio.load_checkpoint_ms": ms("eventio.load_checkpoint"),
            "trace.overhead_pct": {"value": 0.0, "unit": "%"},
        }


def overhead_pct(traced_ns, untraced_ns) -> dict:
    """Median op time of traced rounds over untraced rounds, minus one."""
    ratio = float(np.median(traced_ns)) / float(np.median(untraced_ns))
    return {"value": 100.0 * (ratio - 1.0), "unit": "%"}
