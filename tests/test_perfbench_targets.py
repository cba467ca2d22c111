"""The benchmark's workloads import and its tracer resolves every target.

perfbench/tests is not collected here, and the benchmark patches program
names at run time (spans.TARGETS). A refactor that renames or moves one of
them would pass every other test and break only the benchmark; building a
Tracer resolves each target without installing any patch.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_workloads_import_and_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for name in ("wl_control", "wl_train", "wl_serve"):
        importlib.import_module(name)
    tracer = spans.Tracer()
    assert not tracer.installed
    assert len(tracer._patches) == len(spans.TARGETS)
    for owner, attr, original, _ in tracer._patches:
        assert getattr(owner, attr) is original  # resolved, not patched
