"""The package's public surface, and what importing it sets for the process."""

import ctypes
import platform

import numpy as np
import pytest

import evrl
from evrl.renderer import CameraModel


def test_every_exported_name_resolves():
    assert [name for name in evrl.__all__ if not hasattr(evrl, name)] == []


def test_star_import_binds_all_exports():
    namespace = {}
    exec("from evrl import *", namespace)
    assert set(evrl.__all__) <= set(namespace)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_control_step_keeps_its_heap_pages():
    """A warm 240x180 control step reuses its freed buffers instead of
    faulting fresh pages in (about 150-290 minor faults a step without the
    allocator thresholds set at import)."""
    import resource  # POSIX only; glibc implies it

    env = evrl.AvoidanceEnv(evrl.EnvConfig(seed=5, sensor=CameraModel(width=240, height=180)))
    params = evrl.init_params(evrl.NetworkConfig(180, 240, env.action_count),
                              np.random.default_rng(0))
    rng = np.random.default_rng(1)
    env.reset(seed=3)

    def step():
        result = env.step(int(rng.integers(env.action_count)))
        frame = env.reset(seed=int(rng.integers(2 ** 30))) if result.done else result.observation
        evrl.forward(params, frame, mode="eval")

    for _ in range(50):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10 * 200, f"{faults / 200:.1f} minor faults per step"
