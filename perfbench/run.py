#!/usr/bin/env python3
"""evrl benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload control-240x180 --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced, and the object carries the per-layer metrics and
the tracing overhead. See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the benchmark and the server are the only two processes
# on a two-core host. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import timing  # noqa: E402

_AGE_AT_START = timing.process_age_s()

import argparse  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("control-240x180", "train-64x48", "serve-240x180")


class Run:
    """What one invocation knows: its arguments, clocks and op counts."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.clock = timing.SetupClock(_AGE_AT_START, _START)
        self.out = OUT
        self.attempted = 0
        self.failed = 0

    def traced_round(self, index: int) -> bool:
        """In trace mode rounds alternate, starting untraced (it holds the
        warm-up); otherwise no round is traced."""
        return self.trace and index % 2 == 1

    def more_rounds(self, started: float, rounds: int, timed_ops: int,
                    min_rounds: int = 1) -> bool:
        """Whole rounds until --seconds have passed, the p99 tail holds
        enough samples, and (in trace mode) both kinds of round ran."""
        if self.trace:
            min_rounds = max(min_rounds, 2)
        return (time.perf_counter() - started < self.seconds or rounds < min_rounds
                or timed_ops < timing.min_tail_samples())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "evrl" / "__init__.py").is_file():
        print(f"perfbench: no evrl package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    from checks import CheckFailed

    if args.workload == "control-240x180":
        import wl_control as workload
    elif args.workload == "train-64x48":
        import wl_train as workload
    else:
        import wl_serve as workload

    run = Run(args)
    try:
        metrics = workload.run(run)
    except CheckFailed as exc:
        traceback.print_exc()
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(timing.result_line(False, max(run.attempted, 1), run.failed, {}))
        return 1
    print(timing.result_line(True, run.attempted, run.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
