"""Puts the benchmark's modules and the program's sources on the path."""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_BENCH.parent / "src"))
sys.path.insert(0, str(_BENCH))
