"""The server process of serve-240x180: an ActionService on a loopback port.

    python3 perfbench/serve_proc.py --checkpoint PATH [--spans PATH]

Loads its parameters from the checkpoint, binds port 0 and prints one
JSON line ``{"port": N}`` once it accepts connections. It then reads
commands from standard input, one per line, and answers each with
``ok``: ``trace on`` and ``trace off`` swap the span wrappers in and out
between sessions, ``stop`` (or end of input) shuts the service down.
With ``--spans`` the wrappers are in place from the start, so the
checkpoint load is traced, and the spans are written there on exit. The
last line printed is ``{"stopped": true, "peak_rss_kb": N}``, the peak
resident set of this process image (VmHWM; ``ru_maxrss`` would also count
the parent's pages that the child held between fork and exec).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evrl import eventio  # noqa: E402
from evrl.service import ActionService  # noqa: E402

from spans import Tracer  # noqa: E402


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    params, _ = eventio.load_checkpoint(args.checkpoint)
    service = ActionService(params, host="127.0.0.1", port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": service.address[1]}), flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stop":
                break
            if tracer is not None and cmd == "trace on":
                tracer.install()
            elif tracer is not None and cmd == "trace off":
                tracer.uninstall()
            else:
                print(f"unknown command {cmd!r}", file=sys.stderr)
                return 2
            print("ok", flush=True)
    finally:
        service.shutdown()
        thread.join(timeout=10)
        if tracer is not None:
            tracer.uninstall()
            tracer.save(args.spans)
    print(json.dumps({"stopped": True, "peak_rss_kb": peak_rss_kb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
