"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_batch --seed 7 --seconds 20 --trace 0

The program is imported from the checkout's ``src/``; nothing is
installed or built.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the host and the inputs.  A
mismatch in the program's outputs prints ``"correct": false`` and exits
with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cold_batch", "serve_reads")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    trace_dir: Path


def host_facts() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the servers this run started
    # are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    import workloads

    trace_dir = workloads.WORK / "traces" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  trace_dir)
    if args.workload == "cold_batch":
        outcome = workloads.cold(ctx)
    else:
        outcome = workloads.serve(ctx)
    for problem in outcome.problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "host": host_facts(),
        "inputs": outcome.inputs,
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
