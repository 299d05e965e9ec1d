"""Run one ``repro`` CLI command in this process, optionally traced.

The serve workloads start the server through this launcher::

    python3 perfbench/launch.py [--trace-out FILE] -- serve --store DIR --port 0

With ``--trace-out`` the benchmark's wrappers are installed before the
``repro`` entry point runs, and the trace is written to ``FILE`` once
the command returns (after SIGTERM, ``serve`` stops accepting and drains
its writer thread first).  Without it the command runs exactly as
``python -m repro`` would run it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
