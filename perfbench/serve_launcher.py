#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's span recorders installed.

    python3 perfbench/serve_launcher.py --trace-out FILE -- serve --socket S ...

Installs the same wrappers and ``gc.callbacks`` hook as an in-process
traced run (:mod:`perfbench.tracing`), then calls
``repro.cli.main`` with the arguments after ``--``.  When the daemon
shuts down it writes every span to ``FILE`` as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv[:split])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        return repro_main(argv[split + 1:])
    finally:
        tracer.uninstall()
        tracer.write_chrome(Path(args.trace_out), {"part": "daemon"})


if __name__ == "__main__":
    sys.exit(main())
