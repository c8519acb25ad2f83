"""Start ``repro serve`` for daemon-mixed, optionally with layer tracing.

Usage::

    python3 perfbench/daemon_launcher.py --index PATH [--cpu N] \\
        [--trace-out SPANS.npz]

The launcher pins itself to ``--cpu`` (the load generator runs on another
cpu), installs the same span wrappers as the benchmark's traced run when
``--trace-out`` is given, and then runs ``repro.cli.main(["serve", ...])``
with the daemon defaults.  Spans are written when the daemon has drained.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    from repro import cli

    tracer = None
    if args.trace_out is not None:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.set_phase("serve")
        tracer.enabled = True
    code = cli.main(["serve", "--index", args.index])
    if tracer is not None:
        tracer.enabled = False
        tracer.save(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
