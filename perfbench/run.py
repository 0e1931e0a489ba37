"""The cubecomp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports `cubecomp` from the checkout's
`src/`, writes the seeded argv manifest and envelope files of one workload
under `perfbench/out/`, and drives `cubecomp.cli.main(argv)` in-process with
one closed-loop client: a single process, no threads, each operation
starting when the previous one returned.  Every operation's output is
checked outside the timed region.

--trace 0 measures the end-to-end metrics, with every timing scaled to a
reference host by a probe of the host's speed run around it (see
perfbench/RATIONALE.md); the figures as timed are printed too.  --trace 1
alternates whole
untraced and traced passes over the operations and reports the per-layer
metrics, per operation, from spans recorded around calls into each module.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record, with sample counts, percentiles, the git sha,
Python version and interpreter flags, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("dual-ladder", "classgroup-ladder", "verify-laws")


def _die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_library():
    """cubecomp.cli from the checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cubecomp", "__init__.py")):
        _die(f"no cubecomp sources under {SRC}")
    sys.path.insert(0, SRC)
    import cubecomp.cli

    if not os.path.abspath(cubecomp.cli.__file__).startswith(SRC + os.sep):
        _die(f"imported cubecomp from {cubecomp.cli.__file__}, not {SRC}")
    return cubecomp.cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        _die("refusing to run under python -O: it strips the library's "
             "assert-based correctness checks, so it would measure another "
             "program")
    cli = _import_library()
    import harness

    harness.run(cli, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
