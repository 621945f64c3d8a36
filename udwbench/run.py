"""udwtomo benchmark: end-to-end metrics, or a per-layer trace, for one workload.

    python3 udwbench/run.py --workload lattice_thermal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The load is
a closed loop with one client: each scenario run starts when the previous
one has ended, until ``--seconds`` have passed.  BLAS threads are pinned to
one.

``--trace 0`` prints run_s (median wall time per run), setup_s (median time
of a fresh interpreter validating the workload's config through the CLI),
peak_rss_mib and ok_share (operations that did not fail over attempted).
``--trace 1`` alternates untraced and traced runs and prints the per-layer
self times and counts of the traced ones, plus the tracing overhead.  Both
check the outputs with the workload's correctness gate outside the timed
region; the last line of standard output is one JSON object, and the exit
code is 1 when a gate fails.  Scratch outputs go to ``.udwbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "udwtomo" / "__init__.py").is_file():
        print(f"udwbench: no package source at {SRC / 'udwtomo'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import udwtomo
    if Path(udwtomo.__file__).resolve().parent != SRC / "udwtomo":
        print(f"udwbench: imported udwtomo from {udwtomo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"udwbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.bench(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
