"""Benchmark of cbclat on pinned workloads; see README.md beside this file.

    python3 perfbench/run.py --workload axis-recon --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
Prints one JSON object as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
Exits 1 if any operation failed or a check rejected a result, and 2 if the
checkout holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

WORKLOAD_NAMES = ("axis-recon", "anova-int", "whc-roundtrip")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the polynomial's coefficients and the spot-checked nodes; "
                             "the search seeds are pinned")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds of operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    package = ROOT / "src" / "cbclat" / "__init__.py"
    if not package.is_file():
        print(f"error: no cbclat package at {package.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    # Fixed, not taken from the environment: one BLAS thread, so the transforms
    # do not compete for the machine's cores with the rest of the machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import cbclat
    if Path(cbclat.__file__).resolve() != package.resolve():
        print(f"error: imported cbclat from {cbclat.__file__}, not {package}", file=sys.stderr)
        return 2
    import selftest
    import workloads

    selftest.run_all()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    out_prefix = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, out_prefix)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in result.pop("errors"):
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
