#!/usr/bin/env python3
"""Wireframe benchmark: one workload, one run, one JSON result line.

    python3 wfbench/run.py --workload roundtrip-320 --seed 1 --seconds 20 --trace 0

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The line before it records the run and its
environment.  ``--make-reference`` rewrites wfbench/reference.json from the
code as it is, and is for a change that means to alter the outputs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenes", type=int, default=None,
                    help="use only the first N pool scenes (smoke tests)")
    ap.add_argument("--make-reference", action="store_true",
                    help="rewrite reference.json instead of running a workload")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wireframe" / "__init__.py").is_file():
        print(f"wfbench: no wireframe sources under {src}", file=sys.stderr)
        return 2
    # single-threaded numerics: one caller, no BLAS or OpenMP pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench  # noqa: E402  (needs the path and the thread settings first)

    if not Path(bench.evaluate.__file__).resolve().is_relative_to(src.resolve()):
        print("wfbench: wireframe was not imported from this checkout", file=sys.stderr)
        return 2
    if not args.make_reference and args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    if args.make_reference:
        reference = bench.make_reference()
        with open(bench.REFERENCE, "w", encoding="ascii", newline="\n") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START,
                    scenes=args.scenes)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
