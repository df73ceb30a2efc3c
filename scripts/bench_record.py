#!/usr/bin/env python3
"""Record the perf trajectory: every wfbench workload, untraced and traced.

Runs ``wfbench/run.py`` of a checkout once per workload with ``--trace 0``
and once with ``--trace 1`` (seed 1, the run length of BENCHMARK.json), and
stores each run's record line and result line in ``BENCH_<pr>.json`` at the
root of this repository, under a label.  Record the parent commit and the
change on the same machine, one after the other, so the two labels can be
compared:

    python3 scripts/bench_record.py --pr N --label parent --tree ../parent-checkout
    python3 scripts/bench_record.py --pr N --label change

An existing file keeps its other labels; the given label is replaced.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("roundtrip-320", "dense-960", "hough-640")
SEED = 1


def run_workload(tree: Path, workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One wfbench run: its record line (``info``) and its result line."""
    out = subprocess.run(
        [sys.executable, str(tree / "wfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=tree).stdout.splitlines()
    return {"info": json.loads(out[-2]), "result": json.loads(out[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    ap.add_argument("--label", required=True, help="for example parent or change")
    ap.add_argument("--tree", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = ap.parse_args(argv)

    if not (args.tree / "wfbench" / "run.py").is_file():
        print(f"error: no wfbench/run.py under {args.tree}", file=sys.stderr)
        return 3
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            key = f"{workload}{' traced' if trace else ''}"
            runs[key] = run_workload(args.tree.resolve(), workload, trace, SEED, seconds)
            print(key, json.dumps(runs[key]["result"]["correct"]), flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc[args.label] = {"seed": SEED, "seconds": seconds, "runs": runs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.label} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
