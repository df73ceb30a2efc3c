"""Smoke test of the benchmark: every workload on a one-scene corpus.

    python3 -m pytest wfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import bench  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scenes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_matches_reference(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_changed_output_counts_as_failed():
    w = bench.WORKLOADS["roundtrip-320"]
    reference = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))[w.name]
    scene = reference["0"]
    tampered = {"0": {"pr": scene["pr"],
                      "sha256": {**scene["sha256"], "wireframe.json": "0" * 64}}}
    out = bench.run(w.name, seed=0, seconds=0, trace=False, t_start=time.perf_counter(),
                    scenes=1, reference=tampered)["result"]
    assert not out["correct"] and out["failed"] == out["attempted"] == 1
    assert out["metrics"]["ok_frac"]["value"] == 0.0


def test_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "wfbench").mkdir()
    run_py = tmp_path / "wfbench" / "run.py"
    run_py.write_text((HERE / "run.py").read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(run_py), "--workload", "roundtrip-320",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
