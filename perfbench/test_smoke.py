"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def results_of(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_and_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = results_of(proc.stdout)
    # One untraced result per workload, then one traced result.
    assert len(results) == len(MANIFEST["workloads"]) + 1
    for index, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = MANIFEST["per_layer" if index == len(results) - 1 else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            if "bound" in metric:
                assert entry["value"] > 0, metric["name"]


def test_workload_names_match_the_manifest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    assert list(workloads.WORKLOADS) == [w["name"] for w in MANIFEST["workloads"]]


def test_hanging_operation_fails_within_its_limit():
    def hang():
        while True:
            pass

    h = harness.Harness(time.perf_counter() + 0.5, harness.Tracer("test", enabled=False))
    output, seconds, problem = h.guard("hang", hang)
    h.record("hang", problem)
    assert output is None and problem is not None and seconds < 5
    assert (h.attempted, h.failed) == (1, 1)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-analytic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert results_of(proc.stdout) == []
