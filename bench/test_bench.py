"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py -q

They run the benchmark in child processes with a one-second timed phase,
about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    reference = json.loads((HERE / "reference.json").read_text())
    assert tuple(reference) == run.WORKLOAD_NAMES


def test_perturbed_reference_makes_error_rate_positive(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["simulate_n256"]["final_row"]["hessian_sup"] *= 1.0 + 1e-5
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    res = result_of(bench("--workload", "simulate_n256", "--seconds", "1",
                          "--reference", str(perturbed)))
    assert res["failed"] > 0 and not res["correct"]
    assert res["failed"] / res["attempted"] > 0
    assert set(res["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", ["simulate_n256", "trace_n128"])
def test_traced_counts_repeat_and_match_closed_forms(workload):
    proc = bench("--workload", workload, "--seconds", "1", "--trace", "1")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {name for name, _ in run.LAYER_METRICS}
    counts = next(json.loads(line[len("counts "):]) for line in proc.stdout.splitlines()
                  if line.startswith("counts "))
    assert counts["repeat"]
    assert counts["closed_form_checked"]
    assert counts["closed_form_mismatch"] == {}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "verify_all", "--seconds", "1", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
