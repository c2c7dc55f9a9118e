"""Tests of the benchmark itself: smoke runs of every workload.

    python3 -m pytest bench/test_bench.py

Each smoke run uses tiny inputs; the tests check the result format, that
every metric named in BENCHMARK.json is reported with its unit, and that the
benchmark refuses to run where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu",
            "git_commit", "git_dirty"}
# Figures the detail record must carry besides the metrics, per workload.
DETAIL_KEYS = {
    "tables-l4": {"budget_err_max", "fail_frac"},
    "sweep-l2": {"budget_err_max", "fail_frac"},
    "fit-batch": {"qi_err_median_other", "qi_err_p90", "ftan_err_p90",
                  "fail_frac", "regimes"},
    "cli-chain": {"budget_err_max", "fail_frac"},
}


def run_bench(script, workload, trace, cwd=None):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    proc = run_bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    detail = json.loads(detail_line)["detail"]
    assert ENV_KEYS <= set(detail["environment"])
    assert DETAIL_KEYS[workload] <= set(detail)


def test_refuses_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "bench" / "run.py", "fit-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_summary():
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    tr = Tracer()
    with tr.span("item.x", item="a"):
        with tr.span("fieldsolve.solve_potential"):
            pass
    funcs, layers = tr.summary()
    assert set(funcs) == {"item.x", "fieldsolve.solve_potential"}
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == "a"
    item, field = layers["item"], layers["fieldsolve"]
    assert item["busy_s"] == pytest.approx(item["self_s"] + field["busy_s"])
    assert field["self_s"] == pytest.approx(field["busy_s"])
