"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace=0, seed=3, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    report = next((json.loads(line[len("REPORT "):]) for line in lines
                   if line.startswith("REPORT ")), None)
    return done, lines, report


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    done, lines, report = bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert report["error_rate"]["value"] == 0 and report["problems"] == []
    assert len(report["output_sha256"]) == 64
    if trace:
        assert report["absent"] == []
        assert result["metrics"]["trace.spans"]["value"] > 0
        return
    assert all(v["value"] > 0 for v in result["metrics"].values())
    extra = {"calibrate-fit": ("fit_residual", "holdout_comm_error"),
             "schedule-fuzz": ("op_ms_p50", "op_ms_p99")}.get(workload, ())
    for name in ("pass_s",) + extra:
        assert report[name]["unit"] and report[name]["value"] > 0


def test_fuzz_inputs_follow_the_seed():
    digests = [bench("schedule-fuzz", seed=seed)[2]["output_sha256"]
               for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, lines, _ = bench("sweep-wide", cwd=tmp_path)
    assert done.returncode != 0
    assert lines == []


@pytest.fixture(scope="module")
def ss():
    return run.load_shardsim()


def test_failed_cli_sweep_counts_every_row(ss, tmp_path):
    workload = run.SweepWide(ss, 1, True, tmp_path)
    failed = run.Pass(0.1, workload.rows, 2)
    assert workload.verify(failed)
    assert failed.failed == workload.rows


def test_wrong_round_trip_fit_fails_the_check(ss, tmp_path):
    workload = run.CalibrateFit(ss, 1, True, tmp_path)
    good = ss.engine.CalibratedParams(0.3, 4.0, 0.0)
    holdout = ss.engine.run_scenario(workload.holdout, workload.cluster,
                                     compute_efficiency=0.24,
                                     latency_scale=5.1)
    assert workload.verify(run.Pass(0.1, 2, (good, good, holdout))) == []
    wrong = ss.engine.CalibratedParams(0.3, 4.4, 0.0)
    p = run.Pass(0.1, 2, (good, wrong, holdout))
    assert workload.verify(p)
    assert p.failed == 1
