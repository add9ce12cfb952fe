"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest -q perfbench/tests

Run from the repository root: the benchmark imports the program from src/.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads(record_line)
    assert record["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert record["machine"]["nproc"] >= 1 and "loadavg_1m_end" in record["machine"]


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    wa = workloads.build("problem_wide_60x4", 5, a, smoke=True)
    wb = workloads.build("problem_wide_60x4", 5, b, smoke=True)
    assert [op.argv[2:] for op in wa.ops] == [op.argv[2:] for op in wb.ops]
    for name in ("decision.json", "function.json"):
        assert (a / name).read_text() == (b / name).read_text()
    workloads.build("problem_wide_60x4", 6, tmp_path, smoke=True)
    assert (tmp_path / "function.json").read_text() != (a / "function.json").read_text()


@pytest.fixture()
def problem_runner(tmp_path):
    workload = workloads.build("problem_wide_60x4", 4, tmp_path, smoke=True)
    runner = run.Runner(workload, tmp_path, ROOT / "src", deadline=float("inf"))
    for op in workload.ops:
        runner.call(op, traced=False)
    assert runner.failures == []
    return runner


def test_corrupted_output_counts_as_failed(problem_runner):
    runner = problem_runner
    op = runner.workload.ops[1]  # the exact indexed_outcome call
    good = copy.deepcopy(runner.first_output[op.kind])
    assert runner.verdict(op, good) == []

    flipped = copy.deepcopy(good)
    flipped["labels"][0] = (flipped["labels"][0] + 1) % flipped["bins"]
    assert runner.verdict(op, flipped)

    answer = copy.deepcopy(good)
    answer["answer"] += 1
    assert runner.verdict(op, answer)

    # with a recorded reference, a float that drifts past rel 1e-9 fails too
    runner.workload.reference = {op.kind: copy.deepcopy(good)}
    drifted = copy.deepcopy(good)
    drifted["diagnostics"][0]["p0"] *= 1 + 1e-6
    runner.first_output.clear()
    assert any("reference" in p for p in runner.verdict(op, drifted))

    before = len(runner.failures)
    runner.workload.reference = {op.kind: flipped}
    runner.call(op, traced=False)
    assert len(runner.failures) == before + 1


def test_failing_process_counts_as_failed(problem_runner):
    runner = problem_runner
    broken = workloads.Op(kind="broken", argv=["problem", "missing.json", "--solve"],
                          dists=1, check=lambda out: [])
    attempted = runner.attempted
    runner.call(broken, traced=False)
    assert runner.attempted == attempted + 1
    assert "exit code 2" in runner.failures[-1]


def test_difference_tolerances():
    ref = {"labels": [1, 2], "p0": 0.25, "tiny": 0.0, "answer": "YES"}
    assert workloads.difference(ref, dict(ref, p0=0.25 * (1 + 1e-12), extra=1)) is None
    assert workloads.difference(ref, dict(ref, tiny=1e-13)) is None
    assert workloads.difference(ref, dict(ref, tiny=1e-11))
    assert workloads.difference(ref, dict(ref, labels=[1, 3]))
    assert workloads.difference(ref, dict(ref, answer="NO"))
    assert workloads.difference(ref, {"labels": [1, 2]})
    assert workloads.difference({"n": 1}, {"n": True})


def test_self_time_subtracts_union_of_children():
    spans = [
        {"run": "1", "id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"run": "1", "id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"run": "1", "id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps id 2
        {"run": "2", "id": 1, "parent": None, "start": 0.0, "end": 1.0},
    ]
    import tracer

    selfs = tracer.self_times(spans)
    assert selfs[("1", 1)] == pytest.approx(5.0)
    assert selfs[("1", 2)] == pytest.approx(4.0)
    assert selfs[("2", 1)] == pytest.approx(1.0)


def test_absent_name_is_reported_not_zero():
    import tracer

    absent = {"bosonbin.experiments._batch_probabilities", "bosonbin.problems.full_distribution"}
    metrics = tracer.layer_metrics([], absent, ("bosonbin.cli", "bosonbin.experiments"), 1)
    assert metrics["distribution.kernel_s"] is None
    assert metrics["fock.spaces"] == 0


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _bench("--workload", "collision_cf", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
