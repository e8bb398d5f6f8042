"""Smoke tests for the benchmark itself, on tiny versions of each workload.

    python3 -m pytest perfbench

They check that the emitted metric names and units match BENCHMARK.json,
that the oracle rejects wrong answers, and that every deterministic
number repeats exactly between two runs with the same seed.
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs the source path above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "adder16-addsub": dataclasses.replace(
        bench.WORKLOADS["adder16-addsub"], chains=4, sweeps=30, reference=(4, 65, 128, 5)),
    "mult8-factor": dataclasses.replace(
        bench.WORKLOADS["mult8-factor"], chains=2, sweeps=20, recorded=20,
        reference=(2, 179, 1408, 5)),
    "train-mult4": dataclasses.replace(
        bench.WORKLOADS["train-mult4"], reference=(32, 16, 64, 5),
        config={"epochs_per_stage": 1, "k_max": 2, "patience": 4}),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two untraced and two traced runs of each tiny workload, seed 7."""
    out = {}
    for name, workload in TINY.items():
        for trace in (False, True):
            out[name, trace] = [
                bench.run(workload, 7, 0.0, trace, tmp_path_factory.mktemp(name))[:2]
                for _ in range(2)
            ]
    return out


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert list(TINY) == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", list(TINY))
def test_metric_names_and_units_match_benchmark_json(runs, name, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for result, _ in runs[name, trace]:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1


@pytest.mark.parametrize("name", list(TINY))
def test_deterministic_numbers_repeat(runs, name):
    (r1, rep1), (r2, rep2) = runs[name, False]
    assert rep1["deterministic"] == rep2["deterministic"]
    assert (r1["attempted"], r1["failed"]) == (r2["attempted"], r2["failed"])
    assert rep1["fail_frac"] == rep2["fail_frac"]
    (t1, _), (t2, _) = runs[name, True]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "flop", "bytes")]
    assert {k: t1["metrics"][k]["value"] for k in counts} == {
        k: t2["metrics"][k]["value"] for k in counts}


@pytest.mark.parametrize("name", list(TINY))
def test_relative_latency_is_the_median_ratio_to_the_reference(runs, name):
    for result, report in runs[name, False]:
        ratios = [a / r for a, r in zip(report["latencies_s"], report["reference_s"])]
        assert len(ratios) == bench.TIMED_OPS
        assert result["metrics"]["op_p50_rel"]["value"] == statistics.median(ratios)
        assert len(report["setup_runs_s"]) == bench.SETUP_REPEATS


def test_tracing_does_not_change_outputs(runs):
    for name in TINY:
        for result, report in runs[name, True]:
            assert "tracing changed the output" not in report["failures"]


def _solved_add(workload, tmp_path):
    model = bench.prepare_model(workload.model, tmp_path)
    task, seed = item = next(workload.inputs(0))
    result = workload.execute(model, item)
    c = task.clamps
    total = c["A"] + c["B"] + c["Cin"]
    terminals = {f"S{j}": total >> j & 1 for j in range(16)} | {"Cout": total >> 16}
    right = dataclasses.replace(result, terminals=terminals,
                                operands=bench.decode(terminals), success=True)
    return item, right


def test_oracle_accepts_right_and_rejects_wrong_sums(tmp_path):
    workload = TINY["adder16-addsub"]
    item, right = _solved_add(workload, tmp_path)
    assert workload.check(item, right) is None
    wrong_bits = right.terminals | {"S0": 1 - right.terminals["S0"]}
    wrong = dataclasses.replace(right, terminals=wrong_bits,
                                operands=bench.decode(wrong_bits))
    assert "oracle False" in workload.check(item, wrong)
    honest = dataclasses.replace(wrong, success=False)
    assert "wrong answer" in workload.check(item, honest)
    short = dataclasses.replace(right, total=right.total - 1)
    assert "pooled" in workload.check(item, short)
    mismatched = dataclasses.replace(right, operands={"S": 0, "Cout": 0})
    assert "decode" in workload.check(item, mismatched)


def test_oracle_checks_factor_and_difference_arithmetic():
    workload = bench.WORKLOADS["mult8-factor"]
    task = bench.tasks.TaskSpec("factor", 8, {"P": 143})
    assert workload.solved(task, {"A": 11, "B": 13})
    assert not workload.solved(task, {"A": 1, "B": 143})
    assert not workload.solved(task, {"A": 12, "B": 12})
    adder = bench.WORKLOADS["adder16-addsub"]
    assert adder.solved(bench.tasks.TaskSpec("subtract", 16, {"S": 900, "B": 55}), {"A": 845})
    assert not adder.solved(bench.tasks.TaskSpec("subtract", 16, {"S": 900, "B": 55}), {"A": 846})


def test_oracle_rejects_a_misreported_training_accuracy():
    workload = TINY["train-mult4"]
    config = next(workload.inputs(0))
    rbm, log = workload.execute(None, config)
    assert workload.check(config, (rbm, log)) is None
    tampered = [dict(row) for row in log]
    best = max(tampered, key=lambda row: row["accuracy"] or -1.0)
    best["accuracy"] += 1 / 64
    assert "oracle" in workload.check(config, (rbm, tampered))


def test_tail_leaves_ten_samples_beyond():
    value, pct = bench.tail([float(x) for x in range(31)])
    assert value == 20.0 and pct == pytest.approx(200 / 3)
    with pytest.raises(ValueError):
        bench.tail([1.0] * 10)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adder16-addsub",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
