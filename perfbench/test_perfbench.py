"""Tests of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import check_all  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = last_json(bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny"))
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_matches_the_metrics_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def wrong(result):
    """A copy of a result with one value changed."""
    if isinstance(result, tuple) and result and isinstance(result[0], int):
        return (result[0] + 1,) + result[1:]
    if isinstance(result, dict):
        out = dict(result)
        key = next(iter(out))
        out[key] = out[key] + 1
        return out
    raise TypeError(f"no wrong value for {type(result)}")


@pytest.mark.parametrize(
    "name,kind",
    [("route_sweep", "kron_routes"), ("route_sweep", "reduced_routes"), ("route_sweep", "dim_identity"),
     ("route_sweep", "stabilization"), ("reduced_large", "reduced"), ("module_calculus", "restrict")],
)
def test_checker_counts_an_injected_wrong_value(name, kind):
    workload = workloads.WORKLOADS[name]("tiny")
    pairs = [(op, workload.run(op)) for op in workload.make_ops(5) if workload.kind(op) == kind]
    ops, results = (list(x) for x in zip(*pairs[:3]))
    assert check_all(workload, ops, results, {}) == []
    results[1] = wrong(results[1])
    failures = check_all(workload, ops, results, {})
    assert len(failures) == 1 and failures[0].startswith(f"op 1 {kind}:")


def test_checker_counts_wrong_cli_output_and_exit_status():
    workload = workloads.CliCold("tiny")
    ops = [["lr", "[2,1]", "[1]", "[3,1]", "--format", "json"], ["lr", "[2,1]", "[1]", "[2,2]", "--format", "json"]]
    good = [(0, json.dumps({"command": "lr", "value": 1}) + "\n", ""), (0, json.dumps({"value": 1}) + "\n", "")]
    assert check_all(workload, ops, good, {}) == []
    bad = [(0, json.dumps({"value": 2}) + "\n", ""), (1, "", "error")]
    assert len(check_all(workload, ops, bad, {})) == 2
    assert len(check_all(workload, ops, good, {0: "ValueError: boom"})) == 1


def test_route_sweep_has_the_default_sweep_rows():
    counts = {kind: len(cases) for kind, cases in workloads.RouteSweep("full").case_keys()}
    assert counts == {"kron_routes": 20673, "reduced_routes": 4638, "stabilization": 7, "dim_identity": 280}


def test_same_seed_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls("tiny").make_ops(7), cls("tiny").make_ops(7)
        assert [str(x) for x in a] == [str(x) for x in b], name


def test_latencies_are_scaled_by_the_probe_then_take_the_median():
    nominal = run.PROBE_NOMINAL_NS
    fast = {"latencies_ns": [1e6, 4e6], "probes": [nominal]}
    slow = {"latencies_ns": [2e6, 8e6], "probes": [nominal, 3 * nominal]}  # mean probe twice nominal
    burst = {"latencies_ns": [9e6, 4e6], "probes": [nominal]}
    assert run.op_latencies([fast, slow, burst]) == [1.0, 4.0]
    assert run.scaled_setup({"setup_s": 0.3, "setup_probe_ns": 3 * nominal}) == pytest.approx(0.1)


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(25598) == 25588
    assert run.tail_rank(20) == 10
    assert run.tail_rank(5) == 3


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "route_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
