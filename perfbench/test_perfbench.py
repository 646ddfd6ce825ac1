"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, run
from perfbench.workloads import GridIptw, Phase, RepFull, Unit, failed_replications

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bb():
    return run.load_program()


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def tiny_workloads(tmp_path):
    return [RepFull(n=120), GridIptw(tmp_path / "grid", reps_per_scenario=2)]


def test_declared_names_use_the_allowed_characters(spec):
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            assert UNIT.fullmatch(metric["unit"]), metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_workloads_exist(spec, tmp_path):
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads(tmp_path))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_declared_metric_is_printed_with_its_unit(bb, spec, tmp_path, trace):
    declared = run.declared_metrics()
    kind = "per_layer" if trace else "end_to_end"
    for workload in tiny_workloads(tmp_path):
        result, info = run.measure(workload, bb, seed=5, seconds=0.1, trace=trace, declared=declared)
        line = json.loads(json.dumps(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], info["problems"]
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            printed = line["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])
        if kind == "end_to_end":
            assert all(line["metrics"][m]["value"] > 0 for m in line["metrics"])


def test_traced_run_covers_every_layer(bb, tmp_path):
    result, _ = run.measure(RepFull(n=120), bb, seed=2, seconds=0.1, trace=True,
                            declared=run.declared_metrics())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("scenarios.generate_dataset.calls", "learners.fit_logistic.calls",
                 "kernels.gram_matrix.calls", "qpsolver.solve_qp.calls", "weights.tlf_fit.calls",
                 "estimators.OLS.calls", "harness.run_replication.calls"):
        assert metrics[name] > 0, name


def test_grid_round_records_summary_hash(bb, tmp_path):
    workload = GridIptw(tmp_path / "grid", reps_per_scenario=2)
    first = workload.phase(bb, seed=4, workers=1, indices=[0]).units[0]
    again = workload.phase(bb, seed=4, workers=2, indices=[0]).units[0]
    assert re.fullmatch(r"[0-9a-f]{64}", first.summary_sha256)
    assert first.summary_sha256 == again.summary_sha256


def feasible_att():
    T = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    w = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
    return w, T, np.ones(5, dtype=bool)


def test_weight_check_accepts_a_feasible_vector():
    w, T, kept = feasible_att()
    assert checks.check_weights(w, T, kept, "eb", "ATT") == []


@pytest.mark.parametrize("broken", [
    np.array([0.5, 0.5, -0.2, 0.7, 0.5]),   # negative control weight
    np.array([0.5, 0.5, 0.2, 0.3, 0.4]),    # control weights sum to 0.9
    np.array([0.6, 0.4, 0.2, 0.3, 0.5]),    # ATT treated weights differ from 1/N1
    np.array([0.5, 0.5, 0.2, np.nan, 0.5]),
])
def test_weight_check_rejects_an_infeasible_vector(broken):
    _, T, kept = feasible_att()
    assert checks.check_weights(broken, T, kept, "kom", "ATT")


def test_traced_run_counts_replications_with_infeasible_weights_as_failed(bb, monkeypatch):
    real = bb.weights.energy_balance

    @functools.wraps(real)
    def overweighted(*args, **kwargs):
        bw = real(*args, **kwargs)
        return dataclasses.replace(bw, values=bw.values * 1.01)

    monkeypatch.setattr(bb.weights, "energy_balance", overweighted)
    monkeypatch.setattr(bb.harness, "energy_balance", overweighted)
    result, info = run.measure(RepFull(n=120), bb, seed=2, seconds=0.1, trace=True,
                               declared=run.declared_metrics())
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any("eb/" in message for _, message in info["problems"])


def test_failed_counts_each_replication_once_across_passes():
    def key(replication):
        return (250, "common", "low", replication)

    first = Phase([Unit(0, 1.0, 3, problems=[(key(0), "range")]), Unit(1, 1.0, 3)])
    replay = Phase([Unit(0, 1.0, 3, problems=[(key(0), "weights"), (key(2), "weights")]),
                    Unit(1, 1.0, 3, problems=[(None, "summary")])])
    assert failed_replications(first) == 1
    assert failed_replications(first, replay) == 2 + 3


def test_record_check_rejects_a_missing_record(bb):
    config = bb.RunConfig(scenarios=((250, "common", "low"),), replications=1, methods=("iptw",))
    spec = bb.build_scenario("common", "low", 250, 0)
    records = bb.harness.run_replication(spec, 0, config, {})
    assert checks.check_records(records, config, 1) == []
    assert checks.check_records(records[:-1], config, 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rep_full_n250", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
