import concurrent.futures
import dataclasses
import json
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

import balancebench as bb
from balancebench import harness, kernels, learners, weights
from balancebench.errors import BalanceBenchError, ConfigError, GenerationError, NumericError
from balancebench.harness import (
    CANONICAL_ESTIMATORS,
    CANONICAL_LEARNERS,
    MetricsSummary,
    ReplicationRecord,
    RunConfig,
    config_from_mapping,
    config_to_text,
    parse_config_text,
    run_replication,
    summary_csv_lines,
)
from balancebench.scenarios import CONFOUNDING_LEVELS, RARITY_LEVELS
from balancebench.weights import ESTIMANDS, METHODS


def small_config(**kw):
    base = dict(
        scenarios=((250, "common", "low"),),
        replications=2,
        methods=("iptw",),
        learners=("oracle",),
        estimators=("WA",),
        estimands=("ATE",),
        master_seed=3,
    )
    base.update(kw)
    return RunConfig(**base)


def rec(value, estimator="WA", ci=None, reason="", cell=("iptw", "oracle", "ATE")):
    method, learner, estimand = cell
    valid = reason == "" and np.isfinite(value) and abs(value) <= 1
    return ReplicationRecord(
        500, "common", "low", 0, method, learner, estimator, estimand,
        value, None if ci is None else 0.1,
        None if ci is None else ci[0], None if ci is None else ci[1],
        valid, reason,
    )


def test_minimal_run_cardinality():
    records = bb.run(small_config())
    assert len(records) == 2
    assert all(r.valid for r in records)
    assert {r.replication for r in records} == {0, 1}


def test_cell_cardinality_learner_crossing():
    config = small_config(
        replications=3,
        methods=("iptw", "eb"),
        learners=("oracle", "logistic_mis"),
        estimators=("WA", "OLS"),
        estimands=("ATE", "ATT"),
    )
    records = bb.run(config)
    # iptw crosses 2 learners, eb carries none: (2 + 1) cells x 2 x 2 x 3 reps
    assert len(records) == 3 * 3 * 2 * 2
    eb_learners = {r.learner for r in records if r.method == "eb"}
    assert eb_learners == {"-"}


def test_records_deterministic_across_worker_counts():
    config = small_config(replications=6, methods=("iptw", "eb"), estimators=("WA", "OLS"))
    serial = bb.run(config)
    parallel = bb.run(small_config(replications=6, methods=("iptw", "eb"), estimators=("WA", "OLS"), workers=2))

    def strip(records):
        return [
            (r.scenario_n, r.rarity, r.confounding, r.replication, r.method, r.learner,
             r.estimator, r.estimand, r.value, r.se, r.ci_lo, r.ci_hi, r.valid, r.reason)
            for r in records
        ]

    assert strip(serial) == strip(parallel)


def test_failures_are_recorded_not_raised():
    config = small_config(
        scenarios=((250, "very_rare", "high"),),
        replications=25,
        methods=("eb",),
        estimators=("WA",),
        estimands=("ATE",),
    )
    records = bb.run(config)
    assert len(records) == 25
    valid = [r for r in records if r.valid]
    assert len(valid) >= 1
    for r in records:
        if not r.valid:
            assert r.reason != ""


def test_awa_uses_truncated_weights_under_trim99():
    config = small_config(estimators=("AWA",), replications=2)
    records = bb.run(config)
    assert len(records) == 2
    assert all(r.valid for r in records)


def test_summarize_basic_cells():
    records = [rec(0.1), rec(-0.1)]
    (s,) = bb.summarize(records)
    assert s.count == 2 and s.valid_pct == 1.0
    assert s.bias == pytest.approx(0.0, abs=1e-15)
    assert s.mae == pytest.approx(0.1)
    assert s.var == pytest.approx(0.02)
    assert s.spread_rmse == pytest.approx(0.1414, abs=5e-4)
    assert s.rmse_truth == pytest.approx(0.1)
    assert s.coverage is None


def test_summarize_excludes_out_of_range():
    records = [rec(0.5), rec(1.5)]
    (s,) = bb.summarize(records)
    assert s.valid_pct == 0.5
    assert s.bias == pytest.approx(0.5)
    assert s.var is None  # single valid estimate has no sample variance


def test_summarize_zero_valid():
    records = [rec(float("nan"), reason="solver_max_iter")]
    (s,) = bb.summarize(records)
    assert s.valid_pct == 0.0 and s.bias is None and s.coverage is None


def test_rmse_decomposition_identity():
    rng = np.random.default_rng(0)
    records = [rec(v) for v in rng.normal(0.03, 0.05, 40)]
    (s,) = bb.summarize(records)
    m = s.count
    pop_var = s.var * (m - 1) / m
    assert s.rmse_truth**2 == pytest.approx(s.bias**2 + pop_var, abs=1e-12)
    assert s.rmse_truth >= s.mae >= abs(s.bias)
    assert s.spread_rmse**2 == pytest.approx(s.var, abs=1e-12)


def test_coverage_rate():
    hits = [rec(0.0, estimator="OLS", ci=(-0.1, 0.1)) for _ in range(4)]
    assert bb.summarize(hits)[0].coverage == 1.0
    misses = [rec(0.3, estimator="OLS", ci=(0.2, 0.4)) for _ in range(4)]
    assert bb.summarize(misses)[0].coverage == 0.0
    assert bb.summarize([rec(0.1)])[0].coverage is None


def test_coverage_rate_matches_summarize():
    records = [
        rec(0.0, estimator="OLS", ci=(-0.1, 0.1)),
        rec(0.2, estimator="OLS", ci=(0.3, 0.4)),
        rec(1.5, estimator="OLS", ci=(-0.5, 3.5), reason="out_of_range"),
        rec(-2.0, estimator="OLS", ci=(-3.0, -1.0), reason="out_of_range"),
        rec(float("nan"), estimator="OLS", ci=(-1.0, 1.0), reason="solver_max_iter"),
        rec(0.05, estimator="OLS", ci=(0.0, 0.1), reason="flagged"),  # in bound, not valid
        rec(0.1, estimator="OLS"),
    ]
    (s,) = bb.summarize(records)
    assert s.coverage == pytest.approx(2 / 3)
    assert bb.summarize(records[2:5])[0].coverage is None


def test_summary_coverage_only_for_ci_records():
    records = [rec(0.0, estimator="OLS", ci=(-0.1, 0.1)), rec(0.2, estimator="OLS", ci=(0.3, 0.4))]
    (s,) = bb.summarize(records)
    assert s.coverage == 0.5


def test_emit_results_files(tmp_path):
    config = small_config(
        replications=2, estimands=("ATE", "ATT"),
        output_path=str(tmp_path), emit_raw=True,
    )
    records = bb.run(config)
    summaries = bb.summarize(records)
    paths = bb.emit_results(summaries, records, config, wall_time=1.0)

    lines = open(paths["summary"]).read().strip().splitlines()
    assert lines[0] == (
        "scenario_n,rarity,confounding,estimator,method,learner,estimand,"
        "valid_pct,bias,mae,spread_rmse,var,rmse_truth,coverage"
    )
    assert len(lines) == 3  # header + 2 estimand cells

    raw = [json.loads(l) for l in open(paths["records"]).read().splitlines()]
    assert len(raw) == 4
    manifest = open(paths["manifest"]).read()
    assert "seed = 3" in manifest


def test_records_ndjson_rows_are_the_record_fields(tmp_path):
    config = small_config(
        methods=("iptw", "eb"), estimators=("WA", "OLS"), crude=True, output_path=str(tmp_path), emit_raw=True
    )
    records = bb.run(config)
    records.append(rec(float("nan"), estimator="OLS", reason="solver_max_iter"))
    paths = bb.emit_results(bb.summarize(records), records, config)
    columns = [f.name for f in dataclasses.fields(ReplicationRecord)]

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = [json.loads(line, parse_constant=strict) for line in open(paths["records"]).read().splitlines()]
    assert len(rows) == len(records) == 2 * (2 * 2 + 1) + 1
    for row, r in zip(rows, records):
        assert list(row) == columns
        for column in columns:
            want = getattr(r, column)
            assert row[column] == (None if isinstance(want, float) and np.isnan(want) else want)
    assert rows[-1]["value"] is None
    statuses = {(row["method"], row["solver_status"]) for row in rows[:-1]}
    assert statuses == {("iptw", "closed_form"), ("eb", "optimal"), ("crude", None)}


def test_records_are_slotted_and_carry_their_solver_status(monkeypatch):
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5, crude=True)
    spec = bb.build_scenario("common", "moderate", 250, 5)
    records = run_replication(spec, 0, config, FIXED_TLF_HYPER)
    assert len(records) == 37 and all(r.valid for r in records)
    assert not any(hasattr(r, "__dict__") for r in records)
    for r in records:
        if r.method == "crude":
            assert r.solver_status is None and r.diagnostics == {}
        else:
            assert r.solver_status is not None and r.diagnostics == {"solver_status": r.solver_status}

    blob = pickle.dumps(records)
    assert pickle.loads(blob) == records
    tracemalloc.start()
    try:
        loaded = pickle.loads(blob)
        per_record = tracemalloc.get_traced_memory()[0] / len(loaded)
    finally:
        tracemalloc.stop()
    assert per_record <= 350  # about 470 B with an instance dict and a diagnostics dict per record

    real = weights.tlf_fit
    monkeypatch.setattr(weights, "tlf_fit", lambda *args: dataclasses.replace(real(*args), converged=False))
    failed = [r for r in run_replication(spec, 0, config, FIXED_TLF_HYPER) if r.method == "tlf"]
    assert len(failed) == 6
    assert all(r.reason == "solver_max_iter" and r.solver_status is None and r.diagnostics == {} for r in failed)


def test_summary_roundtrip_to_printed_precision(tmp_path):
    config = small_config(replications=5, output_path=str(tmp_path))
    records = bb.run(config)
    summaries = bb.summarize(records)
    bb.emit_results(summaries, records, config)
    lines = open(os.path.join(str(tmp_path), "summary.csv")).read().strip().splitlines()
    row = lines[1].split(",")
    s = summaries[0]
    assert float(row[7]) == pytest.approx(s.valid_pct, rel=1e-5)
    assert float(row[8]) == pytest.approx(s.bias, rel=1e-5)


def test_manifest_replay_reproduces_summary(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    config = config_from_mapping({
        "scenarios": "250:common:low",
        "reps": "4", "methods": "iptw,eb", "learners": "oracle",
        "estimators": "WA,OLS", "estimands": "ATE", "seed": "9",
        "out": str(out1),
    })
    records = bb.run(config)
    paths = bb.emit_results(bb.summarize(records), records, config)

    mapping = parse_config_text(open(paths["manifest"]).read())
    mapping["out"] = str(out2)
    replay = config_from_mapping(mapping)
    records2 = bb.run(replay)
    bb.emit_results(bb.summarize(records2), records2, replay)

    a = open(out1 / "summary.csv").read()
    b = open(out2 / "summary.csv").read()
    assert a == b


def test_manifest_records_blas_and_threads_and_round_trips(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    config = small_config(estimands=("ATE", "ATT"), output_path=str(tmp_path))
    records = bb.run(config)
    paths = bb.emit_results(bb.summarize(records), records, config)
    text = open(paths["manifest"]).read()
    comments = text.splitlines()
    assert any(line.startswith("# blas = ") and line != "# blas = " for line in comments)
    assert "# OPENBLAS_NUM_THREADS = 1" in comments
    assert "# OMP_NUM_THREADS = unset" in comments
    replay = config_from_mapping(parse_config_text(text))
    assert replay == dataclasses.replace(config, output_path=None)


def test_config_parsing_errors():
    with pytest.raises(ConfigError):
        parse_config_text("reps = 5\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some text\n")
    for mapping in ({}, {"reps": "5", "out": "x"}):
        with pytest.raises(ConfigError, match="scenarios = grid or scenarios = n:rarity:confounding"):
            config_from_mapping(mapping)
    with pytest.raises(ConfigError, match="bad scenario triple 'grid'"):
        config_from_mapping({"scenarios": "grid;250:common:low", "out": "x"})
    with pytest.raises(ConfigError):
        config_from_mapping({"scenarios": "250:common:low", "methods": "iptw,magic"})
    with pytest.raises(ConfigError):
        RunConfig(scenarios=((250, "common", "low"),), replications=0)


def test_config_text_roundtrip():
    config = config_from_mapping({"scenarios": "grid", "reps": "7", "seed": "5"})
    assert config.scenarios == tuple((s.n, s.rarity, s.confounding) for s in bb.grid_scenarios())
    text = config_to_text(config)
    assert text.splitlines()[0] == "scenarios = grid"
    again = config_from_mapping(parse_config_text(text))
    assert again.scenarios == config.scenarios
    assert again.replications == 7 and again.master_seed == 5


_ESTIMATOR_ORDER = CANONICAL_ESTIMATORS + ("crude",)
_METHOD_ORDER = METHODS + ("crude",)
_LEARNER_ORDER = CANONICAL_LEARNERS + ("-",)


def _sort_key(r) -> tuple:
    """Canonical order of records and summaries: scenario, replication, then
    estimator, method, learner and estimand."""
    return (
        r.scenario_n,
        RARITY_LEVELS.index(r.rarity),
        CONFOUNDING_LEVELS.index(r.confounding),
        getattr(r, "replication", 0),
        _ESTIMATOR_ORDER.index(r.estimator),
        _METHOD_ORDER.index(r.method),
        _LEARNER_ORDER.index(r.learner),
        ESTIMANDS.index(r.estimand),
    )


def _in_canonical_order(items) -> bool:
    keys = [_sort_key(item) for item in items]
    return all(a < b for a, b in zip(keys, keys[1:]))


def test_records_summaries_and_manifest_come_in_canonical_order(tmp_path):
    config = config_from_mapping({
        "scenarios": "120:rare:high;100:common:low", "reps": "2", "methods": "iptw,eb",
        "crude": "true", "out": str(tmp_path),
    })
    assert config.scenarios == ((100, "common", "low"), (120, "rare", "high"))
    spec = bb.build_scenario("rare", "high", 120, config.master_seed)
    alone = run_replication(spec, 1, config, {})
    assert len(alone) == (3 + 1) * 3 * 2 + 1 and _in_canonical_order(alone)

    records = bb.run(config)
    summaries = bb.summarize(records)
    assert len(records) == 2 * 2 * len(alone) and _in_canonical_order(records)
    assert len(summaries) == 2 * len(alone) and _in_canonical_order(summaries)
    paths = bb.emit_results(summaries, records, config)
    assert "scenarios = 100:common:low;120:rare:high" in open(paths["manifest"]).read().splitlines()


def test_duplicated_scenario_counts_once():
    base = {"reps": "2", "methods": "iptw", "learners": "oracle", "estimators": "WA", "estimands": "ATE"}
    twice = config_from_mapping({**base, "scenarios": "250:common:low;250:common:low"})
    once = config_from_mapping({**base, "scenarios": "250:common:low"})
    assert twice.scenarios == once.scenarios == ((250, "common", "low"),)
    summaries = bb.summarize(bb.run(twice))
    assert summaries == bb.summarize(bb.run(once))
    assert [s.count for s in summaries] == [2]


def test_tlf_through_harness_uses_cached_hyper():
    config = small_config(
        scenarios=((100, "common", "low"),),
        replications=2,
        methods=("tlf",),
        estimators=("WA",),
        estimands=("ATE",),
    )
    records = bb.run(config)
    assert len(records) == 2
    assert all(r.learner == "-" for r in records)
    assert all(r.valid for r in records)


def test_uncertified_tlf_fit_becomes_invalid_record(monkeypatch):
    real = weights.tlf_fit
    monkeypatch.setattr(weights, "tlf_fit", lambda *args: dataclasses.replace(real(*args), converged=False))
    config = small_config(methods=("tlf",), estimators=("WA", "OLS"), estimands=("ATE", "ATT"))
    spec = bb.build_scenario("common", "low", 250, config.master_seed)
    hyper = {estimand: {"lambda": 1e-2, "gamma": 0.5} for estimand in ("ATE", "ATT")}
    records = run_replication(spec, 0, config, hyper)
    assert len(records) == 4
    assert all(not r.valid and r.reason == "solver_max_iter" for r in records)


def test_generation_failure_invalidates_every_record(monkeypatch):
    def fail(*args, **kwargs):
        raise GenerationError("no usable sample")

    monkeypatch.setattr(harness, "generate_dataset", fail)
    monkeypatch.setattr(harness, "tlf_hyperparameters", lambda spec, config: FIXED_TLF_HYPER)
    config = RunConfig(scenarios=((250, "common", "low"),), replications=2, master_seed=3, crude=True)
    records = bb.run(config)  # raises unless the count is the expected one
    # (3 IPTW learners + EB + KOM + TLF) x 2 estimands x 3 estimators, plus crude, per replication
    assert len(records) == 2 * (6 * 2 * 3 + 1)
    assert all(not r.valid and r.reason == "generation_failed: no usable sample" for r in records)


def test_failed_learner_fit_is_tried_once_and_invalidates_only_its_records(monkeypatch):
    real = harness._propensity
    fits = []

    def fit(ds, kind):
        fits.append((kind, "propensity"))
        if kind == "logistic_mis":
            raise NumericError("no convergence")
        return real(ds, kind)

    monkeypatch.setattr(harness, "_propensity", fit)
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5, crude=True)
    records = run_replication(bb.build_scenario("common", "moderate", 250, 5), 0, config, FIXED_TLF_HYPER)
    assert fits.count(("logistic_mis", "propensity")) == 1
    failed = [r for r in records if r.learner == "logistic_mis"]
    assert len(failed) == 6 and all(r.method == "iptw" for r in failed)
    assert all(not r.valid and r.reason == "numeric_failure: no convergence" for r in failed)
    assert all(r.valid for r in records if r.learner != "logistic_mis")


def test_tlf_without_hyperparameters_for_an_estimand_raises():
    config = small_config(methods=("iptw", "tlf"), estimands=("ATE", "ATT"))
    spec = bb.build_scenario("common", "low", 250, config.master_seed)
    with pytest.raises(BalanceBenchError, match="ATT"):
        run_replication(spec, 0, config, {"ATE": FIXED_TLF_HYPER["ATE"]})


TWO_SCENARIOS = ((250, "common", "low"), (250, "rare", "low"))


def test_record_count_mismatch_raises(monkeypatch):
    real = harness.run_replication
    monkeypatch.setattr(harness, "run_replication", lambda *args: real(*args)[:-1])
    with pytest.raises(BalanceBenchError, match="record count"):
        bb.run(small_config())
    # pool workers are forked, so they run the patched function too
    with pytest.raises(BalanceBenchError, match="record count"):
        bb.run(small_config(scenarios=TWO_SCENARIOS, workers=2))


def _all_but_wall_time(records):
    return [repr(dataclasses.replace(r, wall_time=0.0)) for r in records]


def _count_pools(monkeypatch):
    """A list that gets the max_workers of every pool harness opens."""
    opened = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return opened


def test_run_opens_one_pool_and_matches_each_scenario_run_alone(monkeypatch):
    scenarios = TWO_SCENARIOS + ((300, "very_rare", "high"),)
    config = small_config(scenarios=scenarios, replications=3, methods=("iptw", "eb"),
                          learners=("oracle", "logistic_mis"), estimators=("WA", "AWA"), crude=True)
    expected = _all_but_wall_time(
        [r for s in scenarios for r in bb.run(dataclasses.replace(config, scenarios=(s,)))]
    )
    opened = _count_pools(monkeypatch)
    for workers in (1, 2):
        calls = []
        records = bb.run(dataclasses.replace(config, workers=workers),
                         progress=lambda *args: calls.append(args))
        assert _all_but_wall_time(records) == expected
        assert [(i, scenario) for i, scenario, _ in calls] == list(enumerate(scenarios))
        assert all(seconds >= 0.0 for _, _, seconds in calls)
        assert opened == ([] if workers == 1 else [2])


def test_error_while_collecting_cancels_the_rest_of_the_run(monkeypatch, tmp_path):
    ran = tmp_path / "ran"
    real = harness.run_replication

    def first_short_rest_slow(spec, *args):
        if spec.rarity == "common":
            return real(spec, *args)[:-1]
        with open(ran, "a") as fh:
            fh.write("x")
        time.sleep(1.0)
        return real(spec, *args)

    monkeypatch.setattr(harness, "run_replication", first_short_rest_slow)
    with pytest.raises(BalanceBenchError, match="record count"):
        bb.run(small_config(scenarios=TWO_SCENARIOS, replications=10, workers=2))
    # only the tasks already handed to a worker ran, not the second scenario's ten
    assert len(ran.read_text() if ran.exists() else "") < 10


def test_crude_mode_adds_records():
    config = small_config(crude=True)
    records = bb.run(config)
    crude = [r for r in records if r.method == "crude"]
    assert len(crude) == 2
    assert all(abs(r.value) <= 1 for r in crude)


def test_summary_csv_formatting_absent_fields():
    s = MetricsSummary(250, "common", "low", "WA", "eb", "-", "ATE",
                       10, 0.0, None, None, None, None, None, None)
    line = summary_csv_lines([s])[1]
    assert line == "250,common,low,WA,eb,-,ATE,0,,,,,,"

    s = MetricsSummary(500, "rare", "high", "OLS", "iptw", "oracle", "ATT",
                       10, 0.9, -0.0123456789, 0.5, 1 / 3, 2e-7, 123456.789, 0.95)
    cells = summary_csv_lines([s])[1].split(",")
    assert cells[:7] == ["500", "rare", "high", "OLS", "iptw", "oracle", "ATT"]
    metrics = ("valid_pct", "bias", "mae", "spread_rmse", "var", "rmse_truth", "coverage")
    assert cells[7:] == [f"{getattr(s, m):.6g}" for m in metrics]


FIXED_TLF_HYPER = {estimand: {"lambda": 1e-2, "gamma": 0.5} for estimand in ("ATE", "ATT")}


def count_calls(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        log.append((name, args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def geometry_calls(monkeypatch):
    log = []
    for name in ("squared_distances", "distance_matrix", "gram_matrix", "median_heuristic"):
        count_calls(monkeypatch, kernels, name, log)
    count_calls(monkeypatch, weights, "gram_matrix", log)
    count_calls(monkeypatch, weights, "gp_ridge_selection", log)
    return log


def factorization_calls(monkeypatch):
    """(factorization, weight method running it) for every eigh and Cholesky."""
    log, running = [], []
    for name in ("energy_balance", "kom_weights", "tlf_weights"):
        real = getattr(harness, name)

        def method(*args, _real=real, _name=name, **kwargs):
            running.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(harness, name, method)
    for name in ("eigh", "cholesky"):
        real = getattr(np.linalg, name)

        def factorization(*args, _real=real, _name=name, **kwargs):
            log.append((_name, running[-1] if running else None))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, factorization)
    return log


def test_default_replication_builds_each_geometry_piece_once(monkeypatch):
    log = geometry_calls(monkeypatch)
    factorizations = factorization_calls(monkeypatch)
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5)
    spec = bb.build_scenario("common", "moderate", 250, 5)
    records = run_replication(spec, 0, config, FIXED_TLF_HYPER)
    assert all(r.valid for r in records)
    names = [name for name, _, _ in log]
    assert {name: names.count(name) for name in set(names)} == {
        "squared_distances": 2, "distance_matrix": 1, "median_heuristic": 1,
        "gram_matrix": 2, "gp_ridge_selection": 2,
    }
    families = sorted(args[0].family for name, args, _ in log if name == "gram_matrix")
    assert families == ["gaussian", "laplacian"]
    # one eigh per KOM group serves its ridge and its QPs' faces: KOM takes no
    # Cholesky, EB one per final face
    assert sorted(factorizations) == [
        ("cholesky", "energy_balance"), ("cholesky", "energy_balance"),
        ("eigh", "kom_weights"), ("eigh", "kom_weights"),
    ]


def test_default_replication_fits_and_weighs_each_piece_once(monkeypatch):
    log = []
    count_calls(monkeypatch, learners, "fit_logistic", log)
    for name in ("iptw_weights", "energy_balance", "kom_weights", "tlf_weights"):
        count_calls(monkeypatch, harness, name, log)
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5)
    run_replication(bb.build_scenario("common", "moderate", 250, 5), 0, config, FIXED_TLF_HYPER)
    names = [name for name, _, _ in log]
    # a propensity and two outcome fits per fitted learner; IPTW weighs each
    # (learner, estimand) under trim99 for WA and OLS, and under cap99 for AWA
    assert {name: names.count(name) for name in set(names)} == {
        "fit_logistic": 6, "iptw_weights": 12, "energy_balance": 2, "kom_weights": 2, "tlf_weights": 2,
    }
    iptw = [args for name, args, _ in log if name == "iptw_weights"]
    assert sorted(args[3] for args in iptw) == ["cap99"] * 6 + ["trim99"] * 6
    # the log keeps each learner's scores alive, so their ids tell the learners apart
    assert len({id(args[0]) for args in iptw}) == 3
    assert len({(id(args[0]), args[2], args[3]) for args in iptw}) == 12


def test_default_replication_builds_each_design_once(monkeypatch):
    log = []
    count_calls(monkeypatch, learners, "engineer_features", log)
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5)
    run_replication(bb.build_scenario("common", "moderate", 250, 5), 0, config, FIXED_TLF_HYPER)
    # one design per (fitted learner, target); each outcome arm fits on its rows
    assert len(log) == 4
    assert sorted((args[1], args[2]) for _, args, _ in log) == [
        ("outcome", False), ("outcome", True), ("propensity", False), ("propensity", True),
    ]


def test_one_class_outcome_arm_gets_its_constant_surface(monkeypatch):
    # replication 36 of n=250 very_rare/low under master seed 300000 has 10
    # treated rows, none with an event
    spec = bb.build_scenario("very_rare", "low", 250, 300000)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 36))
    assert ds.Y[ds.T == 1.0].max() == 0.0 and ds.Y[ds.T == 0.0].max() == 1.0
    surfaces = harness._surfaces(ds, "logistic_well")
    assert np.all(surfaces.mu1 == learners.PROB_CLAMP)
    assert np.all((surfaces.mu0 > learners.PROB_CLAMP) & (surfaces.mu0 < 1.0 - learners.PROB_CLAMP))

    log = []
    count_calls(monkeypatch, learners, "fit_logistic", log)
    config = small_config(scenarios=((250, "very_rare", "low"),), learners=harness.CANONICAL_LEARNERS,
                          estimators=("AWA",), estimands=("ATE", "ATT"), master_seed=300000)
    records = run_replication(spec, 36, config, {})
    # a propensity and a control-arm outcome fit per fitted learner; none for the treated arm
    assert len(log) == 4
    assert len(records) == 6 and all(r.valid and r.reason == "" for r in records)


def test_iptw_only_replication_builds_no_geometry(monkeypatch):
    log = geometry_calls(monkeypatch)
    config = small_config(learners=("oracle", "logistic_well"), estimands=("ATE", "ATT"))
    spec = bb.build_scenario("common", "low", 250, config.master_seed)
    records = run_replication(spec, 0, config, {})
    assert len(records) == 4 and all(r.valid for r in records)
    assert log == []


def test_standalone_weights_equal_replication_weights(monkeypatch):
    used = {}
    for name in ("energy_balance", "kom_weights", "tlf_weights"):
        real = getattr(harness, name)

        def capture(*args, _real=real, **kwargs):
            bw = _real(*args, **kwargs)
            used[(bw.method, bw.estimand)] = bw.values
            return bw

        monkeypatch.setattr(harness, name, capture)
    config = small_config(methods=("eb", "kom", "tlf"), estimands=("ATE", "ATT"))
    spec = bb.build_scenario("common", "low", 250, config.master_seed)
    run_replication(spec, 1, config, FIXED_TLF_HYPER)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 1))
    for estimand in ("ATE", "ATT"):
        alone = {
            "eb": weights.energy_balance(bb.Geometry(ds.X), ds.T, estimand),
            "kom": weights.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, estimand),
            "tlf": weights.tlf_weights(bb.Geometry(ds.X), ds.T, estimand, hyper=FIXED_TLF_HYPER[estimand]),
        }
        for method, bw in alone.items():
            assert np.array_equal(bw.values, used[(method, estimand)]), (method, estimand)


def test_uncertified_kom_ate_group_qp_invalidates_every_kom_ate_record(monkeypatch):
    config = small_config(methods=("eb", "kom"), estimators=("WA", "AWA", "OLS"), estimands=("ATE", "ATT"))
    spec = bb.build_scenario("common", "low", 250, config.master_seed)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    assert len({ds.n1, ds.n0, ds.n}) == 3  # only KOM-ATE's treated-group QP has n1 variables
    real = weights.solve_qp

    def solve(qp, *args, **kwargs):
        sol = real(qp, *args, **kwargs)
        return dataclasses.replace(sol, status="max_iter") if qp.n == ds.n1 else sol

    monkeypatch.setattr(weights, "solve_qp", solve)
    records = run_replication(spec, 0, config, {})
    kom_ate = [r for r in records if r.method == "kom" and r.estimand == "ATE"]
    others = [r for r in records if not (r.method == "kom" and r.estimand == "ATE")]
    assert len(kom_ate) == 3 and len(others) == 9
    assert all(not r.valid and r.reason == "solver_max_iter" for r in kom_ate)
    assert all(r.valid for r in others)



def test_replication_drops_geometry_arrays_once_read(monkeypatch):
    made = []

    class Recorded(kernels.Geometry):
        def __init__(self, X):
            super().__init__(X)
            made.append(self)

    held = {}
    real = kernels.gram_matrix

    def gram(kernel, *args, **kwargs):
        held[kernel.family] = sorted(str(k) for k, v in made[0]._memo.items() if isinstance(v, np.ndarray))
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(harness, "Geometry", Recorded)
    monkeypatch.setattr(kernels, "gram_matrix", gram)
    config = RunConfig(scenarios=((250, "common", "moderate"),), replications=1, master_seed=5)
    run_replication(bb.build_scenario("common", "moderate", 250, 5), 0, config, FIXED_TLF_HYPER)
    assert held == {"gaussian": ["distances"], "laplacian": []}
    assert not any(isinstance(v, np.ndarray) for v in made[0]._memo.values())


def test_tlf_selection_builds_each_gram_once_for_both_estimands(monkeypatch):
    log = []
    count_calls(monkeypatch, weights, "gram_matrix", log)
    config = RunConfig(scenarios=((250, "common", "moderate"),), methods=("tlf",), master_seed=5)
    spec = bb.build_scenario("common", "moderate", 250, 5)
    hyper = harness.tlf_hyperparameters(spec, config)
    assert set(hyper) == {"ATE", "ATT"}
    assert sorted(args[0].scale for _, args, _ in log) == sorted(weights.TLF_GAMMA_GRID)


def test_tlf_selection_that_certifies_no_point_invalidates_tlf_records(monkeypatch):
    config = RunConfig(
        scenarios=((250, "common", "moderate"),), replications=1, methods=("iptw", "tlf"),
        learners=("oracle",), estimators=("WA",), master_seed=5,
    )
    spec = bb.build_scenario("common", "moderate", 250, 5)

    def uncertified(K, T, estimand, lam):
        return weights.TlfModel(np.zeros(T.size), 0.0, False, 0, 1.0)

    with monkeypatch.context() as patched:
        patched.setattr(weights, "tlf_fit", uncertified)
        hyper = harness.tlf_hyperparameters(spec, config)
    assert hyper == {"ATE": None, "ATT": None}
    records = run_replication(spec, 0, config, hyper)
    tlf = [r for r in records if r.method == "tlf"]
    assert len(tlf) == 2
    assert all(not r.valid and r.reason.startswith("numeric_failure: ") for r in tlf)
    assert all(r.valid for r in records if r.method == "iptw")


def test_joint_tlf_selection_equals_selection_per_estimand(monkeypatch):
    spec = bb.build_scenario("rare", "high", 120, 4)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    monkeypatch.setattr(weights, "TLF_LAMBDA_GRID", (1e-3, 1e-2, 1e-1))
    monkeypatch.setattr(weights, "TLF_GAMMA_GRID", (0.5, 1.0))
    monkeypatch.setattr(weights, "TLF_FOLDS", 3)
    joint = weights.select_tlf_hyper(ds.X, ds.T, ("ATE", "ATT"))
    assert joint == {e: weights.select_tlf_hyper(ds.X, ds.T, (e,))[e] for e in ("ATE", "ATT")}


def test_bad_values_raise_config_error():
    base = {"scenarios": "250:common:low"}
    for key, value in (
        ("reps", "1.5"), ("workers", "-2"), ("crude", "maybe"), ("scenarios", "250:often:low"), ("seed", "-1"),
    ):
        with pytest.raises(ConfigError):
            config_from_mapping({**base, key: value})
    for triple in ("10:common:low", "250:common", ""):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenarios": triple})
    for kw in (
        {"workers": 0}, {"scenarios": ((19, "common", "low"),)}, {"scenarios": ((250.5, "common", "low"),)},
        {"replications": 2.5}, {"workers": 1.5}, {"master_seed": 0.5}, {"master_seed": -1},
        {"scenarios": "grid"}, {"scenarios": ((250, "common"),)}, {"scenarios": 5}, {"scenarios": None},
        {"scenarios": ((250, ["common"], "low"),)}, {"crude": "no"}, {"emit_raw": 1},
    ):
        with pytest.raises(ConfigError):
            small_config(**kw)
    assert small_config(crude=np.True_).crude is True
    for seed in (1.5, "3"):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            bb.build_scenario("common", "low", 250, seed)
