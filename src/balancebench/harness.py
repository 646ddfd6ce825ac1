"""Monte Carlo benchmark harness.

Runs replications over the scenario grid, applies every requested
(method x learner x estimator x estimand) combination, aggregates the
performance metrics, and emits result files. Failed combinations are recorded
with a reason code; a run never aborts on a solver failure.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import learners
from .errors import BalanceBenchError, ConfigError, EstimationError, GenerationError, NumericError
from .estimators import EffectEstimate, ResponseSurfaces, augmented_weighted_average, in_range, weighted_average, weighted_ols
from .kernels import Geometry
from .scenarios import (
    CONFOUNDING_LEVELS,
    HYPER_STREAM,
    RARITY_LEVELS,
    ScenarioSpec,
    build_scenario,
    crude_estimate,
    generate_dataset,
    grid_scenarios,
    replication_rng,
)
from .weights import (
    ESTIMANDS,
    METHODS,
    energy_balance,
    iptw_weights,
    kom_weights,
    select_tlf_hyper,
    tlf_weights,
)

CANONICAL_LEARNERS = ("oracle", "logistic_well", "logistic_mis")
CANONICAL_ESTIMATORS = ("WA", "AWA", "OLS")

# IPTW's weight post-processing per estimator: the augmented estimator keeps
# every observation and truncates extreme weights instead of removing them
IPTW_POSTPROC = {"WA": "trim99", "AWA": "cap99", "OLS": "trim99"}

SUMMARY_HEADER = (
    "scenario_n,rarity,confounding,estimator,method,learner,estimand,"
    "valid_pct,bias,mae,spread_rmse,var,rmse_truth,coverage"
)

_ACCEPTED_SOLVER_STATUSES = {"optimal", "closed_form", "converged"}


def _canonical_subset(requested, canonical, what) -> tuple:
    requested = tuple(requested)
    unknown = [r for r in requested if r not in canonical]
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(map(str, unknown))}")
    if not requested:
        raise ConfigError(f"at least one {what.rstrip('s')} must be selected")
    return tuple(c for c in canonical if c in requested)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; selections are normalized into canonical order
    (scenarios by n, rarity and confounding), without duplicates."""

    scenarios: tuple
    replications: int = 5000
    methods: tuple = METHODS
    learners: tuple = CANONICAL_LEARNERS
    estimators: tuple = CANONICAL_ESTIMATORS
    estimands: tuple = ESTIMANDS
    master_seed: int = 0
    workers: int = 1
    output_path: str | None = None
    emit_raw: bool = False
    crude: bool = False

    def __post_init__(self):
        scenarios = set()
        for n, rarity, confounding in self.scenarios:
            spec = build_scenario(rarity, confounding, n)
            scenarios.add((spec.n, rarity, confounding))
        if not scenarios:
            raise ConfigError("at least one scenario must be selected")
        object.__setattr__(self, "scenarios", tuple(sorted(
            scenarios, key=lambda s: (s[0], RARITY_LEVELS.index(s[1]), CONFOUNDING_LEVELS.index(s[2]))
        )))
        object.__setattr__(self, "methods", _canonical_subset(self.methods, METHODS, "methods"))
        object.__setattr__(self, "learners", _canonical_subset(self.learners, CANONICAL_LEARNERS, "learners"))
        object.__setattr__(
            self, "estimators", _canonical_subset(self.estimators, CANONICAL_ESTIMATORS, "estimators")
        )
        object.__setattr__(self, "estimands", _canonical_subset(self.estimands, ESTIMANDS, "estimands"))
        for name in ("replications", "master_seed", "workers"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def cells(self) -> list[tuple[str, str | None]]:
        """(method, learner) pairs: IPTW crosses with learners, the rest carry none."""
        out: list[tuple[str, str | None]] = []
        for method in self.methods:
            if method == "iptw":
                out.extend((method, learner) for learner in self.learners)
            else:
                out.append((method, None))
        return out


@dataclass(slots=True)
class ReplicationRecord:
    """One estimate of one cell in one replication. Slotted: a grid run holds
    every record of the run in one process."""

    scenario_n: int
    rarity: str
    confounding: str
    replication: int
    method: str
    learner: str
    estimator: str
    estimand: str
    value: float
    se: float | None
    ci_lo: float | None
    ci_hi: float | None
    valid: bool
    reason: str
    solver_status: str | None = None  # of the weight set; None for crude and failed records
    wall_time: float = 0.0

    @property
    def diagnostics(self) -> dict:
        """Read-only {"solver_status": s}, or {} without a status; kept because
        perfbench's checks read the status through it."""
        return {} if self.solver_status is None else {"solver_status": self.solver_status}

    def cell_key(self):
        return (
            self.scenario_n,
            self.rarity,
            self.confounding,
            self.estimator,
            self.method,
            self.learner,
            self.estimand,
        )


@dataclass
class MetricsSummary:
    scenario_n: int
    rarity: str
    confounding: str
    estimator: str
    method: str
    learner: str
    estimand: str
    count: int
    valid_pct: float
    bias: float | None
    mae: float | None
    spread_rmse: float | None
    var: float | None
    rmse_truth: float | None
    coverage: float | None


class _Invalid(Exception):
    """A failure already turned into the reason code of every record that needs its result."""


def _reason_from(exc: Exception) -> str:
    if isinstance(exc, _Invalid):
        return str(exc)
    names = {
        ValueError: "invalid_input",
        EstimationError: "estimation_failed",
        NumericError: "numeric_failure",
        GenerationError: "generation_failed",
    }
    label = names.get(type(exc), type(exc).__name__.lower())
    return f"{label}: {exc}"


def _propensity(ds, kind) -> tuple:
    """(propensity scores at every row, diagnostics), from the truth or a
    learner fitted and evaluated on its one design matrix."""
    if kind == "oracle":
        return ds.e_true, {}
    design = learners.engineer_features(ds.X, "propensity", kind == "logistic_well")
    model = learners.fit_logistic(design, ds.T)
    return learners.predict_proba(model, design), {"ridge_used": model.ridge_used}


def _surfaces(ds, kind) -> ResponseSurfaces:
    """Both response surfaces at every row, from the truth or a learner fitted
    on each arm's rows of its one design matrix. An arm whose outcomes are all
    one class has no logistic MLE; its surface is that class, clamped as
    predict_proba clamps."""
    if kind == "oracle":
        return ResponseSurfaces(ds.mu_true, ds.mu_true)
    design = learners.engineer_features(ds.X, "outcome", kind == "logistic_well")

    def surface(arm):
        y = ds.Y[arm]
        if y.min() == y.max():
            return np.full(ds.n, np.clip(y[0], learners.PROB_CLAMP, 1.0 - learners.PROB_CLAMP))
        return learners.predict_proba(learners.fit_logistic(design[arm], y), design)

    ctrl = ds.T == 0.0
    return ResponseSurfaces(surface(ctrl), surface(~ctrl))


def run_replication(spec: ScenarioSpec, replication: int, config: RunConfig, tlf_hyper: dict) -> list[ReplicationRecord]:
    """All records for one replication, in canonical order: for each estimator,
    each (method, learner) of config.cells(), then each estimand; the crude
    record last.

    The dataset, the geometry, each learner's propensity scores and response
    surfaces, and each (method, learner, estimand, IPTW post-processing)
    weight set are computed by `once`, on first use. A failure there
    (including a solver status that is not accepted) is kept as its reason
    code and invalidates every record that needs that result; a failing
    estimator invalidates its own record. TLF needs `tlf_hyper` for every
    configured estimand.
    """
    start = time.perf_counter()
    if "tlf" in config.methods and (missing := [e for e in config.estimands if e not in tlf_hyper]):
        raise BalanceBenchError(f"no TLF hyperparameters for estimand {', '.join(missing)}")
    memo: dict = {}

    def once(key, compute):
        """compute() at the first use of key, its result at each later use; a
        failure is kept as its reason code and raised again at each use."""
        if key not in memo:
            try:
                memo[key] = compute()
            except Exception as exc:  # noqa: BLE001 - failures are data here
                memo[key] = _Invalid(_reason_from(exc))
        value = memo[key]
        if isinstance(value, _Invalid):
            raise _Invalid(*value.args)
        return value

    def generate():
        return generate_dataset(spec, replication_rng(spec, replication))

    def weigh(method, learner, estimand, postproc):
        ds = once("data", generate)
        if method == "iptw":
            scores, diag = once(("propensity", learner), lambda: _propensity(ds, learner))
            bw = iptw_weights(scores, ds.T, estimand, postproc)
            bw.diagnostics.update(diag)
        else:
            geometry = once("geometry", lambda: Geometry(ds.X))  # built lazily, shared by EB, KOM and TLF
            if method == "eb":
                bw = energy_balance(geometry, ds.T, estimand)
            elif method == "kom":
                bw = kom_weights(geometry, ds.T, ds.Y, estimand)
            else:
                bw = tlf_weights(geometry, ds.T, estimand, tlf_hyper[estimand])
        status = bw.diagnostics["solver_status"]
        if status not in _ACCEPTED_SOLVER_STATUSES:
            raise _Invalid(f"solver_{status}")
        return bw

    def record(method, learner, estimator, estimand):
        try:
            ds = once("data", generate)
            if method == "crude":
                est, status = EffectEstimate(crude_estimate(ds), None, None, True), None
            else:
                key = (method, learner, estimand, IPTW_POSTPROC[estimator] if method == "iptw" else None)
                bw = once(key, lambda: weigh(*key))
                status = bw.diagnostics.get("solver_status")
                if estimator == "WA":
                    est = weighted_average(ds.Y, ds.T, bw)
                elif estimator == "OLS":
                    est = weighted_ols(ds.Y, ds.T, bw)
                else:
                    kind = learner if method == "iptw" else config.learners[0]
                    surfaces = once(("surfaces", kind), lambda: _surfaces(ds, kind))
                    est = augmented_weighted_average(ds.Y, ds.T, bw, surfaces)
            reason = "" if est.valid else "out_of_range"
        except Exception as exc:  # noqa: BLE001 - failures are data here
            est, status = EffectEstimate(float("nan"), None, None, False), None
            reason = _reason_from(exc)
        return ReplicationRecord(
            spec.n, spec.rarity, spec.confounding, replication, method, learner or "-", estimator,
            estimand, est.value, est.se, *(est.ci95 or (None, None)), est.valid, reason, status,
        )

    records = []
    for estimator in config.estimators:
        for method, learner in config.cells():
            for estimand in config.estimands:
                records.append(record(method, learner, estimator, estimand))
            if method != "iptw" and "geometry" in memo:
                # this method's arrays are no longer read; KOM takes its bandwidth from EB's distances
                memo["geometry"].release(keep_distances=method == "eb" and "kom" in config.methods)
    if config.crude:
        records.append(record("crude", None, "crude", "ATE"))

    elapsed = time.perf_counter() - start
    for r in records:
        r.wall_time = elapsed
    return records


def tlf_hyperparameters(spec: ScenarioSpec, config: RunConfig) -> dict:
    """Per-scenario (lambda, gamma), selected once on a reserved-stream dataset."""
    if "tlf" not in config.methods:
        return {}
    ds = generate_dataset(spec, replication_rng(spec, HYPER_STREAM))
    selected = select_tlf_hyper(ds.X, ds.T, config.estimands)
    return {estimand: {"lambda": lam, "gamma": gamma} for estimand, (lam, gamma) in selected.items()}


def _worker(args):
    return run_replication(*args)


def run(config: RunConfig, progress=None) -> list[ReplicationRecord]:
    """Every configured scenario's records, in canonical order: scenario by
    scenario, each replication's as run_replication makes them. Every
    scenario's tasks, TLF selection included, are built first; with workers > 1
    they all go to one process pool, so no worker idles between scenarios, and
    an error while collecting cancels the work not yet started. `progress(i,
    scenario, seconds)`, if given, is called once per scenario in order; the
    seconds are those since the previous call (the first since the start of the
    run), so they add up to the run's wall time."""
    start = time.perf_counter()
    tasks = []
    for n, rarity, confounding in config.scenarios:
        spec = build_scenario(rarity, confounding, n, config.master_seed)
        tlf_hyper = tlf_hyperparameters(spec, config)
        tasks.append([(spec, rep, config, tlf_hyper) for rep in range(config.replications)])
    expected = config.replications * len(config.cells()) * len(config.estimators) * len(config.estimands)
    if config.crude:
        expected += config.replications

    def collect(batches_by_scenario):
        all_records: list[ReplicationRecord] = []
        last = start
        for i, (scenario, batches) in enumerate(zip(config.scenarios, batches_by_scenario)):
            records = [r for batch in batches for r in batch]
            if len(records) != expected:
                raise BalanceBenchError(f"record count {len(records)} != expected {expected}")
            all_records.extend(records)
            if progress is not None:
                now = time.perf_counter()
                progress(i, scenario, now - last)
                last = now
        return all_records

    if config.workers == 1:
        return collect(map(_worker, t) for t in tasks)
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool opens

    chunk = max(1, config.replications // (config.workers * 8))
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        try:
            return collect([pool.map(_worker, t, chunksize=chunk) for t in tasks])
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# The generator's true ATE and ATT.
TRUE_EFFECT = 0.0


def summarize(records) -> list[MetricsSummary]:
    """One MetricsSummary per (scenario, estimator, method, learner, estimand)
    cell, in the order the cells' first records come.

    Estimates outside estimators.ESTIMATE_RANGE (and failed records) are
    excluded from every moment; valid_pct reports the fraction retained.
    Errors are taken from TRUE_EFFECT.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault(r.cell_key(), []).append(r)
    summaries = []
    for key in groups:
        rs = groups[key]
        vals = np.array([r.value for r in rs if in_range(r.value)])
        m = vals.size
        if m == 0:
            summaries.append(MetricsSummary(*key, len(rs), 0.0, None, None, None, None, None, None))
            continue
        err = vals - TRUE_EFFECT
        bias = float(err.mean())
        mae = float(np.abs(err).mean())
        rmse_truth = float(np.sqrt((err**2).mean()))
        var = float(vals.var(ddof=1)) if m >= 2 else None
        spread = float(np.sqrt(var)) if var is not None else None
        coverage = _coverage(rs)
        summaries.append(
            MetricsSummary(*key, len(rs), m / len(rs), bias, mae, spread, var, rmse_truth, coverage)
        )
    return summaries


def _coverage(records) -> float | None:
    """Fraction of CI-carrying records with an in-range estimate whose interval
    contains TRUE_EFFECT; None when there are none."""
    covered = [r.ci_lo <= TRUE_EFFECT <= r.ci_hi for r in records if r.ci_lo is not None and in_range(r.value)]
    return float(np.mean(covered)) if covered else None


# ---------------------------------------------------------------------------
# Configuration text format and result emission
# ---------------------------------------------------------------------------

class ConfigKey(NamedTuple):
    field: str  # the RunConfig field it sets
    kind: str  # "int", "str", "list" (comma-separated), "bool" or "scenarios"
    help: str


# Every run setting: a `key = value` line of a config file and of manifest.txt,
# and the CLI flag --key (with '-' for '_'). RunConfig holds the defaults.
CONFIG_KEYS = {
    "scenarios": ConfigKey(
        "scenarios", "scenarios",
        "grid (all 36 benchmark scenarios) or semicolon-separated n:rarity:confounding triples "
        f"(rarity: {', '.join(RARITY_LEVELS)}; confounding: {', '.join(CONFOUNDING_LEVELS)})",
    ),
    "reps": ConfigKey("replications", "int", "replications per scenario"),
    "methods": ConfigKey("methods", "list", f"comma-separated subset of {','.join(METHODS)}"),
    "learners": ConfigKey("learners", "list", f"comma-separated subset of {','.join(CANONICAL_LEARNERS)}"),
    "estimators": ConfigKey("estimators", "list", f"comma-separated subset of {','.join(CANONICAL_ESTIMATORS)}"),
    "estimands": ConfigKey("estimands", "list", f"comma-separated subset of {','.join(ESTIMANDS)}"),
    "seed": ConfigKey("master_seed", "int", "master seed"),
    "out": ConfigKey("output_path", "str", "output directory (required)"),
    "workers": ConfigKey("workers", "int", "worker process count (default 1)"),
    "emit_raw": ConfigKey("emit_raw", "bool", "also write per-replication records.ndjson"),
    "crude": ConfigKey("crude", "bool", "also record the crude (unweighted) estimator per replication"),
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' starts a comment; unknown keys are errors."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        mapping[key] = value
    return mapping


# What `scenarios = grid` selects.
_GRID = tuple((s.n, s.rarity, s.confounding) for s in grid_scenarios())


def _parse_value(key: str, kind: str, text: str):
    """The value of one setting from its text, whether it came from a file or the CLI."""
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {text!r}") from None
    if kind == "bool":
        word = text.strip().lower()
        if word not in _TRUE | _FALSE:
            raise ConfigError(f"{key} expects a boolean, got {text!r}")
        return word in _TRUE
    if kind == "list":
        return tuple(x.strip() for x in text.split(",") if x.strip())
    if kind == "scenarios":
        if text.strip() == "grid":
            return _GRID
        scenarios = []
        for part in filter(None, (p.strip() for p in text.split(";"))):
            bits = part.split(":")
            if len(bits) != 3:
                raise ConfigError(f"bad scenario triple {part!r}; expected n:rarity:confounding")
            scenarios.append((_parse_value(key, "int", bits[0]), bits[1], bits[2]))
        return tuple(scenarios)
    return text


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a RunConfig from string key/value pairs (config file or CLI);
    scenarios is required, and other keys left out keep RunConfig's defaults."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    if "scenarios" not in mapping:
        raise ConfigError("select scenarios with scenarios = grid or scenarios = n:rarity:confounding;...")
    return RunConfig(**{
        CONFIG_KEYS[key].field: _parse_value(key, CONFIG_KEYS[key].kind, text) for key, text in mapping.items()
    })


def _format_value(kind: str, value) -> str:
    if kind == "list":
        return ",".join(value)
    if kind == "scenarios":
        return "grid" if value == _GRID else ";".join(f"{n}:{r}:{c}" for n, r, c in value)
    return str(value).lower() if kind == "bool" else str(value)


def config_to_text(config: RunConfig) -> str:
    """Config echo in the same key=value format parse_config_text accepts,
    without the output directory."""
    lines = [
        f"{key} = {_format_value(entry.kind, getattr(config, entry.field))}"
        for key, entry in CONFIG_KEYS.items()
        if entry.field != "output_path"
    ]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """A summary.csv cell: empty for None, .6g for a float, str otherwise."""
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summary_csv_lines(summaries) -> list[str]:
    """SUMMARY_HEADER, then one row per summary of the header's own columns."""
    columns = SUMMARY_HEADER.split(",")
    return [SUMMARY_HEADER] + [",".join(_cell(getattr(s, c)) for c in columns) for s in summaries]


# The keys of a records.ndjson row: every ReplicationRecord field.
RECORD_COLUMNS = tuple(f.name for f in fields(ReplicationRecord))


def _json_value(value):
    """A records.ndjson value: null for a non-finite float, which strict JSON cannot hold."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_name() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def emit_results(summaries, records, config: RunConfig, wall_time: float = 0.0) -> dict:
    """Write summary.csv, optional records.ndjson, and manifest.txt; returns paths."""
    out = config.output_path
    if out is None:
        raise ConfigError("no output path configured")
    try:
        os.makedirs(out, exist_ok=True)
        paths = {"summary": os.path.join(out, "summary.csv")}
        with open(paths["summary"], "w") as fh:
            fh.write("\n".join(summary_csv_lines(summaries)) + "\n")
        if config.emit_raw:
            paths["records"] = os.path.join(out, "records.ndjson")
            with open(paths["records"], "w") as fh:
                for r in records:
                    row = {c: _json_value(getattr(r, c)) for c in RECORD_COLUMNS}
                    fh.write(json.dumps(row, allow_nan=False) + "\n")
        paths["manifest"] = os.path.join(out, "manifest.txt")
        with open(paths["manifest"], "w") as fh:
            fh.write("# balancebench run manifest; reusable as --config\n")
            fh.write(f"# wall_time_seconds = {wall_time:.3f}\n")
            fh.write(f"# python = {sys.version.split()[0]}\n")
            fh.write(f"# numpy = {np.__version__}\n")
            fh.write(f"# blas = {_blas_name()}\n")
            for var in _THREAD_VARS:
                fh.write(f"# {var} = {os.environ.get(var, 'unset')}\n")
            fh.write(config_to_text(config))
        return paths
    except OSError as exc:
        raise ConfigError(f"cannot write results under {out!r}: {exc}") from exc
