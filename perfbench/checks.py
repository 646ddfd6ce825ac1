"""Output checks. Each function returns a list of problems; empty means correct.

A problem with records is a (replication key, message) pair. The key is
(scenario_n, rarity, confounding, replication), or None when the problem
concerns the whole unit of work rather than one replication.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# A weight set counts as certified only when its solve proved itself.
CERTIFIED_STATUSES = frozenset({"optimal", "converged", "closed_form", "degenerate_uniform"})
GROUP_SUM_TOL = 1e-6
ATT_TREATED_RTOL = 1e-9
_NORMALIZED_METHODS = ("eb", "kom", "tlf")


def replication_key(record) -> tuple:
    return (record.scenario_n, record.rarity, record.confounding, record.replication)


def check_records(records, config, replications: int) -> list[tuple]:
    """Record count per (scenario, replication) and range of every valid estimate."""
    problems = []
    # cells x estimators x estimands, plus one crude record when enabled
    expected = len(config.cells()) * len(config.estimators) * len(config.estimands) + int(config.crude)
    per_rep = Counter(replication_key(r) for r in records)
    if len(per_rep) != len(config.scenarios) * replications:
        problems.append((None, f"{len(per_rep)} (scenario, replication) pairs, expected "
                               f"{len(config.scenarios) * replications}"))
    for key, count in per_rep.items():
        if count != expected:
            problems.append((key, f"{count} records, expected {expected}"))
    for r in records:
        if r.valid and not (math.isfinite(r.value) and -1.0 <= r.value <= 1.0):
            problems.append((replication_key(r), f"valid {r.method}/{r.estimator}/{r.estimand} estimate "
                                                 f"{r.value!r} is not finite in [-1, 1]"))
    return problems


def check_weights(values, T, kept, method: str, estimand: str) -> list[str]:
    """Feasibility of one weight vector.

    Weights are finite and nonnegative. EB, KOM and TLF weights sum to one in
    each group. Under ATT every kept treated unit weighs exactly 1/N1.
    """
    w = np.asarray(values, dtype=float)
    T = np.asarray(T, dtype=float)
    kept = np.asarray(kept, dtype=bool)
    label = f"{method}/{estimand} weights"
    if w.shape != T.shape or kept.shape != T.shape:
        return [f"{label}: shape {w.shape} does not match treatment {T.shape}"]
    if not np.all(np.isfinite(w)):
        return [f"{label}: non-finite entries"]
    problems = []
    if np.any(w < 0.0):
        problems.append(f"{label}: {int(np.sum(w < 0.0))} negative entries")
    treated = T == 1.0
    if method in _NORMALIZED_METHODS:
        for name, mask in (("treated", treated), ("control", ~treated)):
            total = float(w[mask].sum())
            if abs(total - 1.0) > GROUP_SUM_TOL:
                problems.append(f"{label}: {name} weights sum to {total!r}, not 1")
    if estimand == "ATT":
        n1 = int(treated.sum())
        kept_treated = w[treated & kept]
        if n1 and not np.allclose(kept_treated, 1.0 / n1, rtol=ATT_TREATED_RTOL, atol=0.0):
            problems.append(f"{label}: treated weights differ from 1/N1 = {1.0 / n1!r}")
    return problems


def check_summary(path, records, header: str) -> list[tuple]:
    """summary.csv has the documented header and one row per record cell."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return [(None, f"{path}: unexpected header")]
    cells = {r.cell_key() for r in records}
    if len(lines) - 1 != len(cells):
        return [(None, f"{path}: {len(lines) - 1} rows for {len(cells)} cells")]
    return []


def weight_set_statuses(records) -> dict:
    """Solver status of each weight set behind the records.

    A weight set is one (scenario, replication, method, learner, estimand);
    a set the harness rejected carries its status in the reason code. Sets
    that failed before any solve (no status on any record) are left out.
    """
    statuses = {}
    for r in records:
        status = r.diagnostics.get("solver_status")
        if status is None and r.reason.startswith("solver_"):
            status = r.reason[len("solver_"):]
        if status is not None:
            key = replication_key(r) + (r.method, r.learner, r.estimand)
            statuses[key] = status
    return statuses


def quality_counts(records) -> Counter:
    """Records, invalid records, weight sets and uncertified weight sets."""
    statuses = weight_set_statuses(records)
    return Counter(
        records=len(records),
        invalid_records=sum(1 for r in records if not r.valid),
        weight_sets=len(statuses),
        uncertified_weight_sets=sum(1 for s in statuses.values() if s not in CERTIFIED_STATUSES),
    )


def quality_fractions(counts: Counter) -> dict:
    """fail_frac (invalid records / records) and uncertified_frac (weight sets)."""
    return {
        "fail_frac": counts["invalid_records"] / counts["records"] if counts["records"] else 0.0,
        "uncertified_frac": (counts["uncertified_weight_sets"] / counts["weight_sets"]
                             if counts["weight_sets"] else 0.0),
    }
