"""The benchmark's workloads.

Every workload is a closed loop with one load-generating process: a unit of
work starts when the previous one ends. A unit is one replication
(rep_full_n250) or one grid round of `run` + `summarize` + `emit_results`
(grid_iptw_n250). Unit inputs depend only on the workload seed and the unit's
index. Records are checked and counted as each unit ends, then dropped, so the
benchmark's own memory stays flat however many units a run makes.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import checks

RARITIES = ("common", "rare", "very_rare")
CONFOUNDINGS = ("low", "moderate", "high")
FIXED_TLF_HYPER = {estimand: {"lambda": 1e-2, "gamma": 0.5} for estimand in ("ATE", "ATT")}
# Seeds of successive units are spaced so that distinct workload seeds never share a unit.
UNIT_STRIDE = 100_000


@dataclass
class Unit:
    """What one unit of work produced, after its checks."""

    index: int
    seconds: float
    replications: int
    rep_times: list = field(default_factory=list)
    quality: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)  # (replication key or None, message)
    summary_sha256: str | None = None


@dataclass
class Phase:
    units: list

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.units)

    @property
    def replications(self) -> int:
        return sum(u.replications for u in self.units)

    @property
    def rep_times(self) -> list:
        return [t for u in self.units for t in u.rep_times]

    @property
    def quality(self) -> Counter:
        return sum((u.quality for u in self.units), Counter())

    @property
    def problems(self) -> list:
        return [p for u in self.units for p in u.problems]


def failed_replications(first: Phase, *replays: Phase) -> int:
    """Replications of `first` with a problem in it or in a replay of its units.

    A problem that names no replication fails every replication of its unit.
    """
    keys = {u.index: set() for u in first.units}
    for phase in (first, *replays):
        for u in phase.units:
            keys[u.index].update(key for key, _ in u.problems)
    return sum(u.replications if None in keys[u.index] else len(keys[u.index]) for u in first.units)


class Workload:
    name = ""
    workers = 1

    def config_kwargs(self, seed: int, index: int = 0) -> dict:
        raise NotImplementedError

    def work(self, bb, seed: int, index: int, workers: int):
        """The timed part of one unit; returns what `check` needs."""
        raise NotImplementedError

    def warm_up(self, bb, seed: int) -> None:
        """Untimed work that lets lazy set-up finish before the timed units."""

    def check(self, bb, seed: int, index: int, seconds: float, output) -> Unit:
        raise NotImplementedError

    def phase(self, bb, seed: int, workers: int, seconds: float | None = None, indices=None,
              between=None) -> Phase:
        """Units 0, 1, ... until the next would take the timed work past `seconds`
        (at least one unit), or exactly the units in `indices`.

        `between(units)`, if given, is called after each unit with the units so
        far; its own time is not timed work.
        """
        units: list[Unit] = []
        for index in itertools.count() if indices is None else indices:
            t0 = perf_counter()
            output = self.work(bb, seed, index, workers)
            units.append(self.check(bb, seed, index, perf_counter() - t0, output))
            if between is not None:
                between(units)
            timed = [u.seconds for u in units]
            if indices is None and sum(timed) + statistics.median(timed) > seconds:
                break
        return Phase(units)


class RepFull(Workload):
    """Back-to-back default replications: IPTW x 3 learners, EB, KOM and TLF at fixed
    (lambda, gamma); WA, AWA and OLS; ATE and ATT; trim99."""

    name = "rep_full_n250"

    def __init__(self, n: int = 250):
        self.n = n

    def warm_up(self, bb, seed):
        self.work(bb, seed, UNIT_STRIDE - 1, 1)

    def config_kwargs(self, seed, index=0):
        return {"scenarios": ((self.n, "common", "moderate"),), "replications": 1,
                "master_seed": seed, "workers": 1}

    def work(self, bb, seed, index, workers):
        config = bb.RunConfig(**self.config_kwargs(seed))
        spec = bb.build_scenario("common", "moderate", self.n, config.master_seed)
        return config, bb.harness.run_replication(spec, index, config, FIXED_TLF_HYPER)

    def check(self, bb, seed, index, seconds, output):
        config, records = output
        return Unit(index, seconds, 1, [seconds], checks.quality_counts(records),
                    checks.check_records(records, config, 1))


class GridIptw(Workload):
    """run() over the nine n=250 scenarios, IPTW only, all learners, estimators and
    estimands, crude and emit_raw on, then summarize and emit_results."""

    name = "grid_iptw_n250"
    workers = 2

    def __init__(self, out_dir: Path, reps_per_scenario: int = 100):
        self.out_dir = Path(out_dir)
        self.reps_per_scenario = reps_per_scenario

    def config_kwargs(self, seed, index=0):
        return {"scenarios": tuple((250, r, c) for r in RARITIES for c in CONFOUNDINGS),
                "replications": self.reps_per_scenario, "methods": ("iptw",),
                "master_seed": seed * UNIT_STRIDE + index, "crude": True, "emit_raw": True}

    def work(self, bb, seed, index, workers):
        out = self.out_dir / f"round{index}"
        config = bb.RunConfig(**self.config_kwargs(seed, index), workers=workers, output_path=str(out))
        t0 = perf_counter()
        records = bb.run(config)
        run_seconds = perf_counter() - t0
        summaries = bb.summarize(records)
        paths = bb.emit_results(summaries, records, config, wall_time=run_seconds)
        return config, records, paths, out

    def check(self, bb, seed, index, seconds, output):
        config, records, paths, out = output
        problems = checks.check_records(records, config, config.replications)
        problems += checks.check_summary(paths["summary"], records, bb.harness.SUMMARY_HEADER)
        with open(paths["summary"], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(out)
        # one wall time per replication, copied onto each of its records
        rep_times = list({checks.replication_key(r): r.wall_time for r in records}.values())
        return Unit(index, seconds, len(rep_times), rep_times, checks.quality_counts(records), problems, sha)


def workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (RepFull(), GridIptw(out_dir))}
