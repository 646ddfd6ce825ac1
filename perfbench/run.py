"""Run one benchmark workload against the balancebench sources of this checkout.

    python3 perfbench/run.py --workload grid_iptw_n250 --seed 3 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it holds the run's context (environment, sample counts,
solve quality, the summary.csv hash and, when traced, the tracing overhead).
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.environment import environment  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import failed_replications, workloads  # noqa: E402

SETUP_SAMPLES = 31
CORES = 2  # harness.pool_efficiency is measured against the two cores the workloads are sized for
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import balancebench
config = balancebench.RunConfig(**{kwargs!r})
specs = [balancebench.build_scenario(r, c, n, config.master_seed) for n, r, c in config.scenarios]
print(time.perf_counter() - t0)
"""


def load_program():
    """Import balancebench from this checkout's src/, refusing any other copy."""
    package = SRC / "balancebench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no balancebench sources at {package}")
    sys.path.insert(0, str(SRC))
    import balancebench

    if Path(balancebench.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported balancebench from {balancebench.__file__}, not {package}")
    return balancebench


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


class SetupSampler:
    """Times a fresh-process import of balancebench plus building the config and specs.

    The SETUP_SAMPLES samples are spread evenly over the timed work, between
    its units, so that their median stands for the whole run rather than for
    the moment before it.
    """

    def __init__(self, workload, seed: int, seconds: float):
        self.code = SETUP_CODE.format(src=str(SRC), kwargs=workload.config_kwargs(seed))
        self.seconds = seconds
        self.times: list[float] = []

    def sample_until(self, count: int) -> None:
        while len(self.times) < count:
            done = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, capture_output=True,
                                  text=True, timeout=120, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def keep_pace(self, units) -> None:
        done_s = sum(u.seconds for u in units)
        self.sample_until(math.ceil(SETUP_SAMPLES * min(done_s / self.seconds, 1.0)))


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest child's when a pool ran (Linux KiB units).

    Pool workers outgrow the set-up children, so the largest child is a worker.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def timing_summary(times: list) -> dict:
    """Median and the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    out = {"samples": len(times), "p50": statistics.median(times)}
    for pct, label in ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90")):
        if len(times) * (100.0 - pct) / 100.0 >= 10:
            out[label] = statistics.quantiles(times, n=1000)[int(pct * 10) - 1]
            break
    return out


def phase_figures(phase) -> dict:
    return {"reps_per_s": phase.replications / phase.seconds, "rep_s_p50": statistics.median(phase.rep_times),
            "timed_s": phase.seconds, "units": len(phase.units), "replications": phase.replications}


def measure(workload, bb, seed: int, seconds: float, trace: bool, declared: dict) -> tuple[dict, dict]:
    """(result, info) for one run; see the module docstring."""
    info = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": environment(ROOT, seed)}
    if not trace:
        setup = SetupSampler(workload, seed, seconds)
        setup.sample_until(1)
        workload.warm_up(bb, seed)
        phase = workload.phase(bb, seed, workload.workers, seconds, between=setup.keep_pace)
        setup.sample_until(SETUP_SAMPLES)
        rss = peak_rss_mb(workload.workers > 1)
        values = {**phase_figures(phase), "setup_s": statistics.median(setup.times), "peak_rss_mb": rss}
        info.update(phase_figures(phase), setup_s_samples=setup.times,
                    rep_s=timing_summary(phase.rep_times))
        problems = phase.problems
        failed = failed_replications(phase)
        names = declared["end_to_end"]
    else:
        workload.warm_up(bb, seed)
        phase = workload.phase(bb, seed, workload.workers, seconds / 2)
        indices = [u.index for u in phase.units]
        serial = phase if workload.workers == 1 else workload.phase(bb, seed, 1, indices=indices)
        tracer = Tracer()

        def attach_weight_problems(units):
            units[-1].problems += tracer.take_problems()

        with tracer.installed():
            traced = workload.phase(bb, seed, 1, indices=indices, between=attach_weight_problems)
        names = declared["per_layer"]
        values = tracer.layer_metrics(names)
        # untraced serial replication time over the pooled pass, so tracing cost stays out
        values["harness.pool_efficiency"] = sum(serial.rep_times) / (CORES * phase.seconds)
        values["trace.overhead_frac"] = traced.seconds / serial.seconds - 1.0
        spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans)
        info.update(untraced=phase_figures(phase), untraced_serial=phase_figures(serial),
                    traced=phase_figures(traced), spans=str(spans.relative_to(ROOT)),
                    spans_recorded=len(tracer.spans))
        replays = (traced,) if serial is phase else (serial, traced)
        problems = phase.problems + [p for replay in replays for p in replay.problems]
        failed = failed_replications(phase, *replays)
    quality = phase.quality
    values.update(checks.quality_fractions(quality))
    info.update(quality=dict(quality), summary_sha256=phase.units[0].summary_sha256, problems=problems[:20])
    missing = sorted(set(names) - set(values))
    if missing:
        raise KeyError(f"no value for declared metrics {missing}")
    result = {
        "correct": not problems,
        "attempted": phase.replications,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    declared = declared_metrics()
    bb = load_program()
    run_dir = OUT / f"run-{os.getpid()}"
    known = workloads(run_dir)
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(known)}")
    try:
        result, info = measure(known[args.workload], bb, args.seed, args.seconds, bool(args.trace), declared)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
