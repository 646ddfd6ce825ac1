"""Run the benchmark over sets of seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads rep_full_n250,grid_iptw_n250 \
        --seeds 1-10 --seeds 11-20 --seeds 1,1,1,1,1 --traced --out perfbench/trajectory/00-seed.json

Each ``--seeds`` option is one independent set of untraced runs, made one at a
time, seed by seed across the workloads. A seed may repeat: a set of one seed
repeated measures the host's noise on fixed inputs. For each set, workload and
end-to-end metric the report gives the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json. With two or more sets it also gives, per metric, how much
worse each later set's median is than the first set's, as a share of it. With
``--traced`` each workload first gets one traced run on the first seed. The
report is rewritten after each stage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.environment import git_commit  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - start}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound, "values": values}
    return out


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first` (negative: better)."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", action="append", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",")
    report = {"label": args.label, "commit": git_commit(ROOT), "seconds": seconds, "sets": []}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    def save():
        out.write_text(json.dumps(report, indent=1) + "\n")

    if args.traced:
        seed = parse_seeds(args.seeds[0])[0]
        report["traced"] = {name: run_once(name, seed, seconds, 1) for name in names}
        for name, traced in report["traced"].items():
            print(name, "traced", json.dumps(traced["info"]["untraced"]), json.dumps(traced["info"]["traced"]),
                  flush=True)
        save()
    for text in args.seeds:
        runs = {name: [] for name in names}
        for seed in parse_seeds(text):
            for name in names:
                runs[name].append(run_once(name, seed, seconds, 0))
                print(name, seed, {k: round(v["value"], 4)
                                   for k, v in runs[name][-1]["result"]["metrics"].items()}, flush=True)
        entry = {"seeds": parse_seeds(text), "workloads": {}}
        for name in names:
            entry["workloads"][name] = {"summary": summarise(runs[name], bounds), "runs": runs[name]}
            for metric, stats in entry["workloads"][name]["summary"].items():
                print(f"  {name} {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f} "
                      f"(bound {stats['bound']})", flush=True)
        report["sets"].append(entry)
        save()
    if len(report["sets"]) > 1:
        first = report["sets"][0]["workloads"]
        report["worse_than_first_set"] = [
            {name: {metric: worse_by(first[name]["summary"][metric]["median"],
                                     later["workloads"][name]["summary"][metric]["median"], better[metric])
                    for metric in bounds}
             for name in names}
            for later in report["sets"][1:]
        ]
        print("worse than first set:", json.dumps(report["worse_than_first_set"]), flush=True)
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
