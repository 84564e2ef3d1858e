"""Alternated parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --out BENCH.json \
        recover=921-930 density=931-933 cli=931-933

Each WORKLOAD=FIRST-LAST argument runs one pair per seed.  A pair runs
``perfbench/run.py --trace 0`` of the change tree (the tree this script sits
in) once with the working directory in each tree, so one copy of the
benchmark code measures both packages; the side that runs first alternates
from pair to pair.  The output holds every run's metrics, each side's median
and quartiles per metric, the pairs the change wins, whether each side's
interquartile range stays within the metric's bound of that side's own
median (``steady``), and the machine.  The metric directions and bounds come from the change tree's
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent


def workload_seeds(text: str) -> tuple:
    name, _, span = text.partition("=")
    first, _, last = span.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        seeds = []
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=FIRST-LAST with FIRST < LAST, got {text!r}")
    return name, seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(CHANGE / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                          timeout=30 * seconds + 600)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [pair[side]["metrics"][name] for pair in pairs]
                 for side in ("parent", "change")}
        stats = {side: quartiles(values) for side, values in sides.items()}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = parent - change if lower else change - parent
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        change_iqr = stats["change"]["q3"] - stats["change"]["q1"]
        summary[name] = {
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_gain": gain / parent,
            "parent_iqr": iqr,
            "change_iqr": change_iqr,
            # a gain counts when the change wins nine pairs in ten and its
            # median moves by more than the parent's interquartile range
            "gain_holds": wins >= 0.9 * len(pairs) and gain > iqr,
            "within_bound": -gain / parent <= metric["bound"],
            # the runs tell the sides apart only while each side's
            # interquartile range stays within the bound, taken as a share
            # of that side's own median: a host's drift is relative, so a
            # faster side spreads more in the metric's unit
            "steady": (iqr <= metric["bound"] * abs(parent)
                       and change_iqr <= metric["bound"] * abs(change)),
        }
    return summary


def machine() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent source tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("plan", nargs="+", type=workload_seeds,
                        metavar="WORKLOAD=FIRST-LAST")
    args = parser.parse_args(argv)
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": CHANGE}
    result = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for workload, seeds in args.plan:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}",
                      file=sys.stderr)
            pairs.append(pair)
        result["workloads"][workload] = {
            "runs": pairs, "summary": summarize(pairs, bench["end_to_end"])}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
