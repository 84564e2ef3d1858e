"""Benchmark of freedeconv on three workloads: recover, density and cli.

Run from the root of a freedeconv source tree:

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0

The package is imported from ./src.  The run sets up (imports freedeconv,
builds the inputs and their references, runs one untimed warm-up), then runs
whole rounds of the workload's operations for about --seconds, checks
every output against the benchmark's own references and prints one JSON
object as its last line of standard output.  With --trace 0 that object
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a run in which every call into a layer is timed.  Details: README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One process with at most one thread per core, BLAS included; CLI children
# inherit the limit.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOAD_NAMES = ("recover", "density", "cli")
# setup_s is the median over this many set-ups, each in a fresh process:
# the run's own and SETUP_SAMPLES - 1 set-up-only runs made after timing.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def use_source_tree() -> None:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "freedeconv", "__init__.py")):
        print("perfbench: ./src/freedeconv not found; run from the root of a "
              "freedeconv source tree", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def run_op(op):
    """Time op.run, then check its output; returns (passed, seconds)."""
    from freedeconv.errors import FreeDeconvError

    start = time.perf_counter()
    try:
        out = op.run()
    except FreeDeconvError as exc:
        elapsed = time.perf_counter() - start
        print(f"perfbench: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, elapsed
    elapsed = time.perf_counter() - start
    return bool(op.check(out)), elapsed


def set_up(name, seed, tracer):
    import workloads

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    wl = workloads.WORKLOADS[name](seed, tracer)
    wl.build()
    for op in wl.warmup():
        run_op(op)
    return wl


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    wl = set_up(args.workload, args.seed, tracer)
    try:
        if args.setup_only:
            print(time.perf_counter() - _T0)
            return 0
        return measure(wl, args, tracer)
    finally:
        wl.close()


def measure(wl, args, tracer) -> int:
    rng = random.Random(args.seed)
    if tracer is not None:
        tracer.reset()
    times, failed = [], []
    by_label = {}
    start = time.perf_counter()
    setup_s = start - _T0
    while True:
        round_start = time.perf_counter()
        for op in wl.round(rng):
            ok, elapsed = run_op(op)
            times.append(elapsed)
            by_label.setdefault(op.label, []).append(elapsed)
            if not ok:
                failed.append(op.label)
        now = time.perf_counter()
        # whole rounds only; stop at the round end nearest to --seconds
        if (now - start) + (now - round_start) / 2 >= args.seconds:
            break
    wall = time.perf_counter() - start
    correct = set(failed) <= wl.known_faults

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": round(wall, 3), "ops_per_s": len(times) / wall,
        "op_s_p50": statistics.median(times),
        "failed": sorted(set(failed)),
        "op_s_p50_by_label": {k: round(statistics.median(v), 5)
                              for k, v in sorted(by_label.items())},
    }
    if tracer is not None:
        import tracing

        summary["layer_self_share"] = tracing.layer_shares(tracer)
        summary["spans_per_op"] = sum(s[0] for s in tracer.spans.values()) / len(times)
        metrics = tracing.layer_metrics(tracer, len(times))
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        summary["setup_samples_s"] = [round(s, 4) for s in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / wall, "unit": "ops/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(times),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
