"""How far the analytic route's outputs move between a parent tree and this one.

    python3 tools/density_diff.py --parent ../parent

Hashes (``tools/same_bits.py``) only say that density bits moved; this says
by how much.  Each tree runs in a child process that imports the package
from its own ./src, on four corpora:

- ``spn_density``: the ``density`` workload's models at its two offsets;
- ``density_sweep``: the seeded sweep of ``same_bits``;
- ``solve_subordination``: the seeded points of ``same_bits``;
- ``criterion7``: 100 models of criterion 7's distribution
  (``random.Random(1007)``) on the workload's grid, each at eps = 2e-3,
  1e-3 and 6e-4 in turn.

For each corpus it prints the errors on each tree by type, the largest
relative difference over the items that converge on both trees (of a curve,
max |rho - rho'| over the parent curve's max |rho|; of a point, the larger of
|g_i - g_i'| / |g_i|), and how many ``rung_iterations`` tuples (of a point,
``iterations``) are equal, with the largest entry on each tree.  The
child processes run as in ``tools/recover_diff.py``, which exits 2 when one
fails.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from recover_diff import run_tree

TOOLS = Path(__file__).resolve().parent
CHANGE = TOOLS.parent
CRITERION7_MODELS = 100
CRITERION7_EPSILONS = (2e-3, 1e-3, 6e-4)


def criterion7_inputs(models, workloads):
    """(model, grid, epsilon): each model at the three offsets in turn."""
    import numpy as np

    for _, p, d, a, sigma in workloads.criterion7_draws(CRITERION7_MODELS):
        edge = (max(a) + sigma * (1 + (p / d) ** 0.5)) ** 2
        grid = np.linspace(1e-3, 1.2 * edge + 0.5, workloads.DENSITY_POINTS)
        for epsilon in CRITERION7_EPSILONS:
            yield models.SpnModel(p, d, a, sigma), grid, epsilon


def outputs() -> dict:
    """Every corpus's outcomes on the tree in the working directory: an
    error's type name, or (values, rung_iterations) of a curve, or
    ((g1, g2), iterations) of a point."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(CHANGE / "perfbench"), str(TOOLS)]
    import same_bits
    import workloads
    from freedeconv import models, subordination
    from freedeconv.errors import FreeDeconvError

    def outcome(run, read):
        try:
            return read(run())
        except FreeDeconvError as exc:
            return type(exc).__name__

    def curve(model, grid, epsilon, **kw):
        return outcome(lambda: subordination.spn_density(model, grid, epsilon=epsilon, **kw),
                       lambda c: (c.values, c.rung_iterations))

    max_iter = workloads.DENSITY_MAX_ITER
    return {
        "spn_density": [curve(*case, max_iter=max_iter)
                        for case in same_bits.density_inputs(workloads)],
        "density_sweep": [curve(*case) for case in same_bits.sweep_inputs(models)],
        "solve_subordination": [
            outcome(lambda: subordination.solve_subordination(model, z),
                    lambda r: ((r.g.z1, r.g.z2), (r.iterations,)))
            for model, z in same_bits.point_inputs(models, subordination)],
        "criterion7": [curve(*case) for case in criterion7_inputs(models, workloads)],
    }


def relative(old, new) -> float:
    """max |new - old| over max |old| of a curve; the larger |g_i - g_i'| / |g_i|
    of a point."""
    import numpy as np

    if isinstance(old, tuple):
        return max(abs(b - a) / abs(a) if a else abs(b) for a, b in zip(old, new))
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def report(name: str, parent: list, change: list) -> str:
    errors = [Counter(o for o in side if isinstance(o, str)) for side in (parent, change)]
    both = [(a, b) for a, b in zip(parent, change)
            if not isinstance(a, str) and not isinstance(b, str)]
    worst = max((relative(a[0], b[0]) for a, b in both), default=0.0)
    equal = sum(a[1] == b[1] for a, b in both)
    largest = [max((max(o[1]) for o in side if not isinstance(o, str)), default=0)
               for side in (parent, change)]
    return (f"{name} {len(parent)}: errors parent {dict(errors[0])} change "
            f"{dict(errors[1])}; largest relative difference {worst:.2e} over "
            f"{len(both)} converged on both; iterations equal on {equal} of "
            f"{len(both)}, largest entry {largest[0]} -> {largest[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent source tree")
    args = parser.parse_args(argv)
    parent = run_tree(args.parent.resolve(), "density_diff")
    change = run_tree(CHANGE, "density_diff")
    for name in parent:
        print(report(name, parent[name], change[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
