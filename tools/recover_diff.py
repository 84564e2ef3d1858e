"""Which recovery outcomes change between a parent tree and this one, and how.

    python3 tools/recover_diff.py --parent ../parent

Hashes (``tools/same_bits.py``) only say that recovery bits moved; this
names each input that moved.  Each tree runs in a child process that
imports the package from its own ./src, on the ``spn_recover`` and
``cw_recover`` corpora of ``same_bits``.  For each input whose outcome
differs it prints one line: the corpus and the input's index, each tree's
class (``accepted`` or the error's type), and then

- where both accept: the names of the report fields that differ
  (spn_recover), and the relative move of sigma^2 (spn_recover) and of the
  largest atom;
- where both reject: whether the messages differ.

Each corpus ends with a line counting the inputs that differ.  If a
tree's run fails, the tool names the tree, prints the tail of its stderr,
and exits 2.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
CHANGE = TOOLS.parent


def outputs() -> dict:
    """Every corpus's outcomes on the tree in the working directory: (error
    type name, message) of a rejection, else the report's fields as a dict
    (spn_recover) or the recovered spectrum as a tuple (cw_recover)."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(CHANGE / "perfbench"), str(TOOLS)]
    import same_bits
    import workloads
    from freedeconv import models
    from freedeconv.errors import FreeDeconvError

    def outcome(run, read):
        try:
            return read(run())
        except FreeDeconvError as exc:
            return type(exc).__name__, str(exc)

    def fields(report) -> dict:
        # atom_moments as its coefficients: the parent process unpickles
        # plain values only
        return {name: getattr(getattr(report, name), "coeffs", getattr(report, name))
                for name in report.__slots__}

    return {
        "spn_recover": [outcome(lambda: models.spn_recover(m, p, d), fields)
                        for m, p, d in same_bits.recovery_inputs(models, workloads)],
        "cw_recover": [outcome(lambda: models.cw_recover_eigenvalues(r, p, d), tuple)
                       for r, p, d in same_bits.cw_inputs(models)],
    }


def run_tree(tree: Path, tool: str) -> dict:
    """``outputs()`` of the module ``tool`` of this directory, run in a child
    process from ``tree`` with no PYTHONPATH, so that it imports the package
    from ``tree``'s ./src only.  If the child fails, this names the tree,
    prints the tail of the child's stderr, and exits 2."""
    code = (f"import pickle, sys; sys.path.insert(0, {str(TOOLS)!r}); import {tool}; "
            f"sys.stdout.buffer.write(pickle.dumps({tool}.outputs()))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        done = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                              capture_output=True)
        failed = done.returncode and (done.stderr.decode(errors="replace")
                                      or f"exit status {done.returncode}")
    except OSError as exc:  # no such tree
        failed = str(exc)
    if failed:
        tail = failed.strip().splitlines()[-3:]
        print(f"{tool}: the run on {tree} failed:", *tail, sep="\n  ", file=sys.stderr)
        sys.exit(2)
    return pickle.loads(done.stdout)


def moved(old: float, new: float) -> float:
    """|new - old| / |old|, or |new| where old is 0."""
    return abs(new - old) / abs(old) if old else abs(new)


def difference(old, new) -> str:
    """How two different outcomes of one input differ."""
    classes = [o[0] if isinstance(o, tuple) and isinstance(o[0], str) else "accepted"
               for o in (old, new)]
    line = f"{classes[0]} -> {classes[1]}"
    if "accepted" not in classes:
        return line + f"; message {'differs' if old[1] != new[1] else 'same'}"
    if classes[0] != classes[1]:
        return line
    if isinstance(old, tuple):
        return line + f"; largest atom moved {moved(max(old), max(new)):.2e}"
    fields = ", ".join(k for k in old if old[k] != new[k])
    return line + (f"; fields: {fields}; sigma^2 moved "
                   f"{moved(old['sigma_sq_hat'], new['sigma_sq_hat']):.2e}, largest atom "
                   f"moved {moved(max(old['atoms']), max(new['atoms'])):.2e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent source tree")
    args = parser.parse_args(argv)
    parent = run_tree(args.parent.resolve(), "recover_diff")
    change = run_tree(CHANGE, "recover_diff")
    for name in parent:
        differ = [(i, a, b) for i, (a, b) in enumerate(zip(parent[name], change[name]))
                  if a != b]
        for i, a, b in differ:
            print(f"{name} {i}: {difference(a, b)}")
        print(f"{name} {len(parent[name])}: {len(differ)} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
