"""The benchmark's three workloads.

Each workload builds its inputs and their references (from ``oracle``, never
from freedeconv) and returns rounds of operations.  An operation is a timed
``run`` and an untimed ``check`` of what ``run`` returned.  Every round of a
workload holds the same operations; the seed fixes their order, and for
``cli`` also the exact models and the ``simulate`` seed.

Library calls go through module attributes at call time (``models.spn_recover``),
so the tracing wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import oracle
from freedeconv import models, subordination
from freedeconv.series import MomentSeries

HERE = os.path.dirname(os.path.abspath(__file__))


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    """Inputs, references and operations of one workload."""

    name = ""
    # Operations whose failure is a known fault of the program, by label.
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def build(self) -> None:
        """Make the inputs and their references."""

    def warmup(self) -> list:
        """The untimed operations run once before timing starts."""
        return self.ops()[:1]

    def ops(self) -> list:
        """One round of operations, in a fixed order."""
        raise NotImplementedError

    def round(self, rng: random.Random) -> list:
        ops = self.ops()
        rng.shuffle(ops)
        return ops

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -- recover -----------------------------------------------------------------

RECOVER_DRAWS = 32
# A round runs the corpus twice: one pass takes 20-25 s on a 2-core host,
# and a shared host's speed drifts on that time scale, so longer runs spread
# less.
RECOVER_PASSES = 2
RECOVER_TOL = 1e-6
# Draws of the criterion-5 generator under random.Random(11) on which
# spn_recover settles on a spurious minimum of its exact defect.
SPURIOUS_MINIMUM_DRAWS = frozenset({31})


def criterion5_draws(count: int) -> list:
    """(draw, p, d, singular values, sigma) from criterion 5's distribution."""
    rng = random.Random(11)
    out = []
    for draw in range(1, count + 1):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.5) for _ in range(d))
        sigma = rng.uniform(0.0, 2.0)
        out.append((draw, p, d, a, sigma))
    return out


class Recover(Workload):
    """One operation is one spn_recover call on an exact rational series."""

    name = "recover"
    known_faults = frozenset(f"draw{n}" for n in SPURIOUS_MINIMUM_DRAWS)

    def build(self):
        self.cases = []
        for draw, p, d, a, sigma in criterion5_draws(RECOVER_DRAWS):
            a_sq = [Fraction(v) ** 2 for v in a]
            moments = oracle.spn_moments(a_sq, Fraction(sigma) ** 2, p, d, d + 4)
            atoms = np.sort([v * v for v in a])
            self.cases.append((f"draw{draw}", MomentSeries(tuple(moments)), p, d,
                               sigma * sigma, atoms))

    def ops(self):
        return [self._op(*case) for case in self.cases] * RECOVER_PASSES

    @staticmethod
    def _op(label, series, p, d, sigma_sq, atoms):
        def run():
            return models.spn_recover(series, p, d)

        def check(report):
            if len(report.atoms) != len(atoms):
                return False
            atom_err = float(np.max(np.abs(np.asarray(report.atoms) - atoms)))
            return abs(report.sigma_sq_hat - sigma_sq) <= RECOVER_TOL and atom_err <= RECOVER_TOL

        return Op(label, run, check)


# -- density -----------------------------------------------------------------

DENSITY_DRAWS = 10
DENSITY_EPSILON = 1e-3
DENSITY_MAX_ITER = 100000
DENSITY_POINTS = 2000
DENSITY_MOMENT_TOL = 1e-3
PURE_NOISE = (4, 2, 0.8)  # p, d, sigma of the added model with a = 0
DENSITY_WARMUP_DRAW = 8


def criterion7_draws(count: int) -> list:
    """(draw, p, d, singular values, sigma) from criterion 7's distribution."""
    rng = random.Random(1007)
    out = []
    for draw in range(1, count + 1):
        d = rng.randint(1, 3)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.0) for _ in range(d))
        sigma = rng.uniform(0.3, 1.5)
        out.append((draw, p, d, a, sigma))
    return out


def _curve_moment(curve, k: int) -> float:
    return float(np.trapezoid(curve.grid**k * curve.values, curve.grid))


class Density(Workload):
    """One operation is one model's density at offsets 2*eps and eps."""

    name = "density"

    def build(self):
        p0, d0, sigma0 = PURE_NOISE
        corpus = criterion7_draws(DENSITY_DRAWS) + [("noise", p0, d0, (0.0,) * d0, sigma0)]
        self.cases = []
        for draw, p, d, a, sigma in corpus:
            edge = (max(a) + sigma * (1 + math.sqrt(p / d))) ** 2
            grid = np.linspace(1e-3, 1.2 * edge + 0.5, DENSITY_POINTS)
            ref = [float(m) for m in oracle.spn_moments(
                [Fraction(v) ** 2 for v in a], Fraction(sigma) ** 2, p, d, 4)]
            label = draw if draw == "noise" else f"draw{draw}"
            self.cases.append((label, models.SpnModel(p, d, a, sigma), grid, ref))
        self.noise_bound = oracle.mp_smoothing_bound(DENSITY_EPSILON, sigma0**2, p0, d0)

    def warmup(self):
        # the cheapest model; the fixed point keeps no state between calls
        return [self._op(*self.cases[DENSITY_WARMUP_DRAW - 1])]

    def ops(self):
        return [self._op(*case) for case in self.cases]

    def _op(self, label, model, grid, ref):
        def run():
            coarse = subordination.spn_density(
                model, grid, epsilon=2 * DENSITY_EPSILON, max_iter=DENSITY_MAX_ITER)
            fine = subordination.spn_density(
                model, grid, epsilon=DENSITY_EPSILON, max_iter=DENSITY_MAX_ITER)
            return fine, coarse

        def check(curves):
            fine, coarse = curves
            for k in range(1, 5):
                # the smoothing bias is linear in eps, so extrapolate it away
                extrapolated = 2 * _curve_moment(fine, k) - _curve_moment(coarse, k)
                if not _rel(extrapolated, ref[k - 1]) <= DENSITY_MOMENT_TOL:
                    return False
            if label == "noise":
                return self._check_noise(fine)
            return True

        return Op(label, run, check)

    def _check_noise(self, curve) -> bool:
        p, d, sigma = PURE_NOISE
        x = curve.grid
        smoothed = oracle.mp_smoothed_density(x, DENSITY_EPSILON, sigma**2, p, d)
        if not np.max(np.abs(curve.values - smoothed)) <= 1e-8:
            return False
        inner, bound = self.noise_bound
        mask = (x >= inner[0]) & (x <= inner[1])
        gap = np.abs(curve.values - oracle.mp_density(x, sigma**2, p, d))[mask]
        return bool(mask.any() and np.max(gap) <= bound)


# -- cli ---------------------------------------------------------------------

README_SPN = {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": "1/2"}
CLI_ORDER = 12
CLI_RECOVER_ORDER = 8
CLI_DENSITY = ["--xmin", "0.01", "--xmax", "12", "--points", "2000", "--epsilon", "1e-3"]
CLI_SIM_ORDER = 4
SIMULATE_TOL = 0.02
# A round runs the seven chains twice, for the same reason as RECOVER_PASSES:
# one pass takes 12-15 s.
CLI_PASSES = 2


def _fjson(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Cli(Workload):
    """One operation is one fresh ``python -m freedeconv.cli`` process."""

    name = "cli"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.dir = Path(".perfbench") / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.child_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def _write(self, name: str, data) -> str:
        path = self.dir / name
        path.write_text(json.dumps(data))
        return str(path)

    def _read(self, name: str):
        return json.loads((self.dir / name).read_text())

    def build(self):
        rng = random.Random(self.seed)
        # compound Wishart: three distinct eigenvalues k/2, so cw-recover is well posed
        cw_vals = [Fraction(k, 2) for k in rng.sample(range(-6, 7), 3)]
        cw_d = rng.randint(1, 4)
        self.cw = {"p": 3, "d": cw_d, "eigenvalues": [_fjson(v) for v in cw_vals]}
        self.cw_vals = sorted(cw_vals)
        self.cw_ref = oracle.cw_moments(cw_vals, cw_d, CLI_ORDER)
        self.cw_kappa = [sum(v**n for v in cw_vals) / cw_d for n in range(1, CLI_ORDER + 1)]
        # signal-plus-noise with small rationals
        d = 2
        p = rng.randint(d, 3 * d)
        a = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(d)]
        sigma = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        self.spn = {"p": p, "d": d, "singular_values": [_fjson(v) for v in a],
                    "sigma": _fjson(sigma)}
        self.spn_ref = oracle.spn_moments([v * v for v in a], sigma**2, p, d, CLI_ORDER)
        twin = {"p": p, "d": d, "singular_values": self.spn["singular_values"][::-1],
                "sigma": _fjson(-sigma)}
        other = dict(self.spn, sigma=_fjson(sigma + Fraction(1, 3)))
        # the README model for the recovery chain, the density line and simulate
        a_readme = [Fraction(v) for v in README_SPN["singular_values"]]
        s2_readme = Fraction(README_SPN["sigma"]) ** 2
        self.readme_atoms = sorted(float(v * v) for v in a_readme)
        self.readme_sigma_sq = float(s2_readme)
        self.readme_ref = oracle.spn_moments([v * v for v in a_readme], s2_readme,
                                             README_SPN["p"], README_SPN["d"],
                                             CLI_RECOVER_ORDER)
        self.files = {
            "cw": self._write("cw.json", self.cw),
            "spn": self._write("spn.json", self.spn),
            "twin": self._write("twin.json", twin),
            "other": self._write("other.json", other),
            "readme": self._write("readme.json", README_SPN),
        }
        self.sim_rng = random.Random(self.seed + 1)

    # each chain runs its processes in order; the seed orders the chains
    def chains(self) -> list:
        f, o = self.files, lambda name: str(self.dir / name)
        sim_seed = str(self.sim_rng.randrange(1, 2**31))
        return [
            [self._cmd("spn-moments", ["spn-moments", "--model", f["spn"], "--order",
                                       str(CLI_ORDER), "--out", o("spn12.json")],
                       lambda: self._series_equals("spn12.json", self.spn_ref))],
            [self._cmd("cw-moments", ["cw-moments", "--model", f["cw"], "--order",
                                      str(CLI_ORDER), "--out", o("cw12.json")],
                       lambda: self._series_equals("cw12.json", self.cw_ref)),
             self._cmd("rtransform", ["convolve", "rtransform", "--f", o("cw12.json"),
                                      "--out", o("r12.json")],
                       lambda: self._series_equals("r12.json", self.cw_kappa)),
             self._cmd("cw-recover", ["cw-recover", "--r", o("r12.json"), "--p", "3",
                                      "--d", str(self.cw["d"]), "--out", o("cwr.json")],
                       self._check_cw_recover)],
            [self._cmd("spn-moments-8", ["spn-moments", "--model", f["readme"], "--order",
                                         str(CLI_RECOVER_ORDER), "--out", o("spn8.json")],
                       lambda: self._series_equals("spn8.json", self.readme_ref)),
             self._cmd("spn-recover", ["spn-recover", "--moments", o("spn8.json"),
                                       "--p", "4", "--d", "2", "--out", o("rec.json")],
                       self._check_spn_recover)],
            [self._cmd("spn-density", ["spn-density", "--model", f["readme"], *CLI_DENSITY,
                                       "--out", o("curve.csv")],
                       self._check_density)],
            [self._cmd("simulate", ["simulate", "--model", f["readme"], "--kind", "spn",
                                    "--dim-scale", "150", "--trials", "20", "--seed",
                                    sim_seed, "--order", str(CLI_SIM_ORDER),
                                    "--out", o("sim.json")],
                       self._check_simulate)],
            [self._cmd("verify-equal", ["verify", "--a", f["spn"], "--b", f["twin"],
                                        "--order", "8", "--out", o("veq.json")],
                       lambda: self._read("veq.json")["identical"] is True)],
            [self._cmd("verify-differ", ["verify", "--a", f["spn"], "--b", f["other"],
                                         "--order", "8", "--out", o("vne.json")],
                       lambda: self._read("vne.json")["identical"] is False)],
        ]

    def warmup(self):
        return self.chains()[-2]

    def round(self, rng):
        chains = [chain for _ in range(CLI_PASSES) for chain in self.chains()]
        rng.shuffle(chains)
        return [op for chain in chains for op in chain]

    def _cmd(self, label: str, argv: list, check_files: Callable[[], bool]) -> Op:
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "freedeconv.cli", *argv]
                stats = None
            else:
                stats = self.dir / "stats.json"
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), str(stats),
                       repr(time.time()), *argv]
            with open(self.dir / "stderr.txt", "wb") as err:
                proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                        stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            if stats is not None and stats.exists():
                self.tracer.merge(json.loads(stats.read_text()))
                stats.unlink()
            return proc.returncode

        def check(returncode):
            if returncode != 0:
                sys.stderr.write((self.dir / "stderr.txt").read_text()[-2000:])
                return False
            return check_files()

        return Op(label, run, check)

    def _series_equals(self, name: str, ref: list) -> bool:
        data = self._read(name)
        return data["scalar"] == "rational" and [Fraction(c) for c in data["coeffs"]] == list(ref)

    def _check_cw_recover(self) -> bool:
        got = np.asarray(self._read("cwr.json")["eigenvalues"], dtype=float)
        want = np.asarray([float(v) for v in self.cw_vals])
        return got.shape == want.shape and float(np.max(np.abs(got - want))) <= 1e-8

    def _check_spn_recover(self) -> bool:
        rep = self._read("rec.json")
        atom_err = float(np.max(np.abs(np.asarray(rep["atoms"]) - self.readme_atoms)))
        return abs(rep["sigma_sq_hat"] - self.readme_sigma_sq) <= 1e-6 and atom_err <= 1e-6

    def _check_density(self) -> bool:
        lines = (self.dir / "curve.csv").read_text().split()[1:]
        x, rho = np.loadtxt(lines, delimiter=",", unpack=True)
        sidecar = json.loads((self.dir / "curve.csv.json").read_text())
        p, d = README_SPN["p"], README_SPN["d"]
        a_max = max(README_SPN["singular_values"])
        edge = (a_max + math.sqrt(self.readme_sigma_sq) * (1 + math.sqrt(p / d))) ** 2
        mass_bound, m1_bound = oracle.window_bounds(
            float(sidecar["epsilon"]), float(x[0]), float(x[-1]), edge)
        mass = float(np.trapezoid(rho, x))
        m1 = float(np.trapezoid(x * rho, x))
        return (abs(sidecar["mass"] - mass) <= 1e-9
                and abs(mass - 1.0) <= mass_bound
                and abs(m1 - float(self.readme_ref[0])) <= m1_bound)

    def _check_simulate(self) -> bool:
        emp = self._read("sim.json")["empirical_moments"]
        ref = self.readme_ref[:CLI_SIM_ORDER]
        return len(emp) == CLI_SIM_ORDER and all(
            _rel(e, float(r)) <= SIMULATE_TOL for e, r in zip(emp, ref))

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


WORKLOADS = {w.name: w for w in (Recover, Density, Cli)}
