"""One SHA-256 per layer over everything the recovery, density and Monte Carlo layers return.

    cd TREE && python3 /path/to/tools/same_bits.py

The package is imported from ./src of the working directory, so one copy of
this script hashes any source tree; two trees that print the same lines
return the same bits.  ``spn_recover`` hashes ``repr`` of every
``RecoveryReport``, or of the error's type, code, module, message and
residual, over: the 32 criterion-5 draws of the ``recover`` workload at
orders d+2 and d+4 on both backends; a seeded sweep of exact models, float
models (some perturbed, some scaled by powers of two), garbage series, and
the README model at scales 2^-500 to 2^250.
``cw_recover`` hashes what ``cw_recover_eigenvalues`` returns, as a list of
floats, over a seeded sweep of compound Wishart cumulant series on both
backends: p and d in 1..8, spectra of exact rationals or of floats repeated
from a U(-5, 5) pool, orders p to p+3, a quarter with one cumulant
perturbed by a relative 1e-6, 1e-4 or 1e-3.
``spn_density`` hashes every ``DensityCurve`` field of the ``density``
workload's models at its two offsets, arrays as lists of floats.
``solve_subordination`` hashes ``repr`` of every ``SubordinationResult``
over seeded points on models with d in 1..6: generic points of H+(C^2),
points with Im z1 z2 < 0, real negative targets z1 = ia, z2 = ib, and models
with sigma = 0.  ``density_sweep`` hashes every ``DensityCurve`` field over
seeded models with d in 1..40, p in d..3d, singular values U(0, 2) times a
scale of 1e-3, 1 or 1e3, and sigma / scale 0.02 or U(0.3, 1.5): 500 points
on [1e-3 E, 1.2 E] at eps = 1e-4 E, with E = (max|a| + sigma(1 + sqrt(p/d)))^2,
at the default tolerance and iteration cap; its line ends with the number
of ``NoConvergenceError`` outcomes.  ``randmat`` hashes every
``EmpiricalSpectrum`` field, its eigenvalues as a list of floats, of
``empirical_spectrum`` over seeded SPN and CW models with d in 1..4 and p in
d..3d, scaled by ``scale_spn_model`` / ``scale_cw_model`` by 1, 7 and 40, on
both fields, 3 trials each at order 4: signals and spectra U(0, 2) with
sigma U(0.2, 1.5); a quarter of the SPN models have a zero signal, a
quarter sigma = 0 and a quarter both, and half the CW models have a zero
spectrum.  Errors hash as outcomes on every layer.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SWEEP_SEED = 19
SWEEP_SIZE = 500
CW_SEED = 7
CW_SIZE = 600
POINT_SEED = 22
POINT_SIZE = 400
SWEEP_MODELS_SEED = 23
SWEEP_MODELS = 120
SPECTRUM_SEED = 29
SPECTRUM_MODELS = 16


def recovery_inputs(models, workloads):
    """(series, p, d): the criterion-5 draws, then the seeded sweep."""
    from freedeconv.series import FLOAT, RATIONAL, MomentSeries

    for _, p, d, a, sigma in workloads.criterion5_draws(32):
        model = models.SpnModel(p, d, a, sigma)
        for order in (d + 2, d + 4):
            for kind in (RATIONAL, FLOAT):
                yield models.spn_moments(model, order, kind), p, d
    rng = random.Random(SWEEP_SEED)
    for i in range(SWEEP_SIZE):
        d = rng.randint(1, 5)
        p = rng.randint(d, 3 * d)
        order = d + rng.randint(2, 5)
        kind = i % 3
        if kind == 0:
            a = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(d)]
            sigma = Fraction(rng.randint(0, 8), rng.randint(1, 3))
            yield models.spn_moments(models.SpnModel(p, d, a, sigma), order), p, d
        elif kind == 1:
            scale = 2.0 ** rng.randint(-40, 40)
            a = [rng.uniform(0.0, 2.5) * scale for _ in range(d)]
            sigma = rng.uniform(0.0, 2.0) * scale
            m = models.spn_moments(models.SpnModel(p, d, a, sigma), order, FLOAT).coeffs
            if rng.random() < 0.3:
                m = [c * (1 + rng.uniform(-1e-6, 1e-6)) for c in m]
            yield MomentSeries(tuple(m), FLOAT), p, d
        else:
            m = [rng.choice((1, -1, 1, 1)) * 10.0 ** rng.uniform(-3, 3) for _ in range(order)]
            yield MomentSeries(tuple(m), rng.choice((FLOAT, RATIONAL))), p, d
    for e in (-500, -250, -80, 80, 250):
        scale = Fraction(2) ** e
        model = models.SpnModel(4, 2, (scale, 2 * scale), scale / 2)
        kinds = (RATIONAL, FLOAT) if e < 250 else (RATIONAL,)
        yield from ((models.spn_moments(model, 6, kind), 4, 2) for kind in kinds)


def cw_inputs(models):
    """(series, p, d): each seeded spectrum's cumulants on both backends."""
    from freedeconv.series import FLOAT, RATIONAL, MomentSeries

    rng = random.Random(CW_SEED)
    for i in range(CW_SIZE):
        p, d = rng.randint(1, 8), rng.randint(1, 8)
        if i % 2:
            pool = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, p))]
            values = [rng.choice(pool) for _ in range(p)]
        else:
            values = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(p)]
        order = p + rng.randint(0, 3)
        perturbed = rng.randrange(order) if rng.random() < 0.25 else None
        factor = 1 + rng.choice((1e-6, 1e-4, 1e-3))
        for kind in (RATIONAL, FLOAT):
            r = list(models.cw_r_transform(models.CwModel(p, d, values), order, kind).coeffs)
            if perturbed is not None:
                r[perturbed] *= Fraction(factor) if kind == RATIONAL else factor
            yield MomentSeries(tuple(r), kind), p, d


def density_inputs(workloads):
    """(model, grid, epsilon): the ``density`` workload's models at 2 eps and eps."""
    bench = workloads.Density(0)
    bench.build()
    for _, model, grid, _ in bench.cases:
        for epsilon in (2 * workloads.DENSITY_EPSILON, workloads.DENSITY_EPSILON):
            yield model, grid, epsilon


def point_inputs(models, subordination):
    """(model, z): generic, Im Z < 0, real negative Z, and sigma = 0 in turn."""
    rng = random.Random(POINT_SEED)
    for i in range(POINT_SIZE):
        d = rng.randint(1, 6)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.5) for _ in range(d))
        sigma = 0.0 if i % 4 == 3 else rng.uniform(0.05, 1.5)
        if i % 4 == 2:
            z = subordination.CPoint2(1j * 10 ** rng.uniform(-3, 1),
                                      1j * 10 ** rng.uniform(-3, 1))
        else:
            while True:
                z1, z2 = (complex(rng.uniform(-6, 6), rng.uniform(0.01, 3)) for _ in range(2))
                if (i % 4 == 1) == ((z1 * z2).imag < 0):
                    break
            z = subordination.CPoint2(z1, z2)
        yield models.SpnModel(p, d, a, sigma), z


def sweep_inputs(models):
    """(model, grid, epsilon) at three scales, half of them with small sigma."""
    import numpy as np

    rng = random.Random(SWEEP_MODELS_SEED)
    for i in range(SWEEP_MODELS):
        d = rng.randint(1, 40)
        p = rng.randint(d, 3 * d)
        scale = (1e-3, 1.0, 1e3)[i % 3]
        a = tuple(scale * rng.uniform(0.0, 2.0) for _ in range(d))
        sigma = scale * (0.02 if i // 3 % 2 else rng.uniform(0.3, 1.5))
        edge = (max(a) + sigma * (1 + (p / d) ** 0.5)) ** 2
        grid = np.linspace(1e-3 * edge, 1.2 * edge, 500)
        yield models.SpnModel(p, d, a, sigma), grid, 1e-4 * edge


def spectrum_inputs(models, randmat):
    """(sampler, master seed): each seeded model at three scales on both fields."""
    rng = random.Random(SPECTRUM_SEED)
    for i in range(SPECTRUM_MODELS):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        zero_signal, zero_sigma = i // 2 % 4 in (1, 3), i // 2 % 4 in (2, 3)
        sigma = 0.0 if zero_sigma else rng.uniform(0.2, 1.5)
        if i % 2:
            values = [0.0 if zero_signal else rng.uniform(0.0, 2.0) for _ in range(p)]
            base, scale, sampler = (models.CwModel(p, d, values), randmat.scale_cw_model,
                                    randmat.cw_sampler)
        else:
            values = [0.0 if zero_signal else rng.uniform(0.0, 2.0) for _ in range(d)]
            base, scale, sampler = (models.SpnModel(p, d, values, sigma),
                                    randmat.scale_spn_model, randmat.spn_sampler)
        for factor in (1, 7, 40):
            for field in ("real", "complex"):
                yield sampler(scale(base, factor), field), rng.randrange(2**32)


def outcome(run) -> str:
    """``repr`` of what run() returns, or of the error it raises."""
    from freedeconv.errors import FreeDeconvError

    try:
        return repr(run())
    except FreeDeconvError as exc:
        return repr((type(exc).__name__, exc.code, exc.module, str(exc),
                     getattr(exc, "residual", None)))


# the fields of a DensityCurve but its arrays, in their order
CURVE_FIELDS = ("epsilon", "mass", "max_residual", "max_iterations", "fallback_points",
                "rung_iterations")


def curve_fields(curve) -> list:
    return [(name, getattr(curve, name)) for name in CURVE_FIELDS] + [
        curve.grid.tolist(), curve.values.tolist()]


def spectrum_fields(spectrum) -> list:
    return [spectrum.eigenvalues.tolist(), spectrum.d, spectrum.trials, spectrum.moments]


def main() -> int:
    src = Path(os.getcwd()) / "src"
    if not (src / "freedeconv" / "__init__.py").is_file():
        print("same_bits: ./src/freedeconv not found; run from the root of a "
              "freedeconv source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads
    from freedeconv import models, randmat, subordination

    max_iter = workloads.DENSITY_MAX_ITER
    layers = {
        "spn_recover": [outcome(lambda: models.spn_recover(m, p, d))
                        for m, p, d in recovery_inputs(models, workloads)],
        "cw_recover": [outcome(lambda: [float(v) for v in models.cw_recover_eigenvalues(r, p, d)])
                       for r, p, d in cw_inputs(models)],
        "spn_density": [outcome(lambda: curve_fields(subordination.spn_density(
                            model, grid, epsilon=epsilon, max_iter=max_iter)))
                        for model, grid, epsilon in density_inputs(workloads)],
        "solve_subordination": [outcome(lambda: subordination.solve_subordination(model, z))
                                for model, z in point_inputs(models, subordination)],
        "density_sweep": [outcome(lambda: curve_fields(subordination.spn_density(
                              model, grid, epsilon=epsilon)))
                          for model, grid, epsilon in sweep_inputs(models)],
        "randmat": [outcome(lambda: spectrum_fields(randmat.empirical_spectrum(
                        sampler, 3, 4, seed)))
                    for sampler, seed in spectrum_inputs(models, randmat)],
    }
    for name, outcomes in layers.items():
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        failed = sum("'NoConvergenceError'" in line for line in outcomes)
        count = f" no-convergence {failed}" if name == "density_sweep" else ""
        print(f"{name} {len(outcomes)} {digest}{count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
