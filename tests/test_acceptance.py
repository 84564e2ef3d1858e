"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

import numpy as np

from freedeconv.models import (
    CwModel,
    SpnModel,
    atomic_moments,
    cw_moments,
    cw_r_transform,
    cw_recover_eigenvalues,
    delta_moments,
    spn_decompose,
    spn_moments,
    spn_recover,
    verify_identifiability,
)
from freedeconv.ncpart import catalan, enumerate_nc, is_noncrossing, kreweras
from freedeconv.randmat import (
    GinibreSpec,
    cw_sampler,
    empirical_spectrum,
    sample_ginibre,
    spn_sampler,
)
from freedeconv.series import (
    FLOAT,
    MomentSeries,
    boxed_conv,
    boxed_inverse,
    delta_series,
    free_add_conv,
    zeta_series,
)
from freedeconv.subordination import curve_cdf, curve_moment, spn_density

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def report(num, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[criterion {num}] {status}: {label} ({elapsed:.1f}s){extra}")
    assert ok, f"criterion {num} failed: {label}{extra}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def _interleaves(pi, rho):
    blocks = [tuple(2 * x - 1 for x in b) for b in pi.blocks]
    blocks += [tuple(2 * x for x in b) for b in rho.blocks]
    return is_noncrossing(blocks, 2 * pi.n)


def _refines(rho, tau):
    return all(any(set(b) <= set(t) for t in tau.blocks) for b in rho.blocks)


def test_criterion_1_combinatorial_substrate():
    start = time.perf_counter()
    ok = all(len(enumerate_nc(n)) == catalan(n) for n in range(1, 11))
    for n in range(1, 9):
        for part in enumerate_nc(n):
            ok = ok and len(part) + len(kreweras(part)) == n + 1
    # definitional maximality oracle
    for n in range(1, 7):
        for part in enumerate_nc(n):
            comp = kreweras(part)
            compatible = [
                rho for rho in enumerate_nc(n) if _interleaves(part, rho)
            ]
            ok = ok and comp in compatible
            ok = ok and all(_refines(rho, comp) for rho in compatible)
    report(1, "non-crossing partition substrate", ok,
           time.perf_counter() - start, 30)


def test_criterion_2_series_algebra_laws():
    start = time.perf_counter()
    rng = random.Random(1002)

    def rand_series():
        coeffs = [
            Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(8)
        ]
        while coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        return MomentSeries(tuple(coeffs))

    pool = [rand_series() for _ in range(100)]
    unit = delta_series(8)
    ok = True
    for f in pool:
        ok = ok and boxed_conv(f, unit) == f
        ok = ok and boxed_conv(f, boxed_inverse(f)) == unit
    for f, g in zip(pool[::2], pool[1::2]):
        ok = ok and boxed_conv(f, g) == boxed_conv(g, f)
    for f, g, h in zip(pool[::3], pool[1::3], pool[2::3]):
        ok = ok and boxed_conv(boxed_conv(f, g), h) == boxed_conv(
            f, boxed_conv(g, h)
        )
    zinv = boxed_inverse(zeta_series(10))
    ok = ok and zinv.coeffs == tuple(
        (-1) ** n * CATALAN[n] for n in range(10)
    )
    report(2, "boxed convolution laws on 100 exact series", ok,
           time.perf_counter() - start, 60)


def _random_rational_spn(rng, max_d=4):
    d = rng.randint(1, max_d)
    p = rng.randint(d, 3 * d)
    a = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(d))
    sigma = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return SpnModel(p, d, a, sigma)


def test_criterion_3_decomposition_identity():
    start = time.perf_counter()
    rng = random.Random(1003)
    ok = True
    for _ in range(50):
        model = _random_rational_spn(rng)
        lam = model.aspect_ratio
        lhs = spn_decompose(spn_moments(model, 8), lam)
        maa = atomic_moments([v * v for v in model.singular_values], 8)
        rhs = free_add_conv(
            spn_decompose(maa, lam),
            delta_moments(Fraction(model.sigma) ** 2 / lam, 8),
        )
        ok = ok and lhs == rhs
    report(3, "deconvolution decomposition identity, 50 exact models", ok,
           time.perf_counter() - start, 60)


def test_criterion_4_cw_recovery():
    start = time.perf_counter()
    rng = random.Random(1004)
    worst = 0.0
    for _ in range(20):
        p = rng.randint(1, 8)
        d = rng.randint(1, 8)
        model = CwModel(p, d, tuple(rng.uniform(-5, 5) for _ in range(p)))
        r = cw_r_transform(model, p, FLOAT)
        got = cw_recover_eigenvalues(r, p, d)
        worst = max(worst, float(np.max(np.abs(got - np.array(model.eigenvalues)))))
    report(4, "compound Wishart spectrum recovery", worst < 1e-8,
           time.perf_counter() - start, 10, f"worst error {worst:.2e}")


def test_criterion_5_spn_recovery():
    start = time.perf_counter()
    rng = random.Random(1005)
    worst = 0.0
    for _ in range(30):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        model = SpnModel(
            p, d,
            tuple(rng.uniform(0.0, 2.5) for _ in range(d)),
            rng.uniform(0.0, 2.0),
        )
        m = spn_moments(model, d + 4, FLOAT)
        rep = spn_recover(m, p, d)
        sigma_err = abs(rep.sigma_sq_hat - float(model.sigma) ** 2)
        atom_err = float(np.max(np.abs(
            np.array(rep.atoms)
            - np.sort([float(v) ** 2 for v in model.singular_values])
        )))
        worst = max(worst, sigma_err, atom_err)
    report(5, "signal-plus-noise recovery, 30 random models", worst < 1e-6,
           time.perf_counter() - start, 120, f"worst error {worst:.2e}")


def test_criterion_6_identifiability_equivalence():
    start = time.perf_counter()
    rng = random.Random(1006)
    ok = True
    for _ in range(10):  # equivalent pairs: permuted spectrum, flipped sign
        model = _random_rational_spn(rng)
        shuffled = list(model.singular_values)
        rng.shuffle(shuffled)
        twin = SpnModel(model.p, model.d, tuple(shuffled), -Fraction(model.sigma))
        rep = verify_identifiability(model, twin, 8)
        ok = ok and rep.identical and rep.first_divergent_order is None
    for k in range(10):  # inequivalent pairs must pinpoint a coefficient
        model = _random_rational_spn(rng)
        if k % 2:
            other = SpnModel(
                model.p, model.d, model.singular_values,
                Fraction(model.sigma) + Fraction(1, 3),
            )
        else:
            bumped = (Fraction(model.singular_values[0]) + 1,) + tuple(
                model.singular_values[1:]
            )
            other = SpnModel(model.p, model.d, bumped, model.sigma)
        rep = verify_identifiability(model, other, 8)
        ok = ok and not rep.identical and rep.first_divergent_order is not None
        ok = ok and rep.coefficient_a != rep.coefficient_b
    report(6, "identifiability equivalence on a 20-pair corpus", ok,
           time.perf_counter() - start, 10)


def test_criterion_7_cross_route_density_vs_series():
    start = time.perf_counter()
    rng = random.Random(1007)
    worst_rel = 0.0
    worst_mass = 0.0
    worst_stab = 0.0
    for _ in range(10):
        d = rng.randint(1, 3)
        p = rng.randint(d, 3 * d)
        model = SpnModel(
            p, d,
            tuple(rng.uniform(0.0, 2.0) for _ in range(d)),
            rng.uniform(0.3, 1.5),
        )
        lam = d / p
        sigma = float(model.sigma)
        edge = (max(model.singular_values) + sigma * (1 + 1 / np.sqrt(lam))) ** 2
        grid = np.linspace(1e-3, 1.2 * edge + 0.5, 3500)
        coarse = spn_density(model, grid, epsilon=6e-4)
        curve = spn_density(model, grid, epsilon=3e-4)
        mom = spn_moments(model, 4, FLOAT)
        for k in range(1, 5):
            # smoothing bias is linear in epsilon; extrapolate it away
            extrapolated = 2 * curve_moment(curve, k) - curve_moment(coarse, k)
            rel = abs(extrapolated - mom.coeffs[k - 1]) / abs(mom.coeffs[k - 1])
            worst_rel = max(worst_rel, rel)
        worst_mass = max(worst_mass, abs(curve.mass - 1.0))
        worst_stab = max(
            worst_stab, abs(curve.mass - coarse.mass) / coarse.mass
        )
    ok = worst_rel < 1e-3 and worst_mass < 0.02 and worst_stab < 0.005
    report(
        7, "analytic density vs combinatorial moments, 10 models", ok,
        time.perf_counter() - start, 300,
        f"moment rel {worst_rel:.2e}, mass gap {worst_mass:.2e}, "
        f"eps stability {worst_stab:.2e}",
    )


def test_criterion_8_monte_carlo_oracle():
    start = time.perf_counter()
    detail = []

    spn = SpnModel(600, 300, tuple(np.linspace(0.3, 2.2, 300)), 0.8)
    spn_pred = spn_moments(spn, 4, FLOAT)
    spn_real = empirical_spectrum(spn_sampler(spn, "real"), 30, 4, 8801)
    rel_spn = max(
        abs(e - c) / abs(c) for e, c in zip(spn_real.moments, spn_pred.coeffs)
    )
    detail.append(f"spn {rel_spn:.3f}")

    cw = CwModel(600, 300, tuple(np.linspace(0.5, 2.5, 600)))
    cw_pred = cw_moments(cw, 4, FLOAT)
    cw_emp = empirical_spectrum(cw_sampler(cw), 30, 4, 8802)
    rel_cw = max(
        abs(e - c) / abs(c) for e, c in zip(cw_emp.moments, cw_pred.coeffs)
    )
    detail.append(f"cw {rel_cw:.3f}")

    spn_cplx = empirical_spectrum(spn_sampler(spn, "complex"), 30, 4, 8803)
    rel_field = max(
        abs(a - b) / abs(b)
        for a, b in zip(spn_real.moments, spn_cplx.moments)
    )
    detail.append(f"fields {rel_field:.3f}")

    # corner embedding: the d-by-d corner of the square construction with
    # noise rescaled by 1/sqrt(lambda) has the same limiting moments
    d, p = 200, 400
    lam = d / p
    a = np.linspace(0.4, 1.8, d)
    corner_model = SpnModel(p, d, tuple(a), 0.6)

    def corner_sampler(seed):
        z = sample_ginibre(GinibreSpec(p, p, seed=seed))
        big_a = np.zeros((p, p))
        big_a[:d, :d] = np.diag(a)
        y = big_a + (0.6 / np.sqrt(lam)) * z
        return (y.T @ y)[:d, :d]

    direct = empirical_spectrum(spn_sampler(corner_model), 50, 4, 8804)
    corner = empirical_spectrum(corner_sampler, 50, 4, 8805)
    rel_corner = max(
        abs(x - y) / abs(y) for x, y in zip(corner.moments, direct.moments)
    )
    detail.append(f"corner {rel_corner:.3f}")

    ok = max(rel_spn, rel_cw, rel_field, rel_corner) < 0.02
    report(8, "Monte Carlo oracle at d=300 and corner embedding", ok,
           time.perf_counter() - start, 600, ", ".join(detail))


def test_criterion_9_cdf_comparison():
    start = time.perf_counter()
    d, p = 400, 800
    model = SpnModel(p, d, tuple([1.0, 2.0] * (d // 2)), 0.5)
    emp = empirical_spectrum(spn_sampler(model), 20, 1, 9901)
    grid = np.linspace(1e-3, 12.0, 1500)
    curve = spn_density(model, grid)
    density_cdf = curve_cdf(curve)
    empirical_cdf = np.searchsorted(
        emp.eigenvalues, grid, side="right"
    ) / len(emp.eigenvalues)
    sup = float(np.max(np.abs(density_cdf - empirical_cdf)))
    report(9, "empirical vs density-integrated CDF", sup < 0.03,
           time.perf_counter() - start, 300, f"sup gap {sup:.4f}")
