import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freedeconv import subordination
from freedeconv.errors import (
    DomainError,
    FreeDeconvError,
    NoConvergenceError,
    SigmaZeroError,
)
from freedeconv.models import SpnModel, spn_moments
from freedeconv.subordination import (
    CPoint2,
    _defect,
    _g_atoms,
    _ladder,
    _newton,
    _problem,
    _rung,
    _walk,
    curve_cdf,
    curve_moment,
    eta,
    g_lambda_atoms,
    solve_subordination,
    spn_density,
)


def semicircle_transform(zeta):
    # Cauchy transform of the radius-2 semicircle with the branch decaying
    # at infinity: g = (zeta - sqrt(zeta - 2) sqrt(zeta + 2)) / 2.
    return (zeta - np.sqrt(zeta - 2) * np.sqrt(zeta + 2)) / 2


def picard(model, z1, z2, g=None, tol=1e-12, max_iter=100000):
    # Reference solver: damped Picard iteration for g = G_A(z - sigma^2 eta(g))
    # (Helton, Rashidi Far and Speicher, IMRN 2007), from the signal
    # transform or from a warm start ``g``, on arrays of points.
    a = np.asarray([float(v) for v in model.singular_values])
    atoms, counts = np.unique(a * a, return_counts=True)
    p, d, sigma_sq = model.p, model.d, float(model.sigma) ** 2
    g1, g2 = _g_atoms(atoms, counts, p, d, z1, z2) if g is None else g
    for _ in range(max_iter):
        t1, t2 = _g_atoms(
            atoms, counts, p, d, z1 - sigma_sq * (p / d) * g2, z2 - sigma_sq * g1
        )
        if max(np.max(np.abs(t1 - g1)), np.max(np.abs(t2 - g2))) <= tol:
            return g1, g2
        g1, g2 = (g1 + t1) / 2, (g2 + t2) / 2
    raise AssertionError("the Picard reference did not converge")


def smoothed_marchenko_pastur(model, grid, epsilon):
    # -Im G(x + i eps) / pi for pure noise, where G solves
    # sigma^2 z G^2 - (z - sigma^2 (c - 1)) G + 1 = 0, c = p/d; the larger root
    # comes from the quadratic formula without cancellation, the smaller from
    # the product of the roots, and the transform is the one below the axis.
    sigma_sq, c = float(model.sigma) ** 2, model.p / model.d
    z = grid + 1j * epsilon
    b = z - sigma_sq * (c - 1)
    disc = np.sqrt(b * b - 4 * sigma_sq * z)
    disc = np.where(np.abs(b + disc) >= np.abs(b - disc), disc, -disc)
    large = (b + disc) / (2 * sigma_sq * z)
    g = np.where(large.imag < 0, large, 1 / (sigma_sq * z * large))
    return -g.imag / np.pi


# ------------------------------------------------------------ signal transform

def test_signal_transform_of_zero_is_componentwise_resolvent():
    z = CPoint2(1 + 2j, 3 + 1j)
    g = g_lambda_atoms((0.0, 0.0), 2, 2, z)
    assert g.z1 == pytest.approx(1 / z.z1)
    assert g.z2 == pytest.approx(1 / z.z2)


def test_signal_transform_hand_value():
    g = g_lambda_atoms((1.0,), 1, 1, CPoint2(2j, 2j))
    assert g.z1 == pytest.approx(2j / -5)
    assert g.z2 == pytest.approx(2j / -5)


def test_signal_transform_resolvent_asymptotics():
    for y in (10.0, 100.0):
        z = CPoint2(1j * y, 1j * y)
        g = g_lambda_atoms((1.0, 2.0), 4, 2, z)
        assert abs(g.z1 * 1j * y - 1) < 10 / y**2
        assert abs(g.z2 * 1j * y - 1) < 10 / y**2


def test_signal_transform_maps_into_lower_half_plane():
    rng = random.Random(31)
    for _ in range(20):
        z = CPoint2(
            complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)),
            complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)),
        )
        g = g_lambda_atoms((0.5, 1.5, 2.0), 5, 3, z)
        assert g.z1.imag < 0 and g.z2.imag < 0


def test_signal_transform_domain_check():
    with pytest.raises(DomainError):
        g_lambda_atoms((1.0,), 2, 1, CPoint2(1j, 1 - 1j))


@pytest.mark.parametrize("values, p, d, module", [
    ((Fraction(10**400),), 1, 1, "subordination"),
    ((1e200,), 1, 1, "subordination"),
    (("x",), 1, 1, "models"),
    ((True,), 1, 1, "models"),
    ((1.0,), 1, 0, "models"),
    ((1.0,), 1, 2.5, "models"),
    ((1.0, 2.0), 2, 1, "models"),
], ids=["huge-fraction", "square-overflows", "string", "bool", "d-zero", "d-float",
        "value-count"])
def test_signal_transform_reads_values_as_the_solver_does(values, p, d, module):
    # the arguments pass SpnModel's rules and the values _problem's
    # conversion: a domain error and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FreeDeconvError) as info:
            g_lambda_atoms(values, p, d, CPoint2(1j, 1j))
    assert info.value.module == module
    # exact values read as their floats
    assert g_lambda_atoms((Fraction(1, 3), 2), 3, 2, CPoint2(1j, 2j)) == g_lambda_atoms(
        (1 / 3, 2.0), 3, 2, CPoint2(1j, 2j))


# -------------------------------------------------------------------- eta map

def test_eta_swap_and_scale():
    assert eta(CPoint2(3.0, 5.0), 2, 2) == CPoint2(5.0, 3.0)
    assert eta(CPoint2(0.0, 5.0), 4, 2) == CPoint2(10.0, 0.0)


def test_eta_composed_twice_scales_both():
    x = CPoint2(1 + 1j, 2 - 3j)
    out = eta(eta(x, 4, 2), 4, 2)
    assert out == CPoint2(2 * x.z1, 2 * x.z2)


# ----------------------------------------------------------------- fixed point

def test_sigma_zero_converges_immediately():
    model = SpnModel(4, 2, (1.0, 2.0), 0.0)
    z = CPoint2(0.5 + 1j, 0.5 + 1j)
    result = solve_subordination(model, z)
    assert result.iterations == 1
    assert result.residual == 0.0
    assert result.g == g_lambda_atoms((1.0, 2.0), 4, 2, z)
    assert result.omega == z


def test_fixed_point_matches_semicircle_closed_form():
    # Zero signal at square aspect ratio embeds a semicircular element, so
    # the diagonal transform is the radius-2 semicircle transform.
    model = SpnModel(3, 3, (0.0, 0.0, 0.0), 1.0)
    for zeta in (0.4 + 0.3j, 1.3 + 0.5j, 2.5 + 2j, -1 + 0.05j):
        result = solve_subordination(model, CPoint2(zeta, zeta))
        expect = semicircle_transform(zeta)
        assert abs(result.g.z1 - expect) < 1e-8
        assert abs(result.g.z2 - expect) < 1e-8


def fixed_point_points():
    rng = random.Random(32)
    points = [
        CPoint2(
            complex(rng.uniform(-6, 6), rng.uniform(0.05, 2)),
            complex(rng.uniform(-6, 6), rng.uniform(0.05, 2)),
        )
        for _ in range(20)
    ]
    # z1 z2 = -1 lies on the negative axis; the last point has Im(z1 z2) < 0
    return points + [CPoint2(1j, 1j), CPoint2(-2 + 0.5j, 0.3 + 0.2j)]


FIXED_POINT_MODEL = SpnModel(5, 3, (0.5, 1.0, 2.0), 0.8)
REAL_TARGETS = [CPoint2(1j, 1j), CPoint2(2j, 0.5j), CPoint2(0.1j, 0.1j),
                CPoint2(0.3j, 0.3j), CPoint2(0.2j, 0.5j)]


def test_fixed_point_residual_and_range():
    model = FIXED_POINT_MODEL
    points = fixed_point_points()
    assert sum((z.z1 * z.z2).imag < 0 for z in points) >= 5
    for z in points:
        result = solve_subordination(model, z, tol=1e-12)
        assert result.residual <= 1e-12
        assert result.g.z1.imag <= 0 and result.g.z2.imag <= 0
        # the subordinated argument sits above the base point
        assert result.omega.z1.imag >= z.z1.imag - 1e-12
        assert result.omega.z2.imag >= z.z2.imag - 1e-12
        g1, g2 = picard(model, np.array([z.z1]), np.array([z.z2]))
        assert abs(result.g.z1 - g1[0]) <= 1e-10
        assert abs(result.g.z2 - g2[0]) <= 1e-10


@pytest.mark.parametrize("p", [5, 3], ids=["p5", "p3"])
@pytest.mark.parametrize(
    "z", REAL_TARGETS, ids=["i-i", "2i-half-i", "tenth-i", "0.3i", "0.2i-0.5i"]
)
def test_real_negative_target_converges_quadratically(p, z):
    # A real target Z = z1 z2 < 0 has a real omega; halving every step that
    # reached the axis once took 36-37 iterations on the last rung.  For
    # p = 5, every Z in about (-0.15, 0) also has real roots of
    # z(omega) = Z between the atoms, off the physical branch.
    model = SpnModel(p, 3, (0.5, 1.0, 2.0), 0.8)
    result = solve_subordination(model, z)
    assert result.iterations <= 8
    assert result.residual <= 1e-12
    g1, g2 = picard(model, np.array([z.z1]), np.array([z.z2]))
    assert abs(result.g.z1 - g1[0]) <= 1e-10
    assert abs(result.g.z2 - g2[0]) <= 1e-10


def test_fixed_point_resolvent_normalization():
    model = SpnModel(4, 2, (1.0, 2.0), 0.5)
    previous = None
    for y in (1.0, 2.0, 4.0, 8.0):
        z = CPoint2(1j * y, 1j * y)
        g = solve_subordination(model, z).g
        gap = max(abs(g.z1 * 1j * y - 1), abs(g.z2 * 1j * y - 1))
        if previous is not None:
            assert gap < previous
        previous = gap
    assert previous < 0.05


def test_fixed_point_domain_check():
    with pytest.raises(DomainError):
        solve_subordination(SpnModel(2, 2, (1.0, 1.0), 1.0), CPoint2(1j, -1j))


# -------------------------------------------------------------------- density

REFERENCE = SpnModel(4, 2, (1.0, 2.0), 0.5)


@pytest.fixture(scope="module")
def reference_curve():
    grid = np.linspace(1e-3, 12.0, 2000)
    return spn_density(REFERENCE, grid)


def test_density_mass_near_one(reference_curve):
    assert abs(reference_curve.mass - 1.0) < 0.02
    assert np.all(reference_curve.values >= 0)
    assert reference_curve.max_residual <= 1e-12


def test_density_matches_marchenko_pastur_moments():
    model = SpnModel(3, 3, (0.0, 0.0, 0.0), 1.0)
    grid = np.linspace(1e-4, 4.5, 2500)
    curve = spn_density(model, grid, epsilon=3e-4)
    assert curve_moment(curve, 1) == pytest.approx(1.0, abs=1e-3)
    assert curve_moment(curve, 2) == pytest.approx(2.0, abs=2e-3)


def test_density_moments_match_series_route(reference_curve):
    mom = spn_moments(REFERENCE, 4, "float")
    for k in (1, 2, 3):
        assert curve_moment(reference_curve, k) == pytest.approx(
            mom.coeffs[k - 1], rel=2e-3
        )


def test_density_sign_of_sigma_is_immaterial():
    grid = np.linspace(0.05, 10.0, 300)
    plus = spn_density(SpnModel(4, 2, (1.0, 2.0), 0.5), grid, epsilon=1e-2)
    minus = spn_density(SpnModel(4, 2, (1.0, 2.0), -0.5), grid, epsilon=1e-2)
    assert np.array_equal(plus.values, minus.values)


def test_density_epsilon_halving_stability():
    grid = np.linspace(1e-3, 12.0, 800)
    coarse = spn_density(REFERENCE, grid, epsilon=1e-3)
    fine = spn_density(REFERENCE, grid, epsilon=5e-4)
    assert abs(fine.mass - coarse.mass) / coarse.mass < 0.005


def test_density_rejects_sigma_zero_and_bad_grids():
    with pytest.raises(SigmaZeroError):
        spn_density(SpnModel(4, 2, (1.0, 2.0), 0.0), np.linspace(0.1, 5, 10))
    with pytest.raises(DomainError):
        spn_density(REFERENCE, np.linspace(-1.0, 5, 10))
    with pytest.raises(DomainError):
        spn_density(REFERENCE, np.array([1.0, 0.5]))
    with pytest.raises(DomainError):
        spn_density(REFERENCE, np.linspace(0.1, 5, 10), epsilon=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "x", None])
def test_density_rejects_non_finite_epsilon_and_tol(bad):
    # epsilon and tol pass one rule: a real number, positive and finite
    grid = np.linspace(0.1, 5, 10)
    with pytest.raises(DomainError):
        spn_density(REFERENCE, grid, epsilon=bad)
    with pytest.raises(DomainError):
        spn_density(REFERENCE, grid, tol=bad)


def test_curve_cdf_monotone_and_ends_at_mass(reference_curve):
    cdf = curve_cdf(reference_curve)
    assert cdf.shape == reference_curve.grid.shape
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(reference_curve.mass)


# ------------------------------------------------------------- Newton solver

PURE_NOISE = SpnModel(6, 2, (0.0, 0.0), 1.3)


def _edge_grid(model, points):
    sigma = float(model.sigma)
    edge = (max(model.singular_values) + sigma * (1 + np.sqrt(model.p / model.d))) ** 2
    return np.linspace(1e-3, 1.2 * edge + 0.5, points)


def _picard_ladder_density(model, grid, epsilon):
    # reference: damped Picard on every rung of a fixed ladder, warm-started
    # from the rung before
    g = None
    for eps in [e for e in (0.1, 0.03, 0.01, 0.003, 0.001) if e > epsilon] + [epsilon]:
        zeta = np.sqrt(grid + 1j * eps)
        g = picard(model, zeta, zeta, g)
    return np.maximum(-np.imag(g[0] / zeta) / np.pi, 0.0)


@pytest.mark.parametrize(
    "model, reference",
    [(REFERENCE, _picard_ladder_density), (PURE_NOISE, smoothed_marchenko_pastur)],
    ids=["reference", "noise"],
)
def test_density_agrees_with_picard_ladder(model, reference):
    grid = _edge_grid(model, 800)
    curve = spn_density(model, grid, epsilon=1e-3)
    assert np.max(np.abs(curve.values - reference(model, grid, 1e-3))) <= 1e-10
    assert curve.max_residual <= 1e-12


def ladder_solve(terms, x, zeta, rungs, walk=_walk):
    # spn_density's solve without the remembered ladder: the walk down
    # ``rungs`` at Z = x + i eta, then the target at zeta^2; returns g, w,
    # the largest defect, the iterations on each rung and the halved steps
    omega, its, halved = walk(terms, x, rungs, x + 1j * rungs[0], 100)
    _, g, w, res, n, h = _rung(terms, omega, zeta * zeta, 1e-12, 100, (zeta, zeta))
    return g, w, res, (*its, n), sum(halved) + h


def _solve_grid(model, grid, eps, rungs=None):
    terms, scale = _problem(model)
    zeta = np.sqrt(grid + 1j * eps)
    rungs = _ladder(scale, eps) if rungs is None else tuple(rungs)
    return terms, zeta, ladder_solve(terms, grid, zeta, rungs)


@pytest.mark.parametrize("model", [REFERENCE, PURE_NOISE], ids=["reference", "noise"])
def test_newton_rung_stays_lower_and_converges_pointwise(model):
    terms, zeta, ((g1, g2), _, max_res, _, _) = _solve_grid(
        model, _edge_grid(model, 600), 1e-3
    )
    assert np.all(g1.imag <= 0) and np.all(g2.imag <= 0)
    atoms, counts, p, d, sigma_sq = terms
    t1, t2 = _g_atoms(
        atoms, counts, p, d, zeta - sigma_sq * (p / d) * g2, zeta - sigma_sq * g1
    )
    pointwise = np.maximum(np.abs(t1 - g1), np.abs(t2 - g2))
    assert np.all(pointwise <= 1e-12)
    assert max_res <= 1e-12


@pytest.mark.parametrize("model", [PURE_NOISE, SpnModel(2, 1, (0.54,), 1.34)],
                         ids=["noise", "one-atom"])
def test_branch_rule_keeps_a_single_jump_on_the_physical_branch(model):
    # from eps = 1 straight to the target, Newton steps leave the upper
    # half-plane; halved, they still land on the full ladder's solution
    grid = _edge_grid(model, 600)
    _, _, (full, _, _, _, full_halved) = _solve_grid(model, grid, 1e-3)
    _, _, (jump, _, res, _, halved) = _solve_grid(model, grid, 1e-3, rungs=[1.0])
    assert full_halved == 0 and halved > 0
    assert res <= 1e-12
    assert np.max(np.abs(jump[0] - full[0])) <= 1e-10
    assert np.max(np.abs(jump[1] - full[1])) <= 1e-10


@pytest.mark.parametrize("model", [PURE_NOISE, SpnModel(2, 1, (0.54,), 1.34)],
                         ids=["noise", "one-atom"])
def test_branch_rule_halves_on_a_continuation_rung(model):
    # the same jump on a rung above the target, from eps = 1 to 2e-3
    grid = _edge_grid(model, 600)
    terms, zeta, (full, _, _, _, _) = _solve_grid(model, grid, 1e-3)
    omega, _, (_, halved) = _walk(terms, grid, (1.0, 2e-3), grid + 1j, 100)
    assert halved > 0 and np.all(omega.imag > 0)
    _, _, (jump, _, res, _, _) = _solve_grid(model, grid, 1e-3, rungs=[1.0, 2e-3])
    assert res <= 1e-12
    assert np.max(np.abs(jump[0] - full[0])) <= 1e-10
    assert np.max(np.abs(jump[1] - full[1])) <= 1e-10


def test_pure_noise_density_scales_with_sigma():
    # W = sigma^2 Z*Z, so sigma^2 rho_sigma(sigma^2 x) at offset eps is the
    # sigma = 1 density at x with offset eps / sigma^2
    grid = np.linspace(1e-3, 8.0, 400)
    for sigma in (20, 40):
        scaled = spn_density(SpnModel(2, 1, (0,), sigma), sigma**2 * grid, epsilon=1e-3)
        unit = spn_density(SpnModel(2, 1, (0,), 1), grid, epsilon=1e-3 / sigma**2)
        assert np.max(np.abs(sigma**2 * scaled.values - unit.values)) <= 1e-10


def test_density_and_fixed_point_scale_below_scale_one():
    # The README model with a scaled by 10^-3, so W by 10^-6 and E by 10^-6:
    # g grows like 1 / sqrt(E), and with an absolute defect bound the target
    # stalled at its rounding floor (residual 2.0e-12 after 100 iterations).
    # Solved in units of g, it is the unscaled solution, scaled.
    unit, small = SpnModel(4, 2, (1, 2), 0.5), SpnModel(4, 2, (1e-3, 2e-3), 5e-4)
    grid = np.linspace(1e-3, 12.0, 2000)
    curve = spn_density(unit, grid, epsilon=1e-3)
    scaled = spn_density(small, 1e-6 * grid, epsilon=1e-9)
    assert np.max(np.abs(1e-6 * scaled.values - curve.values)) <= 1e-8 * curve.values.max()
    for x in (3.0, 5.090508474576271, 6.919491525423729):
        z = complex(np.sqrt(x + 1e-3j))
        g = solve_subordination(unit, CPoint2(z, z)).g
        g_small = solve_subordination(small, CPoint2(1e-3 * z, 1e-3 * z)).g
        for a, b in zip(g_small, g):
            assert abs(1e-3 * a - b) <= 1e-8 * abs(b)


@pytest.mark.xfail(strict=True, raises=NoConvergenceError, reason=(
    "the defect bound tol / sqrt(min(1, E)) is scale-free only for E <= 1: "
    "at E = 2.9e-6 the target stalls at its rounding floor, 6.2e-10 against "
    "a bound of 5.9e-10"))
def test_density_scales_below_scale_one_at_small_sigma():
    # sigma / scale = 0.02 and eps = 1e-4 E; the same model scaled by 10^3,
    # so W by 10^6, converges on the scaled grid
    unit = SpnModel(4, 2, (1.5372, 1.658), 0.02)
    small = SpnModel(4, 2, (1.5372e-3, 1.658e-3), 2e-5)
    scale = (1.658 + 0.02 * (1 + np.sqrt(2))) ** 2
    grid = np.linspace(1e-3 * scale, 1.2 * scale, 500)
    curve = spn_density(unit, grid, epsilon=1e-4 * scale)
    assert curve.max_residual <= 1e-12
    scaled = spn_density(small, 1e-6 * grid, epsilon=1e-10 * scale)
    assert np.max(np.abs(1e-6 * scaled.values - curve.values)) <= 1e-8 * curve.values.max()


@pytest.mark.parametrize(
    "model",
    [SpnModel(4, 2, (1.0, 2.0), 1e200), SpnModel(4, 2, (1e200, 2.0), 0.5),
     SpnModel(4, 2, (1, 2), Fraction(10**400)), SpnModel(1000, 1, (0,), 1e153)],
    ids=["sigma", "singular-value", "huge-fraction", "scale"],
)
def test_non_finite_squares_are_domain_errors(model):
    with pytest.raises(DomainError):
        spn_density(model, np.linspace(0.1, 5, 10))
    with pytest.raises(DomainError):
        solve_subordination(model, CPoint2(1j, 1j))


def test_small_epsilon_converges_with_default_max_iter():
    rng = random.Random(1007)
    for _ in range(10):
        d = rng.randint(1, 3)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.0) for _ in range(d))
        sigma = rng.uniform(0.3, 1.5)
    # draw 10 of criterion 7, which needed more than 10000 Picard iterations
    draw10 = SpnModel(p, d, a, sigma)
    assert (p, d) == (2, 1)
    grid = _edge_grid(draw10, 3500)
    curve = spn_density(draw10, grid, epsilon=6e-4)
    assert curve.max_residual <= 1e-12
    assert curve.max_iterations <= 10000
    noise = spn_density(PURE_NOISE, _edge_grid(PURE_NOISE, 2000), epsilon=1e-3)
    assert noise.max_residual <= 1e-12


# ------------------------------------------------------- continuation ladder

def converged_walk(terms, x, rungs, omega, max_iter):
    # reference for _walk: every rung solved by the target's own pointwise
    # defect test, at the square of sqrt(x + i eta)
    rung_its, halved = [], []
    for height in rungs:
        zeta = np.sqrt(x + 1j * height)
        omega, _, _, _, its, h = _rung(terms, omega, zeta * zeta, 1e-12, max_iter,
                                       (zeta, zeta))
        rung_its.append(its)
        halved.append(h)
    return omega, tuple(rung_its), tuple(halved)


def criterion7_models(count):
    rng = random.Random(1007)
    out = []
    for _ in range(count):
        d = rng.randint(1, 3)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.0) for _ in range(d))
        out.append(SpnModel(p, d, a, rng.uniform(0.3, 1.5)))
    return out


def z_of_omega(terms, omega):
    # the information-plus-noise map z(omega) = omega u^2 + sigma^2 (p/d - 1) u
    atoms, counts, p, d, sigma_sq = terms
    u = 1 + sigma_sq * (counts / (omega[:, None] - atoms)).sum(axis=1) / d
    return omega * u * u + sigma_sq * (p / d - 1) * u


@pytest.mark.parametrize("epsilon", [2e-3, 1e-3])
def test_continuation_ladder_agrees_with_converged_ladder(monkeypatch, epsilon):
    for model in criterion7_models(20):
        grid = _edge_grid(model, 2000)
        terms, scale = _problem(model)
        zeta = np.sqrt(grid + 1j * epsilon)
        rungs = _ladder(scale, epsilon)
        (g1, g2), _, res, its, _ = ladder_solve(terms, grid, zeta, rungs)
        (r1, r2), _, _, _, _ = ladder_solve(terms, grid, zeta, rungs, converged_walk)
        assert res <= 1e-12
        assert max(np.max(np.abs(g1 - r1)), np.max(np.abs(g2 - r2))) <= 1e-10
        curve = spn_density(model, grid, epsilon=epsilon)
        assert curve.rung_iterations == its and len(its) == len(rungs) + 1
        assert curve.max_iterations == max(its)
        with monkeypatch.context() as patch:
            # walk from the top, not from the ladder the call above left
            patch.setattr(subordination, "_last_ladder", None)
            patch.setattr(subordination, "_walk", converged_walk)
            reference = spn_density(model, grid, epsilon=epsilon)
        assert np.max(np.abs(curve.values - reference.values)) <= 1e-10


def test_continuation_agrees_with_converged_ladder_pointwise(monkeypatch):
    cases = [(FIXED_POINT_MODEL, z) for z in fixed_point_points()]
    cases += [(SpnModel(p, 3, (0.5, 1.0, 2.0), 0.8), z)
              for p in (5, 3) for z in REAL_TARGETS]
    cases += [(SpnModel(3, 3, (0.0, 0.0, 0.0), 1.0), CPoint2(zeta, zeta))
              for zeta in (0.4 + 0.3j, 1.3 + 0.5j, 2.5 + 2j, -1 + 0.05j)]
    results = [solve_subordination(model, z) for model, z in cases]
    monkeypatch.setattr(subordination, "_walk", converged_walk)
    for (model, z), result in zip(cases, results):
        reference = solve_subordination(model, z)
        assert abs(result.g.z1 - reference.g.z1) <= 1e-10
        assert abs(result.g.z2 - reference.g.z2) <= 1e-10
        assert result.residual <= 1e-12


@pytest.mark.parametrize(
    "model", [REFERENCE, PURE_NOISE, *criterion7_models(4)],
    ids=["reference", "noise", "draw1", "draw2", "draw3", "draw4"],
)
def test_intermediate_rungs_reach_the_next_rung_height(model):
    # each rung above the target ends with every point within eta/10 of its
    # Z, in the upper half-plane, and the walk is those rungs and then the
    # target
    terms, scale = _problem(model)
    rungs = _ladder(scale, 1e-3)
    x = _edge_grid(model, 2000)
    zeta = np.sqrt(x + 1j * 1e-3)
    omega = x + 1j * rungs[0]
    counts = []
    for height in rungs:
        omega, _, _, _, its, _ = _rung(terms, omega, x + 1j * height, height / 10, 100)
        counts.append(its)
        assert np.all(omega.imag > 0)
        miss = np.abs(z_of_omega(terms, omega) - (x + 1j * height))
        assert np.max(miss) <= height / 10
    walked, walked_its, _ = _walk(terms, x, rungs, x + 1j * rungs[0], 100)
    assert walked_its == tuple(counts) and np.array_equal(walked, omega)
    _, g, _, _, its, _ = _rung(terms, omega, zeta * zeta, 1e-12, 100, (zeta, zeta))
    solved = ladder_solve(terms, x, zeta, rungs)
    assert solved[3] == (*counts, its)
    assert np.array_equal(solved[0][0], g[0]) and np.array_equal(solved[0][1], g[1])
    curve = spn_density(model, x, epsilon=1e-3)
    assert curve.rung_iterations == (*counts, its)
    assert np.array_equal(curve.values, np.maximum(-np.imag(g[0] / zeta) / np.pi, 0.0))


# ------------------------------------------------ solver arguments and stops

SOLVER_POINT = complex(np.sqrt(3 + 1e-3j))
ENTRY_POINTS = {
    "density": lambda **kw: spn_density(REFERENCE, np.linspace(1e-3, 12.0, 200), **kw),
    "point": lambda **kw: solve_subordination(
        REFERENCE, CPoint2(SOLVER_POINT, SOLVER_POINT), **kw),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad",
    [{"tol": float("nan")}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("inf")},
     {"tol": True}, {"tol": None}, {"max_iter": 0}, {"max_iter": -3},
     {"max_iter": 2.5}, {"max_iter": None}, {"max_iter": True}],
    ids=["tol-nan", "tol-zero", "tol-negative", "tol-inf", "tol-bool", "tol-none",
         "max-iter-zero", "max-iter-negative", "max-iter-float", "max-iter-none",
         "max-iter-bool"],
)
def test_solver_arguments_are_checked_at_both_entry_points(entry, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            ENTRY_POINTS[entry](**bad)
    assert info.value.module == "subordination"


NON_FINITE_POINTS = {
    "density": [[1.0, math.inf], [math.nan, 1.0], [0.5, 1.0, math.nan]],
    "point": [CPoint2(complex(math.inf, 1), 1j), CPoint2(complex(math.nan, 1), 1j),
              CPoint2(1j, complex(-math.inf, 1)), CPoint2(1j, complex(1, math.inf)),
              CPoint2(complex(math.nan, 1), complex(math.nan, 1)),
              # finite points whose Z = z1 z2 overflows (inf, then nan), and
              # one whose 10 |Z|, the ladder's first rung, does
              CPoint2(1e200 + 1j, 1e200 + 1j), CPoint2(1e200 + 1e200j, 1e200 + 1e200j),
              CPoint2(1e154 + 1j, 1e154 + 1j)],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_non_finite_points_are_checked_at_both_entry_points(entry):
    # a grid point or a coordinate of z that is inf or nan, or a product
    # z1 z2 too large for the ladder, is a domain error, raised before any
    # arithmetic and so without a warning; on both the signal-plus-noise
    # model and sigma = 0
    models = [SpnModel(4, 2, (1, 2), 0.5), SpnModel(4, 2, (1, 2), 0)]
    for model in models[:1] if entry == "density" else models:
        for at in NON_FINITE_POINTS[entry]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as info:
                    if entry == "density":
                        spn_density(model, at)
                    else:
                        solve_subordination(model, at)
            assert info.value.module == "subordination"


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_solver_accepts_large_and_numpy_iteration_caps(entry):
    # the benchmark's cap, and a numpy integer
    for max_iter in (100000, np.int64(100)):
        result = ENTRY_POINTS[entry](max_iter=max_iter)
        assert (result.max_residual if entry == "density" else result.residual) <= 1e-12


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_no_convergence_on_a_rung_above_the_target(entry):
    # rung 10E needs one iteration, rung E two: after one, omega still
    # solves the rung above, about 9E from this rung's Z
    _, scale = _problem(REFERENCE)
    with pytest.raises(NoConvergenceError) as info:
        ENTRY_POINTS[entry](max_iter=1)
    assert info.value.iterations == 1
    assert np.isfinite(info.value.residual) and info.value.residual > scale / 10


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_no_convergence_at_the_target(entry):
    # every rung above the target takes at most 4 iterations; no defect
    # reaches 1e-300, so the target stops at the cap near the rounding floor
    with pytest.raises(NoConvergenceError) as info:
        ENTRY_POINTS[entry](tol=1e-300, max_iter=20)
    assert info.value.iterations == 20
    assert np.isfinite(info.value.residual) and 0 < info.value.residual <= 1e-12


# ------------------------------------------------------ the remembered ladder

def curve_fields(curve):
    # every field of a DensityCurve, arrays as bytes
    return (curve.grid.tobytes(), curve.values.tobytes(), curve.epsilon, curve.mass,
            curve.max_residual, curve.max_iterations, curve.fallback_points,
            curve.rung_iterations)


def cold_density(monkeypatch, *args, **kw):
    # spn_density walking its whole ladder from the top
    with monkeypatch.context() as patch:
        patch.setattr(subordination, "_last_ladder", None)
        return spn_density(*args, **kw)


def walked_rungs(monkeypatch):
    # the rungs each _walk call is handed, in order
    calls, walk = [], subordination._walk

    def spy(terms, x, rungs, omega, max_iter):
        calls.append(rungs)
        return walk(terms, x, rungs, omega, max_iter)

    monkeypatch.setattr(subordination, "_walk", spy)
    return calls


# criterion 7's first four models: at eps = 1e-3 the first two reuse the
# whole ladder of 2e-3 and the last two add the rung E / 10^4 to it
GAINS_A_RUNG = [False, False, True, True]


def test_eps_call_resumes_the_2eps_ladder(monkeypatch):
    for model, gains in zip(criterion7_models(4), GAINS_A_RUNG):
        grid = _edge_grid(model, 2000)
        _, scale = _problem(model)
        coarse, fine = _ladder(scale, 2e-3), _ladder(scale, 1e-3)
        assert (len(fine) == len(coarse) + 1) == gains and fine[:len(coarse)] == coarse
        cold = cold_density(monkeypatch, model, grid, epsilon=1e-3)
        calls = walked_rungs(monkeypatch)
        spn_density(model, grid, epsilon=2e-3)
        warm = spn_density(model, grid, epsilon=1e-3)
        monkeypatch.undo()
        # the eps call walks only the rungs the 2 eps call did not
        assert calls == [coarse, fine[len(coarse):]]
        assert curve_fields(warm) == curve_fields(cold)


def _nudged(grid):
    out = grid.copy()
    out[7] = np.nextafter(out[7], np.inf)
    return out


@pytest.mark.parametrize("case", ["grid-ulp", "grid-mutated", "sigma", "eps-before-2eps"])
def test_remembered_ladder_misses(monkeypatch, case):
    # a model that adds a rung at eps = 1e-3, or for sigma one whose scale,
    # and so its ladder, stays the same when sigma moves up by an ulp
    model = criterion7_models(4)[0 if case == "sigma" else 2]
    grid = _edge_grid(model, 2000)
    first, second = (model, grid, 2e-3), (model, grid, 1e-3)
    if case == "grid-ulp":
        second = (model, _nudged(grid), 1e-3)
    elif case == "sigma":
        other = SpnModel(model.p, model.d, model.singular_values,
                         float(np.nextafter(model.sigma, 2.0)))
        assert _problem(other)[1] == _problem(model)[1]
        second = (other, grid, 1e-3)
    elif case == "eps-before-2eps":
        first, second = second, first
    calls = walked_rungs(monkeypatch)
    spn_density(*first[:2], epsilon=first[2])
    if case == "grid-mutated":
        grid[7] = np.nextafter(grid[7], np.inf)
    warm = spn_density(*second[:2], epsilon=second[2])
    monkeypatch.undo()
    terms, scale = _problem(second[0])
    # the second call walks its whole ladder, from the top
    assert calls[-1] == _ladder(scale, second[2])
    cold = cold_density(monkeypatch, *second[:2], epsilon=second[2])
    assert curve_fields(warm) == curve_fields(cold)


def test_warm_call_raises_as_a_cold_call(monkeypatch):
    # after the 2 eps call walked the ladder, every cap from 1 to the largest
    # rung's count gives the eps call the cold call's curve or error
    model = criterion7_models(4)[2]
    grid = _edge_grid(model, 2000)
    full = cold_density(monkeypatch, model, grid, epsilon=1e-3)
    raised = 0
    for max_iter in range(1, full.max_iterations + 1):
        outcomes = []
        for warm in (True, False):
            spn_density(model, grid, epsilon=2e-3)
            try:
                if warm:
                    curve = spn_density(model, grid, epsilon=1e-3, max_iter=max_iter)
                else:
                    curve = cold_density(monkeypatch, model, grid, epsilon=1e-3,
                                         max_iter=max_iter)
                outcomes.append(curve_fields(curve))
            except NoConvergenceError as exc:
                outcomes.append((str(exc), exc.iterations, exc.residual))
        assert outcomes[0] == outcomes[1]
        raised += isinstance(outcomes[0][0], str)
    assert 0 < raised < full.max_iterations


# ------------------------------------------ one Newton evaluation, in mpmath

def test_newton_evaluation_and_defect_match_mpmath():
    # s, z, z' (and through it s') and the target's defect at random omega in
    # C+ on models with 1 to 40 distinct atoms, against the definitions at 50
    # digits: every one within 1e-13 relative
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2024)
    worst = 0.0
    for distinct in [1, 2, 3, 5, 8, 13, 21, 40] * 3:
        sv = [rng.uniform(0.0, 2.0) for _ in range(distinct)]
        a = tuple(v for v in sv for _ in range(rng.randint(1, 3)))
        model = SpnModel(rng.randint(len(a), 3 * len(a)), len(a), a, rng.uniform(0.3, 1.5))
        (atoms, counts, p, d, sigma_sq), _ = _problem(model)
        assert atoms.size == distinct
        shift = sigma_sq * (p / d - 1)
        kernel = (atoms[:, None].astype(complex), (counts / d)[:, None], sigma_sq, shift)
        omega, z1, z2 = (np.array([complex(rng.uniform(-1.0, 6.0), 10 ** rng.uniform(-2, 1))
                                   for _ in range(4)]) for _ in range(3))
        for target in (False, True):
            _, _, s, _, z, dz = _newton(*kernel, omega, np.zeros(4), target)
            gap, wr, _, u, f, _ = _newton(*kernel, omega, z1 * z2, target)
            defect = _defect(d / p, shift, gap, wr, u, f, z1, z2, 1 / z2)[0]
            with mp.workdps(50):
                for i in range(4):
                    o, y1, y2 = (mp.mpc(v[i].real, v[i].imag) for v in (omega, z1, z2))
                    terms = [(int(c), mp.mpf(float(x))) for x, c in zip(atoms, counts)]
                    ref_s = sum(c / (o - x) for c, x in terms) / d
                    ref_ds = -sum(c / (o - x) ** 2 for c, x in terms) / d
                    ref_u = 1 + sigma_sq * ref_s
                    ref_shift = sigma_sq * (mp.mpf(p) / d - 1)
                    ref_z = o * ref_u ** 2 + ref_shift * ref_u
                    ref_dz = ref_u ** 2 + sigma_sq * ref_ds * (2 * o * ref_u + ref_shift)
                    v2 = y2 / ref_u
                    v1 = (y1 - ref_shift / v2) / ref_u
                    s_w = sum(c / (v1 * v2 - x) for c, x in terms) / d
                    ref_defect = max(abs(v2), mp.mpf(d) / p * abs(v1)) * abs(s_w - ref_s)
                    for got, ref in [(s[i], ref_s), (z[i], ref_z), (dz[i], ref_dz),
                                     (defect[i], ref_defect)]:
                        worst = max(worst, float(abs(mp.mpc(got.real, got.imag) - ref)
                                                 / abs(ref)))
    assert worst <= 1e-13
