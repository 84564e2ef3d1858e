import random

import numpy as np
import pytest

from freedeconv.errors import DomainError, SigmaZeroError
from freedeconv.models import SpnModel, spn_moments
from freedeconv.subordination import (
    EPSILON_LADDER,
    CPoint2,
    _fixed_point,
    _g_atoms,
    _newton,
    _squared_atoms,
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


def test_fixed_point_residual_and_range():
    rng = random.Random(32)
    model = SpnModel(5, 3, (0.5, 1.0, 2.0), 0.8)
    for _ in range(10):
        z = CPoint2(
            complex(rng.uniform(0, 6), rng.uniform(0.05, 2)),
            complex(rng.uniform(0, 6), rng.uniform(0.05, 2)),
        )
        result = solve_subordination(model, z, tol=1e-12)
        assert result.residual <= 1e-12
        assert result.g.z1.imag <= 0 and result.g.z2.imag <= 0
        # the subordinated argument sits above the base point
        assert result.omega.z1.imag >= z.z1.imag - 1e-12
        assert result.omega.z2.imag >= z.z2.imag - 1e-12


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_density_rejects_non_finite_epsilon_and_tol(bad):
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
    # reference: damped Picard on every rung of the ladder
    atoms, counts = _squared_atoms(model.singular_values)
    g = None
    for eps in [e for e in EPSILON_LADDER if e > epsilon] + [epsilon]:
        zeta = np.sqrt(grid + 1j * eps)
        g, _, _, _ = _fixed_point(
            atoms, counts, model.p, model.d, float(model.sigma) ** 2,
            zeta, zeta, 1e-12, 100000, g=g,
        )
    return np.maximum(-np.imag(g[0] / zeta) / np.pi, 0.0)


def _rung_problem(model, grid, eps):
    # Picard's solution at the first rung as the warm start for offset eps
    atoms, counts = _squared_atoms(model.singular_values)
    sigma_sq = float(model.sigma) ** 2
    first = np.sqrt(grid + 0.1j)
    warm, _, _, _ = _fixed_point(
        atoms, counts, model.p, model.d, sigma_sq, first, first, 1e-12, 10000
    )
    zeta = np.sqrt(grid + 1j * eps)
    return (atoms, counts, model.p, model.d, sigma_sq, zeta, zeta), warm


@pytest.mark.parametrize("model", [REFERENCE, PURE_NOISE], ids=["reference", "noise"])
def test_density_agrees_with_picard_ladder(model):
    grid = _edge_grid(model, 800)
    curve = spn_density(model, grid, epsilon=1e-3)
    expect = _picard_ladder_density(model, grid, 1e-3)
    assert np.max(np.abs(curve.values - expect)) <= 1e-10
    assert curve.max_residual <= 1e-12


@pytest.mark.parametrize("model", [REFERENCE, PURE_NOISE], ids=["reference", "noise"])
def test_newton_rung_stays_lower_and_converges_pointwise(model):
    grid = _edge_grid(model, 600)
    problem, warm = _rung_problem(model, grid, 0.01)
    (g1, g2), max_res, _, _ = _newton(*problem, 1e-12, 10000, warm)
    assert np.all(g1.imag <= 0) and np.all(g2.imag <= 0)
    atoms, counts, p, d, sigma_sq, z1, z2 = problem
    t1, t2 = _g_atoms(atoms, counts, p, d, z1 - sigma_sq * (p / d) * g2, z2 - sigma_sq * g1)
    pointwise = np.maximum(np.abs(t1 - g1), np.abs(t2 - g2))
    assert np.all(pointwise <= 1e-12)
    assert max_res == pytest.approx(pointwise.max())


def test_start_out_of_lower_half_plane_is_handed_to_picard():
    grid = _edge_grid(REFERENCE, 300)
    problem, warm = _rung_problem(REFERENCE, grid, 0.03)
    expect, _, _, handed = _newton(*problem, 1e-12, 10000, warm)
    assert handed == 0
    forced = np.array([5, 100, 250])
    bad1, bad2 = warm[0].copy(), warm[1].copy()
    bad1[forced] = np.conj(bad1[forced])
    bad2[forced] = np.conj(bad2[forced])
    assert np.all(bad1[forced].imag > 0)
    (g1, g2), max_res, _, handed = _newton(*problem, 1e-12, 10000, (bad1, bad2))
    assert handed == len(forced)
    assert max_res <= 1e-12
    assert np.max(np.abs(g1 - expect[0])) <= 1e-10
    assert np.max(np.abs(g2 - expect[1])) <= 1e-10


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
