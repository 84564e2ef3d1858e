import math
import random
import sys
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freedeconv import models
from freedeconv.errors import (
    DimensionMismatchError,
    DomainError,
    NonrealRootsError,
    OrderTooSmallError,
    RecoveryFailedError,
)
from freedeconv.models import (
    CwModel,
    SpnModel,
    _atoms,
    _candidate,
    _candidate_rows,
    _gap_polys,
    _gcd_roots,
    _homogeneous,
    _int_gcd,
    _noise_level_candidates,
    _pseudo_divide,
    _recurrence_gaps,
    _rescaled,
    _round53,
    _spn_map,
    _times,
    _translate,
    atomic_moments,
    cw_moments,
    cw_r_transform,
    cw_recover_eigenvalues,
    delta_moments,
    f_lambda,
    free_poisson_r,
    spn_decompose,
    spn_moments,
    spn_recover,
    verify_identifiability,
)
from freedeconv.series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    _cumulants,
    _moments,
    boxed_conv,
    format_rational,
    free_add_conv,
    moment_from_r,
    r_transform,
    zeta_series,
)

CATALAN = (1, 2, 5, 14, 42, 132)


class Poly(tuple):
    """An exact polynomial, coefficients lowest power first, with the ring
    operations of the series recursions: the reference ring for the integer
    evaluations of ``models``.  Trailing zeros stay: the length is the degree
    bound plus one."""

    def __add__(self, other):
        other = other if isinstance(other, Poly) else (other,)
        return Poly(a + b for a, b in zip_longest(self, other, fillvalue=0))

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Poly) else (other,)
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__


def random_spn_model(rng, max_d=4, rational=True):
    d = rng.randint(1, max_d)
    p = rng.randint(d, 3 * d)
    if rational:
        a = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(d))
        sigma = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    else:
        a = tuple(rng.uniform(0.0, 2.5) for _ in range(d))
        sigma = rng.uniform(0.0, 2.0)
    return SpnModel(p, d, a, sigma)


# ----------------------------------------------------------------- primitives

def test_delta_moments():
    assert delta_moments(0, 4).coeffs == (0, 0, 0, 0)
    assert delta_moments(1, 4) == zeta_series(4)
    assert delta_moments(2, 3).coeffs == (2, 4, 8)


def test_free_poisson_r():
    assert free_poisson_r(1, 1, 5) == zeta_series(5)
    assert free_poisson_r(2, 3, 2).coeffs == (6, 18)
    with pytest.raises(DomainError):
        free_poisson_r(0, 1, 3)


def test_f_lambda_values_and_identity():
    lam = Fraction(1, 2)
    assert f_lambda(lam, 3).coeffs == (1, Fraction(1, 2), Fraction(1, 4))
    assert f_lambda(1, 5) == zeta_series(5)
    # same series as the free Poisson cumulants with rate 1/lam, jump lam
    assert f_lambda(lam, 6) == free_poisson_r(1 / lam, lam, 6)
    with pytest.raises(DomainError):
        f_lambda(0, 3)
    with pytest.raises(DomainError):
        f_lambda(Fraction(3, 2), 3)


def test_atomic_moments():
    assert atomic_moments((1, 4), 2).coeffs == (Fraction(5, 2), Fraction(17, 2))
    beta = Fraction(2, 3)
    assert atomic_moments((beta,) * 4, 5) == delta_moments(beta, 5)
    assert atomic_moments((0, 0), 3).coeffs == (0, 0, 0)
    with pytest.raises(DomainError):
        atomic_moments((), 3)


# ------------------------------------------------------------- model records

def test_models_canonicalize_and_validate():
    cw = CwModel(3, 2, (3, 1, 2))
    assert cw.eigenvalues == (1, 2, 3)
    with pytest.raises(DimensionMismatchError):
        CwModel(3, 2, (1, 2))
    spn = SpnModel(4, 2, (2, 1), -1)
    assert spn.singular_values == (1, 2)
    assert spn.aspect_ratio == Fraction(1, 2)
    with pytest.raises(DimensionMismatchError):
        SpnModel(2, 4, (1, 1, 1, 1), 0)
    with pytest.raises(DomainError):
        SpnModel(4, 2, (-1, 2), 0)


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SpnModel(4, 2, (1, 2), NAN), DomainError),
        (lambda: SpnModel(4, 2, (1, NAN), 0.5), DomainError),
        (lambda: CwModel(2, 2, (1, NAN)), DomainError),
        (lambda: CwModel(2, 2, (1, float("inf"))), DomainError),
        (lambda: SpnModel(4.0, 2, (1, 2), 0.5), DomainError),
        (lambda: CwModel(2, True, (1, 2)), DomainError),
        (lambda: SpnModel(4, 2, ("1", "2"), 0.5), DomainError),
        (lambda: SpnModel(4, 2, (1, 2), "1/2"), DomainError),
        (lambda: CwModel(1, 1, 3), DomainError),
        (lambda: CwModel(0, 2, ()), DimensionMismatchError),
        (lambda: SpnModel(4, 0, (), 0.5), DimensionMismatchError),
    ],
    ids=["spn-sigma-nan", "spn-value-nan", "cw-value-nan", "cw-value-inf",
         "float-dimension", "bool-dimension", "string-values", "string-sigma",
         "values-not-a-list", "cw-p-zero", "spn-d-zero"],
)
def test_model_constructors_check_fields(build, error):
    with pytest.raises(error):
        build()


def test_model_constructors_take_numpy_and_fraction_scalars():
    model = SpnModel(4, 2, (np.int64(1), 2), Fraction(1, 2))
    assert model.singular_values == (1, 2)
    assert spn_moments(model, 3) == spn_moments(SpnModel(4, 2, (1, 2), 0.5), 3)
    assert CwModel(2, 2, np.array([2.0, 1.0])).eigenvalues == (1.0, 2.0)


def test_model_json_round_trip():
    cw = CwModel(2, 2, (Fraction(1, 2), 2))
    assert CwModel.from_dict(cw.to_dict()) == cw
    spn = SpnModel(4, 2, (1, 2), Fraction(1, 2))
    assert SpnModel.from_dict(spn.to_dict()) == spn


# ------------------------------------------------------------------------- CW

def test_cw_r_transform_values():
    assert cw_r_transform(CwModel(2, 2, (0, 0)), 4).coeffs == (0, 0, 0, 0)
    ones = CwModel(3, 3, (1, 1, 1))
    assert cw_r_transform(ones, 5) == zeta_series(5)
    got = cw_r_transform(CwModel(2, 2, (1, 2)), 3)
    assert got.coeffs == (Fraction(3, 2), Fraction(5, 2), Fraction(9, 2))


def test_cw_moments_first_and_catalan():
    model = CwModel(3, 2, (Fraction(1, 2), 1, 2))
    m = cw_moments(model, 4)
    assert m.coeffs[0] == Fraction(7, 4)
    # all-ones spectrum with p = d is the standard free Poisson law
    assert cw_moments(CwModel(4, 4, (1,) * 4), 6).coeffs == CATALAN


def test_cw_moment_positivity():
    rng = random.Random(20)
    for _ in range(10):
        p = rng.randint(1, 6)
        d = rng.randint(1, 6)
        model = CwModel(p, d, tuple(rng.uniform(0, 5) for _ in range(p)))
        assert all(c >= 0 for c in cw_moments(model, 8, FLOAT).coeffs)


def test_cw_recovery_round_trip():
    rng = random.Random(21)
    for _ in range(15):
        p = rng.randint(1, 8)
        d = rng.randint(1, 8)
        model = CwModel(p, d, tuple(rng.uniform(-5, 5) for _ in range(p)))
        r = cw_r_transform(model, p, FLOAT)
        got = cw_recover_eigenvalues(r, p, d)
        assert np.allclose(got, model.eigenvalues, atol=1e-8)


def test_cw_recovery_edge_cases():
    zero = MomentSeries((0.0,) * 4, FLOAT)
    assert np.allclose(cw_recover_eigenvalues(zero, 4, 2), 0.0)
    const = CwModel(3, 2, (2.5, 2.5, 2.5))
    got = cw_recover_eigenvalues(cw_r_transform(const, 3, FLOAT), 3, 2)
    assert np.allclose(got, 2.5, atol=1e-8)


def test_cw_recovery_errors():
    with pytest.raises(OrderTooSmallError):
        cw_recover_eigenvalues(MomentSeries((1.0,), FLOAT), 2, 2)
    # power sums of no real spectrum: p1 = 0, p2 < 0 forces complex roots
    bad = MomentSeries((0.0, -1.0), FLOAT)
    with pytest.raises(NonrealRootsError):
        cw_recover_eigenvalues(bad, 2, 1)
    # the cube roots of unity: p1 = p2 = 0, so beta_1 = 0, yet p3 = 3.  The
    # exact reader sees the moment that one atom at 0 misses; on float input
    # the fit does
    with pytest.raises(NonrealRootsError):
        cw_recover_eigenvalues(MomentSeries((0, 0, 3)), 3, 1)
    with pytest.raises(RecoveryFailedError):
        cw_recover_eigenvalues(MomentSeries((0.0, 0.0, 3.0), FLOAT), 3, 1)


def cw_sweep():
    """Criterion 4's distribution under random.Random(0): p and d in 1..8,
    eigenvalues from U(-5, 5)."""
    rng = random.Random(0)
    for _ in range(300):
        p, d = rng.randint(1, 8), rng.randint(1, 8)
        yield CwModel(p, d, tuple(rng.uniform(-5, 5) for _ in range(p)))


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_cw_recovery_sweep(kind):
    # companion roots, merged within a clustering radius, once missed 1e-8
    # on 4 of these 300 on both backends
    worst = 0.0
    for model in cw_sweep():
        r = cw_r_transform(model, model.p, kind)
        got = cw_recover_eigenvalues(r, model.p, model.d)
        worst = max(worst, float(np.max(np.abs(got - np.array(model.eigenvalues)))))
    assert worst <= 1e-8


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
@pytest.mark.parametrize(
    "values",
    [(1,) * 8, (2,) * 6, (Fraction(1, 10**6), Fraction(2, 10**6), Fraction(3, 10**6)),
     (1, Fraction(2001, 2000), 3)],
    ids=["identity-8", "twice-identity-6", "micro", "near-double"],
)
def test_cw_recovery_repeated_and_near_repeated(values, kind):
    # once NonrealRootsError on the first two, even on exact input, the third
    # as 2e-6 three times and the fourth off by 2.5e-4; the series runs two
    # orders above p, so the fit is checked too
    model = CwModel(len(values), 3, values)
    got = cw_recover_eigenvalues(cw_r_transform(model, model.p + 2, kind), model.p, 3)
    want = [float(v) for v in model.eigenvalues]
    assert isinstance(got, tuple) and len(got) == model.p
    assert np.allclose(got, want, rtol=1e-11, atol=0)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_cw_recovery_checks_cumulants_above_order_p(kind):
    # r_4 = -100 in place of 49 was once ignored, and (1, 2, 3) came back
    r = list(cw_r_transform(CwModel(3, 2, (1, 2, 3)), 6).coeffs)
    assert np.allclose(cw_recover_eigenvalues(MomentSeries(tuple(r), kind), 3, 2),
                       (1, 2, 3))
    r[3] = -100
    with pytest.raises(RecoveryFailedError):
        cw_recover_eigenvalues(MomentSeries(tuple(r), kind), 3, 2)


TIE = Fraction(1, 2**53)
CW_EXACT = {
    # once (-2.499999999999999, 0.4999999999999994, 2.9999999999999996)
    "three": (Fraction(-5, 2), Fraction(1, 2), 3),
    # each halfway between two floats, which rounds to the even one
    "ties": (1 + TIE, 1 + 3 * TIE, -1 - 3 * TIE, 2**60 + 2**7),
    "repeated-tie": (1 + TIE, 1 + TIE, 3, 3, 5),
    # two double eigenvalues an ulp apart, once read as 1.0000000000000009
    # four times
    "repeated-ulp-apart": (1 + TIE, 1 + TIE, 1 + 3 * TIE, 1 + 3 * TIE, 5),
    "tiny-beside-large": (Fraction(1, 10**30), Fraction(3, 10**30), 10**6),
    "zero-beside-large": (0, 0, Fraction(7, 3), 10**12),
    "subnormal": (Fraction(3, 2**1075), Fraction(1, 2**1000), 1),
}


@pytest.mark.parametrize("values", CW_EXACT.values(), ids=CW_EXACT)
def test_cw_recovery_exact_is_correctly_rounded(values):
    # on exact input each eigenvalue is float() of the exact one
    p = len(values)
    r = cw_r_transform(CwModel(p, 2, values), p + 2)
    assert cw_recover_eigenvalues(r, p, 2) == tuple(float(v) for v in sorted(values))


def test_cw_recovery_sweep_exact_is_correctly_rounded():
    # the exact cumulants of float spectra give the floats back bit for bit
    for model in cw_sweep():
        r = cw_r_transform(model, model.p)
        assert cw_recover_eigenvalues(r, model.p, model.d) == model.eigenvalues


def test_spn_recover_exact_atoms_are_correctly_rounded():
    # the 32 criterion-5 draws at orders d + 2 and d + 4
    for n in range(1, 33):
        model = criterion5_draw(n)
        truth = tuple(sorted(float(Fraction(a) ** 2) for a in model.singular_values))
        for order in (model.d + 2, model.d + 4):
            report = spn_recover(spn_moments(model, order), model.p, model.d)
            assert report.atoms == truth, (n, order)


@pytest.mark.parametrize("p, d", [(0, 2), (3, 0), (-2, 2)])
def test_cw_recovery_rejects_impossible_dimensions(p, d):
    with pytest.raises(DimensionMismatchError):
        cw_recover_eigenvalues(MomentSeries((1.0, 2.0, 3.0), FLOAT), p, d)


def atoms_outcome(scaled, big_q, count, exact):
    """``_atoms``' values as bytes, its multiplicities and sign flag, or the
    error it raises."""
    try:
        values, mults, nonnegative = _atoms(scaled, big_q, count, exact)
    except NonrealRootsError:
        return NonrealRootsError
    return [v.hex() for v in values], mults, nonnegative


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(atoms=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       bump=st.integers(-2, 2), big_q=st.integers(1, 40), t=st.integers(2, 10**6),
       exact=st.booleans())
@example(atoms=[0, 0], bump=-2, big_q=1, t=3, exact=True)
@example(atoms=[0, 0], bump=-2, big_q=1, t=3, exact=False)
def test_atoms_read_the_same_bits_at_any_scale(atoms, bump, big_q, t, exact):
    # the power sums P_k of the atoms x / Q, the last raised by ``bump`` so
    # that some are of no real atoms (the examples: p = (0, -2), atoms +-i),
    # read the same on (t^k P_k, t Q) as on (P_k, Q) under either rank rule
    psums = [sum(x**k for x in atoms) for k in range(1, len(atoms) + 1)]
    psums[-1] += bump
    outcome = atoms_outcome(psums, big_q, len(atoms), exact)
    if (atoms, bump) == ([0, 0], -2):
        assert outcome is NonrealRootsError
    scaled = [t**k * x for k, x in enumerate(psums, start=1)]
    assert atoms_outcome(scaled, t * big_q, len(atoms), exact) == outcome


# ------------------------------------------------------------------------ SPN

def test_spn_moments_sigma_zero_is_atomic():
    model = SpnModel(4, 2, (1, 2), 0)
    assert spn_moments(model, 5) == atomic_moments((1, 4), 5)


def test_spn_moments_standard_circular_is_catalan():
    model = SpnModel(3, 3, (0, 0, 0), 1)
    assert spn_moments(model, 6).coeffs == CATALAN


def test_spn_first_moment_formula():
    rng = random.Random(22)
    for _ in range(10):
        model = random_spn_model(rng)
        lam = model.aspect_ratio
        m = spn_moments(model, 3)
        a_sq_mean = sum(v * v for v in model.singular_values) / model.d
        assert m.coeffs[0] == a_sq_mean + Fraction(model.sigma) ** 2 / lam


def test_spn_moment_positivity():
    rng = random.Random(23)
    for _ in range(10):
        model = random_spn_model(rng, rational=False)
        assert all(c >= 0 for c in spn_moments(model, 8, FLOAT).coeffs)


def test_spn_permutation_and_sign_invariance():
    a = (Fraction(1, 2), 2, 1)
    base = spn_moments(SpnModel(5, 3, a, Fraction(3, 4)), 6)
    permuted = spn_moments(SpnModel(5, 3, (2, 1, Fraction(1, 2)), Fraction(-3, 4)), 6)
    assert base == permuted


def test_decomposition_identity_exact():
    rng = random.Random(24)
    for _ in range(15):
        model = random_spn_model(rng)
        lam = model.aspect_ratio
        lhs = spn_decompose(spn_moments(model, 8), lam)
        maa = atomic_moments([v * v for v in model.singular_values], 8)
        shift = delta_moments(Fraction(model.sigma) ** 2 / lam, 8)
        rhs = free_add_conv(spn_decompose(maa, lam), shift)
        assert lhs == rhs


def test_decompose_pure_noise_gives_point_mass():
    sigma = Fraction(3, 2)
    m = spn_moments(SpnModel(2, 2, (0, 0), sigma), 6)
    assert spn_decompose(m, 1) == delta_moments(sigma**2, 6)


def test_decompose_shift_linearity():
    # The noise enters the decomposed series purely as a first-cumulant shift.
    model = SpnModel(4, 2, (1, Fraction(3, 2)), Fraction(1, 2))
    silent = SpnModel(4, 2, (1, Fraction(3, 2)), 0)
    lam = model.aspect_ratio
    noisy = spn_decompose(spn_moments(model, 6), lam)
    quiet = spn_decompose(spn_moments(silent, 6), lam)
    diff = tuple(
        a - b
        for a, b in zip(r_transform(noisy).coeffs, r_transform(quiet).coeffs)
    )
    shift = Fraction(model.sigma) ** 2 / lam
    assert diff == (shift,) + (0,) * 5


def test_noise_reduction_identity():
    # Moving sigma^2 - rho^2 out of the decomposed series lands exactly on
    # the model with noise level rho.
    sigma, rho = Fraction(5, 4), Fraction(3, 4)
    a = (Fraction(1, 2), 2)
    model = SpnModel(6, 2, a, sigma)
    lam = model.aspect_ratio
    reduced = SpnModel(6, 2, a, rho)
    dec = spn_decompose(spn_moments(model, 8), lam)
    shifted = free_add_conv(
        dec, delta_moments((rho**2 - sigma**2) / lam, 8)
    )
    rebuilt = moment_from_r(
        boxed_conv(f_lambda(lam, 8), r_transform(shifted))
    )
    assert rebuilt == spn_moments(reduced, 8)


# ------------------------------------------------------------------- recovery

def test_spn_recover_documented_example():
    m = spn_moments(SpnModel(4, 2, (1, 2), Fraction(1, 2)), 6, FLOAT)
    report = spn_recover(m, 4, 2)
    assert report.sigma_sq_hat == pytest.approx(0.25, abs=1e-6)
    assert report.atoms == pytest.approx((1.0, 4.0), abs=1e-6)
    assert report.residual < 1e-10
    # one relative misfit per order d+1..N, of the reconstruction against m
    fitted = SpnModel(4, 2, tuple(np.sqrt(report.atoms)), np.sqrt(report.sigma_sq_hat))
    rebuilt = spn_moments(fitted, 6, FLOAT).coeffs
    assert report.misfits == tuple(
        abs(r - t) / (1 + abs(t)) for r, t in zip(rebuilt[2:], m.coeffs[2:])
    )
    assert max(report.misfits) < 1e-10
    # the float moments are exact, so the gaps' exact root is the one entry;
    # otherwise the exact roots come first, then at most d + 2 polished
    # candidates: from s = 0 and from the d + 1 roots of the lowest gap
    assert len(report.search_trace) == 1
    assert report.sigma_sq_exact == Fraction(1, 4)
    best = min(report.search_trace, key=lambda entry: entry[1])
    assert best[0] == report.sigma_sq_hat


def test_spn_recover_zero_noise():
    m = spn_moments(SpnModel(4, 2, (1.0, 2.0), 0.0), 6, FLOAT)
    report = spn_recover(m, 4, 2)
    assert report.sigma_sq_hat == pytest.approx(0.0, abs=1e-6)
    assert report.atoms == pytest.approx((1.0, 4.0), abs=1e-6)


def test_spn_recover_pure_noise():
    m = spn_moments(SpnModel(3, 3, (0.0, 0.0, 0.0), 1.0), 7, FLOAT)
    report = spn_recover(m, 3, 3)
    assert report.sigma_sq_hat == pytest.approx(1.0, abs=1e-6)
    assert report.atoms == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)


def test_spn_recover_d_one():
    m = spn_moments(SpnModel(5, 1, (1.5,), 0.7), 5, FLOAT)
    report = spn_recover(m, 5, 1)
    assert report.sigma_sq_hat == pytest.approx(0.49, abs=1e-6)
    assert report.atoms == pytest.approx((2.25,), abs=1e-6)


def test_spn_recover_random_round_trips():
    rng = random.Random(25)
    for _ in range(8):
        model = random_spn_model(rng, rational=False)
        m = spn_moments(model, model.d + 4, FLOAT)
        report = spn_recover(m, model.p, model.d)
        assert report.sigma_sq_hat == pytest.approx(
            float(model.sigma) ** 2, abs=1e-6
        )
        expect = sorted(float(v) ** 2 for v in model.singular_values)
        assert report.atoms == pytest.approx(expect, abs=1e-6)


def criterion5_draw(n):
    """Draw n, counted from 1, of the criterion-5 generator under random.Random(11)."""
    rng = random.Random(11)
    for _ in range(n):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.5) for _ in range(d))
        sigma = rng.uniform(0.0, 2.0)
    return SpnModel(p, d, a, sigma)


def assert_recovers(model, m):
    report = spn_recover(m, model.p, model.d)
    assert report.sigma_sq_hat == pytest.approx(float(model.sigma) ** 2, abs=1e-6)
    expect = sorted(float(v) ** 2 for v in model.singular_values)
    assert report.atoms == pytest.approx(expect, abs=1e-6)


@pytest.mark.parametrize(
    "draw, order, kind",
    [(31, 6, RATIONAL), (31, 8, FLOAT), (16, 8, FLOAT)],
    ids=["draw31-exact-6", "draw31-float-8", "draw16-float-8"],
)
def test_spn_recover_criterion5_draws(draw, order, kind):
    # Draw 31 (p = 6, d = 2) once settled on a spurious minimum of the noise
    # level search even on exact input; draw 16 (p = 10, d = 4) was accepted
    # with atoms off by 1.7e-4.
    model = criterion5_draw(draw)
    assert_recovers(model, spn_moments(model, order, kind))


def fraction_horner(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


RATIONAL_COEFF = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**9))
POLY = st.lists(RATIONAL_COEFF, min_size=1, max_size=13)  # degree <= 12
EVAL_POINT = st.sampled_from([0.0, 5e-324, 1e-300, 2.0**60]) | st.floats(
    -1e3, 1e3, allow_nan=False
)


def integer_basis(polys):
    """(rows, q): the rational polynomials ``polys`` as integer coefficient
    rows over one denominator q, lowest power first, padded to one length."""
    q = math.lcm(*(c.denominator for poly in polys for c in poly))
    length = max(len(poly) for poly in polys)
    rows = [[c.numerator * (q // c.denominator) for c in poly] for poly in polys]
    return [row + [0] * (length - len(row)) for row in rows], q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(polys=st.lists(POLY, min_size=1, max_size=4), s=EVAL_POINT)
def test_integer_basis_evaluates_exactly(polys, s):
    # at s = n/b each row gives b^D q times the polynomial, D the padded
    # degree, and b^(D-1) q times its derivative
    rows, q = integer_basis(polys)
    n, b = s.as_integer_ratio()
    degree = len(rows[0]) - 1
    exact = [fraction_horner(poly, Fraction(s)) for poly in polys]
    values, slopes = _homogeneous(rows, n, b)
    assert [Fraction(v, q * b**degree) for v in values] == exact
    derivatives = [fraction_horner([i * c for i, c in enumerate(poly)][1:], Fraction(s))
                   for poly in polys]
    assert [Fraction(v, q) / Fraction(b) ** (degree - 1) for v in slopes] == derivatives


MINUS_S = Poly((0, -1))


def signed_sum_gaps(psums, d):
    """g_k = sum_{j=0..d} (-1)^j e_j p_{k-j}, k = d+1..N, with e_k from
    Newton's identities divided through by k: the reference for the
    division-free ``_recurrence_gaps``, which gives d! g_k."""
    e = [1]
    for k in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * psums[i - 1] for i in range(1, k + 1))
        e.append(Fraction(1, k) * acc)
    return [sum((-1) ** j * e[j] * psums[k - j - 1] for j in range(d + 1))
            for k in range(d + 1, len(psums) + 1)]


FRACTION_CANDIDATES = {}


def fraction_candidates(m, p, d):
    """The candidate moment and gap polynomials in s over Fraction, as the
    recovery once built them: ``_spn_map`` at -s, s a polynomial variable,
    then the signed-sum gaps.  The reference for ``_candidate_rows``, built
    once per series and shared by the tests that use it."""
    key = (m.coeffs, m.scalar_kind, p, d)
    if key not in FRACTION_CANDIDATES:
        moments = _spn_map(MomentSeries(m.coeffs, RATIONAL), Fraction(d, p), MINUS_S)
        FRACTION_CANDIDATES[key] = moments, signed_sum_gaps([d * c for c in moments], d)
    return FRACTION_CANDIDATES[key]


def strip(m, lam):
    """rho(lambda rho(m)): lambda times the R-transform of m deconv nu."""
    return r_transform(_times(lam, r_transform(m)))


def restore(x, lam, shift):
    """mu(lambda^-1 mu(x + shift z)): undoes ``strip`` after adding the point
    mass at shift/lambda, which moves the first cumulant only."""
    x = MomentSeries((x.coeffs[0] + shift,) + x.coeffs[1:], x.scalar_kind)
    return moment_from_r(_times(1 / lam, moment_from_r(x)))


def reference_spn_moments(model, order, kind=RATIONAL):
    """The forward moments as four series transforms, restore(strip(M[A*A])):
    the reference for the one translation of ``spn_moments``."""
    scalar = Fraction if kind == RATIONAL else float
    lam = scalar(model.aspect_ratio)
    a = [scalar(v) for v in model.singular_values]
    maa = atomic_moments([v * v for v in a], order, kind)
    sigma = scalar(model.sigma)
    return restore(strip(maa, lam), lam, sigma * sigma)


@pytest.mark.parametrize(
    "model, order",
    [(SpnModel(4, 2, (1, 2), Fraction(1, 2)), 8),
     (SpnModel(5, 3, (Fraction(1, 3), 1, Fraction(7, 4)), Fraction(2, 3)), 7)],
    ids=["readme", "three-atoms"],
)
def test_translated_nodes_equal_restore(model, order):
    # the candidate moments and the forward moments: one translation of one
    # measure, in place of adding a point mass to the cumulants and
    # re-convolving; the candidates at -s, s a polynomial variable, agree
    # with the re-convolution at every node s = 0..N
    lam = model.aspect_ratio
    m = spn_moments(model, order)
    stripped = strip(m, lam)
    base = _times(lam, r_transform(m))
    assert base == moment_from_r(stripped)
    polys = _spn_map(m, lam, MINUS_S)
    for s in range(order + 1):
        node = tuple(fraction_horner(poly, s) for poly in polys)
        assert node == restore(stripped, lam, -s).coeffs
        shifted = MomentSeries((stripped.coeffs[0] - s,) + stripped.coeffs[1:])
        assert _translate(base.coeffs, -s) == moment_from_r(shifted).coeffs
    for n in range(1, 13):
        assert spn_moments(model, n) == reference_spn_moments(model, n)


def test_candidate_polynomials_shape_and_readme_moments():
    # the 32 criterion-5 draws at orders d+2 and d+4 on both backends, and
    # the README model at orders 8, 12 and 16: candidate moment n has degree
    # n in s, and the recovery reports those at its exact noise level
    draws = [criterion5_draw(n) for n in range(1, 33)]
    cases = [(model, model.d + extra, kind) for model in draws
             for extra in (2, 4) for kind in (RATIONAL, FLOAT)]
    readme = [(README_MODEL, n, RATIONAL) for n in (8, 12, 16)]
    for model, order, kind in cases + readme:
        p, d = model.p, model.d
        m = spn_moments(model, order, kind)
        polys, _ = fraction_candidates(m, p, d)
        assert [len(poly) for poly in polys] == list(range(2, order + 2))
        if model is README_MODEL:
            report = spn_recover(m, p, d)
            assert report.atom_moments.coeffs == tuple(
                float(fraction_horner(poly, report.sigma_sq_exact)) for poly in polys)


def in_u(gaps, big_q, d):
    """The gap polynomials g_k in s as Q^k d! g_k(d u / Q) in u = Q s / d:
    coefficient i is Q^(k-i) d^i d! times that of s^i."""
    return [[big_q ** (k - i) * d**i * math.factorial(d) * c for i, c in enumerate(g)]
            for k, g in enumerate(gaps, start=d + 1)]


def assert_int_rows_equal_reference(m, p, d):
    # the gap polynomials in u are the reference's in s; _candidate reads the
    # moments exactly at an int, a Fraction and a float, as ints over its scale
    exact = MomentSeries(m.coeffs, RATIONAL).coeffs
    big_q, cumulants = _candidate_rows(exact, p, d)
    polys = _gap_polys(cumulants, d, m.order)
    moments, gaps = fraction_candidates(m, p, d)
    assert all(type(c) is int for poly in polys for c in poly) and type(big_q) is int
    assert polys == in_u(gaps, big_q, d)
    for s in (0, Fraction(1, 3), 2.5):
        ints, scale = _candidate(cumulants, big_q, d, Fraction(s) * big_q / d)
        assert all(type(x) is int for x in ints) and type(scale) is int
        assert [Fraction(x, scale**k) for k, x in enumerate(ints, start=1)] == [
            fraction_horner(poly, Fraction(s)) for poly in moments]


def test_int_candidate_rows_equal_fraction_reference():
    # the 32 criterion-5 draws at orders d+2 and d+4 on both backends, the
    # README model at orders 8, 12 and 16, sigma = 0, p = d, an all-zero
    # series and a first coefficient of 0
    draws = [criterion5_draw(n) for n in range(1, 33)]
    cases = [(spn_moments(model, model.d + extra, kind), model.p, model.d)
             for model in draws for extra in (2, 4) for kind in (RATIONAL, FLOAT)]
    cases += [(spn_moments(README_MODEL, n), 4, 2) for n in (8, 12, 16)]
    for model in (SpnModel(5, 2, (1, Fraction(3, 2)), 0),
                  SpnModel(3, 3, (Fraction(1, 2), 1, 2), Fraction(1, 3)),
                  SpnModel(3, 2, (0, 0), 0)):
        cases.append((spn_moments(model, model.d + 3), model.p, model.d))
    zero_first = (0, Fraction(1, 3), Fraction(-2, 7), 5, 0, Fraction(11, 13))
    cases.append((MomentSeries(zero_first), 4, 2))
    for m, p, d in cases:
        assert_int_rows_equal_reference(m, p, d)


# zero, negative, and large unrelated denominators
SERIES_COEFF = st.just(Fraction(0)) | st.builds(
    Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**15)
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(SERIES_COEFF, min_size=3, max_size=7), data=st.data())
def test_rescaled_int_rows_and_ring_contract(coeffs, data):
    # Q^n m_n is an int for each n, the int rows are the Fraction reference's
    # rationals, and the series recursions keep the scalar type: int on int
    # input (no division by the unit W_0 = 1), Fraction and float on those.
    # The reference, the map at the polynomial shift -s, evaluated at s = t
    # is the map at the shift -t.
    big_q, scaled = _rescaled(coeffs)
    assert all(type(c) is int for c in scaled)
    assert [Fraction(c) for c in scaled] == [
        big_q**n * c for n, c in enumerate(coeffs, start=1)]
    d = data.draw(st.integers(1, len(coeffs) - 2))
    p = data.draw(st.integers(d, 3 * d))
    series = MomentSeries(tuple(coeffs))
    assert_int_rows_equal_reference(series, p, d)
    t = data.draw(SMALL_COEFF)
    assert [fraction_horner(c, t) for c in fraction_candidates(series, p, d)[0]] == list(
        _spn_map(series, Fraction(d, p), -t))
    floats = [float(c) for c in coeffs]
    for values, scalar in ((scaled, int), (coeffs, Fraction), (floats, float)):
        for transform in (_cumulants, _moments):
            assert all(type(c) is scalar for c in transform(values))


SMALL_COEFF = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(polys=st.lists(st.lists(SMALL_COEFF, min_size=1, max_size=4), min_size=1,
                      max_size=7),
       t=SMALL_COEFF, data=st.data())
def test_series_recursion_commutes_with_evaluation(polys, t, data):
    # the ring contract: _moments and _recurrence_gaps run on polynomials
    # as on numbers
    polys = [Poly(poly) for poly in polys]
    at_t = [fraction_horner(poly, t) for poly in polys]
    assert [fraction_horner(c, t) for c in _moments(polys)] == list(_moments(at_t))
    d = data.draw(st.integers(1, len(polys)))
    gaps = _recurrence_gaps(polys, d)
    assert [fraction_horner(g, t) for g in gaps] == _recurrence_gaps(at_t, d)
    assert _recurrence_gaps(at_t, d) == [
        math.factorial(d) * g for g in signed_sum_gaps(at_t, d)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(SERIES_COEFF, min_size=3, max_size=8), data=st.data())
def test_direct_cumulant_rows_equal_translation(coeffs, data):
    # the candidate cumulants, built coefficient by coefficient, are the
    # translation T_(-d u) of R = rho(M) by polynomial products, plus the
    # noise term (p - d) d^(n-1) (-u)^n
    d = data.draw(st.integers(1, len(coeffs) - 2))
    p = data.draw(st.integers(d, 3 * d))
    big_q, cumulants = _candidate_rows(coeffs, p, d)
    assert big_q == _rescaled(coeffs)[0]
    translated = _translate(_cumulants(_rescaled(coeffs)[1]), Poly((0, -d)))
    assert cumulants == [list(x + Poly((0,) * n + ((p - d) * d ** (n - 1) * (-1) ** n,)))
                         for n, x in enumerate(translated, start=1)]
    assert all(type(c) is int for row in cumulants for c in row)


# cumulant rows of each shape: any coefficients up to 10^15 in size, all
# negative, all zero, and a point mass at r_1(u), whose power sums d r_1^k
# are those of d equal atoms, so that every gap vanishes identically
ROW_SHAPES = {
    "any": st.integers(-10**15, 10**15),
    "negative": st.integers(-10**15, -1),
    "zero": st.just(0),
    "point-mass": st.integers(-10**15, 10**15),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(sorted(ROW_SHAPES)), data=st.data())
def test_gap_polys_equal_the_polynomial_ring(shape, data):
    # the digits of one evaluation at 2^B are the reference ring's gap
    # polynomials, k + 1 coefficients for d! g_k: nothing is left after the
    # last digit, or the reading would run longer
    order = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(1, order - 1))
    rows = [data.draw(st.lists(ROW_SHAPES[shape], min_size=n + 1, max_size=n + 1))
            for n in range(1, order + 1)]
    if shape == "point-mass":
        rows[1:] = [[0] * (n + 1) for n in range(2, order + 1)]
    polys = _gap_polys(rows, d, order)
    reference = _recurrence_gaps([d * c for c in _moments([Poly(row) for row in rows])], d)
    assert [len(g) for g in polys] == list(range(d + 2, order + 2))
    assert polys == [list(g) for g in reference]
    assert all(type(c) is int for g in polys for c in g)
    if shape in ("zero", "point-mass"):
        assert not any(map(any, polys))
    # a lower order reads the same polynomials
    assert _gap_polys(rows, d, order - 1) == polys[:-1]


def gcd_roots_in_s(m, p, d, order):
    """``_gcd_roots`` of the Fraction reference's gaps in s of orders d+1..order,
    as int rows over one denominator."""
    return _gcd_roots(integer_basis(fraction_candidates(m, p, d)[1][:order - d])[0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gcd_roots_in_u_map_to_those_in_s(data):
    # the roots r of the gcd in u = Q s / d, mapped by s = d r / Q, are those
    # of the Fraction reference's gaps in s, on exact model series (sigma^2 a
    # root), the same with the top moment perturbed, and unrelated series
    d = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(d, 3 * d))
    order = d + data.draw(st.integers(2, 4))
    kind = data.draw(st.sampled_from(["model", "perturbed", "series"]))
    if kind == "series":
        coeffs = data.draw(st.lists(SERIES_COEFF, min_size=order, max_size=order))
    else:
        a = data.draw(st.lists(SMALL_COEFF.map(abs), min_size=d, max_size=d))
        coeffs = list(spn_moments(SpnModel(p, d, a, data.draw(SMALL_COEFF)), order).coeffs)
        if kind == "perturbed":
            coeffs[-1] *= Fraction(1001, 1000)
    big_q, cumulants = _candidate_rows(coeffs, p, d)
    in_s = gcd_roots_in_s(MomentSeries(tuple(coeffs)), p, d, d + 2)
    assert [d * r / big_q for r in _gcd_roots(_gap_polys(cumulants, d, d + 2))] == in_s
    if kind == "model":
        assert in_s


def float_sweep():
    """Models with a double, a zero or a tiny atom and noise below the signal,
    at scales 1e-3 to 1e3 and orders 6 to 16."""
    rng = random.Random(26)
    for i in range(30):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        scale = 10.0 ** rng.randint(-3, 3)
        a = [rng.uniform(0.1, 2.5) * scale for _ in range(d)]
        a[0] = (a[-1], 0.0, 1e-9 * scale)[i % 3]
        sigma = rng.uniform(0.05, 0.5) * scale
        yield SpnModel(p, d, tuple(a), sigma), rng.randint(6, 16)


def test_float_spn_moments_match_exact():
    # the four-transform route missed by 7.8e-13 relative here
    worst = 0.0
    for model, order in float_sweep():
        exact = SpnModel(model.p, model.d, tuple(map(Fraction, model.singular_values)),
                         Fraction(model.sigma))
        pairs = zip(spn_moments(model, order, FLOAT).coeffs,
                    spn_moments(exact, order).coeffs)
        worst = max(worst, *(abs(g - float(e)) / float(e) for g, e in pairs))
    assert worst <= 1e-13


def rounded_roots(psums, hints):
    """float() of each root of the monic polynomial whose n roots, all real
    and simple, have the power sums ``psums``: its coefficients from
    Newton's identities in Fractions, then bisection from a bracket around
    each hint until both ends round to one float.  The n brackets are
    disjoint and each shows a sign change, so each holds one root."""
    n = len(psums)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * psums[i - 1] for i in range(1, k + 1)) / k)
    poly = [(-1) ** (n - j) * e[n - j] for j in range(n + 1)]
    brackets = []
    for v in hints:
        width = abs(Fraction(v)) / 2**30 + Fraction(1, 2**1100)
        brackets.append([Fraction(v) - width, Fraction(v) + width])
    assert all(a[1] < b[0] for a, b in zip(brackets, brackets[1:]))
    out = []
    for lo, hi in brackets:
        assert fraction_horner(poly, lo) * fraction_horner(poly, hi) < 0
        for _ in range(2000):
            if float(lo) == float(hi):
                break
            mid = (lo + hi) / 2
            f_mid = fraction_horner(poly, mid)
            if f_mid == 0:
                lo = hi = mid
            elif (f_mid > 0) == (fraction_horner(poly, hi) > 0):
                hi = mid
            else:
                lo = mid
        assert float(lo) == float(hi)
        out.append(float(lo))
    return tuple(out)


def assert_atoms_correctly_rounded(report, m, p, d):
    """Each distinct atom of ``report`` is the float nearest to the exact
    eigenvalue of its Jacobi matrix: a root of the polynomial whose roots
    have as power sums d times the exact candidate moments at the winning
    noise level, ``sigma_sq_exact`` or else ``sigma_sq_hat``
    (``fraction_candidates``), where the reading has d distinct atoms."""
    assert report.multiplicities == (1,) * d
    s = report.sigma_sq_exact
    s = Fraction(report.sigma_sq_hat) if s is None else s
    psums = [d * fraction_horner(poly, s) for poly in fraction_candidates(m, p, d)[0][:d]]
    assert report.atoms == rounded_roots(psums, report.atoms)


# sigma_sq_hat, atoms and search_trace as float.hex, with float input from
# the four-transform reference; the trace lists each distinct s once, as
# (s, D).  Exact input (the README model's float moments are exact too) ends
# the search at the gaps' exact common root, with one entry of D = 0.  The
# atoms are the eigenvalues of the Jacobi matrix of ``_atoms``, correctly
# rounded: ``assert_atoms_correctly_rounded`` checks each against a Fraction
# reference, and on exact input against float() of the true atom a^2.
README_MODEL = SpnModel(4, 2, (1, 2), Fraction(1, 2))
README_PIN = (
    "0x1.0000000000000p-2",
    ("0x1.0000000000000p+0", "0x1.0000000000000p+2"),
    (("0x1.0000000000000p-2", "0x0.0p+0"),)
)
RECOVERY_PINS = {
    "readme-exact-8": (README_MODEL, 8, RATIONAL, README_PIN),
    "readme-float-8": (README_MODEL, 8, FLOAT, README_PIN),
    "draw16-exact-8": (16, 8, RATIONAL, (
        "0x1.e2a9ff805935ap+1",
        ("0x1.5b7f4b88b1263p-4", "0x1.21fed831e3033p-2", "0x1.d1da09add6234p-2",
         "0x1.1b41a79102a97p+0"),
        (("0x1.e2a9ff805935ap+1", "0x0.0p+0"),)
    )),
    "draw16-float-8": (16, 8, FLOAT, (
        "0x1.e2a9ff72f215cp+1",
        ("0x1.5b7f4a260bfe5p-4", "0x1.21fedb4c94cdbp-2", "0x1.d1da0912430e9p-2",
         "0x1.1b41a81373cc1p+0"),
        (("0x1.e2a9ff72f215cp+1", "0x1.faf0191cef6bap-98"),
         ("0x1.fb5c63bd3902bp+1", "0x1.ceb31d3c8afe6p-56"))
    )),
    "draw31-exact-6": (31, 6, RATIONAL, (
        "0x1.a82f68ec47522p+1",
        ("0x1.064f4979ba889p-9", "0x1.f81261ae73eb7p-8"),
        (("0x1.a82f68ec47522p+1", "0x0.0p+0"),)
    )),
    "draw31-float-8": (31, 8, FLOAT, (
        "0x1.a82f68ee9756bp+1",
        ("0x1.064f3d7ab573dp-9", "0x1.f8124bedc0061p-8"),
        (("0x1.a82f68ee9756bp+1", "0x1.21ff6466fcde8p-97"),
         ("0x1.a864586cd0439p+1", "0x1.b31d39b934db7p-75"))
    )),
}


@pytest.mark.parametrize("case", sorted(RECOVERY_PINS))
def test_spn_recover_pinned_bits(case):
    model, order, kind, (sigma_sq, atoms, trace) = RECOVERY_PINS[case]
    if isinstance(model, int):
        model = criterion5_draw(model)
    m = reference_spn_moments(model, order, kind)
    report = spn_recover(m, model.p, model.d)
    assert report.sigma_sq_hat.hex() == sigma_sq
    assert tuple(a.hex() for a in report.atoms) == atoms
    assert tuple((s.hex(), r.hex()) for s, r in report.search_trace) == trace
    assert_atoms_correctly_rounded(report, m, model.p, model.d)
    if kind == RATIONAL:
        assert report.atoms == tuple(sorted(float(Fraction(a) ** 2)
                                            for a in model.singular_values))


@pytest.mark.parametrize("order", [6, 7])
@pytest.mark.parametrize("e", [40, 45, 50, 60])
def test_spn_recover_pinned_bits_scaled(e, order):
    # The README model scaled by 2^e, exact: its gaps' common root is
    # sigma^2 = 2^(2e - 2), so the search ends there with no polish.
    model = SpnModel(4, 2, (2**e, 2 * 2**e), 2**e / 2)
    report = spn_recover(spn_moments(model, order), 4, 2)
    assert report.sigma_sq_hat == math.ldexp(1.0, 2 * e - 2)
    assert report.sigma_sq_exact == Fraction(2) ** (2 * e - 2)
    assert report.atoms == (math.ldexp(1.0, 2 * e), math.ldexp(1.0, 2 * e + 2))
    assert report.search_trace == ((math.ldexp(1.0, 2 * e - 2), 0.0),)


# The model above with sigma = 2^e / 3, from float moments, whose gcd is 1:
# they pass 1e154 at order 6, where a float weight 1/(1 + (d m_k)^2) would
# underflow to 0 and the fit's sum of squares overflows.  The polish's s
# scale by 2^(2e); both entries' D are scale-free, as the weights are
# 1/(d m_k)^2 to 53 bits from e = 40 on.  The second entry, whose atoms are
# complex, is no longer scored with a penalty scaling by 2^(4e): it is D alone.
SCALED_TRACE = {
    6: (("0x1.c71c71c71c722p-4", "0x1.0b97df59165ffp-105"),
        ("0x1.a6f6682ab6aeap+0", "0x1.38010700e1d93p-11")),
    7: (("0x1.c71c71c71c728p-4", "0x1.7abbbba90b8b3p-105"),
        ("0x1.743d37555468cp+0", "0x1.5ccad65466839p-11")),
}


@pytest.mark.parametrize("order", [6, 7])
@pytest.mark.parametrize("e", [40, 45, 50, 60])
def test_spn_recover_large_float_moments(e, order):
    # once rejected with "best residual inf" at order 6 for e >= 50 and at
    # order 7 for e >= 40: the fit is now decided in units of a power of two
    # at least max|m_k|, and the residual, in the input's units, reads inf
    model = SpnModel(4, 2, (2**e, 2 * 2**e), 2**e / 3)
    m = spn_moments(model, order, FLOAT)
    report = spn_recover(m, 4, 2)
    assert report.sigma_sq_hat == pytest.approx(float(model.sigma) ** 2, rel=1e-14)
    assert report.atoms == pytest.approx((4.0**e, 4.0 ** (e + 1)), rel=1e-14)
    assert_atoms_correctly_rounded(report, m, 4, 2)
    assert report.sigma_sq_exact is None
    (s1, d1), (s2, d2) = (map(float.fromhex, entry) for entry in SCALED_TRACE[order])
    assert report.search_trace == (
        (math.ldexp(s1, 2 * e), d1), (math.ldexp(s2, 2 * e), d2))
    # correctly rounded atoms fit within 1.1e301 at e = 40 and 45; eigh's,
    # a few ulps off, overflowed the sum at order 7
    if e >= 50:
        assert report.residual == math.inf


POSITIVE = st.builds(Fraction, st.integers(1, 2**120), st.integers(1, 2**120))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(w=POSITIVE, shift=st.integers(-2200, 2200))
def test_weight_rounding(w, shift):
    # 53 significant bits, to nearest, as float() rounds where its result is
    # normal, at any exponent: never 0 for w > 0, and a power of two scales
    # straight through
    rounded = _round53(w)
    assert abs(rounded - w) <= w / 2**53
    if sys.float_info.min <= w <= sys.float_info.max:
        assert rounded == Fraction(float(w))
    scaled = w * Fraction(2) ** shift
    assert _round53(scaled) == rounded * Fraction(2) ** shift > 0


def test_weight_rounding_past_the_float_range():
    tiny = Fraction(1, 2**2000)
    assert _round53(tiny) == tiny
    assert _round53(tiny / 3) == Fraction(float(Fraction(1, 3))) * tiny > 0


def test_spn_recover_exact_input_reports_exact_sigma_sq():
    # the 32 criterion-5 draws on exact input at orders d+2 and d+4: the
    # gaps' exact common root ends the search.  At order 4 the d = 2, p = 6
    # draws (4, 6 and 31) have a gcd of degree 3, a rational root times an
    # irreducible quadratic, so their root comes from Newton's method
    for n in range(1, 33):
        model = criterion5_draw(n)
        for order in (model.d + 2, model.d + 4):
            report = spn_recover(spn_moments(model, order), model.p, model.d)
            assert report.sigma_sq_exact == Fraction(model.sigma) ** 2
            assert report.search_trace == ((float(report.sigma_sq_exact), 0.0),)
            assert report.to_dict()["sigma_sq_exact"] == format_rational(
                report.sigma_sq_exact)


def trimmed(poly):
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return poly


def fraction_gcd(a, b):
    """The monic gcd over Q by Euclid's algorithm in Fraction, [] when both
    are 0: the reference for ``_int_gcd``."""
    a, b = trimmed(map(Fraction, a)), trimmed(map(Fraction, b))
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= c * y
            a = trimmed(a)
        a, b = b, a
    return [c / a[-1] for c in a]


INT_POLY = st.lists(st.integers(-30, 30), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(factor=INT_POLY, cofactors=st.lists(INT_POLY, min_size=1, max_size=4),
       a=st.integers(-20, 20), b=st.integers(1, 12))
def test_int_gcd_recovers_a_planted_factor(factor, cofactors, a, b):
    # rows sharing the factor (b s - a) f(s): their gcd is primitive, equals
    # the monic rational gcd up to content and sign, divides every row and
    # is divided by the planted factor, and a/b >= 0 is among its roots
    planted = Poly((-a, b)) * Poly(factor)
    rows = [list(planted * Poly(c)) for c in cofactors]
    g, reference = [], []
    for row in rows:
        g, reference = _int_gcd(g, row), fraction_gcd(reference, row)
    if not reference:
        assert g == [] and _gcd_roots(rows) == []
        return
    assert g[-1] > 0 and math.gcd(*g) == 1
    assert [Fraction(c, g[-1]) for c in g] == reference
    for row in rows:
        assert not trimmed(row) or _pseudo_divide(trimmed(row), g)[1] == []
    assert _pseudo_divide(g, trimmed(planted))[1] == []
    if a >= 0:
        assert Fraction(a, b) in _gcd_roots(rows)
    if len(g) == 2:
        # a linear gcd is its own square-free part: its root if >= 0, else none
        assert _gcd_roots(rows) == ([Fraction(a, b)] if a >= 0 else [])


def test_spn_recover_near_collision_exact():
    model = SpnModel(6, 2, (1, Fraction(1001, 1000)), Fraction(1, 2))
    assert_recovers(model, spn_moments(model, 6))


def test_spn_recover_exact_triple_atom():
    # the exact root 49/16 once scored 6.5e-11, the penalty of companion
    # roots that split the triple atom into a complex pair, and a polished
    # float s won with atoms off by 5.7e-4
    model = SpnModel(9, 3, (1, 1, 1), Fraction(7, 4))
    report = spn_recover(spn_moments(model, 5), 9, 3)
    assert report.sigma_sq_exact == Fraction(49, 16)
    assert report.atoms == (1.0, 1.0, 1.0)
    # the reader's multiplicities, in the report and its JSON
    assert report.multiplicities == (3,)
    assert report.to_dict()["multiplicities"] == [3]


def repeated_atom_sweep():
    """200 exact models with an atom repeated 2 to d times, d in 2..4."""
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(2, 4)
        p = rng.randint(d, 3 * d)
        values = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(d)]
        k = rng.randint(1, d - 1)
        values[:k + 1] = [values[0]] * (k + 1)
        sigma = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        yield SpnModel(p, d, tuple(values), sigma)


def test_spn_recover_repeated_atoms_exact():
    # on exact input at order d + 2, 84 of these 200 once missed 1e-6
    for model in repeated_atom_sweep():
        report = spn_recover(spn_moments(model, model.d + 2), model.p, model.d)
        assert report.sigma_sq_exact == Fraction(model.sigma) ** 2
        # each atom is float() of the exact a^2
        assert report.atoms == tuple(sorted(float(Fraction(v) ** 2)
                                            for v in model.singular_values))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("e", [60, 200])
@pytest.mark.parametrize("root", [Fraction(5, 3), Fraction(1234567, 1000), Fraction(22, 7)])
def test_gcd_roots_find_a_rational_root_inside_a_cluster(root, e):
    # (b x - a)(2^e (b x - a)^2 + 1): a complex pair 2^(-e/2) / b from the
    # rational root, where Newton's method crawls; float roots and Newton
    # from them once missed it
    line = [-root.numerator, root.denominator]
    pair = poly_mul([1 << e], poly_mul(line, line))
    pair[0] += 1
    assert _gcd_roots([poly_mul(pair, line)]) == [root]


def test_lean_stage_finds_the_full_gcd_roots():
    # the exact candidates are the rational roots of the gcd of the gaps of
    # orders d+1 and d+2 at which every gap vanishes: the rational roots of
    # the gcd of every gap.  With the top moment of an exact series at order
    # d+3 raised by 0.1%, the lean gcd keeps sigma^2 and the check drops it.
    draws = [criterion5_draw(n) for n in range(1, 33)]
    cases = [(spn_moments(model, model.d + extra, kind), model.p, model.d)
             for model in draws for extra in (2, 4) for kind in (RATIONAL, FLOAT)]
    cases += [(spn_moments(README_MODEL, n, kind), 4, 2)
              for n in (8, 12, 16) for kind in (RATIONAL, FLOAT)]
    cases += [(spn_moments(model, model.d + 4), model.p, model.d)
              for model in repeated_atom_sweep()]
    cases = [(m, p, d, False) for m, p, d in cases]
    for model in draws[:8] + [README_MODEL]:
        m = spn_moments(model, model.d + 3).coeffs
        m = MomentSeries(m[:-1] + (m[-1] * Fraction(1001, 1000),))
        cases.append((m, model.p, model.d, True))
    for m, p, d, perturbed in cases:
        big_q, cumulants = _candidate_rows(MomentSeries(m.coeffs, RATIONAL).coeffs, p, d)
        lean = _gcd_roots(_gap_polys(cumulants, d, d + 2))
        assert [d * r / big_q for r in lean] == gcd_roots_in_s(m, p, d, d + 2)
        trace, _ = _noise_level_candidates(m, p, d)
        roots = [float(r) for r in gcd_roots_in_s(m, p, d, m.order)]
        assert [s for s, defect in trace if defect == 0] == roots
        if perturbed:
            assert lean and not roots


def test_order_d_plus_1_does_not_identify():
    # At order d+1 = 5 the square-free part of g_5, a polynomial in
    # u = Q s / d, has two nonnegative real roots whose float readings are
    # real, nonnegative atoms: sigma^2 = 81/16 and a twin near 5.055243, whose
    # moments agree with the model's to rounding through order 5 and split at
    # order 6.  At order d+2 the gcd is linear, with the root 81/16 alone.
    model = SpnModel(5, 4, (Fraction(5, 4), Fraction(5, 4), Fraction(1, 2), 1),
                     Fraction(9, 4))
    big_q, cumulants = _candidate_rows(spn_moments(model, 5).coeffs, 5, 4)
    (g5,) = _gap_polys(cumulants, 4, 5)
    g = _int_gcd([], g5)
    h = _pseudo_divide(g, _int_gcd(g, [i * c for i, c in enumerate(g)][1:]))[0]
    scale = max(abs(c) for c in h)
    admissible = {}
    for u in np.roots([c / scale for c in reversed(h)]):
        x = 4 * u / big_q
        if abs(x.imag) > 1e-9 or x.real < 0:
            continue
        moments, t = _candidate(cumulants, big_q, 4, Fraction(float(x.real)) * big_q / 4)
        try:
            values, mults, nonnegative = _atoms([4 * c for c in moments[:4]], t, 4, False)
        except NonrealRootsError:
            continue
        if nonnegative:
            assert min(values) > 0
            admissible[float(x.real)] = np.repeat(values, mults)
    assert sorted(admissible) == pytest.approx([5.055243, 81 / 16], abs=1e-6)
    s = min(admissible)
    twin = SpnModel(5, 4, tuple(np.sqrt(admissible[s])), math.sqrt(s))
    ours, theirs = (spn_moments(x, 7, FLOAT).coeffs for x in (model, twin))
    split = [abs(a - b) / abs(a) for a, b in zip(ours, theirs)]
    assert max(split[:5]) <= 1e-15 and min(split[5:]) > 1e-11
    with pytest.raises(OrderTooSmallError):
        spn_recover(spn_moments(model, 5), 5, 4)
    m = spn_moments(model, 6)
    gap_rows = integer_basis(fraction_candidates(m, 5, 4)[1])[0]
    g = []
    for row in gap_rows:
        g = _int_gcd(g, row)
    assert len(g) == 2 and _gcd_roots(gap_rows) == [Fraction(81, 16)]
    assert spn_recover(m, 5, 4).sigma_sq_exact == Fraction(81, 16)


def test_spn_recover_rejects_a_nan_misfit(monkeypatch):
    # a fit that predicts nan at order d+2, with order d+1 exact: max() of the
    # misfits passes over the nan, and the acceptance rule must not
    m = spn_moments(README_MODEL, 6, FLOAT)
    spn_map = models._spn_map

    def nan_at_d_plus_2(*args):
        fit = list(spn_map(*args))
        fit[3] = math.nan
        return tuple(fit)

    monkeypatch.setattr(models, "_spn_map", nan_at_d_plus_2)
    with pytest.raises(RecoveryFailedError):
        spn_recover(m, 4, 2)


def test_spn_recover_float_double_atom():
    # once off by 1.5e-8: the double atom read as a split pair
    model = SpnModel(2, 2, (1, 1), Fraction(1, 100))
    report = spn_recover(spn_moments(model, 6, FLOAT), 2, 2)
    assert report.sigma_sq_hat == pytest.approx(1e-4, abs=1e-12)
    assert report.atoms == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("d", [8, 10, 12])
def test_spn_recover_growing_d_exact(d):
    # a_k = k/4 at exact order d + 2: sigma^2 was exact, but companion
    # roots missed the atoms by 2.3e-13, 5.4e-11 and 6.7e-9
    model = SpnModel(d + 2, d, tuple(Fraction(k, 4) for k in range(1, d + 1)),
                     Fraction(1, 2))
    report = spn_recover(spn_moments(model, d + 2), d + 2, d)
    assert report.sigma_sq_exact == Fraction(1, 4)
    expect = [(k / 4) ** 2 for k in range(1, d + 1)]
    assert report.atoms == pytest.approx(expect, abs=1e-12)


def test_spn_recover_errors():
    with pytest.raises(OrderTooSmallError):
        spn_recover(MomentSeries((1.0, 2.0), FLOAT), 4, 2)
    # Catalan-free garbage: not an SPN moment series for these dimensions
    garbage = MomentSeries((1.0, 1.0, 50.0, 2.0, 900.0, 3.0), FLOAT)
    with pytest.raises(RecoveryFailedError):
        spn_recover(garbage, 4, 2)


@pytest.mark.parametrize("p, d", [(4, 0), (0, 0), (-2, 2), (2, 4)])
def test_spn_recover_rejects_impossible_dimensions(p, d):
    m = spn_moments(SpnModel(4, 2, (1, 2), Fraction(1, 2)), 6)
    with pytest.raises(DimensionMismatchError):
        spn_recover(m, p, d)


@pytest.mark.parametrize(
    "order, factor", [(6, 1.01), (4, 1.001), (5, 1.001), (6, 1.001)],
    ids=["m6+1%", "m4+0.1%", "m5+0.1%", "m6+0.1%"],
)
def test_spn_recover_rejects_one_perturbed_moment(order, factor):
    # Raising m_6 by 1% once gave sigma^2 = 0.266 and atoms (0.995, 3.94)
    # within the sum-of-squares tolerance, which m_6 dominates; each order's
    # own misfit is about 1e-3 here, against 1e-12 for the true series.
    m = list(spn_moments(SpnModel(4, 2, (1, 2), Fraction(1, 2)), 6, FLOAT).coeffs)
    m[order - 1] *= factor
    with pytest.raises(RecoveryFailedError):
        spn_recover(MomentSeries(tuple(m), FLOAT), 4, 2)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "moments far below 1 pass the absolute misfit rule 1e-4 (1 + |m_k|)"))
def test_spn_recover_rejects_garbage_below_scale_1():
    m = list(spn_moments(SpnModel(4, 2, (0.01, 0.02), 0.01), 6, FLOAT).coeffs)
    m[4] *= 1.5
    m[5] *= -3
    with pytest.raises(RecoveryFailedError):
        spn_recover(MomentSeries(tuple(m), FLOAT), 4, 2)


@pytest.mark.parametrize("model, order", [
    pytest.param(SpnModel(3, 3, (0, 2, 2), 1 / 4), 7, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="no rank-r candidate for a float multiple atom: atoms off by 2.6e-4")),
    pytest.param(SpnModel(5, 4, (0, 0, 0, 0), 0.758), 6, marks=pytest.mark.xfail(
        strict=True, raises=RecoveryFailedError,
        reason="the rank rule's scale 1e-10 mu_2/mu_0 is rounding noise when every atom is 0")),
    pytest.param(SpnModel(10, 4, (1 / 4, 8 / 3, 7, 7), 7 / 2), 6, marks=pytest.mark.xfail(
        strict=True, raises=RecoveryFailedError,
        reason="the rank rule is too tight for a double atom far above the others")),
], ids=["double-atom-misses", "all-zero-atoms-rejected", "top-double-atom-rejected"])
def test_spn_recover_float_multiple_atoms(model, order):
    assert_recovers(model, spn_moments(model, order, FLOAT))


# ------------------------------------------------------------- identifiability

def test_identifiability_equivalent_parameters():
    a = SpnModel(4, 2, (1, 2), Fraction(1, 2))
    b = SpnModel(4, 2, (2, 1), Fraction(-1, 2))
    report = verify_identifiability(a, b, 8)
    assert report.identical and bool(report)
    assert report.first_divergent_order is None


def test_identifiability_sigma_shift_detected_at_first_moment():
    a = SpnModel(4, 2, (1, 2), Fraction(1, 2))
    b = SpnModel(4, 2, (1, 2), Fraction(3, 5))
    report = verify_identifiability(a, b, 8)
    assert not report.identical
    assert report.first_divergent_order == 1
    lam = a.aspect_ratio
    assert report.coefficient_b - report.coefficient_a == (
        Fraction(3, 5) ** 2 - Fraction(1, 2) ** 2
    ) / lam


def test_identifiability_same_mean_spectra_differ_by_second_order():
    # 1^2 + 7^2 = 5^2 + 5^2, so the first moments agree; the fourth power
    # sums differ, so the series split at the second coefficient.
    a = SpnModel(4, 2, (1, 7), 1)
    b = SpnModel(4, 2, (5, 5), 1)
    assert sum(v**2 for v in a.singular_values) == sum(
        v**2 for v in b.singular_values
    )
    report = verify_identifiability(a, b, 8)
    assert not report.identical
    assert report.first_divergent_order == 2


def test_identifiability_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        verify_identifiability(
            SpnModel(4, 2, (1, 2), 0), SpnModel(6, 2, (1, 2), 0), 6
        )
