import functools
import json
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freedeconv.errors import (
    BackendMismatchError,
    DomainError,
    FreeDeconvError,
    NotInvertibleError,
    OrderMismatchError,
)
from freedeconv.models import SpnModel, f_lambda, spn_moments
from freedeconv.ncpart import catalan, coef_product, enumerate_nc, kreweras
from freedeconv.series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    boxed_conv,
    boxed_inverse,
    delta_series,
    free_add_conv,
    free_mult_deconv,
    moment_from_r,
    r_transform,
    scale_argument,
    zeta_series,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def random_series(rng, order, invertible=False):
    def frac():
        return Fraction(rng.randint(-8, 8), rng.randint(1, 6))

    coeffs = [frac() for _ in range(order)]
    while invertible and coeffs[0] == 0:
        coeffs[0] = frac()
    return MomentSeries(tuple(coeffs))


def geometric(beta, order):
    return MomentSeries(tuple(Fraction(beta) ** n for n in range(1, order + 1)))


@functools.lru_cache(maxsize=None)
def nc_pairs(m):
    return tuple((pi, kreweras(pi)) for pi in enumerate_nc(m))


def nc_boxed(f, g):
    """Boxed convolution by its definition: the sum over pi in NC(m) of f
    along the blocks of pi times g along the blocks of kreweras(pi)."""
    # integers where possible: Fraction products make NC(10) slow
    fc, gc = ([c.numerator if c.denominator == 1 else c for c in x.coeffs] for x in (f, g))
    return MomentSeries(tuple(
        sum(coef_product(fc, pi) * coef_product(gc, k) for pi, k in nc_pairs(m))
        for m in range(1, f.order + 1)
    ))


def mobius(order):
    """Zeta^{-1}: the Moebius function of NC, signed Catalan numbers."""
    return MomentSeries(tuple((-1) ** (n - 1) * catalan(n - 1) for n in range(1, order + 1)))


# ------------------------------------------------------------------ basics

def test_delta_and_zeta():
    assert delta_series(1).coeffs == (Fraction(1),)
    assert delta_series(3).coeffs == (1, 0, 0)
    assert zeta_series(4).coeffs == (1, 1, 1, 1)


def test_series_validation():
    with pytest.raises(OrderMismatchError):
        MomentSeries(())
    with pytest.raises(DomainError):
        MomentSeries((1 + 2j,))


def test_json_round_trip_rational():
    f = MomentSeries((Fraction(3, 2), Fraction(-1, 3)))
    data = f.to_dict()
    assert data == {"order": 2, "coeffs": ["3/2", "-1/3"], "scalar": "rational"}
    assert MomentSeries.from_dict(data) == f


def test_json_round_trip_float():
    f = MomentSeries((0.5, -2.0), FLOAT)
    data = f.to_dict()
    assert data["scalar"] == "float"
    assert MomentSeries.from_dict(data) == f


def test_json_round_trip_beyond_the_int_digit_cap():
    # the default cap on int <-> str conversion is 4300 digits; the exact
    # moments of a model with a singular value of 1e308 pass it at order 8
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        m = spn_moments(SpnModel(4, 2, (1e308, 2), Fraction(1, 2)), 8)
        data = json.loads(json.dumps(m.to_dict()))
        assert max(len(c) for c in data["coeffs"]) > 4300
        assert MomentSeries.from_dict(data) == m
    finally:
        sys.set_int_max_str_digits(previous)


def test_json_rational_strings():
    data = {"coeffs": ["3", "-1/3", "0.25"], "scalar": "rational"}
    assert MomentSeries.from_dict(data).coeffs == (3, Fraction(-1, 3), Fraction(1, 4))
    for bad in ("nan", "inf", "1/0", "1/", "abc", "1/2/3"):
        with pytest.raises(DomainError):
            MomentSeries.from_dict({"coeffs": [bad], "scalar": "rational"})


@pytest.mark.parametrize("value", [math.inf, -math.inf, "nan", 10**400],
                         ids=["inf", "minus-inf", "nan", "huge-int"])
def test_float_series_rejects_non_finite_coefficients(value):
    with pytest.raises(DomainError) as info:
        MomentSeries((1.0, value), FLOAT)
    assert info.value.module == "series"


@pytest.mark.parametrize("coeffs, kind", [
    ((True,), RATIONAL), (("nan",), RATIONAL), (("1/3",), RATIONAL), (("1/3",), FLOAT),
    ((1 + 0j,), RATIONAL), ((1 + 0j,), FLOAT), ((Fraction(1, 3),), "bogus"),
], ids=["bool", "nan-string", "string", "string-float", "complex", "complex-float",
        "bogus-backend"])
def test_coefficients_follow_the_model_value_rule(coeffs, kind):
    # a coefficient is a real number by the rule of model values: no bool,
    # no string (only JSON carries "p/q", and from_dict parses it), no complex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FreeDeconvError) as info:
            MomentSeries(coeffs, kind)
    assert info.value.module == "series"


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_numpy_scalars_read_as_python_numbers(kind):
    # a numpy integer is an exact rational and reads as a Python int: an
    # int64 numerator would wrap around in exact arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = MomentSeries((np.int64(3), np.int64(3**39), np.float32(0.5)), kind)
        assert f == MomentSeries((3, 3**39, 0.5), kind)
        if kind == RATIONAL:
            assert [type(c.numerator) for c in f.coeffs] == [int] * 3
            assert boxed_conv(f, f) == boxed_conv(*[MomentSeries((3, 3**39, 0.5))] * 2)
        else:
            assert [type(c) for c in f.coeffs] == [float] * 3


def test_json_order_mismatch():
    with pytest.raises(OrderMismatchError):
        MomentSeries.from_dict({"order": 3, "coeffs": ["1/1"], "scalar": "rational"})


# ------------------------------------------------------------------ boxed conv

def test_unit_law():
    rng = random.Random(1)
    for _ in range(20):
        f = random_series(rng, 8)
        assert boxed_conv(f, delta_series(8)) == f


def test_zeta_boxed_scaled_delta_is_geometric():
    beta = Fraction(5, 3)
    got = boxed_conv(zeta_series(6), scale_argument(delta_series(6), beta))
    assert got == geometric(beta, 6)


def test_first_coefficient_is_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        f, g = random_series(rng, 5), random_series(rng, 5)
        assert boxed_conv(f, g).coeffs[0] == f.coeffs[0] * g.coeffs[0]


def test_commutativity():
    rng = random.Random(3)
    for _ in range(30):
        f, g = random_series(rng, 8), random_series(rng, 8)
        assert boxed_conv(f, g) == boxed_conv(g, f)


def test_associativity():
    rng = random.Random(4)
    for _ in range(15):
        f, g, h = (random_series(rng, 6) for _ in range(3))
        assert boxed_conv(boxed_conv(f, g), h) == boxed_conv(f, boxed_conv(g, h))


def test_order_and_backend_mismatch():
    with pytest.raises(OrderMismatchError):
        boxed_conv(delta_series(3), delta_series(4))
    with pytest.raises(BackendMismatchError):
        boxed_conv(delta_series(3), delta_series(3, FLOAT))


@pytest.mark.parametrize("order", range(1, 11))
def test_transforms_equal_noncrossing_sums(order):
    rng = random.Random(100 + order)
    zeta, mu = zeta_series(order), mobius(order)

    def integer_series(first):
        # a first coefficient of +-1 keeps every transform integral
        return MomentSeries((first,) + tuple(rng.randint(-3, 3) for _ in range(order - 1)))

    f, g = integer_series(1), integer_series(-1)
    f0, g0 = integer_series(0), integer_series(0)
    for a, b in ((f, g), (f0, g), (f, g0), (f0, g0)):
        assert boxed_conv(a, b) == nc_boxed(a, b)
    for a in (g, f0):
        assert r_transform(a) == nc_boxed(a, mu)
        assert moment_from_r(a) == nc_boxed(a, zeta)
    assert nc_boxed(g, boxed_inverse(g)) == delta_series(order)
    assert boxed_inverse(zeta) == mu
    h = free_mult_deconv(f0, g)
    assert nc_boxed(nc_boxed(g, mu), nc_boxed(h, mu)) == nc_boxed(f0, mu)


def test_kernel_convolution_is_a_scaling():
    # X x f_lambda = lambda^-1 mu(lambda X) and X x f_lambda^{x-1} = lambda^-1 rho(lambda X)
    rng = random.Random(17)
    for lam in (Fraction(1), Fraction(2, 3), Fraction(1, 5)):
        x = random_series(rng, 8)
        flam = f_lambda(lam, 8)
        scaled = MomentSeries(tuple(lam * c for c in x.coeffs))
        assert boxed_conv(flam, x).coeffs == tuple(c / lam for c in moment_from_r(scaled).coeffs)
        assert boxed_conv(x, boxed_inverse(flam)).coeffs == tuple(
            c / lam for c in r_transform(scaled).coeffs
        )


# ------------------------------------------------------------------- inverse

def test_delta_is_self_inverse():
    assert boxed_inverse(delta_series(6)) == delta_series(6)


def test_zeta_inverse_is_signed_catalans():
    inv = boxed_inverse(zeta_series(10))
    expect = tuple((-1) ** n * CATALAN[n] for n in range(10))
    assert inv.coeffs == expect


def test_inverse_law_and_involution():
    rng = random.Random(5)
    for _ in range(15):
        f = random_series(rng, 7, invertible=True)
        inv = boxed_inverse(f)
        assert boxed_conv(f, inv) == delta_series(7)
        assert boxed_inverse(inv) == f


def test_not_invertible():
    f = MomentSeries((Fraction(0), Fraction(1), Fraction(2)))
    with pytest.raises(NotInvertibleError):
        boxed_inverse(f)
    tiny = MomentSeries((1e-13, 1.0), FLOAT)
    with pytest.raises(NotInvertibleError):
        boxed_inverse(tiny)


# ---------------------------------------------------------------- r-transform

def test_r_transform_of_geometric_is_scaled_delta():
    beta = Fraction(-7, 4)
    r = r_transform(geometric(beta, 7))
    assert r == scale_argument(delta_series(7), beta)


def test_r_transform_of_delta_is_zeta_inverse():
    assert r_transform(delta_series(9)) == boxed_inverse(zeta_series(9))


def test_r_transform_of_zeta_is_delta():
    assert r_transform(zeta_series(7)) == delta_series(7)


def test_r_transform_preserves_first_coefficient():
    rng = random.Random(6)
    for _ in range(10):
        f = random_series(rng, 6)
        assert r_transform(f).coeffs[0] == f.coeffs[0]


def test_moment_r_round_trip():
    rng = random.Random(7)
    for _ in range(15):
        f = random_series(rng, 8)
        assert moment_from_r(r_transform(f)) == f
        assert r_transform(moment_from_r(f)) == f


def test_moment_from_all_ones_cumulants_is_catalan():
    got = moment_from_r(zeta_series(8))
    assert got.coeffs == tuple(CATALAN[1:9])


def test_moment_from_zero_is_zero():
    zero = MomentSeries((Fraction(0),) * 5)
    assert moment_from_r(zero) == zero


# ------------------------------------------------------- additive convolution

def test_boxplus_unit_is_delta_mass_at_zero():
    rng = random.Random(8)
    zero_mass = MomentSeries((Fraction(0),) * 6)
    for _ in range(10):
        f = random_series(rng, 6)
        assert free_add_conv(f, zero_mass) == f


def test_boxplus_of_point_masses():
    a, b = Fraction(2, 3), Fraction(-1, 2)
    assert free_add_conv(geometric(a, 6), geometric(b, 6)) == geometric(a + b, 6)


def test_boxplus_commutative_associative_r_linear():
    rng = random.Random(9)
    for _ in range(8):
        f, g, h = (random_series(rng, 6) for _ in range(3))
        assert free_add_conv(f, g) == free_add_conv(g, f)
        assert free_add_conv(free_add_conv(f, g), h) == free_add_conv(
            f, free_add_conv(g, h)
        )
        rf, rg = r_transform(f), r_transform(g)
        rsum = r_transform(free_add_conv(f, g))
        assert rsum.coeffs == tuple(x + y for x, y in zip(rf.coeffs, rg.coeffs))


def test_shift_cancellation():
    rng = random.Random(10)
    alpha = Fraction(7, 5)
    for _ in range(10):
        f = random_series(rng, 6)
        shifted = free_add_conv(f, geometric(alpha, 6))
        assert free_add_conv(shifted, geometric(-alpha, 6)) == f


# --------------------------------------------------------------- deconvolution

def test_self_deconvolution_gives_point_mass_at_one():
    rng = random.Random(11)
    for _ in range(10):
        f = random_series(rng, 6, invertible=True)
        assert free_mult_deconv(f, f) == geometric(1, 6)


def test_scaled_argument_deconvolution_gives_point_mass():
    rng = random.Random(12)
    beta = Fraction(3, 7)
    for _ in range(10):
        f = random_series(rng, 6, invertible=True)
        assert free_mult_deconv(scale_argument(f, beta), f) == geometric(beta, 6)


def test_deconvolution_reconstruction():
    rng = random.Random(13)
    for _ in range(10):
        f = random_series(rng, 8)
        g = random_series(rng, 8, invertible=True)
        h = free_mult_deconv(f, g)
        back = moment_from_r(boxed_conv(r_transform(g), r_transform(h)))
        assert back == f


def test_deconvolution_requires_invertible_kernel():
    f = random_series(random.Random(14), 5)
    g = MomentSeries((Fraction(0),) + (Fraction(1),) * 4)
    with pytest.raises(NotInvertibleError):
        free_mult_deconv(f, g)


# ------------------------------------------------------------- scale_argument

def test_scale_argument_edges():
    f = random_series(random.Random(15), 6)
    assert scale_argument(f, 1) == f
    assert scale_argument(f, 0) == MomentSeries((Fraction(0),) * 6)
    got = scale_argument(f, Fraction(1, 2))
    assert got.coeffs == tuple(
        Fraction(1, 2) ** n * c for n, c in enumerate(f.coeffs, start=1)
    )


# ------------------------------------------------------------ float backend

def test_float_backend_tracks_exact():
    rng = random.Random(16)
    for _ in range(10):
        f = random_series(rng, 8)
        g = random_series(rng, 8, invertible=True)
        for op in (free_mult_deconv, boxed_conv):
            exact = op(f, g)
            approx = op(f.as_float(), g.as_float())
            for e, a in zip(exact.coeffs, approx.coeffs):
                assert a == pytest.approx(float(e), rel=1e-9, abs=1e-12)
