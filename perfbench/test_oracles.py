"""Pin the benchmark's references to textbook values.

Run from the root of the source tree:  python3 -m pytest perfbench
"""

import math
from fractions import Fraction

import numpy as np

import oracle

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_semicircle_cumulants_give_catalan_numbers():
    # R(z) = z^2: only the second free cumulant is nonzero
    m = oracle.r_to_moments([0, 1] + [0] * 12)
    assert m[1::2] == CATALAN[1:]
    assert all(c == 0 for c in m[0::2])


def test_free_poisson_cumulants_give_narayana_moments():
    # kappa_n = c for every n is the free Poisson law of rate c
    c = Fraction(5, 2)
    m = oracle.r_to_moments([c] * 8)
    assert m == oracle.narayana_moments(1, 5, 2, 8)


def test_narayana_numbers():
    assert [oracle.narayana(4, j) for j in range(1, 5)] == [1, 6, 6, 1]
    assert [sum(oracle.narayana(n, j) for j in range(1, n + 1)) for n in range(1, 8)] \
        == CATALAN[1:]


def test_pure_noise_gives_narayana_moments():
    for p, d, s2 in [(3, 1, Fraction(9, 4)), (6, 2, Fraction(1, 3)), (2, 2, Fraction(7))]:
        assert oracle.spn_moments([0] * d, s2, p, d, 8) == oracle.narayana_moments(s2, p, d, 8)


def test_sigma_zero_gives_atomic_moments():
    a_sq = [Fraction(1, 4), Fraction(9), Fraction(2, 3)]
    m = oracle.spn_moments(a_sq, 0, 5, 3, 7)
    assert m == [sum(v**n for v in a_sq) / 3 for n in range(1, 8)]


def test_hand_derived_low_orders():
    cases = [([Fraction(1), Fraction(4)], Fraction(1, 4), 4, 2),
             ([Fraction(2, 3)], Fraction(5, 2), 3, 1),
             ([Fraction(0), Fraction(7, 5), Fraction(3)], Fraction(1, 9), 7, 3),
             ([Fraction(0.37) ** 2, Fraction(1.9) ** 2], Fraction(1.3) ** 2, 5, 2)]
    for a_sq, s2, p, d in cases:
        m = oracle.spn_moments(a_sq, s2, p, d, 2)
        assert tuple(m) == oracle.low_order_moments(a_sq, s2, p, d)


def test_compound_wishart_single_eigenvalue_is_free_poisson():
    # D = v I_p gives kappa_n = (p/d) v^n: a free Poisson law of jump v
    p, d, v = 6, 4, Fraction(3, 2)
    m = oracle.cw_moments([v] * p, d, 6)
    scaled = oracle.narayana_moments(1, p, d, 6)
    assert m == [v**n * c for n, c in enumerate(scaled, start=1)]


def test_compound_wishart_matches_pure_noise_signal_plus_noise():
    # sigma^2 Z*Z is compound Wishart with D = sigma^2 I_p
    s2 = Fraction(5, 7)
    assert oracle.cw_moments([s2] * 5, 3, 6) == oracle.spn_moments([0] * 3, s2, 5, 3, 6)


def test_marchenko_pastur_density_moments():
    s2, p, d = 0.64, 4, 2
    lo, hi = oracle.mp_edges(s2, p, d)
    x = np.linspace(lo, hi, 400001)
    rho = oracle.mp_density(x, s2, p, d)
    want = oracle.narayana_moments(Fraction(s2), p, d, 3)
    assert math.isclose(np.trapezoid(rho, x), 1.0, abs_tol=1e-6)
    for k in (1, 2, 3):
        assert math.isclose(np.trapezoid(x**k * rho, x), float(want[k - 1]), rel_tol=1e-6)


def test_smoothed_density_tends_to_density():
    s2, p, d = 2.25, 6, 2
    lo, hi = oracle.mp_edges(s2, p, d)
    x = np.linspace(lo + 0.1, hi - 0.1, 1000)
    gap = oracle.mp_smoothed_density(x, 1e-9, s2, p, d) - oracle.mp_density(x, s2, p, d)
    assert np.max(np.abs(gap)) < 1e-6


def test_smoothing_bound_holds_for_closed_forms():
    for s2, p, d in [(0.64, 4, 2), (1.69, 6, 2), (1.0, 9, 3)]:
        for eps in (1e-3, 1e-2):
            (a, b), bound = oracle.mp_smoothing_bound(eps, s2, p, d)
            x = np.linspace(a, b, 2000)
            gap = oracle.mp_smoothed_density(x, eps, s2, p, d) - oracle.mp_density(x, s2, p, d)
            assert np.max(np.abs(gap)) <= bound
