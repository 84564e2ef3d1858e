"""Reference spectra computed apart from freedeconv.

Everything here is the benchmark's own code.  Moment series are exact in
``Fraction``; the Marchenko-Pastur densities are closed forms in numpy.

* Signal-plus-noise moments come from the information-plus-noise equation
  (Dozier and Silverstein, J. Multivariate Anal. 2007).  With u = 1/z and
  M(u) = sum m_n u^n,

      1 + M = (1/d) sum_k 1 / (1 - u T_k),
      T_k = a_k^2 / (1 - sigma^2 u (1 + M)) + sigma^2 (M + p/d),

  solved as a power series: each pass fixes one more coefficient.
* Compound Wishart moments come from the moment-cumulant functional
  equation M(z) = R(z (1 + M(z))) (Nica and Speicher, Lectures on the
  Combinatorics of Free Probability, 2006) with free cumulants
  kappa_n = (1/d) sum_k v_k^n.
* Pure noise (a = 0) has Narayana moments and the Marchenko-Pastur density.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def _mul(a: list, b: list) -> list:
    """Product of two power series truncated to len(a) coefficients."""
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _inv(a: list) -> list:
    """Multiplicative inverse of a power series with a[0] != 0."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) * out[0])
    return out


def spn_moments(a_sq: Sequence, sigma_sq, p: int, d: int, order: int) -> list:
    """Exact moments m_1..m_order of the signal-plus-noise limit spectrum.

    ``a_sq`` holds the d squared singular values of the signal; every input
    is converted to ``Fraction`` without rounding.
    """
    a_sq = [Fraction(v) for v in a_sq]
    s2 = Fraction(sigma_sq)
    ratio = Fraction(p, d)
    n = order + 1
    m = [Fraction(0)] * n
    for _ in range(order):
        one_plus_m = [Fraction(1)] + m[1:]
        # 1 - sigma^2 u (1 + M)
        denom = [Fraction(1)] + [-s2 * c for c in one_plus_m[:-1]]
        inv_denom = _inv(denom)
        noise = [s2 * (ratio + m[0])] + [s2 * c for c in m[1:]]
        total = [Fraction(0)] * n
        for a2 in a_sq:
            t = [a2 * x + y for x, y in zip(inv_denom, noise)]
            resolvent = _inv([Fraction(1)] + [-c for c in t[:-1]])
            total = [x + y for x, y in zip(total, resolvent)]
        m = [Fraction(0)] + [c / d for c in total[1:]]
    return m[1:]


def cw_moments(eigenvalues: Sequence, d: int, order: int) -> list:
    """Exact moments m_1..m_order of the compound Wishart limit spectrum."""
    vals = [Fraction(v) for v in eigenvalues]
    kappa = [sum(v**k for v in vals) / d for k in range(1, order + 1)]
    return r_to_moments(kappa)


def r_to_moments(kappa: Sequence) -> list:
    """Moments from free cumulants by M(z) = R(z (1 + M(z)))."""
    order = len(kappa)
    n = order + 1
    m = [Fraction(0)] * n
    for _ in range(order):
        w = [Fraction(0), Fraction(1)] + m[1:-1]  # z (1 + M), truncated
        acc = [Fraction(0)] * n
        for k in reversed(kappa):  # Horner: R(w) = w (k1 + w (k2 + ...))
            acc[0] += Fraction(k)
            acc = _mul(acc, w)
        m = acc
    return m[1:]


def narayana(n: int, j: int) -> int:
    return math.comb(n, j) * math.comb(n, j - 1) // n


def narayana_moments(sigma_sq, p: int, d: int, order: int) -> list:
    """Pure-noise moments sigma^{2n} sum_j N(n, j) (p/d)^j."""
    s2, c = Fraction(sigma_sq), Fraction(p, d)
    return [s2**n * sum(narayana(n, j) * c**j for j in range(1, n + 1))
            for n in range(1, order + 1)]


def low_order_moments(a_sq: Sequence, sigma_sq, p: int, d: int) -> tuple:
    """Hand-derived m_1 and m_2 of the signal-plus-noise spectrum."""
    a_sq = [Fraction(v) for v in a_sq]
    s2, c = Fraction(sigma_sq), Fraction(p, d)
    b1 = sum(a_sq) / len(a_sq)
    b2 = sum(v * v for v in a_sq) / len(a_sq)
    m1 = b1 + s2 * c
    m2 = b2 + 2 * s2 * b1 * (1 + c) + s2 * s2 * c * (1 + c)
    return m1, m2


def mp_edges(sigma_sq: float, p: int, d: int) -> tuple:
    """Support of the pure-noise spectrum sigma^2 Z*Z, Z p-by-d of variance 1/d."""
    r = math.sqrt(p / d)
    return sigma_sq * (r - 1) ** 2, sigma_sq * (r + 1) ** 2


def mp_density(x, sigma_sq: float, p: int, d: int) -> np.ndarray:
    """Marchenko-Pastur density of the pure-noise spectrum (no atom, p >= d)."""
    lo, hi = mp_edges(sigma_sq, p, d)
    x = np.asarray(x, dtype=float)
    inside = np.clip((hi - x) * (x - lo), 0.0, None)
    return np.sqrt(inside) / (2 * np.pi * sigma_sq * x)


def mp_smoothed_density(x, eps: float, sigma_sq: float, p: int, d: int) -> np.ndarray:
    """-Im G(x + i eps) / pi for the pure-noise spectrum, in closed form.

    G solves sigma^2 z G^2 - (z - sigma^2 (c - 1)) G + 1 = 0 with c = p/d;
    the root taken is the Cauchy transform, the one in the lower half-plane.
    """
    c = p / d
    z = np.asarray(x, dtype=float) + 1j * eps
    b = z - sigma_sq * (c - 1)
    disc = np.sqrt(b * b - 4 * sigma_sq * z)
    roots = np.stack([(b + disc), (b - disc)]) / (2 * sigma_sq * z)
    g = np.where(roots[0].imag < 0, roots[0], roots[1])
    return -g.imag / np.pi


def mp_smoothing_bound(eps: float, sigma_sq: float, p: int, d: int) -> tuple:
    """Interval and bound for |rho_eps - rho| of the pure-noise spectrum.

    rho_eps is rho smoothed by the Poisson kernel P(t) = eps / (pi (t^2 + eps^2)).
    With delta = 5% of the support, split the kernel at |t| = delta.  The
    tails carry mass at most 2 eps / (pi delta), so they move rho by at most
    4 rho_max eps / (pi delta).  Inside, the linear term of rho cancels by
    symmetry and the quadratic one adds at most max|rho''| eps delta / pi.
    The bound holds on the returned interval, 2 delta inside the edges,
    where max|rho''| is taken over the points within delta of it.
    """
    lo, hi = mp_edges(sigma_sq, p, d)
    delta = 0.05 * (hi - lo)
    x = np.linspace(lo + delta, hi - delta, 20001)
    rho = mp_density(x, sigma_sq, p, d)
    h = x[1] - x[0]
    curvature = float(np.max(np.abs(rho[2:] - 2 * rho[1:-1] + rho[:-2]))) / h**2
    bound = 4 * float(rho.max()) * eps / (np.pi * delta) + curvature * eps * delta / np.pi
    return (lo + 2 * delta, hi - 2 * delta), bound


def window_bounds(eps: float, xmin: float, xmax: float, edge: float) -> tuple:
    """Bounds on the mass and first-moment gaps of an eps-smoothed density.

    A spectrum inside [2 xmin, edge], edge < xmax, smoothed by the Poisson
    kernel of width eps and integrated over [xmin, xmax], loses at most
    (eps / pi) (1 / xmin + 1 / (xmax - edge)) of its mass beyond the window.
    The first moment moves by at most edge times that, plus
    (eps / pi) log(xmax / xmin) from the odd part of the kernel.
    """
    mass = eps / np.pi * (1 / xmin + 1 / (xmax - edge))
    return mass, edge * mass + eps / np.pi * math.log(xmax / xmin)
