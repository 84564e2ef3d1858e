"""Moment models of compound Wishart and signal-plus-noise spectra, and
parameter recovery from moment data.

The compound Wishart model W = Z*DZ (Z a p-by-d Ginibre block of variance
1/d, D self-adjoint with spectrum v) has, in the large-dimension
deterministic limit, free cumulants equal to the normalized power sums
(1/d) sum_k v_k^n: a compound free Poisson law.  The signal-plus-noise
model W = (A + sigma Z)*(A + sigma Z) satisfies the deconvolution
identity

    M[W] deconv nu = (M[A*A] deconv nu) boxplus M[delta_{sigma^2/lambda}]

with lambda = d/p and nu the free Poisson law of rate 1/lambda and jump
size lambda, whose R-transform f_lambda(z) = sum lambda^{n-1} z^n is a
scaling under boxed convolution.  So with rho the R-transform it reads
lambda rho(M[W]) = T_{sigma^2}(lambda rho(M[A*A])), T_s the shift of a
measure by s.  Forward moments and the recovery of (sigma^2, spectrum of
A*A) are one map, mu(lambda^-1 T_s(lambda rho(.))), with opposite shifts;
recovery is well-posed, as the moment map is one-to-one up to the order of
the singular values and the sign of sigma.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import (
    DimensionMismatchError,
    DomainError,
    NonrealRootsError,
    OrderTooSmallError,
    RecoveryFailedError,
    require_int,
)
from .series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    _coerce,
    _cumulants,
    _moments,
    _real,
    format_rational,
    moment_from_r,
    parse_scalar,
    r_transform,
    scale_argument,
    zeta_series,
)

# The rank rule of ``_atoms`` on float input: |beta_k| <= RANK_TOL mu_2/mu_0 is 0.
RANK_TOL = 1e-10
# Gauss-Newton steps spent polishing each noise-level candidate.
POLISH_MAX_STEPS = 30
# The acceptance rule of both recoveries: every ``_misfits`` is at most this.
MISFIT_TOL = 1e-4

__all__ = [
    "CwModel",
    "SpnModel",
    "RecoveryReport",
    "IdentifiabilityReport",
    "delta_moments",
    "free_poisson_r",
    "f_lambda",
    "atomic_moments",
    "cw_r_transform",
    "cw_moments",
    "cw_recover_eigenvalues",
    "spn_moments",
    "spn_decompose",
    "spn_recover",
    "verify_identifiability",
]


class CwModel(Record):
    """Compound Wishart parameters: dimensions (p, d) and the spectrum of D."""

    __slots__ = ("p", "d", "eigenvalues")

    def __init__(self, p: int, d: int, eigenvalues: tuple):
        _check_dimensions(p, d)
        vals = _parse_values(eigenvalues, "eigenvalues", p)
        self._init(p, d, vals)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "eigenvalues": [_scalar_to_json(v) for v in self.eigenvalues],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CwModel":
        _require_fields(data, "p", "d", "eigenvalues")
        return cls(data["p"], data["d"], _from_json(data["eigenvalues"]))


class SpnModel(Record):
    """Signal-plus-noise parameters: dimensions (p >= d), the d singular
    values of the signal A, and the noise scale sigma (only sigma^2 enters
    the spectrum, so the sign is immaterial)."""

    __slots__ = ("p", "d", "singular_values", "sigma")

    def __init__(self, p: int, d: int, singular_values: tuple, sigma: object = 0.0):
        _check_dimensions(p, d, tall=True)
        vals = _parse_values(singular_values, "singular_values", d)
        if any(v < 0 for v in vals):
            raise DomainError("singular values must be nonnegative")
        self._init(p, d, vals, _real(sigma, "models"))

    @property
    def aspect_ratio(self) -> Fraction:
        """lambda = d/p, exact."""
        return Fraction(self.d, self.p)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "singular_values": [_scalar_to_json(v) for v in self.singular_values],
            "sigma": _scalar_to_json(self.sigma),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpnModel":
        _require_fields(data, "p", "d", "singular_values")
        return cls(
            data["p"],
            data["d"],
            _from_json(data["singular_values"]),
            _from_json(data.get("sigma", 0)),
        )


class RecoveryReport(Record):
    """Result of signal-plus-noise parameter recovery from a moment series.

    ``atoms`` is the spectrum of A*A, ascending, with its repeats; ``misfits``
    holds, for each order k = d+1..N, the relative misfit |r_k - t_k| /
    (1 + |t_k|) of the reconstructed moment r_k against the input moment t_k;
    recovery is accepted only when each is at most 1e-4.  ``residual`` is the
    fit's sum of squares in the input's units, which reads inf where it passes
    the float range.  ``search_trace`` lists the candidates (s, D(s)), D = 0
    at the gaps' exact roots; ``sigma_sq_exact`` is the winner as a
    ``Fraction`` when it is such a root, else None; ``multiplicities`` are
    those of the distinct atoms, as ``_atoms`` read them at the winner.
    """

    __slots__ = ("sigma_sq_hat", "atom_moments", "atoms", "residual", "search_trace",
                 "misfits", "sigma_sq_exact", "multiplicities")

    def __init__(self, sigma_sq_hat: float, atom_moments: MomentSeries, atoms: tuple,
                 residual: float, search_trace: tuple, misfits: tuple,
                 sigma_sq_exact: Fraction | None, multiplicities: tuple):
        self._init(sigma_sq_hat, atom_moments, atoms, residual, search_trace, misfits,
                   sigma_sq_exact, multiplicities)

    def to_dict(self) -> dict:
        return {
            "sigma_sq_hat": self.sigma_sq_hat,
            "sigma_sq_exact": _scalar_to_json(self.sigma_sq_exact),
            "atoms": list(self.atoms),
            "multiplicities": list(self.multiplicities),
            "residual": self.residual,
            "misfits": list(self.misfits),
            "atom_moments": self.atom_moments.to_dict(),
            "search_trace": [[s, r] for s, r in self.search_trace],
        }


class IdentifiabilityReport(Record):
    """Coefficientwise comparison of two signal-plus-noise moment series."""

    __slots__ = ("identical", "first_divergent_order", "coefficient_a", "coefficient_b")

    def __init__(self, identical: bool, first_divergent_order: int | None,
                 coefficient_a: object = None, coefficient_b: object = None):
        self._init(identical, first_divergent_order, coefficient_a, coefficient_b)

    def __bool__(self) -> bool:
        return self.identical

    def to_dict(self) -> dict:
        return {
            "identical": self.identical,
            "first_divergent_order": self.first_divergent_order,
            "coefficient_a": _scalar_to_json(self.coefficient_a),
            "coefficient_b": _scalar_to_json(self.coefficient_b),
        }


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    return v


def _require_fields(data, *fields) -> None:
    if not isinstance(data, dict):
        raise DomainError(f"a model must be a JSON object, got {type(data).__name__}")
    missing = [f for f in fields if f not in data]
    if missing:
        raise DomainError(f"model lacks required field(s): {', '.join(missing)}")


def _from_json(v):
    # JSON carries exact rationals as "p/q" strings, alone or in a flat list;
    # the model checks the rest (a nested list is not a number)
    if isinstance(v, list):
        return [parse_scalar(x, "models") if isinstance(x, str) else x for x in v]
    return parse_scalar(v, "models") if isinstance(v, str) else v


def _check_dimensions(p, d, module: str = "models", tall: bool = False) -> None:
    """p and d positive ints, and with ``tall`` p >= d, the signal-plus-noise rule."""
    require_int(p, "p", module)
    require_int(d, "d", module)
    if p < 1 or d < 1:
        raise DimensionMismatchError(f"p and d must be positive, got p={p}, d={d}", module)
    if tall and p < d:
        raise DimensionMismatchError(f"p >= d required, got p={p} < d={d}", module)


def _parse_values(values, field: str, count: int) -> tuple:
    # a one-dimensional array is known by the array protocol, so the exact
    # path imports no array library to recognize one
    array = hasattr(values, "__array__") and getattr(values, "ndim", None) == 1
    if not isinstance(values, (list, tuple)) and not array:
        raise DomainError(f"{field} must be a list, got {values!r}")
    if len(values) != count:
        raise DimensionMismatchError(f"expected {count} {field}, got {len(values)}")
    return tuple(sorted(_real(v, "models") for v in values))


def _times(c, f: MomentSeries) -> MomentSeries:
    return MomentSeries(tuple(c * x for x in f.coeffs), f.scalar_kind)


def delta_moments(beta, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the point mass at beta: coefficients beta^n."""
    return scale_argument(zeta_series(order, kind), beta)


def free_poisson_r(rate, jump, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Free-cumulant series of the free Poisson law: coefficient n is rate*jump^n."""
    lam = _coerce(rate, kind)
    if lam <= 0:
        raise DomainError(f"free Poisson rate must be positive, got {rate}")
    return _times(lam, delta_moments(jump, order, kind))


def _aspect(aspect, kind):
    lam = _coerce(aspect, kind)
    if not 0 < lam <= 1:
        raise DomainError(f"aspect ratio must lie in (0, 1], got {aspect}")
    return lam


def f_lambda(aspect, order: int, kind: str = RATIONAL) -> MomentSeries:
    """The deconvolution kernel's R-transform: coefficient n is aspect^(n-1).

    ``aspect`` is the ratio d/p in (0, 1]; the series equals the
    free-cumulant series of the free Poisson law with rate 1/aspect and
    jump size aspect, and is always invertible (first coefficient 1).
    """
    lam = _aspect(aspect, kind)
    return free_poisson_r(1 / lam, lam, order, kind)


def _power_means(values: Sequence, divisor: int, order: int, kind: str) -> MomentSeries:
    # coefficient n is (sum_k values_k^n) / divisor
    columns = zip(*(delta_moments(_coerce(v, kind), order, kind).coeffs for v in values))
    return MomentSeries(tuple(sum(c) / divisor for c in columns), kind)


def atomic_moments(atoms: Sequence, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the uniform atomic measure on ``atoms``."""
    if not atoms:
        raise DomainError("need at least one atom")
    return _power_means(atoms, len(atoms), order, kind)


def cw_r_transform(model: CwModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Free cumulants of the compound Wishart limit: (1/d) sum_k v_k^n."""
    return _power_means(model.eigenvalues, model.d, order, kind)


def cw_moments(model: CwModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the compound Wishart limit spectrum."""
    return moment_from_r(cw_r_transform(model, order, kind))


# Floats ordered as numbers have ordinals in the same order, and the floats
# of ordinals o and o + 1 are neighbours; +inf has this one.
_INF = 0x7FF0000000000000


def _ordinal(x: float) -> int:
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits + (1 << 63))


def _from_ordinal(o: int) -> float:
    return struct.unpack("<d", struct.pack("<q", o if o >= 0 else -o - (1 << 63)))[0]


def _midpoint(o: int) -> tuple:
    """(a, b), b a power of two: a / b is the midpoint of the floats of
    ordinals o and o + 1, where past the largest float 2^1024 comes next."""
    sign = 1
    if o < 0:
        o, sign = -o - 1, -1
    e, m = divmod(o, 1 << 52)
    a, shift = sign * (2 * (m + ((e > 0) << 52)) + 1), max(e, 1) - 1076
    return (a << shift, 1) if shift >= 0 else (a, 1 << -shift)


def _horner(poly: list, a: int, b: int) -> int:
    """b^D poly(a/b), D = len(poly) - 1, by Horner's rule."""
    acc, bj = 0, 1
    for c in reversed(poly):
        acc, bj = acc * a + c * bj, bj * b
    return acc


def _homogeneous(poly: list, a: int, b: int) -> tuple:
    """(b^D poly(a/b), b^(D-1) poly'(a/b)), D = len(poly) - 1: ``_horner``
    with the slope in the same pass."""
    acc, slope, bj = 0, 0, 1
    for c in reversed(poly):
        slope = slope * a + acc
        acc, bj = acc * a + c * bj, bj * b
    return acc, slope


def _narrowed(h: list, lo: int, hi: int, b: int, x: int) -> tuple:
    """(lo, lo + 1) with the root of the int polynomial h in (lo/b, (lo + 1)/b),
    or (x, x) with h(x/b) = 0, where (lo/b, hi/b) holds one root of h,
    simple, h < 0 between lo/b and it and h > 0 from it to hi/b: Newton's
    method in ints from x (rtsafe; Press et al., Numerical Recipes, 9.4),
    keeping the bracket by the sign of h and never evaluating at its ends.
    A point outside the open bracket, or one with no slope, gives way to the
    midpoint; within one unit of the root the next point is the neighbour on
    the open side.  A step not at most half the previous move bisects,
    unless the steps shrink at the steady rate (m - 1) / m of a cluster of m
    roots: then one step goes m times as far, which lands well inside it,
    where Newton converges quadratically again."""
    prev = hi - lo
    while hi - lo > 1:
        if not lo < x < hi:
            x, prev = (lo + hi) // 2, hi - lo
        val, slope = _homogeneous(h, x, b)
        if not val:
            return x, x
        if val > 0:
            hi = x
        else:
            lo = x
        if not slope:
            continue
        # b h(x/b) / h'(x/b), rounded to nearest; x is now an end of the
        # bracket, so a step of 0 bisects
        step = (2 * val + slope) // (2 * slope)
        if abs(step) <= 1:
            # one evaluation closes a one-sided approach
            step = 1 if x == hi else -1
        elif 2 * abs(step) > abs(prev):
            gap = prev - step
            same = (prev > 0) == (step > 0) and abs(step) < abs(prev)
            step = step * ((2 * prev + gap) // (2 * gap)) if same else 0
        x, prev = x - step, step
    return lo, lo + 1


def _refined(poly: list, x: float) -> tuple:
    """(a, b): a/b within 2^-64 of a float spacing of the root of poly that
    rounds to x, a float of ``_float_roots``: the root's ``_cell`` between
    the midpoints beside x."""
    (a0, b0), (a1, b1) = _midpoint(_ordinal(x) - 1), _midpoint(_ordinal(x))
    a, _, b = _cell(poly, Fraction(a0, b0), Fraction(a1, b1), max(b0, b1).bit_length() + 63)
    return a, b


def _float_roots(poly: list, guesses: list) -> list:
    """The floats nearest to the roots of the int polynomial ``poly``, all
    real and simple, ascending, ties to even; ``guesses`` holds an ordinal
    near each.  Each guess takes one exact Newton step; if poly changes sign
    between the midpoints on either side of every result, these r disjoint
    intervals hold one root each, and the results are the answer.  Else
    ``_isolated_roots`` isolates the roots above 0 of poly(x) and of poly(-x),
    0 is a root where poly_0 = 0, and each is read from its ``_cell`` on the
    grid 2^-1076, which holds every float and every midpoint between two: the
    cell's centre, divided once as int / int, rounds as the root does.
    OverflowError if a root rounds to an infinity."""
    def at(o: int) -> int:
        return _horner(poly, *_midpoint(o))

    steps = []
    for o in guesses:
        a, b = _from_ordinal(o).as_integer_ratio()
        value, slope = _homogeneous(poly, a, b)
        try:
            o = _ordinal((a * slope - value) / (b * slope))
        except (OverflowError, ZeroDivisionError):
            pass
        steps.append(min(max(o, 1 - _INF), _INF - 1))
    if all(x < y for x, y in zip(steps, steps[1:])) and all(
            at(o - 1) * at(o) < 0 for o in steps):
        return [_from_ordinal(o) for o in steps]
    values = [0.0] * (not poly[0])
    for sign in (1, -1):
        h, intervals = _isolated_roots([c * sign**i for i, c in enumerate(poly)])
        for lo, hi in intervals:
            a, b, one = _cell(h, lo, hi, 1076)
            # + 0.0: a negative root that rounds to 0 reads 0.0, not -0.0
            values.append(sign * (a + b) / (2 * one) + 0.0)
    return sorted(values)


def _ratio(n: int, d: int, e: int) -> float:
    """n / (d 2^e), correctly rounded."""
    return n / (d << e) if e >= 0 else (n << -e) / d


def _tridiagonal_eigenvalues(diag: list, off: list) -> list:
    """Float estimates of the eigenvalues, ascending, of the symmetric
    tridiagonal matrix with diagonal ``diag`` and off-diagonal ``off``: the
    implicit QL method with Wilkinson shifts (Bowdler, Martin, Reinsch and
    Wilkinson, Numer. Math. 11, 1968), at most 30 sweeps per eigenvalue."""
    d, e, n = list(diag), list(off) + [0.0], len(diag)
    for l in range(n):
        for _ in range(30):
            m = l
            while m < n - 1 and abs(e[m]) + (dd := abs(d[m]) + abs(d[m + 1])) != dd:
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
    return sorted(d)


def _atoms(scaled: Sequence[int], big_q: int, count: int, exact: bool) -> tuple:
    """(distinct atoms ascending, multiplicities, no atom < 0) of n = ``count``
    atoms of equal weight from the ints ``scaled`` Q^k p_k, p_1..p_n their
    power sums.  On the atoms times n! Q, Newton's identities give the int
    e_k and moments mu_0..mu_(2n-1), the Chebyshev algorithm (Gautschi, 2004,
    2.1.7) on the ints tau_k,l = D_k sigma_k,l (D_k the k-th Hankel
    determinant) the Jacobi coefficients alpha_k = A_k / L_k, L_k = D_k
    D_(k+1) n! Q, and beta_k = D_(k+1) D_(k-1) / (D_k n! Q)^2.  The first
    beta_r that is 0 (on float input, at most RANK_TOL mu_2/mu_0) gives the
    atoms: the r eigenvalues of the Jacobi matrix, the roots of the monic
    orthogonal polynomial pi_r.  For r = n they are the n atoms, the roots of
    the e_k polynomial, each of multiplicity 1; for r < n the ints
    P_k = D_k c^k pi_k (pi_k's Hankel-determinant form in c x) follow
    P_(k+1) = ((L_k x - A_k) P_k - D_(k+1)^2 P_(k-1)) / D_k^2, an exact
    division, and are read primitive.  ``_float_roots`` reads each root as
    the float nearest to it, exactly, from the float estimates of the Jacobi
    matrix scaled by a power of two (``_tridiagonal_eigenvalues``).  The
    multiplicity of an atom is n times its share of the weights 1 / (P_(r-1)
    P_r') at the atoms, the Gauss weights (Golub and Welsch, 1969) times one
    constant, in ints at the atom narrowed to 2^-64 of its float spacing
    (``_refined``), and rounded; an atom of weight below 1/(2n) is none.  Any Q
    gives the same bits: each alpha_k and beta_k is an int / int quotient,
    and each side of the rank test a term of the same weight.
    NonrealRootsError: a beta_k < 0, on exact input a moment the atoms miss,
    or multiplicities that do not add up to n."""
    n, e = count, [1]
    c = math.factorial(n) * big_q
    mu = [n] + [math.factorial(n) ** k * x for k, x in enumerate(scaled, 1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** i * e[k - 1 - i] * mu[i + 1] for i in range(k)) // k)
    for k in range(n + 1, 2 * n):
        mu.append(sum((-1) ** (j - 1) * e[j] * mu[k - j] for j in range(1, n + 1)))
    num, den = RANK_TOL.as_integer_ratio()
    # the rows tau_(-1) = 0, tau_0 = mu, ..., and D_0..D_(k+1)
    tau, dets = [[0] * (2 * n), mu], [1, n]
    for k in range(n - 1):
        (prev, row), dk, dk1 = tau[-2:], dets[-2], dets[-1]
        tau.append([0] * (k + 1) + [(dk * (dk1 * row[l + 1] - row[k + 1] * row[l])
                                     + dk1 * (prev[k] * row[l] - dk1 * prev[l])) // dk**2
                                    for l in range(k + 1, 2 * n - k - 1)])
        dk2 = tau[-1][k + 1]
        if not any(tau[-1]) if exact else abs(dk2) * dk * n * den <= num * mu[2] * dk1**2:
            break
        if dk2 <= 0:
            raise NonrealRootsError(f"the power sums are not those of {n} real atoms")
        dets.append(dk2)
    r = len(dets) - 1
    lead = [dets[k] * dets[k + 1] * c for k in range(r)]
    diag = [tau[k + 1][k + 1] * dets[k] - tau[k][k] * dets[k + 1] for k in range(r)]
    # beta_k = D_(k+1) D_(k-1) / (D_k c)^2
    beta = [(dets[k + 1] * dets[k - 1], (dets[k] * c) ** 2) for k in range(1, r)]
    if r == n:
        # n distinct atoms of weight 1/n: the roots of sum_k (-1)^k e_k (c x)^(n-k)
        poly = [(-1) ** (n - j) * e[n - j] * c**j for j in range(n + 1)]
    else:
        # P_k = D_k c^k pi_k: P_(k+1) = ((L_k x - A_k) P_k - D_(k+1)^2 P_(k-1))
        # / D_k^2, exactly; read over their contents
        prev, poly = [0], [1]
        for k in range(r):
            ek, dk = dets[k + 1] ** 2, dets[k] ** 2
            prev, poly = poly, [(lead[k] * u - diag[k] * v - ek * w) // dk
                                for u, v, w in zip([0] + poly, poly + [0], prev + [0, 0])]
        prev, poly = _primitive(prev), _primitive(poly)
    # the float Jacobi matrix over 2^t, t such that its largest entry is
    # near 1: no entry leaves the float range
    t = max([a.bit_length() - l.bit_length() for a, l in zip(diag, lead)]
            + [(u.bit_length() - v.bit_length()) // 2 for u, v in beta])
    alpha = [_ratio(a, l, t) for a, l in zip(diag, lead)]
    off = [math.sqrt(_ratio(u, v, 2 * t)) for u, v in beta]
    guesses = []
    for x in _tridiagonal_eigenvalues(alpha, off):
        # the ordinal of x 2^t where both are normal, else near it
        o = _ordinal(x)
        guess = min(max(abs(o) + (t << 52), 0), _INF - 1) if o else 0
        guesses.append(guess if o > 0 else -guess)
    try:
        values = _float_roots(poly, guesses)
    except OverflowError:
        raise DomainError("atoms leave the float range") from None
    if r == n:
        return tuple(values), (1,) * n, all(x >= 0 for x in e)
    # each weight read at the atom narrowed to 2^-64 of its float spacing: at
    # the float itself, two atoms an ulp apart would take wrong weights
    weights = []
    for value in values:
        a, b = _refined(poly, value)
        den = _horner(prev, a, b) * _homogeneous(poly, a, b)[1]
        weights.append(Fraction(b ** (2 * r - 2), den) if den else 0)
    total = sum(weights)
    kept = [(x, mult) for x, w in zip(values, weights)
            if total > 0 and (mult := round(n * w / total)) > 0]
    if sum(mult for _, mult in kept) != n:
        raise NonrealRootsError(f"the power sums are not those of {n} real atoms")
    atoms, mults = zip(*kept)
    return atoms, mults, all(x >= 0 for x in e)


def _misfits(rebuilt: Sequence[float], target: Sequence[float]) -> tuple:
    """(misfits, fits): |r_k - t_k| / (1 + |t_k|) for each pair, and whether
    every one is at most MISFIT_TOL; a nan fails, where max() passes over it."""
    misfits = tuple(abs(r - t) / (1.0 + abs(t)) for r, t in zip(rebuilt, target))
    return misfits, all(x <= MISFIT_TOL for x in misfits)


def cw_recover_eigenvalues(r: MomentSeries, p: int, d: int) -> tuple:
    """Recover the spectrum of D from the compound Wishart cumulant series.

    The cumulants times d are the power sums of the spectrum: converted
    exactly and rescaled once to ints (``_rescaled``), ``_atoms`` reads it
    from the first p, with its repeats, ascending, as a tuple of floats (on
    exact input each the correctly rounded eigenvalue).  The series must fit: on
    rational input every gap above order p (``_recurrence_gaps``, homogeneous
    in the scale) is 0; on float input each rebuilt cumulant passes
    ``_misfits``, the rule of ``spn_recover``.  Otherwise
    NonrealRootsError, RecoveryFailedError or DomainError signal that ``r`` is
    not a compound Wishart cumulant series for (p, d).
    """
    _check_dimensions(p, d)
    if r.order < p:
        raise OrderTooSmallError(f"need at least {p} cumulants, got {r.order}")
    big_q, scaled = _rescaled(MomentSeries(r.coeffs, RATIONAL).coeffs)
    psums, exact = [d * x for x in scaled], r.scalar_kind == RATIONAL
    distinct, mults, _ = _atoms(psums[:p], big_q, p, exact)
    values = tuple(v for v, k in zip(distinct, mults) for _ in range(k))
    fits = (not any(_recurrence_gaps(psums, p)) if exact
            else _misfits(_power_means(values, d, r.order, FLOAT).coeffs, r.coeffs)[1])
    if not fits:
        raise RecoveryFailedError(f"not a compound Wishart series for (p={p}, d={d})")
    return values


def _translate(m: Sequence, shift) -> tuple:
    """Moments of the measure with moments ``m`` translated by ``shift``:
    coefficient n is sum_k C(n, k) shift^(n-k) m_k, with m_0 = 1.  As a
    point mass at ``shift`` adds to the first free cumulant only, this is
    mu(x + shift z) for m = mu(x).  The powers of ``shift`` are running
    products: a float power past the range is inf, where ``**`` raises."""
    moments, powers = (1,) + tuple(m), [1]
    for _ in m:
        powers.append(powers[-1] * shift)
    return tuple(
        sum(math.comb(n, k) * powers[n - k] * moments[k] for k in range(n + 1))
        for n in range(1, len(moments))
    )


def _spn_map(m: MomentSeries, lam, shift) -> tuple:
    """mu(lambda^-1 T_shift(lambda rho(m))), with T the translation
    ``_translate``, mu = moment_from_r and rho = r_transform.

    Boxed convolution by the kernel f_lambda = lambda^-1 Zeta(lambda z) is a
    scaling, X x f_lambda = lambda^-1 mu(lambda X), and so is its inverse,
    so a point mass at shift/lambda added to m deconv nu translates
    y = lambda rho(m) by ``shift``.
    """
    y = [lam * c for c in r_transform(m).coeffs]
    return _moments([(1 / lam) * c for c in _translate(y, shift)])


def spn_moments(model: SpnModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the signal-plus-noise limit spectrum: ``_spn_map``
    at sigma^2 on lambda rho(M[A*A]), one R-transform and one moment series.
    """
    lam = _coerce(model.aspect_ratio, kind)
    # convert before squaring: a float squared past its range raises
    a = [_coerce(v, kind) for v in model.singular_values]
    maa = atomic_moments([v * v for v in a], order, kind)
    sigma = _coerce(model.sigma, kind)
    return MomentSeries(_spn_map(maa, lam, sigma * sigma), kind)


def spn_decompose(m: MomentSeries, aspect) -> MomentSeries:
    """Deconvolve a signal-plus-noise moment series by the free Poisson kernel.

    Applied to ``spn_moments`` output this yields
    (M[A*A] deconv kernel) boxplus M[delta_{sigma^2/lambda}], the series from
    which the noise level separates as a pure first-cumulant shift:
    mu(lambda^-1 rho(lambda rho(m))).
    """
    lam = _aspect(aspect, m.scalar_kind)
    return moment_from_r(_times(1 / lam, r_transform(_times(lam, r_transform(m)))))


def _recurrence_gaps(psums: Sequence, d: int) -> list:
    # Power sums of d atoms obey the degree-d Newton recurrence set by the
    # first d; gap k = sum_{j=0..d} (-1)^j e_j p_{k-j} is how far p_k misses
    # it.  This gives d! g_k, k = d+1..N, from E_k = k! e_k, which Newton's
    # identities give without division:
    # E_k = sum_i (-1)^(i-1) (k-1)!/(k-i)! E_{k-i} p_i.
    e = [1]
    for k in range(1, d + 1):
        e.append(sum((-1) ** (i - 1) * math.perm(k - 1, i - 1) * e[k - i]
                     * psums[i - 1] for i in range(1, k + 1)))
    return [sum((-1) ** j * math.perm(d, d - j) * e[j] * psums[k - j - 1]
                for j in range(d + 1)) for k in range(d + 1, len(psums) + 1)]


def _gap_polys(cumulants: Sequence, d: int, order: int) -> list:
    """The int polynomials d! g_k(u), k = d+1..order, of the cumulant rows of
    ``_candidate_rows``, coefficients lowest power first, k + 1 of them: one
    evaluation at u = 2^B (Kronecker substitution; von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4).  The scalar ``_moments`` and
    ``_recurrence_gaps`` on the rows' values give d! g_k(2^B), whose balanced
    base-2^B digits are the coefficients while each is below 2^(B-1) in size.
    ``_moments``, which only adds and multiplies, on the rows' l1 norms bounds
    ||M_n||_1; ``_recurrence_gaps`` on the power sums (-1)^(i-1) d ||M_i||_1
    gives every term of Newton's identities one sign, so its results bound
    ||d! g_k||_1, and B is one bit more than their largest size needs."""
    rows = cumulants[:order]
    norms = _moments([sum(map(abs, row)) for row in rows])
    bound = _recurrence_gaps([(-1) ** i * d * x for i, x in enumerate(norms)], d)
    bits = max(map(abs, bound), default=0).bit_length() + 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    values = _moments([sum(c << bits * i for i, c in enumerate(row)) for row in rows])
    polys = []
    for k, x in enumerate(_recurrence_gaps([d * c for c in values], d), start=d + 1):
        digits = []
        while x:
            digits.append(((x + half) & mask) - half)
            x = (x - digits[-1]) >> bits
        polys.append(digits + [0] * (k + 1 - len(digits)))
    return polys


def _rescaled(exact: Sequence) -> tuple:
    """(Q, M) with every M_n = Q^n m_n an int: Q <- Q den(Q^n m_n), n = 1..N."""
    big_q = 1
    for n, c in enumerate(exact, start=1):
        big_q *= c.denominator // math.gcd(big_q**n, c.denominator)
    return big_q, [c.numerator * (big_q**n // c.denominator)
                   for n, c in enumerate(exact, start=1)]


def _candidate_rows(exact: Sequence, p: int, d: int) -> tuple:
    """(Q, rows): with M_n = Q^n m_n ints (``_rescaled``), so are R = rho(M)
    and, in u = Q s / d, the candidate cumulants at -s, the int polynomials
    Q^n c_n(s) = T_{-d u}(R)_n + (p - d) d^(n-1) (-u)^n: coefficient i is
    C(n, i) (-d)^i R_(n-i), plus (p - d) d^(n-1) (-1)^n at i = n.  Their
    moments are Q^n cand_n(s), and d! times their gaps, ``_gap_polys``, are
    Q^k d! g_k(s)."""
    big_q, scaled = _rescaled(exact)
    r = (1,) + _cumulants(scaled)
    return big_q, [[math.comb(n, i) * (-d) ** i * r[n - i] for i in range(n)]
                   + [p * (-1) ** n * d ** (n - 1)] for n in range(1, len(r))]


def _trimmed(a: Sequence[int]) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: list) -> list:
    """a over its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    return [x // (c if a[-1] > 0 else -c) for x in a]


def _pseudo_divide(a: list, b: list) -> tuple:
    """(q, r) with lc(b)^k a = q b + r and deg r < deg b, for int
    polynomials a and b != 0, coefficients lowest power first and no
    trailing zeros: each step clears the leading term of a."""
    lead, top = b[-1], len(b) - 1
    q = [0] * max(len(a) - top, 0)
    while len(a) > top:
        c, shift = a[-1], len(a) - 1 - top
        a = [x * lead for x in a]
        q = [x * lead for x in q]
        q[shift] += c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a = _trimmed(a)
    return q, a


def _sturm(a: list, b: list | None = None) -> list:
    """a, b (by default a'; b != 0, deg b <= deg a) and their negated
    pseudo-remainders over their contents, down to a constant or a multiple
    of gcd(a, b) (Brown, J. ACM 18, 1971).  Each divisor is taken with a
    positive leading coefficient, so every sign is kept: from square-free a,
    this is the Sturm sequence of a."""
    seq = [a, [i * c for i, c in enumerate(a)][1:] if b is None else b]
    while len(seq[-1]) > 1:
        b = seq[-1]
        rem = _pseudo_divide(seq[-2], b if b[-1] > 0 else [-x for x in b])[1]
        if not rem:
            break
        content = math.gcd(*rem)
        seq.append([-x // content for x in rem])
    return seq


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """The primitive gcd over Z of two int polynomials, coefficients lowest
    power first, with a positive leading coefficient; [] when both are 0:
    the last of their ``_sturm`` sequence, over its content."""
    a, b = sorted((_trimmed(a), _trimmed(b)), key=len, reverse=True)
    if not b:
        return _primitive(a) if a else []
    return _primitive(_sturm(_primitive(a), _primitive(b))[-1])


def _variations(seq: list, a: int, b: int) -> int:
    """The sign changes of the polynomials ``seq`` at a/b, b > 0, zeros
    dropped."""
    signs = [v > 0 for p in seq if (v := _horner(p, a, b))]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _isolated_roots(g: list) -> tuple:
    """(h, intervals): the square-free part h = g / gcd(g, g') of the int
    polynomial g of degree >= 1, primitive, and intervals (lo, hi], one per
    root > 0 of h and holding no other: bisection of (0, B] by Sturm's
    theorem, B = 2^t above every |root| (Fujiwara's bound, in bit lengths).
    For square-free g, g's Sturm sequence is h's times factors of one sign."""
    seq = _sturm(g)
    h = _primitive(_pseudo_divide(g, seq[-1])[0])
    seq = seq if len(seq[-1]) == 1 else _sturm(h)
    top = len(h) - 1
    t = 1 + max([0] + [-((h[top].bit_length() - h[top - i].bit_length() - 1) // i)
                       for i in range(1, top + 1) if h[top - i]])
    # each end with its count: a dict keyed by the ends would probe long
    # chains, as the hash of 1/2^k repeats with period 61 in k
    stack = [(Fraction(0), _variations(seq, 0, 1), Fraction(2**t), _variations(seq, 2**t, 1))]
    isolated = []
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            isolated.append((lo, hi))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _variations(seq, *mid.as_integer_ratio())
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return h, isolated


def _float_root(h: list, lo: Fraction, hi: Fraction) -> Fraction:
    """x = 2^t v in [lo, hi], v a float, near the root of the int polynomial h
    that (lo, hi] isolates: Newton's method in floats from the midpoint on
    h(2^t v), 2^t near hi and coefficients scaled to at most 1, clamped."""
    t = hi.numerator.bit_length() - hi.denominator.bit_length()
    top = max(c.bit_length() + t * i for i, c in enumerate(h))
    scaled = [_ratio(c, 1, top - t * i) for i, c in enumerate(h)][::-1]
    v, v_lo, v_hi = (_ratio(*x.as_integer_ratio(), t) for x in ((lo + hi) / 2, lo, hi))
    for _ in range(100):
        val = slope = 0.0
        for c in scaled:
            val, slope = val * v + c, slope * v + val
        if (w := min(max(v - val / slope, v_lo), v_hi) if slope else v) == v:
            break
        v = w
    return Fraction(v) * Fraction(2) ** t


def _cell(h: list, lo: Fraction, hi: Fraction, bits: int) -> tuple:
    """(X, Y, 2^P), P = bits, or more where the grid 2^-P would not hold lo
    and hi: the root of the int polynomial h in (lo, hi], which holds
    exactly one, simple, is X/2^P = Y/2^P, or in (X/2^P, Y/2^P) with
    Y = X + 1.  A root at hi is read there; else ``_narrowed`` from
    ``_float_root`` on h or -h, whichever is > 0 at hi, finds it.  With h of
    one sign on (lo, hi], the cell is the one above lo."""
    one = 1 << max(bits, lo.denominator.bit_length(), hi.denominator.bit_length())
    x_lo, x_hi = int(lo * one), int(hi * one)
    if not (s_hi := _horner(h, *hi.as_integer_ratio())):
        return x_hi, x_hi, one
    cell = _narrowed(h if s_hi > 0 else [-x for x in h], x_lo, x_hi, one,
                     math.floor(_float_root(h, lo, hi) * one))
    return *cell, one


def _rational_root(h: list, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The root of the primitive int polynomial h in (lo, hi], which holds
    exactly one, simple, if it is rational; else None.  A rational root of h
    in lowest terms has its denominator dividing c = lc(h), so it is the
    candidate k / c nearest to it.  An exact ``_cell`` is the root; else on
    a grid 2^-P with 2^P > 4c, c times the cell's centre is within 1/8 of c
    times the root, so rounded it gives the one candidate to check exactly."""
    lead = h[-1]
    a, b, one = _cell(h, lo, hi, lead.bit_length() + 2)
    if a == b:
        return Fraction(a, one)
    root = Fraction((lead * (a + b) + one) // (2 * one), lead)
    return root if lo < root <= hi and not _horner(h, *root.as_integer_ratio()) else None


def _gcd_roots(rows: Sequence) -> list:
    """The distinct rational roots r >= 0 of the primitive gcd g over Z of
    the int polynomials ``rows``, in recovery the gap polynomials in u of
    ``_candidate_rows``: -g_0 / g_1 when g is linear, with no isolation;
    else those of its square-free part h = g / gcd(g, g'), exactly
    -h_0 / h_1 when h has degree 1, and otherwise 0 if h_0 = 0 and each
    positive root that ``_rational_root`` finds in its interval of
    ``_isolated_roots``.  There are none when every row is 0 or g has
    degree 0."""
    g = []
    for row in rows:
        g = _int_gcd(g, row)
        if len(g) == 1:
            return []
    if not g:
        return []
    if len(g) == 2:
        root = Fraction(-g[0], g[1])
        return [root] if root >= 0 else []
    h, intervals = _isolated_roots(g)
    if len(h) == 2:
        roots = [Fraction(-h[0], h[1])]
    else:
        roots = [Fraction(0)] * (not h[0]) + [
            _rational_root(h, lo, hi) for lo, hi in intervals]
    return sorted({r for r in roots if r is not None and r >= 0})


def _round53(w: Fraction) -> Fraction:
    """w > 0 rounded to 53 significant bits as float(w), which it equals where
    that is normal, but with no bound on the exponent: never 0."""
    scale = Fraction(2) ** (w.denominator.bit_length() - w.numerator.bit_length())
    return Fraction(float(w * scale)) / scale


def _candidate(cumulants: Sequence, big_q: int, u: Fraction) -> tuple:
    """(M, t): the candidate moments at the noise level s = d u / Q as the
    ints M_k = t^k cand_k(s) and their scale t.  At u = n/b the cumulant rows
    of ``_candidate_rows`` give the ints b^k Q^k c_k, and the scalar
    recursions t^k times the moments, t = b Q."""
    n, b = u.as_integer_ratio()
    return _moments([_horner(row, n, b) for row in cumulants]), b * big_q


def _noise_level_candidates(m: MomentSeries, p: int, d: int) -> tuple:
    """(trace, winner): the candidates (s, D(s)), one per distinct s, and the
    winner (s, its ``_candidate`` ints and scale, their ``_atoms`` reading, s
    if exact), or None; see ``spn_recover``.  ``_candidate`` reads every s at
    u = Q s / d.  The exact roots, s = d r / Q for the roots r in u of the
    gap polynomials of orders d+1 and d+2, need ``_gap_polys`` to order d+2;
    only when none wins does the polish read them to order N.  Its seeds are
    s = 0 and s = d u / Q, clipped to lambda m_1, at the roots u > 0 of the
    lowest nonzero gap and of its derivative, whose roots stand in for the
    real parts of near-real complex pairs: each is read by ``_float_root`` in
    its interval of ``_isolated_roots``."""
    exact = MomentSeries(m.coeffs, RATIONAL).coeffs
    big_q, cumulants = _candidate_rows(exact, p, d)

    def reading(candidate, exactly: bool):
        # the ``_atoms`` reading of the first d moments if it is real and, on
        # exact input, has no negative atom
        moments, scale = candidate
        try:
            atoms = _atoms([d * x for x in moments[:d]], scale, d, exactly)
        except NonrealRootsError:
            return None
        return atoms if atoms[2] or not exactly else None

    # a root stands if every gap vanishes there, so D = 0; the first whose
    # exact reading has no negative atom wins outright
    trace, winner = {}, None
    for r in _gcd_roots(_gap_polys(cumulants, d, d + 2)):
        candidate = _candidate(cumulants, big_q, r)
        if not any(_recurrence_gaps([d * x for x in candidate[0]], d)):
            s = d * r / big_q
            trace[float(s)] = 0.0
            if winner is None and (atoms := reading(candidate, True)):
                winner = float(s), candidate, atoms, s
    if winner:
        return list(trace.items()), winner
    roots = len(trace)
    # padded to degree N, the gap polynomial of order k at u = Q n / (d b)
    # reads (d b)^N Q^k d! g_k(n/b) and its slope (d b)^N Q^(k-1) d! g_k'(n/b)
    # / b; the weights w_k Q^(2(N-k)) put every order over one denominator
    order = len(cumulants)
    polys = [poly + [0] * (order + 1 - len(poly)) for poly in _gap_polys(cumulants, d, order)]
    weights = [_round53(1 / (1 + (d * c) ** 2)) for c in exact[d:]]
    wq = max(w.denominator for w in weights)  # powers of two
    weights = [w.numerator * (wq // w.denominator) * big_q ** (2 * (order - k))
               for k, w in enumerate(weights, start=d + 1)]
    q = math.factorial(d) * (big_q * d) ** order

    def defect(s: float) -> tuple:
        # D(s) exactly, as (numerator, denominator), and the Gauss-Newton
        # iterate from s, rounded once
        n, b = s.as_integer_ratio()
        gaps, slopes = zip(*(_homogeneous(poly, big_q * n, d * b) for poly in polys))
        value = sum(w * g * g for w, g in zip(weights, gaps)), wq * (q * b**order) ** 2
        curvature = sum(w * t * t for w, t in zip(weights, slopes))
        pull = sum(w * g * t for w, g, t in zip(weights, gaps, slopes))
        # s - pull / (b Q curvature) over one denominator
        trial = (n * big_q * curvature - pull) / (b * big_q * curvature) if curvature else s
        return value, max(trial, 0.0)

    def polish(s: float) -> tuple:
        value, trial = defect(s)
        for _ in range(POLISH_MAX_STEPS):
            if trial == s:
                break
            trial_value, next_trial = defect(trial)
            if trial_value[0] * value[1] >= value[0] * trial_value[1]:
                break
            s, value, trial = trial, trial_value, next_trial
        return s, value[0] / value[1]

    lowest = _trimmed(next((poly for poly in polys if any(poly)), []))
    s_hi = max(Fraction(d, p) * exact[0], 0)
    seeds = [0.0]
    for g in (lowest, [i * c for i, c in enumerate(lowest)][1:]):  # and its derivative
        if len(g) > 1:
            h, intervals = _isolated_roots(g)
            seeds += [float(min(d * _float_root(h, lo, hi) / big_q, s_hi))
                      for lo, hi in intervals]
    for seed in dict.fromkeys(seeds):
        trace.setdefault(*polish(seed))
    # the least D among the polished whose reading is real wins
    for s in sorted(list(trace)[roots:], key=trace.get):
        candidate = _candidate(cumulants, big_q, Fraction(s) * big_q / d)
        if atoms := reading(candidate, False):
            return list(trace.items()), (s, candidate, atoms, None)
    return list(trace.items()), None


def spn_recover(m: MomentSeries, p: int, d: int) -> RecoveryReport:
    """Recover (sigma^2, spectrum of A*A) from a signal-plus-noise moment series.

    The map of ``spn_moments`` with the opposite shift, mu(lambda^-1 T_{-s}(y))
    on y = lambda rho(m), gives a candidate M[A*A] whose coefficient n is a
    polynomial of degree n in the noise level s, and the Newton recurrence on
    it the gaps g_k, k = d+1..N (``_candidate_rows``): int polynomials in
    u = Q s / d, read from one integer evaluation at u = 2^B (``_gap_polys``).
    They vanish together at the true s, so on exact input it is d r / Q for a
    root r of the gcd over Z of g_(d+1) and g_(d+2) in u; order d+1 alone
    does not identify: the square-free part of g_5 of
    SpnModel(5, 4, (5/4, 5/4, 1/2, 1), 9/4) has a second root s ~ 5.055243
    with real, nonnegative atoms.  ``_candidate`` reads any s, a root or a
    float, exactly: the candidate moments, and at a root whether every gap is
    0, as ints over one scale that ``_atoms`` reads as they are.  Each
    rational root r >= 0 (``_gcd_roots``) at which every gap is 0 gives a
    candidate s with D(s) = 0, read exactly by ``_atoms``: the first whose
    atoms are real and none negative wins outright, and ``sigma_sq_exact``
    reports it.  Otherwise the gap polynomials in u to order N, from one
    evaluation, give D(s) = sum_k w_k g_k(s)^2, w_k = 1/(1 + (d m_k)^2)
    rounded once to 53 bits, exactly at each float s: s = 0 and the roots
    s > 0 of the lowest nonzero gap and of its derivative (for the real parts
    of near-real complex pairs), each isolated by Sturm sequences and read by
    Newton's method in floats, clipped to lambda*m_1, seed a Gauss-Newton
    polish of D, stepped only downhill.  In order of D, each polished s is
    read by ``_atoms`` under its rank rule; the first with real atoms wins,
    its negative atoms clipped to 0.  ``search_trace`` lists each distinct
    candidate once, as (s, D), the exact roots first.  The fit is the same
    map at the winning s, forward, on lambda rho of the atoms' moments.
    RecoveryFailedError signals that no candidate reads as real atoms, that
    the fit misses an order k = d+1..N by more than MISFIT_TOL
    (``_misfits``), or that the candidates leave the float range: m is not a
    signal-plus-noise series.  The misfit rule is the only one: with P = N - d <= 5000 orders
    it implies sum_k (r_k - m_k)^2 <= 2e-8*(P + sum_k m_k^2) <=
    1e-4*(1 + |m|^2), so no sum-of-squares test could decide more.
    """
    _check_dimensions(p, d, tall=True)
    if m.order < d + 2:
        raise OrderTooSmallError(f"need order >= d+2 = {d + 2} to recover, got {m.order}")
    target = m.as_float()
    not_spn = f"input is not a signal-plus-noise moment series for (p={p}, d={d})"
    try:
        trace, winner = _noise_level_candidates(m, p, d)
        if winner is None:
            raise RecoveryFailedError(f"no real candidate; {not_spn}", residual=math.inf)
        s_best, (moments, scale), (values, mults, _), s_exact = winner
        # int / int is correctly rounded, and raises past the float range
        maa = MomentSeries(tuple(x / scale**k for k, x in enumerate(moments, start=1)), FLOAT)
        atoms = tuple(max(0.0, a) for a, k in zip(values, mults) for _ in range(k))
        rebuilt = _spn_map(atomic_moments(atoms, m.order, FLOAT), d / p, s_best)[d:]
    except (OverflowError, DomainError):
        raise RecoveryFailedError(f"candidates leave the float range; {not_spn}",
                                  residual=math.inf) from None
    final_residual = sum((r - t) * (r - t) for r, t in zip(rebuilt, target.coeffs[d:]))
    misfits, fits = _misfits(rebuilt, target.coeffs[d:])
    if not fits:
        raise RecoveryFailedError(f"best residual {final_residual:.3e} (worst relative "
                                  f"misfit {max(misfits):.3e}) exceeds tolerance; {not_spn}",
                                  residual=final_residual)
    return RecoveryReport(s_best, maa, atoms, final_residual, tuple(trace), misfits,
                          s_exact, mults)


def verify_identifiability(
    model_a: SpnModel, model_b: SpnModel, order: int
) -> IdentifiabilityReport:
    """Exact coefficientwise comparison of two signal-plus-noise moment series.

    The series agree iff the models share the multiset of squared singular
    values and the value of sigma^2; otherwise the report pinpoints the
    first divergent coefficient.
    """
    if (model_a.p, model_a.d) != (model_b.p, model_b.d):
        raise DimensionMismatchError(
            f"models have different dimensions: "
            f"({model_a.p},{model_a.d}) vs ({model_b.p},{model_b.d})"
        )
    ma = spn_moments(model_a, order, RATIONAL)
    mb = spn_moments(model_b, order, RATIONAL)
    for n, (ca, cb) in enumerate(zip(ma.coeffs, mb.coeffs), start=1):
        if ca != cb:
            return IdentifiabilityReport(False, n, ca, cb)
    return IdentifiabilityReport(True, None)
