"""Truncated power series without constant term and their free-probability algebra.

A :class:`MomentSeries` holds coefficients c_1..c_N of a formal power series
f(z) = sum c_n z^n, over one of two scalar backends: exact rationals
(``fractions.Fraction``, no rounding ever) or binary floats.  On top of it
sit the transforms of free probability:

* boxed convolution  (f x g)_m = sum over non-crossing partitions pi of
  NC(m) of prod f_{|V|} over blocks V of pi times prod g_{|W|} over blocks
  W of the Kreweras complement of pi;
* the R-transform R_f = f boxed-conv Zeta^{-1}, whose coefficients are the
  free cumulants of the measure with moment series f;
* free additive convolution, R_{f boxplus g} = R_f + R_g;
* free multiplicative deconvolution, the unique h with R_f = R_g x R_h.

The sums over NC(m) define boxed convolution but are never formed: each
transform solves a functional equation column by column (formal
subordination, or M(z) = R(z(1 + M(z)))) in O(N^3), on both backends alike.
Every identity holds modulo z^{N+1}; truncation order is fixed per series.
Coefficients follow the rule of model values: an int, a Fraction, a finite
float or a numpy number (numpy integers read as Python ints).  A string, a
bool, NaN, an infinity or a complex number is a DomainError, as every
spectral model in scope produces real moment data; only ``from_dict`` reads
JSON's "p/q".
"""

from __future__ import annotations

import math
import numbers
from decimal import Decimal
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import (
    BackendMismatchError,
    DomainError,
    NotInvertibleError,
    OrderMismatchError,
    require_int,
)

RATIONAL = "rational"
FLOAT = "float"

FLOAT_INVERT_TOL = 1e-12


def _coerce(value, kind, module: str = "series"):
    """``value``, a real number by ``_real``, as a coefficient of backend ``kind``."""
    value = _real(value, module)
    if kind == RATIONAL:
        return value if type(value) is Fraction else Fraction(value)
    try:
        return float(value)
    except OverflowError:
        raise DomainError("a coefficient is out of the float range", module=module) from None


def format_rational(value: Fraction) -> str:
    """"p/q" through ``decimal``, which has no cap on the digits of an int."""
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def parse_scalar(value, module: str = "series"):
    """A real number by ``_real``, or a rational "p/q" from JSON, whose sides
    are read exactly and without a digit cap by ``decimal``."""
    if not isinstance(value, str):
        return _real(value, module)
    num, slash, den = value.partition("/")
    try:
        return Fraction(Decimal(num)) / Fraction(Decimal(den if slash else 1))
    except (ValueError, ArithmeticError):
        raise DomainError(
            f"not a finite rational number: {value!r}", module=module
        ) from None


def _real(value, module: str):
    """A real number as an int, a Fraction or a float: an exact rational
    (int, Fraction, numpy integer) or a finite float.  Booleans are not
    numbers here, nor are strings: only JSON writes rationals, as "p/q",
    and ``parse_scalar`` reads them."""
    if type(value) in (int, Fraction):
        return value
    # other types by their ABCs: a numpy integer wraps around in exact
    # arithmetic, so it is read as an int; exact rationals may lie beyond
    # the float range, so only floats are tested for finiteness
    if (type(value) is not float and not isinstance(value, bool)
            and isinstance(value, numbers.Real)):
        if isinstance(value, numbers.Rational):
            n, d = int(value.numerator), int(value.denominator)
            return n if d == 1 else Fraction(n, d)
        value = float(value)
    if type(value) is float and math.isfinite(value):
        return value
    raise DomainError(f"not a finite number: {value!r}", module=module)


class MomentSeries(Record):
    """Coefficients c_1..c_N of a constant-free power series, order N >= 1."""

    __slots__ = ("coeffs", "scalar_kind")

    def __init__(self, coeffs: tuple, scalar_kind: str = RATIONAL):
        if scalar_kind not in (RATIONAL, FLOAT):
            raise DomainError(f"unknown scalar backend {scalar_kind!r}", module="series")
        coeffs = tuple(_coerce(c, scalar_kind) for c in coeffs)
        if not coeffs:
            raise OrderMismatchError("a series needs at least one coefficient")
        self._init(coeffs, scalar_kind)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int):
        """c_n, indexed from 1."""
        return self.coeffs[n - 1]

    def as_float(self) -> "MomentSeries":
        if self.scalar_kind == FLOAT:
            return self
        return MomentSeries(self.coeffs, FLOAT)

    def to_dict(self) -> dict:
        if self.scalar_kind == RATIONAL:
            coeffs = [format_rational(c) for c in self.coeffs]
        else:
            coeffs = list(self.coeffs)
        return {"order": self.order, "coeffs": coeffs, "scalar": self.scalar_kind}

    @classmethod
    def from_dict(cls, data: dict) -> "MomentSeries":
        if not isinstance(data, dict) or "coeffs" not in data or "scalar" not in data:
            raise DomainError(
                'a series must be a JSON object with "coeffs" and "scalar"',
                module="series",
            )
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):
            raise DomainError(f"coeffs must be a list, got {coeffs!r}", module="series")
        order = data.get("order", len(coeffs))
        if isinstance(order, bool) or order != len(coeffs):
            raise OrderMismatchError(
                f"declared order {order!r} but {len(coeffs)} coefficients"
            )
        return cls(tuple(parse_scalar(c) for c in coeffs), data["scalar"])


def _check_compatible(f: MomentSeries, g: MomentSeries) -> None:
    if f.order != g.order:
        raise OrderMismatchError(f"orders differ: {f.order} vs {g.order}")
    if f.scalar_kind != g.scalar_kind:
        raise BackendMismatchError(
            f"scalar backends differ: {f.scalar_kind} vs {g.scalar_kind}"
        )


def delta_series(order: int, kind: str = RATIONAL) -> MomentSeries:
    """Delta(z) = z, the unit of boxed convolution."""
    require_int(order, "order", "series")
    return MomentSeries((1,) + (0,) * (order - 1), kind)


def zeta_series(order: int, kind: str = RATIONAL) -> MomentSeries:
    """Zeta(z) = z + z^2 + ..., all coefficients one."""
    require_int(order, "order", "series")
    return MomentSeries((1,) * order, kind)


def _invertible_first(f: MomentSeries):
    c1 = f.coeffs[0]
    if f.scalar_kind == RATIONAL:
        if c1 == 0:
            raise NotInvertibleError("first coefficient is zero")
    elif abs(c1) <= FLOAT_INVERT_TOL:
        raise NotInvertibleError(
            f"first coefficient {c1!r} below invertibility tolerance {FLOAT_INVERT_TOL}"
        )


def _at(x, y, j):
    """Coefficient j of the product of two series given constant term first,
    each to at least coefficient j: the products stop at y's."""
    return sum(map(mul, x, y[j::-1]))


class _Powers:
    """rows[k][i] = [z^i] W^k for k = 0..count and i <= count - k, where W is
    a series with constant term whose coefficients arrive one at a time, in
    any commutative ring with unit ``1`` and zero ``0``, the plain ints:
    Fraction or float."""

    def __init__(self, count: int, w=()):
        self.count, self.w = count, []
        self.rows = [[1] + [0] * count] + [[] for _ in range(count)]
        for c in w:
            self.push(c)

    def push(self, c) -> None:
        self.w.append(c)
        i = len(self.w) - 1
        for k in range(1, self.count - i + 1):
            self.rows[k].append(_at(self.w, self.rows[k - 1], i))

    def compose(self, h, m):
        """[z^m] h(zW) for h(x) = sum_k h[k] x^k, k < len(h)."""
        return sum(h[k] * self.rows[k][m - k] for k in range(min(m + 1, len(h))))


def _right_inverse(a, w) -> list:
    """Coefficients of h with h(zW) = A, for W known and W_0 != 0: h_m
    enters the order-m equation only as h_m W_0^m."""
    powers, h = _Powers(len(a), w), [0]
    for m, c in enumerate(a, start=1):
        h.append((c - powers.compose(h, m)) / w[0] ** m)
    return h[1:]


# Boxed convolution by formal subordination.  With A the moment series of
# f x g (the series with R-transform f x g),
#     A = f(zU) = g(zV),  U = (1 + A) g(zV)/(zV),  V = (1 + A) f(zU)/(zU),
# Biane's subordination for the product of free variables written in
# R-transforms.  Coefficient j of U and V needs A up to z^j and U, V below j,
# and coefficient j + 1 of A needs U up to j, so all solve column by column.


def _forward(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """A from f and g."""
    n = f.order
    pu, pv = _Powers(n), _Powers(n)
    a1, fq, gq = [1], [], []  # 1 + A, f(zU)/(zU), g(zV)/(zV)
    for j in range(n):
        fq.append(pu.compose(f.coeffs, j))
        gq.append(pv.compose(g.coeffs, j))
        pu.push(_at(a1, gq, j))
        pv.push(_at(a1, fq, j))
        a1.append(_at(pu.w, fq, j))
    return MomentSeries(tuple(a1[1:]), f.scalar_kind)


def _backward(a: MomentSeries, g: MomentSeries) -> MomentSeries:
    """f from A and g; divides by g_1 only."""
    n, g1 = a.order, g.coeffs[0]
    pv, gq = _Powers(n), []
    for j in range(n):
        gq.append(pv.compose(g.coeffs, j))
        # a_{j+1} = [z^j] V g(zV)/(zV), where V_j enters only as V_j g_1
        pv.push((a.coeffs[j] - _at(gq[1:], pv.w, j - 1)) / g1)
    a1 = (1,) + a.coeffs
    u = [_at(a1, gq, j) for j in range(n)]  # U_0 = g_1
    return MomentSeries(tuple(_right_inverse(a.coeffs, u)), a.scalar_kind)


def boxed_conv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Boxed convolution of two series of the same order and backend.

    Coefficient m is, by definition, the sum over all non-crossing
    partitions of {1..m} of the product of f-coefficients along the
    partition's block sizes with the product of g-coefficients along its
    Kreweras complement.  It is computed as the R-transform of the moment
    series A solved from the formal subordination system above, in O(N^3)
    operations for any first coefficients.  Associative and commutative,
    with unit ``delta_series``.
    """
    _check_compatible(f, g)
    return r_transform(_forward(f, g))


def boxed_inverse(f: MomentSeries) -> MomentSeries:
    """Inverse of f under boxed convolution; requires c_1 != 0.

    The inverse h has f x h = Delta, whose moment series is Zeta, so h is
    the backward subordination solve with A = Zeta and g = f.
    """
    _invertible_first(f)
    return _backward(zeta_series(f.order, f.scalar_kind), f)


def r_transform(f: MomentSeries) -> MomentSeries:
    """R_f = f boxed-conv Zeta^{-1}; coefficients are free cumulants of f.

    Solved from R(z(1 + M(z))) = M(z) coefficient by coefficient.
    """
    return MomentSeries(_cumulants(f.coeffs), f.scalar_kind)


def moment_from_r(r: MomentSeries) -> MomentSeries:
    """Moment series with free-cumulant series ``r``: the inverse of r_transform."""
    return MomentSeries(_moments(r.coeffs), r.scalar_kind)


def _cumulants(m) -> tuple:
    """Free cumulants from moments m_1..m_N: the right inverse with
    W = 1 + M, whose W_0 = 1 divides nothing, so ints stay ints."""
    w, h = _Powers(len(m), (1,) + tuple(m[:-1])), [0]
    for n, c in enumerate(m, start=1):
        h.append(c - w.compose(h, n))
    return tuple(h[1:])


def _moments(r) -> tuple:
    """Moments from free cumulants r_1..r_N over any ring of ``_Powers``, from
    M(z) = R(z(1 + M(z))) coefficient by coefficient: M_m needs M below m."""
    w, h = _Powers(len(r), [1]), (0,) + tuple(r)
    for m in range(1, len(r) + 1):
        w.push(w.compose(h, m))
    return tuple(w.w[1:])


def free_add_conv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Free additive convolution: the series with R-transform R_f + R_g."""
    _check_compatible(f, g)
    rf, rg = r_transform(f), r_transform(g)
    summed = tuple(a + b for a, b in zip(rf.coeffs, rg.coeffs))
    return moment_from_r(MomentSeries(summed, f.scalar_kind))


def free_mult_deconv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Free multiplicative deconvolution: the unique h with R_f = R_g x R_h.

    Requires g invertible under boxed convolution (first coefficient
    nonzero).  R_h is the backward subordination solve with A = f and R_g.
    """
    _check_compatible(f, g)
    _invertible_first(g)
    return moment_from_r(_backward(f, r_transform(g)))


def scale_argument(f: MomentSeries, beta) -> MomentSeries:
    """Series of z -> f(beta z): coefficient n becomes beta^n c_n."""
    b = _coerce(beta, f.scalar_kind)
    out = []
    power = 1
    for c in f.coeffs:
        power = power * b
        out.append(power * c)
    return MomentSeries(tuple(out), f.scalar_kind)
