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

Every identity holds modulo z^{N+1}; truncation order is fixed per series.
Coefficients are real (or exact rational): complex scalars are rejected,
since every spectral model in scope produces real moment data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BackendMismatchError,
    DomainError,
    NotInvertibleError,
    OrderMismatchError,
)
from .ncpart import convolution_profiles

RATIONAL = "rational"
FLOAT = "float"

FLOAT_INVERT_TOL = 1e-12


def _coerce(value, kind):
    if kind == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise DomainError(f"not a finite number: {value!r}", module="series")
            return Fraction(value)
        raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")
    if kind == FLOAT:
        try:
            return float(value)
        except OverflowError:
            raise DomainError(
                "a coefficient is out of the float range", module="series"
            ) from None
    raise ValueError(f"unknown scalar backend {kind!r}")


def parse_scalar(value, module: str = "series"):
    """A real number from JSON: an integer, a finite float or a rational "p/q"."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(
                f"not a finite rational number: {value!r}", module=module
            ) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise DomainError(f"not a finite number: {value!r}", module=module)


@dataclass(frozen=True)
class MomentSeries:
    """Coefficients c_1..c_N of a constant-free power series, order N >= 1."""

    coeffs: tuple
    scalar_kind: str = RATIONAL

    def __post_init__(self):
        coeffs = tuple(_coerce(c, self.scalar_kind) for c in self.coeffs)
        if not coeffs:
            raise OrderMismatchError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

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
            coeffs = [f"{c.numerator}/{c.denominator}" for c in self.coeffs]
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
        kind = data["scalar"]
        if kind not in (RATIONAL, FLOAT):
            raise DomainError(f"unknown scalar backend {kind!r}", module="series")
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):
            raise DomainError(f"coeffs must be a list, got {coeffs!r}", module="series")
        if "order" in data and data["order"] != len(coeffs):
            raise OrderMismatchError(
                f"declared order {data['order']} but {len(coeffs)} coefficients"
            )
        return cls(tuple(parse_scalar(c) for c in coeffs), kind)


def _unit(kind):
    return Fraction(1) if kind == RATIONAL else 1.0


def _zero(kind):
    return Fraction(0) if kind == RATIONAL else 0.0


def _check_compatible(f: MomentSeries, g: MomentSeries) -> None:
    if f.order != g.order:
        raise OrderMismatchError(f"orders differ: {f.order} vs {g.order}")
    if f.scalar_kind != g.scalar_kind:
        raise BackendMismatchError(
            f"scalar backends differ: {f.scalar_kind} vs {g.scalar_kind}"
        )


def delta_series(order: int, kind: str = RATIONAL) -> MomentSeries:
    """Delta(z) = z, the unit of boxed convolution."""
    one, zero = _unit(kind), _zero(kind)
    return MomentSeries((one,) + (zero,) * (order - 1), kind)


def zeta_series(order: int, kind: str = RATIONAL) -> MomentSeries:
    """Zeta(z) = z + z^2 + ..., all coefficients one."""
    one = _unit(kind)
    return MomentSeries((one,) * order, kind)


def _invertible_first(f: MomentSeries):
    c1 = f.coeffs[0]
    if f.scalar_kind == RATIONAL:
        if c1 == 0:
            raise NotInvertibleError("first coefficient is zero")
    elif abs(c1) <= FLOAT_INVERT_TOL:
        raise NotInvertibleError(
            f"first coefficient {c1!r} below invertibility tolerance {FLOAT_INVERT_TOL}"
        )
    return c1


def boxed_conv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Boxed convolution of two series of the same order and backend.

    Coefficient m sums, over all non-crossing partitions of {1..m}, the
    product of f-coefficients along the partition's block sizes with the
    product of g-coefficients along its Kreweras complement.  Associative
    and commutative, with unit ``delta_series``.
    """
    _check_compatible(f, g)
    fc, gc = f.coeffs, g.coeffs
    out = []
    for m in range(1, f.order + 1):
        total = _zero(f.scalar_kind)
        for pf, pg, count in convolution_profiles(m):
            term = count
            for s in pf:
                term = term * fc[s - 1]
            for s in pg:
                term = term * gc[s - 1]
            total = total + term
        out.append(total)
    return MomentSeries(tuple(out), f.scalar_kind)


def boxed_inverse(f: MomentSeries) -> MomentSeries:
    """Inverse of f under boxed convolution; requires c_1 != 0.

    Solved triangularly: the only partition whose complement has a block of
    size m is the all-singletons one, so coefficient m of the inverse enters
    the order-m equation with multiplier c_1^m and lower coefficients close
    the system.
    """
    c1 = _invertible_first(f)
    kind = f.scalar_kind
    fc = f.coeffs
    one, zero = _unit(kind), _zero(kind)
    inv: list = [one / c1]
    for m in range(2, f.order + 1):
        acc = zero
        full_block = (m,)
        for pf, pg, count in convolution_profiles(m):
            if pg == full_block:
                continue
            term = count
            for s in pf:
                term = term * fc[s - 1]
            for s in pg:
                term = term * inv[s - 1]
            acc = acc + term
        inv.append(-acc / c1**m)
    return MomentSeries(tuple(inv), kind)


def r_transform(f: MomentSeries) -> MomentSeries:
    """R_f = f boxed-conv Zeta^{-1}; coefficients are free cumulants of f."""
    return boxed_conv(f, boxed_inverse(zeta_series(f.order, f.scalar_kind)))


def moment_from_r(r: MomentSeries) -> MomentSeries:
    """Moment series with free-cumulant series ``r``: the inverse of r_transform."""
    return boxed_conv(r, zeta_series(r.order, r.scalar_kind))


def free_add_conv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Free additive convolution: the series with R-transform R_f + R_g."""
    _check_compatible(f, g)
    rf, rg = r_transform(f), r_transform(g)
    summed = tuple(a + b for a, b in zip(rf.coeffs, rg.coeffs))
    return moment_from_r(MomentSeries(summed, f.scalar_kind))


def free_mult_deconv(f: MomentSeries, g: MomentSeries) -> MomentSeries:
    """Free multiplicative deconvolution: the unique h with R_f = R_g x R_h.

    Requires g invertible under boxed convolution (first coefficient
    nonzero).
    """
    _check_compatible(f, g)
    _invertible_first(g)
    rf, rg = r_transform(f), r_transform(g)
    return moment_from_r(boxed_conv(rf, boxed_inverse(rg)))


def scale_argument(f: MomentSeries, beta) -> MomentSeries:
    """Series of z -> f(beta z): coefficient n becomes beta^n c_n."""
    b = _coerce(beta, f.scalar_kind)
    out = []
    power = _unit(f.scalar_kind)
    for c in f.coeffs:
        power = power * b
        out.append(power * c)
    return MomentSeries(tuple(out), f.scalar_kind)
