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
size lambda (the Marchenko-Pastur-type law whose R-transform is
f_lambda(z) = sum lambda^{n-1} z^n).  Both directions of that identity are
implemented here: the forward moment map and the inverse map recovering
(sigma^2, spectrum of A*A) from moments, which is well-posed because the
moment map is injective up to permutation of singular values and the sign
of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonrealRootsError,
    OrderTooSmallError,
    RecoveryFailedError,
)
from .series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    boxed_conv,
    free_add_conv,
    free_mult_deconv,
    moment_from_r,
    r_transform,
)

IMAG_ROOT_TOL = 1e-6

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


@dataclass(frozen=True)
class CwModel:
    """Compound Wishart parameters: dimensions (p, d) and the spectrum of D."""

    p: int
    d: int
    eigenvalues: tuple

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise DimensionMismatchError("p and d must be positive")
        vals = tuple(sorted(self.eigenvalues))
        if len(vals) != self.p:
            raise DimensionMismatchError(
                f"expected {self.p} eigenvalues, got {len(vals)}"
            )
        object.__setattr__(self, "eigenvalues", vals)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "eigenvalues": [_scalar_to_json(v) for v in self.eigenvalues],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CwModel":
        _require_fields(data, "p", "d", "eigenvalues")
        return cls(
            _parse_dimension(data, "p"),
            _parse_dimension(data, "d"),
            _parse_values(data, "eigenvalues"),
        )


@dataclass(frozen=True)
class SpnModel:
    """Signal-plus-noise parameters: dimensions (p >= d), the d singular
    values of the signal A, and the noise scale sigma (only sigma^2 enters
    the spectrum, so the sign is immaterial)."""

    p: int
    d: int
    singular_values: tuple
    sigma: object = 0.0

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise DimensionMismatchError("p and d must be positive")
        if self.p < self.d:
            raise DimensionMismatchError(f"p >= d required, got p={self.p} < d={self.d}")
        vals = tuple(sorted(self.singular_values))
        if len(vals) != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} singular values, got {len(vals)}"
            )
        if any(v < 0 for v in vals):
            raise DomainError("singular values must be nonnegative")
        object.__setattr__(self, "singular_values", vals)

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
            _parse_dimension(data, "p"),
            _parse_dimension(data, "d"),
            _parse_values(data, "singular_values"),
            _parse_scalar(data.get("sigma", 0)),
        )


@dataclass(frozen=True)
class RecoveryReport:
    """Result of signal-plus-noise parameter recovery from a moment series."""

    sigma_sq_hat: float
    atom_moments: MomentSeries
    atoms: tuple
    residual: float
    search_trace: tuple

    def to_dict(self) -> dict:
        return {
            "sigma_sq_hat": self.sigma_sq_hat,
            "atoms": list(self.atoms),
            "residual": self.residual,
            "atom_moments": self.atom_moments.to_dict(),
            "search_trace": [[s, r] for s, r in self.search_trace],
        }


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Coefficientwise comparison of two signal-plus-noise moment series."""

    identical: bool
    first_divergent_order: int | None
    coefficient_a: object = None
    coefficient_b: object = None

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
        return f"{v.numerator}/{v.denominator}"
    return v


def _require_fields(data, *fields) -> None:
    if not isinstance(data, dict):
        raise DomainError(f"a model must be a JSON object, got {type(data).__name__}")
    missing = [f for f in fields if f not in data]
    if missing:
        raise DomainError(f"model lacks required field(s): {', '.join(missing)}")


def _parse_dimension(data: dict, field: str) -> int:
    v = data[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"{field} must be an integer, got {v!r}")
    return v


def _parse_values(data: dict, field: str) -> tuple:
    v = data[field]
    if not isinstance(v, list):
        raise DomainError(f"{field} must be a list, got {v!r}")
    return tuple(_parse_scalar(x) for x in v)


def _parse_scalar(v):
    """A model value from JSON: an integer, a finite float or a rational "p/q"."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a finite rational number: {v!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise DomainError(f"not a finite number: {v!r}")
    return v


def _as_kind(value, kind):
    return Fraction(value) if kind == RATIONAL else float(value)


def delta_moments(beta, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the point mass at beta: coefficients beta^n."""
    b = _as_kind(beta, kind)
    coeffs, power = [], _as_kind(1, kind)
    for _ in range(order):
        power = power * b
        coeffs.append(power)
    return MomentSeries(tuple(coeffs), kind)


def free_poisson_r(rate, jump, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Free-cumulant series of the free Poisson law: coefficient n is rate*jump^n."""
    lam, a = _as_kind(rate, kind), _as_kind(jump, kind)
    if lam <= 0:
        raise DomainError(f"free Poisson rate must be positive, got {rate}")
    coeffs, power = [], _as_kind(1, kind)
    for _ in range(order):
        power = power * a
        coeffs.append(lam * power)
    return MomentSeries(tuple(coeffs), kind)


def f_lambda(aspect, order: int, kind: str = RATIONAL) -> MomentSeries:
    """The deconvolution kernel's R-transform: coefficient n is aspect^(n-1).

    ``aspect`` is the ratio d/p in (0, 1]; the series equals the
    free-cumulant series of the free Poisson law with rate 1/aspect and
    jump size aspect, and is always invertible (first coefficient 1).
    """
    lam = _as_kind(aspect, kind)
    if not 0 < lam <= 1:
        raise DomainError(f"aspect ratio must lie in (0, 1], got {aspect}")
    coeffs, power = [], _as_kind(1, kind)
    for _ in range(order):
        coeffs.append(power)
        power = power * lam
    return MomentSeries(tuple(coeffs), kind)


def atomic_moments(atoms: Sequence, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the uniform atomic measure on ``atoms``."""
    if not atoms:
        raise DomainError("need at least one atom")
    vals = [_as_kind(a, kind) for a in atoms]
    d = len(vals)
    coeffs = []
    powers = list(vals)
    for n in range(order):
        if n:
            powers = [pw * v for pw, v in zip(powers, vals)]
        coeffs.append(sum(powers) / d)
    return MomentSeries(tuple(coeffs), kind)


def cw_r_transform(model: CwModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Free cumulants of the compound Wishart limit: (1/d) sum_k v_k^n."""
    vals = [_as_kind(v, kind) for v in model.eigenvalues]
    coeffs = []
    powers = list(vals)
    for n in range(order):
        if n:
            powers = [pw * v for pw, v in zip(powers, vals)]
        coeffs.append(sum(powers) / model.d)
    return MomentSeries(tuple(coeffs), kind)


def cw_moments(model: CwModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the compound Wishart limit spectrum."""
    return moment_from_r(cw_r_transform(model, order, kind))


def _elementary_from_power_sums(psums: Sequence) -> list:
    # Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i.
    # Integer seeds promote to whichever scalar type the power sums carry.
    e = [1]
    for k in range(1, len(psums) + 1):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + (-1) ** (i - 1) * e[k - i] * psums[i - 1]
        e.append(acc / k)
    return e


def _roots_from_power_sums(psums: Sequence[float]) -> np.ndarray:
    e = _elementary_from_power_sums(psums)
    poly = [(-1) ** k * e[k] for k in range(len(e))]
    return np.roots(poly)


def _cluster_means(roots: np.ndarray) -> np.ndarray:
    # Companion-matrix roots of an m-fold eigenvalue scatter by roughly
    # eps^(1/m) around it; averaging each conjugate multiplet restores the
    # eigenvalue while leaving genuinely complex roots (conjugate pairs far
    # apart) intact for the reality check downstream.
    delta = 1e-3 * (1.0 + float(np.max(np.abs(roots))))
    ordered = roots[np.argsort(roots.real, kind="stable")]
    means = []
    cluster = [ordered[0]]
    for z in ordered[1:]:
        if abs(z - cluster[-1]) <= delta:
            cluster.append(z)
        else:
            means.extend([np.mean(cluster)] * len(cluster))
            cluster = [z]
    means.extend([np.mean(cluster)] * len(cluster))
    return np.asarray(means)


def cw_recover_eigenvalues(r: MomentSeries, p: int, d: int) -> np.ndarray:
    """Recover the spectrum of D from the compound Wishart cumulant series.

    The first p cumulants give the power sums of the spectrum (scaled by d);
    Newton's identities turn those into elementary symmetric functions, and
    the roots of the resulting monic polynomial, sorted ascending, are the
    eigenvalues.  Repeated eigenvalues are stabilized by averaging each
    root multiplet.  Raises NonrealRootsError when roots stay materially
    complex, which signals that ``r`` is not a compound Wishart cumulant
    series of a real spectrum.
    """
    if r.order < p:
        raise OrderTooSmallError(f"need at least {p} cumulants, got {r.order}")
    psums = [d * float(c) for c in r.coeffs[:p]]
    roots = _cluster_means(_roots_from_power_sums(psums))
    bad = np.abs(roots.imag) > IMAG_ROOT_TOL * (1.0 + np.abs(roots))
    if bad.any():
        raise NonrealRootsError(
            f"recovered spectrum has complex roots: {roots[bad]}"
        )
    return np.sort(roots.real)


def _poisson_kernel(aspect, order: int, kind: str) -> MomentSeries:
    # Moment series of the free Poisson law with R-transform f_lambda.
    return moment_from_r(f_lambda(aspect, order, kind))


def spn_moments(model: SpnModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the signal-plus-noise limit spectrum.

    Forward evaluation of the deconvolution identity: deconvolve M[A*A] by
    the free Poisson kernel, shift by the point mass at sigma^2/lambda, and
    convolve the kernel back in at the cumulant level.
    """
    lam = model.aspect_ratio if kind == RATIONAL else float(model.aspect_ratio)
    a_sq = [v * v for v in model.singular_values]
    maa = atomic_moments(a_sq, order, kind)
    flam = f_lambda(lam, order, kind)
    stripped = free_mult_deconv(maa, moment_from_r(flam))
    sigma_sq = _as_kind(model.sigma, kind) ** 2
    shifted = free_add_conv(stripped, delta_moments(sigma_sq / lam, order, kind))
    return moment_from_r(boxed_conv(flam, r_transform(shifted)))


def spn_decompose(m: MomentSeries, aspect) -> MomentSeries:
    """Deconvolve a signal-plus-noise moment series by the free Poisson kernel.

    Applied to ``spn_moments`` output this yields
    (M[A*A] deconv kernel) boxplus M[delta_{sigma^2/lambda}], the series from
    which the noise level separates as a pure first-cumulant shift.
    """
    return free_mult_deconv(m, _poisson_kernel(aspect, m.order, m.scalar_kind))


def _golden_section(fn, lo: float, hi: float, tol: float, trace: list) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    trace.extend([(c, fc), (d, fd)])
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
            trace.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
            trace.append((d, fd))
    return (a + b) / 2.0


def spn_recover(
    m: MomentSeries,
    p: int,
    d: int,
    grid_points: int = 200,
    refine_tol: float = 1e-10,
) -> RecoveryReport:
    """Recover (sigma^2, spectrum of A*A) from a signal-plus-noise moment series.

    For each candidate noise level s the kernel-deconvolved series is
    shifted by the point mass at -s/lambda and re-convolved, giving a
    candidate M[A*A] whose first d coefficients determine d atoms through
    Newton's identities.  The search minimizes the candidate's Newton
    recurrence defect (zero exactly when the candidate is a genuine d-atom
    moment series, i.e. at the true noise level), penalized for complex or
    negative atoms: a dense grid over [0, lambda*m_1] (the first moment
    bounds sigma^2/lambda from above), golden-section refinement, then a
    golden-section polish of the same defect in exact rational arithmetic,
    which is immune to the float noise floor that otherwise misplaces s
    when atoms nearly collide.  The reported residual compares the moments
    predicted by the recovered parameters against the input at orders
    d+1..N; RecoveryFailedError signals that even the best candidate leaves
    a residual above 1e-4*(1+|m|^2), i.e. the input is not a
    signal-plus-noise moment series for dimensions (p, d).
    """
    if m.order < d + 2:
        raise OrderTooSmallError(
            f"need order >= d+2 = {d + 2} to recover, got {m.order}"
        )
    if p < d:
        raise DimensionMismatchError(f"p >= d required, got p={p} < d={d}")
    order = m.order
    target = m.as_float()
    lam = d / p
    stripped = spn_decompose(target, lam)
    flam = f_lambda(lam, order, FLOAT)
    # exact twin of the float pipeline for the final polish; float inputs
    # convert to rationals without rounding
    lam_x = Fraction(d, p)
    stripped_x = spn_decompose(MomentSeries(m.coeffs, RATIONAL), lam_x)
    flam_x = f_lambda(lam_x, order, RATIONAL)

    def candidate_atom_series(s, stripped_s, flam_s, lam_s, kind):
        shifted = free_add_conv(
            stripped_s, delta_moments(-s / lam_s, order, kind)
        )
        return moment_from_r(boxed_conv(flam_s, r_transform(shifted)))

    def recurrence_defect(maa):
        # A sequence of moments comes from exactly d atoms iff its power
        # sums obey the degree-d Newton recurrence induced by the first d of
        # them; the defect is smooth in s and free of root-finding noise.
        psums = [d * c for c in maa.coeffs]
        e = _elementary_from_power_sums(psums[:d])
        err = 0
        for k in range(d + 1, order + 1):
            pred = 0
            for j in range(1, d + 1):
                pred = pred + (-1) ** (j + 1) * e[j] * psums[k - j - 1]
            gap = psums[k - 1] - pred
            err = err + gap * gap / (1 + psums[k - 1] ** 2)
        return err

    def objective(s: float) -> float:
        maa = candidate_atom_series(s, stripped, flam, lam, FLOAT)
        roots = _roots_from_power_sums([d * c for c in maa.coeffs[:d]])
        penalty = float(
            np.sum(roots.imag**2) + np.sum(np.minimum(roots.real, 0.0) ** 2)
        )
        return recurrence_defect(maa) + penalty

    def polished_objective(s: float) -> float:
        maa = candidate_atom_series(Fraction(s), stripped_x, flam_x, lam_x, RATIONAL)
        return float(recurrence_defect(maa))

    m1 = target.coeffs[0]
    s_hi = max(lam * m1, 0.0)
    trace: list[tuple[float, float]] = []
    grid = np.linspace(0.0, s_hi, grid_points) if s_hi > 0 else np.array([0.0])
    values = []
    for s in grid:
        val = objective(float(s))
        trace.append((float(s), val))
        values.append(val)
    best = int(np.argmin(values))
    if len(grid) > 1:
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, len(grid) - 1)])
        s_coarse = _golden_section(objective, lo, hi, refine_tol, trace)
        if objective(s_coarse) > values[best]:
            s_coarse = float(grid[best])
    else:
        s_coarse = float(grid[best])
    # Exact-arithmetic polish: the float objective bottoms out on rounding
    # noise, which is enough to misplace s by ~1e-6 when atoms nearly
    # collide; the exact defect stays a smooth polynomial in s.
    width = 1e-4 * (1.0 + abs(s_coarse))
    s_best = _golden_section(
        polished_objective,
        max(s_coarse - width, 0.0),
        s_coarse + width,
        refine_tol,
        trace,
    )

    maa_x = candidate_atom_series(
        Fraction(s_best), stripped_x, flam_x, lam_x, RATIONAL
    )
    roots = _roots_from_power_sums([float(d * c) for c in maa_x.coeffs[:d]])
    penalty = float(
        np.sum(roots.imag**2) + np.sum(np.minimum(roots.real, 0.0) ** 2)
    )
    atoms = np.sort(np.maximum(roots.real, 0.0))
    reconstructed = spn_moments(
        SpnModel(p, d, tuple(np.sqrt(atoms)), np.sqrt(s_best)), order, FLOAT
    )
    final_residual = penalty + sum(
        (reconstructed.coeffs[n] - target.coeffs[n]) ** 2
        for n in range(d, order)
    )
    trace.append((s_best, final_residual))
    norm_sq = sum(c * c for c in target.coeffs)
    if final_residual > 1e-4 * (1.0 + norm_sq):
        raise RecoveryFailedError(
            f"best residual {final_residual:.3e} exceeds tolerance; "
            f"input is not a signal-plus-noise moment series for (p={p}, d={d})",
            residual=final_residual,
        )
    return RecoveryReport(
        sigma_sq_hat=s_best,
        atom_moments=maa_x.as_float(),
        atoms=tuple(float(a) for a in atoms),
        residual=final_residual,
        search_trace=tuple(trace),
    )


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
