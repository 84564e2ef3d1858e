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
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
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
    format_rational,
    moment_from_r,
    parse_scalar,
    r_transform,
    scale_argument,
    zeta_series,
)

IMAG_ROOT_TOL = 1e-6
# Gauss-Newton steps spent polishing each noise-level candidate.
POLISH_MAX_STEPS = 30

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
        _check_dimensions(self.p, self.d)
        vals = _parse_values(self.eigenvalues, "eigenvalues")
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
        return cls(data["p"], data["d"], _from_json(data["eigenvalues"]))


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
        _check_dimensions(self.p, self.d)
        if self.p < self.d:
            raise DimensionMismatchError(f"p >= d required, got p={self.p} < d={self.d}")
        vals = _parse_values(self.singular_values, "singular_values")
        if len(vals) != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} singular values, got {len(vals)}"
            )
        if any(v < 0 for v in vals):
            raise DomainError("singular values must be nonnegative")
        object.__setattr__(self, "singular_values", vals)
        object.__setattr__(self, "sigma", _real(self.sigma))

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


@dataclass(frozen=True)
class RecoveryReport:
    """Result of signal-plus-noise parameter recovery from a moment series.

    ``misfits`` holds, for each order k = d+1..N, the relative misfit
    |r_k - t_k| / (1 + |t_k|) of the reconstructed moment r_k against the
    input moment t_k; recovery is accepted only when each is at most 1e-4.
    """

    sigma_sq_hat: float
    atom_moments: MomentSeries
    atoms: tuple
    residual: float
    search_trace: tuple
    misfits: tuple

    def to_dict(self) -> dict:
        return {
            "sigma_sq_hat": self.sigma_sq_hat,
            "atoms": list(self.atoms),
            "residual": self.residual,
            "misfits": list(self.misfits),
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
        return format_rational(v)
    return v


def _require_fields(data, *fields) -> None:
    if not isinstance(data, dict):
        raise DomainError(f"a model must be a JSON object, got {type(data).__name__}")
    missing = [f for f in fields if f not in data]
    if missing:
        raise DomainError(f"model lacks required field(s): {', '.join(missing)}")


def _from_json(v):
    # JSON carries exact rationals as "p/q" strings; the model checks the rest
    if isinstance(v, list):
        return [_from_json(x) for x in v]
    return parse_scalar(v, "models") if isinstance(v, str) else v


def _check_dimensions(p, d) -> None:
    for field, v in (("p", p), ("d", d)):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise DomainError(f"{field} must be an integer, got {v!r}")
    if p < 1 or d < 1:
        raise DimensionMismatchError(f"p and d must be positive, got p={p}, d={d}")


def _real(v):
    if isinstance(v, str):
        raise DomainError(f"not a number: {v!r}")
    return parse_scalar(v, "models")


def _parse_values(values, field: str) -> tuple:
    # an ndarray can exist only once numpy is imported, so the exact path
    # need not import numpy to recognize one
    np = sys.modules.get("numpy")
    array = np is not None and isinstance(values, np.ndarray)
    if not isinstance(values, (list, tuple)) and not array:
        raise DomainError(f"{field} must be a list, got {values!r}")
    return tuple(sorted(_real(v) for v in values))


def _as_kind(value, kind):
    return Fraction(value) if kind == RATIONAL else float(value)


def _times(c, f: MomentSeries) -> MomentSeries:
    return MomentSeries(tuple(c * x for x in f.coeffs), f.scalar_kind)


def delta_moments(beta, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the point mass at beta: coefficients beta^n."""
    return scale_argument(zeta_series(order, kind), beta)


def free_poisson_r(rate, jump, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Free-cumulant series of the free Poisson law: coefficient n is rate*jump^n."""
    lam = _as_kind(rate, kind)
    if lam <= 0:
        raise DomainError(f"free Poisson rate must be positive, got {rate}")
    return _times(lam, delta_moments(jump, order, kind))


def _aspect(aspect, kind):
    lam = _as_kind(aspect, kind)
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
    columns = zip(*(delta_moments(_as_kind(v, kind), order, kind).coeffs for v in values))
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


def _roots(poly: Sequence[float]) -> np.ndarray:
    # np.roots raises LinAlgError on a companion matrix holding inf or nan;
    # its entries are the coefficients over the leading nonzero one
    import numpy as np

    lead = next(c for c in poly if c != 0)
    if not all(math.isfinite(c / lead) for c in poly):
        raise DomainError("polynomial roots leave the float range")
    return np.roots(poly)


def _roots_from_power_sums(psums: Sequence[float]) -> np.ndarray:
    e = _elementary_from_power_sums(psums)
    return _roots([(-1) ** k * e[k] for k in range(len(e))])


def _cluster_means(roots: np.ndarray) -> np.ndarray:
    # Companion-matrix roots of an m-fold eigenvalue scatter by roughly
    # eps^(1/m) around it; averaging each conjugate multiplet restores the
    # eigenvalue while leaving genuinely complex roots (conjugate pairs far
    # apart) intact for the reality check downstream.
    import numpy as np

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
    import numpy as np

    _check_dimensions(p, d)
    if r.order < p:
        raise OrderTooSmallError(f"need at least {p} cumulants, got {r.order}")
    psums = [d * c for c in MomentSeries(r.coeffs[:p], FLOAT).coeffs]
    roots = _cluster_means(_roots_from_power_sums(psums))
    bad = np.abs(roots.imag) > IMAG_ROOT_TOL * (1.0 + np.abs(roots))
    if bad.any():
        raise NonrealRootsError(
            f"recovered spectrum has complex roots: {roots[bad]}"
        )
    return np.sort(roots.real)


def _translate(m: MomentSeries, shift) -> MomentSeries:
    """Moments of the measure with moments ``m`` translated by ``shift``:
    coefficient n is sum_k C(n, k) shift^(n-k) m_k, with m_0 = 1.  As a
    point mass at ``shift`` adds to the first free cumulant only, this is
    mu(x + shift z) for m = mu(x).  The powers of ``shift`` are running
    products: a float power past the range is inf, where ``**`` raises."""
    moments, powers = (1,) + m.coeffs, [1]
    for _ in m.coeffs:
        powers.append(powers[-1] * shift)
    return MomentSeries(
        tuple(
            sum(math.comb(n, k) * powers[n - k] * moments[k] for k in range(n + 1))
            for n in range(1, len(moments))
        ),
        m.scalar_kind,
    )


def _spn_map(y: MomentSeries, lam, shift) -> MomentSeries:
    """mu(lambda^-1 T_shift(y)), with T the translation ``_translate``.

    Boxed convolution by the kernel f_lambda = lambda^-1 Zeta(lambda z) is a
    scaling, X x f_lambda = lambda^-1 mu(lambda X), and so is its inverse,
    so a point mass at shift/lambda added to m deconv nu translates
    y = lambda rho(m) by ``shift`` (mu = moment_from_r, rho = r_transform).
    """
    return moment_from_r(_times(1 / lam, _translate(y, shift)))


def spn_moments(model: SpnModel, order: int, kind: str = RATIONAL) -> MomentSeries:
    """Moment series of the signal-plus-noise limit spectrum: ``_spn_map``
    at sigma^2 on lambda rho(M[A*A]), one R-transform and one moment series.
    """
    lam = _as_kind(model.aspect_ratio, kind)
    # convert before squaring: a float squared past its range raises
    a = [_as_kind(v, kind) for v in model.singular_values]
    maa = atomic_moments([v * v for v in a], order, kind)
    sigma = _as_kind(model.sigma, kind)
    m = _spn_map(_times(lam, r_transform(maa)), lam, sigma * sigma)
    if kind == FLOAT and not all(math.isfinite(c) for c in m.coeffs):
        raise DomainError(
            "moments overflow the float backend; use the rational backend"
        )
    return m


def spn_decompose(m: MomentSeries, aspect) -> MomentSeries:
    """Deconvolve a signal-plus-noise moment series by the free Poisson kernel.

    Applied to ``spn_moments`` output this yields
    (M[A*A] deconv kernel) boxplus M[delta_{sigma^2/lambda}], the series from
    which the noise level separates as a pure first-cumulant shift:
    mu(lambda^-1 rho(lambda rho(m))).
    """
    lam = _aspect(aspect, m.scalar_kind)
    return moment_from_r(_times(1 / lam, r_transform(_times(lam, r_transform(m)))))


def _interpolate(values: Sequence) -> list:
    """Coefficients, lowest power first, of the polynomial through (k, values[k])."""
    dd = list(values)
    for j in range(1, len(dd)):
        for i in range(len(dd) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / j
    poly = [dd[-1]]
    for i in range(len(dd) - 2, -1, -1):
        # poly <- poly * (s - i) + dd[i]
        poly = [a - i * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += dd[i]
    return poly


def _integer_basis(polys: Sequence) -> tuple:
    """(rows, q): the rational polynomials ``polys`` as integer coefficient
    rows over one denominator q, lowest power first, padded to one length."""
    q = math.lcm(*(c.denominator for poly in polys for c in poly))
    length = max(len(poly) for poly in polys)
    rows = [[c.numerator * (q // c.denominator) for c in poly] for poly in polys]
    return [row + [0] * (length - len(row)) for row in rows], q


def _homogeneous(rows: Sequence, n: int, b: int) -> list:
    """sum_i c_i n^i b^(D-i) for each integer row c of length D + 1:
    b^D times the row's polynomial at n/b, by Horner's rule."""
    bpow = [b**j for j in range(max(map(len, rows), default=0))]
    out = []
    for row in rows:
        acc = 0
        for c, bj in zip(reversed(row), bpow):
            acc = acc * n + c * bj
        out.append(acc)
    return out


def _recurrence_gaps(psums: Sequence, d: int) -> list:
    # Power sums of d atoms obey the degree-d Newton recurrence set by the
    # first d of them; gap k is how far power sum k misses it.
    e = _elementary_from_power_sums(psums[:d])
    return [
        psums[k - 1]
        - sum((-1) ** (j + 1) * e[j] * psums[k - j - 1] for j in range(1, d + 1))
        for k in range(d + 1, len(psums) + 1)
    ]


def _root_penalty(roots: np.ndarray) -> float:
    import numpy as np

    return float(np.sum(roots.imag**2) + np.sum(np.minimum(roots.real, 0.0) ** 2))


def _evaluate(basis: tuple, s: float) -> list:
    # exact evaluation of an integer basis at a float, rounded once: int / int
    # is correctly rounded
    rows, q = basis
    n, b = s.as_integer_ratio()
    scale = q * b ** (len(rows[0]) - 1)
    return [v / scale for v in _homogeneous(rows, n, b)]


def _noise_level_candidates(m: MomentSeries, p: int, d: int) -> tuple:
    """Scored noise-level candidates (s, score) and the candidate moment
    polynomials as an integer basis (``_integer_basis``); see ``spn_recover``."""
    import numpy as np

    order = m.order
    exact = MomentSeries(m.coeffs, RATIONAL)
    lam = Fraction(d, p)
    # node s is the map at -s: one translation of one measure
    base = _times(lam, r_transform(exact))
    nodes = [_spn_map(base, lam, -s).coeffs for s in range(order + 1)]
    moment_polys = [_interpolate(col) for col in zip(*nodes)]
    gap_polys = [
        _interpolate(col)
        for col in zip(*(_recurrence_gaps([d * c for c in cs], d) for cs in nodes))
    ]
    # at s = n/b the gaps are G_k / (q b^D) and their slopes T_k / (q b^(D-1))
    gap_rows, q = _integer_basis(gap_polys)
    slope_rows = [[i * c for i, c in enumerate(row)][1:] for row in gap_rows]
    degree = len(gap_rows[0]) - 1
    (weights,), wq = _integer_basis(
        [[1 / (1 + (d * c) ** 2) for c in exact.coeffs[d:]]]
    )

    def defect(s: float) -> tuple:
        # D(s) exactly, as (numerator, denominator), and the Gauss-Newton
        # iterate from s, rounded once
        n, b = s.as_integer_ratio()
        gaps = _homogeneous(gap_rows, n, b)
        slopes = _homogeneous(slope_rows, n, b)
        value = (
            sum(w * g * g for w, g in zip(weights, gaps)),
            wq * (q * b**degree) ** 2,
        )
        curvature = sum(w * t * t for w, t in zip(weights, slopes))
        pull = sum(w * g * t for w, g, t in zip(weights, gaps, slopes))
        # s - pull / (b curvature) over one denominator
        trial = (n * curvature - pull) / (b * curvature) if curvature else s
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

    # seeds: s = 0 and the roots of the lowest nonzero gap, scaled exactly
    # to coefficients of at most 1 before rounding
    lowest = next((g for g in gap_polys if any(g)), [1])
    scale = max(abs(c) for c in lowest)
    roots = _roots([float(c / scale) for c in reversed(lowest)]).real
    s_hi = max(lam * exact.coeffs[0], 0)
    seeds = [0.0] + [float(min(max(r, 0.0), s_hi)) for r in roots]
    moment_rows, mq = _integer_basis(moment_polys)
    trace = []
    for seed in dict.fromkeys(seeds):
        s, value = polish(seed)
        psums = [d * c for c in _evaluate((moment_rows[:d], mq), s)]
        trace.append((s, value + _root_penalty(_roots_from_power_sums(psums))))
    return trace, (moment_rows, mq)


def spn_recover(m: MomentSeries, p: int, d: int) -> RecoveryReport:
    """Recover (sigma^2, spectrum of A*A) from a signal-plus-noise moment series.

    The input m, converted exactly to rationals, goes through the map of
    ``spn_moments`` with the opposite shift: mu(lambda^-1 T_{-s}(y)) on
    y = lambda rho(m) is a candidate M[A*A] whose coefficient n is a
    polynomial of degree n in the noise level s.  Exact evaluation at
    s = 0..N (one R-transform in all, one moment series per node) and
    interpolation give the candidate moments and Newton-recurrence gaps
    g_k (k = d+1..N) as polynomials; the gaps vanish together exactly at
    the true s, where the candidate has d atoms.  The roots of the lowest
    nonzero gap, clipped to [0, lambda*m_1], and s = 0 seed a Gauss-Newton
    polish of D(s) = sum_k g_k(s)^2 / (1 + (d m_k)^2), evaluated exactly at
    each float iterate s = n/b in integers (the polynomials over one
    denominator, as homogeneous forms in n and b) and stepped only
    downhill.  The candidate with the least D plus a penalty for complex or
    negative atoms wins; ``search_trace`` lists the candidates as
    (s, score).  The fit is the same map at the winning s, forward, on
    lambda rho of the atoms' moments.  RecoveryFailedError signals that the
    fit misses the input at orders d+1..N by more than 1e-4*(1+|m|^2) in
    sum of squares, or at some order k by more than 1e-4*(1+|m_k|), or that
    the candidates leave the float range: the input is not a
    signal-plus-noise moment series for (p, d).
    """
    import numpy as np

    _check_dimensions(p, d)
    if p < d:
        raise DimensionMismatchError(f"p >= d required, got p={p} < d={d}")
    if m.order < d + 2:
        raise OrderTooSmallError(
            f"need order >= d+2 = {d + 2} to recover, got {m.order}"
        )
    target = m.as_float()
    not_spn = f"input is not a signal-plus-noise moment series for (p={p}, d={d})"
    try:
        trace, moment_basis = _noise_level_candidates(m, p, d)
        s_best = min(trace, key=lambda entry: entry[1])[0]
        maa = MomentSeries(tuple(_evaluate(moment_basis, s_best)), FLOAT)
        roots = _roots_from_power_sums([d * c for c in maa.coeffs[:d]])
    except (OverflowError, DomainError):
        raise RecoveryFailedError(
            f"candidates leave the float range; {not_spn}", residual=math.inf
        ) from None
    atoms = tuple(float(a) for a in np.sort(np.maximum(roots.real, 0.0)))
    y = _times(d / p, r_transform(atomic_moments(atoms, m.order, FLOAT)))
    reconstructed = _spn_map(y, d / p, s_best)
    pairs = list(zip(reconstructed.coeffs[d:], target.coeffs[d:]))
    final_residual = _root_penalty(roots) + sum((r - t) * (r - t) for r, t in pairs)
    # the sum is dominated by the highest moment, so each order is also held
    # to its own scale
    misfits = tuple(abs(r - t) / (1.0 + abs(t)) for r, t in pairs)
    misfit = max(misfits)
    tol = 1e-4 * (1.0 + sum(c * c for c in target.coeffs))
    if not math.isfinite(final_residual) or final_residual > tol or misfit > 1e-4:
        raise RecoveryFailedError(
            f"best residual {final_residual:.3e} (worst relative misfit "
            f"{misfit:.3e}) exceeds tolerance; {not_spn}",
            residual=final_residual,
        )
    return RecoveryReport(
        sigma_sq_hat=s_best,
        atom_moments=maa,
        atoms=atoms,
        residual=final_residual,
        search_trace=tuple(trace),
        misfits=misfits,
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
