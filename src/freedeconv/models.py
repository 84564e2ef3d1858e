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
    _cumulants,
    _moments,
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

    sigma_sq_hat: float
    atom_moments: MomentSeries
    atoms: tuple
    residual: float
    search_trace: tuple
    misfits: tuple
    sigma_sq_exact: Fraction | None
    multiplicities: tuple

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


def _roots(poly: Sequence[float]) -> np.ndarray:
    # np.roots raises LinAlgError on a companion matrix holding inf or nan;
    # its entries are the coefficients over the leading nonzero one
    import numpy as np

    lead = next(c for c in poly if c != 0)
    if not all(math.isfinite(c / lead) for c in poly):
        raise DomainError("polynomial roots leave the float range")
    return np.roots(poly)


def _atoms(scaled: Sequence[int], big_q: int, count: int, exact: bool) -> tuple:
    """(distinct atoms ascending, multiplicities, no atom < 0) of n = ``count``
    atoms of equal weight from the ints ``scaled`` Q^k p_k, p_1..p_n their
    power sums.  On the atoms times n! Q, Newton's identities give the int
    e_k and moments mu_0..mu_(2n-1), the Chebyshev algorithm (Gautschi, 2004,
    2.1.7) on the ints tau_k,l = D_k sigma_k,l (D_k the k-th Hankel
    determinant) the Jacobi coefficients.  The first beta_k = D_(k+1) D_(k-1)
    / D_k^2 that is 0 (on float input, at most RANK_TOL mu_2/mu_0) gives the
    atoms: the eigenvalues of the Jacobi matrix, of multiplicities n v_0^2
    (Golub and Welsch, 1969).  Any Q gives the same bits: each alpha_k and
    beta_k is an int / int quotient, and each side of the rank test a term of
    the same weight.  NonrealRootsError: a beta_k < 0, on exact input a moment the atoms miss,
    or multiplicities that do not add up to n."""
    import numpy as np

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
    try:
        # int / int is correctly rounded, and raises past the float range
        alpha = [(tau[k + 1][k + 1] * dets[k] - tau[k][k] * dets[k + 1])
                 / (dets[k] * dets[k + 1] * c) for k in range(len(dets) - 1)]
        off = [math.sqrt(dets[k + 1] * dets[k - 1] / (dets[k] * c) ** 2)
               for k in range(1, len(dets) - 1)]
        jacobi = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    except OverflowError:
        raise DomainError("atoms leave the float range") from None
    values, vectors = np.linalg.eigh(jacobi)
    # an eigenvalue of weight below 1/(2n) is no atom
    mults = np.rint(n * vectors[0] ** 2).astype(int)
    if mults.sum() != n:
        raise NonrealRootsError(f"the power sums are not those of {n} real atoms")
    return values[mults > 0], mults[mults > 0], all(x >= 0 for x in e)


def _misfits(rebuilt: Sequence[float], target: Sequence[float]) -> tuple:
    """(misfits, fits): |r_k - t_k| / (1 + |t_k|) for each pair, and whether
    every one is at most MISFIT_TOL; a nan fails, where max() passes over it."""
    misfits = tuple(abs(r - t) / (1.0 + abs(t)) for r, t in zip(rebuilt, target))
    return misfits, all(x <= MISFIT_TOL for x in misfits)


def cw_recover_eigenvalues(r: MomentSeries, p: int, d: int) -> np.ndarray:
    """Recover the spectrum of D from the compound Wishart cumulant series.

    The cumulants times d are the power sums of the spectrum: converted
    exactly and rescaled once to ints (``_rescaled``), ``_atoms`` reads it
    from the first p, with its repeats, ascending.  The series must fit: on
    rational input every gap above order p (``_recurrence_gaps``, homogeneous
    in the scale) is 0; on float input each rebuilt cumulant passes
    ``_misfits``, the rule of ``spn_recover``.  Otherwise
    NonrealRootsError, RecoveryFailedError or DomainError signal that ``r`` is
    not a compound Wishart cumulant series for (p, d).
    """
    import numpy as np

    _check_dimensions(p, d)
    if r.order < p:
        raise OrderTooSmallError(f"need at least {p} cumulants, got {r.order}")
    big_q, scaled = _rescaled(MomentSeries(r.coeffs, RATIONAL).coeffs)
    psums, exact = [d * x for x in scaled], r.scalar_kind == RATIONAL
    values = np.repeat(*_atoms(psums[:p], big_q, p, exact)[:2])
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
    lam = _as_kind(model.aspect_ratio, kind)
    # convert before squaring: a float squared past its range raises
    a = [_as_kind(v, kind) for v in model.singular_values]
    maa = atomic_moments([v * v for v in a], order, kind)
    sigma = _as_kind(model.sigma, kind)
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


def _homogeneous(rows: Sequence, n: int, b: int) -> tuple:
    """(values, slopes): b^D P(n/b) = sum_i c_i n^i b^(D-i) and
    b^(D-1) P'(n/b) for the polynomial P of each integer row c of length
    D + 1, in one pass of Horner's rule."""
    bpow = [b**j for j in range(max(map(len, rows), default=0))]
    values, slopes = [], []
    for row in rows:
        acc = slope = 0
        for c, bj in zip(reversed(row), bpow):
            slope = slope * n + acc
            acc = acc * n + c * bj
        values.append(acc)
        slopes.append(slope)
    return values, slopes


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


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """The primitive gcd over Z of two int polynomials, coefficients lowest
    power first, with a positive leading coefficient; [] when both are 0.
    By the primitive polynomial remainder sequence (Brown, J. ACM 18, 1971):
    pseudo-remainders, each divided by its content."""
    a, b = sorted((_trimmed(a), _trimmed(b)), key=len, reverse=True)
    if not b:
        return _primitive(a) if a else []
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_divide(a, b)[1]
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _rational_root(h: list, x: float) -> Fraction | None:
    """The rational root of the primitive int polynomial h that Newton's
    method reaches from x, or None.  A root r of h in lowest terms has its
    denominator dividing c = lc(h), so c r is an int: Newton's method on
    X = 2^P x, in ints with 2^P > 4c, comes within 1/2 of 2^P r, and
    h(round(c X / 2^P) / c) = 0 is checked exactly."""
    lead = h[-1]
    bits = lead.bit_length() + 2
    one = 1 << bits
    n, b = x.as_integer_ratio()
    big_x = (n << bits) // b
    # from a float start each step doubles the correct bits, up to P
    for _ in range(bits.bit_length() + 8):
        (value,), (slope,) = _homogeneous([h], big_x, one)
        if not slope:
            return None
        # X - 2^P h(x) / h'(x), rounded to nearest
        step = (2 * value + slope) // (2 * slope)
        if not step:
            break
        big_x -= step
    top = (lead * big_x + one // 2) >> bits
    return Fraction(top, lead) if _homogeneous([h], top, lead)[0] == [0] else None


def _gcd_roots(rows: Sequence) -> list:
    """The distinct rational roots r >= 0 of the primitive gcd g over Z of
    the int polynomials ``rows``, in recovery the gap polynomials in u of
    ``_candidate_rows``: those of its square-free part
    h = g / gcd(g, g'), exactly -h_0 / h_1 when h has degree 1, and
    otherwise by ``_rational_root`` from each float root of h.  There are
    none when every row is 0 or g has degree 0."""
    g = []
    for row in rows:
        g = _int_gcd(g, row)
        if len(g) == 1:
            return []
    if not g:
        return []
    # a gcd of degree 1 is already square-free
    h = g if len(g) == 2 else _primitive(
        _pseudo_divide(g, _int_gcd(g, [i * c for i, c in enumerate(g)][1:]))[0])
    if len(h) == 2:
        roots = [Fraction(-h[0], h[1])]
    else:
        scale = max(abs(c) for c in h)
        roots = [_rational_root(h, float(x.real))
                 for x in _roots([c / scale for c in reversed(h)])]
    return sorted({r for r in roots if r is not None and r >= 0})


def _round53(w: Fraction) -> Fraction:
    """w > 0 rounded to 53 significant bits as float(w), which it equals where
    that is normal, but with no bound on the exponent: never 0."""
    scale = Fraction(2) ** (w.denominator.bit_length() - w.numerator.bit_length())
    return Fraction(float(w * scale)) / scale


def _candidate(cumulants: Sequence, big_q: int, d: int, u: Fraction, root: bool = False):
    """(M, t): the candidate moments at the noise level s = d u / Q as the
    ints M_k = t^k cand_k(s) and their scale t; at a ``root``, None unless
    every gap vanishes there.  At u = n/b the cumulant rows of
    ``_candidate_rows`` give the ints b^k Q^k c_k, and the scalar recursions
    t^k times the moments and t^k d! times the gaps, t = b Q."""
    n, b = u.as_integer_ratio()
    moments = _moments(_homogeneous(cumulants, n, b)[0])
    if root and any(_recurrence_gaps([d * c for c in moments], d)):
        return None
    return moments, b * big_q


def _noise_level_candidates(m: MomentSeries, p: int, d: int) -> tuple:
    """(trace, winner): the candidates (s, D(s)), one per distinct s, and the
    winner (s, its ``_candidate`` ints and scale, their ``_atoms`` reading, s
    if exact), or None; see ``spn_recover``.  ``_candidate`` reads every s at
    u = Q s / d.  The exact roots, s = d r / Q for the roots r in u of the
    gap polynomials of orders d+1 and d+2, need ``_gap_polys`` to order d+2;
    only when none wins does the polish read them to order N."""
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
        if (candidate := _candidate(cumulants, big_q, d, r, root=True)) is not None:
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
        gaps, slopes = _homogeneous(polys, big_q * n, d * b)
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

    # seeds: s = 0 and the roots of the lowest nonzero gap, in s the
    # polynomial with coefficients c_i Q^i d^(N-i), scaled exactly to
    # coefficients of at most 1 before rounding
    lowest = next((poly for poly in polys if any(poly)), [1])
    lowest = [c * big_q**i * d ** (order - i) for i, c in enumerate(lowest)]
    scale = max(abs(c) for c in lowest)
    seeds = _roots([c / scale for c in reversed(lowest)]).real
    s_hi = max(Fraction(d, p) * exact[0], 0)
    for seed in dict.fromkeys([0.0] + [float(min(max(r, 0.0), s_hi)) for r in seeds]):
        trace.setdefault(*polish(seed))
    # the least D among the polished whose reading is real wins
    for s in sorted(list(trace)[roots:], key=trace.get):
        candidate = _candidate(cumulants, big_q, d, Fraction(s) * big_q / d)
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
    rounded once to 53 bits, exactly at each float s: s = 0 and the roots of
    the lowest nonzero gap, clipped to [0, lambda*m_1], seed a Gauss-Newton
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
    _check_dimensions(p, d)
    if p < d:
        raise DimensionMismatchError(f"p >= d required, got p={p} < d={d}")
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
        atoms = tuple(max(0.0, float(a)) for a, k in zip(values, mults) for _ in range(k))
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
                          s_exact, tuple(mults.tolist()))


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
