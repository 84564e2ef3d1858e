"""C^2-valued Cauchy transforms and the analytic route to signal-plus-noise
spectra.

A rectangular operator Y embeds in the self-adjoint block matrix
[[0, Y*], [Y, 0]]; tracing the two diagonal blocks separately gives a
Cauchy transform on pairs of complex numbers, mapping the product upper
half-plane H+(C^2) into the lower one.  For Y = A + sigma C with C a free
circular block, the transform G of the embedded sum satisfies the
subordination equation G(z) = G_A(z - sigma^2 eta(G(z))), with
eta(x, y) = ((p/d) y, x) and G_A the closed-form transform of the signal.
Eliminating G leaves the information-plus-noise equation (Dozier and
Silverstein, J. Multivariate Anal. 2007) for omega = w1 w2, the product of
the subordinated arguments w = z - sigma^2 eta(G), at Z = z1 z2:

    Z = z(omega) = omega (1 + sigma^2 s)^2 + sigma^2 (p/d - 1)(1 + sigma^2 s),
    s(omega) = (1/d) sum_k c_k / (omega - a_k^2),

over the distinct squared singular values a_k^2 with multiplicities c_k.
Then w2 = z2 / (1 + sigma^2 s), w1 = (z1 - sigma^2 (p/d - 1) / w2) / (1 + sigma^2 s)
and G = G_A(w1, w2) are closed forms in omega.  The solver is Newton's
method on z(omega) = Z, vectorised over points, walking Im Z down the rungs
10 E, E, E/10, ... of the spectrum's scale E = (max|a| + |sigma|(1 + sqrt(p/d)))^2
from omega = x + 10 E i; a step that would leave the upper half-plane, and
with it the physical branch, is halved.  One Newton loop runs every rung,
a point leaves a rung as soon as its own test passes, and each step is one
reciprocal pass over the atoms.  A rung above the target only has to start
the next one inside its basin: at height h, Z = x + i h, and a point leaves
once |z(omega) - Z| <= h / 10, the next rung's height.  Only the target
tests the fixed-point defect of G against the tolerance.  Stieltjes
inversion along z1 = z2 = sqrt(x + i eps) gives the density of
(A + sigma C)*(A + sigma C).  There x is the grid itself, so the rungs above
eps depend only on the model and the grid: ``spn_density`` remembers the
last ladder it walked, and a call on the same model and grid whose ladder
starts with those rungs resumes after them.  The eps call of the
extrapolation 2 rho(eps) - rho(2 eps) walks only the rungs the 2 eps call
did not, and returns the same bits as a call that walks them all.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import NamedTuple, Sequence

import numpy as np

from ._record import Record
from .errors import DomainError, NoConvergenceError, SigmaZeroError, require_int
from .models import SpnModel

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100


class CPoint2(NamedTuple):
    """A point of C^2; the transform domain is Im z1 > 0 and Im z2 > 0."""

    z1: complex
    z2: complex


class SubordinationResult(Record):
    """Fixed point of the subordination equation at one spectral parameter.

    ``g`` is the value of the embedded Cauchy transform, ``omega`` the
    subordinated argument the signal transform is evaluated at, and
    ``residual`` the fixed-point defect of ``g``.  ``iterations`` is the
    largest number of Newton iterations spent on one rung.
    """

    __slots__ = ("g", "omega", "iterations", "residual")

    def __init__(self, g: CPoint2, omega: CPoint2, iterations: int, residual: float):
        self._init(g, omega, iterations, residual)


class DensityCurve(Record):
    """Spectral density sampled on a positive grid by Stieltjes inversion.

    ``max_residual`` is the largest fixed-point defect on the grid,
    ``max_iterations`` the largest number of Newton iterations on one rung,
    ``rung_iterations`` the Newton iterations on each rung, from 10 E down,
    with the target last, and ``fallback_points`` the number of Newton
    steps that were halved to stay on the physical branch, summed over
    rungs.
    """

    __slots__ = ("grid", "values", "epsilon", "mass", "max_residual", "max_iterations",
                 "fallback_points", "rung_iterations")

    def __init__(self, grid: np.ndarray, values: np.ndarray, epsilon: float, mass: float,
                 max_residual: float = 0.0, max_iterations: int = 0,
                 fallback_points: int = 0, rung_iterations: tuple = ()):
        self._init(grid, values, epsilon, mass, max_residual, max_iterations,
                   fallback_points, rung_iterations)


def _require_upper(z: CPoint2) -> None:
    if not (z.z1.imag > 0 and z.z2.imag > 0 and cmath.isfinite(z.z1)
            and cmath.isfinite(z.z2)):
        raise DomainError(
            f"point {z} is not a finite point of the upper half-plane of C^2",
            module="subordination",
        )


def _g_atoms(atoms, counts, p, d, z1, z2):
    # Closed-form transform of the embedded signal: with w = z2*z1,
    #   G_1 = (z2/d) sum_k c_k/(w - a_k^2)
    #   G_2 = (z1/p) sum_k c_k/(w - a_k^2) + (p-d)/(p z2).
    s = (counts / (np.asarray(z2 * z1)[..., None] - atoms)).sum(axis=-1)
    return z2 * s / d, z1 * s / p + (p - d) / (p * z2)


def g_lambda_atoms(
    singular_values: Sequence, p: int, d: int, z: CPoint2
) -> CPoint2:
    """Cauchy transform of the embedded signal block at a point of H+(C^2).

    Depends on the signal only through its squared singular values; maps the
    upper half-plane of C^2 into the lower one.  The arguments are read as
    ``SpnModel(p, d, singular_values)`` reads them, and the values as the
    solver reads them.
    """
    _require_upper(z)
    (atoms, counts, *_), _ = _problem(SpnModel(p, d, singular_values))
    g1, g2 = _g_atoms(atoms, counts, p, d, complex(z.z1), complex(z.z2))
    return CPoint2(complex(g1), complex(g2))


def eta(x: CPoint2, p: int, d: int) -> CPoint2:
    """Variance map of the embedded circular block: (x, y) -> ((p/d) y, x)."""
    return CPoint2((p / d) * x.z2, x.z1)


def _problem(model: SpnModel):
    """The model's (atoms, counts, p, d, sigma^2) and its scale E.

    Raises DomainError unless 10 E, and with it every squared singular
    value and sigma^2, is a finite float: the ladder starts at 10 E.
    """
    try:
        a = np.abs([float(v) for v in model.singular_values])
        sigma = abs(float(model.sigma))
        with np.errstate(over="ignore"):
            scale = (a.max() + sigma * (1 + np.sqrt(model.p / model.d))) ** 2
    except OverflowError:
        scale = np.inf
    if not np.isfinite(10 * scale):
        raise DomainError(
            "squared singular values and sigma^2 must be finite floats, and so "
            "must ten times the scale (max|a| + |sigma|(1 + sqrt(p/d)))^2",
            module="subordination",
        )
    atoms, counts = np.unique(a * a, return_counts=True)
    return (atoms, counts, model.p, model.d, sigma * sigma), float(scale)


def _check_solver(max_iter, **positive) -> None:
    """Raises DomainError unless each ``positive`` value is positive and
    finite and ``max_iter`` an int of at least 1; a bool is none of these."""
    for field, v in positive.items():
        if isinstance(v, bool) or not (isinstance(v, numbers.Real) and 0 < v < np.inf):
            raise DomainError(f"{field} must be positive and finite, got {v}",
                              module="subordination")
    require_int(max_iter, "max_iter", "subordination", 1)


def _defect_tol(tol: float, scale: float) -> float:
    """The target's defect bound, in units of g below scale 1.  With z of
    size sqrt(E), g has size 1 / sqrt(E), and so has the rounding floor of
    its defect: an absolute ``tol`` would sit under that floor at small E."""
    return tol / min(1.0, scale) ** 0.5


def _ladder(scale: float, floor: float) -> tuple:
    """The rungs 10 scale, scale, scale / 10, ... that lie above ``floor``."""
    rungs, rung = [], 10.0 * scale
    while rung > floor:
        rungs.append(rung)
        rung /= 10.0
    return tuple(rungs)


def _newton(column, weights, sigma_sq, shift, omega, big_z, target=False):
    """z(omega) - Z and z'(omega) at the points ``omega`` from one reciprocal
    pass r_k = 1 / (omega - a_k^2) over the atoms a_k^2 in ``column``, with
    what the defect reuses.  With w_k = c_k / d (``weights``),
    s = sum_k w_k r_k, -s' = sum_k w_k r_k^2, u = 1 + sigma^2 s and
    wu = omega u: z = (wu + shift) u and z' = u^2 + sigma^2 s' (2 wu + shift),
    shift = sigma^2 (p/d - 1).  At the ``target`` z is rounded as
    wu u + shift u: rounded as (wu + shift) u, the defect's floor moves and
    more small-sigma models stall above the tolerance.  Returns the gaps
    omega - a_k^2, w_k r_k, s, u, z - Z and z'.
    """
    gap = omega - column
    r = np.reciprocal(gap)
    wr = weights * r
    s = wr.sum(axis=0)
    ds = (wr * r).sum(axis=0)
    u = 1.0 + sigma_sq * s
    wu = omega * u
    z = wu * u + shift * u if target else (wu + shift) * u
    return (gap, wr, s, u, z - big_z,
            u * u - sigma_sq * ds * (2.0 * wu + shift))


def _defect(ratio, shift, gap, wr, u, f, z1, z2, inv_z2):
    """The fixed-point defect of g at the points of ``_newton``'s outputs,
    with the closed-form w1 and w2 it is read at; ``ratio`` is d/p and
    ``inv_z2`` 1 / z2.  The closed-form w solves w = z - sigma^2 eta(g)
    exactly, so the defect |G_A(w) - g| is max(|w2|, (d/p)|w1|) times
    |s(w1 w2) - s(omega)|; as w1 w2 = omega - e, e = (z(omega) - Z) / u^2,
    that difference is |e sum_k w_k r_k / (omega - e - a_k^2)|, free of
    cancellation.  With one reciprocal of u: w2 = z2 / u and
    w1 = (z1 - shift / w2) / u = (z1 - shift u / z2) / u.
    """
    inv_u = np.reciprocal(u)
    e = f * inv_u * inv_u
    w2 = z2 * inv_u
    w1 = (z1 - shift * u * inv_z2) * inv_u
    res = np.maximum(np.abs(w2), ratio * np.abs(w1)) * np.abs(e * (wr / (gap - e)).sum(axis=0))
    return res, w1, w2


def _rung(terms, omega, big_z, bound, max_iter, z=None):
    """Newton's method on z(omega) = Z = ``big_z`` from ``omega``: the loop
    of every rung, one ``_newton`` evaluation per iteration.

    Each iteration retires the points whose own test passes and steps the
    rest.  Above the target (``z`` None), Z = x + i eta on a rung of height
    eta, and a point is done once |z(omega) - Z| <= ``bound``, eta / 10, the
    next rung's height: it only has to start the next rung inside its basin.
    At the target, ``z`` = (z1, z2) with Z = z1 z2, and a point is done once
    its g has a ``_defect`` of at most ``bound``; its g and w are recorded
    then.  A step that would leave the upper half-plane is halved.  When
    every target Z is real (and so negative), the physical omega is real and
    left of the smallest atom, where halving would slow every step that
    reaches the axis: a step that lands left of that atom is projected onto
    the closed upper half-plane instead.  Between atoms z(omega) = Z has
    real roots off the physical branch, so a step that lands there is still
    halved.  Raises NoConvergenceError when a point is still on the rung
    after ``max_iter`` iterations or its step is not finite.  Returns omega,
    g and w (None above the target), the largest defect (0 above the
    target), the iterations and the halved steps.
    """
    atoms, counts, p, d, sigma_sq = terms
    shift = sigma_sq * (p / d - 1)
    kernel = (atoms[:, None].astype(complex), (counts / d)[:, None], sigma_sq, shift)
    target = z is not None
    if target:
        a1, a2 = z
        inv_a2 = 1.0 / a2
    project = target and not np.any(big_z.imag)
    if project:
        def rejected(new):
            return ~((new.imag > 0) | (new.real < atoms[0]))
    else:
        def rejected(new):
            return ~(new.imag > 0)
    omega = omega.copy()
    g1, g2, w1, w2 = (np.empty_like(omega) if target else None for _ in range(4))
    active, om, zs = np.arange(omega.size), omega, big_z
    its = halved = 0
    worst = 0.0
    with np.errstate(all="ignore"):
        while True:
            its += 1
            gap, wr, s, u, f, dz = _newton(*kernel, om, zs, target)
            step = f / dz
            if target:
                res, v1, v2 = _defect(d / p, shift, gap, wr, u, f, a1, a2, inv_a2)
            else:
                res = np.abs(f)
            done = res <= bound
            retired = np.count_nonzero(done)
            if retired:
                idx = active[done]
                omega[idx] = om[done]
                if target:
                    worst = max(worst, float(res[done].max()))
                    g1[idx] = v2[done] * s[done]
                    g2[idx] = ((d / p) * v1[done] * s[done]
                               + (1 - d / p) * u[done] * inv_a2[done])
                    w1[idx], w2[idx] = v1[done], v2[done]
                if retired == done.size:
                    return omega, (g1, g2), (w1, w2), worst, its, halved
                keep = ~done
                active, om, zs, step = active[keep], om[keep], zs[keep], step[keep]
                if target:
                    a1, a2, inv_a2 = a1[keep], a2[keep], inv_a2[keep]
            if its >= max_iter or not np.isfinite(step).all():
                raise NoConvergenceError(
                    f"subordination Newton iteration stopped unconverged after {its} "
                    f"iterations (residual {res.max():.3e})",
                    residual=float(res.max()), iterations=its,
                )
            new = om - step
            off = rejected(new)
            halved += int(np.count_nonzero(off))
            while off.any():
                step[off] /= 2.0
                new[off] = om[off] - step[off]
                off = rejected(new)
            if project:
                new.imag = np.maximum(new.imag, 0.0)
            om = new


def _walk(terms, x, rungs, omega, max_iter):
    """Walk Im Z down ``rungs`` at Z = x + i eta from ``omega``, a point
    leaving each rung when its own test passes.  Returns omega after the
    last rung and the iterations and halved steps on each rung."""
    its, halved = [], []
    for height in rungs:
        omega, _, _, _, n, h = _rung(terms, omega, x + 1j * height, height / 10, max_iter)
        its.append(n)
        halved.append(h)
    return omega, tuple(its), tuple(halved)


# The last ladder spn_density walked: its key (the model's atoms, counts,
# p, d and sigma^2, and the grid's bytes), its rungs, omega after the last
# one, and the iterations and halved steps on each.  Read once per call and
# replaced whole, never mutated, so concurrent calls each see a whole entry;
# a resumed walk returns the bits of a full one, so no caller can tell
# which entry it found.
_last_ladder = None


def _resume(terms, x, rungs, max_iter):
    """``_walk`` at Z = x + i eta from omega = x + i rungs[0], resumed after
    the last ladder walked when the model and grid are the same and its
    rungs start ``rungs``: the rungs depend on neither epsilon nor the
    tolerance, so only the new rungs are walked, with the same bits.  A
    remembered rung that took more than ``max_iter`` iterations is walked
    again, to raise as it would.  Remembers the ladder it returns."""
    global _last_ladder
    atoms, counts, p, d, sigma_sq = terms
    key = (atoms.tobytes(), counts.tobytes(), p, d, sigma_sq, x.tobytes())
    omega, its, halved = x + 1j * rungs[0], (), ()
    last = _last_ladder
    if (last is not None and last[0] == key and last[1] == rungs[:len(last[1])]
            and max(last[3]) <= max_iter):
        omega, its, halved = last[2:]
    omega, more_its, more_halved = _walk(terms, x, rungs[len(its):], omega, max_iter)
    its, halved = its + more_its, halved + more_halved
    _last_ladder = (key, rungs, omega, its, halved)
    return omega, its, halved


def solve_subordination(
    model: SpnModel,
    z: CPoint2,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SubordinationResult:
    """Solve the subordination equation for the embedded sum at one point.

    Z = z1 z2 lies off [0, inf), and z1, z2 and 10 |Z| are finite.  The
    ladder starts at 10 max(E, |Z|) and keeps the rungs above the distance
    from Z to [0, inf), at Re Z + i eta; for Im Z < 0 it solves at the
    conjugate point, as z(omega) has real coefficients.  With sigma = 0 the
    signal transform is returned after a single evaluation.
    Raises NoConvergenceError if some rung takes more than ``max_iter``
    iterations: to come within a tenth of its height of its Z, or, at the
    target, to reach a defect of ``tol`` (``tol / sqrt(E)`` when E < 1, as
    g has size 1 / sqrt(E)).  Raises DomainError unless ``tol`` is positive
    and finite and ``max_iter`` an int of at least 1.
    """
    _require_upper(z)
    if not math.isfinite(10.0 * abs(complex(z.z1) * complex(z.z2))):
        raise DomainError(f"z1 z2 must be finite, and so must ten times its modulus, "
                          f"where the ladder starts; got {z}", module="subordination")
    _check_solver(max_iter, tol=tol)
    terms, scale = _problem(model)
    if model.sigma == 0:
        g = g_lambda_atoms(model.singular_values, model.p, model.d, z)
        return SubordinationResult(g=g, omega=z, iterations=1, residual=0.0)
    z1, z2 = np.array([z.z1], dtype=complex), np.array([z.z2], dtype=complex)
    flip = (z1 * z2).imag[0] < 0
    if flip:
        z1, z2 = z1.conj(), z2.conj()
    big_z = z1 * z2
    x, point = big_z.real, complex(big_z[0])
    floor = point.imag if point.real >= 0 else abs(point)
    rungs = _ladder(max(scale, abs(point)), floor)
    omega, rung_its, _ = _walk(terms, x, rungs, x + 1j * (rungs[0] if rungs else point.imag),
                               max_iter)
    _, g, w, residual, its, _ = _rung(terms, omega, big_z, _defect_tol(tol, scale), max_iter,
                                      (z1, z2))
    g1, g2, w1, w2 = (complex(v[0].conjugate() if flip else v[0]) for v in (*g, *w))
    return SubordinationResult(
        g=CPoint2(g1, g2), omega=CPoint2(w1, w2), iterations=max((*rung_its, its)),
        residual=residual
    )


def spn_density(
    model: SpnModel,
    grid: Sequence[float],
    epsilon: float = 1e-3,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DensityCurve:
    """Spectral density of the signal-plus-noise model on a positive grid.

    Solves at z1 = z2 = sqrt(x + i eps), through the rungs above ``epsilon``
    at Z = x + i eta, and reads the density off by Stieltjes inversion,
    rho(x) = -Im[G_1 / sqrt(x + i eps)] / pi.  Each point leaves a rung
    once its own test passes.  A call on the model and grid of the last
    call, whose rungs start with the last call's, resumes after them and
    returns the same curve, or raises the same error, as a call that walks
    them all.  Raises NoConvergenceError if some point stays on a rung for
    more than ``max_iter`` iterations: to come within a tenth of the rung's
    height of its Z, or, at the target, to reach a defect of ``tol``
    (``tol / sqrt(E)`` when the scale E < 1, as g has size 1 / sqrt(E)).
    Raises DomainError unless the grid is finite, positive and strictly
    ascending, ``epsilon`` and ``tol`` are positive and finite and
    ``max_iter`` an int of at least 1.  Only the absolutely continuous
    regime sigma != 0 is supported; for sigma = 0 the spectrum is atomic
    and covered by the moment route.
    """
    if model.sigma == 0:
        raise SigmaZeroError(
            "sigma = 0 has an atomic spectrum; use models.atomic_moments"
        )
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points",
                          module="subordination")
    if not (np.all(np.isfinite(x)) and np.all(x > 0) and np.all(np.diff(x) > 0)):
        raise DomainError("grid must be finite, positive and strictly ascending",
                          module="subordination")
    _check_solver(max_iter, epsilon=epsilon, tol=tol)

    terms, scale = _problem(model)
    rungs = _ladder(scale, epsilon)
    zeta = np.sqrt(x + 1j * epsilon)
    big_z = zeta * zeta
    omega, rung_its, halved = _resume(terms, x, rungs, max_iter) if rungs else (big_z, (), ())
    _, (g1, _), _, max_res, its, h = _rung(terms, omega, big_z, _defect_tol(tol, scale),
                                           max_iter, (zeta, zeta))
    rung_its += (its,)
    values = np.maximum(-np.imag(g1 / zeta) / np.pi, 0.0)
    mass = float(np.trapezoid(values, x))
    return DensityCurve(
        grid=x,
        values=values,
        epsilon=epsilon,
        mass=mass,
        max_residual=max_res,
        max_iterations=max(rung_its),
        fallback_points=sum(halved) + h,
        rung_iterations=rung_its,
    )


def curve_moment(curve: DensityCurve, k: int) -> float:
    """k-th moment of a density curve by trapezoidal quadrature."""
    return float(np.trapezoid(curve.grid**k * curve.values, curve.grid))


def curve_cdf(curve: DensityCurve) -> np.ndarray:
    """Cumulative integral of the density along its grid."""
    dx = np.diff(curve.grid)
    incr = 0.5 * dx * (curve.values[1:] + curve.values[:-1])
    return np.concatenate(([0.0], np.cumsum(incr)))
