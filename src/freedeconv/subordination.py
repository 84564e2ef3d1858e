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
from omega = Z; a step that would leave the upper half-plane, and with it
the physical branch, is halved.  One Newton loop runs every rung, and a
point leaves a rung as soon as its own test passes.  A rung above the
target only has to start the next one inside its basin: at height h a point
leaves once |z(omega) - Z| <= h / 10, the next rung's height.  Only the
target tests the fixed-point defect of G against the tolerance.  Stieltjes
inversion along z1 = z2 = sqrt(x + i eps) gives the density of
(A + sigma C)*(A + sigma C).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple, Sequence

import numpy as np

from ._record import Record
from .errors import DomainError, NoConvergenceError, SigmaZeroError
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
    if not (z.z1.imag > 0 and z.z2.imag > 0):
        raise DomainError(
            f"point {z} is not in the upper half-plane of C^2", module="subordination"
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
    upper half-plane of C^2 into the lower one.
    """
    _require_upper(z)
    a = np.asarray([float(v) for v in singular_values])
    atoms, counts = np.unique(a * a, return_counts=True)
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


def _check_solver(tol, max_iter) -> None:
    """Raises DomainError unless ``tol`` is positive and finite and
    ``max_iter`` an int of at least 1; a bool is neither."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise DomainError(f"tol must be positive and finite, got {tol}", module="subordination")
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral)
                                          and max_iter >= 1):
        raise DomainError(f"max_iter must be an int of at least 1, got {max_iter!r}",
                          module="subordination")


def _defect_tol(tol: float, scale: float) -> float:
    """The target's defect bound, in units of g below scale 1.  With z of
    size sqrt(E), g has size 1 / sqrt(E), and so has the rounding floor of
    its defect: an absolute ``tol`` would sit under that floor at small E."""
    return tol / min(1.0, scale) ** 0.5


def _ladder(scale: float, floor: float) -> list:
    """The rungs 10 scale, scale, scale / 10, ... that lie above ``floor``."""
    rungs, rung = [], 10.0 * scale
    while rung > floor:
        rungs.append(rung)
        rung /= 10.0
    return rungs


def _newton(terms, omega, big_z):
    """z(omega) - Z and the Newton step at the points ``omega``, with what
    the defect reuses: the gaps omega - a_k^2, the weights
    c_k / (omega - a_k^2), s(omega) and u = 1 + sigma^2 s."""
    atoms, counts, p, d, sigma_sq = terms
    shift = sigma_sq * (p / d - 1)
    gap = omega[None, :] - atoms[:, None]
    weighted = counts[:, None] / gap
    s = weighted.sum(axis=0) / d
    ds = -(weighted / gap).sum(axis=0) / d
    u = 1.0 + sigma_sq * s
    f = omega * u * u + shift * u - big_z
    step = f / (u * u + sigma_sq * ds * (2.0 * omega * u + shift))
    return f, step, gap, weighted, s, u


def _rung(terms, z1, z2, omega, height, tol, max_iter):
    """Newton's method on z(omega) = Z from ``omega``: the loop of every rung.

    Each iteration retires the points whose own test passes and steps the
    rest.  On a rung above the target, Z = Re(z1 z2) + i ``height`` and a
    point is done once |z(omega) - Z| <= height / 10, the next rung's
    height: it only has to start the next rung inside its basin.  At the
    target (``height`` None), Z = z1 z2 and a point is done once its g has a
    fixed-point defect of at most ``tol``; its g and w are recorded then.
    The closed-form w solves w = z - sigma^2 eta(g) exactly, so the defect
    |G_A(w) - g| is max(|w2|, (d/p)|w1|) times |s(w1 w2) - s(omega)|; as
    w1 w2 = omega - e, e = (z(omega) - Z) / u^2 with u = 1 + sigma^2 s, that
    difference is |e sum_k c_k / (d (omega - a_k^2)(omega - e - a_k^2))|,
    free of cancellation.  A step that would leave the upper half-plane is
    halved.  When every target Z is real (and so negative), the physical
    omega is real and left of the smallest atom, where halving would slow
    every step that reaches the axis: a step that lands left of that atom
    is projected onto the closed upper half-plane instead.  Between atoms
    z(omega) = Z has real roots off the physical branch, so a step that
    lands there is still halved.  Raises NoConvergenceError when a point is
    still on the rung after ``max_iter`` iterations or its step is not
    finite.  Returns omega, g and w (None above the target), the largest
    defect (0 above the target), the iterations and the halved steps.
    """
    atoms, _, p, d, sigma_sq = terms
    shift = sigma_sq * (p / d - 1)
    target = height is None
    big_z = z1 * z2 if target else (z1 * z2).real + 1j * height
    project = target and not np.any(big_z.imag)
    if project:
        def rejected(new):
            return ~((new.imag > 0) | (new.real < atoms[0]))
    else:
        def rejected(new):
            return ~(new.imag > 0)
    omega = omega.copy()
    g1, g2, w1, w2 = (np.empty_like(omega) if target else None for _ in range(4))
    active, om, zs, a1, a2 = np.arange(omega.size), omega, big_z, z1, z2
    its = halved = 0
    worst = 0.0
    with np.errstate(all="ignore"):
        while True:
            its += 1
            f, step, gap, weighted, s, u = _newton(terms, om, zs)
            if target:
                e = f / (u * u)
                v2 = a2 / u
                v1 = (a1 - shift / v2) / u
                res = np.maximum(np.abs(v2), (d / p) * np.abs(v1)) * np.abs(
                    e * (weighted / (gap - e[None, :])).sum(axis=0) / d
                )
                done = res <= tol
            else:
                res = np.abs(f)
                done = res <= height / 10
            retired = np.count_nonzero(done)
            if retired:
                idx = active[done]
                omega[idx] = om[done]
                if target:
                    worst = max(worst, float(res[done].max()))
                    g1[idx] = v2[done] * s[done]
                    g2[idx] = (d / p) * v1[done] * s[done] + (1 - d / p) / v2[done]
                    w1[idx], w2[idx] = v1[done], v2[done]
                if retired == done.size:
                    return omega, (g1, g2), (w1, w2), worst, its, halved
                keep = ~done
                active, om, zs, step = active[keep], om[keep], zs[keep], step[keep]
                if target:
                    a1, a2 = a1[keep], a2[keep]
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


def _walk(terms, z1, z2, rungs, tol, max_iter):
    """Solve at the points (z1, z2), walking Im Z down ``rungs`` first.

    Each rung runs ``_rung`` from the omega the last one left, the first
    from omega = Re(z1 z2) + i rungs[0], and a point leaves a rung when its
    own test passes.  Returns g, w, the largest defect, the iterations on
    each rung with the target's last, and the halved steps summed over rungs.
    """
    x = (z1 * z2).real
    omega = x + 1j * (rungs[0] if rungs else (z1 * z2).imag)
    rung_its, halved = [], 0
    for height in (*rungs, None):
        omega, g, w, res, its, h = _rung(terms, z1, z2, omega, height, tol, max_iter)
        rung_its.append(its)
        halved += h
    return g, w, res, tuple(rung_its), halved


def solve_subordination(
    model: SpnModel,
    z: CPoint2,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SubordinationResult:
    """Solve the subordination equation for the embedded sum at one point.

    Z = z1 z2 lies off [0, inf).  The ladder starts at 10 max(E, |Z|) and
    keeps the rungs above the distance from Z to [0, inf); for Im Z < 0 it
    solves at the conjugate point, as z(omega) has real coefficients.  With
    sigma = 0 the signal transform is returned after a single evaluation.
    Raises NoConvergenceError if some rung takes more than ``max_iter``
    iterations: to come within a tenth of its height of its Z, or, at the
    target, to reach a defect of ``tol`` (``tol / sqrt(E)`` when E < 1, as
    g has size 1 / sqrt(E)).  Raises DomainError unless ``tol`` is positive
    and finite and ``max_iter`` an int of at least 1.
    """
    _require_upper(z)
    _check_solver(tol, max_iter)
    terms, scale = _problem(model)
    if model.sigma == 0:
        g = g_lambda_atoms(model.singular_values, model.p, model.d, z)
        return SubordinationResult(g=g, omega=z, iterations=1, residual=0.0)
    z1, z2 = np.array([z.z1], dtype=complex), np.array([z.z2], dtype=complex)
    flip = (z1 * z2).imag[0] < 0
    if flip:
        z1, z2 = z1.conj(), z2.conj()
    big_z = complex(z1[0] * z2[0])
    floor = big_z.imag if big_z.real >= 0 else abs(big_z)
    g, w, residual, rung_its, _ = _walk(
        terms, z1, z2, _ladder(max(scale, abs(big_z)), floor), _defect_tol(tol, scale),
        max_iter
    )
    g1, g2, w1, w2 = (complex(v[0].conjugate() if flip else v[0]) for v in (*g, *w))
    return SubordinationResult(
        g=CPoint2(g1, g2), omega=CPoint2(w1, w2), iterations=max(rung_its),
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

    Solves at z1 = z2 = sqrt(x + i eps), through the rungs above ``epsilon``,
    and reads the density off by Stieltjes inversion,
    rho(x) = -Im[G_1 / sqrt(x + i eps)] / pi.  Each point leaves a rung
    once its own test passes.  Raises NoConvergenceError if some point
    stays on a rung for more than ``max_iter`` iterations: to come within a
    tenth of the rung's height of its Z, or, at the target, to reach a
    defect of ``tol`` (``tol / sqrt(E)`` when the scale E < 1, as g has size
    1 / sqrt(E)).  Raises DomainError unless ``epsilon`` and ``tol`` are
    positive and finite and ``max_iter`` an int of at least 1.  Only the
    absolutely continuous regime sigma != 0 is supported; for sigma = 0 the
    spectrum is atomic and covered by the moment route.
    """
    if model.sigma == 0:
        raise SigmaZeroError(
            "sigma = 0 has an atomic spectrum; use models.atomic_moments"
        )
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points",
                          module="subordination")
    if not (np.all(x > 0) and np.all(np.diff(x) > 0)):
        raise DomainError("grid must be positive and strictly ascending",
                          module="subordination")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}",
                          module="subordination")
    _check_solver(tol, max_iter)

    terms, scale = _problem(model)
    zeta = np.sqrt(x + 1j * epsilon)
    (g1, _), _, max_res, rung_its, halved = _walk(
        terms, zeta, zeta, _ladder(scale, epsilon), _defect_tol(tol, scale), max_iter
    )
    values = np.maximum(-np.imag(g1 / zeta) / np.pi, 0.0)
    mass = float(np.trapezoid(values, x))
    return DensityCurve(
        grid=x,
        values=values,
        epsilon=epsilon,
        mass=mass,
        max_residual=max_res,
        max_iterations=max(rung_its),
        fallback_points=halved,
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
