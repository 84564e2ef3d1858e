"""C^2-valued Cauchy transforms and the subordination fixed point for
signal-plus-noise spectra.

A rectangular operator Y embeds in the self-adjoint block matrix
[[0, Y*], [Y, 0]]; tracing the two diagonal blocks separately gives a
Cauchy transform on pairs of complex numbers, mapping the product upper
half-plane H+(C^2) into the lower one.  For Y = A + sigma C with C a free
circular block, the transform G of the embedded sum satisfies the
subordination equation

    G(z) = G_A(z - sigma^2 eta(G(z))),    eta(x, y) = ((p/d) y, x),

where G_A is the closed-form transform of the embedded signal, determined
by the squared singular values of A alone.  Solving the fixed point along
z1 = z2 = sqrt(x + i eps) and applying Stieltjes inversion yields the
spectral density of (A + sigma C)*(A + sigma C).

Damped Picard iteration (Helton, Rashidi Far and Speicher, IMRN 2007)
converges to the physical branch from the signal transform, but its
iteration count grows like 1/eps.  The density therefore runs Picard only
far from the axis and continues the solution towards it with Newton steps
on the analytic 2x2 Jacobian, falling back to Picard for any point Newton
cannot keep in the lower half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NoConvergenceError, SigmaZeroError
from .models import SpnModel

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000
DAMPING = 0.5
EPSILON_LADDER = (0.1, 0.03, 0.01, 0.003, 0.001, 0.0003)
NEWTON_MAX_STEPS = 40


class CPoint2(NamedTuple):
    """A point of C^2; the transform domain is Im z1 > 0 and Im z2 > 0."""

    z1: complex
    z2: complex


@dataclass(frozen=True)
class SubordinationResult:
    """Fixed point of the subordination equation at one spectral parameter.

    ``g`` is the value of the embedded Cauchy transform, ``omega`` the
    subordinated argument the signal transform is evaluated at, and
    ``residual`` the fixed-point defect of ``g``.
    """

    g: CPoint2
    omega: CPoint2
    iterations: int
    residual: float


@dataclass(frozen=True)
class DensityCurve:
    """Spectral density sampled on a positive grid by Stieltjes inversion."""

    grid: np.ndarray
    values: np.ndarray
    epsilon: float
    mass: float
    max_residual: float = 0.0
    max_iterations: int = 0
    fallback_points: int = 0


def _require_upper(z: CPoint2) -> None:
    if not (z.z1.imag > 0 and z.z2.imag > 0):
        raise DomainError(
            f"point {z} is not in the upper half-plane of C^2", module="subordination"
        )


def _squared_atoms(singular_values: Sequence):
    a = np.asarray([float(v) for v in singular_values])
    return np.unique(a * a, return_counts=True)


def _g_atoms(atoms, counts, p, d, z1, z2):
    # Closed-form transform of the embedded signal: with w = z2*z1,
    #   G_1 = (z2/d) sum_k 1/(w - a_k^2)
    #   G_2 = (z1/p) sum_k 1/(w - a_k^2) + (p-d)/(p z2).
    w = z2 * z1
    if np.ndim(z1) == 0:
        s = np.sum(counts / (w - atoms))
    else:
        s = np.sum(counts[:, None] / (w[None, :] - atoms[:, None]), axis=0)
    g1 = z2 * s / d
    g2 = z1 * s / p + (p - d) / (p * z2)
    return g1, g2


def g_lambda_atoms(
    singular_values: Sequence, p: int, d: int, z: CPoint2
) -> CPoint2:
    """Cauchy transform of the embedded signal block at a point of H+(C^2).

    Depends on the signal only through its squared singular values; maps the
    upper half-plane of C^2 into the lower one.
    """
    _require_upper(z)
    atoms, counts = _squared_atoms(singular_values)
    g1, g2 = _g_atoms(atoms, counts, p, d, complex(z.z1), complex(z.z2))
    return CPoint2(complex(g1), complex(g2))


def eta(x: CPoint2, p: int, d: int) -> CPoint2:
    """Variance map of the embedded circular block: (x, y) -> ((p/d) y, x)."""
    return CPoint2((p / d) * x.z2, x.z1)


def _fixed_point(atoms, counts, p, d, sigma_sq, z1, z2, tol, max_iter, g=None):
    """Damped Picard iteration for g = G_A(z - sigma_sq * eta(g)).

    Works elementwise on scalars or numpy arrays; returns the iterate, the
    subordinated argument, the iteration count and the final residual.
    """
    if g is None:
        g = _g_atoms(atoms, counts, p, d, z1, z2)
    g1, g2 = g
    for it in range(1, max_iter + 1):
        w1 = z1 - sigma_sq * (p / d) * g2
        w2 = z2 - sigma_sq * g1
        t1, t2 = _g_atoms(atoms, counts, p, d, w1, w2)
        res = float(np.max(np.maximum(np.abs(t1 - g1), np.abs(t2 - g2))))
        if res <= tol:
            return (g1, g2), (w1, w2), it, res
        g1 = (1.0 - DAMPING) * g1 + DAMPING * t1
        g2 = (1.0 - DAMPING) * g2 + DAMPING * t2
    raise NoConvergenceError(
        f"subordination fixed point did not converge within {max_iter} "
        f"iterations (residual {res:.3e})",
        residual=res,
        iterations=max_iter,
    )


def _in_lower(g1, g2):
    return (g1.imag <= 0) & (g2.imag <= 0) & np.isfinite(g1) & np.isfinite(g2)


def _newton(atoms, counts, p, d, sigma_sq, z1, z2, tol, max_iter, g):
    """Newton's method for g = G_A(z - sigma_sq * eta(g)) on arrays of points.

    Starts from the warm start ``g`` and retires each point once its defect
    max |G_A(w) - g| is at most ``tol``.  With w1 = z1 - sigma_sq (p/d) g2,
    w2 = z2 - sigma_sq g1, w = w1 w2 and S(w) = sum_k c_k / (w - a_k), the
    defect F = (w2 S/d - g1, w1 S/p + (p-d)/(p w2) - g2) has the Jacobian

        dF1/dg1 = dF2/dg2 = -sigma_sq (S + w S')/d - 1,
        dF1/dg2 = -sigma_sq (p/d) w2^2 S'/d,
        dF2/dg1 = -sigma_sq (w1^2 S'/p - (p-d)/(p w2^2)).

    A point whose iterate, the warm start included, is non-finite or
    outside the closed lower half-plane of C^2, or that is still
    unconverged after NEWTON_MAX_STEPS evaluations, is re-solved by
    _fixed_point from its warm start, or from the signal transform where the
    warm start itself lies outside.  Returns the solution, the largest
    residual, the iteration count and the number of points handed to
    _fixed_point.
    """
    g1 = np.array(g[0], dtype=complex)
    g2 = np.array(g[1], dtype=complex)
    residual = np.zeros(g1.shape)
    active = np.arange(g1.size)
    failed = []
    its = 0
    with np.errstate(all="ignore"):
        while active.size:
            its += 1
            a1, a2 = g1[active], g2[active]
            lower = _in_lower(a1, a2)
            failed.append(active[~lower])
            active, a1, a2 = active[lower], a1[lower], a2[lower]
            w1 = z1[active] - sigma_sq * (p / d) * a2
            w2 = z2[active] - sigma_sq * a1
            w = w1 * w2
            inv = 1.0 / (w[None, :] - atoms[:, None])
            weighted = counts[:, None] * inv
            s = weighted.sum(axis=0)
            ds = -(weighted * inv).sum(axis=0)
            f1 = w2 * s / d - a1
            f2 = w1 * s / p + (p - d) / (p * w2) - a2
            res = np.maximum(np.abs(f1), np.abs(f2))
            done = res <= tol
            residual[active[done]] = res[done]
            keep = ~done
            active = active[keep]
            if its == NEWTON_MAX_STEPS:
                failed.append(active)
                break
            a1, a2, f1, f2 = a1[keep], a2[keep], f1[keep], f2[keep]
            w1, w2, w, s, ds = w1[keep], w2[keep], w[keep], s[keep], ds[keep]
            j11 = -sigma_sq * (s + w * ds) / d - 1.0
            j12 = -sigma_sq * (p / d) * w2 * w2 * ds / d
            j21 = -sigma_sq * (w1 * w1 * ds / p - (p - d) / (p * w2 * w2))
            det = j11 * j11 - j12 * j21
            g1[active] = a1 + (j12 * f2 - j11 * f1) / det
            g2[active] = a2 + (j21 * f1 - j11 * f2) / det
    failed = np.concatenate(failed)
    max_res = float(residual.max())
    if failed.size:
        # a warm start outside the lower half-plane could lead Picard to the
        # wrong branch; the signal transform is its safe default start
        h1, h2 = np.asarray(g[0])[failed], np.asarray(g[1])[failed]
        t1, t2 = _g_atoms(atoms, counts, p, d, z1[failed], z2[failed])
        lower = _in_lower(h1, h2)
        (h1, h2), _, fp_its, fp_res = _fixed_point(
            atoms, counts, p, d, sigma_sq, z1[failed], z2[failed], tol, max_iter,
            g=(np.where(lower, h1, t1), np.where(lower, h2, t2)),
        )
        g1[failed], g2[failed] = h1, h2
        its += fp_its
        max_res = max(max_res, fp_res)
    return (g1, g2), max_res, its, int(failed.size)


def solve_subordination(
    model: SpnModel,
    z: CPoint2,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial: CPoint2 | None = None,
) -> SubordinationResult:
    """Solve the subordination equation for the embedded sum at one point.

    With sigma = 0 the transform of the signal itself is returned after a
    single evaluation.  Otherwise damped fixed-point iteration runs from
    the signal transform (or ``initial``) until the defect drops below
    ``tol``; non-convergence raises NoConvergenceError with the last
    residual.
    """
    _require_upper(z)
    atoms, counts = _squared_atoms(model.singular_values)
    sigma_sq = float(model.sigma) ** 2
    g0 = None if initial is None else (complex(initial.z1), complex(initial.z2))
    (g1, g2), (w1, w2), iterations, residual = _fixed_point(
        atoms, counts, model.p, model.d, sigma_sq,
        complex(z.z1), complex(z.z2), tol, max_iter, g=g0,
    )
    return SubordinationResult(
        g=CPoint2(complex(g1), complex(g2)),
        omega=CPoint2(complex(w1), complex(w2)),
        iterations=iterations,
        residual=residual,
    )


def spn_density(
    model: SpnModel,
    grid: Sequence[float],
    epsilon: float = 1e-3,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DensityCurve:
    """Spectral density of the signal-plus-noise model on a positive grid.

    Evaluates the subordination fixed point along z1 = z2 = sqrt(x + i eps)
    and reads the density off the first transform component by Stieltjes
    inversion, rho(x) = -Im[G_1 / sqrt(x + i eps)] / pi.  The offset is
    walked down a ladder from 0.1 to ``epsilon``: damped Picard iteration
    on the first rung selects the physical branch, and every later rung
    takes Newton steps warm-started from the rung before, handing any point
    Newton cannot settle back to Picard.  ``max_iterations`` is the largest
    per-rung iteration count and ``fallback_points`` the number of points
    handed back, summed over rungs.  Only the absolutely continuous regime
    sigma != 0 is supported; for sigma = 0 the spectrum is atomic and
    covered by the moment route.
    """
    if float(model.sigma) == 0.0:
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
    for name, value in (("epsilon", epsilon), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}",
                              module="subordination")

    atoms, counts = _squared_atoms(model.singular_values)
    sigma_sq = float(model.sigma) ** 2
    ladder = [e for e in EPSILON_LADDER if e > epsilon] + [epsilon]
    g = None
    max_res = 0.0
    max_its = 0
    fallback = 0
    for eps in ladder:
        zeta = np.sqrt(x + 1j * eps)
        zeta = np.where(zeta.imag > 0, zeta, -zeta)
        if g is None:
            g, _, its, res = _fixed_point(
                atoms, counts, model.p, model.d, sigma_sq,
                zeta, zeta, tol, max_iter,
            )
        else:
            g, res, its, handed = _newton(
                atoms, counts, model.p, model.d, sigma_sq,
                zeta, zeta, tol, max_iter, g,
            )
            fallback += handed
        max_res = max(max_res, res)
        max_its = max(max_its, its)
    values = np.maximum(-np.imag(g[0] / zeta) / np.pi, 0.0)
    mass = float(np.trapezoid(values, x))
    return DensityCurve(
        grid=x,
        values=values,
        epsilon=epsilon,
        mass=mass,
        max_residual=max_res,
        max_iterations=max_its,
        fallback_points=fallback,
    )


def curve_moment(curve: DensityCurve, k: int) -> float:
    """k-th moment of a density curve by trapezoidal quadrature."""
    return float(np.trapezoid(curve.grid**k * curve.values, curve.grid))


def curve_cdf(curve: DensityCurve) -> np.ndarray:
    """Cumulative integral of the density along its grid."""
    dx = np.diff(curve.grid)
    incr = 0.5 * dx * (curve.values[1:] + curve.values[:-1])
    return np.concatenate(([0.0], np.cumsum(incr)))
