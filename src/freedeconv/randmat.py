"""Finite-dimensional Monte Carlo ground truth for the moment models.

Samples Ginibre blocks, realizes compound Wishart and signal-plus-noise
matrices at finite (p, d), and pools eigenvalue spectra over independent
trials.  Per-trial generators are derived from the master seed through
numpy's SeedSequence spawning, so trial-level parallelism cannot change
the sampled values.
"""

from __future__ import annotations

import numbers
from typing import Callable

import numpy as np

from ._record import Record
from .errors import (
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    NonSelfadjointError,
)
from .models import CwModel, SpnModel

SELFADJOINT_TOL = 1e-10


class GinibreSpec(Record):
    """Sampling plan for a p-by-d matrix of i.i.d. centered Gaussians.

    Each entry has E|Z_ij|^2 = 1/d; complex entries split it evenly between
    real and imaginary parts.
    """

    __slots__ = ("p", "d", "field", "seed")

    def __init__(self, p: int, d: int, field: str = "real", seed: int = 0):
        if field not in ("real", "complex"):
            raise DomainError(
                f"field must be 'real' or 'complex', got {field!r}",
                module="randmat",
            )
        self._init(p, d, field, seed)


class EmpiricalSpectrum(Record):
    """Eigenvalues pooled over trials, with the derived empirical moments."""

    __slots__ = ("eigenvalues", "d", "trials", "moments")

    def __init__(self, eigenvalues: np.ndarray, d: int, trials: int, moments: tuple):
        self._init(eigenvalues, d, trials, moments)


def sample_ginibre(spec: GinibreSpec) -> np.ndarray:
    """Draw the Ginibre matrix described by ``spec``; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    scale = np.sqrt(1.0 / spec.d)
    if spec.field == "real":
        return rng.normal(0.0, scale, size=(spec.p, spec.d))
    half = scale / np.sqrt(2.0)
    return rng.normal(0.0, half, size=(spec.p, spec.d)) + 1j * rng.normal(
        0.0, half, size=(spec.p, spec.d)
    )


def realize_cw(model: CwModel, spec: GinibreSpec) -> np.ndarray:
    """One d-by-d compound Wishart sample Z* diag(v) Z."""
    if (spec.p, spec.d) != (model.p, model.d):
        raise DimensionMismatchError(
            f"spec dimensions ({spec.p},{spec.d}) do not match model "
            f"({model.p},{model.d})",
            module="randmat",
        )
    z = sample_ginibre(spec)
    v = np.asarray([float(x) for x in model.eigenvalues])
    return z.conj().T @ (v[:, None] * z)


def realize_spn(model: SpnModel, spec: GinibreSpec) -> np.ndarray:
    """One d-by-d signal-plus-noise sample (A + sigma Z)*(A + sigma Z).

    The signal is realized as the p-by-d matrix with the singular values on
    its leading diagonal; the spectrum of the product depends on nothing
    else.
    """
    if (spec.p, spec.d) != (model.p, model.d):
        raise DimensionMismatchError(
            f"spec dimensions ({spec.p},{spec.d}) do not match model "
            f"({model.p},{model.d})",
            module="randmat",
        )
    z = sample_ginibre(spec)
    a = np.zeros((model.p, model.d), dtype=z.dtype)
    for i, s in enumerate(model.singular_values):
        a[i, i] = float(s)
    y = a + float(model.sigma) * z
    return y.conj().T @ y


def eigenvalues_selfadjoint(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint matrix.

    The input is symmetrized before the solve; asymmetry beyond tolerance
    raises NonSelfadjointError.
    """
    m = np.asarray(matrix)
    asym = np.max(np.abs(m - m.conj().T))
    scale = 1.0 + np.max(np.abs(m))
    if asym > SELFADJOINT_TOL * scale:
        raise NonSelfadjointError(
            f"matrix is not self-adjoint: max asymmetry {asym:.3e}"
        )
    try:
        return np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue solve failed: {exc}") from exc


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Independent per-trial seeds derived deterministically from the master.

    The master seed must be a non-negative integer.
    """
    if not isinstance(master_seed, numbers.Integral) or master_seed < 0:
        raise DomainError(
            f"master seed must be a non-negative integer, got {master_seed!r}",
            module="randmat",
        )
    state = np.random.SeedSequence(master_seed).generate_state(trials, np.uint64)
    return [int(s) for s in state]


def empirical_spectrum(
    sampler: Callable[[int], np.ndarray],
    trials: int,
    order: int,
    master_seed: int = 0,
) -> EmpiricalSpectrum:
    """Pool eigenvalues of ``trials`` independent samples and compute moments.

    ``sampler`` maps a per-trial seed to one self-adjoint matrix; seeds come
    from :func:`trial_seeds`.  Empirical moment n is the average of the n-th
    powers of all pooled eigenvalues.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}", module="randmat")
    pooled = []
    d = None
    for trial, seed in enumerate(trial_seeds(master_seed, trials)):
        matrix = sampler(seed)
        if d is None:
            d = matrix.shape[0]
        try:
            pooled.append(eigenvalues_selfadjoint(matrix))
        except EigensolverError as exc:
            raise EigensolverError(
                f"trial {trial}: {exc}", trial=trial
            ) from exc
    eigs = np.sort(np.concatenate(pooled))
    moments = tuple(float(np.mean(eigs**n)) for n in range(1, order + 1))
    return EmpiricalSpectrum(eigenvalues=eigs, d=d, trials=trials, moments=moments)


def cw_sampler(model: CwModel, field: str = "real") -> Callable[[int], np.ndarray]:
    """Sampler closure for :func:`empirical_spectrum` over a CW model."""
    spec = GinibreSpec(model.p, model.d, field=field)
    return lambda seed: realize_cw(model, GinibreSpec(spec.p, spec.d, spec.field, seed))


def spn_sampler(model: SpnModel, field: str = "real") -> Callable[[int], np.ndarray]:
    """Sampler closure for :func:`empirical_spectrum` over an SPN model."""
    spec = GinibreSpec(model.p, model.d, field=field)
    return lambda seed: realize_spn(model, GinibreSpec(spec.p, spec.d, spec.field, seed))


def scale_cw_model(model: CwModel, factor: int) -> CwModel:
    """Replicate the spectrum ``factor`` times: same limit law, larger matrices."""
    return CwModel(model.p * factor, model.d * factor, model.eigenvalues * factor)


def scale_spn_model(model: SpnModel, factor: int) -> SpnModel:
    """Replicate the singular values ``factor`` times at fixed aspect ratio."""
    return SpnModel(
        model.p * factor,
        model.d * factor,
        model.singular_values * factor,
        model.sigma,
    )
