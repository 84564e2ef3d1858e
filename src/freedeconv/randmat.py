"""Finite-dimensional Monte Carlo ground truth for the moment models.

Samples Ginibre blocks, realizes compound Wishart and signal-plus-noise
matrices at finite (p, d), and pools eigenvalue spectra over independent
trials.  Per-trial generators are derived from the master seed through
numpy's SeedSequence spawning, so trial-level parallelism cannot change
the sampled values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._record import Record
from .errors import (
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    FreeDeconvError,
    NonSelfadjointError,
    require_int,
)
from .models import CwModel, SpnModel, _check_dimensions
from .series import FLOAT, _coerce

SELFADJOINT_TOL = 1e-10


class GinibreSpec(Record):
    """Sampling plan for a p-by-d matrix of i.i.d. centered Gaussians.

    Each entry has E|Z_ij|^2 = 1/d; complex entries split it evenly between
    real and imaginary parts.
    """

    __slots__ = ("p", "d", "field", "seed")

    def __init__(self, p: int, d: int, field: str = "real", seed: int = 0):
        _check_dimensions(p, d, "randmat")
        require_int(seed, "seed", "randmat", 0)
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
    """Draw the Ginibre matrix described by ``spec``; deterministic per seed.

    A complex sample is one array: the real parts are drawn into it first,
    then the imaginary parts.
    """
    rng = np.random.default_rng(spec.seed)
    scale = np.sqrt(1.0 / spec.d)
    shape = (spec.p, spec.d)
    if spec.field == "real":
        return rng.normal(0.0, scale, size=shape)
    half = scale / np.sqrt(2.0)
    z = np.empty(shape, dtype=complex)
    z.real = rng.normal(0.0, half, size=shape)
    z.imag = rng.normal(0.0, half, size=shape)
    return z


def _sample_for(model, spec: GinibreSpec) -> np.ndarray:
    """``sample_ginibre(spec)`` once the spec's (p, d) match the model's."""
    if (spec.p, spec.d) != (model.p, model.d):
        raise DimensionMismatchError(
            f"spec dimensions ({spec.p},{spec.d}) do not match model "
            f"({model.p},{model.d})",
            module="randmat",
        )
    return sample_ginibre(spec)


def realize_cw(model: CwModel, spec: GinibreSpec) -> np.ndarray:
    """One d-by-d compound Wishart sample Z* diag(v) Z.

    It holds two p-by-d arrays besides the Gram matrix, Z and v o Z, and a
    complex one a third for the adjoint's copy.
    """
    z = _sample_for(model, spec)
    v = np.asarray([_coerce(x, FLOAT, "randmat") for x in model.eigenvalues])
    return z.conj().T @ (v[:, None] * z)


def realize_spn(model: SpnModel, spec: GinibreSpec) -> np.ndarray:
    """One d-by-d signal-plus-noise sample (A + sigma Z)*(A + sigma Z).

    The signal is realized as the p-by-d matrix with the singular values on
    its leading diagonal; the spectrum of the product depends on nothing
    else.  A + sigma Z is built in the sample itself: Z is scaled by sigma
    and the singular values are added to its leading diagonal in place.
    """
    y = _sample_for(model, spec)
    values = [_coerce(s, FLOAT, "randmat") for s in model.singular_values]
    np.multiply(_coerce(model.sigma, FLOAT, "randmat"), y, out=y)
    # the zeros of A, added as A + sigma Z adds them: a -0.0 of sigma Z turns +0.0
    y += 0.0
    diagonal = np.arange(model.d)
    y[diagonal, diagonal] += values
    return y.conj().T @ y


def _adjoint(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """m* of a square ``m``: a view of a real m, or conj(m^T) written into ``out``."""
    return np.conjugate(m.T, out=out) if np.iscomplexobj(m) else m.T


def eigenvalues_selfadjoint(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint matrix.

    The input must be a non-empty square numeric matrix of finite entries,
    or a DomainError is raised before any arithmetic.  Asymmetry beyond
    tolerance raises NonSelfadjointError.  The check and the symmetrized
    matrix (m + m*)/2 that is solved share one scratch matrix, written in
    place.
    """
    m = np.asarray(matrix)
    # (m + m*)/2 has m's type promoted by the float 2.0, and the solver takes
    # single and double precision, real and complex
    dtype = np.result_type(m, 2.0) if m.dtype.kind in "iufc" else m.dtype
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size or dtype.char not in "fdFD":
        raise DomainError(
            f"expected a non-empty square numeric matrix, got shape {m.shape} "
            f"of {m.dtype}",
            module="randmat",
        )
    scratch = np.empty(m.shape, dtype=dtype)
    peak = np.max(np.abs(m, out=scratch).real)
    if not np.isfinite(peak):
        raise DomainError("matrix has a non-finite entry", module="randmat")
    np.subtract(m, _adjoint(m, scratch), out=scratch)
    asym = np.max(np.abs(scratch, out=scratch).real)
    if asym > SELFADJOINT_TOL * (1.0 + peak):
        raise NonSelfadjointError(
            f"matrix is not self-adjoint: max asymmetry {asym:.3e}"
        )
    np.add(m, _adjoint(m, scratch), out=scratch)
    scratch /= 2.0
    try:
        return np.linalg.eigvalsh(scratch)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue solve failed: {exc}") from exc


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Independent per-trial seeds derived deterministically from the master.

    The master seed and ``trials`` must be non-negative integers.
    """
    require_int(master_seed, "master seed", "randmat", 0)
    require_int(trials, "trials", "randmat", 0)
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
    powers of all pooled eigenvalues.  An error of trial k keeps its type,
    code and module; its message starts "trial k:" and its ``trial`` is k.
    """
    require_int(order, "order", "randmat")
    seeds = trial_seeds(master_seed, trials)
    if not seeds:
        raise DomainError(f"need at least one trial, got {trials}", module="randmat")
    pooled = []
    for trial, seed in enumerate(seeds):
        try:
            eigs = eigenvalues_selfadjoint(sampler(seed))
            if pooled and len(eigs) != len(pooled[0]):
                raise DimensionMismatchError(
                    f"sample is {len(eigs)}-by-{len(eigs)}, "
                    f"trial 0's is {len(pooled[0])}-by-{len(pooled[0])}",
                    module="randmat",
                )
        except FreeDeconvError as exc:
            # the error keeps its type, code and module, and names its trial
            exc.args, exc.trial = (f"trial {trial}: {exc}",), trial
            raise
        pooled.append(eigs)
    d = len(pooled[0])
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
    require_int(factor, "factor", "randmat")
    return CwModel(model.p * factor, model.d * factor, model.eigenvalues * factor)


def scale_spn_model(model: SpnModel, factor: int) -> SpnModel:
    """Replicate the singular values ``factor`` times at fixed aspect ratio."""
    require_int(factor, "factor", "randmat")
    return SpnModel(
        model.p * factor,
        model.d * factor,
        model.singular_values * factor,
        model.sigma,
    )
