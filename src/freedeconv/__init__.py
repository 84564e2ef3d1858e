"""Computational free probability for compound Wishart and signal-plus-noise
random matrix models.

Three independent routes to the same spectra: exact free-probability
algebra on truncated moment series, whose boxed convolution is defined by
sums over non-crossing partitions and computed by a formal subordination
recursion; the C^2-valued subordination equation, reduced to a scalar
equation for the subordination function omega and solved by Newton's
method, with Stieltjes inversion; and finite-dimensional Monte Carlo; plus
recovery of model parameters from moment data by free deconvolution.
"""

import importlib

from .errors import (
    BackendMismatchError,
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    FreeDeconvError,
    InsufficientOrderError,
    MalformedPartitionError,
    NoConvergenceError,
    NonrealRootsError,
    NonSelfadjointError,
    NotInvertibleError,
    OrderMismatchError,
    OrderTooLargeError,
    OrderTooSmallError,
    RecoveryFailedError,
    SigmaZeroError,
)
from .ncpart import (
    NcPartition,
    catalan,
    coef_product,
    enumerate_nc,
    is_noncrossing,
    kreweras,
)
from .series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    boxed_conv,
    boxed_inverse,
    delta_series,
    free_add_conv,
    free_mult_deconv,
    moment_from_r,
    r_transform,
    scale_argument,
    zeta_series,
)
from .models import (
    CwModel,
    IdentifiabilityReport,
    RecoveryReport,
    SpnModel,
    atomic_moments,
    cw_moments,
    cw_r_transform,
    cw_recover_eigenvalues,
    delta_moments,
    f_lambda,
    free_poisson_r,
    spn_decompose,
    spn_moments,
    spn_recover,
    verify_identifiability,
)
__version__ = "0.1.0"

# The analytic and Monte Carlo layers compute with numpy; they are imported
# on first use, so the exact algebra above starts without it.
_LAZY = {
    "subordination": (
        "CPoint2",
        "DensityCurve",
        "SubordinationResult",
        "curve_cdf",
        "curve_moment",
        "eta",
        "g_lambda_atoms",
        "solve_subordination",
        "spn_density",
    ),
    "randmat": (
        "EmpiricalSpectrum",
        "GinibreSpec",
        "cw_sampler",
        "eigenvalues_selfadjoint",
        "empirical_spectrum",
        "realize_cw",
        "realize_spn",
        "sample_ginibre",
        "scale_cw_model",
        "scale_spn_model",
        "spn_sampler",
        "trial_seeds",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})
