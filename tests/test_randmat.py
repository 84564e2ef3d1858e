import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freedeconv.errors import (
    DimensionMismatchError,
    DomainError,
    FreeDeconvError,
    NonSelfadjointError,
)
from freedeconv.models import CwModel, SpnModel, cw_moments, spn_moments
from freedeconv.ncpart import enumerate_nc
from freedeconv.randmat import (
    EmpiricalSpectrum,
    GinibreSpec,
    cw_sampler,
    eigenvalues_selfadjoint,
    empirical_spectrum,
    realize_cw,
    realize_spn,
    sample_ginibre,
    scale_cw_model,
    scale_spn_model,
    spn_sampler,
    trial_seeds,
)


# -------------------------------------------------------------------- sampling

def test_ginibre_same_seed_is_bit_identical():
    spec = GinibreSpec(5, 3, seed=123)
    assert np.array_equal(sample_ginibre(spec), sample_ginibre(spec))


def test_ginibre_moments_real():
    spec = GinibreSpec(400, 250, seed=0)
    z = sample_ginibre(spec)
    n, v = z.size, 1 / spec.d
    se_mean = np.sqrt(v / n)
    assert abs(z.mean()) < 4 * se_mean
    # E|Z|^2 = v within four standard errors (fourth moment 3v^2 for Gaussian)
    se_var = np.sqrt(2.0) * v / np.sqrt(n)
    assert abs(np.mean(z**2) - v) < 4 * se_var


def test_ginibre_moments_complex():
    spec = GinibreSpec(400, 250, field="complex", seed=1)
    z = sample_ginibre(spec)
    assert np.iscomplexobj(z)
    n, v = z.size, 1 / spec.d
    se_var = v / np.sqrt(n)
    assert abs(np.mean(np.abs(z) ** 2) - v) < 4 * se_var


def test_trial_seeds_deterministic_and_distinct():
    seeds = trial_seeds(42, 10)
    assert seeds == trial_seeds(42, 10)
    assert len(set(seeds)) == 10
    assert seeds != trial_seeds(43, 10)
    assert trial_seeds(42, 0) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: GinibreSpec(2, 2, field="bogus"),
        lambda: empirical_spectrum(spn_sampler(SpnModel(2, 2, (1.0, 2.0), 0.5)),
                                   trials=0, order=2),
        lambda: trial_seeds(-1, 3),
        lambda: trial_seeds(0, -1),
        lambda: scale_spn_model(SpnModel(2, 1, (1,), 1), 2.5),
        lambda: scale_cw_model(CwModel(1, 1, (1,)), True),
        lambda: GinibreSpec(2, 1, seed=2.5),
        lambda: GinibreSpec(2, 1, seed=True),
        lambda: GinibreSpec(2, 1, seed=-1),
        lambda: GinibreSpec(2, 1, seed="1"),
        lambda: realize_spn(SpnModel(1, 1, (Fraction(10**400),), 1), GinibreSpec(1, 1)),
        lambda: realize_spn(SpnModel(1, 1, (1,), Fraction(10**400)), GinibreSpec(1, 1)),
        lambda: realize_cw(CwModel(1, 1, (Fraction(10**400),)), GinibreSpec(1, 1)),
    ],
    ids=["bogus-field", "zero-trials", "negative-seed", "negative-trials",
         "spn-factor-float", "cw-factor-bool", "spec-seed-float", "spec-seed-bool",
         "spec-seed-negative", "spec-seed-string", "spn-value-past-float",
         "spn-sigma-past-float", "cw-value-past-float"],
)
def test_bad_arguments_are_domain_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.module == "randmat"


MODEL = SpnModel(2, 2, (1.0, 2.0), 0.5)


@pytest.mark.parametrize("call", [
    lambda: enumerate_nc(2.5),
    lambda: GinibreSpec(-1, 2),
    lambda: GinibreSpec(2.5, 1),
    lambda: spn_moments(MODEL, 2.5),
    lambda: spn_moments(MODEL, True),
    lambda: cw_moments(CwModel(1, 1, (1,)), 3.0),
    lambda: empirical_spectrum(spn_sampler(MODEL), 2.5, 2),
    lambda: empirical_spectrum(spn_sampler(MODEL), 2, 2.5),
    lambda: trial_seeds(0, 2.5),
], ids=["nc-order", "spec-negative", "spec-float", "spn-order-float", "spn-order-bool",
        "cw-order-float", "trials-float", "spectrum-order-float", "seeds-trials-float"])
def test_integer_arguments_pass_the_integer_check(call):
    # every integer argument passes models._check_dimensions' integer check,
    # an int and not a bool, before any work: a domain error, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FreeDeconvError):
            call()


# ---------------------------------------------------------------- realization

def test_realize_cw_zero_and_identity():
    model = CwModel(6, 4, (0.0,) * 6)
    spec = GinibreSpec(6, 4, seed=3)
    assert np.allclose(realize_cw(model, spec), 0.0)
    eye = CwModel(300, 200, (1.0,) * 300)
    w = realize_cw(eye, GinibreSpec(300, 200, seed=4))
    assert np.allclose(w, w.T)
    assert np.trace(w) / 200 == pytest.approx(300 / 200, rel=0.05)


def test_realize_cw_dimension_check():
    with pytest.raises(DimensionMismatchError):
        realize_cw(CwModel(6, 4, (1.0,) * 6), GinibreSpec(5, 4, seed=0))


def test_realize_spn_sigma_zero_is_squared_diagonal():
    model = SpnModel(5, 3, (1.0, 2.0, 3.0), 0.0)
    w = realize_spn(model, GinibreSpec(5, 3, seed=5))
    assert np.allclose(w, np.diag([1.0, 4.0, 9.0]))


def test_realize_spn_zero_signal_is_scaled_wishart():
    model = SpnModel(4, 3, (0.0, 0.0, 0.0), 2.0)
    spec = GinibreSpec(4, 3, seed=6)
    z = sample_ginibre(spec)
    assert np.allclose(realize_spn(model, spec), 4.0 * z.T @ z)


def test_realize_spn_mean_trace():
    model = SpnModel(400, 200, tuple(np.linspace(0, 2, 200)), 0.7)
    lam = 0.5
    expect = float(np.mean(np.linspace(0, 2, 200) ** 2)) + 0.49 / lam
    traces = [
        np.trace(realize_spn(model, GinibreSpec(400, 200, seed=s))) / 200
        for s in range(5)
    ]
    assert np.mean(traces) == pytest.approx(expect, rel=0.03)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("sigma", [0.0, 5e-324, 0.7])
@pytest.mark.parametrize("signal", [0.0, 1.5])
def test_realize_spn_keeps_the_bits_of_a_plus_sigma_z(field, sigma, signal):
    # built in place, the sample matches (A + sigma Z)*(A + sigma Z) formed
    # from a zero matrix bit for bit, the sign of every zero included
    model = SpnModel(7, 7, (signal,) * 7, sigma)
    spec = GinibreSpec(7, 7, field=field, seed=9)
    z = sample_ginibre(spec)
    a = np.zeros(z.shape, dtype=z.dtype)
    np.fill_diagonal(a, model.singular_values)
    y = a + sigma * z
    assert realize_spn(model, spec).tobytes() == (y.conj().T @ y).tobytes()


def test_complex_ginibre_keeps_the_bits_of_r_plus_ix():
    spec = GinibreSpec(6, 5, field="complex", seed=10)
    rng = np.random.default_rng(10)
    half = np.sqrt(1.0 / 5) / np.sqrt(2.0)
    r = rng.normal(0.0, half, size=(6, 5))
    x = rng.normal(0.0, half, size=(6, 5))
    assert sample_ginibre(spec).tobytes() == (r + 1j * x).tobytes()


@pytest.mark.parametrize("field, itemsize", [("real", 8), ("complex", 16)])
@pytest.mark.parametrize("realize, model, arrays", [
    (realize_spn, SpnModel(400, 200, (1.0,) * 200, 0.5), {"real": 1.6, "complex": 2.6}),
    (realize_cw, CwModel(400, 200, (1.0,) * 400), {"real": 2.6, "complex": 3.6}),
], ids=["spn", "cw"])
def test_one_trial_peak_memory(realize, model, arrays, field, itemsize):
    # in units of one p-by-d array: the d-by-d Gram matrix is half of one;
    # SPN builds A + sigma Z in the sample, and a complex one adds the
    # adjoint's copy; CW holds Z and v o Z
    sample_ginibre(GinibreSpec(2, 1, field=field))  # the generator's first-use allocations
    spec = GinibreSpec(model.p, model.d, field=field, seed=3)
    tracemalloc.start()
    try:
        realize(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays[field] * model.p * model.d * itemsize


def test_realize_spn_is_positive_semidefinite():
    model = SpnModel(6, 4, (0.5, 1.0, 1.5, 2.0), 1.2)
    w = realize_spn(model, GinibreSpec(6, 4, field="complex", seed=7))
    eigs = eigenvalues_selfadjoint(w)
    assert np.all(eigs > -1e-12)


# ---------------------------------------------------------------- eigenvalues

def test_eigenvalues_diagonal_and_swap():
    assert np.allclose(
        eigenvalues_selfadjoint(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
    )
    assert np.allclose(
        eigenvalues_selfadjoint(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0]
    )


def test_eigenvalues_trace_preservation():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(40, 40))
    m = (m + m.T) / 2
    eigs = eigenvalues_selfadjoint(m)
    scale = np.abs(m).max()
    assert abs(eigs.sum() - np.trace(m)) <= 1e-9 * max(scale, 1.0) * 40


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(NonSelfadjointError):
        eigenvalues_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("matrix", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, 1.0 + 1j * np.inf]]),
    np.ones((2, 3)),
    np.ones(3),
    np.zeros((0, 0)),
    np.array([["a", "b"], ["b", "a"]]),
    np.eye(2, dtype=bool),
    np.eye(2, dtype=np.float16),
], ids=["nan", "inf", "complex-inf", "not-square", "vector", "empty", "strings", "bool",
        "half-precision"])
def test_eigenvalues_reject_malformed_input(matrix):
    with pytest.raises(DomainError) as info:
        eigenvalues_selfadjoint(matrix)
    assert info.value.module == "randmat"


# ------------------------------------------------------------------- spectrum

def test_empirical_spectrum_single_trial_sigma_zero():
    model = SpnModel(4, 2, (1.0, 2.0), 0.0)
    spec = empirical_spectrum(spn_sampler(model), 1, 2, master_seed=11)
    assert isinstance(spec, EmpiricalSpectrum)
    assert np.allclose(spec.eigenvalues, [1.0, 4.0])
    assert spec.moments[0] == pytest.approx(2.5)


def test_empirical_spectrum_rejects_trials_of_different_sizes():
    with pytest.raises(DimensionMismatchError) as info:
        empirical_spectrum(lambda s: np.eye(2 + s % 2), 3, 2, 1)
    assert info.value.module == "randmat"
    assert str(info.value).startswith("trial 1:")
    assert info.value.trial == 1


@pytest.mark.parametrize("matrix, error, code", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NonSelfadjointError, "non-selfadjoint"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError, "domain"),
], ids=["not-self-adjoint", "nan"])
def test_empirical_spectrum_names_the_trial_of_any_error(matrix, error, code):
    # trial 2 of 3 fails: its error keeps type, code and module
    samples = iter([np.eye(2), np.eye(2), matrix])
    with pytest.raises(error) as info:
        empirical_spectrum(lambda s: next(samples), 3, 2)
    assert type(info.value) is error
    assert (info.value.code, info.value.module) == (code, "randmat")
    assert str(info.value).startswith("trial 2: ")
    assert info.value.trial == 2


def test_empirical_spectrum_standard_wishart_first_moment():
    model = CwModel(200, 200, (1.0,) * 200)
    spec = empirical_spectrum(cw_sampler(model), 20, 2, master_seed=12)
    assert abs(spec.moments[0] - 1.0) < 0.02
    assert len(spec.eigenvalues) == 200 * 20


def test_empirical_moments_converge_with_dimension():
    base = SpnModel(8, 4, (0.5, 1.0, 1.5, 2.0), 0.6)
    predicted = [float(c) for c in spn_moments(base, 3, "float").coeffs]

    def worst_error(factor, trials=8):
        model = scale_spn_model(base, factor)
        emp = empirical_spectrum(spn_sampler(model), trials, 3, master_seed=13)
        return max(
            abs(e - p) / abs(p) for e, p in zip(emp.moments, predicted)
        )

    assert worst_error(100) < worst_error(25) + 0.01


def test_real_and_complex_fields_share_the_limit():
    model = SpnModel(300, 150, tuple(np.linspace(0.2, 1.8, 150)), 0.8)
    real = empirical_spectrum(spn_sampler(model, "real"), 6, 4, master_seed=14)
    cplx = empirical_spectrum(spn_sampler(model, "complex"), 6, 4, master_seed=14)
    for a, b in zip(real.moments, cplx.moments):
        assert abs(a - b) / abs(b) < 0.03


def test_cw_empirical_matches_prediction():
    model = CwModel(400, 200, tuple(np.linspace(0.5, 2.5, 400)))
    predicted = cw_moments(model, 4, "float")
    emp = empirical_spectrum(cw_sampler(model), 15, 4, master_seed=15)
    for e, p in zip(emp.moments, predicted.coeffs):
        assert abs(e - p) / abs(p) < 0.03
