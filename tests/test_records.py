"""The contract of the package's immutable value classes: each behaves as the
frozen dataclass it replaced, in repr, equality, hashing, immutability,
pickling, copying and construction."""

import copy
import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest

from freedeconv.models import CwModel, IdentifiabilityReport, RecoveryReport, SpnModel
from freedeconv.ncpart import NcPartition
from freedeconv.randmat import EmpiricalSpectrum, GinibreSpec
from freedeconv.series import MomentSeries
from freedeconv.subordination import CPoint2, DensityCurve, SubordinationResult

# each value built by keyword, and its repr as the dataclass printed it
RECORDS = {
    "MomentSeries": (
        lambda: MomentSeries(coeffs=(Fraction(1, 2), 3)),
        "MomentSeries(coeffs=(Fraction(1, 2), Fraction(3, 1)), scalar_kind='rational')"),
    "CwModel": (
        lambda: CwModel(p=2, d=1, eigenvalues=(Fraction(3, 2), -1)),
        "CwModel(p=2, d=1, eigenvalues=(-1, Fraction(3, 2)))"),
    "SpnModel": (
        lambda: SpnModel(p=4, d=2, singular_values=(1, 2)),
        "SpnModel(p=4, d=2, singular_values=(1, 2), sigma=0.0)"),
    "RecoveryReport": (
        lambda: RecoveryReport(
            sigma_sq_hat=0.25, atom_moments=MomentSeries((1,)), atoms=(1.0,), residual=0.0,
            search_trace=((0.25, 0.0),), misfits=(0.0,), sigma_sq_exact=Fraction(1, 4),
            multiplicities=(1,)),
        "RecoveryReport(sigma_sq_hat=0.25, atom_moments=MomentSeries(coeffs=(Fraction(1, "
        "1),), scalar_kind='rational'), atoms=(1.0,), residual=0.0, search_trace=((0.25, "
        "0.0),), misfits=(0.0,), sigma_sq_exact=Fraction(1, 4), multiplicities=(1,))"),
    "IdentifiabilityReport": (
        lambda: IdentifiabilityReport(identical=True, first_divergent_order=None),
        "IdentifiabilityReport(identical=True, first_divergent_order=None, "
        "coefficient_a=None, coefficient_b=None)"),
    "NcPartition": (
        lambda: NcPartition(n=3, blocks=((2,), (1, 3))),
        "NcPartition(n=3, blocks=((1, 3), (2,)))"),
    "SubordinationResult": (
        lambda: SubordinationResult(g=CPoint2(1j, 2j), omega=CPoint2(1 + 1j, 1j),
                                    iterations=3, residual=1e-13),
        "SubordinationResult(g=CPoint2(z1=1j, z2=2j), omega=CPoint2(z1=(1+1j), z2=1j), "
        "iterations=3, residual=1e-13)"),
    "DensityCurve": (
        lambda: DensityCurve(grid=np.array([1.0, 2.0]), values=np.array([0.5, 0.25]),
                             epsilon=1e-3, mass=0.75),
        "DensityCurve(grid=array([1., 2.]), values=array([0.5 , 0.25]), epsilon=0.001, "
        "mass=0.75, max_residual=0.0, max_iterations=0, fallback_points=0, "
        "rung_iterations=())"),
    "GinibreSpec": (
        lambda: GinibreSpec(p=3, d=2),
        "GinibreSpec(p=3, d=2, field='real', seed=0)"),
    "EmpiricalSpectrum": (
        lambda: EmpiricalSpectrum(eigenvalues=np.array([0.5]), d=1, trials=2, moments=(0.5,)),
        "EmpiricalSpectrum(eigenvalues=array([0.5]), d=1, trials=2, moments=(0.5,))"),
}

# the constructor signatures: names, order and defaults
SIGNATURES = {
    "MomentSeries": "(coeffs, scalar_kind='rational')",
    "CwModel": "(p, d, eigenvalues)",
    "SpnModel": "(p, d, singular_values, sigma=0.0)",
    "RecoveryReport": "(sigma_sq_hat, atom_moments, atoms, residual, search_trace, misfits, "
                      "sigma_sq_exact, multiplicities)",
    "IdentifiabilityReport": "(identical, first_divergent_order, coefficient_a=None, "
                             "coefficient_b=None)",
    "NcPartition": "(n, blocks)",
    "SubordinationResult": "(g, omega, iterations, residual)",
    "DensityCurve": "(grid, values, epsilon, mass, max_residual=0.0, max_iterations=0, "
                    "fallback_points=0, rung_iterations=())",
    "GinibreSpec": "(p, d, field='real', seed=0)",
    "EmpiricalSpectrum": "(eigenvalues, d, trials, moments)",
}
# numpy arrays compare elementwise and do not hash, as in the dataclasses
WITH_ARRAYS = {"DensityCurve", "EmpiricalSpectrum"}


def fields_equal(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a._values(), b._values()))


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    build, text = RECORDS[name]
    value = build()
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", RECORDS)
def test_signature_keeps_names_order_and_defaults(name):
    cls = type(RECORDS[name][0]())
    params = list(inspect.signature(cls).parameters.values())
    text = "(" + ", ".join(
        p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default!r}"
        for p in params) + ")"
    assert text == SIGNATURES[name]
    assert cls.__slots__ == tuple(p.name for p in params)


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_within_one_class(name):
    build = RECORDS[name][0]
    a, b = build(), build()
    cls = type(a)
    subclass = type("Sub" + name, (cls,), {"__slots__": ()})
    other = object.__new__(subclass)
    other._init(*a._values())
    if name in WITH_ARRAYS:
        assert a == a and fields_equal(a, b)
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(a._values())
    # a subclass, the bare field values and other objects are never equal
    assert a != other and other != a
    assert a != a._values() and a != object()


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = RECORDS[name][0]()
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trip(name):
    value = RECORDS[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert fields_equal(twin, value)
        assert repr(twin) == repr(value)


def test_validation_runs_in_the_constructor():
    from freedeconv.errors import (
        DimensionMismatchError,
        DomainError,
        MalformedPartitionError,
        OrderMismatchError,
    )

    with pytest.raises(DimensionMismatchError):
        CwModel(p=2, d=1, eigenvalues=(1,))
    with pytest.raises(DimensionMismatchError):
        SpnModel(p=1, d=2, singular_values=(1, 2))
    with pytest.raises(OrderMismatchError):
        MomentSeries(coeffs=())
    with pytest.raises(MalformedPartitionError):
        NcPartition(n=4, blocks=((1, 3), (2, 4)))
    with pytest.raises(DomainError):
        GinibreSpec(p=3, d=2, field="quaternion")
