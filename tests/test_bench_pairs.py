"""The gate of tools/bench_pairs.py on hand-built parent/change pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OP_S = {"name": "op_s_p50", "better": "lower", "bound": 0.25}
OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
# ten parent runs 1.00, 1.01, ..., 1.09: inclusive quartiles 1.0225 and
# 1.0675, so an interquartile range of 0.045 around a median of 1.045
PARENT = [1.0 + 0.01 * i for i in range(10)]


def summary(metric, parent, change):
    pairs = [{"parent": {"metrics": {metric["name"]: p}},
              "change": {"metrics": {metric["name"]: c}}}
             for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, [metric])[metric["name"]]


def test_quartiles_of_the_parent_runs():
    out = summary(OP_S, PARENT, PARENT)
    assert out["parent"] == out["change"] == pytest.approx(
        {"q1": 1.0225, "median": 1.045, "q3": 1.0675})
    assert out["parent_iqr"] == pytest.approx(0.045)
    assert out["pairs"] == 10


@pytest.mark.parametrize("ties, holds", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, holds):
    # a gain needs nine wins in ten pairs; a tied pair is no win
    change = [p if i < ties else p / 2 for i, p in enumerate(PARENT)]
    out = summary(OP_S, PARENT, change)
    assert out["change_wins"] == 10 - ties
    assert out["gain_holds"] is holds


@pytest.mark.parametrize("saving, holds", [(0.04, False), (0.05, True)])
def test_gain_must_exceed_the_parent_iqr(saving, holds):
    # every pair wins, but a median move inside the parent's spread of
    # 0.045 proves nothing
    out = summary(OP_S, PARENT, [p - saving for p in PARENT])
    assert out["change_wins"] == 10
    assert out["relative_gain"] == pytest.approx(saving / 1.045)
    assert out["gain_holds"] is holds


@pytest.mark.parametrize("metric, factor, within", [
    (OP_S, 1.2, True), (OP_S, 1.3, False), (OPS, 0.8, True), (OPS, 0.7, False),
])
def test_within_bound_follows_the_metric_direction(metric, factor, within):
    out = summary(metric, PARENT, [p * factor for p in PARENT])
    assert out["within_bound"] is within
    assert out["change_wins"] == 0 and out["gain_holds"] is False


def test_steady_holds_each_side_to_its_own_median():
    assert summary(OP_S, PARENT, [p / 2 for p in PARENT])["steady"]
    # the same absolute spread as the parent's is too wide around a median
    # of 0.145: 0.045 > 0.25 * 0.145
    faster = [0.1 + 0.01 * i for i in range(10)]
    out = summary(OP_S, PARENT, faster)
    assert out["change_iqr"] == pytest.approx(0.045)
    assert out["gain_holds"] and not out["steady"]
    # a parent whose quartiles are 1 and 2 cannot tell the sides apart
    assert not summary(OP_S, [1.0] * 5 + [2.0] * 5, PARENT)["steady"]
