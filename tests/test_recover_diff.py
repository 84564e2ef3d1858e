"""The per-input report of tools/recover_diff.py on hand-built outcomes."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "recover_diff.py"
_SPEC = importlib.util.spec_from_file_location("recover_diff", _PATH)
recover_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(recover_diff)

REPORT = {"sigma_sq_hat": 0.25, "atoms": (1.0, 4.0), "search_trace": ((0.25, 0.0),)}
FAILED = ("RecoveryFailedError", "no real candidate")


def test_a_changed_class_names_both_sides():
    assert recover_diff.difference(REPORT, FAILED) == "accepted -> RecoveryFailedError"
    assert recover_diff.difference(FAILED, REPORT) == "RecoveryFailedError -> accepted"


def test_two_rejections_say_whether_the_messages_differ():
    other = ("RecoveryFailedError", "best residual 1.0e+00")
    assert recover_diff.difference(FAILED, other) == (
        "RecoveryFailedError -> RecoveryFailedError; message differs")
    assert recover_diff.difference(FAILED, ("NonrealRootsError", FAILED[1])) == (
        "RecoveryFailedError -> NonrealRootsError; message same")


def test_two_reports_give_the_relative_moves():
    # the fields that differ are named in the report's order
    trace_only = {**REPORT, "search_trace": ((0.25, 0.0), (0.5, 1.0))}
    assert recover_diff.difference(REPORT, trace_only) == (
        "accepted -> accepted; fields: search_trace; sigma^2 moved 0.00e+00, "
        "largest atom moved 0.00e+00")
    moved = {**REPORT, "sigma_sq_hat": 0.5, "atoms": (1.0, 5.0)}
    assert recover_diff.difference(REPORT, moved) == (
        "accepted -> accepted; fields: sigma_sq_hat, atoms; sigma^2 moved 1.00e+00, "
        "largest atom moved 2.50e-01")
    # a change of multiplicities alone moves neither sigma^2 nor an atom
    recount = {**REPORT, "multiplicities": (2,), "search_trace": ()}
    assert recover_diff.difference({**REPORT, "multiplicities": (1, 1)}, recount) == (
        "accepted -> accepted; fields: search_trace, multiplicities; sigma^2 moved "
        "0.00e+00, largest atom moved 0.00e+00")


def test_fields_are_compared_by_repr():
    # 0.0 == -0.0, but same_bits hashes repr, where they differ
    signed = {**REPORT, "atoms": (-0.0, 4.0)}
    assert recover_diff.difference({**REPORT, "atoms": (0.0, 4.0)}, signed) == (
        "accepted -> accepted; fields: atoms; sigma^2 moved 0.00e+00, "
        "largest atom moved 0.00e+00")


def test_two_spectra_give_the_move_of_the_largest_value():
    assert recover_diff.difference((1.0, 2.0), (1.0, 3.0)) == (
        "accepted -> accepted; largest atom moved 5.00e-01")


def test_a_tree_without_the_package_exits_2_naming_it(tmp_path, capsys):
    # the parent's child process fails on import; the change is never run
    with pytest.raises(SystemExit) as exit_info:
        recover_diff.main(["--parent", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"recover_diff: the run on {tmp_path} failed:" in err
    assert "No module named 'freedeconv'" in err
    assert "Traceback" not in err
