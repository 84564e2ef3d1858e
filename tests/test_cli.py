import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freedeconv.cli import main
from freedeconv.models import CwModel, SpnModel, cw_r_transform, spn_moments, spn_recover
from freedeconv.series import FLOAT, RATIONAL, MomentSeries


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def spn_model_file(tmp_path):
    return write_json(
        tmp_path / "spn.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.5},
    )


@pytest.fixture
def cw_model_file(tmp_path):
    return write_json(
        tmp_path / "cw.json", {"p": 3, "d": 2, "eigenvalues": [1, 2, 3]}
    )


# -------------------------------------------------------------------------- nc

def test_nc_lists_partitions(capsys):
    assert main(["nc", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 5
    assert [[1, 2, 3]] in payload


def test_nc_with_kreweras(capsys):
    assert main(["nc", "--n", "4", "--kreweras"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 14
    by_partition = {
        json.dumps(entry["partition"]): entry["kreweras"] for entry in payload
    }
    assert by_partition[json.dumps([[1, 3], [2], [4]])] == [[1, 2], [3, 4]]


def test_nc_respects_env_guard(capsys, monkeypatch, spn_model_file):
    monkeypatch.setenv("FREEDECONV_MAX_NC_ORDER", "3")
    assert main(["nc", "--n", "4"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "order-too-large"
    assert err["module"] == "ncpart"
    # the guard bounds enumeration only; the series algebra enumerates nothing
    assert main(["spn-moments", "--model", spn_model_file, "--order", "8"]) == 0


# -------------------------------------------------------------------- convolve

def test_convolve_boxed_unit(tmp_path, capsys):
    delta = write_json(
        tmp_path / "delta.json",
        {"order": 4, "coeffs": ["1/1", "0/1", "0/1", "0/1"], "scalar": "rational"},
    )
    g = MomentSeries((Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(0)))
    g_file = write_json(tmp_path / "g.json", g.to_dict())
    assert main(["convolve", "boxed", "--f", g_file, "--g", delta]) == 0
    out = MomentSeries.from_dict(json.loads(capsys.readouterr().out))
    assert out == g


def test_convolve_deconv_self_is_geometric_ones(tmp_path, capsys):
    f = MomentSeries((Fraction(3), Fraction(1), Fraction(4)))
    f_file = write_json(tmp_path / "f.json", f.to_dict())
    assert main(["convolve", "deconv", "--f", f_file, "--g", f_file]) == 0
    out = MomentSeries.from_dict(json.loads(capsys.readouterr().out))
    assert out.coeffs == (1, 1, 1)


# ----------------------------------------------------------------- cw pipeline

def test_cw_pipeline_moments_rtransform_recover(tmp_path, capsys):
    cw_file = write_json(
        tmp_path / "cw.json", {"p": 3, "d": 3, "eigenvalues": [1.0, 2.0, 3.0]}
    )
    mom_file = tmp_path / "mom.json"
    assert main(
        ["cw-moments", "--model", cw_file, "--order", "5",
         "--backend", "float", "--out", str(mom_file)]
    ) == 0
    r_file = tmp_path / "r.json"
    assert main(
        ["convolve", "rtransform", "--f", str(mom_file), "--out", str(r_file)]
    ) == 0
    assert main(["cw-recover", "--r", str(r_file), "--p", "3", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eigenvalues"] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)


# ---------------------------------------------------------------- spn pipeline

def test_spn_pipeline_moments_recover(tmp_path, spn_model_file, capsys):
    mom_file = tmp_path / "mom.json"
    assert main(
        ["spn-moments", "--model", spn_model_file, "--order", "6",
         "--backend", "float", "--out", str(mom_file)]
    ) == 0
    assert main(
        ["spn-recover", "--moments", str(mom_file), "--p", "4", "--d", "2"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_sq_hat"] == pytest.approx(0.25, abs=1e-6)
    # the float moments of this model are exact, so sigma^2 comes out exact
    assert report["sigma_sq_exact"] == "1/4"
    assert report["atoms"] == pytest.approx([1.0, 4.0], abs=1e-6)
    assert report["multiplicities"] == [1, 1]
    assert len(report["misfits"]) == 6 - 2  # orders d+1..N
    assert max(report["misfits"]) < 1e-10


def test_spn_moments_rational_backend_matches_library(spn_model_file, capsys):
    assert main(["spn-moments", "--model", spn_model_file, "--order", "4"]) == 0
    out = MomentSeries.from_dict(json.loads(capsys.readouterr().out))
    model = SpnModel(4, 2, (1, 2), 0.5)
    assert out == spn_moments(model, 4)


def test_spn_moments_order_20_pure_noise_is_narayana(tmp_path, capsys):
    p, d, sigma = 6, 2, Fraction(1, 2)
    model = write_json(
        tmp_path / "noise.json",
        {"p": p, "d": d, "singular_values": [0, 0], "sigma": "1/2"},
    )
    assert main(["spn-moments", "--model", model, "--order", "20"]) == 0
    out = MomentSeries.from_dict(json.loads(capsys.readouterr().out))
    # m_n = sigma^(2n) sum_k N(n, k) (p/d)^k, N(n, k) the Narayana numbers
    assert out.coeffs == tuple(
        sigma ** (2 * n)
        * sum(comb(n, k) * comb(n, k - 1) // n * Fraction(p, d) ** k
              for k in range(1, n + 1))
        for n in range(1, 21)
    )


def test_cw_moments_and_rtransform_at_order_20(tmp_path, capsys):
    values = [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)]
    cw_file = write_json(
        tmp_path / "cw.json",
        {"p": 3, "d": 2, "eigenvalues": ["1/2", "-3/2", "5/2"]},
    )
    mom_file, r_file = tmp_path / "mom.json", tmp_path / "r.json"
    assert main(["cw-moments", "--model", cw_file, "--order", "20",
                 "--out", str(mom_file)]) == 0
    assert main(["convolve", "rtransform", "--f", str(mom_file),
                 "--out", str(r_file)]) == 0
    r = MomentSeries.from_dict(json.loads(r_file.read_text()))
    assert r.coeffs == tuple(sum(v**n for v in values) / 2 for n in range(1, 21))


# -------------------------------------------------------------------- density

def test_spn_density_writes_csv_and_sidecar(tmp_path, spn_model_file):
    out = tmp_path / "curve.csv"
    assert main(
        ["spn-density", "--model", spn_model_file, "--xmin", "0.05",
         "--xmax", "11", "--points", "400", "--epsilon", "0.003",
         "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) == 401
    sidecar = json.loads(out.with_suffix(".csv.json").read_text())
    assert abs(sidecar["mass"] - 1.0) < 0.05
    assert sidecar["epsilon"] == 0.003
    assert sidecar["max_residual"] <= 1e-12
    assert sidecar["max_iterations_used"] >= 1
    assert sidecar["fallback_points"] >= 0
    # the rungs 10E, E, ..., E/1000 above eps (E about 10.3), then the target
    rungs = sidecar["rung_iterations"]
    assert len(rungs) == 6 and min(rungs) >= 1
    assert max(rungs) == sidecar["max_iterations_used"]


def test_spn_density_on_the_scale_of_the_model(tmp_path):
    # the ladder starts at ten times the spectrum's scale, here about 2300
    model = write_json(
        tmp_path / "noise.json",
        {"p": 2, "d": 1, "singular_values": [0], "sigma": 20},
    )
    out = tmp_path / "curve.csv"
    assert main(
        ["spn-density", "--model", model, "--xmin", "1", "--xmax", "2800",
         "--points", "400", "--epsilon", "1e-3", "--out", str(out)]
    ) == 0
    sidecar = json.loads(out.with_suffix(".csv.json").read_text())
    assert abs(sidecar["mass"] - 1.0) < 0.01
    assert sidecar["max_residual"] <= 1e-12


def test_spn_density_sigma_zero_domain_error(tmp_path, capsys):
    model = write_json(
        tmp_path / "flat.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0},
    )
    assert main(
        ["spn-density", "--model", model, "--xmin", "0.1", "--xmax", "5"]
    ) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "code": "sigma-zero",
        "message": err["message"],
        "module": "subordination",
    }


# -------------------------------------------------------------------- simulate

def test_simulate_spn_small(tmp_path, spn_model_file, capsys):
    dump = tmp_path / "eigs.csv"
    assert main(
        ["simulate", "--model", spn_model_file, "--kind", "spn",
         "--dim-scale", "50", "--trials", "4", "--seed", "7",
         "--order", "3", "--dump-eigs", str(dump)]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 100
    assert len(report["empirical_moments"]) == 3
    assert max(report["relative_errors"]) < 0.1
    assert len(dump.read_text().splitlines()) == 1 + 100 * 4


def test_simulate_deterministic_given_seed(cw_model_file, capsys):
    args = ["simulate", "--model", cw_model_file, "--kind", "cw",
            "--dim-scale", "20", "--trials", "2", "--seed", "5", "--order", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("kind", ["spn", "cw"])
def test_simulate_complex_field(kind, spn_model_file, cw_model_file, capsys):
    model = spn_model_file if kind == "spn" else cw_model_file
    args = ["simulate", "--model", model, "--kind", kind, "--field", "complex",
            "--dim-scale", "50", "--trials", "4", "--seed", "7", "--order", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert max(json.loads(first)["relative_errors"]) < 0.1


# ---------------------------------------------------------------------- verify

def test_verify_equivalent_models(tmp_path, capsys):
    a = write_json(
        tmp_path / "a.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.5},
    )
    b = write_json(
        tmp_path / "b.json",
        {"p": 4, "d": 2, "singular_values": [2, 1], "sigma": -0.5},
    )
    assert main(["verify", "--a", a, "--b", b, "--order", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True
    assert report["first_divergent_order"] is None


def test_verify_differing_models(tmp_path, capsys):
    a = write_json(
        tmp_path / "a.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.5},
    )
    b = write_json(
        tmp_path / "b.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.75},
    )
    assert main(["verify", "--a", a, "--b", b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is False
    assert report["first_divergent_order"] == 1


def test_verify_dimension_mismatch_error_json(tmp_path, capsys):
    a = write_json(
        tmp_path / "a.json",
        {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.5},
    )
    b = write_json(
        tmp_path / "b.json",
        {"p": 6, "d": 2, "singular_values": [1, 2], "sigma": 0.5},
    )
    assert main(["verify", "--a", a, "--b", b]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "dimension-mismatch"
    assert err["module"] == "models"


# ------------------------------------------------------------------ exit codes

def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["spn-moments", "--model", str(tmp_path / "nope.json")]) == 2
    assert "usage error" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spn-moments", "--model", str(bad)]) == 2
    assert "usage error" in capsys.readouterr().err


# an input that is not UTF-8, one nested too deep for the parser, and an
# output path that names a directory
UNUSABLE_FILES = {
    "not-utf8": ["spn-moments", "--model", "{dir}/bom.json"],
    "nested-too-deep": ["spn-recover", "--p", "4", "--d", "2", "--moments", "{dir}/deep.json"],
    "spn-moments-out": ["spn-moments", "--model", "{model}", "--out", "{dir}"],
    "nc-out": ["nc", "--n", "3", "--out", "{dir}"],
    "density-out": ["spn-density", "--model", "{model}", "--xmin", "0.1", "--xmax", "5",
                    "--points", "3", "--out", "{dir}"],
    "dump-eigs": ["simulate", "--model", "{model}", "--kind", "spn", "--trials", "1",
                  "--dump-eigs", "{dir}"],
}


@pytest.mark.parametrize("argv", UNUSABLE_FILES.values(), ids=UNUSABLE_FILES)
def test_unusable_file_is_usage_error(tmp_path, capsys, spn_model_file, argv):
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe")
    nest = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(f'{{"coeffs": {nest}, "scalar": "float"}}')
    assert main([a.format(dir=tmp_path, model=spn_model_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_sidecar_leaves_no_csv(tmp_path, capsys, spn_model_file):
    # the sidecar is written first, so a script never finds a CSV whose
    # sidecar is missing and takes it for success
    out = tmp_path / "o.csv"
    (tmp_path / "o.csv.json").mkdir()
    assert main(["spn-density", "--model", spn_model_file, "--xmin", "0.1", "--xmax", "5",
                 "--points", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_byte_not_utf8_is_named_at_its_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"p": 4, \xff}')
    assert main(["spn-moments", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed JSON input") and err.count("\n") == 1
    assert "line 1 column 10 (char 9)" in err


def _exit_status(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SERIES = {"order": 3, "coeffs": ["1/1", "2/1", "5/1"], "scalar": "rational"}
RTRANSFORM = ["convolve", "rtransform", "--f"]
HUGE = {"singular_values": [1e308, 2]}
DENSITY = ["spn-density", "--xmin", "0.1", "--xmax", "5"]
HUGE_DENSITY = {"singular_values": [1e200, 2]}


def recover(command, p, d):
    series_flag = "--moments" if command == "spn-recover" else "--r"
    return [command, "--p", str(p), "--d", str(d), series_flag]


def float_series(*coeffs):
    return {"order": len(coeffs), "coeffs": list(coeffs), "scalar": "float"}


# in argv, the path of the series file the case writes
SERIES_FILE = "<series>"
HUGE_FLOAT_SERIES = {"order": 2, "coeffs": [1e300, 1e300], "scalar": "float"}


# a seed polynomial whose companion matrix overflows, and a fit whose
# moments overflow
INF_SEED = float_series(-2.490706403362065e+155, 3.5960155560722736e+66,
                        5849363198.099221, -8.95461187909294e+58,
                        5.119825206540934e+135, 5.659904110117594e+16)
INF_FIT = float_series(1.1099205429643833e+105, 1.5037826316693874e+73,
                       8.794051640213491e+24)


@pytest.mark.parametrize(
    "argv, model, series, env, status, code",
    [
        (["nc", "--n", "3"], None, None, "abc", 1, "domain"),
        (["spn-moments"], {"sigma": "nan"}, None, None, 1, "domain"),
        (["spn-moments"], {"sigma": "1/0"}, None, None, 1, "domain"),
        (["spn-moments"], {"d": None}, None, None, 1, "domain"),
        (["simulate", "--kind", "spn", "--trials", "0"], {}, None, None, 2, None),
        (["simulate", "--kind", "spn", "--seed", "-1"], {}, None, None, 2, None),
        (["spn-density", "--xmin", "0.1", "--xmax", "5", "--epsilon", "nan"], {},
         None, None, 1, "domain"),
        (DENSITY, {"sigma": 1e200}, None, None, 1, "domain"),
        (DENSITY, HUGE_DENSITY, None, None, 1, "domain"),
        (DENSITY + ["--points", "-1"], {}, None, None, 2, None),
        (DENSITY + ["--epsilon", "-1e-3"], {}, None, None, 1, "domain"),
        (DENSITY + ["--epsilon", "-inf"], {}, None, None, 1, "domain"),
        (DENSITY + ["--tol", "-1e-12"], {}, None, None, 1, "domain"),
        (["spn-density", "--xmin", "-1e-3", "--xmax", "5"], {}, None, None, 1,
         "domain"),
        (["spn-moments"], HUGE, None, None, 0, None),
        (["spn-moments", "--backend", "float"], HUGE, None, None, 1, "domain"),
        (["spn-moments", "--backend", "float"], {"sigma": 1e100}, None, None, 1,
         "domain"),
        # float results past the float range: m_2 = 1e400 and inf - inf
        (["cw-moments", "--backend", "float"],
         {"p": 1, "d": 1, "eigenvalues": [1e200], "singular_values": None,
          "sigma": None}, None, None, 1, "domain"),
        (["convolve", "boxplus", "--g", SERIES_FILE, "--f"], None, HUGE_FLOAT_SERIES,
         None, 1, "domain"),
        (["convolve", "boxed", "--g", SERIES_FILE, "--f"], None, HUGE_FLOAT_SERIES,
         None, 1, "domain"),
        (RTRANSFORM, None, HUGE_FLOAT_SERIES, None, 1, "domain"),
        # a binary verb without --g is a usage error
        (["convolve", "boxed", "--f"], None, {}, None, 2, None),
        (["convolve", "boxplus", "--f"], None, {}, None, 2, None),
        (["convolve", "deconv", "--f"], None, {}, None, 2, None),
        (RTRANSFORM, None, {"scalar": None}, None, 1, "domain"),
        (RTRANSFORM, None, {"coeffs": ["1/0", "2/1", "5/1"]}, None, 1, "domain"),
        (RTRANSFORM, None, {"scalar": "bogus"}, None, 1, "domain"),
        (RTRANSFORM, None, {"coeffs": ["nan", 2, 5], "scalar": "float"}, None, 1,
         "domain"),
        (["spn-recover", "--p", "4", "--d", "2", "--moments"], None,
         {"coeffs": [1.0, float("nan"), 5.0], "scalar": "float"}, None, 1, "domain"),
        (recover("spn-recover", 4, 0), None, {}, None, 1, "dimension-mismatch"),
        (recover("spn-recover", 0, 0), None, {}, None, 1, "dimension-mismatch"),
        (recover("cw-recover", 0, 2), None, {}, None, 1, "dimension-mismatch"),
        (recover("cw-recover", 3, 0), None, {}, None, 1, "dimension-mismatch"),
        (recover("cw-recover", -2, 2), None, {}, None, 1, "dimension-mismatch"),
        (recover("spn-recover", 9, 3), None, INF_SEED, None, 1, "recovery-failed"),
        (recover("spn-recover", 1, 1), None, INF_FIT, None, 1, "recovery-failed"),
        # p_2 < p_1^2 / d: no real spectrum has these power sums
        (recover("cw-recover", 2, 1), None, {"order": 2, "coeffs": [1e300, 0]},
         None, 1, "nonreal-roots"),
        (recover("cw-recover", 2, 1), None, {"order": 2, "coeffs": ["1e400", 0]},
         None, 1, "nonreal-roots"),
        # a real eigenvalue of 10^400 leaves the float range
        (recover("cw-recover", 1, 1), None, {"order": 1, "coeffs": ["1e400"]},
         None, 1, "domain"),
        # an exact model value past the float range, on the float backend
        (["spn-moments", "--backend", "float"], {"singular_values": [f"{10**400}/1", 2]},
         None, None, 1, "domain"),
        (["cw-moments", "--backend", "float"],
         {"p": 1, "d": 1, "eigenvalues": [f"{10**400}/1"], "singular_values": None,
          "sigma": None}, None, None, 1, "domain"),
    ],
    ids=["env-order", "sigma-nan", "sigma-div-zero", "missing-d", "zero-trials",
         "negative-seed",
         "epsilon-nan", "density-sigma-huge", "density-value-huge",
         "density-negative-points", "epsilon-negative-exponent",
         "epsilon-negative-inf", "tol-negative-exponent", "xmin-negative-exponent",
         "huge-value-rational", "huge-value-float", "huge-sigma-float",
         "cw-moments-overflow", "boxplus-overflow", "boxed-overflow",
         "rtransform-overflow", "boxed-missing-g", "boxplus-missing-g",
         "deconv-missing-g",
         "series-missing-scalar", "series-div-zero", "series-bogus-scalar",
         "series-nan", "recover-series-nan", "recover-d-zero", "recover-p-d-zero",
         "cw-recover-p-zero", "cw-recover-d-zero", "cw-recover-p-negative",
         "recover-seed-overflow", "recover-fit-overflow", "cw-recover-overflow",
         "cw-recover-beyond-float", "cw-recover-atom-beyond-float",
         "exact-value-beyond-float", "cw-exact-value-beyond-float"],
)
def test_bad_input_exits_cleanly(tmp_path, capsys, monkeypatch, request, argv, model,
                                 series, env, status, code):
    if env is not None:
        monkeypatch.setenv("FREEDECONV_MAX_NC_ORDER", env)
    if model is not None:
        data = {"p": 4, "d": 2, "singular_values": [1, 2], "sigma": 0.5, **model}
        data = {k: v for k, v in data.items() if v is not None}
        argv = argv + ["--model", write_json(tmp_path / "model.json", data)]
    if series is not None:
        data = {k: v for k, v in {**SERIES, **series}.items() if v is not None}
        path = write_json(tmp_path / "series.json", data)
        argv = [path if a == SERIES_FILE else a for a in argv] + [path]
    assert _exit_status(argv) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 1:
        assert json.loads(err)["code"] == code
    if "missing-g" in request.node.name:
        assert "needs --g" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["nc", "--n", "3", "--bogus"])
    assert info.value.code == 2


# -------------------------------------------------------------- start-up

# Runs in a fresh interpreter: ``import freedeconv`` loads only the errors;
# the exact commands but ``nc``, and the recoveries of float input, leave
# numpy, dataclasses, inspect and the partitions of ``ncpart`` unimported,
# ``nc`` loads ncpart, and the numeric commands and the lazily resolved
# library names still work once used.
STARTUP_SCRIPT = """
import contextlib, io, json, sys
import freedeconv
package_only = sorted(m for m in sys.modules if m.startswith("freedeconv"))
from freedeconv import cli

spn, cw, series, readme, draw, cumulants, draw_float, cumulants_float = sys.argv[1:9]
exact = [
    ["spn-moments", "--model", spn, "--order", "6"],
    ["cw-moments", "--model", cw, "--order", "6"],
    ["convolve", "rtransform", "--f", series],
    ["verify", "--a", spn, "--b", spn],
    ["spn-recover", "--moments", readme, "--p", "4", "--d", "2"],
    ["spn-recover", "--moments", draw, "--p", "6", "--d", "2"],
    ["cw-recover", "--r", cumulants, "--p", "3", "--d", "2"],
]
float_recoveries = [
    ["spn-recover", "--moments", draw_float, "--p", "6", "--d", "2"],
    ["cw-recover", "--r", cumulants_float, "--p", "3", "--d", "2"],
]
numeric = [
    ["spn-density", "--model", spn, "--xmin", "0.1", "--xmax", "5", "--points", "5"],
    ["simulate", "--model", spn, "--kind", "spn", "--trials", "2", "--order", "2"],
]
unloaded = ["numpy", "dataclasses", "inspect", "freedeconv.ncpart"]
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    exact_status = [cli.main(argv) for argv in exact]
    loaded_after_exact = [name for name in unloaded if name in sys.modules]
    float_status = [cli.main(argv) for argv in float_recoveries]
    loaded_after_float = [name for name in unloaded if name in sys.modules]
    nc_status = cli.main(["nc", "--n", "4"])
    nc_loads = "freedeconv.ncpart" in sys.modules
    from freedeconv import GinibreSpec
    lazy_names = [
        freedeconv.spn_density is freedeconv.subordination.spn_density,
        GinibreSpec is freedeconv.randmat.GinibreSpec,
        all(getattr(freedeconv, name) is not None for name in dir(freedeconv)),
    ]
    numeric_status = [cli.main(argv) for argv in numeric]
print(json.dumps({"package_only": package_only, "exact": exact_status,
                  "loaded_after_exact": loaded_after_exact, "float": float_status,
                  "loaded_after_float": loaded_after_float, "nc": [nc_status, nc_loads],
                  "lazy_names": lazy_names, "numeric": numeric_status}))
"""


def criterion5_model(n):
    """Draw n, counted from 1, of the criterion-5 generator under random.Random(11)."""
    rng = random.Random(11)
    for _ in range(n):
        d = rng.randint(1, 4)
        p = rng.randint(d, 3 * d)
        a = tuple(rng.uniform(0.0, 2.5) for _ in range(d))
        sigma = rng.uniform(0.0, 2.0)
    return SpnModel(p, d, a, sigma)


def test_exact_commands_start_without_numpy(tmp_path, spn_model_file, cw_model_file):
    series = write_json(tmp_path / "series.json", SERIES)
    readme = spn_moments(SpnModel(4, 2, (1, 2), Fraction(1, 2)), 8)
    # (p, d) = (6, 2): the gcd of its gaps has degree 3, so the exact roots
    # are isolated by Sturm sequences
    draw = criterion5_model(31)
    assert (draw.p, draw.d) == (6, 2)
    # at float order 8 its gaps have no exact common root, so the recovery
    # runs the polish from its seeds
    draw_float = spn_moments(draw, 8, FLOAT)
    assert spn_recover(draw_float, 6, 2).sigma_sq_exact is None
    cumulants = cw_r_transform(CwModel(3, 2, (Fraction(-5, 2), Fraction(1, 2), 3)), 5)
    files = [write_json(tmp_path / f"{name}.json", data.to_dict()) for name, data in (
        ("readme", readme), ("draw", spn_moments(draw, 4)), ("cumulants", cumulants),
        ("draw_float", draw_float), ("cumulants_float", cumulants.as_float()))]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, spn_model_file, cw_model_file, series, *files],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "package_only": ["freedeconv", "freedeconv.errors"],
        "exact": [0] * 7, "loaded_after_exact": [], "float": [0, 0],
        "loaded_after_float": [], "nc": [0, True],
        "lazy_names": [True] * 3, "numeric": [0, 0],
    }


def test_star_import_and_dir_keep_the_package_names():
    # ``from freedeconv import *`` binds the errors and the exact layers, and
    # dir() lists every name, the lazily loaded layers' included
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import json, freedeconv; ns = {}; exec('from freedeconv import *', ns); "
              "print(json.dumps([sorted(k for k in ns if k != '__builtins__'), "
              "dir(freedeconv)]))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    star, names = json.loads(done.stdout)
    from freedeconv import errors, models

    exact_layers = {
        "NcPartition", "catalan", "coef_product", "enumerate_nc", "is_noncrossing",
        "kreweras", "FLOAT", "RATIONAL", "MomentSeries", "boxed_conv", "boxed_inverse",
        "delta_series", "free_add_conv", "free_mult_deconv", "moment_from_r",
        "r_transform", "scale_argument", "zeta_series", *models.__all__}
    error_names = {name for name in vars(errors) if name.endswith("Error")}
    assert set(star) == exact_layers | error_names | {"errors", "ncpart", "series", "models"}
    assert {"spn_density", "GinibreSpec", "subordination", "randmat", *star} <= set(names)


def test_closed_pipe_is_no_traceback(tmp_path):
    # the reader stops after 100 bytes: the write fails, quietly, with status 1
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "freedeconv.cli", "nc", "--n", "9"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert len(head) == 100
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ------------------------------------------------------------ property test

VALID_SIGMA = st.floats(1e-2, 1e2) | st.floats(-1e2, -1e-2)
VALID_VALUE = st.just(0.0) | st.floats(1e-3, 1e2)
ANY_VALUE = (st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
             | st.sampled_from([1e200, -1e200]))
BAD_FLAG = st.sampled_from([0.0, math.nan, math.inf, -math.inf, -1e-3])


@st.composite
def density_runs(draw):
    # one input at a time may leave the valid ranges, so that every kind of
    # bad input meets otherwise valid ones
    wild = draw(st.sampled_from([None, "model", "epsilon", "tol", "points"]))
    d = draw(st.integers(1, 3))
    value = ANY_VALUE if wild == "model" else VALID_VALUE
    values = draw(st.lists(value, min_size=d, max_size=d))
    if draw(st.booleans()):
        values = [values[0]] * d  # coinciding atoms
    model = {"p": draw(st.integers(d, d + 3)), "d": d, "singular_values": values,
             "sigma": draw(ANY_VALUE if wild == "model" else VALID_SIGMA)}
    epsilon = draw(BAD_FLAG if wild == "epsilon" else st.floats(1e-4, 1e-1))
    tol = draw(BAD_FLAG if wild == "tol" else st.floats(1e-12, 1e-8))
    points = draw(st.integers(-1, 1) if wild == "points" else st.integers(2, 200))
    xmin = draw(st.floats(1e-3, 1e2))
    xmax = xmin * draw(st.floats(1.5, 1e4))
    return model, epsilon, tol, xmin, xmax, points


def _valid_run(model, epsilon, tol, points):
    return (1e-2 <= abs(model["sigma"]) <= 1e2
            and all(0 <= a <= 1e2 for a in model["singular_values"])
            and 0 < epsilon < math.inf and 0 < tol < math.inf and points >= 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(run=density_runs())
def test_spn_density_property_exits_cleanly(tmp_path_factory, run):
    model, epsilon, tol, xmin, xmax, points = run
    folder = tmp_path_factory.mktemp("density")
    argv = ["spn-density", "--model", write_json(folder / "model.json", model),
            "--xmin", repr(xmin), "--xmax", repr(xmax), "--points", str(points),
            f"--epsilon={epsilon!r}", f"--tol={tol!r}",
            "--out", str(folder / "curve.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = _exit_status(argv)
    assert status in (0, 1, 2)
    if status == 1:
        assert set(json.loads(err.getvalue())) == {"code", "message", "module"}
    if _valid_run(model, epsilon, tol, points):
        assert status == 0, err.getvalue()


# ------------------------------------------- property tests, other subcommands

JUNK = st.sampled_from(
    [None, True, "abc", "1/0", "nan", math.nan, math.inf, [[1]], {"a": 1}])
VALUE = st.sampled_from([0, 1, 2, 3, "1/2", "5/2", 0.75])
KIND = st.sampled_from([RATIONAL, FLOAT])
# finite values at and near the ends of the float range
EXTREME = VALUE | st.sampled_from([1e300, -1e300, 1e154, 1e-300])
DIMENSION = st.integers(-1, 4)
WILD = st.sampled_from([None, None, "junk", "element", "missing", "non-object"])


def _status(valid):
    return 0 if valid else 1


def _spoil(draw, data, wild, required, values):
    # one way at a time in which a JSON object can be wrong
    if wild == "junk":
        data[draw(st.sampled_from(sorted(data)))] = draw(JUNK)
    elif wild == "element":
        data[values][0] = draw(JUNK)
    elif wild == "missing":
        del data[draw(st.sampled_from(required))]
    elif wild == "non-object":
        data = draw(st.sampled_from([[data], "model", 3, None]))
    return data


@st.composite
def model_json(draw, values, dims=None):
    """(JSON, valid) for a compound Wishart or a signal-plus-noise model."""
    if dims is None:
        d = draw(st.integers(1, 2))
        dims = draw(st.integers(d, d + 1)), d
    p, d = dims
    size = p if values == "eigenvalues" else d
    data = {"p": p, "d": d, values: draw(st.lists(VALUE, min_size=size, max_size=size))}
    if values == "singular_values":
        data["sigma"] = draw(VALUE)
    wild = draw(WILD)
    return _spoil(draw, data, wild, ["p", "d", values], values), wild is None


@st.composite
def series_json(draw):
    """(JSON, valid) for a moment series."""
    n = draw(st.integers(1, 4))
    data = {"order": n, "coeffs": draw(st.lists(VALUE, min_size=n, max_size=n)),
            "scalar": draw(KIND)}
    wild = draw(WILD)
    return _spoil(draw, data, wild, ["coeffs", "scalar"], "coeffs"), wild is None


@st.composite
def nc_runs(draw):
    n = draw(st.integers(-2, 6) | st.just(15))
    flags = ["--kreweras"] if draw(st.booleans()) else []
    return ["nc", "--n", str(n)] + flags, {}, _status(1 <= n <= 14)


@st.composite
def moments_runs(draw, command):
    values = "eigenvalues" if command == "cw-moments" else "singular_values"
    model, valid = draw(model_json(values))
    order = draw(st.integers(-1, 7))
    argv = [command, "--order", str(order), "--backend", draw(KIND)]
    return argv, {"--model": model}, _status(valid and order >= 1)


@st.composite
def verify_runs(draw):
    a, valid_a = draw(model_json("singular_values"))
    twin = valid_a and draw(st.booleans())
    b, valid_b = draw(model_json("singular_values", (a["p"], a["d"]) if twin else None))
    order = draw(st.integers(-1, 7))
    same = valid_a and valid_b and (a["p"], a["d"]) == (b["p"], b["d"])
    return ["verify", "--order", str(order)], {"--a": a, "--b": b}, _status(
        same and order >= 1)


@st.composite
def convolve_runs(draw):
    verb = draw(st.sampled_from(["boxed", "boxplus", "deconv", "rtransform"]))
    (f, valid_f), (g, valid_g) = draw(series_json()), draw(series_json())
    files = {"--f": f} if draw(st.booleans()) else {"--f": f, "--g": g}
    if verb != "rtransform" and "--g" not in files:
        return ["convolve", verb], files, 2  # a usage error
    valid = valid_f and (verb == "rtransform" or "--g" in files and valid_g and (
        len(f["coeffs"]), f["scalar"]) == (len(g["coeffs"]), g["scalar"]) and (
        verb != "deconv" or g["coeffs"][0] != 0))
    return ["convolve", verb], files, _status(valid)


@st.composite
def recover_runs(draw, command):
    # valid series come from the forward map of a model; compound Wishart
    # values may repeat, signal-plus-noise values are distinct
    kind = draw(KIND)
    if command == "cw-recover":
        p, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        values = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
        order = p + draw(st.integers(0, 2))
        series = cw_r_transform(CwModel(p, d, tuple(values)), order, kind)
    else:
        d = draw(st.integers(1, 2))
        p = draw(st.integers(d, d + 2))
        atoms = st.sampled_from([0, Fraction(1, 2), 1, 2, 3])
        values = draw(st.lists(atoms, min_size=d, max_size=d, unique=True))
        sigma = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1]))
        order = d + 2 + draw(st.integers(0, 2))
        series = spn_moments(SpnModel(p, d, tuple(values), sigma), order, kind)
    series, expect = series.to_dict(), 0
    wild = draw(st.sampled_from([None, "dimensions", "series", "extreme"]))
    if wild == "dimensions":
        p, d = draw(DIMENSION), draw(DIMENSION)
        impossible = p < 1 or d < 1 or command == "spn-recover" and p < d
        expect = 1 if impossible else None
    elif wild == "series":
        series, valid = draw(series_json())
        expect = None if valid else 1
    elif wild == "extreme":
        n = series["order"]
        series["coeffs"] = draw(st.lists(EXTREME, min_size=n, max_size=n))
        expect = None
    flag = "--r" if command == "cw-recover" else "--moments"
    return [command, "--p", str(p), "--d", str(d)], {flag: series}, expect


RUNS = {
    "nc": nc_runs(),
    "cw-moments": moments_runs("cw-moments"),
    "spn-moments": moments_runs("spn-moments"),
    "verify": verify_runs(),
    "convolve": convolve_runs(),
    "cw-recover": recover_runs("cw-recover"),
    "spn-recover": recover_runs("spn-recover"),
}


@pytest.fixture(scope="module")
def runs_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@pytest.mark.parametrize("command", sorted(RUNS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_subcommand_property_exits_cleanly(runs_folder, command, data):
    # expect is the exit status the input calls for, None where it depends
    # on the numbers; each example overwrites the files of the one before
    argv, files, expect = data.draw(RUNS[command])
    folder = runs_folder
    for flag, payload in files.items():
        argv = argv + [flag, write_json(folder / f"{flag[2:]}.json", payload)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = _exit_status(argv + ["--out", str(folder / "out.json")])
    assert status in (0, 1, 2)
    if status == 1:
        assert set(json.loads(err.getvalue())) == {"code", "message", "module"}
    if expect is not None:
        assert status == expect, err.getvalue()
