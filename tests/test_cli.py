import argparse
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccsl import WHITE, CollapseParams, cli, exponential, list_bundled, load, scan, serialize
from ccsl.cli import build_parser, main
from ccsl.predict import dns_total
from fixtures import SPHERE_CYLINDER_PAIR
from test_runtime_deps import run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def csv_value(out, row_prefix, column, header_row=0):
    rows = data_rows(out)
    header = rows[header_row].split(",")
    for ln in rows[1:]:
        if ln.startswith(row_prefix):
            return ln.split(",")[header.index(column)]
    raise AssertionError(f"row {row_prefix!r} not found in {rows!r}")


# --- predict ---------------------------------------------------------------------

def test_predict_xray_round_trip(capsys):
    code, out, _ = run(capsys, "predict", "--experiment", "xray",
                       "--lambda", "8.03e-12", "--rc", "1e-7", "--noise", "white")
    assert code == 0
    val = float(csv_value(out, "xray,xray_normalized_rate", "value"))
    assert val == pytest.approx(803.0, rel=1e-6)
    assert "unit" in data_rows(out)[0]


def test_predict_zero_lambda_heating(capsys):
    code, out, _ = run(capsys, "predict", "--experiment", "bulk-heating",
                       "--lambda", "0", "--rc", "1e-7")
    assert code == 0
    assert float(csv_value(out, "bulk-heating,heating_rate", "value")) == 0.0


def test_predict_json_format(capsys):
    code, out, _ = run(capsys, "predict", "--experiment", "xray",
                       "--lambda", "8.03e-12", "--rc", "1e-7",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "predict"
    res = {r["observable"]: r for r in doc["results"]}
    assert res["xray_normalized_rate"]["value"] == pytest.approx(803.0, rel=1e-6)
    assert res["xray_normalized_rate"]["unit"] == "s^-1 m^-2"


@pytest.mark.parametrize("experiment, rc, observable, cause", [
    # an overflow (in eta, or in rc^2 or the bracket's x^2), a division by an rc^2
    # that underflowed to 0, and a value that came out NaN without raising
    ("cantilever", "1e110", "force_psd_ccsl", "OverflowError"),
    ("auriga", "1e110", "force_psd_ccsl", "OverflowError"),
    ("xray", "1e200", "xray_normalized_rate", "OverflowError"),
    ("cold-atom", "1e200", "position_variance", "OverflowError"),
    ("bulk-heating", "1e200", "heating_rate", "OverflowError"),
    ("xray", "1e-150", "xray_dgamma_domega", "ZeroDivisionError"),
    ("cold-atom", "1e-150", "position_variance", "ZeroDivisionError"),
    ("bulk-heating", "1e-150", "heating_rate", "ZeroDivisionError"),
    ("auriga", "1e100", "force_psd_ccsl", "nan"),
])
def test_predict_out_of_float_range_exits_3(capsys, experiment, rc, observable, cause):
    code, out, err = run(capsys, "predict", "--experiment", experiment,
                         "--lambda", "1e-8", "--rc", rc, "--noise", "exp:1e10")
    assert (code, out) == (3, "")
    assert err == (f"error: {experiment}: {observable} out of float range at "
                   f"rc={float(rc):.3e} ({cause})\n")


def test_predict_in_range_extremes_unchanged(capsys):
    # values that underflow to 0 or stay finite at these rc still print, exit 0
    for experiment, rc, value in (("auriga", "1e-150", "0.00000000e+00"),
                                  ("cold-atom", "1e150", "2.96439388e-323"),
                                  ("bulk-heating", "1e110", "2.98138468e-243")):
        code, out, _ = run(capsys, "predict", "--experiment", experiment, "--lambda", "1e-8",
                           "--rc", rc, "--noise", "exp:1e10")
        assert code == 0 and data_rows(out)[1].split(",")[2] == value
    # a comma list prints no row when one of its values is out of range
    code, out, _ = run(capsys, "predict", "--experiment", "xray,auriga", "--lambda", "1e-8",
                       "--rc", "1e100", "--noise", "exp:1e10")
    assert (code, out) == (3, "")


def test_heating_where_x2_overflows_prints_the_white_value(capsys):
    # (rc*Wc/v_s)^2 overflows at both points; lam_eff/lam is 1.0 there in floats,
    # so the heating rate and the bound are the white ones, not NaN or WashedOut
    code, out, _ = run(capsys, "predict", "--experiment", "bulk-heating", "--lambda", "1e-8",
                       "--rc", "1e150", "--noise", "exp:1e10")
    assert code == 0 and data_rows(out)[1].split(",")[2] == "2.96439388e-323"
    for noise in ("white", "exp:1e300"):
        code, out, _ = run(capsys, "bound", "--experiment", "bulk-heating", "--rc", "1e-7",
                           "--noise", noise)
        assert code == 0 and data_rows(out)[1].split(",")[2] == "3.35414617e-11"


def test_malformed_flag_exits_2(capsys):
    code, _, err = run(capsys, "predict", "--experiment", "xray",
                       "--lambda", "1e-12")  # missing --rc
    assert code == 2
    assert "usage" in err.lower() or "required" in err.lower()


def test_unknown_experiment_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--experiment", "nope", "--rc", "1e-7")
    assert code == 2
    assert "error" in err


def test_bad_noise_flag_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--experiment", "xray", "--rc", "1e-7",
                       "--noise", "pink:12")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["bound", "--experiment", "xray", "--rc=-1e-7"], "--rc"),
    (["bound", "--experiment", "xray", "--rc", "0"], "--rc"),
    (["bound", "--experiment", "xray", "--rc", "inf"], "--rc"),
    (["bound", "--experiment", "xray", "--rc", "nan"], "--rc"),
    (["bound", "--experiment", "xray", "--rc-grid", "1e-7:1e-7:3"], "--rc-grid"),
    (["scan", "--experiments", "xray", "--rc-grid", "1e-7:1e-7:3", "--jobs", "1"],
     "--rc-grid"),
    (["predict", "--experiment", "cantilever", "--lambda", "nan", "--rc", "1e-7"], "--lambda"),
    (["bound", "--experiment", "bulk-heating", "--rc-grid", "0:1e-3:5"], "--rc-grid"),
    (["bound", "--experiment", "cantilever", "--rc-grid", "1e-7:1e-3:0"], "--rc-grid"),
    (["scan", "--experiments", "cantilever", "--rc-grid", "1e-3:1e-7:5", "--jobs", "1"],
     "--rc-grid"),
    (["predict", "--experiment", "xray", "--lambda", "1e-12", "--rc=-1"], "--rc"),
    (["predict", "--experiment", "xray", "--lambda=-1", "--rc", "1e-7"], "--lambda"),
    (["bound", "--experiment", "xray", "--rc", "1e-7", "--noise", "exp:abc"], "--noise"),
    (["scan", "--experiments", "xray,cantilever", "--omega-c=-5", "--jobs", "2"],
     "--omega-c"),
    (["predict", "--experiment", "cantilever", "--lambda", "1e-12", "--rc", "1e-7",
      "--omega=-1"], "--omega"),
    (["predict", "--experiment", "xray", "--lambda", "1e-12", "--rc", "1e-7",
      "--omega=-1"], "--omega"),
    (["predict", "--experiment", "xray", "--lambda", "1e-12", "--rc", "1e-7",
      "--omega", "nan"], "--omega"),
    (["predict", "--experiment", "cantilever", "--lambda", "1e-12", "--rc", "1e-7",
      "--omega", "0"], "--omega"),
    (["bound", "--experiment", "xray", "--rc", "1e-7", "--noise", "exp:-1"], "--noise"),
    (["predict", "--experiment", "cantilever", "--lambda", "1e-12", "--rc", "1e-7",
      "--noise", "exp:0"], "--noise"),
    (["bound", "--experiment", "xray", "--rc", "1e-7", "--noise", "exp:nan"], "--noise"),
    (["predict", "--experiment", "xray", "--lambda", "1e-12", "--rc", "1e-7",
      "--noise", "exp:inf"], "--noise"),
])
def test_bad_number_exits_2_naming_its_flag(tmp_path, capsys, argv, flag):
    if argv[0] == "scan":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: ")
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--experiment", "bulk-heating", "--lambda", "1e-12", "--rc", "1e-7"],
    ["bound", "--experiment", "bulk-heating", "--rc", "1e-7"],
    ["scan", "--experiments", "bulk-heating", "--jobs", "1"],
], ids=lambda argv: argv[0])
def test_tol_is_an_unknown_argument(tmp_path, capsys, argv):
    # the full-sine quadrature runs at one fixed tolerance: no command takes --tol
    if argv[0] == "scan":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv, "--tol", "1e-8")
    assert code == 2
    assert err.endswith("error: unrecognized arguments: --tol 1e-8\n")
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, err", [
    (["predict", "--experiment", ",", "--lambda", "1e-12", "--rc", "1e-7"],
     "error: --experiment: names no experiment, got ','\n"),
    (["bound", "--experiment", " , ", "--rc", "1e-7"],
     "error: --experiment: names no experiment, got ' , '\n"),
    (["scan", "--experiments", ","], "error: --experiments: names no experiment, got ','\n"),
    (["scan", "--experiments", ""], "error: --experiments: names no experiment, got ''\n"),
    (["scan", "--omega-c", ","], "error: --omega-c: names no cutoff, got ','\n"),
], ids=["predict", "bound", "scan-experiments", "scan-experiments-empty", "scan-omega-c"])
def test_empty_list_exits_2_naming_its_flag(tmp_path, capsys, argv, err):
    # a list that names nothing is an argument error, caught before any
    # output is printed or any file written
    if argv[0] == "scan":
        argv = [*argv, "--rc-grid", "1e-8:1e-6:3", "--out-dir", str(tmp_path / "out")]
    assert run(capsys, *argv) == (2, "", err)
    assert not (tmp_path / "out").exists()


# --- bound -----------------------------------------------------------------------

def test_bound_xray_white(capsys):
    code, out, _ = run(capsys, "bound", "--experiment", "xray", "--rc", "1e-7",
                       "--noise", "white")
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "experiment,rc_m,lambda_max_s^-1,omega_c_rad_s"
    val = float(csv_value(out, "xray,", "lambda_max_s^-1"))
    assert val == pytest.approx(8.03e-12, rel=1e-6)
    assert rows[1].endswith(",inf")


def test_bound_cantilever_cutoff_ratio(capsys):
    _, out_w, _ = run(capsys, "bound", "--experiment", "cantilever",
                      "--rc", "1e-7", "--noise", "white")
    w = float(csv_value(out_w, "cantilever,", "lambda_max_s^-1"))
    _, out_c, _ = run(capsys, "bound", "--experiment", "cantilever",
                      "--rc", "1e-7", "--noise", "exp:1e4")
    c = float(csv_value(out_c, "cantilever,", "lambda_max_s^-1"))
    assert c / w == pytest.approx(27.377, rel=1e-3)


def test_bound_all_experiments(capsys):
    code, out, _ = run(capsys, "bound", "--experiment", "all", "--rc", "1e-7",
                       "--noise", "white")
    assert code == 0
    assert len(data_rows(out)) - 1 >= 6


def test_bound_rc_grid(capsys):
    code, out, _ = run(capsys, "bound", "--experiment", "xray",
                       "--rc-grid", "1e-8:1e-6:3", "--noise", "white")
    assert code == 0
    rows = data_rows(out)[1:]
    assert len(rows) == 3
    vals = [float(r.split(",")[2]) for r in rows]
    assert vals == sorted(vals)  # lambda_max grows with rc^2 for the X-ray bound


def test_bound_json_format(capsys):
    code, out, _ = run(capsys, "bound", "--experiment", "xray", "--rc", "1e-7",
                       "--noise", "white", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["lambda_max_s^-1"] == pytest.approx(8.03e-12, rel=1e-6)
    assert doc["results"][0]["omega_c_rad_s"] == "inf"


def test_bound_notes_washed_out_points_in_manifest(capsys):
    code, out, _ = run(capsys, "bound", "--experiment", "bulk-heating",
                       "--rc", "1e-7", "--noise", "exp:1e-10", "--format", "json")
    assert code == 3  # the single requested point is washed out
    doc = json.loads(out)
    assert doc["results"] == []
    assert doc["manifest"]["errors"]
    assert "rc_m" in doc["manifest"]["errors"][0]


@given(rc=st.floats(-12.0, -1.0).map(lambda e: 10.0**e),
       omega_c=st.one_of(st.none(), st.floats(-300.0, 20.0).map(lambda e: 10.0**e)))
@settings(max_examples=60, deadline=None)
@example(rc=1e-7, omega_c=1e-300)  # every experiment washes out: exit 3
@example(rc=1e-1, omega_c=1e-135)  # X-ray: f~ = 1e-308, lambda_max overflows to inf
@example(rc=2.142187461841597e-06, omega_c=2821.939626196855)
@example(rc=1e-12, omega_c=1e20)
@example(rc=1e-1, omega_c=None)
def test_single_rc_bound_is_the_scan_at_that_rc(rc, omega_c):
    # bound --rc inverts each experiment at its rc directly; bounds.scan over
    # that one rc must give the same rows, the same logged errors (messages
    # included) and the same exit code
    n, token = (WHITE, "white") if omega_c is None else (exponential(omega_c),
                                                         f"exp:{omega_c!r}")
    for name in list_bundled():
        errors = []
        ((curve,),) = scan([load(name)], [n], [rc], on_error=lambda i, _, r, e: errors.append(
            {"experiment": i, "rc_m": r, "error": str(e)}))
        rows = [{"experiment": name, "rc_m": r, "lambda_max_s^-1": lm,
                 "omega_c_rad_s": "inf" if n.is_white else cli._fmt(n.omega_c)}
                for r, lm in curve.points]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["bound", "--experiment", name, "--rc", repr(rc), "--noise", token,
                         "--format", "json"])
        doc = json.loads(out.getvalue())
        assert (code, doc["results"], doc["manifest"]["errors"]) == (
            0 if rows else 3, rows, errors)


def test_predict_omega_override(capsys):
    # colored X-ray rate depends on the probe; --omega must take effect
    code, out_a, _ = run(capsys, "predict", "--experiment", "xray",
                         "--lambda", "1e-12", "--rc", "1e-7",
                         "--noise", "exp:1e15")
    code_b, out_b, _ = run(capsys, "predict", "--experiment", "xray",
                           "--lambda", "1e-12", "--rc", "1e-7",
                           "--noise", "exp:1e15", "--omega", "1e15")
    assert code == 0 and code_b == 0
    a = float(csv_value(out_a, "xray,xray_normalized_rate", "value"))
    b = float(csv_value(out_b, "xray,xray_normalized_rate", "value"))
    assert a == pytest.approx(1e-12 / (1 + 1e8) / 1e-14, rel=1e-9)
    assert b == pytest.approx(0.5e-12 / 1e-14, rel=1e-9)


def test_predict_prints_displacement_row_for_damped_oscillator(tmp_path, capsys):
    # no bundled descriptor sets gamma_m, so damp a copy of auriga's oscillator
    exp = load("auriga")
    exp = replace(exp, id="auriga-damped", oscillator=replace(exp.oscillator, gamma_m=0.05))
    cfg = tmp_path / "damped.cfg"
    cfg.write_text(serialize(exp), encoding="utf-8")
    argv = ("predict", "--experiment", str(cfg), "--lambda", "1e-8", "--rc", "1e-7",
            "--noise", "exp:1e4")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "experiment,observable,value,unit"
    assert [r.split(",")[1] for r in rows[1:]] == ["force_psd_ccsl", "displacement_dns_total"]
    want = dns_total(exp.oscillator, exp.geometry, CollapseParams(1e-8, 1e-7),
                     exponential(1e4), exp.ceiling.probe)
    assert rows[2] == f"auriga-damped,displacement_dns_total,{want:.8e},m^2/Hz"
    code, out, _ = run(capsys, *argv, "--format", "json")
    res = {r["observable"]: r for r in json.loads(out)["results"]}
    assert code == 0 and res["displacement_dns_total"]["value"] == want


# --- scan ------------------------------------------------------------------------

def test_scan_writes_one_csv_per_cutoff(tmp_path, capsys):
    code, out, _ = run(capsys, "scan", "--omega-c", "inf,1e15,1e4,1e1",
                       "--rc-grid", "1e-8:1e-4:4", "--out-dir", str(tmp_path),
                       "--jobs", "1")
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert files == ["scan_omega_c_1e1.csv", "scan_omega_c_1e15.csv",
                     "scan_omega_c_1e4.csv", "scan_omega_c_inf.csv"]
    assert (tmp_path / "scan_manifest.json").exists()
    text = (tmp_path / "scan_omega_c_inf.csv").read_text()
    rows = data_rows(text)
    header = rows[0].split(",")
    assert header[0] == "rc_m"
    assert header[-1] == "envelope_lambda_max_s^-1"
    assert len(rows) == 1 + 4  # header + grid points
    # envelope is the row-wise minimum of the filled cells
    for ln in rows[1:]:
        cells = ln.split(",")
        filled = [float(c) for c in cells[1:-1] if c]
        assert float(cells[-1]) == pytest.approx(min(filled), rel=1e-12)


def test_scan_rerun_byte_identical_data(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        code, _, _ = run(capsys, "scan", "--omega-c", "inf,1e4",
                         "--rc-grid", "1e-8:1e-4:4", "--out-dir", str(d),
                         "--jobs", "1")
        assert code == 0
    for name in ("scan_omega_c_inf.csv", "scan_omega_c_1e4.csv"):
        a = data_rows((a_dir / name).read_text())
        b = data_rows((b_dir / name).read_text())
        assert a == b


def test_scan_parallel_matches_serial(tmp_path, capsys):
    s_dir, p_dir = tmp_path / "serial", tmp_path / "parallel"
    for d, jobs in ((s_dir, "1"), (p_dir, "2")):
        code, _, _ = run(capsys, "scan", "--omega-c", "inf,1e4",
                         "--rc-grid", "1e-8:1e-4:3", "--out-dir", str(d),
                         "--jobs", jobs,
                         "--experiments", "xray,cantilever,bulk-heating")
        assert code == 0
    for name in ("scan_omega_c_inf.csv", "scan_omega_c_1e4.csv"):
        assert (data_rows((s_dir / name).read_text())
                == data_rows((p_dir / name).read_text()))


def test_scan_full_default_grid(tmp_path, capsys):
    # the documented headline run: four cutoffs over 60 log-spaced rc points
    code, _, _ = run(capsys, "scan", "--omega-c", "inf,1e15,1e4,1e1",
                     "--rc-grid", "1e-9:1e-3:60", "--out-dir", str(tmp_path),
                     "--jobs", "1")
    assert code == 0
    assert len(list(tmp_path.glob("*.csv"))) == 4
    rows = data_rows((tmp_path / "scan_omega_c_inf.csv").read_text())
    assert len(rows) == 61


def test_default_scan_records_its_grid_and_matches_it_given_explicitly(tmp_path, capsys):
    # the default rc grid is the spec 1e-9:1e-3:60: the manifest records it,
    # and every panel holds the data rows of the same spec given on the command line
    for name, grid in (("default", ()), ("explicit", ("--rc-grid", "1e-9:1e-3:60"))):
        assert run(capsys, "scan", "--out-dir", str(tmp_path / name), *grid)[0] == 0
    manifest = json.loads((tmp_path / "default" / "scan_manifest.json").read_text())
    assert manifest["parameters"]["rc_grid"] == "1e-9:1e-3:60"
    names = sorted(p.name for p in (tmp_path / "default").glob("*.csv"))
    assert len(names) == 4 and names == sorted(
        p.name for p in (tmp_path / "explicit").glob("*.csv"))
    for name in names:
        assert (data_rows((tmp_path / "default" / name).read_text())
                == data_rows((tmp_path / "explicit" / name).read_text()))


def test_scan_single_point_grid(tmp_path, capsys):
    code, _, _ = run(capsys, "scan", "--omega-c", "inf", "--rc-grid",
                     "1e-7:1e-7:1", "--out-dir", str(tmp_path), "--jobs", "1",
                     "--experiments", "xray")
    assert code == 0
    rows = data_rows((tmp_path / "scan_omega_c_inf.csv").read_text())
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) == pytest.approx(8.03e-12, rel=1e-6)


def test_scan_cutoff_spellings_differing_in_case_write_one_panel(tmp_path, capsys):
    # '1e4' and '1E4' name one file, so the second is a duplicate, as 'INF'
    # is of 'inf'; '10000' and '+1e4' are spelled differently and keep
    # panels of their own
    code, out, _ = run(capsys, "scan", "--experiments", "xray", "--rc-grid", "1e-8:1e-6:3",
                       "--omega-c", "1e4,1E4,inf,INF,10000,+1e4", "--out-dir", str(tmp_path))
    assert code == 0
    names = ["scan_omega_c_1e4.csv", "scan_omega_c_inf.csv", "scan_omega_c_10000.csv",
             "scan_omega_c_+1e4.csv"]
    assert out.splitlines() == [str(tmp_path / n) for n in names]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(names)
    assert "# omega_c_rad_s: exp:1e4" in (tmp_path / names[0]).read_text().splitlines()


def test_scan_error_log_names_the_cutoff_spelling_of_each_panel(tmp_path, capsys):
    # '1e-300' and '1.0e-300' are equal cutoffs in separate panels; every
    # point washes out at both, and each error is logged under its own
    # panel's token, none under the white panel
    code, _, _ = run(capsys, "scan", "--experiments", "bulk-heating,xray",
                     "--rc-grid", "1e-8:1e-6:3", "--omega-c", "1e-300,1.0e-300,inf",
                     "--out-dir", str(tmp_path))
    assert code == 0
    errors = json.loads((tmp_path / "scan_manifest.json").read_text())["errors"]
    counts = {}
    for e in errors:
        key = (e["experiment"], e["omega_c"])
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(x, t): 3 for x in ("bulk-heating", "xray")
                      for t in ("exp:1e-300", "exp:1.0e-300")}


def _percent_block(table):
    row = ",".join(["%.8e"] * table.shape[1]) + "\n"
    return ((row * table.shape[0]) % tuple(table.ravel().tolist())).replace("nan", "")


def _blocks(table):
    # the data rows of each panel of a (panels x rc x columns) table, as
    # cmd_scan writes them from one _cells call over all its panels
    cells = cli._cells(table).reshape(*table.shape[:2], -1)
    return [cli._join_rows(panel) for panel in cells]


def test_format_block_is_percent_format(monkeypatch):
    rng = np.random.default_rng(2024)
    # random 64-bit patterns: NaN, +-inf, subnormals, both signs, every
    # exponent, as 10 panels of 300 rc and 9 columns
    tables = [rng.integers(0, 2**64, 27000, dtype=np.uint64).view(float).reshape(10, 300, 9)]
    # integers 1e9 +- 5000, exact ties such as 1000000005 and 1000000015
    # (round half to even) among them, unscaled, scaled and negated: a panel each
    ints = np.arange(1e9 - 5000, 1e9 + 5001)
    tables.append(np.stack([np.column_stack([ints * s, -ints * s])
                            for s in (1.0, 1e-7, 1e100, 1e-250)]))
    # 10^k for k in [-300, 300], its float neighbours, 3-digit exponents, +-0
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                            -powers, [0.0, -0.0, 1.5e-300, -9.99999999e299, 1e308, 5e-324]])
    tables += [edges.reshape(1, -1, 1), edges.reshape(1, 1, -1), edges[:-2].reshape(2, -1, 7),
               np.array([[[np.nan]]])]
    for table in tables:
        assert _blocks(table) == [_percent_block(panel) for panel in table]
    assert _blocks(np.array([[[1000000005.0, 1000000015.0]]])) == [
        "1.00000000e+09,1.00000002e+09\n"]
    # a tie and a magnitude out of [1e-290, 1e290] reach the "%" fallback, in
    # panel order; a NaN is an empty cell without it
    seen = []
    monkeypatch.setattr(cli, "_fmt", lambda v: seen.append(v) or "%.8e" % v)
    table = np.array([[[1e-7, 1000000005.0, 1e-300]], [[np.nan, 2.5e300, 3.0]]])
    assert _blocks(table) == [_percent_block(panel) for panel in table]
    assert seen == [1000000005.0, 1e-300, 2.5e300]


def test_multi_cutoff_panels_are_the_one_cutoff_scans(tmp_path, capsys):
    # a scan formats all its panels in one pass: each panel it writes is,
    # but for the manifest line, byte for byte the panel a scan of that cutoff
    # alone writes, washed-out (empty) cells and an all-empty panel included
    cutoffs = ("inf", "1e-10", "1e4", "3e12", "1e-300")
    args = ("--experiments", "bulk-heating,xray,cantilever,cold-atom",
            "--rc-grid", "1e-9:1e-3:40")
    assert run(capsys, "scan", *args, "--omega-c", ",".join(cutoffs),
               "--out-dir", str(tmp_path / "all"))[0] == 0
    empty = {}
    for cutoff in cutoffs:
        code = run(capsys, "scan", *args, "--omega-c", cutoff, "--out-dir", str(tmp_path / cutoff))[0]
        assert code == (3 if cutoff == "1e-300" else 0)  # 3: every point of the scan failed
        name = f"scan_omega_c_{cutoff}.csv"
        many, one = ((tmp_path / d / name).read_text(encoding="utf-8").split("\n", 1)
                     for d in ("all", cutoff))
        assert many[0].startswith("# manifest: ") and one[0].startswith("# manifest: ")
        assert many[1] == one[1], cutoff
        empty[cutoff] = sum(row.split(",").count("") for row in many[1].splitlines()[2:])
    assert empty["inf"] == 0 and empty["1e-10"] == 40 and empty["1e-300"] == 200


def test_scan_blanks_missing_cells_in_data_rows_only(tmp_path, capsys):
    # ids holding "nan" and "inf": blanking a missing value must leave the
    # header and the manifest line as they are
    data = Path(cli.__file__).parent / "data"
    cfgs = []
    for bundled, new_id in (("cantilever", "nanosphere"), ("xray", "inf-nan")):
        text = (data / f"{bundled}.cfg").read_text(encoding="utf-8")
        cfgs.append(tmp_path / f"{new_id}.cfg")
        cfgs[-1].write_text(text.replace(f"id = {bundled}\n", f"id = {new_id}\n"),
                            encoding="utf-8")
    args = ("--omega-c", "1e-10", "--rc-grid", "1e-9:1e-3:5")
    renamed, bundled = tmp_path / "renamed", tmp_path / "bundled"
    assert run(capsys, "scan", "--experiments", f"{cfgs[0]},{cfgs[1]},bulk-heating",
               "--out-dir", str(renamed), *args)[0] == 0
    assert run(capsys, "scan", "--experiments", "cantilever,xray,bulk-heating",
               "--out-dir", str(bundled), *args)[0] == 0
    lines = (renamed / "scan_omega_c_1e-10.csv").read_text(encoding="utf-8").splitlines()
    manifest = (renamed / "scan_manifest.json").read_text(encoding="utf-8")
    assert lines[0] == f"# manifest: {manifest.strip()}"
    assert json.loads(manifest)["experiment_ids"] == ["nanosphere", "inf-nan", "bulk-heating"]
    assert lines[1:3] == ["# omega_c_rad_s: exp:1e-10",
                          "rc_m,nanosphere_lambda_max_s^-1,inf-nan_lambda_max_s^-1,"
                          "bulk-heating_lambda_max_s^-1,envelope_lambda_max_s^-1"]
    want = (bundled / "scan_omega_c_1e-10.csv").read_text(encoding="utf-8").splitlines()
    assert lines[3:] == want[3:] and len(lines) == 3 + 5
    # bulk heating washes out at 1e-10 rad/s: an empty cell in every row
    assert all(ln.split(",")[3] == "" for ln in lines[3:])


def test_scan_panel_with_every_point_failed_is_empty(tmp_path, capsys):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(SPHERE_CYLINDER_PAIR, encoding="utf-8")
    code, _, err = run(capsys, "scan", "--experiments", str(cfg), "--omega-c", "inf",
                       "--rc-grid", "1e-5:1e-3:3", "--out-dir", str(tmp_path))
    assert code == 3 and err == "error: every scan point failed\n"
    rows = data_rows((tmp_path / "scan_omega_c_inf.csv").read_text(encoding="utf-8"))
    assert rows[0] == "rc_m,bad-pair_lambda_max_s^-1,envelope_lambda_max_s^-1"
    assert [ln.split(",")[1:] for ln in rows[1:]] == [["", ""]] * 3
    errors = json.loads((tmp_path / "scan_manifest.json").read_text())["errors"]
    assert len(errors) == 3


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SPHERE_CYLINDER_PAIR, encoding="utf-8")
    code, _, err = run(capsys, "predict", "--experiment", str(cfg),
                       "--lambda", "1e-12", "--rc", "1e-4", "--noise", "white")
    assert code == 3
    assert "error" in err


def test_scan_at_overflowing_cutoff_prints_no_warnings(tmp_path):
    # a cutoff so small that w/Wc overflows: every spectrum is 0, so force and
    # X-ray points wash out, as do cold-atom points, whose bracket leaves the
    # float range; numpy must print no overflow warning
    proc = run_python("-m", "ccsl", "scan", "--jobs", "1", "--omega-c", "1e-300",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 3
    assert proc.stderr == "error: every scan point failed\n"
    errors = json.loads((tmp_path / "scan_manifest.json").read_text())["errors"]
    washed = {e["experiment"] for e in errors
              if e["error"].startswith(("force response vanished", "spectrum vanished",
                                        "cold-atom bracket out of range"))}
    assert washed == {"auriga", "cantilever", "cold-atom", "ligo", "lisa-pathfinder", "xray"}


# --- one process, many calls -------------------------------------------------------

def without_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    parser = build_parser()
    bound = ["bound", "--experiment", "xray,cantilever", "--rc", "1e-7",
             "--noise", "exp:1e4"]
    code, first, _ = run(capsys, *bound)
    assert code == 0
    assert run(capsys, "bound", "--experiment", "xray", "--rc=-1") == (
        2, "", "error: --rc: must be > 0 and finite, got -1.0\n")
    code, out, _ = run(capsys, "predict", "--experiment", "xray", "--lambda", "1e-12",
                       "--rc", "1e-7", "--format", "json")
    assert code == 0 and json.loads(out)["manifest"]["command"] == "predict"
    code, out, _ = run(capsys, "scan", "--experiments", "xray,cantilever",
                       "--omega-c", "inf,1e4", "--rc-grid", "1e-8:1e-4:3",
                       "--out-dir", str(tmp_path), "--jobs", "2")
    assert code == 0 and len(out.splitlines()) == 2
    manifest = json.loads((tmp_path / "scan_manifest.json").read_text())
    assert manifest["parameters"]["jobs"] == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: ccsl")
    code, last, _ = run(capsys, *bound)
    assert code == 0
    assert without_timestamp(last) == without_timestamp(first)
    assert build_parser() is parser


# requests of every command, between them --omega, --rc-grid and --format json
COMMAND_ARGV = [
    ["predict", "--experiment", "xray,cantilever", "--lambda", "1e-12", "--rc", "1e-7",
     "--omega", "1e15", "--noise", "exp:1e4"],
    ["predict", "--experiment", "bulk-heating", "--lambda", "1e-12", "--rc", "1e-7",
     "--format", "json"],
    ["bound", "--experiment", "xray", "--rc", "1e-7", "--noise", "inf"],
    ["bound", "--experiment", "all", "--rc-grid", "1e-8:1e-6:3", "--format", "json"],
    ["scan", "--experiments", "xray,cantilever", "--omega-c", "inf,1e4",
     "--rc-grid", "1e-8:1e-6:3", "--jobs", "2"],
]


# the same kinds of request spelled as only argparse parses them: an
# abbreviated flag, "--flag=value", a repeated flag, a "-"-prefixed value
FALLBACK_ARGV = [
    ["bound", "--exp", "xray", "--rc=1e-7", "--format=json"],
    ["bound", "--experiment", "cantilever", "--experiment", "xray", "--rc", "1e-7"],
    ["predict", "--experiment", "xray", "--lambda", "-0", "--rc", "1e-7"],
    ["scan", "--experiments=xray", "--omega-c", "inf", "--rc-grid", "1e-8:1e-6:3", "--jobs=2"],
]


@pytest.mark.parametrize("argv", COMMAND_ARGV + FALLBACK_ARGV,
                         ids=["predict-omega", "predict-json", "bound-rc", "bound-rc-grid-json",
                              "scan", "bound-abbreviated", "bound-repeated",
                              "predict-negative-zero", "scan-equals"])
def test_main_parses_as_the_top_level_parser(tmp_path, capsys, monkeypatch, argv):
    # main hands argv naming a command to that command's exact form or, for
    # any other spelling, to that command's parser alone; the Namespace is
    # the top-level parser's, but for the command name it sets
    exact = argv in COMMAND_ARGV
    if argv[0] == "scan":
        argv = [*argv, "--out-dir", str(tmp_path)]
    assert (cli._parse_exact(argv[0], argv[1:]) is not None) == exact
    parsed, check = [], cli._check_numbers

    def recording(args):
        parsed.append(dict(vars(args)))
        check(args)

    monkeypatch.setattr(cli, "_check_numbers", recording)
    assert run(capsys, *argv)[0] == 0
    want = vars(build_parser().parse_args(argv))
    assert want.pop("command") == argv[0]
    assert parsed == [want]


def parse_alone(parser, argv):
    """(Namespace, None), or (None, (exit code, stdout, stderr)) where
    parser.parse_args(argv) exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(argv), None
        except SystemExit as exc:
            return None, (exc.code or 0, out.getvalue(), err.getvalue())


def flags_in_help(parser):
    return set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", parser.format_help()))


VALUES = ["xray", "xray,cantilever", "1e-7", " 3e-8", "1_0", "2", "0", "-0", "-1", "nan", "inf",
          "abc", "", "csv", "json", "xml", "exp:1e4", "1e-8:1e-6:3", "a=b", "-h", "--", "--rc"]


def values_for(action):
    """Values for a flag, mostly ones its type and choices take."""
    if action.choices:
        return [*action.choices, "xml"]
    if action.type is not None:
        return ["1e-7", " 3e-8", "1_0", "2", "inf", "nan", "2.5", "abc"]
    return ["xray", "xray,cantilever", "1e-8:1e-6:3", "", "a=b", "exp:1e4"]


def argv_for(command):
    """argv for command: "--flag value" pairs of all its flags but up to
    two, in any order, and the spellings that argparse alone parses or
    rejects (abbreviations, "--flag=value", repeats, lone flags or values,
    "-h", "--", unknown flags), alone or spliced into such pairs."""
    actions = cli._exact_forms()[command][0]
    flags = sorted(flags_in_help(build_parser().commands[command]) - {"-h", "--help"})
    canonical = st.permutations(flags).flatmap(
        lambda order: st.integers(len(order) - 2, len(order)).flatmap(
            lambda k: st.tuples(*(st.sampled_from(values_for(actions[f])) for f in order[:k])).map(
                lambda values: [t for fv in zip(order, values) for t in fv])))
    tokens = flags + ["-h", "--help", "--bogus", "--exp", "--rc-g", "--form", "--"]
    pair = st.tuples(st.sampled_from(tokens), st.sampled_from(VALUES))
    piece = st.one_of(pair.map(list), pair.map(lambda fv: ["=".join(fv)]),
                      st.sampled_from(tokens + VALUES).map(lambda t: [t]))
    messy = st.lists(piece, max_size=7).map(lambda pieces: [t for p in pieces for t in p])
    spliced = st.tuples(canonical, messy, st.integers(0, 8)).map(
        lambda c: c[0][:2 * c[2]] + c[1] + c[0][2 * c[2]:])
    return st.one_of(canonical, st.one_of(messy, spliced))


def comparable(namespace):
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


@pytest.mark.parametrize("command", ["predict", "bound", "scan"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_form_parses_as_argparse(command, data):
    # where the exact form takes argv it returns argparse's Namespace; where
    # the command's parser exits, the form declines and main exits as the
    # parser alone does, printing the same bytes
    argv = data.draw(argv_for(command))
    exact = cli._parse_exact(command, argv)
    _, exited = parse_alone(build_parser().commands[command], argv)
    if exact is not None:
        want = build_parser().parse_args([command, *argv])
        del want.command
        assert comparable(exact) == comparable(want)
    if exited:
        assert exact is None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *argv])
        assert (code, out.getvalue(), err.getvalue()) == exited


def test_every_flag_of_every_command_is_in_its_exact_form():
    # a flag a command parser gains is either modelled by the exact form or
    # found here: its table holds every flag the help lists but -h/--help
    for name, parser in build_parser().commands.items():
        form = cli._exact_forms()[name]
        assert form is not None, name
        assert set(form[0]) == flags_in_help(parser) - {"-h", "--help"}


@pytest.mark.parametrize("kwargs", [
    dict(action="store_true"), dict(action="store_const", const=1), dict(action="append"),
    dict(action="count"), dict(nargs="?"), dict(nargs=1), dict(nargs="+"),
    dict(type=int, default="1"),  # parse_args converts a str default at its end
], ids=repr)
def test_exact_form_declines_what_it_does_not_model(monkeypatch, kwargs):
    def fake_parser(group_default=None, **extra):
        p = argparse.ArgumentParser(prog="fake")
        group = p.add_mutually_exclusive_group()
        members = (group.add_argument("--a", default=group_default),)
        p.arguments = [p.add_argument("--x", type=float), *members]
        if extra:
            p.arguments.append(p.add_argument("--odd", **extra))
        p.exclusive = [(group, members)]
        ap = argparse.ArgumentParser()
        ap.commands = {"fake": p}
        return ap

    for parser, modelled in [(fake_parser(), True), (fake_parser(**kwargs), False),
                             (fake_parser(group_default="a"), False)]:
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        cli._exact_forms.cache_clear()
        try:
            assert (cli._exact_forms()["fake"] is not None) == modelled
        finally:
            cli._exact_forms.cache_clear()


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["frob"], ["bound", "-h"]],
                         ids=lambda argv: "_".join(argv) or "no-argv")
def test_help_and_bad_command_keep_their_exit_and_first_line(capsys, argv):
    # main prints what the top-level parser alone prints for these argv
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    parser_out = capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == (exc.value.code or 0) == (0 if "-h" in argv or "--help" in argv else 2)
    text, parser_text = (out, parser_out.out) if code == 0 else (err, parser_out.err)
    first = text.splitlines()[0]
    assert first == parser_text.splitlines()[0]
    assert first.startswith("usage: ccsl bound [-h]" if argv[:1] == ["bound"] else
                            "usage: ccsl [-h] {predict,bound,scan}")


@pytest.mark.parametrize("argv", COMMAND_ARGV[::2], ids=lambda argv: argv[0])
def test_unknown_argument_shows_the_command_usage(tmp_path, capsys, argv):
    if argv[0] == "scan":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv, "--bogus")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: ccsl {argv[0]} [-h]")
    assert lines[-1] == f"ccsl {argv[0]}: error: unrecognized arguments: --bogus"
    assert not (tmp_path / "out").exists()


def test_module_entry_point_prints_the_rows_main_prints(capsys):
    # python -m ccsl calls main() with no argv, which reads sys.argv
    argv = ["bound", "--experiment", "xray,cantilever", "--rc-grid", "1e-8:1e-6:3",
            "--noise", "exp:1e4"]
    proc = run_python("-m", "ccsl", *argv)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert data_rows(proc.stdout) == data_rows(out)


def test_parser_is_not_built_at_import():
    proc = run_python("-c", "import ccsl.cli as c; print(c.build_parser.cache_info().currsize, "
                            "c._exact_forms.cache_info().currsize)")
    assert proc.returncode == 0 and proc.stdout == "0 0\n"


@pytest.mark.parametrize("argv", [
    ["predict", "--experiment", "xray,cantilever", "--lambda", "1e-12", "--rc", "1e-7",
     "--noise", "exp:1e4"],
    ["bound", "--experiment", "xray,{bad}", "--rc", "1e-4"],  # logs one error
])
def test_json_output_matches_the_round_tripped_manifest(tmp_path, capsys, monkeypatch, argv):
    # embedding the manifest's dict prints the same bytes as embedding a
    # JSON round trip of it
    bad = tmp_path / "bad.cfg"
    bad.write_text(SPHERE_CYLINDER_PAIR, encoding="utf-8")
    made, manifest_class = [], cli.RunManifest

    def recording(*args, **kwargs):
        made.append(manifest_class(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "RunManifest", recording)
    _, out, _ = run(capsys, *[a.format(bad=bad) for a in argv], "--format", "json")
    doc = json.loads(out)
    assert doc["results"]
    if argv[0] == "bound":
        assert len(doc["manifest"]["errors"]) == 1
    old = json.dumps({"manifest": json.loads(made[0].to_json()), "results": doc["results"]},
                     indent=2, sort_keys=True) + "\n"
    assert out == old


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u00e9\u2028'
                                              '\ud800\udfff\U0001f600 aZ'))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.sampled_from(EDGE_FLOATS), st.floats().map(np.float64), TEXT)
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(TEXT, kids, max_size=4)), max_leaves=25)


def written_json(o):
    out = []
    cli._write_json(o, "\n", out)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(o=st.one_of(TREES, TREES.map(lambda t: {"a": [(t, {})], "b": []})))
def test_json_writer_prints_the_bytes_of_json_dumps(o):
    # the second kind nests every tree at least 3 deep beside empty containers
    assert written_json(o) == json.dumps(o, indent=2, sort_keys=True)


@pytest.mark.parametrize("o", [{1, 2}, {"a": [{"b": {1}}]}, [object()], {(1,): 1},
                               np.bool_(True), np.int64(1), np.float32(1.0), b"x"],
                         ids=["set", "nested-set", "object", "tuple-key", "np-bool", "np-int64",
                              "np-float32", "bytes"])
def test_json_writer_raises_type_error_where_json_does(o):
    with pytest.raises(TypeError):
        json.dumps(o, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        written_json(o)
