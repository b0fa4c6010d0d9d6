import json
import re
from pathlib import Path

import numpy as np
import pytest

from ccsl import cli
from ccsl.cli import build_parser, main
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
    ("bulk-heating", "1e150", "heating_rate", "nan"),
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
    (["predict", "--experiment", "cantilever", "--lambda", "1e-12", "--rc", "1e-7",
      "--tol", "0.5"], "--tol"),
    (["bound", "--experiment", "xray", "--rc", "1e-7", "--tol", "0.5"], "--tol"),
    (["bound", "--experiment", "cantilever", "--rc", "1e-7", "--tol", "0.5"], "--tol"),
    (["scan", "--experiments", "cantilever", "--tol", "0", "--jobs", "1"], "--tol"),
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
])
def test_bad_number_exits_2_naming_its_flag(tmp_path, capsys, argv, flag):
    if argv[0] == "scan":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: ")
    assert out == ""
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


def _percent_block(table):
    row = ",".join(["%.8e"] * table.shape[1]) + "\n"
    return ((row * table.shape[0]) % tuple(table.ravel().tolist())).replace("nan", "")


def test_format_block_is_percent_format(monkeypatch):
    rng = np.random.default_rng(2024)
    # random 64-bit patterns: NaN, +-inf, subnormals, both signs, every exponent
    tables = [rng.integers(0, 2**64, 2700, dtype=np.uint64).view(float).reshape(300, 9)
              for _ in range(10)]
    # integers 1e9 +- 5000, exact ties such as 1000000005 and 1000000015
    # (round half to even) among them, unscaled, scaled and negated
    ints = np.arange(1e9 - 5000, 1e9 + 5001)
    tables += [np.column_stack([ints * s, -ints * s]) for s in (1.0, 1e-7, 1e100, 1e-250)]
    # 10^k for k in [-300, 300], its float neighbours, 3-digit exponents, +-0
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                            -powers, [0.0, -0.0, 1.5e-300, -9.99999999e299, 1e308, 5e-324]])
    tables += [edges.reshape(-1, 1), edges.reshape(1, -1), edges[:-2].reshape(-1, 7),
               np.array([[np.nan]])]
    for table in tables:
        assert cli._format_block(table) == _percent_block(table)
    assert cli._format_block(np.array([[1000000005.0, 1000000015.0]])) == (
        "1.00000000e+09,1.00000002e+09\n")
    # a tie and a magnitude out of [1e-290, 1e290] reach the "%" fallback; a
    # NaN is an empty cell without it
    seen = []
    monkeypatch.setattr(cli, "_fmt", lambda v: seen.append(v) or "%.8e" % v)
    table = np.array([[1e-7, 1000000005.0, 1e-300, np.nan, 2.5e300, 3.0]])
    assert cli._format_block(table) == _percent_block(table)
    assert seen == [1000000005.0, 1e-300, 2.5e300]


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


def test_scan_with_no_experiments_writes_rc_and_empty_envelope(tmp_path, capsys):
    code, _, err = run(capsys, "scan", "--experiments", "", "--omega-c", "inf",
                       "--rc-grid", "1e-8:1e-6:3", "--out-dir", str(tmp_path))
    assert code == 3 and err == "error: every scan point failed\n"
    rows = data_rows((tmp_path / "scan_omega_c_inf.csv").read_text(encoding="utf-8"))
    assert rows == ["rc_m,envelope_lambda_max_s^-1", "1.00000000e-08,",
                    "1.00000000e-07,", "1.00000000e-06,"]


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


def test_parser_is_not_built_at_import():
    proc = run_python("-c", "import ccsl.cli as c; print(c.build_parser.cache_info().currsize)")
    assert proc.returncode == 0 and proc.stdout == "0\n"


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
