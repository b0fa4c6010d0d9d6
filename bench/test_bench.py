"""Tests of the benchmark itself: seeded inputs, the correctness checks,
the host probe, the client processes and the span recorder.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import probe  # noqa: E402
import queries  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ccsl import bounds, cli, diffusion, load  # noqa: E402

PERTURBATION = 1e-6


def _queries(seed, n=300):
    return list(islice(workloads.query_stream(seed), n))


@pytest.mark.parametrize("workload", workloads.SCAN_WORKLOADS)
def test_same_seed_same_scan_inputs(workload):
    assert workloads.scan_inputs(workload, 7) == workloads.scan_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.SCAN_WORKLOADS)
def test_other_seed_other_scan_inputs_of_same_size(workload):
    a, b = workloads.scan_inputs(workload, 1), workloads.scan_inputs(workload, 2)
    assert a.rc_grid != b.rc_grid
    assert a.omega_c != b.omega_c
    assert (a.experiments, a.configs, a.n_rc, len(a.omega_c), a.points) == (
        b.experiments, b.configs, b.n_rc, len(b.omega_c), b.points)
    for inputs in (a, b):
        rcs = check.rc_values(inputs.rc_grid)
        # shifted by less than one grid step
        assert workloads.RC_LO <= rcs[0] < workloads.RC_LO * rcs[1] / rcs[0]
        assert rcs[-1] / rcs[0] == pytest.approx(workloads.RC_HI / workloads.RC_LO)


def test_query_stream_is_seeded():
    assert _queries(3) == _queries(3)
    a, b = _queries(3), _queries(4)
    assert a != b and len(a) == len(b)
    commands = [q[0] for q in a]
    assert 0.65 < commands.count("bound") / len(commands) < 0.85


@pytest.mark.parametrize("exp_id", workloads.BUNDLED)
@pytest.mark.parametrize("noise", ["inf", "1e4"])
def test_round_trip_flags_perturbed_value(exp_id, noise):
    desc, n, rc = load(exp_id), check.noise_of(noise), 3e-7
    printed = float(check.fmt(bounds.lambda_max_for(desc, n, rc)))
    assert check.round_trip_error(desc, n, rc, printed) <= check.ROUND_TRIP_TOL
    for sign in (1.0, -1.0):
        bad = printed * (1.0 + sign * PERTURBATION)
        assert check.round_trip_error(desc, n, rc, bad) > check.ROUND_TRIP_TOL


def test_reference_route_agrees_where_affordable():
    desc, n, rc = load("cantilever"), check.noise_of("inf"), 1e-5
    assert check.reference_affordable(desc, rc)
    assert not check.reference_affordable(load("auriga"), rc)
    lam = bounds.lambda_max_for(desc, n, rc)
    assert check.reference_error(desc, n, rc, lam) <= check.REFERENCE_TOL


@pytest.fixture
def small_scan(tmp_path, monkeypatch):
    """A 12-point scan of the composite-pairs configs, which leaves cells
    empty (failed points), with its reference record."""
    monkeypatch.chdir(tmp_path)
    inputs = workloads.ScanInputs(tuple(sorted(workloads.COMPOSITE_CONFIGS)),
                                  "1e-9:1e-3:12", ("1e4",), workloads.COMPOSITE_CONFIGS)
    for name, text in inputs.configs.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert cli.main(inputs.argv(str(out), 1)) == 0
    ids = [load(s).id for s in inputs.experiments]
    assert check.check_structure(inputs, ids, out) == []
    return inputs, ids, out, check.column_digests(inputs, ids, out)


def _edit_cell(out, token, edit):
    """Apply edit(row cells) to the first row where it returns True."""
    path = check.panel_path(out, token)
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith("#") or line.startswith("rc_m"):
            continue
        cells = line.split(",")
        if edit(cells):
            lines[k] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_reference_flags_perturbed_cell(small_scan):
    inputs, ids, out, ref = small_scan
    assert check.compare_reference(ref, inputs, ids, out) == (0, 0, [])

    def perturb(cells):
        cells[2] = check.fmt(float(cells[2]) * (1.0 + PERTURBATION))
        return True

    _edit_cell(out, "1e4", perturb)
    bad, recovered, problems = check.compare_reference(ref, inputs, ids, out)
    assert bad == inputs.n_rc and recovered == 0 and len(problems) == 1


def test_reference_counts_recovered_not_lost(small_scan):
    inputs, ids, out, ref = small_scan

    def fill_empty(cells):
        if cells[1] == "":
            cells[1] = "1.00000000e-10"
            return True
        return False

    _edit_cell(out, "1e4", fill_empty)
    assert check.compare_reference(ref, inputs, ids, out) == (0, 1, [])

    def blank_filled(cells):
        if cells[3]:
            cells[3] = ""
            return True
        return False

    _edit_cell(out, "1e4", blank_filled)
    bad, recovered, problems = check.compare_reference(ref, inputs, ids, out)
    assert bad == inputs.n_rc and "newly failed" in problems[0]


def test_structure_flags_wrong_envelope(small_scan):
    inputs, ids, out, _ = small_scan

    def break_envelope(cells):
        cells[-1] = check.fmt(float(cells[-1]) * (1.0 + PERTURBATION))
        return True

    _edit_cell(out, "1e4", break_envelope)
    assert any("envelope" in p for p in check.check_structure(inputs, ids, out))


def test_query_check_flags_perturbed_answer():
    descs = [load(s) for s in workloads.BUNDLED]
    records = []
    for argv in _queries(5, 40):
        code, out, _ = queries.send(cli.main, argv)
        records.append((argv, code, out, 0.0))
    assert check.check_answers(records, descs) == (0, [])
    k = next(i for i, r in enumerate(records) if r[0][0] == "bound")
    argv, code, out, _ = records[k]
    lam = check.answer(out, dict(zip(argv[1::2], argv[2::2])), None)
    records[k] = (argv, code, out.replace(repr(lam) if "json" in argv else check.fmt(lam),
                                          repr(lam * (1.0 + PERTURBATION))), 0.0)
    failed, problems = check.check_answers(records, descs)
    assert failed == 1 and "round trip" in problems[0]


def test_spans_nest_and_restore():
    originals = (bounds.lambda_max_for, cli.scan, diffusion.eta_reduced, bounds.eta_reduced)
    diffusion.clear_cache()
    rec = spans.SpanRecorder()
    with spans.installed(rec) as main:
        assert bounds.lambda_max_for is not originals[0]
        code, _, _ = queries.send(main, ["bound", "--experiment", "cantilever",
                                         "--rc-grid", "1e-7:1e-6:3"])
    assert code == 0
    assert (bounds.lambda_max_for, cli.scan, diffusion.eta_reduced,
            bounds.eta_reduced) == originals
    layers = rec.layer_times()
    assert layers["cli.main"][0] == 1 and layers["bounds.scan"][0] == 1
    assert layers["bounds.lambda_max_for"][0] == 3
    assert layers["diffusion.eta_reduced"][0] == 3
    total = sum(self_s for _, self_s in layers.values())
    top = rec.end[0] - rec.start[0]
    assert total == pytest.approx(top, rel=1e-9)


def test_reference_time_scales_with_probe():
    ref = probe.REFERENCE_S
    assert probe.to_reference(0.3, ref, ref) == pytest.approx(0.3)
    # a host twice as slow doubles both the wall and the probe times
    assert probe.to_reference(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    assert probe.to_reference(0.3, ref, 3 * ref) == pytest.approx(0.15)


def _client(tmp_path, script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH.parent / "src"), str(BENCH)]))
    subprocess.run([sys.executable, str(BENCH / script), *args], cwd=tmp_path,
                   env=env, check=True, timeout=120)


def test_query_client_repeats_the_same_requests(tmp_path):
    out = tmp_path / "q.jsonl"
    _client(tmp_path, "queries.py", "--seed", "3", "--count", "60", "--seconds", "0",
            "--out", str(out))
    *lines, last = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert last["cycles"] == 2 and len(last["wall_s"]) == 2
    probes = [item["probe"] for item in lines if isinstance(item, dict)]
    records = [item for item in lines if isinstance(item, list)]
    assert len(probes) == 2 * (1 + 2) and min(probes) > 0.0   # blocks of 50 and 10
    assert [r[0] for r in records] == 2 * _queries(3, 60)
    assert [r[1:3] for r in records[:60]] == [r[1:3] for r in records[60:]]


def test_scan_client_alternates_jobs(tmp_path):
    for name, text in workloads.COMPOSITE_CONFIGS.items():
        (tmp_path / name).write_text(text)
    _client(tmp_path, "scans.py", "--workload", "scan-composite-pairs", "--seed", "3",
            "--jobs", "2", "--seconds", "0", "--out", "passes")
    passes = [json.loads(ln) for ln in (tmp_path / "passes" / "passes.jsonl")
              .read_text().splitlines()]
    assert [p[0] for p in passes] == ["serial"] * 3 + ["parallel"]
    for (_, _, _, after, _, _), (_, _, before, _, _, _) in zip(passes, passes[1:]):
        assert after == before
    inputs = workloads.scan_inputs("scan-composite-pairs", 3)
    rows = [check.data_rows(inputs, tmp_path / p[5]) for p in passes]
    assert all(p[4] == 0 for p in passes) and all(r == rows[0] for r in rows)
