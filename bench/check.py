"""Correctness checks on ccsl's outputs, run outside the timed passes.

* Structure, every scan pass: one panel per cutoff, one row per rc with the
  rc cell equal to the grid value, the envelope equal to the row minimum,
  and manifest errors plus filled cells equal to the points attempted.
* Byte identity, default seed: each experiment column's data cells must
  match the stored reference digest. A cell that was empty at the
  reference commit (the point failed or washed out) and is filled now is
  counted as recovered, not as a mismatch.
* Independent route, any seed: a seeded sample of points goes through the
  predict <-> bound round trip (predict at lambda = lambda_max must
  reproduce the ceiling), and force points whose geometry is small
  against rc are compared with ``eta_reduced_reference``.
* Point queries: every answer is round-tripped the same way; a predict
  answer times lambda_max / lambda must reproduce the ceiling.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ccsl import (CONSTANTS, WHITE, CollapseParams, cold_atom_diffusion, dns_ccsl,
                  eta_reduced_reference, exponential, heating_rate,
                  normalized_xray_rate, spectrum)
from ccsl.bounds import lambda_max_for
from ccsl.geometry import circumradius

# 9 significant digits round lambda_max by at most 5e-9 relative; a value
# perturbed by 1e-6 must fail.
ROUND_TRIP_TOL = 1e-7
# eta_reduced_reference with a 32 x 32 angular rule is within 2e-8 of the
# exact value where it is affordable
REFERENCE_TOL = 1e-6
REFERENCE_RULE = 32
# affordable: at most this many form-factor oscillation panels on [0, 10/rc]
REFERENCE_MAX_PANELS = 12.0

OBSERVABLE = {"optomechanical": "force_psd_ccsl", "xray": "xray_normalized_rate",
              "bulk_heating": "heating_rate", "cold_atom": "position_variance"}


def fmt(x: float) -> str:
    """ccsl's CSV number format: 9 significant digits."""
    return f"{x:.8e}"


def noise_of(token: str):
    """Noise from a --omega-c token or a --noise value."""
    if token in ("inf", "white"):
        return WHITE
    return exponential(float(token.removeprefix("exp:")))


def rc_values(rc_grid: str) -> np.ndarray:
    lo, hi, n = rc_grid.split(":")
    return np.geomspace(float(lo), float(hi), int(n))


# --- independent routes ------------------------------------------------------

def predicted(desc, noise, rc: float, lam: float) -> float:
    """The observable that desc.ceiling bounds, predicted at (lam, rc)."""
    p = CollapseParams(lam=lam, rc=rc)
    probe = desc.ceiling.probe
    if desc.kind == "optomechanical":
        w = probe[0] if isinstance(probe, tuple) else probe
        return float(dns_ccsl(desc.geometry, p, noise, w))
    if desc.kind == "xray":
        return float(normalized_xray_rate(p, noise, probe))
    if desc.kind == "bulk_heating":
        return float(heating_rate(p, noise, desc.phonon))
    return float(cold_atom_diffusion(p, noise, desc.coldatom))


def round_trip_error(desc, noise, rc: float, lam: float) -> float:
    return abs(predicted(desc, noise, rc, lam) / desc.ceiling.value - 1.0)


def reference_affordable(desc, rc: float) -> bool:
    return (desc.kind == "optomechanical"
            and 10.0 * circumradius(desc.geometry) / (math.pi * rc) <= REFERENCE_MAX_PANELS)


def reference_error(desc, noise, rc: float, lam: float) -> float:
    """Relative distance of the eta implied by lambda_max from the
    independent spherical-coordinate evaluation."""
    probe = desc.ceiling.probe
    w = probe[0] if isinstance(probe, tuple) else probe
    implied = desc.ceiling.value / (CONSTANTS.hbar**2 * lam * float(spectrum(noise, w)))
    ref = eta_reduced_reference(desc.geometry, rc, n_theta=REFERENCE_RULE,
                                n_phi=REFERENCE_RULE).value
    return abs(implied / ref - 1.0)


# --- scan panels ---------------------------------------------------------------

def panel_path(out_dir: Path, token: str) -> Path:
    return Path(out_dir) / f"scan_omega_c_{token.lower()}.csv"


def read_panel(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in Path(path).read_text("utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_structure(inputs, ids: list[str], out_dir: Path) -> list[str]:
    """Problems with one scan pass's output; empty when it is well formed."""
    problems = []
    grid = [fmt(rc) for rc in rc_values(inputs.rc_grid)]
    want_header = (["rc_m"] + [f"{i}_lambda_max_s^-1" for i in ids]
                   + ["envelope_lambda_max_s^-1"])
    filled = 0
    for token in inputs.omega_c:
        path = panel_path(out_dir, token)
        if not path.is_file():
            problems.append(f"missing panel {path.name}")
            continue
        header, rows = read_panel(path)
        if header != want_header:
            problems.append(f"{path.name}: header {header}")
            continue
        if [r[0] for r in rows] != grid:
            problems.append(f"{path.name}: rc column differs from the grid")
            continue
        for r in rows:
            cells = [float(c) for c in r[1:-1] if c]
            filled += len(cells)
            want = fmt(min(cells)) if cells else ""
            if r[-1] != want:
                problems.append(f"{path.name}: envelope {r[-1]!r} != row minimum {want!r}")
                break
    manifest = json.loads((Path(out_dir) / "scan_manifest.json").read_text("utf-8"))
    if filled + len(manifest["errors"]) != inputs.points:
        problems.append(f"{filled} filled cells + {len(manifest['errors'])} errors "
                        f"!= {inputs.points} points")
    return problems


def manifest_errors(out_dir: Path) -> list[dict]:
    return json.loads((Path(out_dir) / "scan_manifest.json").read_text("utf-8"))["errors"]


def data_rows(inputs, out_dir: Path) -> tuple[list, list]:
    """What must repeat exactly between passes: every panel's header and
    data lines, and the manifest's failed points."""
    panels = [[ln for ln in panel_path(out_dir, t).read_text("utf-8").splitlines()
               if not ln.startswith("#")] for t in inputs.omega_c]
    return panels, manifest_errors(out_dir)


def _digest(cells) -> str:
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()


def _runs(flags) -> list[list[int]]:
    """[start, stop) index ranges where flags is true."""
    out = []
    for i, f in enumerate(flags):
        if f and out and out[-1][1] == i:
            out[-1][1] = i + 1
        elif f:
            out.append([i, i + 1])
    return out


def column_digests(inputs, ids: list[str], out_dir: Path) -> dict:
    """Reference record of a scan output: per panel and experiment column,
    the rows left empty and a digest of the filled cells."""
    panels = {}
    for token in inputs.omega_c:
        _, rows = read_panel(panel_path(out_dir, token))
        cols = {}
        for j, exp_id in enumerate(ids, start=1):
            cells = [r[j] for r in rows]
            cols[exp_id] = {"empty": _runs(c == "" for c in cells),
                            "sha256": _digest(c for c in cells if c)}
        panels[token] = cols
    return {"experiments": list(inputs.experiments), "rc_grid": inputs.rc_grid,
            "omega_c": list(inputs.omega_c), "panels": panels}


def compare_reference(ref: dict, inputs, ids: list[str], out_dir: Path
                      ) -> tuple[int, int, list[str]]:
    """(points in mismatching columns, recovered points, problems)."""
    if (ref["experiments"], ref["rc_grid"], ref["omega_c"]) != (
            list(inputs.experiments), inputs.rc_grid, list(inputs.omega_c)):
        return inputs.points, 0, ["inputs differ from the reference inputs"]
    bad = recovered = 0
    problems = []
    for token, cols in ref["panels"].items():
        _, rows = read_panel(panel_path(out_dir, token))
        for j, exp_id in enumerate(ids, start=1):
            want = cols[exp_id]
            was_empty = np.zeros(len(rows), dtype=bool)
            for lo, hi in want["empty"]:
                was_empty[lo:hi] = True
            cells = [r[j] for r in rows]
            lost = sum(1 for c, e in zip(cells, was_empty) if not e and not c)
            recovered += sum(1 for c, e in zip(cells, was_empty) if e and c)
            kept = [c for c, e in zip(cells, was_empty) if not e]
            if lost or _digest(kept) != want["sha256"]:
                bad += len(rows)
                problems.append(f"{token}/{exp_id}: data rows differ from the reference"
                                + (f" ({lost} points newly failed)" if lost else ""))
    return bad, recovered, problems


def filled_cells(inputs, ids: list[str], out_dir: Path) -> list[tuple]:
    """(token, experiment index, rc index, lambda_max) of every filled cell."""
    out = []
    for token in inputs.omega_c:
        _, rows = read_panel(panel_path(out_dir, token))
        for i, r in enumerate(rows):
            for j in range(len(ids)):
                if r[j + 1]:
                    out.append((token, j, i, float(r[j + 1])))
    return out


# --- point-query answers -------------------------------------------------------

def check_answers(records, descs) -> tuple[int, list[str]]:
    """Round trip every answer: predict at lambda = lambda_max reproduces the
    ceiling (bound), and value * lambda_max / lambda reproduces it (predict).
    A request repeated with the same answer is computed once."""
    by_id = {d.id: d for d in descs}
    failed, problems, known = 0, [], {}
    for argv, code, out, _ in records:
        opt = dict(zip(argv[1::2], argv[2::2]))
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            desc = by_id[opt["--experiment"]]
            observable = None if argv[0] == "bound" else OBSERVABLE[desc.kind]
            value = answer(out, opt, observable)
            key = (tuple(argv), value)
            if key not in known:
                known[key] = _answer_error(desc, opt, observable, value)
            if not known[key] <= ROUND_TRIP_TOL:
                raise ValueError(f"round trip error {known[key]:.3e}")
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            failed += 1
            if len(problems) < 20:
                problems.append(f"{' '.join(argv)}: {exc!r}")
    return failed, problems


def _answer_error(desc, opt: dict, observable: str | None, value: float) -> float:
    noise, rc = noise_of(opt["--noise"]), float(opt["--rc"])
    if observable is None:
        return round_trip_error(desc, noise, rc, value)
    lam_max = lambda_max_for(desc, noise, rc)
    return abs(value * lam_max / (float(opt["--lambda"]) * desc.ceiling.value) - 1.0)


def answer(out: str, opt: dict, observable: str | None) -> float:
    """lambda_max (bound) or the named observable (predict) from one answer."""
    if opt["--format"] == "json":
        results = json.loads(out)["results"]
        if observable is None:
            return float(results[0]["lambda_max_s^-1"])
        return float(next(r["value"] for r in results if r["observable"] == observable))
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    if observable is None:
        return float(rows[1][2])
    return float(next(r[2] for r in rows[1:] if r[1] == observable))
