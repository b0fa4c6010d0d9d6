"""Command-line front end: predictions, single bounds, and full scans.

Output is data only (CSV or JSON); plotting stays in external tools. Every
output embeds or accompanies a run manifest; rerunning with the same
arguments reproduces the data rows byte for byte.

Exit codes: 0 success, 2 argument/config errors, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import ExclusionCurve, default_rc_grid, envelope, scan
from .core import CollapseParams
from .diffusion import DEFAULT_TOL
from .errors import CcslError, ParseError, ValidationError
from .noise import WHITE, NoiseSpec, exponential
from .predict import (cold_atom_diffusion, dns_ccsl, dns_total, heating_rate,
                      normalized_xray_rate, xray_rate)
from .registry import ExperimentDescriptor, list_bundled, load

_TOL_HELP = ("relative tolerance in (0, 1e-2) of the full-sine heating quadrature "
             "(lambda_eff_quad); eta is closed form and does not use it")


def _fmt(x: float) -> str:
    # 9 significant digits: round-trip safe, no noise digits; "%.8e" % x == _fmt(x)
    return f"{x:.8e}"


def _parse_noise(token: str) -> NoiseSpec:
    token = token.strip().lower()
    if token in ("white", "inf"):
        return WHITE
    if token.startswith("exp:"):
        try:
            omega_c = float(token[4:])
        except ValueError:
            raise ValidationError("--noise", f"bad cutoff in {token!r}") from None
        return exponential(omega_c)
    raise ValidationError("--noise", f"expected 'white', 'inf' or 'exp:<rad_s>', got {token!r}")


def _check_numbers(args) -> None:
    """Reject a bad numeric flag before any work is done, naming the flag."""
    rc, lam = getattr(args, "rc", None), getattr(args, "lam", None)
    for flag, v in (("--rc", rc), ("--omega", getattr(args, "omega", None))):
        if v is not None and not 0.0 < v < math.inf:
            raise ValidationError(flag, f"must be > 0 and finite, got {v!r}")
    if lam is not None and not 0.0 <= lam < math.inf:
        raise ValidationError("--lambda", f"must be >= 0 and finite, got {lam!r}")
    if not 0.0 < args.tol < 1e-2:
        raise ValidationError("--tol", f"must lie in (0, 1e-2), got {args.tol!r}")


def _parse_rc_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValidationError("--rc-grid", "expected <lo>:<hi>:<n>") from None
    if not (0 < lo <= hi < math.inf) or n < 1 or (n > 1 and lo == hi):
        raise ValidationError("--rc-grid", "need 0 < lo <= hi finite, n >= 1, "
                                           "and lo < hi when n > 1")
    if n == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, n)


def _resolve_experiments(spec: str) -> list[ExperimentDescriptor]:
    if spec == "all":
        return [load(name) for name in list_bundled()]
    return [load(token.strip()) for token in spec.split(",") if token.strip()]


@dataclass
class RunManifest:
    command: str
    parameters: dict
    experiment_ids: list[str]
    version: str = __version__
    timestamp: str = field(default_factory=lambda: time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    errors: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    def comment_lines(self) -> list[str]:
        return [f"# manifest: {self.to_json()}"]


# --- predict ----------------------------------------------------------------

def _predict_rows(exp: ExperimentDescriptor, p: CollapseParams, n: NoiseSpec,
                  omega: float | None, tol: float) -> list[tuple[str, object, str]]:
    """(observable, a call that computes it, unit) for each of exp's rows."""
    if exp.kind == "optomechanical":
        probe = exp.ceiling.probe
        w = omega if omega is not None else (
            probe[0] if isinstance(probe, tuple) else probe)
        rows = [("force_psd_ccsl", lambda: dns_ccsl(exp.geometry, p, n, w), "N^2/Hz")]
        osc = exp.oscillator
        if osc is not None and osc.gamma_m is not None:
            rows.append(("displacement_dns_total",
                         lambda: dns_total(osc, exp.geometry, p, n, w), "m^2/Hz"))
        return rows
    if exp.kind == "xray":
        w = omega if omega is not None else exp.ceiling.probe
        return [("xray_normalized_rate", lambda: normalized_xray_rate(p, n, w), "s^-1 m^-2"),
                ("xray_dgamma_domega", lambda: xray_rate(p, n, w), "s^-1/(rad/s)")]
    if exp.kind == "bulk_heating":
        return [("heating_rate", lambda: heating_rate(p, n, exp.phonon, tol), "W/kg")]
    if exp.kind == "cold_atom":
        return [("position_variance", lambda: cold_atom_diffusion(p, n, exp.coldatom), "m^2")]
    raise ValidationError("experiment.kind", f"unknown kind {exp.kind!r}")


def _predict_value(exp_id: str, observable: str, call, rc: float) -> float:
    """call()'s value, or a CcslError naming the observable if it is not a finite float."""
    try:
        value = why = float(call())
    except CcslError:
        raise
    except ArithmeticError as err:
        value, why = math.nan, type(err).__name__
    if not math.isfinite(value):
        raise CcslError(f"{exp_id}: {observable} out of float range at rc={rc:.3e} ({why})")
    return value


def cmd_predict(args) -> int:
    experiments = _resolve_experiments(args.experiment)
    n = _parse_noise(args.noise)
    p = CollapseParams(lam=args.lam, rc=args.rc)
    manifest = RunManifest("predict", {
        "lambda_s^-1": args.lam, "rc_m": args.rc, "noise": args.noise,
        "omega_rad_s": args.omega, "tol": args.tol, "format": args.format,
    }, [e.id for e in experiments])
    rows = [(exp.id, o, _predict_value(exp.id, o, call, p.rc), u) for exp in experiments
            for o, call, u in _predict_rows(exp, p, n, args.omega, args.tol)]
    if args.format == "json":
        doc = {"manifest": vars(manifest),
               "results": [{"experiment": e, "observable": o, "value": v,
                            "unit": u} for e, o, v, u in rows]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in manifest.comment_lines():
            print(line)
        print("experiment,observable,value,unit")
        for e, o, v, u in rows:
            print(f"{e},{o},{_fmt(v)},{u}")
    return 0


# --- bound ------------------------------------------------------------------

def cmd_bound(args) -> int:
    experiments = _resolve_experiments(args.experiment)
    n = _parse_noise(args.noise)
    rc_values = _parse_rc_grid(args.rc_grid) if args.rc_grid else np.array([args.rc])
    manifest = RunManifest("bound", {
        "rc_m": args.rc, "rc_grid": args.rc_grid, "noise": args.noise,
        "tol": args.tol, "format": args.format,
    }, [e.id for e in experiments])
    omega_c = "inf" if n.is_white else _fmt(n.omega_c)
    curves = scan(experiments, [n], rc_values, args.tol,
                  on_error=lambda i, _, rc, e: manifest.errors.append(
                      {"experiment": i, "rc_m": rc, "error": str(e)}))[0]
    # washed-out rc points are simply absent from the curve
    rows = [(c.experiment_id, rc, lm) for c in curves for rc, lm in c.points]
    if args.format == "json":
        doc = {"manifest": vars(manifest),
               "results": [{"experiment": e, "rc_m": rc, "lambda_max_s^-1": lm,
                            "omega_c_rad_s": omega_c} for e, rc, lm in rows]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in manifest.comment_lines():
            print(line)
        print("experiment,rc_m,lambda_max_s^-1,omega_c_rad_s")
        for e, rc, lm in rows:
            print(f"{e},{_fmt(rc)},{_fmt(lm)},{omega_c}")
    if not rows:
        print("error: no bound could be computed (all points washed out or failed)",
              file=sys.stderr)
        return 3
    return 0


# --- scan -------------------------------------------------------------------

# 10^k correctly rounded for k in [_POW10_FROM, 300], and one empty cell:
# sign, 9 digits and point, "e", exponent sign, 3 exponent bytes, separator
_POW10_FROM = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_FROM, 301)])
_CELL = np.frombuffer(b"\0" + b"0.00000000e+000,", np.uint8)


def _format_block(table: np.ndarray) -> str:
    """The data rows of a 2-D table: each cell "%.8e" % x, cells joined by
    commas and rows ended by newlines, a NaN as an empty cell.

    Each cell's bytes are built in numpy, in a slot of _CELL whose NUL bytes
    are dropped at the end. The exponent is e = floor(log10|x|) and the
    mantissa m = rint(y), y = |x| 10^(8-e), with y off by less than 4e-7;
    m = 1e9 carries into e. log10 can put e one off only within a few ulps
    of a power of ten, where m is 1e8 or 1e9 either way, so no e needs a
    second pass. A cell goes to _fmt ("%") when its y lies within 1e-6 of a
    rounding tie (so exact ties round half to even, as "%" does), when m
    falls outside [1e8, 1e9], or when |x| lies outside [1e-290, 1e290] (0,
    subnormals, inf): every byte is the one "%" prints."""
    x = table.ravel()
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)  # False at NaN
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[8 - _POW10_FROM - e]
    m = np.rint(y)
    fast &= (np.abs(y - m) < 0.5 - 1e-6) & (m >= 1e8) & (m <= 1e9)
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    buf = np.empty((x.size, _CELL.size), np.uint8)
    buf[:] = _CELL
    buf[x < 0, 0] = ord("-")
    digits = m.astype(np.uint32)  # uint32 // a scalar: far faster than int64
    for col in (10, 9, 8, 7, 6, 5, 4, 3, 1):
        q = digits // 10
        buf[:, col] = digits - q * 10 + 48
        digits = q
    buf[e < 0, 12] = ord("-")
    hundreds, rest = np.divmod(np.abs(e).astype(np.uint32), 100)
    tens, units = np.divmod(rest, 10)
    three = hundreds > 0
    buf[:, 13] = np.where(three, hundreds, tens) + 48
    buf[:, 14] = np.where(three, tens, units) + 48
    buf[:, 15] = np.where(three, units + 48, 0)
    buf[table.shape[1] - 1::table.shape[1], -1] = ord("\n")  # the last cell of each row
    slow = np.flatnonzero(~fast)
    buf[slow, :-1] = 0
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        if v == v:
            s = _fmt(v).encode()
            buf[i, :len(s)] = np.frombuffer(s, np.uint8)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _write_panel_csv(path: Path, token: str, rc_grid: np.ndarray,
                     curves: list[ExclusionCurve], manifest: RunManifest):
    """One panel: rc, one column per curve and the envelope, stacked into one
    table and formatted as one block; a NaN (no bound) is an empty cell."""
    lines = list(manifest.comment_lines())
    lines.append(f"# omega_c_rad_s: {token}")
    header = ["rc_m"] + [f"{c.experiment_id}_lambda_max_s^-1" for c in curves]
    header.append("envelope_lambda_max_s^-1")
    lines.append(",".join(header))
    env = envelope(curves).lam if curves else np.full(rc_grid.shape, np.nan)
    table = np.column_stack([rc_grid] + [c.lam for c in curves] + [env])
    path.write_text("\n".join(lines) + "\n" + _format_block(table), encoding="utf-8")


def cmd_scan(args) -> int:
    experiments = _resolve_experiments(args.experiments)
    noise_tokens = [t.strip() for t in args.omega_c.split(",") if t.strip()]
    for t in noise_tokens:
        if t.lower() not in ("inf", "white"):
            try:
                exponential(float(t))
            except ValueError:  # also a ValidationError from a cutoff <= 0
                raise ValidationError("--omega-c",
                                      f"expected 'inf' or a number > 0, got {t!r}") from None
    rc_grid = _parse_rc_grid(args.rc_grid) if args.rc_grid else default_rc_grid()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("scan", {
        "omega_c_list": noise_tokens, "rc_grid": args.rc_grid,
        "experiments": [e.id for e in experiments], "tol": args.tol,
        "jobs": args.jobs,
    }, [e.id for e in experiments])

    # one panel per file tag: spellings that name one file ('inf'/'white'/
    # 'INF', '1e4'/'1E4') would write it twice and double every curve, so
    # keep the first spelling of each tag
    raw_by_tag: dict[str, str] = {}
    for raw in noise_tokens:
        raw_by_tag.setdefault("inf" if raw.lower() in ("inf", "white") else raw.lower(), raw)
    tokens = ["inf" if tag == "inf" else f"exp:{raw}" for tag, raw in raw_by_tag.items()]
    noises = [_parse_noise(t) for t in tokens]
    # '1e4' and '10000' are equal specs but separate panels, so an error is
    # logged under the token of the spec object it came from
    token_of = {id(n): t for n, t in zip(noises, tokens)}
    panels = scan(experiments, noises, rc_grid, args.tol,
                  on_error=lambda i, n, rc, e: manifest.errors.append(
                      {"experiment": i, "omega_c": token_of[id(n)], "rc_m": rc,
                       "error": str(e)}))

    written = []
    for tag, t, curves in zip(raw_by_tag, tokens, panels):
        path = out_dir / f"scan_omega_c_{tag}.csv"
        _write_panel_csv(path, t, rc_grid, curves, manifest)
        written.append(str(path))
    (out_dir / "scan_manifest.json").write_text(manifest.to_json() + "\n",
                                                encoding="utf-8")
    for path in written:
        print(path)
    if not any(c.points for curves in panels for c in curves):
        print("error: every scan point failed", file=sys.stderr)
        return 3
    return 0


# --- entry point --------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused by every main() call:
    parse_args returns a fresh Namespace each time, and the cmd_* functions
    it dispatches to look up load/scan/envelope when they run."""
    ap = argparse.ArgumentParser(
        prog="ccsl",
        description="Collapse-model (colored CSL) predictions and exclusion bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--noise", default="white",
                       help="'white', 'inf', or 'exp:<omega_c rad/s>'")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_TOL_HELP)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("predict", help="evaluate observables for an experiment")
    p.add_argument("--experiment", required=True,
                   help="bundled id, config path, comma list, or 'all'")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="collapse rate, s^-1")
    p.add_argument("--rc", type=float, required=True,
                   help="correlation length, m")
    p.add_argument("--omega", type=float, default=None,
                   help="probe angular frequency, rad/s (defaults to the ceiling probe)")
    common(p)
    p.set_defaults(func=cmd_predict)

    b = sub.add_parser("bound", help="invert a ceiling into lambda_max")
    b.add_argument("--experiment", required=True)
    group = b.add_mutually_exclusive_group(required=True)
    group.add_argument("--rc", type=float, help="single rc, m")
    group.add_argument("--rc-grid", help="<lo>:<hi>:<n> log-spaced grid, m")
    common(b)
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("scan", help="full exclusion scan, one CSV per cutoff")
    s.add_argument("--experiments", default="all")
    s.add_argument("--omega-c", default="inf,1e15,1e4,1e1",
                   help="comma list of cutoffs in rad/s; 'inf' selects white noise")
    s.add_argument("--rc-grid", default=None, help="<lo>:<hi>:<n>, default 1e-9:1e-3:60")
    s.add_argument("--out-dir", default="scan_out")
    s.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: a scan runs in one process")
    s.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_TOL_HELP)
    s.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        _check_numbers(args)
        return args.func(args)
    except (ParseError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CcslError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
