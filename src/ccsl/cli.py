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
from .bounds import ExclusionCurve, envelope, lambda_max_at, scan
from .core import CollapseParams
from .errors import CcslError, ParseError, ValidationError
from .noise import WHITE, NoiseSpec, exponential
from .predict import (cold_atom_diffusion, dns_ccsl, dns_total, heating_rate,
                      normalized_xray_rate, xray_rate)
from .registry import ExperimentDescriptor, list_bundled, load


def _fmt(x: float) -> str:
    # 9 significant digits: round-trip safe, no noise digits; "%.8e" % x == _fmt(x)
    return f"{x:.8e}"


def _parse_noise(token: str) -> NoiseSpec:
    token = token.strip().lower()
    if token in ("white", "inf"):
        return WHITE
    if token.startswith("exp:"):
        try:
            return exponential(float(token[4:]))
        except ValueError:  # also a ValidationError from a cutoff <= 0, inf or NaN
            raise ValidationError("--noise", f"bad cutoff in {token!r}") from None
    raise ValidationError("--noise", f"expected 'white', 'inf' or 'exp:<rad_s>', got {token!r}")


def _check_numbers(args) -> None:
    """Reject a bad numeric flag before any work is done, naming the flag."""
    rc, lam = getattr(args, "rc", None), getattr(args, "lam", None)
    for flag, v in (("--rc", rc), ("--omega", getattr(args, "omega", None))):
        if v is not None and not 0.0 < v < math.inf:
            raise ValidationError(flag, f"must be > 0 and finite, got {v!r}")
    if lam is not None and not 0.0 <= lam < math.inf:
        raise ValidationError("--lambda", f"must be >= 0 and finite, got {lam!r}")


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


def _resolve_experiments(spec: str, flag: str) -> list[ExperimentDescriptor]:
    if spec == "all":
        return [load(name) for name in list_bundled()]
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ValidationError(flag, f"names no experiment, got {spec!r}")
    return [load(token) for token in tokens]


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

    def comment(self) -> str:
        return f"# manifest: {self.to_json()}"


_quote = json.encoder.encode_basestring_ascii


def _write_json(o, indent: str, out: list) -> None:
    """Append the text of json.dumps(o, indent=2, sort_keys=True) to out,
    o nested at indent ("\n" and two spaces per level); dict keys are str.
    Dispatches in json's order, and raises TypeError where json does."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(float.__repr__(o) if math.isfinite(o) else
                   "NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for value in o:
            out.append(sep + inner)
            _write_json(value, inner, out)
            sep = ","
        out.append(indent + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, value in sorted(o.items()):
            out.append(f"{sep}{inner}{_quote(key)}: ")
            _write_json(value, inner, out)
            sep = ","
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _print_rows(manifest: RunManifest, keys: tuple, rows: list, fmt: str) -> None:
    """Write rows to sys.stdout in one call: as JSON records under the
    manifest (the bytes of json.dumps(doc, indent=2, sort_keys=True)), or as
    CSV after its comment line, each float cell through _fmt."""
    if fmt == "json":
        out = []
        _write_json({"manifest": vars(manifest),
                     "results": [dict(zip(keys, r)) for r in rows]}, "\n", out)
        text = "".join(out)
    else:
        text = "\n".join([manifest.comment(), ",".join(keys), *(
            ",".join(_fmt(c) if isinstance(c, float) else c for c in r) for r in rows)])
    sys.stdout.write(text + "\n")


# --- predict ----------------------------------------------------------------

def _predict_rows(exp: ExperimentDescriptor, p: CollapseParams, n: NoiseSpec,
                  omega: float | None) -> list[tuple[str, object, str]]:
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
        return [("heating_rate", lambda: heating_rate(p, n, exp.phonon), "W/kg")]
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
    experiments = _resolve_experiments(args.experiment, "--experiment")
    n = _parse_noise(args.noise)
    p = CollapseParams(lam=args.lam, rc=args.rc)
    manifest = RunManifest("predict", {
        "lambda_s^-1": args.lam, "rc_m": args.rc, "noise": args.noise,
        "omega_rad_s": args.omega, "format": args.format,
    }, [e.id for e in experiments])
    rows = [(exp.id, o, _predict_value(exp.id, o, call, p.rc), u) for exp in experiments
            for o, call, u in _predict_rows(exp, p, n, args.omega)]
    _print_rows(manifest, ("experiment", "observable", "value", "unit"), rows, args.format)
    return 0


# --- bound ------------------------------------------------------------------

def cmd_bound(args) -> int:
    experiments = _resolve_experiments(args.experiment, "--experiment")
    n = _parse_noise(args.noise)
    rc_grid = _parse_rc_grid(args.rc_grid) if args.rc_grid else None
    manifest = RunManifest("bound", {
        "rc_m": args.rc, "rc_grid": args.rc_grid, "noise": args.noise, "format": args.format,
    }, [e.id for e in experiments])
    omega_c = "inf" if n.is_white else _fmt(n.omega_c)

    def failed(exp_id: str, rc: float, err: Exception) -> None:
        manifest.errors.append({"experiment": exp_id, "rc_m": rc, "error": str(err)})

    # washed-out or failed points are absent from the rows, and logged
    if rc_grid is None:
        rows = []
        for exp in experiments:
            try:
                rows.append((exp.id, args.rc, lambda_max_at(exp, n, args.rc), omega_c))
            except Exception as err:  # collected as scan collects it, not fatal
                failed(exp.id, args.rc, err)
    else:
        curves = scan(experiments, [n], rc_grid,
                      on_error=lambda i, _, rc, e: failed(i, rc, e))[0]
        rows = [(c.experiment_id, rc, lm, omega_c) for c in curves for rc, lm in c.points]
    _print_rows(manifest, ("experiment", "rc_m", "lambda_max_s^-1", "omega_c_rad_s"), rows,
                args.format)
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


def _cells(x: np.ndarray) -> np.ndarray:
    """Each element's "%.8e" % x bytes and a comma, in one row of _CELL.size
    (17) bytes per element of x in C order, NUL-padded, in a new
    (x.size, _CELL.size) uint8 array; a NaN is an empty cell. x may have any
    shape, so a scan formats all its panels in one call.

    Each cell's bytes are built in numpy, in a slot of _CELL whose NUL bytes
    are dropped at the end. The exponent is e = floor(log10|x|) and the
    mantissa m = rint(y), y = |x| 10^(8-e), with y off by less than 4e-7;
    m = 1e9 carries into e. log10 can put e one off only within a few ulps
    of a power of ten, where m is 1e8 or 1e9 either way, so no e needs a
    second pass. A cell goes to _fmt ("%") when its y lies within 1e-6 of a
    rounding tie (so exact ties round half to even, as "%" does), when m
    falls outside [1e8, 1e9], or when |x| lies outside [1e-290, 1e290] (0,
    subnormals, inf): every byte is the one "%" prints."""
    x = x.ravel()
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
    slow = np.flatnonzero(~fast)
    buf[slow, :-1] = 0
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        if v == v:
            s = _fmt(v).encode()
            buf[i, :len(s)] = np.frombuffer(s, np.uint8)
    return buf


def _join_rows(*blocks: np.ndarray) -> str:
    """Rows of cells (_cells, one row of bytes per table row) from blocks
    side by side, the last comma of each row a newline, NUL bytes dropped."""
    buf = np.hstack(blocks)
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _write_panel_csv(path: Path, comment: str, token: str, curves: list[ExclusionCurve],
                     rc_cells: np.ndarray, cells: np.ndarray):
    """One panel: the manifest comment line, the cutoff, a header naming rc,
    each curve and the envelope, then the rows of the scan's rc column and
    of the panel's cells (_cells, one row per rc), formatted already; a NaN
    (no bound) is an empty cell."""
    header = ["rc_m"] + [f"{c.experiment_id}_lambda_max_s^-1" for c in curves]
    header.append("envelope_lambda_max_s^-1")
    lines = [comment, f"# omega_c_rad_s: {token}", ",".join(header)]
    path.write_text("\n".join(lines) + "\n" + _join_rows(rc_cells, cells), encoding="utf-8")


def cmd_scan(args) -> int:
    experiments = _resolve_experiments(args.experiments, "--experiments")
    noise_tokens = [t.strip() for t in args.omega_c.split(",") if t.strip()]
    if not noise_tokens:
        raise ValidationError("--omega-c", f"names no cutoff, got {args.omega_c!r}")
    # one panel per file tag: spellings that name one file ('inf'/'white'/
    # 'INF', '1e4'/'1E4') would write it twice and double every curve, so
    # keep the first spelling of each tag, with its token and noise
    panels_of: dict[str, tuple] = {}
    for raw in noise_tokens:
        tag = "inf" if raw.lower() in ("inf", "white") else raw.lower()
        if tag not in panels_of:
            try:
                noise = WHITE if tag == "inf" else exponential(float(raw))
            except ValueError:  # also a ValidationError from a cutoff <= 0
                raise ValidationError("--omega-c",
                                      f"expected 'inf' or a number > 0, got {raw!r}") from None
            panels_of[tag] = ("inf" if tag == "inf" else f"exp:{raw}", noise)
    rc_grid = _parse_rc_grid(args.rc_grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("scan", {
        "omega_c_list": noise_tokens, "rc_grid": args.rc_grid,
        "experiments": [e.id for e in experiments], "jobs": args.jobs,
    }, [e.id for e in experiments])

    # '1e4' and '10000' are equal specs but separate panels, so an error is
    # logged under the token of the spec object it came from
    panels = scan(experiments, [n for _, n in panels_of.values()], rc_grid,
                  on_error=lambda i, n, rc, e: manifest.errors.append(
                      {"experiment": i, "rc_m": rc, "error": str(e),
                       "omega_c": next(t for t, m in panels_of.values() if m is n)}))

    # one rc column for every panel, and every panel's curves and envelope
    # as one (panels x rc x experiments + 1) table, each formatted in one pass
    rc_cells = _cells(rc_grid)
    table = np.stack([np.column_stack([c.lam for c in curves] + [envelope(curves).lam])
                      for curves in panels])
    cells = _cells(table).reshape(*table.shape[:2], -1)
    encoded = manifest.to_json()  # once, for every panel's comment and the manifest file
    written = []
    for (tag, (token, _)), curves, panel_cells in zip(panels_of.items(), panels, cells):
        path = out_dir / f"scan_omega_c_{tag}.csv"
        _write_panel_csv(path, f"# manifest: {encoded}", token, curves, rc_cells, panel_cells)
        written.append(str(path))
    (out_dir / "scan_manifest.json").write_text(encoded + "\n", encoding="utf-8")
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
    it dispatches to look up load/scan/envelope when they run. Its
    ``commands`` maps each command name to that command's parser, which
    keeps the Actions its add_argument calls returned as ``arguments`` and
    each mutually exclusive group with its Actions in ``exclusive``."""
    ap = argparse.ArgumentParser(
        prog="ccsl",
        description="Collapse-model (colored CSL) predictions and exclusion bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        return [p.add_argument("--noise", default="white",
                               help="'white', 'inf', or 'exp:<omega_c rad/s>'"),
                p.add_argument("--format", choices=("csv", "json"), default="csv")]

    p = sub.add_parser("predict", help="evaluate observables for an experiment")
    p.arguments = [
        p.add_argument("--experiment", required=True,
                       help="bundled id, config path, comma list, or 'all'"),
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="collapse rate, s^-1"),
        p.add_argument("--rc", type=float, required=True,
                       help="correlation length, m"),
        p.add_argument("--omega", type=float, default=None,
                       help="probe angular frequency, rad/s (defaults to the ceiling probe)"),
        *common(p)]
    p.exclusive = []
    p.set_defaults(func=cmd_predict)

    b = sub.add_parser("bound", help="invert a ceiling into lambda_max")
    experiment = b.add_argument("--experiment", required=True)
    group = b.add_mutually_exclusive_group(required=True)
    rc = (group.add_argument("--rc", type=float, help="single rc, m"),
          group.add_argument("--rc-grid", help="<lo>:<hi>:<n> log-spaced grid, m"))
    b.arguments = [experiment, *rc, *common(b)]
    b.exclusive = [(group, rc)]
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("scan", help="full exclusion scan, one CSV per cutoff")
    s.arguments = [
        s.add_argument("--experiments", default="all"),
        s.add_argument("--omega-c", default="inf,1e15,1e4,1e1",
                       help="comma list of cutoffs in rad/s; 'inf' selects white noise"),
        s.add_argument("--rc-grid", default="1e-9:1e-3:60",
                       help="<lo>:<hi>:<n> log-spaced grid, m"),
        s.add_argument("--out-dir", default="scan_out"),
        s.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and ignored: a scan runs in one process")]
    s.exclusive = []
    s.set_defaults(func=cmd_scan)
    ap.commands = sub.choices
    return ap


@functools.cache
def _exact_forms() -> dict:
    """Each command's exact form, built on first use from the Actions its
    parser keeps: (its Actions by option string, the Namespace's defaults,
    its required Actions, its exclusive groups with their Actions). A form
    models single-value store options only, and neither a str default with
    a type (parse_args converts it at its end) nor a default in an exclusive
    group; a command with any other Action has no form (None), and argparse
    parses all of its argv."""
    # the Action class of a plain add_argument call
    store = type(argparse.ArgumentParser(add_help=False).add_argument("x"))
    forms = {}
    for name, parser in build_parser().commands.items():
        actions = parser.arguments
        modelled = all(type(a) is store and a.nargs is None
                       and not (a.type is not None and isinstance(a.default, str))
                       for a in actions) and all(
            a.default is None for _, members in parser.exclusive for a in members)
        forms[name] = ({flag: a for a in actions for flag in a.option_strings},
                       {a.dest: a.default for a in actions} | {"func": parser.get_default("func")},
                       [a for a in actions if a.required],
                       parser.exclusive) if modelled else None
    return forms


def _parse_exact(name: str, argv: list):
    """The Namespace command `name`'s parser returns for argv, if argv is in
    the command's exact form: '--flag value' pairs, each flag one of the
    command's option strings exactly and given once, no value starting with
    '-', each value converted by its flag's type and in its choices, every
    required flag given, and each exclusive group holding at most one flag
    (one if the group is required). None for any other argv, which the
    parser then parses, with its own messages."""
    form = _exact_forms()[name]
    if form is None or len(argv) % 2:
        return None
    flags, defaults, required, exclusive = form
    given = {}
    for flag, text in zip(argv[::2], argv[1::2]):
        action = flags.get(flag)
        if action is None or action in given or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if not all(a in given for a in required):
        return None
    for group, members in exclusive:
        count = sum(a in given for a in members)
        if count > 1 or group.required and not count:
            return None
    args = argparse.Namespace(**defaults)
    for action, value in given.items():
        setattr(args, action.dest, value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    # argv naming a command is parsed once: by its exact form if it has
    # that form, else by that command's parser; the top-level parser sees
    # only argv that names none (help, no or unknown command)
    command = ap.commands.get(argv[0]) if argv else None
    args = _parse_exact(argv[0], argv[1:]) if command else None
    if args is None:
        try:
            args = command.parse_args(argv[1:]) if command else ap.parse_args(argv)
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
