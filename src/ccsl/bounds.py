"""Invert measured noise ceilings into upper bounds lam_max(rc; noise).

Each inversion solves prediction(lam_max, rc) = ceiling for lam_max, which
is exact because every prediction is linear in lam. A point is "washed out"
when the colored suppression drives the unit-lam prediction below any
useful level; an exclusion curve holds NaN there rather than a sentinel.

Every bound factors as lam_max = ceiling / (unit response(rc) x noise
factor). For force, X-ray and cold-atom experiments the noise factor does
not depend on rc: it is f~ at the probe frequency, f~(w_obs), or the
cold-atom bracket over its white value t^3/2. ``scan`` therefore computes
their white column once per rc grid and divides it by one scalar per
noise. Bulk heating couples rc and Wc through x = rc Wc / v_s, so ``scan``
inverts one ``predict.lambda_eff_column`` of lam_eff/lam per noise. From
_COLUMN_FROM rc each of these is a numpy pass (eta from
``diffusion.eta_column``), and Python touches only the points a pass flags:
failed, washed out, or out of the safe band. Shorter grids and the
single-point ``lambda_max_*`` take the scalar route, except that a
full-sine heating grid keeps its one batched quadrature at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import CONSTANTS, CollapseParams
from .diffusion import DEFAULT_TOL, eta_column, eta_reduced
from .errors import (EmptyInput, NonPositiveFrequency, NonPositiveRc, ValidationError,
                     WashedOut, require_positive)
from .geometry import MassDistribution
from .noise import WHITE, NoiseSpec, spectrum
# lambda_eff_quad is unused here; it stays bound for tracers that wrap it at
# this import site (bench/spans.py)
from .predict import (ColdAtomDescriptor, PhononModel, cold_atom_diffusion,  # noqa: F401
                      cold_atom_noise_factor, cold_atom_white_column, lambda_eff,
                      lambda_eff_column, lambda_eff_quad)

FORCE_PSD = "force_psd"
XRAY_NORMALIZED = "xray_normalized"
HEATING_POWER = "heating_power"
POSITION_VARIANCE = "position_variance"

_WASHOUT_RATIO = 1e-30

# experiment kinds whose noise enters as one rc-independent factor
_FACTORED_KINDS = ("optomechanical", "xray", "cold_atom")
# a derived value is kept only if it, the white value, the factor and the
# response ceiling/value all lie in this band: far from overflow and from
# subnormals, the derived and the scalar route differ by rounding alone
_SAFE_LO, _SAFE_HI = 1e-290, 1e290
# grids of at least this many rc take the numpy passes; shorter ones, such as
# the one rc of `ccsl bound`, stay on the scalar route, which costs less there:
# a white column costs 2.6x the scalar route at one rc and 0.97x at 12
# (in-process), and point-queries (bench/run.py) ran about 5% slower with the
# heating column alone on every grid (8 of 10 pairs), a third with all passes
_COLUMN_FROM = 12


@dataclass(frozen=True)
class Ceiling:
    """A measured maximum signal attributable to collapse noise.

    kind/value units: force_psd N^2/Hz, xray_normalized s^-1 m^-2,
    heating_power W/kg, position_variance m^2. probe is a single angular
    frequency (rad/s), or an (lo, hi) band for force_psd.
    """

    kind: str
    value: float
    probe: float | tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (FORCE_PSD, XRAY_NORMALIZED, HEATING_POWER,
                             POSITION_VARIANCE):
            raise ValidationError("ceiling.kind", f"unknown kind {self.kind!r}")
        require_positive("ceiling.value", self.value)
        if isinstance(self.probe, tuple):
            if self.kind != FORCE_PSD:
                raise ValidationError("ceiling.probe", "bands only for force_psd")
            lo, hi = self.probe
            if not (0 < lo < hi and math.isfinite(hi)):
                raise ValidationError("ceiling.probe", "band needs 0 < lo < hi")
        elif self.probe is not None:
            require_positive("ceiling.probe", self.probe)
        if self.kind == FORCE_PSD and self.probe is None:
            raise ValidationError("ceiling.probe", "force_psd needs a probe frequency")
        if self.kind == XRAY_NORMALIZED and (self.probe is None
                                             or isinstance(self.probe, tuple)):
            raise ValidationError("ceiling.probe",
                                  "xray_normalized needs a single observation frequency")


def effective_spectrum_factor(ceiling: Ceiling, n: NoiseSpec) -> float:
    """f~ at the probe. For a band the ceiling must hold at every measured
    frequency, and f~ is non-increasing in |w|, so the strongest justified
    bound uses the lower band edge."""
    if ceiling.probe is None:
        return 1.0
    w = ceiling.probe[0] if isinstance(ceiling.probe, tuple) else ceiling.probe
    return float(spectrum(n, w))


@dataclass(frozen=True, eq=False)
class ExclusionCurve:
    """lam_max over an rc grid for one experiment and one noise model, as two
    read-only columns of one length: rc strictly increases, and lam is NaN
    where the point washed out or failed. ``points``, ``rc_values()`` and
    ``lambda_values()`` hold the kept points only."""

    experiment_id: str
    noise: NoiseSpec
    rc: np.ndarray  # m
    lam: np.ndarray  # lam_max s^-1, NaN where no bound

    def __post_init__(self):
        for name in ("rc", "lam"):
            col = np.array(getattr(self, name), dtype=float)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self.rc.ndim != 1 or self.rc.shape != self.lam.shape:
            raise ValidationError("curve", "rc and lam must be 1-D columns of one length")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:  # (rc m, lam_max s^-1)
        return tuple((rc, lm) for rc, lm in zip(self.rc.tolist(), self.lam.tolist())
                     if lm == lm)

    def rc_values(self) -> np.ndarray:
        return self.rc[~np.isnan(self.lam)]

    def lambda_values(self) -> np.ndarray:
        return self.lam[~np.isnan(self.lam)]


# --- single-point inversions ---------------------------------------------------

def lambda_max_force(d: MassDistribution, ceiling: Ceiling, n: NoiseSpec,
                     rc: float) -> float:
    """Invert S_ccsl = hbar^2 lam eta_reduced f~ against a force-PSD ceiling."""
    if ceiling.kind != FORCE_PSD:
        raise ValidationError("ceiling.kind", "expected force_psd")
    f_eff = effective_spectrum_factor(ceiling, n)
    e1 = eta_reduced(d, rc).value
    denom = CONSTANTS.hbar**2 * e1 * f_eff
    if denom <= 0 or not math.isfinite(denom):
        raise WashedOut(f"force response vanished at rc={rc:.3e}")
    return ceiling.value / denom


def lambda_max_xray(ceiling: Ceiling, n: NoiseSpec, rc: float,
                    omega_obs: float) -> float:
    """Invert the normalized emission rate lam f~(w_obs)/rc^2."""
    if ceiling.kind != XRAY_NORMALIZED:
        raise ValidationError("ceiling.kind", "expected xray_normalized")
    if not (omega_obs > 0 and math.isfinite(omega_obs)):
        raise NonPositiveFrequency("omega_obs must be > 0")
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    f = float(spectrum(n, omega_obs))
    if f <= 0:
        raise WashedOut(f"spectrum vanished at omega_obs={omega_obs:.3e}")
    return ceiling.value * rc * rc / f


def _heating_lambda(value: float, rc, ratio):
    """ceiling value / unit heating response, at one rc or over an rc column."""
    return value * 4.0 * rc * rc * CONSTANTS.m0**2 / (3.0 * CONSTANTS.hbar**2) / ratio


def _heating_column(ceiling: Ceiling, n: NoiseSpec, ph: PhononModel, rc: np.ndarray,
                    tol: float) -> tuple[np.ndarray, dict]:
    """lambda_max_heating over the rc column in one numpy pass, and {i: (lam_max
    or None, error or None)} for the points it flags: the error lambda_eff_column
    raised, WashedOut for a ratio below _WASHOUT_RATIO, or a value out of (0, inf)."""
    if ceiling.kind != HEATING_POWER:
        raise ValidationError("ceiling.kind", "expected heating_power")
    ratio, errors = lambda_eff_column(n, ph, rc, tol)
    with np.errstate(all="ignore"):
        col = _heating_lambda(ceiling.value, rc, ratio)
        flagged = np.flatnonzero(~((ratio >= _WASHOUT_RATIO) & (col > 0.0) & (col < math.inf)))
    # the value (scan reports it as out of float range), unless washed out or failed
    known = {i: (float(col[i]), None) for i in flagged.tolist()}
    known.update((i, (None, WashedOut(f"lambda_eff/lambda = {ratio[i]:.3e} at rc={rc[i]:.3e}")))
                 for i in np.flatnonzero(ratio < _WASHOUT_RATIO).tolist())
    known.update((i, (None, err)) for i, err in errors.items())
    return col, known


def lambda_max_heating(ceiling: Ceiling, n: NoiseSpec, ph: PhononModel,
                       rc: float, tol: float = DEFAULT_TOL) -> float:
    """Invert dE/(dt dM) = (3/4)(hbar^2/rc^2 m0^2) lam_eff."""
    if ceiling.kind != HEATING_POWER:
        raise ValidationError("ceiling.kind", "expected heating_power")
    ratio = lambda_eff(n, ph, rc, tol)
    if ratio < _WASHOUT_RATIO:
        raise WashedOut(f"lambda_eff/lambda = {ratio:.3e} at rc={rc:.3e}")
    return _heating_lambda(ceiling.value, rc, ratio)


def lambda_max_coldatom(ceiling: Ceiling, n: NoiseSpec, ca: ColdAtomDescriptor,
                        rc: float) -> float:
    """Invert the free-expansion position variance."""
    if ceiling.kind != POSITION_VARIANCE:
        raise ValidationError("ceiling.kind", "expected position_variance")
    try:
        unit = cold_atom_diffusion(CollapseParams(lam=1.0, rc=rc), n, ca)
    except OverflowError:  # rc^2, or the bracket's t^3 or tau^3 = 1/Wc^3, leaves the float range
        if math.isinf(rc * rc):  # the unit response, which goes as 1/rc^2, is below every float
            raise WashedOut(f"unit-lam diffusion underflowed at rc={rc:.3e}") from None
        at = "for white noise" if n.is_white else f"at omega_c={n.omega_c:.3e}"
        raise WashedOut(f"cold-atom bracket out of range {at}") from None
    if unit <= 0.0 or not math.isfinite(unit):
        raise WashedOut(f"unit-lam diffusion underflowed at rc={rc:.3e}")
    return ceiling.value / unit


# --- scans -----------------------------------------------------------------------

def lambda_max_for(exp, n: NoiseSpec, rc: float, tol: float = DEFAULT_TOL) -> float:
    """Dispatch on an ExperimentDescriptor-like object (registry module)."""
    kind = exp.kind
    if kind == "optomechanical":
        return lambda_max_force(exp.geometry, exp.ceiling, n, rc)
    if kind == "xray":
        return lambda_max_xray(exp.ceiling, n, rc, exp.ceiling.probe)
    if kind == "bulk_heating":
        return lambda_max_heating(exp.ceiling, n, exp.phonon, rc, tol)
    if kind == "cold_atom":
        return lambda_max_coldatom(exp.ceiling, n, exp.coldatom, rc)
    raise ValidationError("experiment.kind", f"unknown kind {kind!r}")


def _noise_factor(exp, n: NoiseSpec) -> float:
    """The rc-independent factor by which noise n divides the white response
    of a force, X-ray or cold-atom experiment."""
    if exp.kind == "optomechanical":
        return effective_spectrum_factor(exp.ceiling, n)
    if exp.kind == "xray":
        return float(spectrum(n, exp.ceiling.probe))
    return cold_atom_noise_factor(n, exp.coldatom)


def _white_column(exp, rc: np.ndarray) -> np.ndarray:
    """lambda_max_for(exp, WHITE, rc) over an rc column of a force, X-ray or
    cold-atom experiment in one pass, each element bit for bit the scalar
    value (white noise: f~ = 1); NaN at the points the scalar route raises
    at, and where eta_column left the point to eta_reduced."""
    c, lam = exp.ceiling.value, np.full(rc.size, math.nan)
    ok = (rc > 0.0) & np.isfinite(rc)
    with np.errstate(all="ignore"):
        try:
            if exp.kind == "xray":  # its ceiling holds the one positive probe it needs
                lam[ok] = c * rc[ok] * rc[ok]
                return lam
            unit = (CONSTANTS.hbar**2 * eta_column(exp.geometry, rc)[0]
                    if exp.kind == "optomechanical" else cold_atom_white_column(rc, exp.coldatom))
        except ArithmeticError:  # an rc-free term out of float range, as the scalar route finds
            return lam
        ok &= (unit > 0.0) & np.isfinite(unit)
        lam[ok] = c / unit[ok]
    return lam


def _attempt(exp, n: NoiseSpec, rc: float, tol: float):
    """(lam_max, None) from the scalar route, or (None, the exception it raised)."""
    try:
        return lambda_max_for(exp, n, rc, tol), None
    except Exception as err:  # collected (washed out or failed), not fatal
        # a scan holds errors until it reports them; their tracebacks would
        # keep every frame of the failed call alive with them
        return None, err.with_traceback(None)


def _white(exp, rc_grid: np.ndarray, rcs: list, tol: float, columns: bool):
    """The white lam_max of a factored experiment where it lies in the safe
    band, else NaN (a column, or a short grid's list), and {i: (None, error)}
    where its white call failed; a column calls it only at its NaN."""
    lo, hi = _SAFE_LO, _SAFE_HI
    if not columns:
        white = [_attempt(exp, WHITE, rc, tol) for rc in rcs]
        return ([w if err is None and lo <= w <= hi else math.nan for w, err in white],
                {i: w for i, w in enumerate(white) if w[1] is not None})
    white, failed = _white_column(exp, rc_grid), {}
    for i in np.flatnonzero(np.isnan(white)).tolist():
        w, err = _attempt(exp, WHITE, rcs[i], tol)
        if err is None:
            white[i] = w
        else:
            failed[i] = (None, err)
    return np.where((lo <= white) & (white <= hi), white, math.nan), failed


def _derived(usable, factor: float, c: float) -> tuple:
    """usable / factor (a column, or a short grid's list), and the indices
    of the points where it or the ceiling over it leaves the safe band."""
    lo, hi = _SAFE_LO, _SAFE_HI
    if isinstance(usable, list):
        col = [w / factor for w in usable]
        return col, [i for i, lm in enumerate(col) if not (lo <= lm <= hi and lo <= c / lm <= hi)]
    with np.errstate(all="ignore"):
        col = usable / factor
        inv = c / col
        off = ~((lo <= col) & (col <= hi) & (lo <= inv) & (inv <= hi))
        return col, np.flatnonzero(off).tolist()


def scan(experiments: Sequence, noises: Sequence[NoiseSpec], rc_grid,
         tol: float = DEFAULT_TOL,
         on_error: Callable[[str, NoiseSpec, float, Exception], None] | None = None
         ) -> list[list[ExclusionCurve]]:
    """Exclusion curves over the rc grid: one list per noise, holding one
    curve per experiment. Washed-out or failed points are NaN in the curves;
    failures, and a lam_max out of float range as WashedOut, are reported
    through on_error(experiment_id, noise, rc, exception) when given, per
    experiment, then noise, then rc.

    A force, X-ray or cold-atom column is the white column divided by one
    factor per noise; a derived point that leaves the safe band goes back
    to the scalar route, as does every point when the factor leaves it, and
    a point whose white call failed fails with that error. Bulk heating's
    points and errors are lambda_max_heating's at each rc, bit for bit."""
    rc_grid = np.asarray(rc_grid, dtype=float)
    if rc_grid.ndim != 1 or rc_grid.size == 0:
        raise EmptyInput("rc_grid must be a non-empty 1-D array")
    rcs = rc_grid.tolist()
    if any(b <= a for a, b in zip(rcs, rcs[1:])):  # in Python: cheaper than np.diff for one rc
        raise ValidationError("rc_grid", "must be strictly increasing")
    columns, nan = len(rcs) >= _COLUMN_FROM, math.nan
    curves: list[list[ExclusionCurve]] = [[] for _ in noises]
    for exp in experiments:
        factored, c = exp.kind in _FACTORED_KINDS, exp.ceiling.value
        if factored:
            usable, white_failed = _white(exp, rc_grid, rcs, tol, columns)
        for n, panel in zip(noises, curves):
            # known[i]: point i's (lam_max, error) where no scalar call is needed
            col, redo, known = [nan] * len(rcs), range(len(rcs)), {}
            if exp.kind == "bulk_heating" and (columns or exp.phonon.dispersion is not None):
                col, known = _heating_column(exp.ceiling, n, exp.phonon, rc_grid, tol)
                redo = list(known)
            elif factored:
                try:
                    factor = _noise_factor(exp, n)
                except ArithmeticError:  # a cold-atom bracket that overflows or is 0 at t = 0
                    factor = nan
                if _SAFE_LO <= factor <= _SAFE_HI:
                    col, redo = _derived(usable, factor, c)
                    known = white_failed
            for i in redo:
                lm, err = known.get(i) or _attempt(exp, n, rcs[i], tol)
                if err is None and not 0.0 < lm < math.inf:
                    err = WashedOut(f"lambda_max out of float range at rc={rcs[i]:.3e}")
                if err is not None and on_error is not None:
                    on_error(exp.id, n, rcs[i], err)
                col[i] = nan if err is not None else lm
            panel.append(ExclusionCurve(exp.id, n, rc_grid, col))
    return curves


def default_rc_grid(lo: float = 1e-9, hi: float = 1e-3, num: int = 60) -> np.ndarray:
    return np.geomspace(lo, hi, num)


def envelope(curves: Sequence[ExclusionCurve]) -> ExclusionCurve:
    """Pointwise minimum lam_max across curves sharing an rc grid; at each rc
    only the curves that kept the point participate."""
    if not curves:
        raise EmptyInput("envelope of no curves")
    rc = curves[0].rc
    if any(not np.array_equal(c.rc, rc) for c in curves[1:]):
        raise ValidationError("curves", "envelope needs curves on one rc grid")
    return ExclusionCurve("envelope", curves[0].noise, rc,
                          np.fmin.reduce([c.lam for c in curves]))
