"""Invert measured noise ceilings into upper bounds lam_max(rc; noise).

Each inversion solves prediction(lam_max, rc) = ceiling for lam_max, which
is exact because every prediction is linear in lam. A point is "washed out"
when the colored suppression drives the unit-lam prediction below any
useful level; an exclusion curve holds NaN there rather than a sentinel.

Every kind inverts the same way: lam_max = white lam_max / noise factor,
where the white lam_max is ceiling / unit response(rc) and the factor is
f~ at ``Ceiling.omega`` (force and X-ray), the cold-atom bracket over its
white value t^3/2, or lam_eff/lam (bulk heating, where rc and the cutoff
couple through x = rc Wc / v_s, so the factor is a column over rc). The
single-point ``lambda_max_*`` do this at one rc; ``scan`` does it over its
rc grid as numpy columns (eta from ``diffusion.eta_column``, lam_eff from
``predict.lambda_eff_column``), in the same order of operations, so every
point has the same bits either way, and each column reports the errors it
can name (a composite pair with no route, a failed heating point), so a
point fails with the same error either way. Grid size alone picks the
route: from _COLUMN_FROM rc columns, below it one ``lambda_max_at`` call
(``lambda_max_for`` with its range check) per point. A single-rc ``ccsl
bound`` does not scan: it calls ``lambda_max_at`` for each experiment,
while ``--rc-grid`` goes through ``scan``.
No inversion takes a tolerance, and none returns NaN: a point with no
bound raises (WashedOut where a term leaves the float range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import CONSTANTS, CollapseParams
from .diffusion import _eta_column, eta_reduced
from .errors import EmptyInput, NonPositiveRc, ValidationError, WashedOut
from .geometry import MassDistribution
from .noise import WHITE, NoiseSpec, spectrum
# lambda_eff_quad is unused here; it stays bound for tracers that wrap it at
# this import site (bench/spans.py)
from .predict import (cold_atom_diffusion, cold_atom_noise_factor,  # noqa: F401
                      cold_atom_white_column, lambda_eff, lambda_eff_column, lambda_eff_quad)
from .registry import (FORCE_PSD, HEATING_POWER, POSITION_VARIANCE, XRAY_NORMALIZED,
                       Ceiling, ColdAtomDescriptor, PhononModel)

_WASHOUT_RATIO = 1e-30

# the one route selection: a grid of at least this many rc is inverted as
# columns, a shorter one point by point, which costs less there. In process,
# one white cylinder curve (auriga, ligo) as a column costs about 16x the
# point-by-point route at one rc, 3x at 11 rc (auriga 198 vs 63 us, ligo 312
# vs 111 us) and about 1x at 30-60 rc. A single-rc ``ccsl bound`` does not
# scan (it calls lambda_max_at), so the short grids are those of ``--rc-grid``
# and of library callers; no workload scans between 2 and 59 rc, so the
# threshold stays
_COLUMN_FROM = 12


def effective_spectrum_factor(ceiling: Ceiling, n: NoiseSpec) -> float:
    """f~ at ``ceiling.omega``, the probe of a force or X-ray ceiling (which
    always has one) or a force band's lower edge."""
    return float(spectrum(n, ceiling.omega))


def _frozen(col: np.ndarray) -> np.ndarray:
    """col, made read-only in place."""
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class ExclusionCurve:
    """lam_max over an rc grid for one experiment and one noise model, as two
    read-only columns of one length: rc strictly increases, and lam is NaN
    where the point washed out or failed. ``points`` holds the kept points
    only.

    A column given as a read-only float array that owns its data is kept as
    it is, so the curves of one scan share its rc column and keep the lam
    columns it built; any other column (a writable array, a view, a list)
    is copied into a read-only array."""

    experiment_id: str
    noise: NoiseSpec
    rc: np.ndarray  # m
    lam: np.ndarray  # lam_max s^-1, NaN where no bound

    def __post_init__(self):
        for name in ("rc", "lam"):
            col = getattr(self, name)
            if not (isinstance(col, np.ndarray) and col.dtype == float
                    and not col.flags.writeable and col.flags.owndata):
                object.__setattr__(self, name, _frozen(np.array(col, dtype=float)))
        if self.rc.ndim != 1 or self.rc.shape != self.lam.shape:
            raise ValidationError("curve", "rc and lam must be 1-D columns of one length")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:  # (rc m, lam_max s^-1)
        return tuple((rc, lm) for rc, lm in zip(self.rc.tolist(), self.lam.tolist())
                     if lm == lm)


# --- single-point inversions ---------------------------------------------------
#
# Each is (ceiling / white unit response) / noise factor, in that order: the
# arithmetic scan does over a column.

def _expect(ceiling: Ceiling, kind: str) -> None:
    if ceiling.kind != kind:
        raise ValidationError("ceiling.kind", f"expected {kind}")


def lambda_max_force(d: MassDistribution, ceiling: Ceiling, n: NoiseSpec,
                     rc: float) -> float:
    """Invert S_ccsl = hbar^2 lam eta_reduced f~ against a force-PSD ceiling."""
    _expect(ceiling, FORCE_PSD)
    f_eff = effective_spectrum_factor(ceiling, n)
    try:
        unit = CONSTANTS.hbar**2 * eta_reduced(d, rc).value
    except ArithmeticError:  # a term of eta at this rc (rc^2, 1/rc) leaves the float range
        raise WashedOut(f"force response out of float range at rc={rc:.3e}") from None
    if not (0.0 < unit < math.inf and f_eff > 0.0):
        raise WashedOut(f"force response vanished at rc={rc:.3e}")
    return ceiling.value / unit / f_eff


def lambda_max_xray(ceiling: Ceiling, n: NoiseSpec, rc: float) -> float:
    """Invert the normalized emission rate lam f~(w_obs)/rc^2, with w_obs the
    ceiling's probe."""
    _expect(ceiling, XRAY_NORMALIZED)
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    f = effective_spectrum_factor(ceiling, n)
    if f <= 0:
        raise WashedOut(f"spectrum vanished at omega_obs={ceiling.omega:.3e}")
    return ceiling.value * rc * rc / f


def _heating_white(value: float, rc):
    """ceiling value / unit heating response at lam_eff = lam (white noise),
    at one rc or over an rc column."""
    return value * 4.0 * rc * rc * CONSTANTS.m0**2 / (3.0 * CONSTANTS.hbar**2)


def lambda_max_heating(ceiling: Ceiling, n: NoiseSpec, ph: PhononModel, rc: float) -> float:
    """Invert dE/(dt dM) = (3/4)(hbar^2/rc^2 m0^2) lam_eff."""
    _expect(ceiling, HEATING_POWER)
    ratio = lambda_eff(n, ph, rc)
    if not ratio >= _WASHOUT_RATIO:
        raise WashedOut(f"lambda_eff/lambda = {ratio:.3e} at rc={rc:.3e}")
    return _heating_white(ceiling.value, rc) / ratio


def lambda_max_coldatom(ceiling: Ceiling, n: NoiseSpec, ca: ColdAtomDescriptor,
                        rc: float) -> float:
    """Invert the free-expansion position variance."""
    _expect(ceiling, POSITION_VARIANCE)
    p = CollapseParams(lam=1.0, rc=rc)
    try:
        factor = cold_atom_noise_factor(n, ca)
        if math.isnan(factor):  # tau = 1/Wc is inf, and the bracket's series inf * 0
            raise OverflowError
        unit = cold_atom_diffusion(p, WHITE, ca)
    except ZeroDivisionError:  # no expansion time: the white bracket is 0
        unit = 0.0
    except OverflowError:  # rc^2, or the bracket's t^3 or tau^3 = 1/Wc^3, leaves the float range
        if math.isinf(rc * rc):  # the unit response, which goes as 1/rc^2, is below every float
            raise WashedOut(f"unit-lam diffusion underflowed at rc={rc:.3e}") from None
        at = "for white noise" if n.is_white else f"at omega_c={n.omega_c:.3e}"
        raise WashedOut(f"cold-atom bracket out of range {at}") from None
    if not 0.0 < unit < math.inf:
        raise WashedOut(f"unit-lam diffusion underflowed at rc={rc:.3e}")
    return ceiling.value / unit / factor


# --- scans -----------------------------------------------------------------------

def lambda_max_for(exp, n: NoiseSpec, rc: float) -> float:
    """Dispatch on an ExperimentDescriptor-like object (registry module)."""
    kind = exp.kind
    if kind == "optomechanical":
        return lambda_max_force(exp.geometry, exp.ceiling, n, rc)
    if kind == "xray":
        return lambda_max_xray(exp.ceiling, n, rc)
    if kind == "bulk_heating":
        return lambda_max_heating(exp.ceiling, n, exp.phonon, rc)
    if kind == "cold_atom":
        return lambda_max_coldatom(exp.ceiling, n, exp.coldatom, rc)
    raise ValidationError("experiment.kind", f"unknown kind {kind!r}")


def lambda_max_at(exp, n: NoiseSpec, rc: float) -> float:
    """lambda_max_for(exp, n, rc), the bound at one point: WashedOut where
    it is not in (0, inf). ``scan`` inverts each point it does not take
    from its columns here, and a single-rc ``ccsl bound`` each experiment."""
    lm = lambda_max_for(exp, n, rc)
    if not 0.0 < lm < math.inf:
        raise WashedOut(f"lambda_max out of float range at rc={rc:.3e}")
    return lm


def _white_column(exp, rc: np.ndarray) -> tuple:
    """The white lam_max of exp over an rc column in one pass, each element
    bit for bit the single-point functions' ceiling / unit response; NaN
    where the unit response cannot be evaluated, and where eta_column left
    the point to eta_reduced. With it, {i: error} where the eta column
    reported eta_reduced's error itself."""
    c, lam, failed = exp.ceiling.value, np.full(rc.size, math.nan), {}
    ok = (rc > 0.0) & np.isfinite(rc)
    with np.errstate(all="ignore"):
        if exp.kind in ("xray", "bulk_heating"):
            lam[ok] = (c * rc[ok] * rc[ok] if exp.kind == "xray"
                       else _heating_white(c, rc[ok]))
            return lam, failed
        try:
            if exp.kind == "optomechanical":
                eta, _, failed = _eta_column(exp.geometry, rc)
                unit = CONSTANTS.hbar**2 * eta
            else:
                unit = cold_atom_white_column(rc, exp.coldatom)
        except ArithmeticError:  # an rc-free term out of float range, as lambda_max_for finds
            return lam, failed
        ok &= (unit > 0.0) & (unit < math.inf)
        lam[ok] = c / unit[ok]
    return lam, failed


def _factor(exp, n: NoiseSpec, rc: np.ndarray) -> tuple:
    """The factor by which noise n divides the white lam_max of exp, NaN
    where it cannot be evaluated, and {i: error} where lambda_eff_column
    raised. The factor is one number for force and X-ray (f~ at
    ``Ceiling.omega``) and cold atoms (the bracket ratio), and for bulk
    heating the lam_eff/lam column, NaN where it failed or washed out; a
    washed-out point takes lambda_max_heating's WashedOut, so it is not
    evaluated twice."""
    if exp.kind == "bulk_heating":
        ratio, failed = lambda_eff_column(n, exp.phonon, rc)
        washed = np.isfinite(ratio) & (ratio < _WASHOUT_RATIO)
        for i in np.flatnonzero(washed).tolist():
            failed[i] = WashedOut(f"lambda_eff/lambda = {float(ratio[i]):.3e} "
                                  f"at rc={float(rc[i]):.3e}")
        return np.where(washed, math.nan, ratio), failed
    if exp.kind in ("optomechanical", "xray"):
        return effective_spectrum_factor(exp.ceiling, n), {}
    try:
        return cold_atom_noise_factor(n, exp.coldatom), {}
    except ArithmeticError:  # a bracket that overflows, or is 0 at t = 0
        return math.nan, {}


def scan(experiments: Sequence, noises: Sequence[NoiseSpec], rc_grid, *,
         on_error: Callable[[str, NoiseSpec, float, Exception], None] | None = None
         ) -> list[list[ExclusionCurve]]:
    """Exclusion curves over the rc grid: one list per noise, holding one
    curve per experiment. Washed-out or failed points are NaN in the curves;
    failures, and a lam_max out of float range as WashedOut, are reported
    through on_error(experiment_id, noise, rc, exception) when given, per
    experiment, then noise, then rc.

    On a grid of _COLUMN_FROM rc or more each curve is the white column
    divided by the noise factor. A point where that is NaN or outside
    (0, inf) takes the error a column reported there (the eta column's
    CompositeCrossTermUnsupported, the lam_eff column's failures), and
    lambda_max_at runs only at the others, for their error. A shorter grid
    calls lambda_max_at at every point. Either way each point and each
    error is lambda_max_at's at that rc, bit for bit, which is what a
    single-rc ``ccsl bound`` prints without scanning."""
    rc_grid = _frozen(np.array(rc_grid, dtype=float))  # one copy, shared by every curve
    if rc_grid.ndim != 1 or rc_grid.size == 0:
        raise EmptyInput("rc_grid must be a non-empty 1-D array")
    rcs = rc_grid.tolist()
    if any(b <= a for a, b in zip(rcs, rcs[1:])):  # in Python: cheaper than np.diff for one rc
        raise ValidationError("rc_grid", "must be strictly increasing")
    columns = len(rcs) >= _COLUMN_FROM
    curves: list[list[ExclusionCurve]] = [[] for _ in noises]
    for exp in experiments:
        if columns:
            white, white_failed = _white_column(exp, rc_grid)
        for n, panel in zip(noises, curves):
            col, redo, failed = np.full(len(rcs), math.nan), range(len(rcs)), {}
            if columns:
                factor, failed = _factor(exp, n, rc_grid)
                failed = white_failed | failed
                with np.errstate(all="ignore"):
                    col = white / factor
                    redo = np.flatnonzero(~((col > 0.0) & (col < math.inf))).tolist()
            for i in redo:
                try:
                    if i in failed:  # a column's own error: no second evaluation
                        raise failed[i]
                    lm = lambda_max_at(exp, n, rcs[i])
                except Exception as err:  # collected (washed out or failed), not fatal
                    lm = math.nan
                    if on_error is not None:
                        # without its traceback, a held error keeps no frame alive
                        on_error(exp.id, n, rcs[i], err.with_traceback(None))
                col[i] = lm
            panel.append(ExclusionCurve(exp.id, n, rc_grid, _frozen(col)))
    return curves


def envelope(curves: Sequence[ExclusionCurve]) -> ExclusionCurve:
    """Pointwise minimum lam_max across curves sharing an rc grid; at each rc
    only the curves that kept the point participate."""
    if not curves:
        raise EmptyInput("envelope of no curves")
    rc = curves[0].rc
    if any(c.rc is not rc and not np.array_equal(c.rc, rc) for c in curves[1:]):
        raise ValidationError("curves", "envelope needs curves on one rc grid")
    return ExclusionCurve("envelope", curves[0].noise, rc,
                          _frozen(np.fmin.reduce([c.lam for c in curves])))
