"""Measurable collapse-noise signatures.

* dns_ccsl      force-noise PSD hbar^2 eta f~(w), N^2 s
* dns_total     displacement PSD of a damped thermal oscillator plus the
                collapse force term (high-temperature form), m^2 s
* xray_rate     spontaneous photon emission rate density dGamma/dw
* lambda_eff    effective collapse rate driving bulk (phonon) heating, one
                rc or a whole rc column at once (lambda_eff_column)
* heating_rate  energy gain per unit mass, W/kg
* cold_atom_diffusion  excess position variance of a free cloud, m^2

All operations vanish identically at lam = 0 and are homogeneous of degree
one in lam. lam_eff's route follows the dispersion: the closed form for
linear (one piece of code for one rc and a column, on diffusion's ops),
quadrature at the fixed DEFAULT_TOL for the full sine (one BLAS-free
integrate_rows batch per rc column, where each rc's value is its own).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, CollapseParams, map_floats
from .diffusion import _COLUMN, _SCALAR, DEFAULT_TOL, eta as _eta
from .errors import (NegativeLambda, NonPositiveFrequency, NonPositiveRc,
                     QuadratureNotConverged, ValidationError, require_positive)
from .geometry import MassDistribution
from .noise import WHITE, NoiseSpec, spectrum
# integrate itself is unused here; it stays bound for tracers that wrap it at
# this import site (bench/spans.py)
from .quadrature import MAX_PANELS, integrate, integrate_rows  # noqa: F401

_SQRT_PI = math.sqrt(math.pi)


# --- experiment-side value types ----------------------------------------------

@dataclass(frozen=True)
class MechanicalOscillator:
    """Trapped, damped oscillator in a thermal bath.

    gamma_m may be omitted when only force-noise (not displacement) spectra
    are needed.
    """

    mass: float                 # kg
    omega_m: float              # rad/s
    temperature: float          # K
    gamma_m: float | None = None  # s^-1

    def __post_init__(self):
        for name in ("mass", "omega_m", "temperature"):
            require_positive(f"oscillator.{name}", getattr(self, name))
        if self.gamma_m is not None:
            require_positive("oscillator.gamma_m", self.gamma_m)
            if self.gamma_m >= self.omega_m:
                warnings.warn("oscillator is overdamped (gamma_m >= omega_m); "
                              "resonant formulas may not apply", stacklevel=2)


@dataclass(frozen=True)
class FullSineDispersion:
    """Nearest-neighbour monoatomic-lattice dispersion
    w_L(q)^2 = (4 C / m_A) sin^2(q a / 2)."""

    force_constant: float  # N/m
    atom_mass: float       # kg
    plane_spacing: float   # m

    def sound_speed(self) -> float:
        return self.plane_spacing * math.sqrt(self.force_constant / self.atom_mass)


@dataclass(frozen=True)
class PhononModel:
    """Longitudinal phonon branch: linear (dispersion=None, w_L = v_s q) or
    the full sine form. When both are given they must agree at small q."""

    v_s: float  # m/s
    dispersion: FullSineDispersion | None = None

    def __post_init__(self):
        require_positive("phonon.v_s", self.v_s)
        if self.dispersion is not None:
            for name in ("force_constant", "atom_mass", "plane_spacing"):
                require_positive(f"phonon.{name}", getattr(self.dispersion, name))
            if abs(self.dispersion.sound_speed() / self.v_s - 1.0) > 0.01:
                raise ValidationError(
                    "phonon.v_s", "inconsistent with a sqrt(C/m_A) beyond 1%")

    def omega_l(self, q):
        q = np.asarray(q, dtype=float)
        if self.dispersion is None:
            return self.v_s * np.abs(q)
        disp = self.dispersion
        wmax = 2.0 * math.sqrt(disp.force_constant / disp.atom_mass)
        return wmax * np.abs(np.sin(0.5 * np.abs(q) * disp.plane_spacing))


@dataclass(frozen=True)
class ColdAtomDescriptor:
    """Free-falling atom cloud: nucleon count A per atom, single-atom mass,
    and the ballistic expansion time."""

    mass_number: float     # dimensionless A
    atom_mass: float       # kg
    expansion_time: float  # s

    def __post_init__(self):
        for name in ("mass_number", "atom_mass"):
            require_positive(f"coldatom.{name}", getattr(self, name))
        if not (self.expansion_time >= 0 and math.isfinite(self.expansion_time)):
            raise ValidationError("coldatom.expansion_time", "must be >= 0")


# --- optomechanical spectra ----------------------------------------------------

def dns_ccsl(d: MassDistribution, p: CollapseParams, n: NoiseSpec, omega):
    """Collapse contribution to the force-noise PSD, N^2 s:
    S(w) = hbar^2 eta f~(w). Constant in w for white noise."""
    e = _eta(d, p).value
    return CONSTANTS.hbar**2 * e * spectrum(n, omega)


def dns_total(osc: MechanicalOscillator, d: MassDistribution, p: CollapseParams,
              n: NoiseSpec, omega):
    """Displacement PSD, m^2 s, in the high-temperature approximation:

    S(w) = [2 m gamma kB T + S_ccsl(w)] / (m^2 [(wm^2-w^2)^2 + gamma^2 w^2])

    Valid for hbar w << kB T (not checked here).
    """
    if osc.gamma_m is None:
        raise ValidationError("oscillator.gamma_m", "required for displacement spectra")
    omega = np.asarray(omega, dtype=float)
    num = (2.0 * osc.mass * osc.gamma_m * CONSTANTS.kB * osc.temperature
           + dns_ccsl(d, p, n, omega))
    den = osc.mass**2 * ((osc.omega_m**2 - omega**2) ** 2
                         + osc.gamma_m**2 * omega**2)
    out = num / den
    return out if out.ndim else float(out)


# --- X-ray emission -------------------------------------------------------------

def _emission_frequency(omega, caller: str):
    """omega, checked > 0 and finite: a Python float stays one (as spectrum
    keeps it), anything else becomes a float array."""
    if type(omega) is float:
        ok = 0.0 < omega < math.inf
    else:
        omega = np.asarray(omega, dtype=float)
        ok = not np.any(omega <= 0) and np.all(np.isfinite(omega))
    if not ok:
        raise NonPositiveFrequency(f"{caller} requires omega > 0")
    return omega


def xray_rate(p: CollapseParams, n: NoiseSpec, omega):
    """Photon emission rate density dGamma/dw at angular frequency omega:

    dGamma/dw = e^2 hbar eta / (2 pi^2 eps0 c^3 me^2 w) * f~(w),

    with the point-electron eta = lam me^2/(2 m0^2 rc^2). A float for a
    Python float or 0-d omega, else an array."""
    omega = _emission_frequency(omega, "xray_rate")
    c = CONSTANTS
    eta_e = p.lam * c.me**2 / (2.0 * c.m0**2 * p.rc**2)
    pref = c.e_charge**2 * c.hbar * eta_e / (2.0 * math.pi**2 * c.eps0
                                             * c.c_light**3 * c.me**2)
    out = pref / omega * spectrum(n, omega)
    return out if type(omega) is float or out.ndim else float(out)


def normalized_xray_rate(p: CollapseParams, n: NoiseSpec, omega):
    """The detector-side combination 4 pi^2 eps0 c^3 m0^2 w (dGamma/dw)/(e^2 hbar),
    which reduces to lam f~(w) / rc^2 (units s^-1 m^-2). A float for a
    Python float or 0-d omega, as spectrum gives one, else an array."""
    omega = _emission_frequency(omega, "normalized_xray_rate")
    return p.lam * spectrum(n, omega) / p.rc**2


# --- phonon heating --------------------------------------------------------------

_BRACKET_SWITCH = 20.0
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _erfcx(x, ops=_SCALAR):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0, at
    one x or over a column of x (ops, as diffusion's routes take it).

    Below x = 20: with x = hi + lo split (Veltkamp) so that hi^2 is exact,
    e^{x^2} = e^{hi^2} e^{lo (x + hi)}, times erfc(x), which stays a normal
    float to x = 26. From x = 20: the asymptotic series
    (1/(x sqrt(pi))) sum_n (-1)^n (2n - 1)!!/(2x^2)^n, summed until a term
    falls below 1e-17 (10 terms at x = 20). Within 5e-16 relative of mpmath
    on [1e-3, 1e9]."""
    return ops.branch(x < _BRACKET_SWITCH, _erfcx_split, _erfcx_series, x, ops)


def _erfcx_split(x, ops):
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    return ops.exp(hi * hi) * ops.exp(lo * (x + hi)) * ops.erfc(x)


def _erfcx_series(x, ops):
    inv = 0.5 / (x * x)
    (total,) = ops.series(inv, [1.0], [lambda inv, k: -(2 * k + 1) * inv],
                          lambda t, s: abs(t[0]) > 1e-17)
    return total / (x * _SQRT_PI)


def _phonon_bracket(x, ops=_SCALAR):
    """[1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x)] evaluated without overflow
    or cancellation, at one x or over a column of x: below x = 20 directly,
    with the split-exponential e^{x^2} erfc(x) of _erfcx; above, the
    asymptotic series 3/(4x^2) - 15/(8x^4) + ... (direct subtraction loses
    ~x^4 eps), summed until a term falls below 1e-18 of the sum, past which
    the shrinking terms cannot change it."""
    return ops.branch(x < _BRACKET_SWITCH, _bracket_direct, _bracket_series, x, ops)


def _bracket_direct(x, ops):
    return 0.5 - x * x + _SQRT_PI * ops.pow(x, 3) * _erfcx_split(x, ops)


def _bracket_series(x, ops):
    inv2 = 1.0 / (x * x)
    (total,) = ops.series(inv2, [0.75 * inv2], [lambda inv2, k: -(2 * k + 5) * 0.5 * inv2],
                          lambda t, s: abs(t[0]) > 1e-18 * abs(s[0]) + 5e-324)
    return total


# rc-free seed edges of the radial lam_eff quadrature, knees join them per rc;
# two sorted, disjoint grids, so no np.unique (which imports numpy.ma) at import
_Y_EDGES = np.concatenate([np.linspace(0.0, 8.0, 17), np.linspace(9.0, 40.0, 8)])
_LINEAR_KNEES = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0])  # times y at w_L = Wc


def _y_edges(n: NoiseSpec, ph: PhononModel, rc: np.ndarray) -> tuple[list, np.ndarray]:
    """Seed edges in y for each rc of the column, in one pass, and the mask of
    rc too fine for any (over MAX_PANELS full-sine periods in [0, 40]). Each
    other rc's are merge_edges(0, 40, _Y_EDGES, knees), knees where f~(w_L(y/rc))
    bends: near y = rc Wc / v_s (linear), at multiples of the period pi rc / a."""
    edges, too_fine = [_Y_EDGES] * rc.size, np.zeros(rc.size, dtype=bool)
    if n.is_white:
        return edges, too_fine
    with np.errstate(over="ignore", divide="ignore"):
        if ph.dispersion is None:
            knees = np.multiply.outer(rc * n.omega_c / ph.v_s, _LINEAR_KNEES).ravel()
            row = np.repeat(np.arange(rc.size), _LINEAR_KNEES.size)
        else:
            period = math.pi * rc / ph.dispersion.plane_spacing
            too_fine = 40.0 / period > MAX_PANELS
            counts = np.where(too_fine | (period >= 40.0), 0.0, np.floor(40.0 / period)).astype(int)
            row = np.repeat(np.arange(rc.size), counts)  # knee k = 1, 2, ... of each row
            knees = period[row] * (np.arange(1, row.size + 1) - (np.cumsum(counts) - counts)[row])
    inside = (knees > 0.0) & (knees < 40.0)
    # the rows with knees inside: their _Y_EDGES and knees, sorted and unique
    rows = np.flatnonzero(np.bincount(row[inside], minlength=rc.size))
    row = np.concatenate([np.repeat(rows, _Y_EDGES.size), row[inside]])
    y = np.concatenate([np.tile(_Y_EDGES, rows.size), knees[inside]])
    order = np.lexsort((y, row))
    row, y = row[order], y[order]
    first = (np.diff(row, prepend=-1) != 0) | (np.diff(y, prepend=-1.0) != 0)
    row, y = row[first], y[first]
    for i, e in zip(rows.tolist(), np.split(y, np.flatnonzero(np.diff(row)) + 1)):
        edges[i] = e
    return [e for e, bad in zip(edges, too_fine.tolist()) if not bad], too_fine


def _closed(n: NoiseSpec, ph: PhononModel, rc, lam: float, ops=_SCALAR):
    """lambda_eff's closed form for linear dispersion at rc > 0, at one rc or
    over a column of rc (ops); lam where 4 x^2 / 3 overflows, as
    lam_eff/lam = 1 - 5/(2 x^2) + ... is 1.0."""
    if n.is_white:
        return lam
    x = rc * n.omega_c / ph.v_s
    q = 4.0 * x * x / 3.0
    return np.where(q < math.inf, lam * q * _phonon_bracket(x, ops), lam)


def _quad_rows(n: NoiseSpec, ph: PhononModel, rc, at, lam, tol, out, errors) -> None:
    """lambda_eff_quad's radial quadrature at rc[i] for each i in at, in one
    integrate_rows batch: the value into out[i], or the failure into errors[i]."""
    at = np.asarray(at, dtype=np.intp)
    if lam == 0.0:
        out[at] = 0.0
        return
    edges, too_fine = _y_edges(n, ph, rc[at])
    for i in at[too_fine].tolist():
        errors[i] = QuadratureNotConverged(
            f"dispersion oscillations too fine: rc/a = {rc[i] / ph.dispersion.plane_spacing:.3e}")
    rows = at[~too_fine]
    rc_rows = rc[rows]
    f = lambda y, r: y**4 * np.exp(-(y * y)) * spectrum(n, ph.omega_l(y / rc_rows[r]))
    for i, res in zip(rows.tolist(), integrate_rows(f, edges, rel_tol=0.1 * tol)):
        if isinstance(res, Exception):
            errors[i] = res
        else:
            out[i] = lam * (8.0 / (3.0 * _SQRT_PI)) * res.value


def lambda_eff_column(n: NoiseSpec, ph: PhononModel, rcs,
                      lam: float = 1.0) -> tuple[np.ndarray, dict]:
    """lam_eff over the rc column rcs for one noise and phonon model: a new
    array, NaN where an rc raised, and {index: that exception}; lam = 1
    gives lam_eff/lam. rcs is read into a float copy, so the caller's array
    is never written. The dispersion picks the route: for linear dispersion
    lambda_eff's closed form run over the column (_COLUMN: numpy + - * / in
    the scalar's order, libm's exp, erfc and pow per element, the bracket's
    x < 20 branch as row masks and its series as tables), lambda_eff_quad's
    radial quadrature at DEFAULT_TOL, batched over all rc, for the full
    sine. Each value and error is the one-rc call's, bit for bit."""
    rc = np.array(rcs, dtype=float)
    out, ok = np.full(rc.size, math.nan), np.isfinite(rc) & (rc > 0.0)
    errors = {i: NonPositiveRc(f"rc must be > 0 and finite, got {float(rc[i])!r}")
              for i in np.flatnonzero(~ok).tolist()}
    if ph.dispersion is None:
        with np.errstate(all="ignore"):
            out[ok] = _closed(n, ph, rc[ok], lam, _COLUMN)
    else:
        _quad_rows(n, ph, rc, np.flatnonzero(ok), lam, DEFAULT_TOL, out, errors)
    return out, errors


def lambda_eff(n: NoiseSpec, ph: PhononModel, rc: float, lam: float = 1.0) -> float:
    """Effective collapse rate driving bulk heating at one rc. For linear
    dispersion the closed form, in Python floats:

    lam_eff = (4 lam rc^2 Wc^2 / 3 v_s^2) [1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x)],
    x = rc Wc / v_s, which equals lam for white noise. For the full sine
    lambda_eff_column's quadrature, on a column of one. lam and rc are
    checked as CollapseParams checks them."""
    if not 0.0 <= lam < math.inf:
        raise NegativeLambda(f"lambda must be >= 0 and finite, got {lam!r}")
    if ph.dispersion is None and math.isfinite(rc) and rc > 0:
        return float(_closed(n, ph, rc, lam))
    (value,), errors = lambda_eff_column(n, ph, [rc], lam)
    if errors:
        raise errors[0]
    return float(value)


def lambda_eff_quad(p: CollapseParams, n: NoiseSpec, ph: PhononModel,
                    tol: float = DEFAULT_TOL) -> float:
    """lam_eff by radial quadrature of the phonon-sampled noise spectrum:

    lam_eff = (8 lam / (3 sqrt(pi))) Int_0^inf y^4 e^{-y^2} f~(w_L(y/rc)) dy

    over y in [0, 40], seeded with _y_edges, to relative tolerance tol in
    (0, 1e-2). Supports both dispersion forms; matches lambda_eff's closed
    form for the linear one and returns lam (up to tol) for white noise."""
    if not 0.0 < tol < 1e-2:
        raise ValidationError("tol", f"must lie in (0, 1e-2), got {tol!r}")
    out, errors = np.full(1, math.nan), {}
    _quad_rows(n, ph, np.array([p.rc]), [0], p.lam, tol, out, errors)
    if errors:
        raise errors[0]
    return float(out[0])


def heating_rate(p: CollapseParams, n: NoiseSpec, ph: PhononModel) -> float:
    """Bulk energy gain rate per unit mass, W/kg:
    dE/(dt dM) = (3/4) (hbar^2 / rc^2 m0^2) lam_eff, with lam_eff closed form
    for linear dispersion and by quadrature at DEFAULT_TOL for the full sine."""
    leff = lambda_eff(n, ph, p.rc, p.lam)
    c = CONSTANTS
    return 0.75 * c.hbar**2 / (p.rc**2 * c.m0**2) * leff


# --- cold atoms -------------------------------------------------------------------

_COLD_SERIES_SWITCH = 1e-3


def _cold_bracket(t: float, tau: float) -> float:
    """t^3/2 - t^2 tau/2 + tau^2 (tau - (t+tau) e^{-t/tau}).

    For s = t/tau below 1e-3 the three terms cancel to O(s^3); use the series
    tau^3 (s^3/6 + s^4/8 - s^5/30 + s^6/144 - ...)."""
    if tau == 0.0:
        return 0.5 * t**3
    s = t / tau
    if s < _COLD_SERIES_SWITCH:
        # coefficients of s^n for n >= 4 are (-1)^n (n-1)/n!
        return tau**3 * (s**3 / 6.0 + s**4 / 8.0 - s**5 / 30.0 + s**6 / 144.0)
    return (0.5 * t**3 - 0.5 * t * t * tau
            + tau * tau * (tau - (t + tau) * math.exp(-min(s, 745.0))))


def _noise_bracket(n: NoiseSpec, ca: ColdAtomDescriptor) -> float:
    """The bracket for noise n: tau = 1/Wc, and white noise is the tau -> 0
    limit, t^3/2."""
    return _cold_bracket(ca.expansion_time, 0.0 if n.is_white else 1.0 / n.omega_c)


def cold_atom_noise_factor(n: NoiseSpec, ca: ColdAtomDescriptor) -> float:
    """The rc- and lam-independent factor by which noise n multiplies the
    white cold-atom diffusion: the bracket over its white value t^3/2.
    Raises ZeroDivisionError at t = 0 and OverflowError when 1/Wc^3 does."""
    return _noise_bracket(n, ca) / _noise_bracket(WHITE, ca)


def cold_atom_diffusion(p: CollapseParams, n: NoiseSpec, ca: ColdAtomDescriptor) -> float:
    """Excess position variance of the cloud after free expansion, m^2:

    (3 lam A^2 hbar^2 / 2 m^2 rc^2) [t^3/2 - t^2 tau/2 + tau^2(tau - (t+tau) e^{-t/tau})]

    with tau = 1/Wc; white noise is the tau -> 0 limit, bracket -> t^3/2."""
    bracket = _noise_bracket(n, ca)
    return _cold_prefactor(p.lam, p.rc**2, ca) * bracket


def cold_atom_white_column(rc: np.ndarray, ca: ColdAtomDescriptor) -> np.ndarray:
    """cold_atom_diffusion at lam = 1 and white noise over an rc column, each
    element bit for bit the scalar value where rc is valid."""
    return _cold_prefactor(1.0, map_floats(pow, rc, 2), ca) * _noise_bracket(WHITE, ca)


def _cold_prefactor(lam, rc2, ca: ColdAtomDescriptor):
    """3 lam A^2 hbar^2 / (2 m^2 rc^2), given rc^2."""
    c = CONSTANTS
    return 1.5 * lam * ca.mass_number**2 * c.hbar**2 / (ca.atom_mass**2 * rc2)
