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
one in lam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import CONSTANTS, CollapseParams, map_floats
from .diffusion import eta as _eta
from .diffusion import DEFAULT_TOL
from .errors import (NonPositiveFrequency, NonPositiveRc, QuadratureNotConverged,
                     UnsupportedDispersion, ValidationError, require_positive)
from .geometry import MassDistribution
from .noise import WHITE, NoiseSpec, spectrum
# integrate itself is unused here; it stays bound for tracers that wrap it at
# this import site (bench/spans.py)
from .quadrature import integrate, integrate_rows, merge_edges  # noqa: F401

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

def xray_rate(p: CollapseParams, n: NoiseSpec, omega):
    """Photon emission rate density dGamma/dw at angular frequency omega:

    dGamma/dw = e^2 hbar eta / (2 pi^2 eps0 c^3 me^2 w) * f~(w),

    with the point-electron eta = lam me^2/(2 m0^2 rc^2)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or not np.all(np.isfinite(omega)):
        raise NonPositiveFrequency("xray_rate requires omega > 0")
    c = CONSTANTS
    eta_e = p.lam * c.me**2 / (2.0 * c.m0**2 * p.rc**2)
    pref = c.e_charge**2 * c.hbar * eta_e / (2.0 * math.pi**2 * c.eps0
                                             * c.c_light**3 * c.me**2)
    out = pref / omega * spectrum(n, omega)
    return out if out.ndim else float(out)


def normalized_xray_rate(p: CollapseParams, n: NoiseSpec, omega):
    """The detector-side combination 4 pi^2 eps0 c^3 m0^2 w (dGamma/dw)/(e^2 hbar),
    which reduces to lam f~(w) / rc^2 (units s^-1 m^-2)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or not np.all(np.isfinite(omega)):
        raise NonPositiveFrequency("normalized_xray_rate requires omega > 0")
    out = np.asarray(p.lam * spectrum(n, omega) / p.rc**2)
    return out if out.ndim else float(out)


# --- phonon heating --------------------------------------------------------------

_BRACKET_SWITCH = 20.0
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    Below x = 20: with x = hi + lo split (Veltkamp) so that hi^2 is exact,
    e^{x^2} = e^{hi^2} e^{lo (x + hi)}, times math.erfc(x), which stays a
    normal float to x = 26. From x = 20: the asymptotic series
    (1/(x sqrt(pi))) sum_n (-1)^n (2n - 1)!!/(2x^2)^n, summed until a term
    falls below 1e-17 (10 terms at x = 20). Within 5e-16 relative of mpmath
    on [1e-3, 1e9]."""
    if x < _BRACKET_SWITCH:
        c = _SPLIT * x
        hi = c - (c - x)
        lo = x - hi
        return math.exp(hi * hi) * math.exp(lo * (x + hi)) * math.erfc(x)
    inv = 0.5 / (x * x)
    total = term = 1.0
    n = 0
    while abs(term) > 1e-17:
        n += 1
        term *= -(2 * n - 1) * inv
        total += term
    return total / (x * _SQRT_PI)


def _phonon_bracket(x: float) -> float:
    """[1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x)] evaluated without overflow
    or cancellation: below x = 20 directly, with the split-exponential
    e^{x^2} erfc(x) of _erfcx; above, the asymptotic series
    3/(4x^2) - 15/(8x^4) + ... (direct subtraction loses ~x^4 eps)."""
    if x < _BRACKET_SWITCH:
        return 0.5 - x * x + _SQRT_PI * x**3 * _erfcx(x)
    inv2 = 1.0 / (x * x)
    total = 0.0
    term = 0.75 * inv2  # n = 1: 3/(4 x^2)
    n = 1
    while abs(term) > 1e-18 * abs(total) + 5e-324 and n < 60:
        total += term
        n += 1
        term *= -(2 * n + 1) * 0.5 * inv2
    return total


# rc-free seed edges of the radial lam_eff quadrature, knees join them per rc;
# two sorted, disjoint grids, so no np.unique (which imports numpy.ma) at import
_Y_EDGES = np.concatenate([np.linspace(0.0, 8.0, 17), np.linspace(9.0, 40.0, 8)])
_LINEAR_KNEES = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0])  # times y at w_L = Wc


def _y_edges(n: NoiseSpec, ph: PhononModel, rc: float) -> np.ndarray:
    """Seed edges in y for one rc: _Y_EDGES plus knees where f~(w_L(y/rc))
    bends, around y = rc Wc / v_s (where w_L = Wc) for linear dispersion and
    at multiples of the full sine's period pi rc / a."""
    if n.is_white:
        return _Y_EDGES
    if ph.dispersion is None:
        return merge_edges(0.0, 40.0, _Y_EDGES, rc * n.omega_c / ph.v_s * _LINEAR_KNEES)
    a = ph.dispersion.plane_spacing
    period = math.pi * rc / a
    if 40.0 / period > 20000:
        raise QuadratureNotConverged(f"dispersion oscillations too fine: rc/a = {rc / a:.3e}")
    if period >= 40.0:
        return _Y_EDGES
    return merge_edges(0.0, 40.0, _Y_EDGES, period * np.arange(1, int(40.0 / period) + 1))


def _closed(n: NoiseSpec, ph: PhononModel, rc, lam: float, bracket=_phonon_bracket):
    """lambda_eff_closed's formula at rc > 0: at one rc, or over a column of rc."""
    if n.is_white:
        return lam
    x = rc * n.omega_c / ph.v_s
    return lam * (4.0 * x * x / 3.0) * bracket(x)


def lambda_eff_column(n: NoiseSpec, ph: PhononModel, rcs, tol: float = DEFAULT_TOL,
                      lam: float = 1.0, closed: bool | None = None) -> tuple[np.ndarray, dict]:
    """lam_eff over the rc column rcs for one noise and phonon model: an array,
    NaN where an rc raised, and {index: that exception}; lam = 1 gives
    lam_eff/lam. closed=True is lambda_eff_closed's closed form (linear
    dispersion assumed) in numpy passes, closed=False lambda_eff_quad's radial
    quadrature, batched over all rc; by default the closed form for linear
    dispersion. Each value and error is the one-rc call's, bit for bit."""
    if closed is None:
        closed = ph.dispersion is None
    rc = np.array(rcs, dtype=float)
    out, ok = np.full(rc.size, math.nan), np.isfinite(rc) & (rc > 0.0)
    errors = {i: NonPositiveRc(f"rc must be > 0 and finite, got {float(rc[i])!r}")
              for i in np.flatnonzero(~ok).tolist()}
    if closed:
        with np.errstate(all="ignore"):
            out[ok] = _closed(n, ph, rc[ok], lam, partial(map_floats, _phonon_bracket))
        return out, errors
    at = np.flatnonzero(ok).tolist()
    if not (0.0 < tol < 1e-2):
        errors.update((i, ValidationError("tol", f"must lie in (0, 1e-2), got {tol!r}"))
                      for i in at)
        return out, errors
    if lam == 0.0:
        out[ok] = 0.0
        return out, errors
    rows, edges = [], []  # the quadrature's rows: their indices, their seed edges
    for i in at:
        try:
            edges.append(_y_edges(n, ph, float(rc[i])))
        except QuadratureNotConverged as err:
            errors[i] = err
        else:
            rows.append(i)
    if rows:
        rc_rows = rc[rows]
        f = lambda y, r: y**4 * np.exp(-(y * y)) * spectrum(n, ph.omega_l(y / rc_rows[r]))
        for i, res in zip(rows, integrate_rows(f, edges, rel_tol=0.1 * tol)):
            if isinstance(res, Exception):
                errors[i] = res
            else:
                out[i] = lam * (8.0 / (3.0 * _SQRT_PI)) * res.value
    return out, errors


def lambda_eff(n: NoiseSpec, ph: PhononModel, rc: float, tol: float = DEFAULT_TOL,
               lam: float = 1.0, closed: bool | None = None) -> float:
    """lam_eff at one rc: the closed form in Python floats, else a column of one."""
    if (ph.dispersion is None if closed is None else closed) and math.isfinite(rc) and rc > 0:
        return _closed(n, ph, rc, lam)
    (value,), errors = lambda_eff_column(n, ph, [rc], tol, lam, closed)
    if errors:
        raise errors[0]
    return float(value)


def lambda_eff_closed(p: CollapseParams, n: NoiseSpec, ph: PhononModel) -> float:
    """Effective collapse rate for linear dispersion:

    lam_eff = (4 lam rc^2 Wc^2 / 3 v_s^2) [1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x)],
    x = rc Wc / v_s. Equals lam for white noise.
    """
    if ph.dispersion is not None:
        raise UnsupportedDispersion("closed form exists for linear dispersion only")
    return lambda_eff(n, ph, p.rc, lam=p.lam, closed=True)


def lambda_eff_quad(p: CollapseParams, n: NoiseSpec, ph: PhononModel,
                    tol: float = DEFAULT_TOL) -> float:
    """lam_eff by radial quadrature of the phonon-sampled noise spectrum:

    lam_eff = (8 lam / (3 sqrt(pi))) Int_0^inf y^4 e^{-y^2} f~(w_L(y/rc)) dy

    over y in [0, 40], seeded with _y_edges.
    Supports both dispersion forms; matches lambda_eff_closed for the linear
    one and returns lam (up to tol) for white noise."""
    return lambda_eff(n, ph, p.rc, tol, p.lam, closed=False)


def heating_rate(p: CollapseParams, n: NoiseSpec, ph: PhononModel,
                 tol: float = DEFAULT_TOL) -> float:
    """Bulk energy gain rate per unit mass, W/kg:
    dE/(dt dM) = (3/4) (hbar^2 / rc^2 m0^2) lam_eff, with lam_eff closed form
    for linear dispersion and by quadrature for the full sine."""
    leff = lambda_eff(n, ph, p.rc, tol, p.lam)
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
