"""The collapse diffusion coefficient eta.

eta(d, lam, rc) = (lam rc^3 / (pi^{3/2} m0^2)) * I3,
I3 = Integral d^3k |mu~(k)|^2 k_x^2 e^{-k^2 rc^2},

with k_x the component along the measurement axis. eta is linear in lam;
``eta_reduced`` returns the lam = 1 value that bound inversions divide
ceilings by. The integral is truncated at |k| = 10/rc, where the Gaussian
weight is e^{-100}.

Every primitive shape has a stable closed form; only interference between
radially symmetric composite parts needs a 1-D radial quadrature, and no
multi-dimensional quadrature sits on the production path:

* point mass: I3 = m^2 pi^{3/2}/(2 rc^5) exactly.
* sphere: I3 = 3 pi^{3/2} (m^2/R^6) [2 rc (e^{-X} - 1) + (R^2/rc)(1 + e^{-X})]
  with X = (R/rc)^2, exact at every rc; below X = 1, where the bracket
  cancels, its Taylor series (which starts at X^3/6) is summed instead.
* cuboid: the integrand separates per axis; each 1-D factor has an
  erf/expm1 closed form.
* cylinder: the azimuthal integral is analytic, the axial factor is the
  cuboid closed form, and the transverse J1^2 moments follow from Watson's
  identity Int_0^inf e^{-p^2 t^2} J1(a t)^2 t dt = e^{-u} I1(u)/(2 p^2)
  with u = a^2/(2 p^2), exact at every rc; below u = 1, where
  1 - e^{-u}(I0+I1) cancels, a hypergeometric series replaces it.
* composite: sum of the parts' terms plus pairwise interference.
  Point/cuboid pairs reduce per axis to erf/Gaussian primitives; pairs of
  radially symmetric parts reduce to a Bessel-weighted radial integral;
  any other pair is dropped only when a Gaussian surface-gap bound proves
  it negligible, else CompositeCrossTermUnsupported is raised.

``eta_reduced_reference`` is a deliberately independent spherical-coordinate
evaluator (radial Gauss-Kronrod times an angular product rule) used to
cross-check the reductions in regimes where it is affordable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ive, spherical_jn

from .core import CONSTANTS, CollapseParams, validate_params
from .errors import CompositeCrossTermUnsupported, NonPositiveRc, QuadratureNotConverged
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                       circumradius, sphere_kernel, total_mass,
                       validate_distribution)
from .quadrature import integrate, merge_edges

DEFAULT_TOL = 1e-8
K_CUTOFF = 10.0            # integrate |k| <= K_CUTOFF/rc; tail weight e^-100
_GAP_DROP = 12.0           # drop cross terms when gap/(2 rc) exceeds this
_MAX_OSC_PANELS = 20000

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class EtaResult:
    value: float      # s^-1 m^-2 (so that hbar^2 * eta is a force PSD in N^2 s)
    est_error: float  # relative error estimate

    def __float__(self):
        return self.value


_CACHE: dict[tuple, EtaResult] = {}
_CACHE_LOCK = threading.Lock()


def clear_cache():
    with _CACHE_LOCK:
        _CACHE.clear()


# --- 1-D building blocks -----------------------------------------------------

def _radial_edges(rc: float, zero_spacing: float | None = None) -> np.ndarray:
    """Panel edges on [0, 10/rc]: a fixed grid resolving the Gaussian scale,
    merged with form-factor oscillation nodes when they are coarser-than-
    panel-sized."""
    k_max = K_CUTOFF / rc
    base = np.concatenate([np.linspace(0.0, 4.0, 17), np.linspace(4.25, 10.0, 24)]) / rc
    zeros = ()
    if zero_spacing is not None and zero_spacing < k_max:
        n = int(k_max / zero_spacing)
        if n + 1 > _MAX_OSC_PANELS:
            raise QuadratureNotConverged(
                f"integrand needs {n} oscillation panels (limit {_MAX_OSC_PANELS})")
        zeros = zero_spacing * np.arange(1, n + 1)
    return merge_edges(0.0, k_max, base, zeros)


def _axial_moments(L: float, rc: float) -> tuple[float, float]:
    """Full-line moments of the cuboid axis factor:

    A0 = Int sinc^2(k L/2) e^{-k^2 rc^2} dk
       = (2 pi/L^2) [L erf(x) + (2 rc/sqrt(pi)) (e^{-x^2} - 1)],  x = L/(2 rc)
    A2 = Int k^2 sinc^2(k L/2) e^{-k^2 rc^2} dk
       = (2 sqrt(pi)/(L^2 rc)) (1 - e^{-x^2})
    """
    x = L / (2.0 * rc)
    em = math.expm1(-min(x * x, 745.0))  # e^{-x^2} - 1, exact near 0
    a0 = (2.0 * math.pi / L**2) * (L * math.erf(x) + (2.0 * rc / _SQRT_PI) * em)
    a2 = (2.0 * _SQRT_PI / (L**2 * rc)) * (-em)
    return a0, a2


def _ive(n: int, u: float) -> float:
    """Scaled modified Bessel e^{-u} I_n(u) for u >= 0. SciPy's ive overflows
    internally above u ~ 1e10; switch to the large-argument expansion
    (1/sqrt(2 pi u)) [1 - (mu-1)/8u + (mu-1)(mu-9)/2!(8u)^2 - ...], mu = 4 n^2,
    whose truncation error is far below double precision at the switch."""
    if u <= 1e8:
        return float(ive(n, u))
    mu = 4.0 * n * n
    inv = 1.0 / (8.0 * u)
    s = (1.0 - (mu - 1.0) * inv
         + (mu - 1.0) * (mu - 9.0) * inv * inv / 2.0
         - (mu - 1.0) * (mu - 9.0) * (mu - 25.0) * inv**3 / 6.0)
    return s / math.sqrt(2.0 * math.pi * u)


def _series(term: float, ratio) -> float:
    """Sum term_0 + term_1 + ... with term_{k+1} = term_k * ratio(k), to
    double precision; for the fast-converging series below."""
    total, k = term, 0
    while abs(term) > 1e-17 * abs(total):
        term *= ratio(k)
        total += term
        k += 1
    return total


def _one_minus_ive01(u: float) -> float:
    """g(u) = 1 - e^{-u} (I0(u) + I1(u)) = Int_0^u e^{-t} I1(t)/t dt. Below
    u = 1, where the difference cancels, it is the Kummer series
    e^{-t} I1(t)/t = (1/2) 1F1(3/2; 3; -2t) integrated term by term:
    g(u) = (1/2) sum_k (3/2)_k/(3)_k (-2)^k u^{k+1}/((k+1) k!)."""
    if u >= 1.0:
        return 1.0 - _ive(0, u) - _ive(1, u)
    return _series(0.5 * u, lambda k: -2.0 * u * (k + 1.5) / ((k + 3.0) * (k + 2.0)))


def _transverse_moments(R: float, rc: float) -> tuple[float, float]:
    """Half-line moments of the cylinder disc factor, with kp the transverse
    wave number:

    B1 = Int kp   [2 J1(kp R)/(kp R)]^2 e^{-kp^2 rc^2} dkp
    B3 = Int kp^3 [2 J1(kp R)/(kp R)]^2 e^{-kp^2 rc^2} dkp

    Closed forms (u = R^2/(2 rc^2), scaled Bessel ive):
    B1 = (2/R^2) [1 - ive(0,u) - ive(1,u)],  B3 = (2/(R^2 rc^2)) ive(1,u).
    """
    u = (R / rc) ** 2 / 2.0
    b1 = (2.0 / R**2) * _one_minus_ive01(u)
    b3 = (2.0 / (R**2 * rc**2)) * _ive(1, u)
    return b1, b3


# --- per-shape reductions (all return I3 = Int |mu|^2 kx^2 e^{-k^2 rc^2}) ----

def _i3_sphere(R: float, m: float, rc: float) -> tuple[float, float]:
    """I3 = 3 pi^{3/2} (m^2/R^6) [2 rc (e^-X - 1) + (R^2/rc)(1 + e^-X)],
    X = (R/rc)^2. Below X = 1, where it cancels, the bracket is its series
    rc sum_{n>=3} (-1)^n (2 - n) X^n/n!, summed here divided by rc X^3."""
    X = (R / rc) ** 2
    if X >= 1.0:
        ex = math.exp(-min(X, 745.0))
        bracket = 2.0 * rc * (ex - 1.0) + (R * R / rc) * (1.0 + ex)
        return 3.0 * math.pi ** 1.5 * m * m / R**6 * bracket, 5e-15
    s = _series(1.0 / 6.0, lambda k: -X * (k + 2) / ((k + 4) * (k + 1)))
    return 3.0 * math.pi ** 1.5 * m * m / rc**5 * s, 5e-15


def _i3_cuboid(shape: Cuboid, m: float, rc: float, axis) -> tuple[float, float]:
    lengths = (shape.lx, shape.ly, shape.lz)
    a0 = [None, None, None]
    a2 = [None, None, None]
    for i, L in enumerate(lengths):
        a0[i], a2[i] = _axial_moments(L, rc)
    i3 = 0.0
    for i in range(3):
        if axis[i] == 0.0:
            continue
        term = axis[i] ** 2 * a2[i]
        for j in range(3):
            if j != i:
                term *= a0[j]
        i3 += term
    return m * m * i3, 1e-14


def _i3_cylinder(shape: Cylinder, m: float, rc: float, axis) -> tuple[float, float]:
    n = np.asarray(shape.axis)
    c = float(np.clip(np.dot(np.asarray(axis), n), -1.0, 1.0))
    s2 = max(0.0, 1.0 - c * c)
    A0, A2 = _axial_moments(shape.length, rc)
    B1, B3 = _transverse_moments(shape.radius, rc)
    i3 = m * m * (2.0 * math.pi * c * c * A2 * B1 + math.pi * s2 * A0 * B3)
    return i3, 2e-14


# --- composite interference --------------------------------------------------

def _Tfun(a: float, rc: float) -> float:
    x = abs(a) / (2.0 * rc)
    return math.pi * (abs(a) * math.erf(x) + (2.0 * rc / _SQRT_PI) * math.expm1(-min(x * x, 745.0)))


def _Ufun(a: float, rc: float) -> float:
    return (_SQRT_PI / rc) * math.exp(-min((a / (2.0 * rc)) ** 2, 745.0))


def _Vfun(a: float, rc: float) -> float:
    return math.pi * math.erf(a / (2.0 * rc))


def _W1fun(a: float, rc: float) -> float:
    return (_SQRT_PI / rc) * (a / (2.0 * rc * rc)) * math.exp(-min((a / (2.0 * rc)) ** 2, 745.0))


def _W2fun(a: float, rc: float) -> float:
    x2 = (a / (2.0 * rc)) ** 2
    return (_SQRT_PI / rc**3) * (0.5 - x2) * math.exp(-min(x2, 745.0))


def _axis_pair_factors(Li: float | None, Lj: float | None, delta: float,
                       rc: float) -> tuple[float, float, float]:
    """The three 1-D factors of one Cartesian axis for a point/cuboid pair:

    f0 = Int s_i s_j cos(k delta) e^{-k^2 rc^2} dk
    f1 = Int k s_i s_j sin(k delta) e^{-k^2 rc^2} dk
    f2 = Int k^2 s_i s_j cos(k delta) e^{-k^2 rc^2} dk

    where s is 1 for a point mass and sinc(k L/2) for a cuboid edge.
    """
    if Li is None and Lj is None:
        return _Ufun(delta, rc), _W1fun(delta, rc), _W2fun(delta, rc)
    if Li is None or Lj is None:
        L = Lj if Li is None else Li
        p, q = 0.5 * L + delta, 0.5 * L - delta
        f0 = (_Vfun(p, rc) + _Vfun(q, rc)) / L
        f1 = (_Ufun(q, rc) - _Ufun(p, rc)) / L
        f2 = (_W1fun(p, rc) + _W1fun(q, rc)) / L
        return f0, f1, f2
    dp, dm = 0.5 * (Li + Lj), 0.5 * (Li - Lj)
    inv = 1.0 / (Li * Lj)
    f0 = inv * (_Tfun(dp - delta, rc) + _Tfun(dp + delta, rc)
                - _Tfun(dm - delta, rc) - _Tfun(dm + delta, rc))
    f1 = inv * (_Vfun(dm + delta, rc) - _Vfun(dm - delta, rc)
                - _Vfun(dp + delta, rc) + _Vfun(dp - delta, rc))
    f2 = inv * (_Ufun(dm - delta, rc) + _Ufun(dm + delta, rc)
                - _Ufun(dp - delta, rc) - _Ufun(dp + delta, rc))
    return f0, f1, f2


def _cartesian_profile(d: MassDistribution) -> tuple | None:
    """Per-axis edge lengths for shapes whose form factor separates along the
    global axes: cuboids and point masses."""
    if isinstance(d.shape, PointMass):
        return (None, None, None)
    if isinstance(d.shape, Cuboid):
        return (d.shape.lx, d.shape.ly, d.shape.lz)
    return None


def _cross_cartesian(prof_i, prof_j, mi, mj, delta, axis, rc) -> float:
    """2 Re Int mu_i mu_j* kx^2 e^{-k^2 rc^2} e^{-i k.delta} d^3k for a
    point/cuboid pair, as products of the per-axis factors."""
    f = [_axis_pair_factors(prof_i[r], prof_j[r], delta[r], rc) for r in range(3)]
    total = 0.0
    for p in range(3):
        term = axis[p] ** 2 * f[p][2]
        for r in range(3):
            if r != p:
                term *= f[r][0]
        total += term
    for p in range(3):
        for q in range(p + 1, 3):
            rem = 3 - p - q
            total -= 2.0 * axis[p] * axis[q] * f[p][1] * f[q][1] * f[rem][0]
    return 2.0 * mi * mj * total


def _radial_profile(d: MassDistribution):
    """(kernel(k) callable, mass) for radially symmetric shapes."""
    m = total_mass(d)
    if isinstance(d.shape, PointMass):
        return (lambda k: np.ones_like(k)), m
    if isinstance(d.shape, Sphere):
        R = d.shape.radius
        return (lambda k: sphere_kernel(k * R)), m
    return None


def _cross_isotropic(ker_i, ker_j, mi, mj, delta, axis, rc, tol) -> tuple[float, float]:
    """Interference of two radially symmetric parts. The angular integral is
    analytic:

    Int dOmega (khat.xhat)^2 e^{-i k.D} =
        4 pi [ j0(kD)/3 - (2/3) P2(cos gamma) j2(kD) ],

    gamma the angle between D and the measurement axis."""
    D = float(np.linalg.norm(delta))
    if D == 0.0:
        angular = lambda k: np.full_like(k, 4.0 * math.pi / 3.0)
        zero_spacing = None
    else:
        cg = float(np.dot(delta, axis) / D)
        p2 = 0.5 * (3.0 * cg * cg - 1.0)
        angular = lambda k: 4.0 * math.pi * (spherical_jn(0, k * D) / 3.0
                                             - (2.0 / 3.0) * p2 * spherical_jn(2, k * D))
        zero_spacing = math.pi / D
    edges = _radial_edges(rc, zero_spacing=zero_spacing)
    f = lambda k: k**4 * ker_i(k) * ker_j(k) * np.exp(-(k * rc) ** 2) * angular(k)
    res = integrate(f, edges, rel_tol=0.1 * tol,
                    abs_floor=0.1 * tol * _SQRT_PI * math.pi / rc**5)
    return 2.0 * mi * mj * res.value, 2.0 * mi * mj * res.error


def _i3_composite(d: MassDistribution, rc: float, tol: float) -> tuple[float, float]:
    parts = _flatten(d)
    axis = np.asarray(d.measurement_axis)
    pref = math.pi ** 1.5 * CONSTANTS.m0**2 / rc**3  # I3 = pref * eta_reduced

    diag = []
    for part, _ in parts:
        r = eta_reduced(replace(part, measurement_axis=d.measurement_axis), rc, tol)
        diag.append((r.value * pref, abs(r.value) * pref * r.est_error))
    i3 = sum(v for v, _ in diag)
    abs_err = sum(e for _, e in diag)

    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            (pi_, off_i), (pj_, off_j) = parts[i], parts[j]
            delta = np.asarray(off_i) - np.asarray(off_j)
            cart_i, cart_j = _cartesian_profile(pi_), _cartesian_profile(pj_)
            if cart_i is not None and cart_j is not None:
                i3 += _cross_cartesian(cart_i, cart_j, total_mass(pi_), total_mass(pj_),
                                       delta, axis, rc)
                abs_err += 1e-14 * math.sqrt(diag[i][0] * diag[j][0])
                continue
            gap = float(np.linalg.norm(delta)) - circumradius(pi_) - circumradius(pj_)
            if gap > 0.0 and gap / (2.0 * rc) >= _GAP_DROP:
                # interference bounded by the Gaussian overlap of the smoothed,
                # disjoint parts: negligible by construction of the threshold
                abs_err += 2.0 * math.sqrt(diag[i][0] * diag[j][0]) * math.exp(
                    -min((gap / (2.0 * rc)) ** 2, 745.0))
                continue
            rad_i, rad_j = _radial_profile(pi_), _radial_profile(pj_)
            if rad_i is not None and rad_j is not None:
                val, err = _cross_isotropic(rad_i[0], rad_j[0], rad_i[1], rad_j[1],
                                            delta, axis, rc, tol)
                i3 += val
                abs_err += err
                continue
            raise CompositeCrossTermUnsupported(
                f"no evaluation route for {type(pi_.shape).__name__}/"
                f"{type(pj_.shape).__name__} pair at separation "
                f"{np.linalg.norm(delta):.3e} m with rc={rc:.3e} m")
    if i3 <= 0.0:
        return i3, abs_err
    return i3, abs_err / i3


def _flatten(d: MassDistribution, base=(0.0, 0.0, 0.0)) -> list:
    """Expand nested composites into (primitive distribution, offset) pairs."""
    out = []
    if isinstance(d.shape, Composite):
        for part, off in d.shape.parts:
            shifted = tuple(b + o for b, o in zip(base, off))
            if isinstance(part.shape, Composite):
                out.extend(_flatten(part, shifted))
            else:
                out.append((part, shifted))
    else:
        out.append((d, base))
    return out


# --- public operations -------------------------------------------------------

def eta_reduced(d: MassDistribution, rc: float, tol: float = DEFAULT_TOL) -> EtaResult:
    """eta per unit collapse rate (lam = 1) for correlation length rc."""
    if not (0.0 < tol < 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2), got {tol!r}")
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    validate_distribution(d)
    key = (d, float(rc), float(tol))
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit

    m0 = CONSTANTS.m0
    pref = rc**3 / (math.pi ** 1.5 * m0 * m0)
    s = d.shape
    if isinstance(s, PointMass):
        m = total_mass(d)
        value, err = m * m / (2.0 * m0 * m0 * rc * rc), 2e-16
    elif isinstance(s, Sphere):
        i3, err = _i3_sphere(s.radius, total_mass(d), rc)
        value = pref * i3
    elif isinstance(s, Cuboid):
        i3, err = _i3_cuboid(s, total_mass(d), rc, d.measurement_axis)
        value = pref * i3
    elif isinstance(s, Cylinder):
        i3, err = _i3_cylinder(s, total_mass(d), rc, d.measurement_axis)
        value = pref * i3
    elif isinstance(s, Composite):
        i3, err = _i3_composite(d, rc, tol)
        value = pref * i3
    else:
        raise TypeError(f"unknown shape {type(s).__name__}")

    result = EtaResult(value, err)
    with _CACHE_LOCK:
        _CACHE[key] = result
    return result


def eta(d: MassDistribution, p: CollapseParams, tol: float = DEFAULT_TOL) -> EtaResult:
    """The diffusion coefficient for collapse parameters p; linear in p.lam."""
    validate_params(p)
    if p.lam == 0.0:
        return EtaResult(0.0, 0.0)
    r = eta_reduced(d, p.rc, tol)
    return EtaResult(p.lam * r.value, r.est_error)


def eta_reduced_reference(d: MassDistribution, rc: float, *, tol: float = 1e-6,
                          n_theta: int = 64, n_phi: int = 64) -> EtaResult:
    """Generic spherical-coordinate evaluation of eta_reduced: adaptive
    radial Gauss-Kronrod times a fixed (cos theta, phi) product rule.

    Independent of the per-shape reductions; used to validate them where
    its cost is acceptable. The angular rule is fixed, so the returned
    error estimate covers the radial part only.
    """
    validate_distribution(d)
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    from .geometry import form_factor_sq

    xs, ws = np.polynomial.legendre.leggauss(n_theta)  # cos(theta) rule
    phis = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    st = np.sqrt(1.0 - xs**2)
    dirs = np.stack([
        np.outer(st, np.cos(phis)).ravel(),
        np.outer(st, np.sin(phis)).ravel(),
        np.repeat(xs, n_phi),
    ], axis=-1)
    w_dir = np.repeat(ws, n_phi) * (2.0 * math.pi / n_phi)
    proj2 = (dirs @ np.asarray(d.measurement_axis)) ** 2

    def radial(k_flat):
        out = np.empty_like(k_flat)
        for lo in range(0, k_flat.size, 128):
            chunk = k_flat[lo:lo + 128]
            kvec = chunk[:, None, None] * dirs[None, :, :]
            ff = np.asarray(form_factor_sq(d, kvec.reshape(-1, 3))).reshape(chunk.size, -1)
            out[lo:lo + 128] = ff @ (w_dir * proj2)
        return out * k_flat**4 * np.exp(-(k_flat * rc) ** 2)

    zero_spacing = None
    cr = circumradius(d)
    if cr > 0.0 and math.pi / cr < K_CUTOFF / rc:
        zero_spacing = math.pi / cr
    edges = _radial_edges(rc, zero_spacing=zero_spacing)
    res = integrate(radial, edges, rel_tol=0.1 * tol)
    m0 = CONSTANTS.m0
    value = rc**3 / (math.pi ** 1.5 * m0 * m0) * res.value
    return EtaResult(value, res.error / abs(res.value) if res.value else 0.0)
