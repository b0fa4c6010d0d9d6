"""The collapse diffusion coefficient eta.

eta(d, lam, rc) = (lam rc^3 / (pi^{3/2} m0^2)) * I3,
I3 = Integral d^3k |mu~(k)|^2 k_x^2 e^{-k^2 rc^2},

with k_x the component along the measurement axis. eta is linear in lam;
``eta_reduced`` returns the lam = 1 value that bound inversions divide
ceilings by, memoized per (distribution, rc). It checks only rc: a
distribution is validated when it is built.

Every eta route is closed form, integrated over all k; no quadrature sits on
the eta production path (the only production adaptive quadrature left in
ccsl is bulk heating with the full-sine dispersion):

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
  1 - e^{-u}(I0+I1) cancels, a hypergeometric series replaces it. The
  scaled Bessels e^{-u} I0 and e^{-u} I1 come from one ``_ive01`` call:
  their power series below u = 19, the Hankel expansion from there, both
  within 1e-15 relative of mpmath.
* composite: sum of the parts' terms plus pairwise interference. Every
  pair is first checked against a Gaussian surface-gap bound: where
  gap/(2 rc) >= 12 its interference is dropped unevaluated, whatever the
  shapes. Inside the bound, point/cuboid pairs reduce per axis to
  erf/Gaussian primitives. Pairs of radially symmetric parts
  (sphere/sphere, sphere/point) expand into terms
  c q^p {cos, sin}(f q) e^{-q^2}, q = k rc, each with an exact moment:
  Hermite-Gaussian for p >= 0, a Hadamard finite part with repeated erfc
  integrals below; a factor whose trig form cancels (length below rc) is
  replaced by its Taylor series, and next to kernel frequencies 16 rc or
  more above D the angular factor by its D = 0 value, which it then equals
  to within e^{-64}. Any other pair inside the bound raises
  CompositeCrossTermUnsupported.

``eta_reduced_reference`` is a deliberately independent spherical-coordinate
evaluator (radial Gauss-Kronrod on |k| <= 10/rc, where the Gaussian weight
is e^{-100}, times an angular product rule) used to cross-check the
reductions in regimes where it is affordable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, CollapseParams
from .errors import CompositeCrossTermUnsupported, NonPositiveRc, QuadratureNotConverged
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                       circumradius, total_mass, validate_distribution)
from .quadrature import integrate, merge_edges

DEFAULT_TOL = 1e-8         # relative tol of full-sine heating's adaptive quadrature
K_CUTOFF = 10.0            # integrate |k| <= K_CUTOFF/rc; tail weight e^-100
_GAP_DROP = 12.0           # drop cross terms when gap/(2 rc) exceeds this
_MAX_OSC_PANELS = 20000

_SQRT_PI = math.sqrt(math.pi)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EtaResult:
    value: float      # s^-1 m^-2 (so that hbar^2 * eta is a force PSD in N^2 s)
    est_error: float  # relative error estimate

    def __float__(self):
        return self.value


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


def _series(term: float, ratio) -> float:
    """Sum term_0 + term_1 + ... with term_{k+1} = term_k * ratio(k), to
    double precision; for the fast-converging series below."""
    total, k = term, 0
    while abs(term) > 1e-17 * abs(total):
        term *= ratio(k)
        total += term
        k += 1
    return total


_HANKEL_FROM = 19.0  # lowest integer u at which the Hankel terms reach 1e-17


def _ive01(u: float) -> tuple[float, float]:
    """The scaled modified Bessels (e^{-u} I0(u), e^{-u} I1(u)) for u >= 0,
    in one pass.

    Below u = 19: the power series I0 = sum_k q^k/k!^2 and
    I1 = (u/2) sum_k q^k/(k! (k+1)!), q = u^2/4, whose terms are all
    positive, times e^{-u}. From u = 19: the Hankel expansion
    e^{-u} I_n(u) = (2 pi u)^{-1/2} sum_k t_k,
    t_{k+1} = t_k ((2k+1)^2 - 4n^2)/(8 (k+1) u), t_0 = 1, summed until both
    orders' terms fall below 1e-17. That expansion diverges once k passes
    about 2u; its smallest term is 4e-18 at u = 19 and 3e-17 at u = 18, so
    19 is the lowest integer switch that reaches 1e-17. Both branches are
    within 1e-15 relative of mpmath over u in [1e-6, 1e12]; at u = inf both
    values are 0."""
    if u < _HANKEL_FROM:
        q = 0.25 * u * u
        t0, t1 = 1.0, 0.5 * u
        s0, s1 = t0, t1
        k = 0
        while t0 > 1e-17 * s0:  # t1/s1 is below t0/s0
            k += 1
            t0 *= q / (k * k)
            t1 *= q / (k * (k + 1))
            s0 += t0
            s1 += t1
        ex = math.exp(-u)
        return s0 * ex, s1 * ex
    inv = 0.125 / u
    t0 = t1 = s0 = s1 = 1.0
    k = 0
    while abs(t0) > 1e-17 or abs(t1) > 1e-17:
        odd2 = (2 * k + 1) ** 2
        k += 1
        t0 *= odd2 * inv / k
        t1 *= (odd2 - 4) * inv / k
        s0 += t0
        s1 += t1
    r = 1.0 / math.sqrt(2.0 * math.pi * u)
    return s0 * r, s1 * r


def _transverse_moments(R: float, rc: float) -> tuple[float, float]:
    """Half-line moments of the cylinder disc factor, with kp the transverse
    wave number:

    B1 = Int kp   [2 J1(kp R)/(kp R)]^2 e^{-kp^2 rc^2} dkp
    B3 = Int kp^3 [2 J1(kp R)/(kp R)]^2 e^{-kp^2 rc^2} dkp

    Closed forms (u = R^2/(2 rc^2), scaled Bessels from one _ive01 call):
    B1 = (2/R^2) g(u),  g(u) = 1 - e^{-u} (I0(u) + I1(u)),
    B3 = (2/(R^2 rc^2)) e^{-u} I1(u).
    Below u = 1, where g cancels, g = Int_0^u e^{-t} I1(t)/t dt is the Kummer
    series e^{-t} I1(t)/t = (1/2) 1F1(3/2; 3; -2t) integrated term by term:
    g(u) = (1/2) sum_k (3/2)_k/(3)_k (-2)^k u^{k+1}/((k+1) k!).
    """
    u = (R / rc) ** 2 / 2.0
    i0, i1 = _ive01(u)
    if u >= 1.0:
        g = 1.0 - i0 - i1
    else:
        g = _series(0.5 * u, lambda k: -2.0 * u * (k + 1.5) / ((k + 3.0) * (k + 2.0)))
    return (2.0 / R**2) * g, (2.0 / (R**2 * rc**2)) * i1


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


@functools.cache
def _axis_cosine(axis: tuple, cylinder_axis: tuple) -> float:
    """Cosine between the measurement axis and a cylinder's axis, computed
    once per pair of axes: it does not depend on rc."""
    return float(np.clip(np.dot(np.asarray(axis), np.asarray(cylinder_axis)), -1.0, 1.0))


def _i3_cylinder(shape: Cylinder, m: float, rc: float, axis) -> tuple[float, float]:
    c = _axis_cosine(axis, shape.axis)
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
                       rc: float) -> tuple[tuple, tuple]:
    """The three 1-D factors of one Cartesian axis for a point/cuboid pair:

    f0 = Int s_i s_j cos(k delta) e^{-k^2 rc^2} dk
    f1 = Int k s_i s_j sin(k delta) e^{-k^2 rc^2} dk
    f2 = Int k^2 s_i s_j cos(k delta) e^{-k^2 rc^2} dk

    where s is 1 for a point mass and sinc(k L/2) for a cuboid edge, and
    the rounding error of each: 4 eps times the magnitudes of the up to four
    primitive terms it sums, which cancel when the pair is far apart against
    its edges (the cuboid/cuboid f0 keeps about eps |delta| / L of them).
    """
    if Li is None and Lj is None:
        f = (_Ufun(delta, rc), _W1fun(delta, rc), _W2fun(delta, rc))
        return f, tuple(4.0 * _EPS * abs(x) for x in f)
    if Li is None or Lj is None:
        L = Lj if Li is None else Li
        p, q = 0.5 * L + delta, 0.5 * L - delta
        terms = ((_Vfun(p, rc), _Vfun(q, rc)), (_Ufun(q, rc), _Ufun(p, rc)),
                 (_W1fun(p, rc), _W1fun(q, rc)))
        (v0, v1), (u0, u1), (w0, w1) = terms
        f = ((v0 + v1) / L, (u0 - u1) / L, (w0 + w1) / L)
        scale = 4.0 * _EPS / L
    else:
        dp, dm = 0.5 * (Li + Lj), 0.5 * (Li - Lj)
        inv = 1.0 / (Li * Lj)
        scale = 4.0 * _EPS * inv
        terms = ((_Tfun(dp - delta, rc), _Tfun(dp + delta, rc),
                  _Tfun(dm - delta, rc), _Tfun(dm + delta, rc)),
                 (_Vfun(dm + delta, rc), _Vfun(dm - delta, rc),
                  _Vfun(dp + delta, rc), _Vfun(dp - delta, rc)),
                 (_Ufun(dm - delta, rc), _Ufun(dm + delta, rc),
                  _Ufun(dp - delta, rc), _Ufun(dp + delta, rc)))
        (t0, t1, t2, t3), (v0, v1, v2, v3), (u0, u1, u2, u3) = terms
        f = (inv * (t0 + t1 - t2 - t3), inv * (v0 - v1 - v2 + v3),
             inv * (u0 + u1 - u2 - u3))
    return f, tuple(scale * sum(map(abs, g)) for g in terms)


def _cartesian_profile(d: MassDistribution) -> tuple | None:
    """Per-axis edge lengths for shapes whose form factor separates along the
    global axes: cuboids and point masses."""
    if isinstance(d.shape, PointMass):
        return (None, None, None)
    if isinstance(d.shape, Cuboid):
        return (d.shape.lx, d.shape.ly, d.shape.lz)
    return None


def _cartesian_sum(f, axis, sign: float = -1.0) -> float:
    total = 0.0
    for p in range(3):
        term = axis[p] ** 2 * f[p][2]
        for r in range(3):
            if r != p:
                term *= f[r][0]
        total += term
    for p in range(3):
        for q in range(p + 1, 3):
            total += sign * 2.0 * axis[p] * axis[q] * f[p][1] * f[q][1] * f[3 - p - q][0]
    return total


def _cross_cartesian(prof_i, prof_j, mi, mj, delta, axis, rc) -> tuple[float, float]:
    """2 Re Int mu_i mu_j* kx^2 e^{-k^2 rc^2} e^{-i k.delta} d^3k for a
    point/cuboid pair, as products of the per-axis factors, and its rounding
    error: the factors' errors carried through the sum to first order."""
    f, noise = zip(*(_axis_pair_factors(prof_i[r], prof_j[r], delta[r], rc)
                     for r in range(3)))
    mag, a = [[abs(x) for x in fr] for fr in f], [abs(x) for x in axis]
    up = [[m + e for m, e in zip(mr, er)] for mr, er in zip(mag, noise)]
    err = abs(_cartesian_sum(up, a, 1.0) - _cartesian_sum(mag, a, 1.0))
    return 2.0 * mi * mj * _cartesian_sum(f, axis), 2.0 * mi * mj * err


def _radial_profile(d: MassDistribution) -> float | None:
    """Radius of a radially symmetric part: a sphere's, or 0 for a point mass,
    whose kernel K = 1 is the sphere's R -> 0 limit. None for other shapes."""
    if isinstance(d.shape, PointMass):
        return 0.0
    if isinstance(d.shape, Sphere):
        return d.shape.radius
    return None


# Interference of two radially symmetric parts, in units q = k rc with
# lengths over rc. Each factor of the radial integrand is one group
# (f, lo, Z): Z[n] is the coefficient of c q^p cos(f q) for even p = lo + n,
# stored real, or of c q^p sin(f q) for odd p, stored imaginary. In that
# encoding the product-to-sum rules read: group (f1, Z1) times (f2, Z2) is
# Z1 Z2/2 at f1 + f2 plus Z1 conj(Z2)/2 at f1 - f2, and a negative frequency
# is a conjugation.

_TAYLOR_BELOW = 1.0  # below this length/rc a factor's trig form cancels
_TAYLOR_TRUNC = 1e-18  # bound on a dropped Taylor tail, point-mass units
_P_MAX = 160  # moment table size; the series reach q^130 (L -> 1, D -> 4)
# Int_0^inf q^p e^{-q^2} dq = Gamma((p+1)/2)/2: the x = 0 moments (zero for
# odd p) and, for every x, the rounding scale of the Hermite moments
_GAUSS_ABS = np.array([0.5 * math.gamma(0.5 * (p + 1)) for p in range(_P_MAX)])
_GAUSS = np.where(np.arange(_P_MAX) % 2 == 0, _GAUSS_ABS, 0.0)


def _kernel_factor(L: float) -> tuple:
    """K(q L) = 3 sin(qL)/(qL)^3 - 3 cos(qL)/(qL)^2, or where that cancels its
    series sum_n c_n (qL)^{2n}, c_n = 3 (-1)^n/((2n+3)(2n+1)!). K is an
    average of cos(q L t), so a dropped tail is below (2n + 1) times its first
    term; the series stops when that term's Gaussian moment is below
    _TAYLOR_TRUNC."""
    if L >= _TAYLOR_BELOW:
        return L, -3, np.array([3j / L**3, -3.0 / L**2])
    coeffs = [1.0]
    c, g, n = 1.0, 1.0, 0  # g = Gamma(n + 5/2)/Gamma(5/2)
    while True:
        c *= -L * L / ((2 * n + 5) * (2 * n + 2))
        n += 1
        g *= n + 1.5
        if abs(c) * g * (2 * n + 1) < _TAYLOR_TRUNC:
            return 0.0, 0, np.array(coeffs, dtype=complex)
        coeffs.extend((0.0, c))


def _angular_factor(D: float, p2: float) -> tuple:
    """q^4 times the angular integral 4 pi [j0(qD)/3 - (2/3) P2 j2(qD)], with
    j0 = sin x/x and j2 = (3/x^3 - 1/x) sin x - 3 cos x/x^2, or their series
    j0 = sum_n (-1)^n x^{2n}/(2n+1)!, j2 = x^2 sum_n (-x^2/2)^n/(n! (2n+5)!!)
    where those cancel, truncated like the kernel series (both j are
    averages of cos(x t) too)."""
    if D >= _TAYLOR_BELOW:
        return D, 1, 4.0 * math.pi * np.array(
            [-2j * p2 / D**3, 2.0 * p2 / D**2, 1j * (1.0 + 2.0 * p2) / (3.0 * D)])
    t2 = D * D
    j0, j2 = 1.0 / 3.0, -2.0 * p2 * t2 / 45.0  # the x^0 and x^2 terms of each
    coeffs = [j0]
    g, n = 1.0, 0
    while True:
        j0 *= -t2 / ((2 * n + 2) * (2 * n + 3))
        n += 1
        g *= n + 1.5
        if (abs(j0) + abs(j2)) * g < _TAYLOR_TRUNC:
            return 0.0, 4, 4.0 * math.pi * np.array(coeffs, dtype=complex)
        coeffs.extend((0.0, j0 + j2))
        j2 *= -t2 / (2.0 * n * (2 * n + 5))


_ANGULAR_AT_0 = _angular_factor(0.0, 0.0)  # 4 pi/3 q^4, the D = 0 factor
_DEAD_SHIFT = 16.0  # in rc: e^{-(16/2)^2} = 1.6e-28


def _group_product(f1, lo1, Z1, f2, lo2, Z2) -> list:
    """The product of two groups as one or two groups (sin(0 q) = 0)."""
    lo = lo1 + lo2
    if f2 == 0.0:
        return [(f1, lo, np.convolve(Z1, Z2.real))]
    if f1 == 0.0:
        return [(f2, lo, np.convolve(Z1.real, Z2))]
    Zm = 0.5 * np.convolve(Z1, Z2.conj())
    return [(f1 + f2, lo, 0.5 * np.convolve(Z1, Z2)),
            (f1 - f2, lo, Zm) if f1 >= f2 else (f2 - f1, lo, Zm.conj())]


def _moment_sum(x: float, lo: int, w: np.ndarray) -> tuple[float, float]:
    """Sum_p w_p M_p and its rounding scale Sum_p |w_p| |pieces of M_p|, for
    p = lo, lo + 1, ... (lo >= -5) and x >= 0, where

    M_p = Int_0^inf q^p trig_p(2 x q) e^{-q^2} dq, trig_p = cos for even p
    and sin for odd p.

    p >= 0: M_p = (-1)^{p//2} s_p sqrt(pi)/2 with s_p = 2^-p H_p(x) e^{-x^2},
    rounding scale Int_0^inf q^p e^{-q^2} dq.
    p < 0: Hadamard finite parts, whose divergent pieces cancel across the
    term table; with i^n erfc the repeated erfc integral,
    S_-1 = (pi/2) erf x,             C_-2 = -pi [x + i^1 erfc x],
    S_-3 = -2 pi [x^2/2 + 1/4 - i^2 erfc x],
    C_-4 = 4 pi [x^3/6 + x/4 + i^3 erfc x],
    S_-5 = 8 pi [x^4/24 + x^2/8 + 1/32 - i^4 erfc x].
    """
    total = scale = 0.0
    hi = lo + w.size - 1
    ex = math.exp(-x * x)
    if lo < 0:
        ie = [2.0 / _SQRT_PI * ex, math.erfc(x)]  # i^-1 erfc, i^0 erfc
        for n in range(1, 5):
            ie.append(-(x / n) * ie[-1] + ie[-2] / (2 * n))
        x2 = x * x
        finite = (  # p = -1..-5: (prefactor, polynomial part, repeated-erfc part)
            (0.5 * math.pi, 1.0, -ie[1]),
            (-math.pi, x, ie[2]),
            (-2.0 * math.pi, 0.5 * x2 + 0.25, -ie[3]),
            (4.0 * math.pi, x2 * x / 6.0 + 0.25 * x, ie[4]),
            (8.0 * math.pi, x2 * x2 / 24.0 + x2 / 8.0 + 1.0 / 32.0, -ie[5]),
        )
        for c, p in zip(w.tolist(), range(lo, min(hi, -1) + 1)):
            pref, poly, rep = finite[-p - 1]
            total += c * pref * (poly + rep)
            scale += abs(c * pref) * (poly + abs(rep))
    if hi >= 0:
        start = max(lo, 0)
        tail = w[start - lo:]
        scale += float(np.dot(np.abs(tail), _GAUSS_ABS[start:hi + 1]))
        if x == 0.0:
            total += float(np.dot(tail, _GAUSS[start:hi + 1]))
        else:
            acc, s, s_prev = 0.0, ex, 0.0
            coeffs = tail.tolist()
            for p in range(hi + 1):
                if p >= start:
                    c = coeffs[p - start]
                    acc += -c * s if p & 2 else c * s
                s, s_prev = x * s - 0.5 * p * s_prev, s
            total += 0.5 * _SQRT_PI * acc
    return total, scale


def _cross_isotropic(Ri, Rj, mi, mj, delta, axis, rc) -> tuple[float, float]:
    """Interference of two radially symmetric parts (radius 0: point mass),
    2 mi mj Int_0^inf k^4 K_i K_j e^{-k^2 rc^2} A(k) dk, with the analytic
    angular integral

    A(k) = Int dOmega (khat.xhat)^2 e^{-i k.D} =
        4 pi [ j0(kD)/3 - (2/3) P2(cos gamma) j2(kD) ],

    gamma the angle between D and the measurement axis. The integrand
    expands into terms c q^p {cos, sin}(f q) e^{-q^2}, q = k rc, each with an
    exact Gaussian-trigonometric moment. The error estimate is a few
    rounding units of the sum of the terms' absolute values; the dropped
    Taylor tails are far below it."""
    dx, dy, dz = (float(c) for c in delta)
    D = math.sqrt(dx * dx + dy * dy + dz * dz)
    p2 = 0.0
    if D > 0.0:
        cg = (dx * float(axis[0]) + dy * float(axis[1]) + dz * float(axis[2])) / D
        p2 = 0.5 * (3.0 * cg * cg - 1.0)
    angular = _angular_factor(D / rc, p2)
    total = scale = 0.0
    ki = _kernel_factor(Ri / rc)
    kj = ki if Rj == Ri else _kernel_factor(Rj / rc)
    for group in _group_product(*ki, *kj):
        # Where a kernel group's frequency f (a sum or difference of radii)
        # exceeds D by _DEAD_SHIFT, all its terms at f -+ D are finite-part
        # polynomials, and they add up to those of A(0) to within
        # e^{-((f - D)/2)^2}. Summed term by term they cancel, losing about
        # (R/rc)^2/(D/rc)^3 eps next to large spheres, so A(0) is used.
        ang = _ANGULAR_AT_0 if group[0] - D / rc >= _DEAD_SHIFT else angular
        for f, lo, Z in _group_product(*group, *ang):
            t, sc = _moment_sum(0.5 * f, lo, Z.real + Z.imag)
            total += t
            scale += sc
    pref = 2.0 * mi * mj / rc**5
    return pref * total, pref * 8.0 * _EPS * scale


def _i3_primitive(d: MassDistribution, rc: float, axis) -> tuple[float, float]:
    """I3 and its relative error for one primitive shape measured along axis."""
    s, m = d.shape, total_mass(d)
    if isinstance(s, PointMass):
        return math.pi ** 1.5 * m * m / (2.0 * rc**5), 2e-16
    if isinstance(s, Sphere):
        return _i3_sphere(s.radius, m, rc)
    if isinstance(s, Cuboid):
        return _i3_cuboid(s, m, rc, axis)
    if isinstance(s, Cylinder):
        return _i3_cylinder(s, m, rc, axis)
    raise TypeError(f"unknown shape {type(s).__name__}")


def _i3_composite(d: MassDistribution, rc: float) -> tuple[float, float]:
    parts = _flatten(d)
    axis = np.asarray(d.measurement_axis)

    diag = []
    for part, _ in parts:
        v, rel = _i3_primitive(part, rc, d.measurement_axis)
        diag.append((v, abs(v) * rel))
    i3 = sum(v for v, _ in diag)
    abs_err = sum(e for _, e in diag)

    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            (pi_, off_i), (pj_, off_j) = parts[i], parts[j]
            gap = math.dist(off_i, off_j) - circumradius(pi_) - circumradius(pj_)
            if gap > 0.0 and gap / (2.0 * rc) >= _GAP_DROP:
                # interference bounded by the Gaussian overlap of the smoothed,
                # disjoint parts: negligible by construction of the threshold,
                # whichever route would evaluate it
                abs_err += 2.0 * math.sqrt(diag[i][0] * diag[j][0]) * math.exp(
                    -min((gap / (2.0 * rc)) ** 2, 745.0))
                continue
            delta = np.asarray(off_i) - np.asarray(off_j)
            cart_i, cart_j = _cartesian_profile(pi_), _cartesian_profile(pj_)
            if cart_i is not None and cart_j is not None:
                val, err = _cross_cartesian(cart_i, cart_j, total_mass(pi_), total_mass(pj_),
                                            delta, axis, rc)
                i3 += val
                abs_err += 1e-14 * math.sqrt(diag[i][0] * diag[j][0]) + err
                continue
            rad_i, rad_j = _radial_profile(pi_), _radial_profile(pj_)
            if rad_i is not None and rad_j is not None:
                val, err = _cross_isotropic(rad_i, rad_j, total_mass(pi_), total_mass(pj_),
                                            delta, axis, rc)
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

@functools.lru_cache(maxsize=None)
def eta_reduced(d: MassDistribution, rc: float) -> EtaResult:
    """eta per unit collapse rate (lam = 1) for correlation length rc,
    memoized per (d, rc); d was validated when it was built."""
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    m0 = CONSTANTS.m0
    if isinstance(d.shape, PointMass):
        m = total_mass(d)
        value, err = m * m / (2.0 * m0 * m0 * rc * rc), 2e-16
    else:
        i3, err = (_i3_composite(d, rc) if isinstance(d.shape, Composite)
                   else _i3_primitive(d, rc, d.measurement_axis))
        value = rc**3 / (math.pi ** 1.5 * m0 * m0) * i3
    return EtaResult(value, err)


# bound to the cache itself, so it still clears it while eta_reduced is wrapped
clear_cache = eta_reduced.cache_clear


def eta(d: MassDistribution, p: CollapseParams) -> EtaResult:
    """The diffusion coefficient for collapse parameters p; linear in p.lam."""
    if p.lam == 0.0:
        return EtaResult(0.0, 0.0)
    r = eta_reduced(d, p.rc)
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
