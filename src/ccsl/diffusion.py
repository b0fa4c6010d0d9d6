"""The collapse diffusion coefficient eta.

eta(d, lam, rc) = (lam rc^3 / (pi^{3/2} m0^2)) * I3,
I3 = Integral d^3k |mu~(k)|^2 k_x^2 e^{-k^2 rc^2},

with k_x the component along the measurement axis. eta is linear in lam;
``eta_reduced`` returns the lam = 1 value that bound inversions divide
ceilings by, memoized per (distribution, rc). It checks only rc: a
distribution is validated when it is built.

``eta_column`` returns the same values over a whole rc grid as one column,
each bit for bit the ``eta_reduced`` value: the rc-free work is done once,
numpy does the + - * / (and sqrt) of every route in the scalar order, and
every transcendental and power is libm's, called per element in Python.
The isotropic cross terms are one code for both, which ``eta_reduced`` runs
on a column of one rc, and which calls no BLAS routine, so their values do
not depend on the host's BLAS kernels. The rarer branches stay scalar,
point by point: the sphere series below X = 1 and the cylinder's transverse
moments below u = 170 or so (above, their Hankel series is one table over
the column). Points it cannot evaluate are NaN, left to ``eta_reduced``.

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
  to within e^{-64}. The coefficients are real arrays with one row per rc,
  multiplied out and summed in a fixed order by explicit arithmetic, one
  pass per regime of the column. Any other pair inside the bound raises
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
from itertools import combinations
from operator import add
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import CONSTANTS, CollapseParams, map_floats
from .errors import CompositeCrossTermUnsupported, NonPositiveRc, QuadratureNotConverged
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                       circumradius, total_mass, validate_distribution)
from .quadrature import integrate, merge_edges

DEFAULT_TOL = 1e-8         # relative tol of full-sine heating's adaptive quadrature
K_CUTOFF = 10.0            # integrate |k| <= K_CUTOFF/rc; tail weight e^-100
_GAP_DROP = 12.0           # drop cross terms when gap/(2 rc) exceeds this
_MAX_OSC_PANELS = 20000

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EtaResult:
    value: float      # s^-1 m^-2 (so that hbar^2 * eta is a force PSD in N^2 s)
    est_error: float  # relative error estimate

    def __float__(self):
        return self.value


# --- one rc or a column of rc ---------------------------------------------------
#
# The reductions below that serve both eta_reduced (one rc, a float) and
# eta_column (a 1-D array of rc) take their transcendentals from ``ops``:
# math's own functions for one rc, or the same functions mapped over the
# column in Python (core.map_floats), so that each element is bit for bit its
# scalar value. numpy does only + - * /, abs and sqrt there, in the scalar
# order, and sums run left to right (_total). The rarer branches run their
# scalar helper point by point (_per_point). The isotropic cross terms work
# the other way round: one column code that a single rc runs as a column of
# one (_cross_isotropic).

def _per_point(fn, *args) -> tuple[np.ndarray, np.ndarray]:
    """fn(*args[:-1], rc) -> (a, b) at each rc of the column args[-1]; NaN at
    the points where it raises an arithmetic error (eta_reduced raises it)."""
    *head, rcs = args
    out = np.empty((2, rcs.size))
    for k, rc in enumerate(rcs.tolist()):
        try:
            out[:, k] = fn(*head, rc)
        except ArithmeticError:
            out[:, k] = math.nan
    return out[0], out[1]


def _total(xs):
    """Left-to-right sum from 0.0, as builtin sum adds floats before Python
    3.12 (which compensates): the float.hex pins hold on every version."""
    return functools.reduce(add, xs, 0.0)


_SCALAR = SimpleNamespace(erf=math.erf, exp=math.exp, expm1=math.expm1, min=min, pow=pow)
_COLUMN = SimpleNamespace(erf=functools.partial(map_floats, math.erf),
                          exp=functools.partial(map_floats, math.exp),
                          erfc=functools.partial(map_floats, math.erfc),
                          expm1=functools.partial(map_floats, math.expm1),
                          min=np.minimum, pow=functools.partial(map_floats, pow))


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


def _axial_moments(L: float, rc, ops=_SCALAR) -> tuple:
    """Full-line moments of the cuboid axis factor:

    A0 = Int sinc^2(k L/2) e^{-k^2 rc^2} dk
       = (2 pi/L^2) [L erf(x) + (2 rc/sqrt(pi)) (e^{-x^2} - 1)],  x = L/(2 rc)
    A2 = Int k^2 sinc^2(k L/2) e^{-k^2 rc^2} dk
       = (2 sqrt(pi)/(L^2 rc)) (1 - e^{-x^2})
    """
    x = L / (2.0 * rc)
    em = ops.expm1(-ops.min(x * x, 745.0))  # e^{-x^2} - 1, exact near 0
    a0 = (2.0 * math.pi / L**2) * (L * ops.erf(x) + (2.0 * rc / _SQRT_PI) * em)
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


def _hankel01(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_ive01's Hankel branch over a column of u >= 19, bit for bit: each
    point's terms as running products down 8 rows, summed to the first row
    where both fall below 1e-17, where the scalar loop stops; NaN where they
    have not by the last row (u below about 170)."""
    k = np.arange(1, 9)[:, None]
    odd2, inv = (2 * k - 1) ** 2, 0.125 / u
    t0 = np.multiply.accumulate(odd2 * inv / k, axis=0)
    t1 = np.multiply.accumulate((odd2 - 4) * inv / k, axis=0)
    stop = (np.abs(t0) <= 1e-17) & (np.abs(t1) <= 1e-17)
    at, ones = (stop.argmax(axis=0), np.arange(u.size)), np.ones((1, u.size))
    r = np.where(stop.any(axis=0), 1.0 / np.sqrt(2.0 * math.pi * u), math.nan)
    return tuple(np.add.accumulate(np.concatenate([ones, t]), axis=0)[1:][at] * r
                 for t in (t0, t1))


def _transverse_moments_column(R: float, rc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_transverse_moments over an rc column: _hankel01's points in one pass,
    the others point by point; NaN where the scalar raises."""
    u = _COLUMN.pow(R / rc, 2) / 2.0
    b1, b3, far = np.full(rc.size, math.nan), np.full(rc.size, math.nan), u >= _HANKEL_FROM
    i0, i1 = _hankel01(u[far])
    den = R**2 * _COLUMN.pow(rc[far], 2)
    b1[far] = np.where(den > 0.0, (2.0 / R**2) * (1.0 - i0 - i1), math.nan)
    b3[far] = 2.0 / den * i1
    rest = np.isnan(b1)  # where _hankel01 did not sum, or the scalar's 2/den raises
    b1[rest], b3[rest] = _per_point(_transverse_moments, R, rc[rest])
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


def _i3_sphere_column(R: float, m: float, rc: np.ndarray) -> tuple[np.ndarray, float]:
    """_i3_sphere over an rc column: the closed form in one pass where
    X >= 1, the series point by point below."""
    X = _COLUMN.pow(R / rc, 2)
    closed = X >= 1.0
    rcc = rc[closed]
    ex = _COLUMN.exp(-np.minimum(X[closed], 745.0))
    bracket = 2.0 * rcc * (ex - 1.0) + (R * R / rcc) * (1.0 + ex)
    i3 = np.empty(rc.size)
    i3[closed] = 3.0 * math.pi ** 1.5 * m * m / R**6 * bracket
    i3[~closed] = _per_point(_i3_sphere, R, m, rc[~closed])[0]
    return i3, 5e-15


def _i3_cuboid(shape: Cuboid, m: float, rc, axis, ops=_SCALAR) -> tuple:
    a0, a2 = zip(*(_axial_moments(L, rc, ops) for L in (shape.lx, shape.ly, shape.lz)))
    i3 = 0.0
    for i in range(3):
        if axis[i] == 0.0:
            continue
        term = axis[i] ** 2 * a2[i]
        for j in range(3):
            if j != i:
                term = term * a0[j]
        i3 = i3 + term
    return m * m * i3, 1e-14


@functools.cache
def _axis_cosine(axis: tuple, cylinder_axis: tuple) -> float:
    """Cosine between the measurement axis and a cylinder's axis, computed
    once per pair of axes: it does not depend on rc."""
    return float(np.clip(np.dot(np.asarray(axis), np.asarray(cylinder_axis)), -1.0, 1.0))


def _i3_cylinder(shape: Cylinder, m: float, rc, axis, ops=_SCALAR) -> tuple:
    c = _axis_cosine(axis, shape.axis)
    s2 = max(0.0, 1.0 - c * c)
    A0, A2 = _axial_moments(shape.length, rc, ops)
    B1, B3 = (_transverse_moments if ops is _SCALAR
              else _transverse_moments_column)(shape.radius, rc)
    i3 = m * m * (2.0 * math.pi * c * c * A2 * B1 + math.pi * s2 * A0 * B3)
    return i3, 2e-14


# --- composite interference --------------------------------------------------

def _Tfun(a: float, rc, ops=_SCALAR):
    x = abs(a) / (2.0 * rc)
    return math.pi * (abs(a) * ops.erf(x)
                      + (2.0 * rc / _SQRT_PI) * ops.expm1(-ops.min(x * x, 745.0)))


def _Ufun(a: float, rc, ops=_SCALAR):
    return (_SQRT_PI / rc) * ops.exp(-ops.min(ops.pow(a / (2.0 * rc), 2), 745.0))


def _Vfun(a: float, rc, ops=_SCALAR):
    return math.pi * ops.erf(a / (2.0 * rc))


def _W1fun(a: float, rc, ops=_SCALAR):
    return (_SQRT_PI / rc) * (a / (2.0 * rc * rc)) * ops.exp(
        -ops.min(ops.pow(a / (2.0 * rc), 2), 745.0))


def _W2fun(a: float, rc, ops=_SCALAR):
    x2 = ops.pow(a / (2.0 * rc), 2)
    return (_SQRT_PI / ops.pow(rc, 3)) * (0.5 - x2) * ops.exp(-ops.min(x2, 745.0))


def _axis_pair_factors(Li: float | None, Lj: float | None, delta: float,
                       rc, ops=_SCALAR) -> tuple[tuple, tuple]:
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
        f = (_Ufun(delta, rc, ops), _W1fun(delta, rc, ops), _W2fun(delta, rc, ops))
        return f, tuple(4.0 * _EPS * abs(x) for x in f)
    if Li is None or Lj is None:
        L = Lj if Li is None else Li
        p, q = 0.5 * L + delta, 0.5 * L - delta
        terms = ((_Vfun(p, rc, ops), _Vfun(q, rc, ops)), (_Ufun(q, rc, ops), _Ufun(p, rc, ops)),
                 (_W1fun(p, rc, ops), _W1fun(q, rc, ops)))
        (v0, v1), (u0, u1), (w0, w1) = terms
        f = ((v0 + v1) / L, (u0 - u1) / L, (w0 + w1) / L)
        scale = 4.0 * _EPS / L
    else:
        dp, dm = 0.5 * (Li + Lj), 0.5 * (Li - Lj)
        inv = 1.0 / (Li * Lj)
        scale = 4.0 * _EPS * inv
        terms = ((_Tfun(dp - delta, rc, ops), _Tfun(dp + delta, rc, ops),
                  _Tfun(dm - delta, rc, ops), _Tfun(dm + delta, rc, ops)),
                 (_Vfun(dm + delta, rc, ops), _Vfun(dm - delta, rc, ops),
                  _Vfun(dp + delta, rc, ops), _Vfun(dp - delta, rc, ops)),
                 (_Ufun(dm - delta, rc, ops), _Ufun(dm + delta, rc, ops),
                  _Ufun(dp - delta, rc, ops), _Ufun(dp + delta, rc, ops)))
        (t0, t1, t2, t3), (v0, v1, v2, v3), (u0, u1, u2, u3) = terms
        f = (inv * (t0 + t1 - t2 - t3), inv * (v0 - v1 - v2 + v3),
             inv * (u0 + u1 - u2 - u3))
    return f, tuple(scale * _total(map(abs, g)) for g in terms)


def _cartesian_profile(d: MassDistribution) -> tuple | None:
    """Per-axis edge lengths for shapes whose form factor separates along the
    global axes: cuboids and point masses."""
    if isinstance(d.shape, PointMass):
        return (None, None, None)
    if isinstance(d.shape, Cuboid):
        return (d.shape.lx, d.shape.ly, d.shape.lz)
    return None


def _cartesian_sum(f, axis, sign: float = -1.0):
    total = 0.0
    for p in range(3):
        term = axis[p] ** 2 * f[p][2]
        for r in range(3):
            if r != p:
                term = term * f[r][0]
        total = total + term
    for p in range(3):
        for q in range(p + 1, 3):
            total = total + sign * 2.0 * axis[p] * axis[q] * f[p][1] * f[q][1] * f[3 - p - q][0]
    return total


def _cross_cartesian(prof_i, prof_j, mi, mj, delta, axis, rc, ops=_SCALAR) -> tuple:
    """2 Re Int mu_i mu_j* kx^2 e^{-k^2 rc^2} e^{-i k.delta} d^3k for a
    point/cuboid pair, as products of the per-axis factors, and its rounding
    error: the factors' errors carried through the sum to first order."""
    f, noise = zip(*(_axis_pair_factors(prof_i[r], prof_j[r], delta[r], rc, ops)
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


# Interference of two radially symmetric parts over a column of rc, in units
# q = k rc with lengths over rc. Each factor of the radial integrand, and each
# product of factors, is a group of terms c q^p trig_p(f q), trig_p = cos for
# even p and sin for odd p, held as real arrays with one row per rc (_Terms).
# Two groups multiply by the product-to-sum rules: halves at f1 + f2 and at
# f1 - f2, negative for sin sin at the sum and for cos sin at the difference,
# and a negative frequency turns the sign of the sine terms. Which form a
# factor takes (trig or series), whether A(0) replaces the angular factor and
# whether a frequency is 0 differ from rc to rc, so each group holds the rows
# of the column it covers and a step that branches splits them. numpy does
# only + - * /, abs and where there, each row's sums run in a fixed order
# whatever the other rows (the zero padding past a row's own terms adds
# zeros at most), and exp, erfc and pow come from libm per element: one rc
# alone gives the bits of its row in a column.

_TAYLOR_BELOW = 1.0  # below this length/rc a factor's trig form cancels
_TAYLOR_TRUNC = 1e-18  # bound on a dropped Taylor tail, point-mass units
_P_MAX = 160  # moment table size; the series reach q^130 (L -> 1, D -> 4)
# Int_0^inf q^p e^{-q^2} dq = Gamma((p+1)/2)/2: the x = 0 moments (zero for
# odd p) and, for every x, the rounding scale of the Hermite moments
_GAUSS_ABS = np.array([0.5 * math.gamma(0.5 * (p + 1)) for p in range(_P_MAX)])
_GAUSS = np.where(np.arange(_P_MAX) % 2 == 0, _GAUSS_ABS, 0.0)
_SIGN = np.arange(_P_MAX) & 2 == 2  # (-1)^{p//2} = -1


class _Terms(NamedTuple):
    """Terms c q^p trig_p(f q), p = lo, lo + 1, ..., on some rows of an rc
    column: row r is column position rows[r], with frequency f[r] >= 0 and
    coefficients c[r, :size[r]]; the rest of c[r] is zero padding."""
    rows: np.ndarray
    f: np.ndarray
    lo: int
    c: np.ndarray
    size: np.ndarray

    def take(self, keep: np.ndarray) -> _Terms:
        return _Terms(self.rows[keep], self.f[keep], self.lo, self.c[keep], self.size[keep])


_ODD = np.arange(_P_MAX + 2) % 2 == 1


def _sines(lo: int, n: int) -> np.ndarray:
    """Which of n terms from q^lo on are sine terms (odd p)."""
    return _ODD[lo % 2:lo % 2 + n]


_TAYLOR_STEPS = 16  # both series stop by step 15 as length/rc -> 1
_STEP = np.arange(1, _TAYLOR_STEPS + 1)
_GROWTH = np.multiply.accumulate(_STEP + 1.5)  # Gamma(k + 5/2)/Gamma(5/2) at step k


def _taylor_terms(rows: np.ndarray, lo: int, first, coeffs, tails) -> _Terms:
    """A factor's Taylor series: first at q^lo, then coeffs[:, k - 1] at
    q^(lo + 2k) for each step k before a row's first tail bound below
    _TAYLOR_TRUNC; the series are even, so every other term is 0."""
    live = np.logical_and.accumulate(tails >= _TAYLOR_TRUNC, axis=1)
    size = 1 + 2 * live.sum(axis=1)
    c = np.zeros((rows.size, int(size.max())))
    c[:, 0] = first
    c[:, 2::2] = np.where(live, coeffs, 0.0)[:, :c.shape[1] // 2]
    return _Terms(rows, np.zeros(rows.size), lo, c, size)


def _kernel_factor(rows: np.ndarray, L: np.ndarray, trig: bool) -> _Terms:
    """K(q L) = 3 sin(qL)/(qL)^3 - 3 cos(qL)/(qL)^2 (trig, for L >= 1), or
    where that cancels its series sum_n c_n (qL)^{2n},
    c_n = 3 (-1)^n/((2n+3)(2n+1)!). K is an average of cos(q L t), so a
    dropped tail is below (2n + 1) times its first term; a row's series stops
    when that term's Gaussian moment is below _TAYLOR_TRUNC."""
    if trig:
        c = np.array([3.0 / _COLUMN.pow(L, 3), -3.0 / _COLUMN.pow(L, 2)]).T
        return _Terms(rows, L, -3, c, np.full(L.size, 2))
    c = np.multiply.accumulate((-L * L)[:, None] / ((2 * _STEP + 3) * (2 * _STEP)), axis=1)
    return _taylor_terms(rows, 0, 1.0, c, abs(c) * _GROWTH * (2 * _STEP + 1))


def _angular_factor(rows: np.ndarray, D: np.ndarray, p2: float, trig: bool) -> _Terms:
    """q^4 times the angular integral 4 pi [j0(qD)/3 - (2/3) P2 j2(qD)], with
    j0 = sin x/x and j2 = (3/x^3 - 1/x) sin x - 3 cos x/x^2 (trig, for
    D >= 1), or their series j0 = sum_n (-1)^n x^{2n}/(2n+1)!,
    j2 = x^2 sum_n (-x^2/2)^n/(n! (2n+5)!!) where those cancel, truncated
    like the kernel series (both j are averages of cos(x t) too)."""
    if trig:
        c = np.array([-2.0 * p2 / _COLUMN.pow(D, 3), 2.0 * p2 / _COLUMN.pow(D, 2),
                      (1.0 + 2.0 * p2) / (3.0 * D)]).T
        return _Terms(rows, D, 1, 4.0 * math.pi * c, np.full(D.size, 3))
    t2 = (-D * D)[:, None]
    # step k adds the x^{2k} term of j0 to the x^{2k} term of j2, whose
    # first (k = 1) is -2 P2 x^2/45
    j0 = np.multiply.accumulate(np.hstack([np.full_like(t2, 1.0 / 3.0),
                                           t2 / ((2 * _STEP) * (2 * _STEP + 1))]), axis=1)[:, 1:]
    j2 = np.multiply.accumulate(np.hstack([-2.0 * p2 * -t2 / 45.0,
                                           t2 / (2.0 * _STEP * (2 * _STEP + 5))]), axis=1)[:, :-1]
    c = _taylor_terms(rows, 4, 1.0 / 3.0, j0 + j2, (abs(j0) + abs(j2)) * _GROWTH)
    return c._replace(c=4.0 * math.pi * c.c)


_DEAD_SHIFT = 16.0  # in rc: e^{-(16/2)^2} = 1.6e-28


def _convolve(ca: np.ndarray, lo_a: int, cb: np.ndarray, lo_b: int, both: bool) -> list:
    """The coefficients of the product of two groups, given theirs (ca from
    q^lo_a on, cb from q^lo_b on): the sums of ca[:, i] cb[:, j] into column
    i + j, added in order of j, with the signs of the product-to-sum rules:
    at f_a + f_b a sine times a sine is negative, and at f_a - f_b (the
    second array, when both) a cosine of a times a sine of b. Columns of cb
    that are 0 on every row are skipped."""
    width = ca.shape[1]
    plus = np.zeros((ca.shape[0], width + cb.shape[1] - 1))
    minus = np.zeros(plus.shape) if both else None
    signed = np.where(_sines(lo_a, width), -ca, ca)
    for j in np.flatnonzero(cb.any(axis=0)).tolist():
        odd = (lo_b + j) % 2
        prod = (signed if odd else ca) * cb[:, j:j + 1]
        plus[:, j:j + width] += prod
        if both:
            minus[:, j:j + width] += -prod if odd else prod
    return [plus, minus] if both else [plus]


def _group_product(a: _Terms, b: _Terms) -> list:
    """The product of two groups on the same rows: one group at f_a + f_b on
    the rows where either frequency is 0 (sin(0 q) = 0, so that factor's
    sine terms drop), two on the others, at f_a + f_b and at |f_a - f_b|."""
    lo, size = a.lo + b.lo, a.size + b.size - 1
    zero = (a.f == 0.0) | (b.f == 0.0)
    out = []
    if zero.any():
        ca, cb = (np.where((t.f[zero] == 0.0)[:, None] & _sines(t.lo, t.c.shape[1]), 0.0, t.c[zero])
                  for t in (a, b))
        out.append(_Terms(a.rows[zero], a.f[zero] + b.f[zero], lo,
                          _convolve(ca, a.lo, cb, b.lo, False)[0], size[zero]))
    if not zero.all():
        fa, fb = a.f[~zero], b.f[~zero]
        plus, minus = (0.5 * c for c in _convolve(a.c[~zero], a.lo, b.c[~zero], b.lo, True))
        minus = np.where((fa < fb)[:, None] & _sines(lo, minus.shape[1]), -minus, minus)
        out += [_Terms(a.rows[~zero], fa + fb, lo, plus, size[~zero]),
                _Terms(a.rows[~zero], abs(fa - fb), lo, minus, size[~zero])]
    return out


def _row_sums(terms: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Each row's terms added left to right (add.accumulate, which unlike
    add.reduce does not pair them), the zero padding past a row's own terms
    (live False) counted as 0: its Hermite terms may overflow."""
    return np.add.accumulate(np.where(live, terms, 0.0), axis=1)[:, -1]


def _moment_sum(t: _Terms) -> tuple[np.ndarray, np.ndarray]:
    """Per row of t, Sum_p c_p M_p and its rounding scale
    Sum_p |c_p| |pieces of M_p|, for p = lo, lo + 1, ... (lo >= -5), where
    x = f/2 and

    M_p = Int_0^inf q^p trig_p(2 x q) e^{-q^2} dq.

    p >= 0: M_p = (-1)^{p//2} s_p sqrt(pi)/2 with s_p = 2^-p H_p(x) e^{-x^2},
    rounding scale Int_0^inf q^p e^{-q^2} dq; at x = 0 that integral is M_p.
    p < 0: Hadamard finite parts, whose divergent pieces cancel across the
    term table; with i^n erfc the repeated erfc integral,
    S_-1 = (pi/2) erf x,             C_-2 = -pi [x + i^1 erfc x],
    S_-3 = -2 pi [x^2/2 + 1/4 - i^2 erfc x],
    C_-4 = 4 pi [x^3/6 + x/4 + i^3 erfc x],
    S_-5 = 8 pi [x^4/24 + x^2/8 + 1/32 - i^4 erfc x].
    """
    x, lo, w = 0.5 * t.f, t.lo, t.c
    hi = lo + w.shape[1] - 1
    live = np.arange(w.shape[1]) < t.size[:, None]
    total = scale = 0.0
    ex = _COLUMN.exp(-x * x)
    if lo < 0:
        ie = [2.0 / _SQRT_PI * ex, _COLUMN.erfc(x)]  # i^-1 erfc, i^0 erfc
        for n in range(1, 5):
            ie.append(-(x / n) * ie[-1] + ie[-2] / (2 * n))
        x2 = x * x
        finite = (  # p = -1..-5: (prefactor, polynomial part, repeated-erfc part)
            (0.5 * math.pi, np.ones(x.size), -ie[1]),
            (-math.pi, x, ie[2]),
            (-2.0 * math.pi, 0.5 * x2 + 0.25, -ie[3]),
            (4.0 * math.pi, x2 * x / 6.0 + 0.25 * x, ie[4]),
            (8.0 * math.pi, x2 * x2 / 24.0 + x2 / 8.0 + 1.0 / 32.0, -ie[5]),
        )
        pref, poly, rep = zip(*(finite[-p - 1] for p in range(lo, min(hi, -1) + 1)))
        poly, rep = np.array(poly).T, np.array(rep).T
        c = w[:, :len(pref)] * np.array(pref)
        total = _row_sums(c * (poly + rep), live[:, :len(pref)])
        scale = _row_sums(abs(c) * (poly + abs(rep)), live[:, :len(pref)])
    if hi >= 0:
        start, at0 = max(lo, 0), x == 0.0
        c, part = w[:, start - lo:], live[:, start - lo:]
        scale = scale + _row_sums(abs(c) * _GAUSS_ABS[start:hi + 1], part)
        gauss = herm = 0.0
        if at0.any():
            gauss = _row_sums(c * _GAUSS[start:hi + 1], part)
        if not at0.all():
            s_p = np.empty(c.shape)
            s, s_prev = ex, 0.0
            for p in range(hi + 1):
                if p >= start:
                    s_p[:, p - start] = s
                s, s_prev = x * s - 0.5 * p * s_prev, s
            herm = 0.5 * _SQRT_PI * _row_sums(np.where(_SIGN[start:hi + 1], -c, c) * s_p, part)
        total = total + np.where(at0, gauss, herm)
    return total, scale


def _cross_isotropic(Ri, Rj, mi, mj, delta, axis, rc) -> tuple:
    """Interference of two radially symmetric parts (radius 0: point mass),
    2 mi mj Int_0^inf k^4 K_i K_j e^{-k^2 rc^2} A(k) dk, with the analytic
    angular integral

    A(k) = Int dOmega (khat.xhat)^2 e^{-i k.D} =
        4 pi [ j0(kD)/3 - (2/3) P2(cos gamma) j2(kD) ],

    gamma the angle between D and the measurement axis, at one rc (floats
    returned) or over a column of rc (arrays), by the same code. The
    integrand expands into terms c q^p {cos, sin}(f q) e^{-q^2}, q = k rc,
    each with an exact Gaussian-trigonometric moment. The error estimate is
    a few rounding units of the sum of the terms' absolute values; the
    dropped Taylor tails are far below it."""
    rcs = rc if isinstance(rc, np.ndarray) else np.array([rc], dtype=float)
    dx, dy, dz = (float(c) for c in delta)
    D = math.sqrt(dx * dx + dy * dy + dz * dz)
    p2 = 0.0
    if D > 0.0:
        cg = (dx * float(axis[0]) + dy * float(axis[1]) + dz * float(axis[2])) / D
        p2 = 0.5 * (3.0 * cg * cg - 1.0)
    total, scale = np.zeros(rcs.size), np.zeros(rcs.size)
    with np.errstate(all="ignore"):  # quiet inf and NaN, as float arithmetic on one rc
        d, li, lj = D / rcs, Ri / rcs, Rj / rcs
        trig_i, trig_j = li >= _TAYLOR_BELOW, lj >= _TAYLOR_BELOW
        for ti, tj in ((True, True), (True, False), (False, True), (False, False)):
            rows = np.flatnonzero((trig_i == ti) & (trig_j == tj))
            if rows.size == 0:
                continue
            ki = _kernel_factor(rows, li[rows], ti)
            kj = ki if Rj == Ri else _kernel_factor(rows, lj[rows], tj)
            for group in _group_product(ki, kj):
                # Where a kernel group's frequency f (a sum or difference of
                # radii) exceeds D by _DEAD_SHIFT, all its terms at f -+ D are
                # finite-part polynomials, and they add up to those of A(0) to
                # within e^{-((f - D)/2)^2}. Summed term by term they cancel,
                # losing about (R/rc)^2/(D/rc)^3 eps next to large spheres, so
                # A(0) is used.
                dg = d[group.rows]
                dead, trig = group.f - dg >= _DEAD_SHIFT, dg >= _TAYLOR_BELOW
                for keep, at0, ang_trig in ((dead, True, False), (~dead & trig, False, True),
                                            (~dead & ~trig, False, False)):
                    if not keep.any():
                        continue
                    g = group.take(keep)
                    ang = (_angular_factor(g.rows, np.zeros(g.rows.size), 0.0, False) if at0
                           else _angular_factor(g.rows, d[g.rows], p2, ang_trig))
                    for term in _group_product(g, ang):
                        t, sc = _moment_sum(term)
                        total[term.rows] += t
                        scale[term.rows] += sc
        pref = 2.0 * mi * mj / _COLUMN.pow(rcs, 5)
        value, err = pref * total, pref * 8.0 * _EPS * scale
    return (value, err) if rcs is rc else (float(value[0]), float(err[0]))


def _i3_primitive(d: MassDistribution, rc, axis, ops=_SCALAR) -> tuple:
    """I3 and its relative error for one primitive shape measured along axis."""
    s, m = d.shape, total_mass(d)
    if isinstance(s, PointMass):
        return math.pi ** 1.5 * m * m / (2.0 * ops.pow(rc, 5)), 2e-16
    if isinstance(s, Sphere):
        return (_i3_sphere if ops is _SCALAR else _i3_sphere_column)(s.radius, m, rc)
    if isinstance(s, Cuboid):
        return _i3_cuboid(s, m, rc, axis, ops)
    if isinstance(s, Cylinder):
        return _i3_cylinder(s, m, rc, axis, ops)
    raise TypeError(f"unknown shape {type(s).__name__}")


@functools.cache
def _composite_plan(d: MassDistribution) -> tuple[tuple, tuple, tuple]:
    """The rc-free part of a composite's I3, built once per distribution: its
    primitive parts, the measurement axis as floats, and per pair of parts
    (i < j) the surface gap, the offset a_i - a_j, and the interference route
    ("cartesian", "isotropic" or None) with its profiles and masses."""
    parts = _flatten(d)
    pairs = []
    for (i, (pi_, off_i)), (j, (pj_, off_j)) in combinations(enumerate(parts), 2):
        gap = math.dist(off_i, off_j) - circumradius(pi_) - circumradius(pj_)
        delta = tuple(a - b for a, b in zip(off_i, off_j))
        route, args = None, None
        for name, profile in (("cartesian", _cartesian_profile), ("isotropic", _radial_profile)):
            prof_i, prof_j = profile(pi_), profile(pj_)
            if prof_i is not None and prof_j is not None:
                route, args = name, (prof_i, prof_j, total_mass(pi_), total_mass(pj_))
                break
        pairs.append((i, j, gap, delta, route, args))
    return tuple(part for part, _ in parts), tuple(map(float, d.measurement_axis)), tuple(pairs)


def _i3_composite(d: MassDistribution, rc: float) -> tuple[float, float]:
    parts, axis, pairs = _composite_plan(d)
    diag = [_i3_primitive(part, rc, axis) for part in parts]
    i3 = _total(v for v, _ in diag)
    abs_err = _total(abs(v) * rel for v, rel in diag)
    for i, j, gap, delta, route, args in pairs:
        near = diag[i][0] * diag[j][0]
        if gap > 0.0 and gap / (2.0 * rc) >= _GAP_DROP:
            # interference bounded by the Gaussian overlap of the smoothed,
            # disjoint parts: negligible by construction of the threshold,
            # whichever route would evaluate it
            abs_err += 2.0 * math.sqrt(near) * math.exp(-min((gap / (2.0 * rc)) ** 2, 745.0))
        elif route == "cartesian":
            val, err = _cross_cartesian(*args, delta, axis, rc)
            i3 += val
            abs_err += 1e-14 * math.sqrt(near) + err
        elif route == "isotropic":
            val, err = _cross_isotropic(*args, delta, axis, rc)
            i3 += val
            abs_err += err
        else:
            raise CompositeCrossTermUnsupported(
                f"no evaluation route for {type(parts[i].shape).__name__}/"
                f"{type(parts[j].shape).__name__} pair at separation "
                f"{math.hypot(*delta):.3e} m with rc={rc:.3e} m")
    if i3 <= 0.0:
        return i3, abs_err
    return i3, abs_err / i3


def _i3_composite_column(d: MassDistribution, rc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_i3_composite over an rc column, pair by pair: the gap bound splits
    the column, and each side takes its term in one pass. Each element sees
    the scalar's additions in the scalar's order; NaN where a pair inside
    the bound has no route."""
    parts, axis, pairs = _composite_plan(d)
    diag = [_i3_primitive(part, rc, axis, _COLUMN) for part in parts]
    i3 = _total(v for v, _ in diag)
    abs_err = _total(abs(v) * rel for v, rel in diag)
    for i, j, gap, delta, route, args in pairs:
        near = diag[i][0] * diag[j][0]
        x = gap / (2.0 * rc)
        drop = x >= _GAP_DROP if gap > 0.0 else np.zeros(rc.size, dtype=bool)
        if drop.any():
            abs_err[drop] += 2.0 * np.sqrt(near[drop]) * _COLUMN.exp(
                -np.minimum(_COLUMN.pow(x[drop], 2), 745.0))
        keep = ~drop
        if not keep.any():
            continue
        if route == "cartesian":
            val, err = _cross_cartesian(*args, delta, axis, rc[keep], _COLUMN)
            err = 1e-14 * np.sqrt(near[keep]) + err
        elif route == "isotropic":
            val, err = _cross_isotropic(*args, delta, axis, rc[keep])
        else:
            val, err = math.nan, math.nan
        i3[keep] += val
        abs_err[keep] += err
    return i3, np.where(i3 <= 0.0, abs_err, abs_err / i3)


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


def eta_column(d: MassDistribution, rcs) -> tuple[np.ndarray, np.ndarray]:
    """eta_reduced over a 1-D column of rc in one pass: (values, relative
    errors), each element bit for bit eta_reduced(d, rc).value and
    .est_error. The rc-free work (flattening, masses, profiles, pair gaps
    and routes, axis cosines, per-axis prefactors) is done once, not per rc.

    NaN marks the points left to eta_reduced, which raises or returns a
    non-finite value there: rc <= 0 or not finite, a composite pair with no
    route inside the gap bound, an arithmetic error, a non-finite value or
    error. The memo of eta_reduced is neither read nor filled."""
    rcs = np.asarray(rcs, dtype=float)
    value, err = np.full(rcs.size, math.nan), np.full(rcs.size, math.nan)
    m0 = CONSTANTS.m0
    with np.errstate(all="ignore"):
        at = np.flatnonzero((rcs > 0.0) & np.isfinite(rcs))
        rc = rcs if at.size == rcs.size else rcs[at]
        try:
            if isinstance(d.shape, PointMass):
                m = total_mass(d)
                v, e = m * m / (2.0 * m0 * m0 * rc * rc), 2e-16
            else:
                i3, e = (_i3_composite_column(d, rc) if isinstance(d.shape, Composite)
                         else _i3_primitive(d, rc, d.measurement_axis, _COLUMN))
                v = _COLUMN.pow(rc, 3) / (math.pi ** 1.5 * m0 * m0) * i3
        except ArithmeticError:  # in rc-free work (an edge length whose square underflows)
            return value, err
        ok = np.isfinite(v) & np.isfinite(e)
    value[at[ok]] = v[ok]
    err[at[ok]] = e[ok] if isinstance(e, np.ndarray) else e
    return value, err


# bound to the cache itself, so it still clears it while eta_reduced is wrapped
_clear_eta_cache = eta_reduced.cache_clear


def clear_cache() -> None:
    """Empty the memo of eta_reduced and the composite plans."""
    _clear_eta_cache()
    _composite_plan.cache_clear()


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
