"""The collapse diffusion coefficient eta.

eta(d, lam, rc) = (lam rc^3 / (pi^{3/2} m0^2)) * I3,
I3 = Integral d^3k |mu~(k)|^2 k_x^2 e^{-k^2 rc^2},

with k_x the component along the measurement axis. eta is linear in lam;
``eta_reduced`` returns the lam = 1 value that bound inversions divide
ceilings by; it keeps no per-rc state between calls. It checks only rc: a
distribution is validated when it is built.

``eta_column`` returns the same values over a whole rc grid as one column.
Both run one core, and each route below is one piece of code for one rc and
for a column (see "one rc or a column of rc"), so each element is the
``eta_reduced`` value by construction: the rc-free work is done once, numpy
does the + - * / (and sqrt) of every route, and every transcendental and
power is libm's, called per element in Python. No route calls a BLAS
routine, so no value depends on the host's BLAS kernels. Points the column
cannot evaluate are NaN, left to ``eta_reduced``; where that raises
CompositeCrossTermUnsupported, the column can report the same error itself
(``_eta_column``).

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
from itertools import combinations, repeat
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import CONSTANTS, CollapseParams, sum_left
from .errors import CompositeCrossTermUnsupported, NonPositiveRc, QuadratureNotConverged
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                       circumradius, total_mass, validate_distribution)
from .quadrature import MAX_PANELS, integrate, merge_edges

DEFAULT_TOL = 1e-8         # fixed tol of full-sine heating's quadrature; bench/spans.py imports it
K_CUTOFF = 10.0            # integrate |k| <= K_CUTOFF/rc; tail weight e^-100
_GAP_DROP = 12.0           # drop cross terms when gap/(2 rc) exceeds this

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
# Each route below is one piece of code for eta_reduced (one rc, a float) and
# eta_column (a 1-D array of rc): what differs between the two comes from
# ``ops``. At one rc those are math's functions, a plain ``if`` (_if) and a
# loop that sums series in lockstep (_loop). Over a column they are the same
# functions mapped per element in Python (map_floats), so that each
# element is bit for bit its scalar value; row masks (_rows); and, for each
# series, a table with one row per step of the loop (_summed). numpy does
# only + - * /, abs and sqrt there, in the order the code states, and sums run
# left to right (sum_left). The isotropic cross terms are column code that
# one rc runs as a column of one (_cross_isotropic).

def _if(cond, then, other, *args):
    """then(*args) where cond holds, else other(*args): a branch at one rc."""
    return then(*args) if cond else other(*args)


def _rows(cond, then, other, *args):
    """_if over a column: then on the rows where cond holds and other on the
    rest, NaN rows included as the scalar ``if`` sends NaN to other, each
    given its own rows of the array args (a float arg passes whole). The
    results, an array or a tuple of arrays, are merged row by row."""
    out = {}
    for rows, fn in ((cond, then), (~cond, other)):
        if rows.any() or (fn is other and not out):
            got = fn(*(a[rows] if isinstance(a, np.ndarray) else a for a in args))
            for n, v in enumerate(got if isinstance(got, tuple) else (got,)):
                out.setdefault(n, np.empty(cond.size))[rows] = v
    return tuple(out.values()) if isinstance(got, tuple) else out[0]


def _loop(x, firsts: list, ratios: list, more) -> list:
    """Series summed in lockstep at one point x: each starts at its first
    term, and while more(terms, totals) holds, step k = 0, 1, ... does
    `term *= ratio(x, k); total += term` for each. Returns the totals."""
    terms, totals, k = list(firsts), list(firsts), 0
    series = range(len(ratios))
    while more(terms, totals):
        for n in series:
            terms[n] *= ratios[n](x, k)
            totals[n] += terms[n]
        k += 1
    return totals


_SERIES_ROWS = 48  # most rows of a series table; the longest series, _ive01's
                   # power series next to u = 19, stops at step 34


def _tables(x: np.ndarray, firsts: list, ratios: list, rows: int) -> tuple[list, list]:
    """Each series' terms and totals over a column of points x as tables
    down `rows` rows, row k after k steps of _loop (multiply.accumulate and
    add.accumulate: the loop's operations in its order)."""
    k = np.arange(rows - 1)[:, None]
    terms = [np.multiply.accumulate(np.concatenate([f[None], ratio(x, k)]), axis=0)
             for f, ratio in zip(firsts, ratios)]
    return terms, [np.add.accumulate(t, axis=0) for t in terms]


def _summed(x: np.ndarray, firsts: list, ratios: list, more) -> list:
    """_loop over a column of points x: each point's totals at the first row
    of its tables (_tables) where more(terms, totals) fails. The tables hold
    the rows that the point with the largest x needs, whose series is the
    longest (the ratios grow with x); NaN, left to the scalar, where a point
    has not ended by then."""
    firsts = [np.broadcast_to(f, x.shape) for f in firsts]
    if x.size == 0:
        return [f.astype(float) for f in firsts]
    w = [int(np.argmax(np.where(np.isnan(x), -np.inf, x)))]
    top = _tables(x[w], [f[w] for f in firsts], ratios, _SERIES_ROWS)
    t, s = _tables(x, firsts, ratios, int((~more(*top)).argmax()) + 1)
    ended = ~more(t, s)
    row, col = ended.argmax(axis=0), np.arange(x.size)
    done = ended[row, col]
    return [np.where(done, total[row, col], math.nan) for total in s]


def _raise(failed: dict, rc, i3, abs_err, error):
    """A composite pair with no route, at one rc: raise error(rc)."""
    raise error(rc)


def _record(failed: dict, rc, i3, abs_err, error):
    """A composite pair with no route, over a column: NaN, with the error
    recorded in failed for each rc at which the terms added before are
    finite. A term that raises at one rc is not finite here, so where all
    are, eta_reduced reaches this pair and raises error(rc) there."""
    failed.update((r, error) for r in rc[np.isfinite(i3) & np.isfinite(abs_err)].tolist())
    return np.full(rc.size, math.nan), np.full(rc.size, math.nan)


def map_floats(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element v of the 1-D float array x, called in
    Python: each value is the one a scalar call returns, bit for bit, which
    numpy's exp and power ufuncs do not promise (their SIMD paths may differ
    from libm in the last bit). NaN where fn raises an ArithmeticError, as
    pow does on overflow."""
    try:
        return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, x.size)
    except ArithmeticError:
        return np.array([_or_nan(fn, v, args) for v in x.tolist()], dtype=float)


def _or_nan(fn, v: float, args) -> float:
    try:
        return fn(v, *args)
    except ArithmeticError:
        return math.nan


_SCALAR = SimpleNamespace(erf=math.erf, exp=math.exp, erfc=math.erfc, expm1=math.expm1, min=min,
                          pow=pow, sqrt=math.sqrt, branch=_if, series=_loop, fail=_raise)
_COLUMN = SimpleNamespace(erf=functools.partial(map_floats, math.erf),
                          exp=functools.partial(map_floats, math.exp),
                          erfc=functools.partial(map_floats, math.erfc),
                          expm1=functools.partial(map_floats, math.expm1),
                          min=np.minimum, pow=functools.partial(map_floats, pow),
                          sqrt=np.sqrt, branch=_rows, series=_summed, fail=_record)


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
        if n + 1 > MAX_PANELS:
            raise QuadratureNotConverged(
                f"integrand needs {n} oscillation panels (limit {MAX_PANELS})")
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


def _series(first, ratio, x, ops=_SCALAR):
    """Sum term_0 + term_1 + ... with term_0 = first and term_{k+1} =
    term_k * ratio(x, k), until a term is 1e-17 of the sum or less; for the
    fast-converging series below."""
    return ops.series(x, [first], [ratio], lambda t, s: abs(t[0]) > 1e-17 * abs(s[0]))[0]


def _sphere_ratio(X, k):
    return -X * (k + 2) / ((k + 4) * (k + 1))


def _g_ratio(u, k):
    return -2.0 * u * (k + 1.5) / ((k + 3.0) * (k + 2.0))


_HANKEL_FROM = 19.0  # lowest integer u at which the Hankel terms reach 1e-17


def _ive01(u, ops=_SCALAR) -> tuple:
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
    values are 0, at NaN both NaN."""
    return ops.branch(u < _HANKEL_FROM, _ive01_power, _ive01_hankel, u, ops)


def _ive01_power(u, ops):
    s0, s1 = ops.series(0.25 * u * u, [1.0, 0.5 * u],
                        [lambda q, k: q / ((k + 1) * (k + 1)),
                         lambda q, k: q / ((k + 1) * (k + 2))],
                        lambda t, s: t[0] > 1e-17 * s[0])  # t1/s1 is below t0/s0
    ex = ops.exp(-u)
    return s0 * ex, s1 * ex


def _ive01_hankel(u, ops):
    s0, s1 = ops.series(0.125 / u, [1.0, 1.0],
                        [lambda inv, k: (2 * k + 1) ** 2 * inv / (k + 1),
                         lambda inv, k: ((2 * k + 1) ** 2 - 4) * inv / (k + 1)],
                        lambda t, s: (abs(t[0]) > 1e-17) | (abs(t[1]) > 1e-17))
    r = 1.0 / ops.sqrt(2.0 * math.pi * u)
    return s0 * r, s1 * r


def _transverse_moments(R: float, rc, ops=_SCALAR) -> tuple:
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
    u = ops.pow(R / rc, 2) / 2.0
    i0, i1 = _ive01(u, ops)
    g = ops.branch(u >= 1.0, lambda u, i0, i1: 1.0 - i0 - i1,
                   lambda u, i0, i1: _series(0.5 * u, _g_ratio, u, ops), u, i0, i1)
    return (2.0 / R**2) * g, (2.0 / (R**2 * ops.pow(rc, 2))) * i1


# --- per-shape reductions (all return I3 = Int |mu|^2 kx^2 e^{-k^2 rc^2}) ----

def _i3_sphere(R: float, m: float, rc, ops=_SCALAR) -> tuple:
    """I3 = 3 pi^{3/2} (m^2/R^6) [2 rc (e^-X - 1) + (R^2/rc)(1 + e^-X)],
    X = (R/rc)^2. Below X = 1, where it cancels, the bracket is its series
    rc sum_{n>=3} (-1)^n (2 - n) X^n/n!, summed here divided by rc X^3."""
    def closed(X, rc):
        ex = ops.exp(-ops.min(X, 745.0))
        return 3.0 * math.pi ** 1.5 * m * m / R**6 * (2.0 * rc * (ex - 1.0)
                                                     + (R * R / rc) * (1.0 + ex))

    def series(X, rc):
        return 3.0 * math.pi ** 1.5 * m * m / ops.pow(rc, 5) * _series(
            1.0 / 6.0, _sphere_ratio, X, ops)

    X = ops.pow(R / rc, 2)
    return ops.branch(X >= 1.0, closed, series, X, rc), 5e-15


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


def _i3_cylinder(shape: Cylinder, m: float, rc, axis, ops=_SCALAR) -> tuple:
    u = shape.axis  # c: cosine between the measurement and cylinder axes
    c = min(max(axis[0] * u[0] + axis[1] * u[1] + axis[2] * u[2], -1.0), 1.0)
    s2 = max(0.0, 1.0 - c * c)
    A0, A2 = _axial_moments(shape.length, rc, ops)
    B1, B3 = _transverse_moments(shape.radius, rc, ops)
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
    return f, tuple(scale * sum_left(map(abs, g)) for g in terms)


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
        return _i3_sphere(s.radius, m, rc, ops)
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


def _unsupported(parts: tuple, i: int, j: int, delta: tuple,
                 rc: float) -> CompositeCrossTermUnsupported:
    return CompositeCrossTermUnsupported(
        f"no evaluation route for {type(parts[i].shape).__name__}/"
        f"{type(parts[j].shape).__name__} pair at separation "
        f"{math.hypot(*delta):.3e} m with rc={rc:.3e} m")


def _dropped(ops, x, near, rc, i3, abs_err) -> tuple:
    """A pair whose gap/(2 rc) = x passes the gap bound: its interference is
    bounded by the Gaussian overlap of the smoothed, disjoint parts,
    negligible by construction of the threshold whichever route would
    evaluate it, so only that bound is added, to the error."""
    return i3, abs_err + 2.0 * ops.sqrt(near) * ops.exp(-ops.min(ops.pow(x, 2), 745.0))


def _interference(ops, plan, pair, failed, x, near, rc, i3, abs_err) -> tuple:
    """A pair inside the gap bound: its interference term and error added,
    or, where it has no route, ops.fail."""
    parts, axis, _ = plan
    i, j, _, delta, route, args = pair
    if route == "cartesian":
        val, err = _cross_cartesian(*args, delta, axis, rc, ops)
        return i3 + val, abs_err + (1e-14 * ops.sqrt(near) + err)
    if route == "isotropic":
        val, err = _cross_isotropic(*args, delta, axis, rc)
        return i3 + val, abs_err + err
    return ops.fail(failed, rc, i3, abs_err, functools.partial(_unsupported, parts, i, j, delta))


def _i3_composite(d: MassDistribution, rc, ops=_SCALAR) -> tuple:
    """I3 of a composite, its relative error and {rc: f(rc) giving the error
    raised at rc} for the rc of a column where a pair has no route (_record).
    The parts' terms come first, then pair by pair the gap bound splits the
    rc (_dropped, _interference), each rc taking its additions in the same
    order at one rc and in a column."""
    plan = _composite_plan(d)
    parts, axis, pairs = plan
    diag = [_i3_primitive(part, rc, axis, ops) for part in parts]
    i3 = sum_left(v for v, _ in diag)
    abs_err = sum_left(abs(v) * rel for v, rel in diag)
    failed = {}
    for pair in pairs:
        i, j, gap = pair[:3]
        x = gap / (2.0 * rc)
        i3, abs_err = ops.branch((gap > 0.0) & (x >= _GAP_DROP), functools.partial(_dropped, ops),
                                 functools.partial(_interference, ops, plan, pair, failed),
                                 x, diag[i][0] * diag[j][0], rc, i3, abs_err)
    rel = ops.branch(i3 <= 0.0, lambda i3, e: e, lambda i3, e: e / i3, i3, abs_err)
    return i3, rel, failed


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

def _eta(d: MassDistribution, rc, ops) -> tuple:
    """eta per unit collapse rate at one valid rc or over a column of them:
    the value, its relative error and the composite's failures
    (_i3_composite)."""
    m0 = CONSTANTS.m0
    if isinstance(d.shape, PointMass):
        m = total_mass(d)
        return m * m / (2.0 * m0 * m0 * rc * rc), 2e-16, {}
    i3, err, failed = (_i3_composite(d, rc, ops) if isinstance(d.shape, Composite)
                       else (*_i3_primitive(d, rc, d.measurement_axis, ops), {}))
    return ops.pow(rc, 3) / (math.pi ** 1.5 * m0 * m0) * i3, err, failed


def eta_reduced(d: MassDistribution, rc: float) -> EtaResult:
    """eta per unit collapse rate (lam = 1) for correlation length rc;
    d was validated when it was built."""
    if not (rc > 0 and math.isfinite(rc)):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {rc!r}")
    value, err, _ = _eta(d, rc, _SCALAR)
    return EtaResult(value, err)


def eta_column(d: MassDistribution, rcs) -> tuple[np.ndarray, np.ndarray]:
    """eta_reduced over a 1-D column of rc in one pass: (values, relative
    errors), each element eta_reduced(d, rc).value and .est_error, from the
    same code. The rc-free work (flattening, masses, profiles, pair gaps
    and routes, axis cosines, per-axis prefactors) is done once, not per rc;
    per rc, only libm's transcendentals are called from Python.

    NaN marks the points left to eta_reduced, which raises or returns a
    non-finite value there: rc <= 0 or not finite, a composite pair with no
    route inside the gap bound, an arithmetic error, a non-finite value or
    error."""
    return _eta_column(d, rcs)[:2]


def _eta_column(d: MassDistribution, rcs) -> tuple[np.ndarray, np.ndarray, dict]:
    """eta_column, and {position: the CompositeCrossTermUnsupported that
    eta_reduced raises at that rc} for those NaN points whose error the
    column can vouch for (_record)."""
    rcs = np.asarray(rcs, dtype=float)
    value, err = np.full(rcs.size, math.nan), np.full(rcs.size, math.nan)
    with np.errstate(all="ignore"):
        at = np.flatnonzero((rcs > 0.0) & np.isfinite(rcs))
        rc = rcs if at.size == rcs.size else rcs[at]
        try:
            v, e, failed = _eta(d, rc, _COLUMN)
        except ArithmeticError:  # in rc-free work (an edge length whose square underflows)
            return value, err, {}
        ok = np.isfinite(v) & np.isfinite(e)
    value[at[ok]] = v[ok]
    err[at[ok]] = e[ok] if isinstance(e, np.ndarray) else e
    return value, err, failed and {int(k): failed[r](r) for k, r in zip(at.tolist(), rc.tolist())
                                   if r in failed}


def clear_cache() -> None:
    """Empty the cache of composite plans, built once per distribution; eta
    keeps no per-rc state."""
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
