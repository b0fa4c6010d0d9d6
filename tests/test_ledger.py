"""Routes against independent references: one row per route.

Each row names a route, the function that evaluates it, a reference
computed independently in mpmath (or an exact invariance: the code's own
value at an input it must match, such as the body scaled or cut in two), a
seeded sample of the route's domain and the relative tolerance the route
must meet over that sample, a number or, per point, a function of it. A row
that the code fails today is a strict xfail naming the ROADMAP item that
mends it, so the marker has to go with the fix.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest

from ccsl import composite, cuboid, cylinder, sphere
from ccsl.diffusion import eta_reduced
from ccsl.predict import _cold_bracket, _erfcx, _phonon_bracket

_T = 1.0  # expansion time, s: the bracket is tau^3 times a function of t/tau


def _cold_bracket_kernel(s: float):
    """The bracket the exponential kernel f(u) = e^{-u/tau}/(2 tau) of
    noise.time_correlation gives, at t/tau = s, scaled so that white noise
    gives t^3/2: (3/2) 2 Int_0^t f(u) (t^3/3 - u t^2/2 + u^3/6) du, with
    u = tau v, in 30-digit mpmath."""
    with mp.workdps(30):
        t = mp.mpf(_T)
        tau = t / mp.mpf(s)
        g = lambda v: mp.exp(-v) / 2 * (t**3 / 3 - tau * v * t**2 / 2 + (tau * v) ** 3 / 6)
        return 3 * mp.quad(g, [0] + [2.0**k for k in range(-4, 8) if 2.0**k < s] + [s])


def _phonon_bracket_mp(x: float):
    """1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x) in 60-digit mpmath."""
    with mp.workdps(60):
        x = mp.mpf(x)
        return mp.mpf(1) / 2 - x * x + mp.sqrt(mp.pi) * x**3 * mp.exp(x * x) * mp.erfc(x)


def _erfcx_mp(x: float):
    """e^{x^2} erfc(x) in 60-digit mpmath."""
    with mp.workdps(60):
        x = mp.mpf(x)
        return mp.exp(x * x) * mp.erfc(x)


def _unit(rng) -> tuple:
    v = rng.normal(size=3)
    return tuple((v / np.linalg.norm(v)).tolist())


def _draws(n: int, seed: int) -> list:
    """n seeded draws (kind, a, b, c, g, rho, axis, tilt, rc, s) for _body,
    kind cycling through its five: lengths log-uniform in [1e-7, 1e-4] m, a
    gap of g in [0, 2) times a, a density in [1e3, 2e4] kg/m^3, two unit
    vectors, rc log-uniform in [1e-9, 1e-2] m, and s a power of two in
    2^-4..2^4."""
    rng = np.random.default_rng(seed)
    return [(i % 5, *(10.0 ** rng.uniform(-7.0, -4.0, 3)).tolist(), float(rng.uniform(0.0, 2.0)),
             float(rng.uniform(1e3, 2e4)), _unit(rng), _unit(rng),
             float(10.0 ** rng.uniform(-9.0, -2.0)), 2.0 ** int(rng.integers(-4, 5)))
            for i in range(n)]


def _body(kind, a, b, c, g, rho, axis, tilt):
    """A sphere of radius a, an a x b x c cuboid, a cylinder of radius a and
    length b along tilt, spheres of radii a and b, or two a x b x c cuboids,
    the pairs g a apart along x; measured along axis."""
    if kind == 0:
        return sphere(a, density=rho, measurement_axis=axis)
    if kind == 1:
        return cuboid(a, b, c, density=rho, measurement_axis=axis)
    if kind == 2:
        return cylinder(a, b, axis=tilt, density=rho, measurement_axis=axis)
    if kind == 3:
        parts = [(sphere(a, density=rho), (0.0, 0.0, 0.0)),
                 (sphere(b, density=rho), (a + b + g * a, 0.0, 0.0))]
    else:
        parts = [(cuboid(a, b, c, density=rho), (0.0, 0.0, 0.0)),
                 (cuboid(a, b, c, density=rho), (a + g * a, 0.0, 0.0))]
    return composite(parts, measurement_axis=axis)


_SCALED = _draws(200, 18)


def _eta_scaled(i: int, t: float) -> float:
    """eta of draw i with every length and rc times t, at its density."""
    kind, a, b, c, g, rho, axis, tilt, rc, _ = _SCALED[i]
    return eta_reduced(_body(kind, t * a, t * b, t * c, g, rho, axis, tilt), t * rc).value


_CUT = _draws(100, 19)


def _halves(i: int) -> tuple:
    """Draw i's a x b x c cuboid, the two touching halves it is cut into
    across axis i % 3 (as a composite measured along the same axis), and rc."""
    _, a, b, c, _, rho, axis, _, rc, _ = _CUT[i]
    dims, offset = [a, b, c], [0.0, 0.0, 0.0]
    dims[i % 3] /= 2.0
    offset[i % 3] = dims[i % 3] / 2.0
    half = cuboid(*dims, density=rho)
    parts = [(half, tuple(-x for x in offset)), (half, tuple(offset))]
    return cuboid(a, b, c, density=rho, measurement_axis=axis), composite(parts, measurement_axis=axis), rc


class Row(NamedTuple):
    route: str
    code: Callable[[float], float]
    reference: Callable[[float], object]
    sample: np.ndarray
    rel_tol: float | Callable[[float], float]


_RNG = np.random.default_rng(9)

ROWS = [
    pytest.param(Row("coldatom.bracket", lambda s: _cold_bracket(_T, _T / s),
                     _cold_bracket_kernel,
                     np.concatenate([[1e-6, 1e6], 10.0 ** _RNG.uniform(-6.0, 6.0, 10)]),
                     1e-12),
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="ROADMAP item 1: the cold-atom bracket does "
                                                "not follow the noise kernel")),
    pytest.param(Row("heating.linear.bracket", _phonon_bracket, _phonon_bracket_mp,
                     _RNG.uniform(2.0, 20.0, 64), 1e-14),
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="ROADMAP item 7: the linear phonon bracket "
                                                "cancels by about x^4 below x = 20")),
    # the direct form on [0, 1); on [1, 2) it already reaches 1.5e-14 (the
    # cancellation of ROADMAP item 7), so that stretch has no row of its own
    Row("heating.linear.bracket.small_x", _phonon_bracket, _phonon_bracket_mp,
        np.concatenate([[0.0], _RNG.uniform(0.0, 1.0, 127)]), 2e-15),
    # the asymptotic series from x = 20
    Row("heating.linear.bracket.series", _phonon_bracket, _phonon_bracket_mp,
        np.concatenate([[20.0, 1e8], 10.0 ** _RNG.uniform(np.log10(20.0), 8.0, 126)]), 1e-15),
    Row("predict.erfcx", _erfcx, _erfcx_mp,
        np.concatenate([[1e-3, 20.0, 1e9], 10.0 ** _RNG.uniform(-3.0, 9.0, 125)]), 5e-16),
    # every length and rc times s = 2^k at a fixed density: eta times s^4
    # exactly, but for libm's pow (R**3, the sphere's volume), which can
    # round (s R)^3 one ulp away from s^3 R^3
    Row("eta.scaling", lambda i: _eta_scaled(i, _SCALED[i][-1]),
        lambda i: _SCALED[i][-1] ** 4 * _eta_scaled(i, 1.0), np.arange(len(_SCALED)), 3.3e-16),
    # a cuboid cut into two touching halves has the eta of the whole, within
    # the composite's own error estimate
    Row("eta.dissection", lambda i: eta_reduced(_halves(i)[1], _halves(i)[2]).value,
        lambda i: eta_reduced(_halves(i)[0], _halves(i)[2]).value, np.arange(len(_CUT)),
        lambda i: eta_reduced(_halves(i)[1], _halves(i)[2]).est_error),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.route)
def test_route_meets_its_reference(row):
    off = []
    for x in row.sample.tolist():
        want, got = row.reference(x), row.code(x)
        tol = row.rel_tol(x) if callable(row.rel_tol) else row.rel_tol
        with mp.workdps(30):
            err = float(abs(mp.mpf(got) / want - 1))
        if not err <= tol:
            off.append((x, err, tol))
    assert not off, (f"{row.route}: {len(off)} of {row.sample.size} points off by more "
                     f"than their tolerance, worst {max(off, key=lambda p: p[1] / p[2])}")
