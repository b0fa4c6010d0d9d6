"""Routes against independent references: one row per route.

Each row names a route, the function that evaluates it, a reference
computed independently in mpmath, a seeded sample of the route's domain and
the relative tolerance the route must meet over that sample. A row that the
code fails today is a strict xfail naming the ROADMAP item that mends it,
so the marker has to go with the fix.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest

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


class Row(NamedTuple):
    route: str
    code: Callable[[float], float]
    reference: Callable[[float], object]
    sample: np.ndarray
    rel_tol: float


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
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.route)
def test_route_meets_its_reference(row):
    off = []
    for x in row.sample.tolist():
        want, got = row.reference(x), row.code(x)
        with mp.workdps(30):
            err = float(abs(got / want - 1))
        if not err <= row.rel_tol:
            off.append((x, err))
    assert not off, (f"{row.route}: {len(off)} of {row.sample.size} points off by more "
                     f"than {row.rel_tol:g}, worst {max(off, key=lambda p: p[1])}")
