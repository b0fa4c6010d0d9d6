import math

import mpmath as mp
import numpy as np
import pytest

from ccsl import (CONSTANTS, WHITE, CollapseParams, CompositeCrossTermUnsupported,
                  NonPositiveRc, PhononModel, composite, cuboid, cylinder, eta, eta_reduced,
                  eta_reduced_reference, lambda_eff_quad, load, point_mass, sphere)
from ccsl import diffusion
from ccsl.diffusion import (_COLUMN, _DEAD_SHIFT, _GAP_DROP, _HANKEL_FROM, _SCALAR,
                            _TAYLOR_STEPS, _angular_factor, _cross_isotropic, _eta_column,
                            _g_ratio, _i3_primitive, _i3_sphere, _ive01, _kernel_factor, _series,
                            _sphere_ratio, _transverse_moments, clear_cache, eta_column)
from ccsl.geometry import (circumradius, disc_kernel, form_factor_sq, sphere_kernel,
                           total_mass)
from ccsl.quadrature import integrate
from fixtures import (CUBE_RATIO_TABLE, CYLINDER_RATIO_TABLE, SPHERE_RATIO_TABLE,
                      TWO_SPHERE_ETA_M0_1)

M0 = CONSTANTS.m0


def point_eta(m, rc):
    return m * m / (2.0 * M0 * M0 * rc * rc)


def mc_eta_reduced(d, rc, n, seed):
    """Monte-Carlo oracle: with k ~ N(0, 1/(2 rc^2) I3) the defining integral
    reduces to E[|mu(k)|^2 kx^2] / m0^2. Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    ax = np.asarray(d.measurement_axis, dtype=float)
    tot = tot2 = 0.0
    done = 0
    while done < n:
        b = min(500_000, n - done)
        k = rng.normal(0.0, 1.0 / (math.sqrt(2.0) * rc), size=(b, 3))
        f = form_factor_sq(d, k) * (k @ ax) ** 2
        tot += float(f.sum())
        tot2 += float((f * f).sum())
        done += b
    mean = tot / n
    se = math.sqrt(max(tot2 / n - mean * mean, 0.0) / n)
    return mean / M0**2, se / M0**2


# --- point mass -----------------------------------------------------------------

def test_point_mass_closed_form():
    for rc in np.geomspace(1e-9, 1e-3, 7):
        r = eta_reduced(point_mass(2.5), rc)
        assert r.value == pytest.approx(point_eta(2.5, rc), rel=1e-14)
        assert r.est_error <= 1e-12


def test_point_mass_generic_quadrature_path():
    # the spherical-coordinates reference path reproduces the closed form
    # across the full rc range (13-point log grid)
    for rc in np.geomspace(1e-9, 1e-3, 13):
        ref = eta_reduced_reference(point_mass(1.0), rc, n_theta=8, n_phi=4)
        assert ref.value == pytest.approx(point_eta(1.0, rc), rel=1e-8), f"rc={rc}"


def test_eta_linear_in_lambda():
    d = sphere(1e-5, density=2000.0)
    rng = np.random.default_rng(7)
    for lam in rng.uniform(1e-20, 1e-6, size=4):
        full = eta(d, CollapseParams(lam=lam, rc=1e-7))
        base = eta_reduced(d, 1e-7)
        assert full.value == pytest.approx(lam * base.value, rel=1e-14)


def test_eta_zero_lambda_is_zero():
    d = cuboid(0.01, 0.01, 0.01, mass=1.0)
    assert eta(d, CollapseParams(lam=0.0, rc=1e-7)).value == 0.0


# --- sphere ----------------------------------------------------------------------

def test_sphere_suppression_against_fixtures():
    for r_over_rc, ratio in SPHERE_RATIO_TABLE:
        rc = 1.0
        d = sphere(r_over_rc * rc, mass=1.0)
        got = eta_reduced(d, rc).value / point_eta(1.0, rc)
        assert got == pytest.approx(ratio, rel=1e-9), f"R/rc={r_over_rc}"


def radial_quad(f, R, rc):
    """Int_0^{10/rc} f(k) dk by adaptive Gauss-Kronrod, panels no wider than
    the form-factor oscillation pi/R or a quarter of the Gaussian scale 1/rc."""
    k_max = 10.0 / rc
    n = max(40, int(k_max / min(math.pi / R, 0.25 / rc)) + 1)
    return integrate(f, np.linspace(0.0, k_max, n + 1), rel_tol=1e-13).value


def test_sphere_closed_form_vs_radial_quadrature():
    # I3 = (4 pi/3) Int k^4 m^2 [3 j1(kR)/(kR)]^2 e^{-k^2 rc^2} dk, integrated
    # directly on both sides of the X = (R/rc)^2 = 1 series switch
    rc, m = 1e-6, 1.0
    for X in (0.01, 1.0, 1999.0):
        R = math.sqrt(X) * rc
        f = lambda k: k**4 * (m * sphere_kernel(k * R)) ** 2 * np.exp(-(k * rc) ** 2)
        want = (4.0 * math.pi / 3.0) * radial_quad(f, R, rc)
        got, _ = _i3_sphere(R, m, rc)
        assert got == pytest.approx(want, rel=1e-10), f"X={X}"


def test_sphere_reaches_point_mass_at_large_rc():
    # acceptance: eta of a shrinking sphere reproduces the point-mass
    # identity to 1% whenever rc >= 100 R
    rho = 3000.0
    for rc in np.geomspace(1e-9, 1e-3, 13):
        R = rc / 100.0
        d = sphere(R, density=rho)
        m = rho * 4.0 / 3.0 * math.pi * R**3
        got = eta_reduced(d, rc).value
        assert got == pytest.approx(point_eta(m, rc), rel=0.01), f"rc={rc}"


def test_sphere_measurement_axis_irrelevant():
    rng = np.random.default_rng(3)
    rc = 2e-5
    base = eta_reduced(sphere(1e-5, density=1000.0), rc).value
    for _ in range(4):
        ax = rng.normal(size=3)
        d = sphere(1e-5, density=1000.0, measurement_axis=tuple(ax))
        assert eta_reduced(d, rc).value == pytest.approx(base, rel=1e-12)


def test_sphere_production_vs_reference():
    d = sphere(0.25, mass=1.0)
    got = eta_reduced(d, 0.1).value
    ref = eta_reduced_reference(d, 0.1, n_theta=8, n_phi=4).value
    assert got == pytest.approx(ref, rel=1e-8)


# --- cuboid ---------------------------------------------------------------------

def test_cube_suppression_against_fixtures():
    for l_over_rc, ratio in CUBE_RATIO_TABLE:
        rc = 1.0
        d = cuboid(l_over_rc, l_over_rc, l_over_rc, mass=1.0,
                   measurement_axis=(1, 0, 0))
        got = eta_reduced(d, rc).value / point_eta(1.0, rc)
        assert got == pytest.approx(ratio, rel=1e-12), f"L/rc={l_over_rc}"


def test_cube_monte_carlo_oracle():
    # Gaussian importance sampling over k-space; rc chosen where the
    # estimator variance is tractable (it grows like L^2/rc^2)
    d = cuboid(0.046, 0.046, 0.046, mass=1.928, measurement_axis=(1, 0, 0))
    for rc, seed in ((5e-3, 20240521), (2e-3, 77)):
        got, se = mc_eta_reduced(d, rc, 4_000_000, seed)
        prod = eta_reduced(d, rc).value
        assert se / got < 0.004  # oracle itself must be sharp enough for 1%
        assert got == pytest.approx(prod, rel=0.01), f"rc={rc}"


def test_cuboid_oblique_axis_vs_reference():
    d = cuboid(0.8, 1.1, 1.3, mass=2.0, measurement_axis=(1.0, 2.0, 2.0))
    got = eta_reduced(d, 0.25).value
    ref = eta_reduced_reference(d, 0.25, n_theta=48, n_phi=48).value
    assert got == pytest.approx(ref, rel=1e-7)


def test_cube_vs_equal_volume_sphere_at_large_rc():
    # geometry insensitivity: both shapes sit deep in the point-mass regime
    L = 2e-5
    R = (3.0 * L**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    rc = 1e-3
    ec = eta_reduced(cuboid(L, L, L, mass=1.0), rc).value
    es = eta_reduced(sphere(R, mass=1.0), rc).value
    assert ec == pytest.approx(es, rel=1e-3)


# --- cylinder -------------------------------------------------------------------

def test_cylinder_suppression_against_fixtures():
    for R, L, rc, ratio in CYLINDER_RATIO_TABLE:
        d = cylinder(R, L, axis=(0, 0, 1), mass=1.0, measurement_axis=(0, 0, 1))
        got = eta_reduced(d, rc).value / point_eta(1.0, rc)
        assert got == pytest.approx(ratio, rel=1e-9), f"(R,L,rc)=({R},{L},{rc})"


def test_cylinder_transverse_moments_vs_radial_quadrature():
    # B1, B3 = Int kp^{1,3} [2 J1(kp R)/(kp R)]^2 e^{-kp^2 rc^2} dkp, integrated
    # directly on both sides of the u = R^2/(2 rc^2) = 1 series switch
    R = 1.0
    for u in (1e-4, 1.0, 49.9):
        rc = R / math.sqrt(2.0 * u)
        g = lambda k: disc_kernel(k * R) ** 2 * np.exp(-(k * rc) ** 2)
        b1q = radial_quad(lambda k: k * g(k), R, rc)
        b3q = radial_quad(lambda k: k**3 * g(k), R, rc)
        b1, b3 = _transverse_moments(R, rc)
        assert b1 == pytest.approx(b1q, rel=1e-10), f"u={u}"
        assert b3 == pytest.approx(b3q, rel=1e-10), f"u={u}"


def test_cylinder_column_moments_are_the_scalar_ones():
    # _transverse_moments over a column gives its values at one rc bit for
    # bit, on a column across u = 1 and u = 19 (each switch with its float
    # neighbours) and across u = 170, where an 8-row Hankel table used to
    # end; the rc where one rc raises are checked on eta itself
    # (test_eta_column_primitives_are_the_scalar_bits)
    for R in (5e-5, 0.3):
        at = [R / math.sqrt(2.0 * u) for u in (1.0, _HANKEL_FROM, 170.0)]
        near = [math.nextafter(r, d) for r in at for d in (0.0, math.inf)]
        rc = np.concatenate([np.geomspace(R * 1e-12, R * 1e3, 4000), at, near])
        with np.errstate(all="ignore"):  # as eta_column calls it
            b1, b3 = _transverse_moments(R, rc, _COLUMN)
        want = np.array([_transverse_moments(R, r) for r in rc.tolist()]).T
        assert _hexes(b1, b3) == _hexes(*want)


def _neighbours(*xs):
    """Each x with the floats next to it below and above."""
    return [y for x in xs for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def _hexes(*columns):
    return [tuple(v.hex() for v in row) for row in zip(*(c.tolist() for c in columns))]


def test_series_tables_are_the_scalar_loops():
    # each series table gives its scalar loop's bits at every point: the
    # sphere series and the cylinder's g-series below X, u = 1 (X =
    # nextafter(1, 0) needs the most rows), _ive01's power series below
    # u = 19 and its Hankel series from there, across the old end of the
    # Hankel table near u = 170; at 0 and a subnormal (where R/rc
    # underflows), at inf, and NaN (where the scalar's X overflowed). A
    # column's tables are as long as its longest series needs, so each runs
    # on the whole sample and on parts of it
    x = np.array(_neighbours(1.0)[:2] + [0.0, 5e-324, 1e-300, math.nan]
                 + np.linspace(0.0, 1.0, 4001)[1:-1].tolist())
    u = np.array(_neighbours(1.0, _HANKEL_FROM, 170.0) + [0.0, 5e-324, math.inf]
                 + np.geomspace(1e-6, 1e12, 4001).tolist()
                 + np.linspace(18.0, 200.0, 4001).tolist())
    for part in (slice(None), slice(None, None, 2), slice(1000, 3000)):
        for first, ratio in ((1.0 / 6.0, _sphere_ratio), (0.5 * x[part], _g_ratio)):
            want = [_series(f, ratio, v) for f, v in np.broadcast(first, x[part])]
            assert _hexes(_series(first, ratio, x[part], _COLUMN)) == _hexes(np.array(want))
        want = np.array([_ive01(v) for v in u[part].tolist()]).T
        assert _hexes(*_ive01(u[part], _COLUMN)) == _hexes(*want)
    assert np.isnan(_ive01(np.array([math.nan]), _COLUMN)).all()
    assert all(math.isnan(v) for v in _ive01(math.nan))


def test_column_branch_is_the_scalar_if():
    # the branch primitive sends each row where the condition holds to one
    # function and every other row, NaN included, to the other, as an if at
    # one point does; each function sees only its rows, a float argument
    # passes whole, and a tuple result is merged element by element
    x = np.array([0.5, math.nan, 2.0, -math.inf, 1.0, math.nan, math.inf])
    then = lambda v, c: (v * c, v + 1.0)
    other = lambda v, c: (v - c, v / 2.0)
    for cond in (lambda v: v >= 1.0, lambda v: v < 1.0):
        want = np.array([_SCALAR.branch(cond(v), then, other, v, 3.0) for v in x.tolist()]).T
        assert _hexes(*_COLUMN.branch(cond(x), then, other, x, 3.0)) == _hexes(*want)
    assert np.isnan(_COLUMN.branch(x >= 1.0, lambda v: v, lambda v: v + 1.0, x)[[1, 5]]).all()
    single = _COLUMN.branch(np.array([True, False]), lambda v: v, lambda v: -v, x[[0, 2]])
    assert single.tolist() == [0.5, -2.0]
    # no rows at all: the other function gives the (empty) shape
    empty = _COLUMN.branch(np.array([], dtype=bool), then, other, np.array([]), 3.0)
    assert [c.shape for c in empty] == [(0,), (0,)]


@mp.workdps(60)
def test_closed_forms_against_mpmath():
    # sphere bracket 2 rc (e^-X - 1) + (R^2/rc)(1 + e^-X) and the cylinder
    # moments (2/R^2)(1 - e^-u (I0 + I1)), (2/(R^2 rc^2)) e^-u I1 at 60 digits
    rc = 1.0
    for X in np.geomspace(1e-6, 1e6, 49):
        R = math.sqrt(X) * rc
        Xm = mp.mpf(R) ** 2 / rc**2
        bracket = 2 * rc * mp.expm1(-Xm) + (mp.mpf(R) ** 2 / rc) * (1 + mp.exp(-Xm))
        want = 3 * mp.pi ** 1.5 / mp.mpf(R) ** 6 * bracket
        got, _ = _i3_sphere(R, 1.0, rc)
        assert abs(got / want - 1) <= 1e-13, f"X={X}"
    R = 1.0
    for u in np.geomspace(1e-6, 1e12, 73):
        rc = R / math.sqrt(2.0 * u)
        um = mp.mpf(R) ** 2 / (2 * mp.mpf(rc) ** 2)
        scale = mp.exp(-um)
        b1_want = 2 / mp.mpf(R) ** 2 * (1 - scale * (mp.besseli(0, um) + mp.besseli(1, um)))
        b3_want = 2 / (mp.mpf(R) ** 2 * mp.mpf(rc) ** 2) * scale * mp.besseli(1, um)
        b1, b3 = _transverse_moments(R, rc)
        assert abs(b1 / b1_want - 1) <= 1e-13, f"u={u}"
        assert abs(b3 / b3_want - 1) <= 1e-13, f"u={u}"


def test_scaled_bessel_fallback_matches_scipy():
    from scipy.special import ive
    # both sides of the series/Hankel switch at u = 19, the old scipy/4-term
    # switch at 1e8, and the old u = 1 switch of B1's Kummer series
    for u in (1e-6, 0.5, 1.0, 5.0, 18.0, 18.99, 19.0, 19.01, 20.0, 50.0, 4.5e4,
              1e6, 5e7, 9.9e7, 1.5e8, 1e9):
        i0, i1 = _ive01(u)
        assert i0 == pytest.approx(float(ive(0, u)), rel=1e-13), f"u={u}"
        assert i1 == pytest.approx(float(ive(1, u)), rel=1e-13), f"u={u}"
    # continuity at the switch: the last series point against the first Hankel
    # one, each within 1e-15 of mpmath
    below, at = _ive01(math.nextafter(_HANKEL_FROM, 0.0)), _ive01(_HANKEL_FROM)
    assert below[0] == pytest.approx(at[0], rel=2e-15)
    assert below[1] == pytest.approx(at[1], rel=2e-15)
    # beyond scipy's internal overflow the expansion must stay finite
    for v in _ive01(4.5e16):
        assert math.isfinite(v) and v > 0


def test_cylinder_perpendicular_and_oblique_axes_vs_reference():
    d_perp = cylinder(0.3, 3.0, axis=(0, 0, 1), mass=1.0,
                      measurement_axis=(1, 0, 0))
    got = eta_reduced(d_perp, 0.3).value
    ref = eta_reduced_reference(d_perp, 0.3, n_theta=64, n_phi=64).value
    assert got == pytest.approx(ref, rel=1e-7)
    d_45 = cylinder(0.3, 3.0, axis=(0, 0, 1), mass=1.0,
                    measurement_axis=(1, 0, 1))
    got = eta_reduced(d_45, 0.3).value
    ref = eta_reduced_reference(d_45, 0.3, n_theta=64, n_phi=64).value
    assert got == pytest.approx(ref, rel=1e-7)


def test_cylinder_monte_carlo_oracle():
    d = cylinder(0.3, 3.0, axis=(0, 0, 1), mass=2300.0, measurement_axis=(0, 0, 1))
    got, se = mc_eta_reduced(d, 0.05, 4_000_000, 99)
    prod = eta_reduced(d, 0.05).value
    assert se / got < 0.004
    assert got == pytest.approx(prod, rel=0.01)


# --- composite ------------------------------------------------------------------

def test_two_point_masses_analytic():
    # |mu|^2 = 4 m^2 cos^2(kx a) gives
    # eta = (m^2/m0^2 rc^2) [1 + (1 - 2 a^2/rc^2) e^{-a^2/rc^2}]
    m, rc = 0.7, 0.9
    for a in (0.1 * rc, rc, 3.0 * rc):
        d = composite([(point_mass(m), (a, 0, 0)), (point_mass(m), (-a, 0, 0))],
                      measurement_axis=(1, 0, 0))
        want = (m * m / (M0**2 * rc**2)) * (
            1.0 + (1.0 - 2.0 * a * a / rc**2) * math.exp(-a * a / rc**2))
        assert eta_reduced(d, rc).value == pytest.approx(want, rel=1e-12), f"a={a}"


def test_two_point_masses_perpendicular_separation():
    # separation orthogonal to the measured axis: no f1 terms, interference
    # through the transverse Gaussian only
    m, rc, a = 1.0, 0.5, 0.4
    d = composite([(point_mass(m), (0, a, 0)), (point_mass(m), (0, -a, 0))],
                  measurement_axis=(1, 0, 0))
    want = (m * m / (M0**2 * rc**2)) * (1.0 + math.exp(-a * a / rc**2))
    assert eta_reduced(d, rc).value == pytest.approx(want, rel=1e-12)


def test_isotropic_cross_path_agrees_with_cartesian():
    # tiny spheres route through the radial Bessel path; point masses through
    # the per-axis closed forms; both must give the same interference
    rc, a = 0.7, 0.55
    m = 1.3
    pts = composite([(point_mass(m), (a, 0.1, -0.2)), (point_mass(m), (-a, -0.1, 0.2))],
                    measurement_axis=(0.3, 0.4, 0.8660254037844386))
    R = 1e-4 * rc
    rho = m / (4.0 / 3.0 * math.pi * R**3)
    sph = composite([(sphere(R, density=rho), (a, 0.1, -0.2)),
                     (sphere(R, density=rho), (-a, -0.1, 0.2))],
                    measurement_axis=(0.3, 0.4, 0.8660254037844386))
    ep = eta_reduced(pts, rc).value
    es = eta_reduced(sph, rc).value
    assert es == pytest.approx(ep, rel=1e-7)


def test_two_sphere_composite_frozen_value():
    d = composite([(sphere(0.2, mass=1.0), (0.7, 0, 0)),
                   (sphere(0.2, mass=1.0), (-0.7, 0, 0))],
                  measurement_axis=(1, 0, 0))
    got = eta_reduced(d, 0.7).value
    assert got == pytest.approx(TWO_SPHERE_ETA_M0_1 / M0**2, rel=1e-8)


def test_two_sphere_composite_vs_reference():
    d = composite([(sphere(0.2, mass=1.0), (0.7, 0, 0)),
                   (sphere(0.2, mass=1.0), (-0.7, 0, 0))],
                  measurement_axis=(1, 0, 0))
    got = eta_reduced(d, 0.7).value
    ref = eta_reduced_reference(d, 0.7, n_theta=64, n_phi=64).value
    assert got == pytest.approx(ref, rel=1e-7)


def test_lisa_two_cube_composite_is_twice_one_cube():
    # at 37.6 cm separation the interference term is Gaussian-dead for every
    # rc in the scan range
    cube = cuboid(0.046, 0.046, 0.046, mass=1.928, measurement_axis=(1, 0, 0))
    pair = composite([(cube, (-0.188, 0, 0)), (cube, (0.188, 0, 0))],
                     measurement_axis=(1, 0, 0))
    for rc in (1e-9, 1e-7, 1e-5, 1e-3):
        one = eta_reduced(cube, rc).value
        two = eta_reduced(pair, rc).value
        assert two == pytest.approx(2.0 * one, rel=1e-12), f"rc={rc}"


def test_nested_composite_flattens():
    inner = composite([(point_mass(1.0), (0.2, 0, 0))])
    outer = composite([(inner, (0.3, 0, 0)), (point_mass(1.0), (-0.5, 0, 0))],
                      measurement_axis=(1, 0, 0))
    flat = composite([(point_mass(1.0), (0.5, 0, 0)), (point_mass(1.0), (-0.5, 0, 0))],
                     measurement_axis=(1, 0, 0))
    assert eta_reduced(outer, 0.8).value == pytest.approx(
        eta_reduced(flat, 0.8).value, rel=1e-13)


def test_unsupported_mixed_pair_raises():
    d = composite([(sphere(0.1, mass=1.0), (0.15, 0, 0)),
                   (cylinder(0.05, 0.2, mass=1.0), (0, 0, 0))],
                  measurement_axis=(1, 0, 0))
    with pytest.raises(CompositeCrossTermUnsupported):
        eta_reduced(d, 0.01)


def test_distant_mixed_pair_drops_cross_term():
    # same pair, far apart: the Gaussian surface-gap bound licenses dropping
    # the interference, so the result is the sum of the parts
    sph_part = sphere(0.1, mass=1.0)
    cyl_part = cylinder(0.05, 0.2, mass=1.0)
    d = composite([(sph_part, (5.0, 0, 0)), (cyl_part, (0, 0, 0))],
                  measurement_axis=(1, 0, 0))
    rc = 0.01
    got = eta_reduced(d, rc).value
    want = (eta_reduced(sphere(0.1, mass=1.0, measurement_axis=(1, 0, 0)), rc).value
            + eta_reduced(cylinder(0.05, 0.2, mass=1.0, measurement_axis=(1, 0, 0)),
                          rc).value)
    assert got == pytest.approx(want, rel=1e-10)


# --- isotropic interference: closed form against long-double quadrature ----------

LD = np.longdouble
_GL_T, _GL_W = (a.astype(LD) for a in np.polynomial.legendre.leggauss(24))


def _ld_series(x, first, ratio):
    """first * sum_n prod_{m<n} (-x^2 ratio(m)), 14 terms: converged to long
    double precision for x < 0.5."""
    term = np.full_like(x, first)
    out = term.copy()
    for n in range(14):
        term = term * (-x * x) * ratio(n)
        out += term
    return out


def _ld_direct_or_series(x, direct, first, ratio):
    small = x < 0.5
    return np.where(small, _ld_series(x, first, ratio), direct(np.where(small, LD(1), x)))


def _ld_kernel(x):  # 3 (sin x - x cos x)/x^3
    return _ld_direct_or_series(x, lambda x: 3 * (np.sin(x) - x * np.cos(x)) / x**3,
                                LD(1), lambda n: LD(1) / ((2 * n + 5) * (2 * n + 2)))


def _ld_j0(x):
    return _ld_direct_or_series(x, lambda x: np.sin(x) / x,
                                LD(1), lambda n: LD(1) / ((2 * n + 2) * (2 * n + 3)))


def _ld_j2(x):  # (3/x^3 - 1/x) sin x - 3 cos x/x^2 = x^2 (1/15 - x^2/210 + ...)
    return x * x * _ld_direct_or_series(
        x, lambda x: ((3 / x**3 - 1 / x) * np.sin(x) - 3 * np.cos(x) / x**2) / x**2,
        LD(1) / 15, lambda n: LD(1) / (2 * (n + 1) * (2 * n + 7)))


def ld_radial_integrals(Ri, Rj, D):
    """Int_0^9 q^4 e^{-q^2} times Ki Kj j0(qD), Ki Kj j2(qD), Ki^2 and Kj^2
    (K(qR) the sphere kernel, lengths in units of rc; e^-81 cuts the tail),
    by composite 24-point Gauss-Legendre in long double with panels spanning
    at most 20 radians of the fastest oscillation."""
    width = min(1.0, 20.0 / (Ri + Rj + D + 1e-300))
    n = int(math.ceil(9.0 / width))
    h = LD(9.0) / n
    q = ((np.arange(n, dtype=LD) * h)[:, None] + h * (_GL_T[None, :] + 1) / 2).ravel()
    base = np.tile(_GL_W * h / 2, n) * q**4 * np.exp(-q * q)
    ki, kj = _ld_kernel(q * LD(Ri)), _ld_kernel(q * LD(Rj))
    return (np.sum(base * ki * kj * _ld_j0(q * LD(D))), np.sum(base * ki * kj * _ld_j2(q * LD(D))),
            np.sum(base * ki * ki), np.sum(base * kj * kj))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
def test_isotropic_cross_term_against_long_double_quadrature():
    # 2 Int k^4 Ki Kj e^{-k^2 rc^2} 4 pi [j0(kD)/3 - (2/3) P2 j2(kD)] dk for
    # sphere/sphere and sphere/point (R = 0) pairs, overlapping and nested
    # ones included, on both sides of every switch: Taylor below R/rc = 1 and
    # D/rc = 1, and A(0) for kernel frequencies R_i +- R_j at least 16 rc
    # above D (30 rc against D = 13.95 and 14.05 rc). Error relative to
    # |I3_ii| + |I3_jj|; the estimate must cover it up to the reference's
    # own resolution.
    rc = 1e-7
    axis = np.array([1.0, 0.0, 0.0])

    def check(Ri, Rj, D):
        i0, i2, sii, sjj = ld_radial_integrals(Ri, Rj, D)
        norm = float(LD(8 * math.pi / 3) * (sii + sjj)) / rc**5
        for p2 in (1.0, -0.5, 0.2):
            want = float(LD(8 * math.pi) * (i0 / 3 - LD(2) / 3 * LD(p2) * i2)) / rc**5
            cg = math.sqrt((2.0 * p2 + 1.0) / 3.0)
            delta = D * rc * np.array([cg, math.sqrt(1.0 - cg * cg), 0.0])
            got, err = _cross_isotropic(Ri * rc, Rj * rc, 1.0, 1.0, delta, axis, rc)
            case = f"Ri={Ri} Rj={Rj} D={D} P2={p2}"
            assert abs(got - want) <= 1e-12 * norm, case
            assert abs(got - want) <= err + 1e-17 * norm, case

    radii = (1e-3, 0.03, 0.5, 0.999, 1.001, 4.0, 30.0, 100.0)
    for a, Ri in enumerate(radii):
        for Rj in (0.0,) + radii[:a + 1]:
            for D in (0.0, 1e-2, 0.2, 0.999, 1.001, 3.0, 13.95, 14.05, 20.0, 100.0):
                check(Ri, Rj, D)
    # nested spheres far larger than rc, a few rc off centre, where the
    # term-by-term sum at f -+ D would lose (R/rc)^2/(D/rc)^3 eps
    check(3e3, 2.7e3, 5.0)


def test_touching_spheres_at_small_rc():
    # two touching 100 um spheres: the oscillating radial integrand needed
    # 63,665 quadrature panels at rc = 1e-9; the closed form has none. Their
    # interference lives in the contact region, so eta deviates from the sum
    # of the two spheres' eta linearly in rc/R.
    R = 1e-4
    ball = sphere(R, density=2200.0)
    pair = composite([(ball, (-R, 0, 0)), (ball, (R, 0, 0))], measurement_axis=(1, 0, 0))
    dev = {}
    for rc in (1e-9, 1e-8):
        r = eta_reduced(pair, rc)
        assert math.isfinite(r.value) and r.value > 0 and r.est_error < 1e-12
        dev[rc] = r.value / (2.0 * eta_reduced(ball, rc).value) - 1.0
    assert dev[1e-9] < 0
    assert dev[1e-8] / dev[1e-9] == pytest.approx(10.0, rel=0.01)
    # where the reference rule resolves the pair: trig and Taylor kernels
    for rc in (3e-5, 3e-4):
        ref = eta_reduced_reference(pair, rc).value
        assert eta_reduced(pair, rc).value == pytest.approx(ref, rel=1e-7), f"rc={rc}"


def test_radially_symmetric_and_point_cuboid_pairs_never_unsupported():
    R = 1e-4
    ball, small = sphere(R, density=2200.0), sphere(R / 3, density=7430.0)
    pt, box = point_mass(1e-9), cuboid(2e-4, 1e-4, 5e-5, density=2200.0)
    layouts = {
        "touching spheres": [(ball, (-R, 0, 0)), (ball, (R, 0, 0))],
        "overlapping spheres": [(ball, (-R / 2, 0, 0)), (small, (R / 2, 0, 0))],
        "concentric spheres": [(ball, (0, 0, 0)), (small, (0, 0, 0))],
        "nested spheres": [(ball, (0, 0, 0)), (small, (0, R / 2, 0))],
        "point on a sphere": [(ball, (0, 0, 0)), (pt, (0, 0, R))],
        "point inside a sphere": [(ball, (0, 0, 0)), (pt, (R / 4, R / 4, 0))],
        "point at a sphere's centre": [(ball, (0, 0, 0)), (pt, (0, 0, 0))],
        "point on a cuboid face": [(box, (0, 0, 0)), (pt, (1e-4, 0, 0))],
        "point at a cuboid's centre": [(box, (0, 0, 0)), (pt, (0, 0, 0))],
    }
    for name, parts in layouts.items():
        for axis in ((1, 0, 0), (0.6, 0.8, 0)):
            d = composite(parts, measurement_axis=axis)
            for rc in np.geomspace(1e-9, 1e-3, 25):
                r = eta_reduced(d, rc)
                assert math.isfinite(r.value) and r.value > 0, f"{name} rc={rc}"
                assert r.est_error < 1e-10, f"{name} rc={rc}"


def test_rod_sphere_unsupported_exactly_inside_gap_bound():
    # a cylinder next to a sphere has no interference route: it is dropped
    # where the surface gap (9.1 um) reaches 24 rc, and raises below that
    rod = cylinder(5e-5, 2e-4, axis=(0, 0, 1), density=2200.0)
    ball = sphere(2e-5, density=7430.0)
    d = composite([(rod, (0, 0, 0)), (ball, (1.409e-4, 0, 0))], measurement_axis=(1, 0, 0))
    gap = 1.409e-4 - circumradius(rod) - circumradius(ball)
    assert gap == pytest.approx(9.1e-6, rel=1e-3)
    edge = gap / 24.0
    for rc in list(np.geomspace(1e-9, 1e-3, 49)) + [edge * (1 - 1e-9), edge * (1 + 1e-9)]:
        if gap / (2.0 * rc) < 12.0:
            with pytest.raises(CompositeCrossTermUnsupported):
                eta_reduced(d, rc)
        else:
            assert eta_reduced(d, rc).value > 0, f"rc={rc}"


def _refuse_cartesian(*args):
    raise RuntimeError("per-axis cross term evaluated")


def test_gap_bound_is_checked_before_the_cartesian_route(monkeypatch):
    # LISA Pathfinder's cubes are 0.296 m apart surface to surface, so the
    # gap bound drops their cross term for every rc up to 1.23 cm: the
    # per-axis closed forms must not run, and eta is the two cubes' sum
    monkeypatch.setattr(diffusion, "_cross_cartesian", _refuse_cartesian)
    clear_cache()
    lisa = load("lisa-pathfinder").geometry
    (a, _), (b, _) = lisa.shape.parts
    axis = lisa.measurement_axis
    try:
        for rc in np.geomspace(1e-9, 1e-2, 61).tolist():
            i3 = _i3_primitive(a, rc, axis)[0] + _i3_primitive(b, rc, axis)[0]
            assert eta_reduced(lisa, rc).value == rc**3 / (math.pi ** 1.5 * M0 * M0) * i3
        # inside the bound the per-axis route still runs: a tip touching a beam
        beam = cuboid(4.5e-4, 5.7e-5, 2.5e-6, density=2200.0)
        tip = cuboid(2e-5, 2e-5, 2e-5, density=7430.0)
        touching = composite([(beam, (0, 0, 0)), (tip, (2.35e-4, 0, 0))],
                             measurement_axis=(0, 0, 1))
        with pytest.raises(RuntimeError, match="per-axis"):
            eta_reduced(touching, 1e-7)
    finally:
        clear_cache()


# eta_reduced(...).value.hex() recorded before the gap check moved ahead of
# the per-axis route and the axis cosine was cached per pair of axes
_TILT = dict(axis=(0.3, -0.5, 0.81), measurement_axis=(0.6, 0.2, -0.77))
_TILTED_ROD_HEX = {1e-9: "0x1.f030e94652a9ep+136", 1e-5: "0x1.71a004b3f98c5p+163",
                   1e-3: "0x1.ba82953086efap+176", 0.05: "0x1.fc6b21813a362p+181"}
_TILTED_ROD_PART_HEX = {1e-9: "0x1.f5b863e49c2aap+136", 1e-5: "0x1.75bea15a34b24p+163",
                        1e-3: "0x1.bf7034bbc03ecp+176"}
# per multiple of the rc at which gap/(2 rc) = 12
_CUBOID_PAIR_HEX = {0.5: "0x1.b1631bd572bbbp+171", 1 - 1e-9: "0x1.9447fc0d58b7cp+173",
                    1 + 1e-9: "0x1.9447fc268eac9p+173", 2.0: "0x1.5c56cdaf29bacp+175",
                    20.0: "0x1.6856df73f3344p+173"}


def test_tilted_cylinder_values_pinned():
    # neither the cylinder axis nor the measurement axis is a coordinate axis
    rod = cylinder(0.02, 0.1, density=2700.0, **_TILT)
    with_ball = composite([(rod, (0, 0, 0)), (sphere(0.01, density=1000.0), (0.5, 0.2, 0))],
                          measurement_axis=_TILT["measurement_axis"])
    for d, table in ((rod, _TILTED_ROD_HEX), (with_ball, _TILTED_ROD_PART_HEX)):
        for rc, want in table.items():
            assert eta_reduced(d, rc).value.hex() == want, f"rc={rc}"


def _cuboid_pair(axis):
    box = cuboid(0.01, 0.02, 0.015, density=2000.0)
    pair = composite([(box, (0, 0, 0)), (box, (0.05, 0.01, 0))], measurement_axis=axis)
    edge = (math.dist((0, 0, 0), (0.05, 0.01, 0)) - 2.0 * circumradius(box)) / 24.0
    return box, pair, edge


def test_cuboid_pair_values_pinned_on_both_sides_of_the_gap_bound():
    _, pair, edge = _cuboid_pair((1, 0, 0))
    for f, want in _CUBOID_PAIR_HEX.items():
        assert eta_reduced(pair, edge * f).value.hex() == want, f"rc={f} x edge"


def test_dropped_cuboid_cross_term_is_below_rounding():
    # measured along a tilted axis, the per-axis route returns a cross term
    # of rounding size where the bound drops it (its factors cancel to about
    # eps of the diagonal, against a true size below e^-144), so dropping it
    # may move the last bit of eta to the exact sum of the two cuboids
    box, pair, edge = _cuboid_pair((0.6, 0.2, -0.77))
    prof, m = (box.shape.lx, box.shape.ly, box.shape.lz), total_mass(box)
    axis = pair.measurement_axis
    for rc in np.geomspace(1e-9, edge, 40).tolist():
        i3 = _i3_primitive(box, rc, axis)[0]
        assert eta_reduced(pair, rc).value == rc**3 / (math.pi ** 1.5 * M0 * M0) * (i3 + i3)
        cross, _ = diffusion._cross_cartesian(prof, prof, m, m, np.array([-0.05, -0.01, 0.0]),
                                           np.asarray(axis), rc)
        assert abs(cross) <= 4.0 * np.finfo(float).eps * 2.0 * i3, f"rc={rc}"


def test_far_cuboid_pair_error_covers_the_cancelling_factor():
    # two 1 mm cubes 1 m apart, measured along a tilted axis, inside the gap
    # bound (gap/(2 rc) = 10): the factor along the separation sums four
    # _Tfun values of size |delta| that cancel, so the computed cross term is
    # rounding noise of about eps |delta| rc / L^2 of the sum (its true size is
    # below e^-100); the error estimate must cover it
    box = cuboid(1e-3, 1e-3, 1e-3, density=2200.0)
    pair = composite([(box, (0, 0, 0)), (box, (0.01, 0.9998, 0.01))],
                     measurement_axis=(0.6, 0.2, -0.77))
    rc = 0.0499
    i3 = _i3_primitive(box, rc, pair.measurement_axis)[0]
    got = eta_reduced(pair, rc)
    cross = 1.0 - rc**3 / (math.pi ** 1.5 * M0 * M0) * (i3 + i3) / got.value
    assert 1e-11 < abs(cross) <= got.est_error < 1e-8


# --- eta_column: eta_reduced over an rc grid in one pass ---------------------------

_GRID = np.geomspace(1e-9, 1e-2, 41).tolist()


def _around(*rcs):
    """Each rc and its neighbours 1e-9 below and above."""
    return [rc * f for rc in rcs for f in (1 - 1e-9, 1.0, 1 + 1e-9)]


def _assert_column_is_scalar(d, rcs, failing=()):
    """One column over rcs and then failing holds eta_reduced's bits at each
    of rcs, and NaN at each of failing, where eta_reduced raises an
    ArithmeticError or returns a value or error that is not finite."""
    clear_cache()
    values, errors = eta_column(d, list(rcs) + list(failing))
    for rc, v, e in zip(rcs, values.tolist(), errors.tolist()):
        r = eta_reduced(d, rc)
        assert (v.hex(), e.hex()) == (r.value.hex(), r.est_error.hex()), f"rc={rc!r}"
    assert np.isnan(values[len(rcs):]).all() and np.isnan(errors[len(rcs):]).all()
    for rc in failing:
        try:
            r = eta_reduced(d, rc)
        except ArithmeticError:
            continue
        assert not (math.isfinite(r.value) and math.isfinite(r.est_error)), f"rc={rc!r}"


def test_eta_column_primitives_are_the_scalar_bits():
    # sphere: X = (R/rc)^2 switches to the series table at X = 1; the float
    # above R gives X = 1 - 2^-52, the largest X below 1 that an rc gives
    R = 1e-7
    _assert_column_is_scalar(point_mass(1e-3), _GRID)
    _assert_column_is_scalar(sphere(R, density=2200.0), _GRID + _around(R) + _neighbours(R))
    # one axis component 0 (skipped), erf arguments beyond the e^-745 clamp
    _assert_column_is_scalar(cuboid(0.046, 0.02, 1e-5, mass=1.928, measurement_axis=(0.6, 0, 0.8)),
                             _GRID)
    # cylinder on oblique axes across the series switch u = 1, the Hankel
    # switch u = 19 and u = 170, where an 8-row Hankel table used to end,
    # u = (R/rc)^2/2, each with its float neighbours
    Rc = 1e-6
    rod = cylinder(Rc, 4e-6, density=2200.0, **_TILT)
    at = [Rc / math.sqrt(2.0 * u) for u in (1.0, _HANKEL_FROM, 170.0)]
    _assert_column_is_scalar(rod, _GRID + _around(*at) + _neighbours(*at))
    # NaN where eta_reduced raises or is not finite, on the measurement axis,
    # across it and oblique: u overflows (R/rc above 1.3e154), or R/rc is inf
    # (a subnormal rc) and R^2 rc^2 is 0, or R/rc underflows (u is 0) and
    # rc^2 overflows; at rc = 5e-155 R^2 rc^2 is subnormal and B3 inf
    for R in (5e-5, 0.3):
        for axes in ({"measurement_axis": (0, 0, 1)}, {"measurement_axis": (1, 0, 0)}, _TILT):
            _assert_column_is_scalar(cylinder(R, 4.0 * R, density=2200.0, **axes), _GRID,
                                     [1.7e308, R * 1e-160, 5e-324, 5e-155])


def test_eta_column_composites_are_the_scalar_bits():
    beam = cuboid(4.5e-4, 5.7e-5, 2.5e-6, density=2200.0)
    tip_beam = composite([(beam, (0, 0, 0)), (point_mass(1.1e-10), (2.25e-4, 0, 0))],
                         measurement_axis=(0, 0, 1))
    _assert_column_is_scalar(tip_beam, _GRID)
    _, pair, edge = _cuboid_pair((0.6, 0.2, -0.77))  # across the gap-drop threshold
    _assert_column_is_scalar(pair, _GRID + _around(edge))
    # sphere/sphere with a 10 um gap: dropped below rc = gap/(2 _GAP_DROP), the
    # kernel series where R < rc, the angular series where D < rc
    ball = sphere(1e-5, density=2200.0)
    spheres = composite([(ball, (-1.5e-5, 0, 0)), (ball, (1.5e-5, 0, 0))],
                        measurement_axis=(0.6, 0.8, 0))
    _assert_column_is_scalar(spheres, _GRID + _around(1e-5 / (2.0 * _GAP_DROP), 1e-5, 3e-5))
    # a point inside a 50 um sphere, 10 um off centre: the angular factor is
    # replaced by its D = 0 value where (R - D)/rc >= _DEAD_SHIFT
    inside = composite([(sphere(5e-5, density=7430.0), (0, 0, 0)),
                        (point_mass(1e-9), (1e-5, 0, 0))])
    _assert_column_is_scalar(inside, _GRID + _around(4e-5 / _DEAD_SHIFT, 5e-5))
    _assert_column_is_scalar(load("lisa-pathfinder").geometry, _GRID)
    # the isotropic pairs below, each across its switches: the touching
    # spheres and the sphere and point of the benchmark, unequal radii (no
    # kj = ki shortcut) nested and apart on an oblique axis, and a point at
    # a sphere's centre (D = 0)
    for d in _ISOTROPIC_PAIRS.values():
        (a, off_a), (b, off_b) = d.shape.parts
        Ri, Rj, D = circumradius(a), circumradius(b), math.dist(off_a, off_b)
        _assert_column_is_scalar(d, _GRID + _isotropic_switches(Ri, Rj, D))


def _isotropic_switches(Ri, Rj, D):
    """The rc around each switch of an isotropic pair: the kernel and angular
    Taylor switches (a length equal to rc), the A(0) swap (a kernel frequency
    _DEAD_SHIFT rc above D) and the gap drop (a gap of 2 _GAP_DROP rc)."""
    edges = [Ri, Rj, D, abs(Ri - Rj), (Ri + Rj - D) / _DEAD_SHIFT,
             (abs(Ri - Rj) - D) / _DEAD_SHIFT, (D - Ri - Rj) / (2.0 * _GAP_DROP)]
    return _around(*(rc for rc in edges if rc > 0.0))


_BALL, _BIG = sphere(1e-4, density=2200.0), sphere(5e-5, density=7430.0)
_ISOTROPIC_PAIRS = {
    "touching": composite([(_BALL, (-1e-4, 0, 0)), (_BALL, (1e-4, 0, 0))]),
    "sphere-point": composite([(_BIG, (0, 0, 0)), (point_mass(1e-9), (1e-4, 0, 0))]),
    "nested": composite([(sphere(4e-5, density=2200.0), (0, 0, 0)),
                         (sphere(1e-5, density=7430.0), (1e-5, 1e-5, 0))],
                        measurement_axis=_TILT["measurement_axis"]),
    "apart": composite([(sphere(4e-5, density=2200.0), (0, 0, 0)),
                        (sphere(1e-5, density=7430.0), (3e-5, 4e-5, 2e-5))],
                       measurement_axis=_TILT["measurement_axis"]),
    "centre": composite([(_BIG, (0, 0, 0)), (point_mass(1e-9), (0, 0, 0))],
                        measurement_axis=(0.6, 0.8, 0)),
}
# (eta_reduced(...).value.hex(), .est_error.hex()) per rc, recorded when the
# isotropic cross terms became one column code free of BLAS calls: kernels
# trig (rc below the radii) and series, the angular factor trig and series,
# and the A(0) swap (nested at 1e-7)
_ISOTROPIC_HEX = {
    ("touching", 1e-9): ("0x1.5ec32979c3990p+120", "0x1.686e3afbc1acep-48"),
    ("touching", 3e-6): ("0x1.69294fc7c94b6p+143", "0x1.92f15252903fdp-47"),
    ("touching", 1.5e-4): ("0x1.b5bd46c33e350p+149", "0x1.3d261e9967481p-46"),
    ("touching", 1e-3): ("0x1.55923c854ad14p+145", "0x1.f4ee22a5250a9p-49"),
    ("sphere-point", 1e-5): ("0x1.6b2045fec4268p+150", "0x1.75e2b9fcafc0cp-50"),
    ("sphere-point", 1e-3): ("0x1.872d0f61302acp+141", "0x1.0f3c8904a462ap-48"),
    ("nested", 1e-7): ("0x1.d55901109d6c2p+130", "0x1.36d1630987b51p-47"),
    ("nested", 1e-4): ("0x1.251c0c0fbc21fp+142", "0x1.52ecc6ce0df7fp-48"),
    ("centre", 1e-6): ("0x1.f4e38cf2f834ep+156", "0x1.e76666c7a5574p-53"),
    ("centre", 1e-4): ("0x1.1613a6d3c2c5dp+148", "0x1.0fcada7a915efp-48"),
}


def test_isotropic_values_pinned():
    clear_cache()
    for (name, rc), want in _ISOTROPIC_HEX.items():
        r = eta_reduced(_ISOTROPIC_PAIRS[name], rc)
        assert (r.value.hex(), r.est_error.hex()) == want, f"{name} rc={rc}"


def _refuse_blas(*args, **kwargs):
    raise AssertionError("BLAS call on the isotropic path")


def test_isotropic_cross_terms_call_no_blas(monkeypatch):
    # np.convolve and np.dot round differently under different BLAS kernels
    monkeypatch.setattr(np, "convolve", _refuse_blas)
    monkeypatch.setattr(np, "dot", _refuse_blas)
    clear_cache()
    for d in _ISOTROPIC_PAIRS.values():
        assert np.isfinite(eta_column(d, _GRID)[0]).all()
        assert math.isfinite(eta_reduced(d, 1e-6).value)
    clear_cache()


def test_taylor_series_stop_within_their_steps():
    # a series factor's terms shrink as its length falls, so the length just
    # below the trig switch needs the most steps; that must be fewer than
    # _TAYLOR_STEPS, past which no step is computed
    edge, rows = np.array([np.nextafter(1.0, 0.0)]), np.array([0])
    sizes = [_kernel_factor(rows, edge, False).size[0]]
    sizes += [_angular_factor(rows, edge, p2, False).size[0] for p2 in (1.0, -0.5, 0.0)]
    assert max(sizes) < 1 + 2 * _TAYLOR_STEPS


def test_eta_column_leaves_failing_points_to_eta_reduced():
    # a rod beside a sphere has no cross-term route inside the gap bound, and
    # rc must be > 0 and finite: the column holds NaN exactly where
    # eta_reduced raises, and the scalar bits everywhere else
    rod = cylinder(5e-5, 2e-4, density=2200.0)
    d = composite([(rod, (0, 0, 0)), (sphere(2e-5, density=7430.0), (1.409e-4, 0, 0))])
    edge = (1.409e-4 - circumradius(rod) - 2e-5) / (2.0 * _GAP_DROP)
    rcs = [-1e-7, 0.0, math.nan, math.inf] + _GRID + _around(edge)
    clear_cache()
    values, errors = eta_column(d, rcs)
    raised = 0
    for rc, v, e in zip(rcs, values.tolist(), errors.tolist()):
        try:
            r = eta_reduced(d, rc)
        except (CompositeCrossTermUnsupported, NonPositiveRc):
            raised += 1
            assert math.isnan(v) and math.isnan(e), f"rc={rc!r}"
            continue
        assert (v.hex(), e.hex()) == (r.value.hex(), r.est_error.hex()), f"rc={rc!r}"
    assert 4 < raised < len(rcs) - 4
    # an edge whose square underflows fails in rc-free work: every point
    thin = cuboid(1e-170, 1e-5, 1e-5, density=1e3)
    assert np.isnan(eta_column(thin, _GRID)).all()
    with pytest.raises(ZeroDivisionError):
        eta_reduced(thin, 1e-7)
    # a sphere where R/rc underflows: X is 0, and rc**5 overflows
    ball = sphere(1e-7, density=2200.0)
    assert np.isnan(eta_column(ball, [1e302, 1.7e308])).all()
    with pytest.raises(OverflowError):
        eta_reduced(ball, 1e302)


def test_eta_column_reports_the_errors_eta_reduced_raises():
    # at each valid rc where eta_reduced raises CompositeCrossTermUnsupported
    # the column reports that error, same class and message: the first pair
    # with no route inside the gap bound, a rod/sphere or (where that one is
    # dropped) a rod/rod pair, or a cube in a sphere. It reports nothing
    # where eta_reduced raises another error first (NonPositiveRc, or rc
    # whose squares leave the float range) or returns a value; at 1e-156 the
    # cube and its sphere are finite but the error term of the sphere pair
    # dropped before them overflows
    rod, ball = cylinder(5e-5, 2e-4, density=2200.0), sphere(2e-5, density=7430.0)
    pair = composite([(rod, (0, 0, 0)), (ball, (1.409e-4, 0, 0))])
    triple = composite([(rod, (0, 0, 0)), (ball, (1.6e-4, 0, 0)), (rod, (-2.3e-4, 0, 0))])
    small = sphere(1e-5, density=2200.0)
    boxed = composite([(small, (1.0, 0, 0)), (small, (0, 0, 0)),
                       (cuboid(1e-5, 1e-5, 1e-5, density=2200.0), (0, 0, 0))])
    r_rod = circumradius(rod)
    for d, gaps, names in ((pair, [1.409e-4 - r_rod - 2e-5], {"Cylinder/Sphere"}),
                           (triple, [1.6e-4 - r_rod - 2e-5, 2.3e-4 - 2.0 * r_rod],
                            {"Cylinder/Sphere", "Cylinder/Cylinder"}),
                           (boxed, [], {"Sphere/Cuboid"})):
        rcs = ([-1e-7, 0.0, math.nan, math.inf, 5e-324, 1e-300, 1e-156, 1e160] + _GRID
               + _around(*(gap / (2.0 * _GAP_DROP) for gap in gaps)))
        clear_cache()
        failed = _eta_column(d, rcs)[2]
        raised = {}
        for i, rc in enumerate(rcs):
            try:
                eta_reduced(d, rc)
            except CompositeCrossTermUnsupported as err:
                raised[i] = err
            except (ArithmeticError, NonPositiveRc):
                pass
        assert {i: (type(e), str(e)) for i, e in failed.items()} == {
            i: (type(e), str(e)) for i, e in raised.items()}
        assert {str(e).split()[4] for e in raised.values()} == names


# --- caching and bookkeeping ------------------------------------------------------

def test_results_cached_and_deterministic():
    clear_cache()
    d = sphere(3.3e-5, density=1200.0)
    a = eta_reduced(d, 1e-6)
    for _ in range(3):
        b = eta_reduced(d, 1e-6)
        assert b.value == a.value and b.est_error == a.est_error
    clear_cache()
    c = eta_reduced(d, 1e-6)
    assert c.value == a.value and c.est_error == a.est_error


def test_eta_reduced_retains_no_memory():
    # eta keeps no state per rc: 2000 calls at distinct rc leave (almost)
    # nothing allocated once their results are dropped
    import tracemalloc
    d = sphere(3.3e-5, density=1200.0)
    rcs = [float(rc) for rc in np.geomspace(1e-9, 1e-3, 2000)]
    eta_reduced(d, 1e-6)  # warm imports and the rc-free caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rc in rcs:
            eta_reduced(d, rc)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 50_000


def test_est_error_within_tolerance():
    for d, rc in ((sphere(1e-5, density=1e3), 1e-7),
                  (cuboid(0.046, 0.046, 0.046, mass=1.928), 1e-7),
                  (cylinder(0.3, 3.0, mass=2300.0), 1e-7)):
        r = eta_reduced(d, rc)
        assert r.est_error <= 1e-8
        assert r.value > 0


def test_tolerance_domain_enforced():
    # eta is closed form and takes no tol; the quadrature route that does
    # still rejects one outside (0, 1e-2)
    p, ph = CollapseParams(1.0, 1e-7), PhononModel(v_s=3000.0)
    with pytest.raises(ValueError):
        lambda_eff_quad(p, WHITE, ph, tol=0.5)
    with pytest.raises(ValueError):
        lambda_eff_quad(p, WHITE, ph, tol=0.0)


def test_concurrent_evaluation_matches_serial():
    from concurrent.futures import ThreadPoolExecutor
    clear_cache()
    d = cylinder(0.3, 3.0, mass=2300.0, measurement_axis=(0, 0, 1))
    rcs = list(np.geomspace(1e-8, 1e-4, 24)) * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda rc: eta_reduced(d, rc).value, rcs))
    serial = [eta_reduced(d, rc).value for rc in rcs]
    assert results == serial
