import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx as scipy_erfcx

from ccsl import (CONSTANTS, CollapseParams, ColdAtomDescriptor,
                  FullSineDispersion, MechanicalOscillator, NegativeLambda,
                  NonPositiveFrequency, NonPositiveRc, PhononModel, ValidationError, WHITE,
                  cold_atom_diffusion, cuboid, dns_ccsl, dns_total, exponential,
                  eta, heating_rate, lambda_eff, lambda_eff_quad,
                  normalized_xray_rate, point_mass, sphere, spectrum, xray_rate)
from ccsl.diffusion import DEFAULT_TOL
from ccsl.predict import (_LINEAR_KNEES, _Y_EDGES, _closed, _cold_bracket, _erfcx,
                          _phonon_bracket, _quad_rows, _y_edges, cold_atom_noise_factor, lambda_eff_column)
from ccsl.quadrature import merge_edges
from fixtures import (COLD_BRACKET_TABLE, ERFCX_TABLE, ONE_MINUS_2_OVER_E,
                      PHONON_RATIO_TABLE)

RB87 = ColdAtomDescriptor(mass_number=87.0, atom_mass=1.4431606e-25,
                          expansion_time=1.0)
COPPER = PhononModel(v_s=3000.0)
GRW = CollapseParams(lam=1e-16, rc=1e-7)


# --- value types -------------------------------------------------------------

def test_oscillator_validation():
    with pytest.raises(ValidationError):
        MechanicalOscillator(mass=-1.0, omega_m=1.0, temperature=1.0)
    with pytest.raises(ValidationError):
        MechanicalOscillator(mass=1.0, omega_m=1.0, temperature=1.0, gamma_m=0.0)


def test_oscillator_overdamped_warns_but_accepts():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MechanicalOscillator(mass=1.0, omega_m=1.0, temperature=1.0, gamma_m=2.0)
    assert any("overdamped" in str(w.message) for w in caught)


def test_phonon_model_dispersion_consistency():
    # v_s must match a sqrt(C/m_A) to 1%, which makes the two dispersion
    # forms agree to better than 1% for q < 0.1/a
    a, mA = 1e-10, 1e-25
    C = (3000.0 / a) ** 2 * mA
    ph = PhononModel(v_s=3000.0, dispersion=FullSineDispersion(C, mA, a))
    for q in np.geomspace(1e6, 0.1 / a, 12):
        lin = 3000.0 * q
        full = ph.omega_l(q)
        assert full == pytest.approx(lin, rel=0.01)
    with pytest.raises(ValidationError):
        PhononModel(v_s=4000.0, dispersion=FullSineDispersion(C, mA, a))


# --- DNS ----------------------------------------------------------------------

def test_dns_white_independent_of_omega():
    d = sphere(1e-5, density=1000.0)
    vals = dns_ccsl(d, GRW, WHITE, np.array([1.0, 1e3, 1e7]))
    assert vals[0] == vals[1] == vals[2]


def test_dns_zero_lambda():
    d = sphere(1e-5, density=1000.0)
    assert dns_ccsl(d, CollapseParams(0.0, 1e-7), WHITE, 100.0) == 0.0


def test_dns_colored_ratio_is_spectrum():
    d = point_mass(1e-10)
    n = exponential(5e3)
    w = 7e3
    ratio = (dns_ccsl(d, GRW, n, w) / dns_ccsl(d, GRW, n, 0.0))
    assert ratio == pytest.approx(1.0 / (1.0 + (w / 5e3) ** 2), rel=1e-12)


def test_dns_equals_hbar_sq_eta():
    d = cuboid(0.01, 0.01, 0.01, mass=0.5)
    e = eta(d, GRW).value
    assert dns_ccsl(d, GRW, WHITE, 42.0) == pytest.approx(
        CONSTANTS.hbar**2 * e, rel=1e-13)


OSC = MechanicalOscillator(mass=1e-3, omega_m=2 * math.pi * 100.0,
                           temperature=4.2, gamma_m=0.05)


def test_dns_total_thermal_peak_value():
    # lam = 0 at resonance: S = 2 kB T / (m gamma wm^2)
    d = point_mass(1e-3)
    p0 = CollapseParams(0.0, 1e-7)
    got = dns_total(OSC, d, p0, WHITE, OSC.omega_m)
    want = 2 * CONSTANTS.kB * 4.2 / (1e-3 * 0.05 * OSC.omega_m**2)
    assert got == pytest.approx(want, rel=1e-12)


def test_dns_total_bounded_below_by_thermal():
    d = point_mass(1e-3)
    p0 = CollapseParams(0.0, 1e-7)
    p1 = CollapseParams(1e-8, 1e-7)
    for w in np.geomspace(1.0, 1e5, 20):
        assert dns_total(OSC, d, p1, WHITE, w) >= dns_total(OSC, d, p0, WHITE, w)


def test_dns_total_high_frequency_slope_is_minus_four():
    d = point_mass(1e-3)
    w1, w2 = 1e3 * OSC.omega_m, 1e4 * OSC.omega_m
    s1 = dns_total(OSC, d, GRW, WHITE, w1)
    s2 = dns_total(OSC, d, GRW, WHITE, w2)
    slope = math.log(s2 / s1) / math.log(w2 / w1)
    assert slope == pytest.approx(-4.0, abs=1e-3)


def test_dns_total_requires_damping():
    osc = MechanicalOscillator(mass=1e-3, omega_m=10.0, temperature=1.0)
    with pytest.raises(ValidationError):
        dns_total(osc, point_mass(1e-3), GRW, WHITE, 1.0)


# --- X-ray ---------------------------------------------------------------------

def test_xray_normalized_identity():
    # 4 pi^2 eps0 c^3 m0^2 w (dGamma/dw)/(e^2 hbar) == lam f~(w)/rc^2
    rng = np.random.default_rng(11)
    c = CONSTANTS
    for _ in range(12):
        lam = 10 ** rng.uniform(-18, -8)
        rc = 10 ** rng.uniform(-9, -4)
        wc = 10 ** rng.uniform(2, 16)
        w = 10 ** rng.uniform(3, 19)
        p = CollapseParams(lam, rc)
        n = exponential(wc)
        lhs = (4 * math.pi**2 * c.eps0 * c.c_light**3 * c.m0**2 * w
               * xray_rate(p, n, w) / (c.e_charge**2 * c.hbar))
        rhs = normalized_xray_rate(p, n, w)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert rhs == pytest.approx(lam * (1 / (1 + (w / wc) ** 2)) / rc**2, rel=1e-12)


def test_xray_colored_over_white_at_cutoff():
    p = GRW
    w = 4.4e9
    ratio = xray_rate(p, exponential(w), w) / xray_rate(p, WHITE, w)
    assert ratio == pytest.approx(0.5, rel=1e-13)


def test_xray_zero_lambda():
    assert xray_rate(CollapseParams(0.0, 1e-7), WHITE, 1e19) == 0.0


def test_xray_rejects_nonpositive_frequency():
    for w in (0.0, -5.0):
        with pytest.raises(NonPositiveFrequency):
            xray_rate(GRW, WHITE, w)
        with pytest.raises(NonPositiveFrequency):
            normalized_xray_rate(GRW, WHITE, w)


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (a != a and b != b)


_DECADE = st.floats(min_value=-300.0, max_value=300.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.one_of(st.none(), _DECADE.map(lambda e: 10.0**e)),
       st.one_of(st.floats(), _DECADE.map(lambda e: 10.0**e)))
@settings(max_examples=400, deadline=None)
@example(None, 1e19)
@example(2821.939626196855, 1e19)  # libm's pow(r, 2) is one ulp off r * r here
@example(1e-300, 1e-100)   # the ratio is finite, its square overflows: f~ = 0
@example(1e-300, 1e10)     # the ratio itself overflows
@example(1e-300, -1e-100)
@example(1e-300, 1e-150)   # f~ = 1e-300
@example(1e-300, 5e-324)
@example(1e20, 1e-300)     # the square underflows: f~ = 1
@example(1e4, math.inf)
@example(1e4, -math.inf)
@example(1e4, math.nan)
@example(None, math.nan)
@example(1e4, 0.0)
@example(1e4, -0.0)
@example(1e4, -5.0)
def test_float_omega_gives_the_bits_of_numpy_scalar_omega(omega_c, omega):
    """spectrum and both X-ray rates take a Python float omega in Python
    floats; a numpy scalar takes the array route. Both give the same float,
    or raise NonPositiveFrequency alike, with no RuntimeWarning."""
    n = WHITE if omega_c is None else exponential(omega_c)
    f = spectrum(n, omega)
    assert type(f) is float and _same_bits(f, spectrum(n, np.float64(omega)))
    for rate in (xray_rate, normalized_xray_rate):
        if 0.0 < omega < math.inf:
            got = rate(GRW, n, omega)
            assert type(got) is float and _same_bits(got, rate(GRW, n, np.float64(omega)))
        else:
            for w in (omega, np.float64(omega)):
                with pytest.raises(NonPositiveFrequency, match=f"^{rate.__name__} requires"):
                    rate(GRW, n, w)


# --- phonon heating ---------------------------------------------------------------

def test_erfcx_fixtures():
    for x, ref in ERFCX_TABLE:
        assert _erfcx(x) == pytest.approx(ref, rel=1e-12), f"x={x}"


def test_erfcx_path_stable_and_monotone_to_1e9():
    vals = np.array([_erfcx(float(x)) for x in np.geomspace(1e-3, 1e9, 200)])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_erfcx_matches_scipy_and_is_continuous_at_its_switch():
    # scipy's erfcx as an independent cross-check: each is within 1e-15 of
    # mpmath on this grid, so they differ by at most 2e-15
    xs = np.geomspace(1e-3, 1e9, 2000)
    ours = np.array([_erfcx(float(x)) for x in xs])
    np.testing.assert_allclose(ours, scipy_erfcx(xs), rtol=2e-15, atol=0.0)
    # both sides of the split-exponential / asymptotic-series switch at 20
    below, at = _erfcx(math.nextafter(20.0, 0.0)), _erfcx(20.0)
    assert below == pytest.approx(at, rel=2e-15)


def test_lambda_eff_white_is_lambda():
    assert lambda_eff(WHITE, COPPER, GRW.rc, GRW.lam) == GRW.lam
    assert lambda_eff_quad(GRW, WHITE, COPPER) == pytest.approx(GRW.lam, rel=1e-9)
    # an int lam, or a numpy rc, still gives a Python float
    for noise, rc, lam in ((WHITE, 1e-7, 0), (exponential(1e4), np.float64(1e-7), 1e-12)):
        got = lambda_eff(noise, COPPER, rc, lam)
        assert type(got) is float and got == lambda_eff(noise, COPPER, float(rc), float(lam))


def test_lambda_eff_closed_against_fixtures():
    for x, ratio in PHONON_RATIO_TABLE:
        rc = 1e-7
        wc = x * COPPER.v_s / rc
        got = lambda_eff(exponential(wc), COPPER, rc)
        assert got == pytest.approx(ratio, rel=1e-10), f"x={x}"


@pytest.mark.parametrize("lam", [1.0, 2.5e-3])
def test_closed_form_at_one_rc_is_a_float_with_the_bits_of_the_elementwise_form(lam):
    # at one rc the closed form picks between its formula and lam with a
    # plain conditional in Python floats, and gives the bits np.where gives:
    # a seeded sample of x, and 16 floats either side of the x at which
    # 4 x^2 / 3 overflows
    wc = 1e4
    x_top = math.sqrt(sys.float_info.max) / 2.0  # the first x that overflows, within an ulp
    while 4.0 * x_top * x_top / 3.0 == math.inf:
        x_top = math.nextafter(x_top, 0.0)
    while 4.0 * x_top * x_top / 3.0 < math.inf:
        x_top = math.nextafter(x_top, math.inf)
    xs = [x_top]
    for _ in range(16):
        xs = [math.nextafter(xs[0], 0.0), *xs, math.nextafter(xs[-1], math.inf)]
    xs += (10.0 ** np.random.default_rng(29).uniform(-4.0, 160.0, 500)).tolist()
    qs = []
    for x in xs:
        rc = x * COPPER.v_s / wc
        got = _closed(exponential(wc), COPPER, rc, lam)
        x = rc * wc / COPPER.v_s
        q = 4.0 * x * x / 3.0
        want = np.where(q < math.inf, lam * q * _phonon_bracket(x), lam)
        assert type(got) is float and got.hex() == float(want).hex(), rc
        qs.append(q)
    assert min(qs) < math.inf and max(qs) == math.inf  # both sides reached


def test_lambda_eff_bracket_branch_continuity():
    lo = _phonon_bracket(20.0 * (1 - 1e-12))
    hi = _phonon_bracket(20.0 * (1 + 1e-12))
    assert lo == pytest.approx(hi, rel=1e-9)


def test_lambda_eff_quad_matches_closed_form():
    for x in np.geomspace(1e-3, 1e3, 25):
        rc = 1e-7
        p = CollapseParams(1.0, rc)
        n = exponential(x * COPPER.v_s / rc)
        q = lambda_eff_quad(p, n, COPPER, tol=1e-9)
        c = lambda_eff(n, COPPER, rc)
        assert q == pytest.approx(c, rel=1e-8), f"x={x}"


def test_lambda_eff_ratio_in_unit_interval_and_monotone():
    rc = 1e-7
    xs = np.geomspace(1e-4, 1e6, 40)
    vals = [lambda_eff(exponential(x * COPPER.v_s / rc), COPPER, rc) for x in xs]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_eff_asymptote():
    v = lambda_eff(exponential(100.0 * COPPER.v_s / 1e-7), COPPER, 1e-7)
    assert 0.999 <= v <= 1.0


def test_full_sine_matches_linear_in_validity_regime():
    # rc = 1e-7 >> a = 1e-10: the noise samples only the linear part
    a, mA = 1e-10, 1.0552e-25
    C = (3000.0 / a) ** 2 * mA
    disp = FullSineDispersion(C, mA, a)
    ph_sine = PhononModel(v_s=disp.sound_speed(), dispersion=disp)
    ph_lin = PhononModel(v_s=disp.sound_speed())
    p = CollapseParams(1.0, 1e-7)
    for wc in (1e3, 3e10, 1e13):
        n = exponential(wc)
        s = lambda_eff_quad(p, n, ph_sine)
        l = lambda_eff_quad(p, n, ph_lin)
        assert s == pytest.approx(l, rel=0.01), f"wc={wc}"


def test_heating_rate_white_closed_form():
    c = CONSTANTS
    got = heating_rate(GRW, WHITE, COPPER)
    want = 0.75 * c.hbar**2 * GRW.lam / (GRW.rc**2 * c.m0**2)
    assert got == pytest.approx(want, rel=1e-14)


def test_heating_rate_zero_lambda():
    assert heating_rate(CollapseParams(0.0, 1e-7), WHITE, COPPER) == 0.0
    # the full sine's quadrature route returns 0 at lambda = 0 without integrating
    assert heating_rate(CollapseParams(0.0, 1e-7), exponential(1e13), LATTICE) == 0.0


def test_heating_rate_monotone_in_cutoff():
    p = GRW
    vals = [heating_rate(p, exponential(wc), COPPER)
            for wc in np.geomspace(1e2, 1e14, 25)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= heating_rate(p, WHITE, COPPER)


# the lattice of the full-sine pin: knees below rc = 3.2e-9 m, oscillations
# too fine below 1.6e-13 m, the panel budget spent at 1e-12 m and Wc = 10
LATTICE = PhononModel(v_s=3000.0, dispersion=FullSineDispersion(15.192, 1.055e-25, 2.5e-10))
COLUMN_RCS = [1e-13, 1e-12, 1e-11, 2.5e-10, 1e-9, 3e-9, 3.3e-9, 1e-8, 1e-7, 1e-5, 1e-3,
              0.0, -1e-7, math.nan]


def _scalar(call, *args):
    try:
        return call(*args)
    except Exception as err:  # compared by class and message
        return err


def _entries(column):
    """lambda_eff_column's (values, errors) as one entry per rc: the error
    where it raised, else the value as a float."""
    values, errors = column
    return [errors.get(i, v) for i, v in enumerate(values.tolist())]


def _same(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return type(got) is float and got.hex() == float(want).hex()


@pytest.mark.parametrize("ph", [COPPER, LATTICE], ids=["linear", "full-sine"])
@pytest.mark.parametrize("wc", [None, 1e1, 3.3e4, 1e9, 1e15, 1e300, 1e-300])
@pytest.mark.parametrize("lam", [1.0, 2.5e-3])
def test_lambda_eff_column_is_the_one_rc_call(ph, wc, lam):
    # every entry of one batched column is the one-rc call's value or error,
    # bit for bit: the dispersion picks the route, lambda_eff's closed form for
    # linear and lambda_eff_quad's at DEFAULT_TOL for the full sine. The bad
    # rc at the end fail alone with the CollapseParams message, and the
    # quadrature's failures stay on their own rc. The closed form's entries
    # are its formula in Python floats, lam where 4 x^2 / 3 overflows (there
    # lam_eff/lam = 1 - 5/(2 x^2) + O(x^-4) is 1.0 in floats)
    n = WHITE if wc is None else exponential(wc)
    one = lambda_eff_quad if ph.dispersion else lambda p, n, ph: lambda_eff(n, ph, p.rc, p.lam)
    col = _entries(lambda_eff_column(n, ph, COLUMN_RCS, lam=lam))
    for rc, got in zip(COLUMN_RCS, col):
        p = _scalar(CollapseParams, lam, rc)
        want = p if isinstance(p, Exception) else _scalar(one, p, n, ph)
        assert _same(got, want), (rc, got, want)
        if ph is COPPER and not isinstance(p, Exception):
            x = 0.0 if wc is None else rc * wc / ph.v_s
            q = 4.0 * x * x / 3.0
            floats = lam if wc is None or q == math.inf else lam * q * _phonon_bracket(x)
            assert _same(got, floats), (rc, got, floats)
    rate = [_scalar(heating_rate, CollapseParams(lam, rc), n, ph) for rc in COLUMN_RCS[:-3]]
    assert all(_same(r, 0.75 * CONSTANTS.hbar**2 / (rc**2 * CONSTANTS.m0**2) * v)
               if not isinstance(v, Exception) else _same(r, v)
               for rc, r, v in zip(COLUMN_RCS, rate, col))
    if ph is COPPER:
        # the quadrature helper batches any dispersion: a linear column
        # through it is lambda_eff_quad's at each rc
        rcs = np.array(COLUMN_RCS[:-3])
        out, errors = np.full(rcs.size, math.nan), {}
        _quad_rows(n, ph, rcs, list(range(rcs.size)), lam, DEFAULT_TOL, out, errors)
        for rc, got in zip(COLUMN_RCS, _entries((out, errors))):
            want = _scalar(lambda_eff_quad, CollapseParams(lam, rc), n, ph)
            assert _same(got, want), (rc, got, want)
    if ph is LATTICE and wc == 1e1:
        kinds = [type(v).__name__ for v in col]
        assert kinds[:2] == ["QuadratureNotConverged"] * 2 and kinds[4] == "float"
    if ph is COPPER and wc is not None:
        # the linear bracket as a column (numpy arithmetic, libm per element)
        # is the one-rc call's at every x: a seeded sample, and 64 rc either
        # side of those that put x at 5e-324, 20 (the series switch), 1e154
        # (1/x^2 subnormal), 1.2e154 (4 x^2 / 3 overflows) and 1e155 (x^2 does)
        rng = np.random.default_rng(24)
        targets = np.array([5e-324, 20.0, 1e154, 1.2e154, 1e155])
        with np.errstate(all="ignore"):  # rc past 1.8e308 is inf, an error either way
            sample = 10.0 ** rng.uniform(-4.0, 160.0, 2000) * ph.v_s / wc
            near = targets[:, None] * ph.v_s / wc
            near = near + np.spacing(near) * np.arange(-64, 65)
        rcs = [5e-324, *sample.tolist(), *near.ravel().tolist(), math.nan]
        for rc, got in zip(rcs, _entries(lambda_eff_column(n, ph, rcs, lam=lam))):
            want = _scalar(lambda_eff, n, ph, rc, lam)
            assert _same(got, want), (rc, got, want)
        if wc == 1e1:  # where every case above is reached: x = 0 at rc = 5e-324
            with np.errstate(all="ignore"):
                x = np.array(rcs) * wc / ph.v_s
            for t in (0.0, 5e-324, math.nextafter(20.0, 0.0), 20.0, math.nextafter(20.0, 21.0)):
                assert (x == t).any(), t


@pytest.mark.parametrize("ph", [COPPER, LATTICE], ids=["linear", "full-sine"])
def test_seed_edges_are_the_per_rc_merge(ph):
    # _y_edges builds the seed edges of a whole rc column in one pass; each
    # rc's are the per-rc merge_edges construction's, bit for bit, on the
    # full-sine pin's grid and cutoffs. The full sine's rc below 1.6e-13 m
    # have more periods in [0, 40] than the panel budget, and get no edges
    grid = np.geomspace(1e-13, 1e-3, 120)
    knees = fine = 0
    for n in [WHITE] + [exponential(w) for w in (1e1, 1e4, 1e6, 1e9, 1e12, 1e-300)]:
        edges, too_fine = _y_edges(n, ph, grid)
        assert len(edges) == grid.size - too_fine.sum()
        edges = iter(edges)
        for rc, bad in zip(grid.tolist(), too_fine.tolist()):
            if n.is_white:
                want = _Y_EDGES
            elif ph.dispersion is None:
                want = merge_edges(0.0, 40.0, _Y_EDGES, rc * n.omega_c / ph.v_s * _LINEAR_KNEES)
            else:
                period = math.pi * rc / ph.dispersion.plane_spacing
                if 40.0 / period > 20000:
                    assert bad
                    fine += 1
                    continue
                want = _Y_EDGES if period >= 40.0 else merge_edges(
                    0.0, 40.0, _Y_EDGES, period * np.arange(1, int(40.0 / period) + 1))
            got = next(edges)
            assert not bad and got.tobytes() == want.tobytes(), (n, rc)
            knees += got.size > _Y_EDGES.size
    assert knees > 100 and fine == (6 * 3 if ph.dispersion else 0)


def test_lambda_eff_quad_checks_tol_on_entry():
    # the reference quadrature keeps its tolerance and rejects one outside
    # (0, 1e-2) before any work, for either dispersion and at lam = 0 too
    for ph in (LATTICE, COPPER):
        for p in (CollapseParams(1.0, 1e-7), CollapseParams(0.0, 1e-7)):
            with pytest.raises(ValidationError, match="tol"):
                lambda_eff_quad(p, exponential(1e4), ph, tol=0.5)


# --- cold atoms --------------------------------------------------------------------

def test_cold_atom_zero_time():
    ca = ColdAtomDescriptor(87.0, 1.4431606e-25, 0.0)
    assert cold_atom_diffusion(GRW, exponential(10.0), ca) == 0.0
    assert cold_atom_diffusion(GRW, WHITE, ca) == 0.0


def test_cold_atom_white_cubic_growth():
    c = CONSTANTS
    got = cold_atom_diffusion(GRW, WHITE, RB87)
    want = (0.75 * GRW.lam * 87.0**2 * c.hbar**2
            / (RB87.atom_mass**2 * GRW.rc**2)) * RB87.expansion_time**3
    assert got == pytest.approx(want, rel=1e-13)


def test_cold_atom_bracket_at_t_equals_tau():
    tau = 0.37
    assert _cold_bracket(tau, tau) == pytest.approx(
        ONE_MINUS_2_OVER_E * tau**3, rel=1e-12)


def test_cold_atom_noise_factor_scales_the_white_diffusion():
    # the factor is the whole noise dependence: white diffusion x factor
    # is the colored diffusion, at any rc and lam
    assert cold_atom_noise_factor(WHITE, RB87) == 1.0
    for wc in (1e-6, 1e-1, 1.0, 1e3, 1e9):
        n = exponential(wc)
        f = cold_atom_noise_factor(n, RB87)
        assert 0.0 < f <= 1.0
        for p in (GRW, CollapseParams(lam=3e-9, rc=4e-6)):
            assert cold_atom_diffusion(p, WHITE, RB87) * f == pytest.approx(
                cold_atom_diffusion(p, n, RB87), rel=1e-14)


def test_cold_bracket_against_fixtures():
    tau = 1.7
    for s, b in COLD_BRACKET_TABLE:
        assert _cold_bracket(s * tau, tau) == pytest.approx(
            b * tau**3, rel=1e-10), f"s={s}"


def test_cold_bracket_series_branch_continuity():
    tau = 2.3
    s = 1e-3
    lo = _cold_bracket(s * (1 - 1e-10) * tau, tau)
    hi = _cold_bracket(s * (1 + 1e-10) * tau, tau)
    assert lo == pytest.approx(hi, rel=1e-9)


def test_cold_atom_monotone_in_time():
    n = exponential(3.0)
    prev = -1.0
    for t in np.linspace(0.0, 5.0, 60):
        ca = ColdAtomDescriptor(87.0, 1.4431606e-25, float(t))
        v = cold_atom_diffusion(GRW, n, ca)
        assert v >= prev
        prev = v


def test_cold_atom_nonnegative_always():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = 10 ** rng.uniform(-9, 3)
        wc = 10 ** rng.uniform(-6, 12)
        ca = ColdAtomDescriptor(87.0, 1.4431606e-25, t)
        assert cold_atom_diffusion(GRW, exponential(wc), ca) >= 0.0


# --- cross-cutting invariants -------------------------------------------------------

def test_white_limit_recovery_all_predictors():
    # exponential noise with omega_c = 1e6 * (probe scale) must agree with
    # the white counterpart to 1e-6 relative
    d = sphere(1e-5, density=1000.0)
    w = 2 * math.pi * 100.0
    n = exponential(1e6 * w)
    assert dns_ccsl(d, GRW, n, w) == pytest.approx(
        dns_ccsl(d, GRW, WHITE, w), rel=1e-6)
    assert xray_rate(GRW, exponential(1e6 * 1e19), 1e19) == pytest.approx(
        xray_rate(GRW, WHITE, 1e19), rel=1e-6)
    w_ph = COPPER.v_s / GRW.rc
    assert lambda_eff(exponential(1e6 * w_ph), COPPER, GRW.rc, GRW.lam) == pytest.approx(
        GRW.lam, rel=1e-6)
    assert heating_rate(GRW, exponential(1e6 * w_ph), COPPER) == pytest.approx(
        heating_rate(GRW, WHITE, COPPER), rel=1e-6)
    w_ca = 1.0 / RB87.expansion_time
    assert cold_atom_diffusion(GRW, exponential(1e6 * w_ca), RB87) == pytest.approx(
        cold_atom_diffusion(GRW, WHITE, RB87), rel=1e-6)


def test_everything_homogeneous_degree_one_in_lambda():
    d = sphere(1e-5, density=1000.0)
    n = exponential(1e4)
    p1 = CollapseParams(3e-12, 1e-7)
    p2 = CollapseParams(6e-12, 1e-7)
    checks = [
        (eta(d, p1).value, eta(d, p2).value),
        (dns_ccsl(d, p1, n, 100.0), dns_ccsl(d, p2, n, 100.0)),
        (xray_rate(p1, n, 1e19), xray_rate(p2, n, 1e19)),
        (lambda_eff(n, COPPER, p1.rc, p1.lam), lambda_eff(n, COPPER, p2.rc, p2.lam)),
        (heating_rate(p1, n, COPPER), heating_rate(p2, n, COPPER)),
        (cold_atom_diffusion(p1, n, RB87), cold_atom_diffusion(p2, n, RB87)),
    ]
    for single, double in checks:
        assert double == pytest.approx(2.0 * single, rel=1e-12)


@pytest.mark.parametrize("ph", [COPPER, LATTICE], ids=["linear", "full-sine"])
@pytest.mark.parametrize("lam, rc", [(-1e-16, 1e-7), (math.nan, 1e-7), (math.inf, 1e-7),
                                     (1e-16, 0.0), (1e-16, -1e-7), (1e-16, math.inf)])
def test_lambda_eff_rejects_what_collapse_params_rejects(ph, lam, rc):
    # lambda_eff takes lam and rc as floats, and raises the error and message
    # that CollapseParams(lam, rc) raises
    with pytest.raises((NegativeLambda, NonPositiveRc)) as want:
        CollapseParams(lam, rc)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        lambda_eff(exponential(1e4), ph, rc, lam)
