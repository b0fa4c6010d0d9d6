import math
import warnings

import numpy as np
import pytest
from scipy.special import erfcx as scipy_erfcx

from ccsl import (CONSTANTS, CollapseParams, ColdAtomDescriptor,
                  FullSineDispersion, MechanicalOscillator, NonPositiveFrequency,
                  PhononModel, UnsupportedDispersion, ValidationError, WHITE,
                  cold_atom_diffusion, cuboid, dns_ccsl, dns_total, exponential,
                  eta, heating_rate, lambda_eff_closed, lambda_eff_quad,
                  normalized_xray_rate, point_mass, sphere, xray_rate)
from ccsl.predict import (_cold_bracket, _erfcx, _phonon_bracket, cold_atom_noise_factor,
                          lambda_eff_column)
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
    assert lambda_eff_closed(GRW, WHITE, COPPER) == GRW.lam
    assert lambda_eff_quad(GRW, WHITE, COPPER) == pytest.approx(GRW.lam, rel=1e-9)


def test_lambda_eff_closed_against_fixtures():
    for x, ratio in PHONON_RATIO_TABLE:
        rc = 1e-7
        wc = x * COPPER.v_s / rc
        p = CollapseParams(1.0, rc)
        got = lambda_eff_closed(p, exponential(wc), COPPER)
        assert got == pytest.approx(ratio, rel=1e-10), f"x={x}"


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
        c = lambda_eff_closed(p, n, COPPER)
        assert q == pytest.approx(c, rel=1e-8), f"x={x}"


def test_lambda_eff_ratio_in_unit_interval_and_monotone():
    rc = 1e-7
    xs = np.geomspace(1e-4, 1e6, 40)
    vals = [lambda_eff_closed(CollapseParams(1.0, rc),
                              exponential(x * COPPER.v_s / rc), COPPER)
            for x in xs]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_eff_asymptote():
    p = CollapseParams(1.0, 1e-7)
    v = lambda_eff_closed(p, exponential(100.0 * COPPER.v_s / 1e-7), COPPER)
    assert 0.999 <= v <= 1.0


def test_lambda_eff_closed_rejects_full_sine():
    disp = FullSineDispersion(9e5, 1e-25, 1e-10)
    ph = PhononModel(v_s=disp.sound_speed(), dispersion=disp)
    with pytest.raises(UnsupportedDispersion):
        lambda_eff_closed(GRW, exponential(1e4), ph)


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
    # bit for bit; the bad rc at the end fail alone with the CollapseParams
    # message, and the quadrature's failures stay on their own rc. The closed
    # form's entries are its formula in Python floats, NaN where x^2 overflows
    n = WHITE if wc is None else exponential(wc)
    routes = [(False, lambda_eff_quad)] + [(True, lambda_eff_closed)] * (ph is COPPER)
    for closed, one in routes:
        col = _entries(lambda_eff_column(n, ph, COLUMN_RCS, lam=lam, closed=closed))
        for rc, got in zip(COLUMN_RCS, col):
            p = _scalar(CollapseParams, lam, rc)
            want = p if isinstance(p, Exception) else _scalar(one, p, n, ph)
            assert _same(got, want), (closed, rc, got, want)
            if closed and not isinstance(p, Exception):
                x = 0.0 if wc is None else rc * wc / ph.v_s
                floats = lam if wc is None else lam * (4.0 * x * x / 3.0) * _phonon_bracket(x)
                assert _same(got, floats), (rc, got, floats)
        rate = [_scalar(heating_rate, CollapseParams(lam, rc), n, ph) for rc in COLUMN_RCS[:-3]]
        if closed == (ph.dispersion is None):
            assert all(_same(r, 0.75 * CONSTANTS.hbar**2 / (rc**2 * CONSTANTS.m0**2) * v)
                       if not isinstance(v, Exception) else _same(r, v)
                       for rc, r, v in zip(COLUMN_RCS, rate, col))
    if ph is LATTICE and wc == 1e1:
        kinds = [type(v).__name__ for v in col]
        assert kinds[:2] == ["QuadratureNotConverged"] * 2 and kinds[4] == "float"


def test_lambda_eff_column_bad_tol_fails_each_quadrature_point():
    col = _entries(lambda_eff_column(exponential(1e4), LATTICE, [1e-7, -1.0], tol=0.5))
    assert [type(v) for v in col] == [ValidationError, type(_scalar(CollapseParams, 1.0, -1.0))]
    with pytest.raises(ValidationError, match="tol"):
        lambda_eff_quad(CollapseParams(1.0, 1e-7), exponential(1e4), LATTICE, tol=0.5)
    # the closed form takes no tolerance
    assert _entries(lambda_eff_column(exponential(1e4), COPPER, [1e-7], tol=0.5))[0] > 0.0


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
    assert lambda_eff_closed(GRW, exponential(1e6 * w_ph), COPPER) == pytest.approx(
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
        (lambda_eff_closed(p1, n, COPPER), lambda_eff_closed(p2, n, COPPER)),
        (heating_rate(p1, n, COPPER), heating_rate(p2, n, COPPER)),
        (cold_atom_diffusion(p1, n, RB87), cold_atom_diffusion(p2, n, RB87)),
    ]
    for single, double in checks:
        assert double == pytest.approx(2.0 * single, rel=1e-12)
