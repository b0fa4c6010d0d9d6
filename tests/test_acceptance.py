"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or `-rP`). Tolerances are fixed
here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from ccsl import (CONSTANTS, Ceiling, CollapseParams, ColdAtomDescriptor,
                  PhononModel, WHITE, WashedOut, cold_atom_diffusion, dns_ccsl,
                  envelope, exponential, eta_reduced, heating_rate,
                  lambda_eff, lambda_eff_quad, lambda_max_coldatom,
                  lambda_max_for, lambda_max_force, lambda_max_heating,
                  lambda_max_xray, load, load_all_bundled, normalized_xray_rate,
                  scan, spectrum, sphere, xray_rate)
from ccsl.predict import _erfcx, _phonon_bracket
from fixtures import ERFCX_TABLE

COPPER = PhononModel(v_s=3000.0)
RB87 = ColdAtomDescriptor(mass_number=87.0, atom_mass=1.4431606e-25,
                          expansion_time=1.0)


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}")
        raise
    print(f"CRITERION {number}: PASS - {description}")


def test_criterion_1_phonon_closed_quad_equivalence():
    def body():
        t0 = time.perf_counter()
        rc = 1e-7
        for x in np.geomspace(1e-3, 1e3, 25):
            p = CollapseParams(1.0, rc)
            n = exponential(x * COPPER.v_s / rc)
            q = lambda_eff_quad(p, n, COPPER, tol=1e-9)
            c = lambda_eff(n, COPPER, rc)
            assert abs(q / c - 1.0) <= 1e-8, f"x={x}: {q} vs {c}"
        assert time.perf_counter() - t0 < 10.0
    _report(1, "lambda_eff quadrature matches closed form to 1e-8 over "
               "x in [1e-3, 1e3] in under 10 s", body)


def test_criterion_2_white_limit_recovery():
    def body():
        d = sphere(1e-5, density=1000.0)
        p = CollapseParams(1e-12, 1e-7)
        w = 2 * math.pi * 100.0
        assert abs(dns_ccsl(d, p, exponential(1e6 * w), w)
                   / dns_ccsl(d, p, WHITE, w) - 1.0) <= 1e-6
        w_x = 1e19
        assert abs(xray_rate(p, exponential(1e6 * w_x), w_x)
                   / xray_rate(p, WHITE, w_x) - 1.0) <= 1e-6
        w_ph = COPPER.v_s / p.rc
        assert abs(lambda_eff(exponential(1e6 * w_ph), COPPER, p.rc, p.lam)
                   / p.lam - 1.0) <= 1e-6
        assert abs(lambda_eff_quad(p, exponential(1e6 * w_ph), COPPER, tol=1e-9)
                   / p.lam - 1.0) <= 1e-6
        assert abs(heating_rate(p, exponential(1e6 * w_ph), COPPER)
                   / heating_rate(p, WHITE, COPPER) - 1.0) <= 1e-6
        # the cold-atom deviation at omega_c = 1e6/t is exactly
        # 1e-6 - 2e-18 in real arithmetic; grant one part in 1e9 of the
        # bound for double rounding of the ratio
        w_ca = 1.0 / RB87.expansion_time
        assert abs(cold_atom_diffusion(p, exponential(1e6 * w_ca), RB87)
                   / cold_atom_diffusion(p, WHITE, RB87) - 1.0) <= 1e-6 * (1 + 1e-9)
    _report(2, "every predictor at omega_c = 1e6 x probe scale matches its "
               "white counterpart to 1e-6", body)


def test_criterion_3_point_mass_identity():
    def body():
        rho = 2500.0
        for rc in np.geomspace(1e-9, 1e-3, 13):
            R = rc / 100.0
            m = rho * 4.0 / 3.0 * math.pi * R**3
            got = eta_reduced(sphere(R, density=rho), rc).value
            want = m * m / (2.0 * CONSTANTS.m0**2 * rc * rc)
            assert abs(got / want - 1.0) <= 0.01, f"rc={rc}"
    _report(3, "sphere eta reproduces the point-mass eta within 1% "
               "for rc >= 100 R across rc in [1e-9, 1e-3] m", body)


def test_criterion_4_xray_bound_point():
    def body():
        got = lambda_max_xray(Ceiling("xray_normalized", 803.0, probe=1e19), WHITE, 1e-7)
        assert abs(got / 8.03e-12 - 1.0) <= 1e-3
    _report(4, "white X-ray inversion at rc = 1e-7 m gives "
               "lambda_max = 8.03e-12 s^-1 within 0.1%", body)


def test_criterion_5_cutoff_weakening_ratios():
    def body():
        cant = load("cantilever")
        white = lambda_max_force(cant.geometry, cant.ceiling, WHITE, 1e-7)
        colored = lambda_max_force(cant.geometry, cant.ceiling,
                                   exponential(1e4), 1e-7)
        expect = 1.0 + (2 * math.pi * 8174.01 / 1e4) ** 2
        assert abs(colored / white / expect - 1.0) <= 1e-3
        cx = Ceiling("xray_normalized", 803.0, probe=1e19)
        w = lambda_max_xray(cx, WHITE, 1e-7)
        c = lambda_max_xray(cx, exponential(1e15), 1e-7)
        assert abs(c / w / (1.0 + 1e8) - 1.0) <= 1e-3
    _report(5, "cutoff weakening: cantilever 27.38x at omega_c = 1e4, "
               "X-ray (1 + 1e8)x at omega_c = 1e15", body)


def test_criterion_6_round_trip_identity():
    def body():
        rng = np.random.default_rng(2024)
        cant = load("cantilever")
        for _ in range(20):
            rc = 10 ** rng.uniform(-9, -3)
            n = exponential(10 ** rng.uniform(0, 14))

            lm = lambda_max_force(cant.geometry, cant.ceiling, n, rc)
            back = dns_ccsl(cant.geometry, CollapseParams(lm, rc), n,
                            cant.ceiling.probe)
            assert abs(back / cant.ceiling.value - 1.0) <= 1e-10

            cx = Ceiling("xray_normalized", 803.0, probe=1e19)
            lm = lambda_max_xray(cx, n, rc)
            assert abs(normalized_xray_rate(CollapseParams(lm, rc), n, 1e19)
                       / 803.0 - 1.0) <= 1e-10

            ch = Ceiling("heating_power", 1e-11)
            lm = lambda_max_heating(ch, n, COPPER, rc)
            assert abs(heating_rate(CollapseParams(lm, rc), n, COPPER)
                       / 1e-11 - 1.0) <= 1e-10

            cc = Ceiling("position_variance", 4.8e-9)
            lm = lambda_max_coldatom(cc, n, RB87, rc)
            assert abs(cold_atom_diffusion(CollapseParams(lm, rc), n, RB87)
                       / 4.8e-9 - 1.0) <= 1e-10
    _report(6, "inverting then predicting returns each ceiling to 1e-10 on "
               "20 random (rc, omega_c) draws for every experiment kind", body)


def test_criterion_7_monotonicity_suite():
    def body():
        rc = 1e-7
        for exp in load_all_bundled():
            vals = []
            for wc in np.geomspace(1e-2, 1e16, 30):
                try:
                    vals.append(lambda_max_for(exp, exponential(wc), rc))
                except WashedOut:
                    vals.append(float("inf"))
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-10), exp.id
            assert lambda_max_for(exp, WHITE, rc) <= vals[-1] * (1 + 1e-10)
        # spectrum monotone in |omega| and in omega_c
        n = exponential(1e3)
        ws = np.geomspace(1e-2, 1e8, 50)
        sv = spectrum(n, ws)
        assert np.all(np.diff(sv) < 0)
        sc = [spectrum(exponential(wc), 1e3) for wc in ws]
        assert all(b >= a for a, b in zip(sc, sc[1:]))
        # cold-atom diffusion monotone in expansion time
        p = CollapseParams(1e-12, 1e-7)
        n = exponential(3.0)
        prev = -1.0
        for t in np.linspace(0.0, 5.0, 40):
            v = cold_atom_diffusion(p, n, ColdAtomDescriptor(87.0, 1.4431606e-25,
                                                             float(t)))
            assert v >= prev
            prev = v
    _report(7, "lambda_max non-increasing in omega_c for all bundled "
               "experiments; spectrum and cold-atom monotonicity", body)


def test_criterion_8_full_scan_and_low_cutoff_panel():
    def body():
        t0 = time.perf_counter()
        exps = load_all_bundled()
        grid = np.geomspace(1e-9, 1e-3, 60)
        panels = {}
        for token, n in (("inf", WHITE), ("1e15", exponential(1e15)),
                         ("1e4", exponential(1e4)), ("1e1", exponential(1e1))):
            curves = scan(exps, [n], grid)[0]
            envelope(curves)  # must compose cleanly
            panels[token] = {c.experiment_id: c for c in curves}
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"scan took {elapsed:.1f} s"
        # omega_c = 10 rad/s panel: every force experiment probing above
        # 1e3 rad/s is weakened by at least 1e4 relative to white
        for exp in exps:
            if exp.kind != "optomechanical":
                continue
            probe = exp.ceiling.probe
            w = probe[0] if isinstance(probe, tuple) else probe
            if w <= 1e3:
                continue
            white_pts = dict(panels["inf"][exp.id].points)
            low_pts = dict(panels["1e1"][exp.id].points)
            assert white_pts and low_pts, exp.id
            for rc in white_pts:
                assert low_pts[rc] / white_pts[rc] >= 1e4, (exp.id, rc)
    _report(8, "full 4-panel scan over 60 rc points finishes in time; at "
               "omega_c = 10 rad/s every >1e3 rad/s force probe weakens by "
               ">= 1e4", body)


def test_criterion_9_scaled_erfc_stability():
    def body():
        vals = np.array([_erfcx(float(x)) for x in np.geomspace(1e-3, 1e9, 400)])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        for x, ref in ERFCX_TABLE:
            assert abs(_erfcx(x) / ref - 1.0) <= 1e-12, f"x={x}"
        # the phonon bracket built on it stays finite and positive to x = 1e9
        for x in np.geomspace(1e-3, 1e9, 40):
            b = _phonon_bracket(float(x))
            assert math.isfinite(b) and b > 0
    _report(9, "e^{x^2} erfc(x) finite, positive, monotone to x = 1e9 and "
               "matching 20 high-precision fixtures to 1e-12", body)
