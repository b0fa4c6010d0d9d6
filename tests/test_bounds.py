import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ccsl import (CONSTANTS, Ceiling, CollapseParams, ColdAtomDescriptor,
                  CompositeCrossTermUnsupported, EmptyInput, ExclusionCurve, NonPositiveRc, PhononModel, ValidationError,
                  WHITE, WashedOut,
                  cold_atom_diffusion, cuboid, dns_ccsl, envelope, exponential,
                  heating_rate, lambda_max_coldatom, lambda_max_for,
                  lambda_max_force, lambda_max_heating, lambda_max_xray,
                  load, load_all_bundled, normalized_xray_rate, parse_config,
                  scan, sphere)
from ccsl import bounds
from ccsl.diffusion import clear_cache
from ccsl.predict import _phonon_bracket
from fixtures import CANTILEVER_RATIO, HEATING_WHITE_LMAX, LATTICE_HEATING

COPPER = PhononModel(v_s=3000.0)
RB87 = ColdAtomDescriptor(mass_number=87.0, atom_mass=1.4431606e-25,
                          expansion_time=1.0)
CANTILEVER_SPHERE = sphere(15.5e-6, density=7.43e3, measurement_axis=(0, 0, 1))
CANTILEVER_CEILING = Ceiling("force_psd", 1.87e-36, probe=2 * math.pi * 8174.01)


def test_ceiling_validation():
    with pytest.raises(ValidationError):
        Ceiling("force_psd", -1.0, probe=1.0)
    with pytest.raises(ValidationError):
        Ceiling("force_psd", 1.0)  # missing probe
    with pytest.raises(ValidationError):
        Ceiling("force_psd", 1.0, probe=(5.0, 2.0))  # inverted band
    with pytest.raises(ValidationError):
        Ceiling("heating_power", 1.0, probe=(1.0, 2.0))  # band not allowed
    with pytest.raises(ValidationError):
        Ceiling("xray_normalized", 1.0)  # needs omega_obs
    with pytest.raises(ValidationError):
        Ceiling("luminosity", 1.0)


# --- force-PSD inversion --------------------------------------------------------

def test_force_white_probe_independent():
    d = CANTILEVER_SPHERE
    a = lambda_max_force(d, Ceiling("force_psd", 1e-36, probe=10.0), WHITE, 1e-7)
    b = lambda_max_force(d, Ceiling("force_psd", 1e-36, probe=1e6), WHITE, 1e-7)
    assert a == b


def test_force_linearity_in_ceiling():
    d = CANTILEVER_SPHERE
    one = lambda_max_force(d, Ceiling("force_psd", 1e-36, probe=10.0), WHITE, 1e-7)
    two = lambda_max_force(d, Ceiling("force_psd", 2e-36, probe=10.0), WHITE, 1e-7)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_cantilever_cutoff_weakening_ratio():
    colored = lambda_max_force(CANTILEVER_SPHERE, CANTILEVER_CEILING,
                               exponential(1e4), 1e-7)
    white = lambda_max_force(CANTILEVER_SPHERE, CANTILEVER_CEILING, WHITE, 1e-7)
    assert colored / white == pytest.approx(CANTILEVER_RATIO, rel=1e-3)


def test_band_ceiling_uses_lower_edge():
    d = CANTILEVER_SPHERE
    n = exponential(50.0)
    band = Ceiling("force_psd", 1e-36, probe=(100.0, 200.0))
    lo_only = Ceiling("force_psd", 1e-36, probe=100.0)
    assert lambda_max_force(d, band, n, 1e-7) == lambda_max_force(d, lo_only, n, 1e-7)


# --- X-ray inversion --------------------------------------------------------------

def test_xray_white_point():
    got = lambda_max_xray(Ceiling("xray_normalized", 803.0, probe=1e19),
                          WHITE, 1e-7, omega_obs=1e19)
    assert got == pytest.approx(8.03e-12, rel=1e-3)


def test_xray_cutoff_inflation():
    ceiling = Ceiling("xray_normalized", 803.0, probe=1e19)
    white = lambda_max_xray(ceiling, WHITE, 1e-7, 1e19)
    colored = lambda_max_xray(ceiling, exponential(1e15), 1e-7, 1e19)
    assert colored / white == pytest.approx(1.0 + 1e8, rel=1e-3)


def test_xray_scales_with_rc_squared():
    ceiling = Ceiling("xray_normalized", 803.0, probe=1e19)
    a = lambda_max_xray(ceiling, WHITE, 1e-7, 1e19)
    b = lambda_max_xray(ceiling, WHITE, 2e-7, 1e19)
    assert b == pytest.approx(4.0 * a, rel=1e-14)


@pytest.mark.parametrize("rc", [-1e-7, 0.0, math.nan, math.inf])
def test_xray_rejects_bad_rc(rc):
    with pytest.raises(NonPositiveRc):
        lambda_max_xray(load("xray").ceiling, WHITE, rc, 1e19)


def test_scan_collects_xray_bad_rc_as_error():
    seen = []
    curves = scan([load("xray")], [WHITE], [-1e-7, 1e-7],
                  on_error=lambda i, _, rc, e: seen.append((rc, type(e))))[0]
    assert [rc for rc, _ in curves[0].points] == [1e-7]
    assert seen == [(-1e-7, NonPositiveRc)]


# --- heating inversion --------------------------------------------------------------

def test_heating_white_point():
    got = lambda_max_heating(Ceiling("heating_power", 1e-11), WHITE, COPPER, 1e-7)
    # independent oracle: plain constant lookup and multiplication
    want = 1e-11 * 4.0 * 1e-14 * CONSTANTS.m0**2 / (3.0 * CONSTANTS.hbar**2)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(HEATING_WHITE_LMAX, rel=1e-12)
    assert got == pytest.approx(3.35e-11, rel=2e-3)


def test_heating_white_strongest():
    ceiling = Ceiling("heating_power", 1e-11)
    white = lambda_max_heating(ceiling, WHITE, COPPER, 1e-7)
    for wc in (1e2, 1e8, 1e14):
        assert white <= lambda_max_heating(ceiling, exponential(wc), COPPER, 1e-7)


def test_heating_washed_out_at_tiny_cutoff():
    with pytest.raises(WashedOut):
        lambda_max_heating(Ceiling("heating_power", 1e-11),
                           exponential(1e-10), COPPER, 1e-7)


def _heating_in_floats(exp, n, rc):
    """lambda_max_heating's linear closed form in Python floats, NaN where
    scan keeps no point (washed out, or lam_max out of (0, inf))."""
    if n.is_white:
        ratio = 1.0
    else:
        x = rc * n.omega_c / exp.phonon.v_s
        ratio = 1.0 * (4.0 * x * x / 3.0) * _phonon_bracket(x)
    c = CONSTANTS
    lm = exp.ceiling.value * 4.0 * rc * rc * c.m0**2 / (3.0 * c.hbar**2) / ratio
    return lm if ratio >= bounds._WASHOUT_RATIO and 0.0 < lm < math.inf else math.nan


def test_heating_column_is_the_scalar_route(monkeypatch):
    # scan inverts one lambda_eff column per noise; each point and each
    # logged error is lambda_max_heating's at that rc, bit for bit, for a
    # bad rc and a bad tol too, and at an rc where lambda_max overflows, which
    # scan reports as WashedOut. The linear model's points are the closed
    # form in Python floats, with x = rc Wc / v_s on both sides of the
    # bracket's switch at 20 (1e12), above it everywhere (1e15), and past
    # where x^2 overflows (1e300). The grid is short, so the column is
    # switched on for it (a full-sine grid takes it at every size).
    exps = [load("bulk-heating"), parse_config(LATTICE_HEATING)]
    noises = [WHITE, exponential(1e1), exponential(3.3e4), exponential(1e12),
              exponential(1e15), exponential(1e300)]
    grid = [-1e-9, 1e-12, 2e-9, 1e-8, 1e-6, 1e-4, 1e160]
    monkeypatch.setattr(bounds, "_COLUMN_FROM", len(grid))
    for tol in (1e-8, 1e-6, 0.5):
        errors = []
        panels = scan(exps, noises, grid, tol=tol, on_error=lambda i, n, rc, e: errors.append(
            (i, n, rc, type(e), str(e))))
        expected = []
        for exp in exps:
            for n, curves in zip(noises, panels):
                lams = []
                for rc in grid:
                    try:
                        lm = lambda_max_heating(exp.ceiling, n, exp.phonon, rc, tol)
                        if not 0.0 < lm < math.inf:
                            raise WashedOut(f"lambda_max out of float range at rc={rc:.3e}")
                        lams.append(lm)
                    except Exception as err:
                        lams.append(math.nan)
                        expected.append((exp.id, n, rc, type(err), str(err)))
                got = curves[exps.index(exp)].lam
                assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in lams]
                if exp.phonon.dispersion is None:
                    assert [v.hex() for v in got.tolist()[1:]] == [
                        _heating_in_floats(exp, n, rc).hex() for rc in grid[1:]]
        assert errors == expected
        assert {t.__name__ for *_, t, _ in errors} >= {"NonPositiveRc", "QuadratureNotConverged"
                                                      if tol < 0.5 else "ValidationError"}


def test_short_full_sine_grid_is_one_batched_quadrature(monkeypatch):
    # below _COLUMN_FROM a linear-dispersion grid goes point by point, but a
    # full-sine one still takes one lambda_eff column, one batched
    # quadrature, per noise rather than one quadrature per rc
    sizes = []

    def column(n, ph, rc, tol, _column=bounds.lambda_eff_column):
        sizes.append((ph.dispersion is None, len(rc)))
        return _column(n, ph, rc, tol)

    monkeypatch.setattr(bounds, "lambda_eff_column", column)
    scan([load("bulk-heating"), parse_config(LATTICE_HEATING)], [WHITE, exponential(1e4)],
         [1e-8, 1e-7, 1e-6])
    assert sizes == [(False, 3), (False, 3)]


# --- cold-atom inversion --------------------------------------------------------------

def test_coldatom_linearity():
    one = lambda_max_coldatom(Ceiling("position_variance", 1e-9), WHITE, RB87, 1e-7)
    half = lambda_max_coldatom(Ceiling("position_variance", 5e-10), WHITE, RB87, 1e-7)
    assert half == pytest.approx(0.5 * one, rel=1e-14)


def test_coldatom_huge_cutoff_equals_white():
    ceiling = Ceiling("position_variance", 1e-9)
    white = lambda_max_coldatom(ceiling, WHITE, RB87, 1e-7)
    colored = lambda_max_coldatom(ceiling, exponential(1e12), RB87, 1e-7)
    assert colored == pytest.approx(white, rel=1e-9)


def test_coldatom_monotone_in_cutoff():
    ceiling = Ceiling("position_variance", 1e-9)
    vals = [lambda_max_coldatom(ceiling, exponential(wc), RB87, 1e-7)
            for wc in np.geomspace(1e-3, 1e9, 25)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_coldatom_low_cutoff_stays_finite():
    # the free-expansion bound only softens by a factor 3 as the cutoff
    # drops below 1/t, so mechanical low-frequency experiments keep working
    ceiling = Ceiling("position_variance", 1e-9)
    white = lambda_max_coldatom(ceiling, WHITE, RB87, 1e-7)
    low = lambda_max_coldatom(ceiling, exponential(1e-6), RB87, 1e-7)
    assert low == pytest.approx(3.0 * white, rel=1e-3)


def test_coldatom_rc_whose_square_overflows_washes_out():
    # above rc ~ 1.34e154 m, rc^2 leaves the float range: the unit response,
    # which goes as 1/rc^2, is below every float, for white and colored noise
    ceiling = Ceiling("position_variance", 1e-9)
    for n in (WHITE, exponential(1e4)):
        for rc in (1.4e154, 1e160):
            with pytest.raises(WashedOut, match=r"unit-lam diffusion underflowed at rc=1\.\d{3}e\+1"):
                lambda_max_coldatom(ceiling, n, RB87, rc)


def test_scan_reports_every_point_it_drops():
    # above rc ~ 1.34e154 m the scalar route raises WashedOut; between about
    # 1.3e151 m and there the unit response is subnormal and
    # lambda_max_coldatom returns inf, which scan also drops as WashedOut:
    # every NaN cell has exactly one error
    assert lambda_max_coldatom(Ceiling("position_variance", 1e-9), WHITE, RB87,
                               1e154) == math.inf
    noises, errors = [WHITE, exponential(1e4)], []
    panels = scan([load("cold-atom")], noises, np.geomspace(1e150, 1e160, 14),
                  on_error=lambda i, n, rc, e: errors.append((n, rc, type(e), str(e))))
    dropped = [(n, rc) for n, (c,) in zip(noises, panels)
               for rc, lm in zip(c.rc.tolist(), c.lam.tolist()) if lm != lm]
    assert [(n, rc) for n, rc, _, _ in errors] == dropped and len(dropped) == 24
    assert {t for _, _, t, _ in errors} == {WashedOut}
    assert sum("lambda_max out of float range at rc=" in m for *_, m in errors) == 8


# --- round trips -----------------------------------------------------------------------

def test_round_trip_identities():
    rng = np.random.default_rng(123)
    d = CANTILEVER_SPHERE
    for _ in range(20):
        rc = 10 ** rng.uniform(-9, -3)
        wc = 10 ** rng.uniform(0, 14)
        n = exponential(wc)

        lm = lambda_max_force(d, CANTILEVER_CEILING, n, rc)
        back = dns_ccsl(d, CollapseParams(lm, rc), n, CANTILEVER_CEILING.probe)
        assert back == pytest.approx(CANTILEVER_CEILING.value, rel=1e-10)

        cx = Ceiling("xray_normalized", 803.0, probe=1e19)
        lm = lambda_max_xray(cx, n, rc, 1e19)
        assert normalized_xray_rate(CollapseParams(lm, rc), n, 1e19) == pytest.approx(
            803.0, rel=1e-10)

        ch = Ceiling("heating_power", 1e-11)
        try:
            lm = lambda_max_heating(ch, n, COPPER, rc)
        except WashedOut:
            pass
        else:
            assert heating_rate(CollapseParams(lm, rc), n, COPPER) == pytest.approx(
                1e-11, rel=1e-10)

        cc = Ceiling("position_variance", 1e-9)
        lm = lambda_max_coldatom(cc, n, RB87, rc)
        assert cold_atom_diffusion(CollapseParams(lm, rc), n, RB87) == pytest.approx(
            1e-9, rel=1e-10)


def test_lambda_max_monotone_in_cutoff_all_bundled():
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
        white = lambda_max_for(exp, WHITE, rc)
        assert white <= vals[-1] * (1 + 1e-10), exp.id


# --- scan and envelope -------------------------------------------------------------------

def test_scan_matches_single_point_ops():
    exps = load_all_bundled()
    grid = np.array([1e-7])
    curves = scan(exps, [WHITE], grid)[0]
    assert len(curves) == len(exps)
    for exp, curve in zip(exps, curves):
        assert curve.experiment_id == exp.id
        assert len(curve.points) == 1
        rc, lm = curve.points[0]
        assert rc == 1e-7
        assert lm == pytest.approx(lambda_max_for(exp, WHITE, 1e-7), rel=1e-14)


def test_scan_omits_washed_out_points():
    exp = load("bulk-heating")
    grid = np.geomspace(1e-9, 1e-3, 7)
    curves = scan([exp], [exponential(1e-10)], grid)[0]
    assert curves[0].points == ()  # every point washed out, none invented


def test_scan_low_cutoff_weakening():
    # at omega_c = 10 rad/s every force experiment probing above 1e3 rad/s
    # loses at least 1e4 in sensitivity
    grid = np.array([1e-7])
    for name in ("auriga", "cantilever"):
        exp = load(name)
        white = scan([exp], [WHITE], grid)[0][0].points[0][1]
        low = scan([exp], [exponential(10.0)], grid)[0][0].points[0][1]
        probe = exp.ceiling.probe
        w = probe[0] if isinstance(probe, tuple) else probe
        assert w > 1e3
        assert low / white >= 1e4
        assert low / white == pytest.approx(1.0 + (w / 10.0) ** 2, rel=1e-9)


def test_scan_grid_validation():
    exp = load("xray")
    with pytest.raises(EmptyInput):
        scan([exp], [WHITE], np.array([]))
    with pytest.raises(ValidationError) as info:
        scan([exp], [WHITE], np.array([1e-7, 1e-8]))
    assert info.value.field == "rc_grid"
    with pytest.raises(ValidationError):
        scan([exp], [WHITE], np.array([1e-7, 1e-7]))


def test_scan_error_collection():
    # a descriptor engineered to fail per point: composite with an
    # unsupported close pair
    from ccsl import composite, cylinder
    from ccsl.registry import ExperimentDescriptor
    bad_geom = composite([(sphere(0.1, mass=1.0), (0.15, 0, 0)),
                          (cylinder(0.05, 0.2, mass=1.0), (0, 0, 0))],
                         measurement_axis=(1, 0, 0))
    exp = ExperimentDescriptor(id="bad", kind="optomechanical",
                               ceiling=Ceiling("force_psd", 1e-30, probe=10.0),
                               geometry=bad_geom)
    seen = []
    curves = scan([exp], [WHITE], np.array([1e-4]),
                  on_error=lambda i, _, rc, e: seen.append((i, rc)))[0]
    assert curves[0].points == ()
    assert seen and seen[0][0] == "bad"



def _rod_sphere():
    """A cylinder and a sphere 9.1 um apart: no cross-term route inside the gap bound."""
    from ccsl import composite, cylinder
    from ccsl.registry import ExperimentDescriptor
    geom = composite([(cylinder(5e-5, 2e-4, density=2200.0), (0, 0, 0)),
                      (sphere(2e-5, density=7430.0), (1.409e-4, 0, 0))])
    return ExperimentDescriptor(id="rod-sphere", kind="optomechanical",
                                ceiling=Ceiling("force_psd", 1e-32, probe=2e3 * math.pi),
                                geometry=geom)


def test_multi_noise_scan_matches_scalar_route():
    # the factored scan (one white unit response per rc, one noise factor per
    # cutoff; heating point by point) against lambda_max_for at every point.
    # At 1e-140 and 1e-146 rad/s the force response hbar^2 eta f~ is
    # subnormal or 0 while the derived white-curve / f~ is still finite.
    exps = load_all_bundled() + [_rod_sphere()]
    noises = [WHITE] + [exponential(w) for w in
                        (1e15, 1e12, 1e9, 1e6, 1e4, 1e2, 1e1, 1e-6, 1e-10,
                         1e-140, 1e-146)]
    grid = np.geomspace(1e-9, 1e-3, 60)
    errors = []
    panels = scan(exps, noises, grid, on_error=lambda i, n, rc, e: errors.append(
        (i, n, rc, type(e), str(e))))
    expected_errors = []
    for exp in exps:
        for n, curves in zip(noises, panels):
            curve = curves[exps.index(exp)]
            assert (curve.experiment_id, curve.noise) == (exp.id, n)
            expected = []
            for rc in grid.tolist():
                try:
                    with np.errstate(all="ignore"):
                        lm = lambda_max_for(exp, n, rc)
                except Exception as err:
                    expected_errors.append((exp.id, n, rc, type(err), str(err)))
                    continue
                if math.isfinite(lm) and lm > 0:
                    expected.append((rc, lm))
            assert [rc for rc, _ in curve.points] == [rc for rc, _ in expected]
            for (_, got), (_, want) in zip(curve.points, expected):
                assert abs(got - want) <= 1e-12 * want, (exp.id, n)
    assert errors == expected_errors
    # the cases the comparison must reach: an unsupported composite, heating
    # washed out at 1e-10 rad/s, and the cold-atom bracket at 1e-6 rad/s
    kinds = {(i, n.omega_c, t.__name__) for i, n, _, t, _ in errors}
    assert ("rod-sphere", None, "CompositeCrossTermUnsupported") in kinds
    assert ("bulk-heating", 1e-10, "WashedOut") in kinds
    assert ("cantilever", 1e-146, "WashedOut") in kinds
    cold = panels[noises.index(exponential(1e-6))][exps.index(load("cold-atom"))]
    assert len(cold.points) == grid.size


def test_scan_white_column_is_the_scalar_route(monkeypatch):
    # grids on both sides of the crossover: from _COLUMN_FROM rc the white
    # column and the bulk-heating columns come from numpy passes, and curves
    # and error log must be those of the scalar route at every point, which
    # the scan takes below it. The white column leaves to the scalar route
    # only the points it cannot evaluate: rc <= 0 and the rod-sphere points
    # inside the gap bound; the heating columns leave none. The cutoffs put
    # the linear phonon bracket's x = rc Wc / v_s below and above 20 (1e12),
    # above it everywhere (1e15) and past where x^2 overflows (1e300).
    exps = load_all_bundled() + [_rod_sphere()]
    factored = len([e for e in exps if e.kind != "bulk_heating"])
    noises = [WHITE, exponential(1e4), exponential(1e-146), exponential(1e12),
              exponential(1e15), exponential(1e300)]
    white_calls, colored_calls = [], []

    def attempt(exp, n, rc, tol, _scalar=bounds._attempt):
        out = _scalar(exp, n, rc, tol)
        (white_calls if n == WHITE else colored_calls).append((exp.id, rc, type(out[1])))
        return out

    monkeypatch.setattr(bounds, "_attempt", attempt)
    crossover = bounds._COLUMN_FROM
    for size in (crossover - 1, crossover, 40):
        grid = np.concatenate([[-1e-7, 0.0], np.geomspace(1e-9, 1e-3, size - 2)])
        runs = []
        for column_from in (crossover, math.inf):
            monkeypatch.setattr(bounds, "_COLUMN_FROM", column_from)
            clear_cache()
            white_calls.clear()
            errors = []
            panels = scan(exps, noises, grid, on_error=lambda i, n, rc, e: errors.append(
                (i, n, rc.hex(), type(e), str(e))))
            runs.append(([[c.lam.tobytes() for c in curves] for curves in panels], errors,
                         list(white_calls)))
        (column, column_errors, column_calls), (scalar, scalar_errors, _) = runs
        assert column == scalar and column_errors == scalar_errors, f"{size} rc"
        if size >= crossover:
            assert {(i, t) for i, rc, t in column_calls if rc > 0.0} == {
                ("rod-sphere", CompositeCrossTermUnsupported)}
            assert len([c for c in column_calls if c[1] <= 0.0]) == 2 * factored
        else:  # the linear heating experiment too, point by point
            assert len(column_calls) == size * (factored + 1)
    # a white value below the band whose derived value lands back inside it
    # (X-ray: 803 rc^2 below 1e-290 over f~(1e19) = 1e-20 near 1e-280) is
    # not derived but takes the scalar route, on either side of the crossover
    monkeypatch.setattr(bounds, "_COLUMN_FROM", crossover)
    xray, n = load("xray"), exponential(1e9)
    for size in (crossover - 1, crossover):
        grid = np.geomspace(1e-151, 1e-149, size)
        colored_calls.clear()
        ((curve,),) = scan([xray], [n], grid)
        assert colored_calls == [("xray", rc, type(None)) for rc in grid.tolist()]
        assert curve.lam.tolist() == [lambda_max_xray(xray.ceiling, n, rc, 1e19)
                                      for rc in grid.tolist()]


def test_multi_noise_scan_reruns_failed_factors():
    # a cutoff so small that f~ and the cold-atom bracket leave the float
    # range: the factored values are not finite, and the scalar route gives
    # each point its own error
    exps = [load("cantilever"), load("cold-atom"), load("xray")]
    n = exponential(1e-300)
    seen = []
    panels = scan(exps, [WHITE, n], [1e-7, 1e-6],
                  on_error=lambda i, m, rc, e: seen.append((i, m, rc, type(e))))
    assert [len(c.points) for c in panels[0]] == [2, 2, 2]
    assert [c.points for c in panels[1]] == [(), (), ()]
    assert seen == [(i, n, rc, t) for i, t in (("cantilever", WashedOut),
                                               ("cold-atom", WashedOut),
                                               ("xray", WashedOut))
                    for rc in (1e-7, 1e-6)]
    # no expansion time: the white response is 0 and the bracket ratio 0/0,
    # or the bracket overflows; each point then gets the scalar route's error,
    # which for an overflowing bracket is WashedOut
    still = dataclasses.replace(load("cold-atom"), coldatom=dataclasses.replace(
        RB87, expansion_time=0.0))
    seen = []
    panels = scan([still], [WHITE, exponential(1e3), n], [1e-7],
                  on_error=lambda i, m, rc, e: seen.append((m, type(e))))
    assert [c.points for c, in panels] == [(), (), ()]
    assert seen == [(WHITE, WashedOut), (exponential(1e3), WashedOut),
                    (n, WashedOut)]


# SHA-256 of every kept point as "<id> <omega_c!r> <rc.hex()> <lam.hex()>" and
# of the error log as "<id> <omega_c!r> <rc.hex()> <type> <message>", one
# line each in scan order, recorded from the per-point scan before curves
# became columns: the derived, the re-run and the failing route all print
# the same bits and log the same errors. The error log was re-recorded once
# since, when a cold-atom bracket out of float range (Wc = 1e-140, 1e-146
# and 1e-300 rad/s) turned from OverflowError into WashedOut: only those
# 360 lines changed, and the count stayed 2213
SCAN_POINTS_DIGEST = (4807, "79b720be31554ffdb047a6cd84a7bd1471510c28ba58b706bdc4a4c3faeca9ab")
SCAN_ERRORS_DIGEST = (2213, "50fe3619966798071003f34461ece993acb75a874d0bc8a20541ce1dcc4ff925")


def test_multi_noise_scan_bits_pinned():
    still = dataclasses.replace(load("cold-atom"), id="cold-atom-still", coldatom=(
        dataclasses.replace(RB87, expansion_time=0.0)))
    exps = load_all_bundled() + [_rod_sphere(), still]
    noises = [WHITE] + [exponential(w) for w in
                        (1e15, 1e12, 1e9, 1e6, 1e4, 1e2, 1e1, 1e-6, 1e-10,
                         1e-140, 1e-146, 1e-300)]
    errors = []
    panels = scan(exps, noises, np.geomspace(1e-9, 1e-3, 60),
                  on_error=lambda i, n, rc, e: errors.append(
                      f"{i} {n.omega_c!r} {rc.hex()} {type(e).__name__} {e}\n"))
    points = [f"{c.experiment_id} {c.noise.omega_c!r} {rc.hex()} {lm.hex()}\n"
              for curves in panels for c in curves for rc, lm in c.points]
    for lines, (count, digest) in ((points, SCAN_POINTS_DIGEST),
                                   (errors, SCAN_ERRORS_DIGEST)):
        assert len(lines) == count
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


# the same digests for the full-sine lattice, whose lambda_eff is a
# quadrature: rc with dispersion knees (below 3.2e-9 m), rc refined over
# several rounds, QuadratureNotConverged (oscillations too fine below
# 1.6e-13 m; the panel budget spent, up to 2.3e-10 m at low cutoffs) and
# WashedOut; recorded from the per-point scan, where each rc ran a
# quadrature of its own
FULL_SINE_POINTS_DIGEST = (596, "db5607fef0e7d3c9d2dd92ae30b4a7858f3f00983104a588bc3accd8a9fdbf04")
FULL_SINE_ERRORS_DIGEST = (244, "2f86a318d80dfbe3e7a148c6f615b753bb0b5b58a9ef5f76f701c37f6501f019")


def test_full_sine_heating_scan_bits_pinned():
    noises = [WHITE] + [exponential(w) for w in (1e1, 1e4, 1e6, 1e9, 1e12, 1e-300)]
    errors = []
    panels = scan([parse_config(LATTICE_HEATING)], noises, np.geomspace(1e-13, 1e-3, 120),
                  on_error=lambda i, n, rc, e: errors.append(
                      f"{i} {n.omega_c!r} {rc.hex()} {type(e).__name__} {e}\n"))
    points = [f"{c.experiment_id} {c.noise.omega_c!r} {rc.hex()} {lm.hex()}\n"
              for curves in panels for c in curves for rc, lm in c.points]
    for lines, (count, digest) in ((points, FULL_SINE_POINTS_DIGEST),
                                   (errors, FULL_SINE_ERRORS_DIGEST)):
        assert len(lines) == count
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest
    kinds = {e.split()[3] for e in errors}
    assert kinds == {"QuadratureNotConverged", "WashedOut"}


def test_curve_is_a_read_only_column():
    curve = scan([load("xray"), load("bulk-heating")], [exponential(1e-10)],
                 np.geomspace(1e-9, 1e-3, 4))[0]
    xray, heating = curve
    assert xray.rc.shape == xray.lam.shape == (4,)
    assert np.isnan(heating.lam).all() and heating.points == ()
    assert xray.points == tuple(zip(xray.rc_values().tolist(),
                                    xray.lambda_values().tolist()))
    for col in (xray.rc, xray.lam):
        with pytest.raises(ValueError):
            col[0] = 1.0
    # the curve keeps its own copy of the arrays it was built from
    rc, lam = np.array([1e-7, 1e-6]), np.array([1.0, np.nan])
    built = ExclusionCurve("x", WHITE, rc, lam)
    lam[1] = 2.0
    assert built.points == ((1e-7, 1.0),)
    with pytest.raises(ValidationError):
        ExclusionCurve("x", WHITE, rc, [1.0])


def test_envelope_single_curve_identity():
    exps = [load("xray")]
    curves = scan(exps, [WHITE], np.geomspace(1e-8, 1e-5, 5))[0]
    env = envelope(curves)
    assert env.points == curves[0].points


def test_envelope_pointwise_minimum():
    exps = load_all_bundled()
    grid = np.geomspace(1e-8, 1e-4, 9)
    curves = scan(exps, [WHITE], grid)[0]
    env = envelope(curves)
    env_map = dict(env.points)
    for c in curves:
        for rc, lm in c.points:
            assert env_map[rc] <= lm * (1 + 1e-14)
    # argmin consistency at rc = 1e-7-ish: the envelope equals the smallest
    # per-experiment value
    for rc in env_map:
        vals = [dict(c.points)[rc] for c in curves if rc in dict(c.points)]
        assert env_map[rc] == min(vals)


def test_envelope_empty_rejected():
    with pytest.raises(EmptyInput):
        envelope([])


def test_envelope_needs_one_rc_grid():
    exps = [load("xray")]
    a = scan(exps, [WHITE], np.geomspace(1e-8, 1e-5, 5))[0][0]
    b = scan(exps, [WHITE], np.geomspace(1e-8, 1e-5, 6))[0][0]
    c = scan(exps, [WHITE], np.geomspace(2e-8, 1e-5, 5))[0][0]
    for other in (b, c):
        with pytest.raises(ValidationError):
            envelope([a, other])
