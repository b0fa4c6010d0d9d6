import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsl import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                  ValidationError, composite, cuboid, cylinder, form_factor_sq,
                  point_mass, sphere, total_mass)
from ccsl.diffusion import eta_column, eta_reduced
from ccsl.geometry import (_floats3, _unit, bessel_j1, circumradius, disc_kernel, sinc_kernel,
                           sphere_kernel, validate_distribution, volume)
from fixtures import CANTILEVER_SPHERE_MASS, J1_TABLE, LISA_CUBE_DENSITY, SPHERE_FF_AT_KR_PI


# --- masses -------------------------------------------------------------------

def test_cantilever_sphere_mass():
    d = sphere(15.5e-6, density=7.43e3)
    assert total_mass(d) == pytest.approx(CANTILEVER_SPHERE_MASS, rel=1e-14)
    # quoted device mass is 1.2e-10 kg; the geometric mass must land near it
    assert total_mass(d) == pytest.approx(1.2e-10, rel=0.05)


def test_lisa_cube_mass():
    d = cuboid(0.046, 0.046, 0.046, density=LISA_CUBE_DENSITY)
    assert total_mass(d) == pytest.approx(1.928, rel=1e-12)
    d2 = cuboid(0.046, 0.046, 0.046, mass=1.928)
    assert d2.density == pytest.approx(LISA_CUBE_DENSITY, rel=1e-12)


def test_point_mass_identity():
    assert total_mass(point_mass(3.25e-5)) == 3.25e-5


def test_composite_mass_sums_parts():
    d = composite([(point_mass(1.0), (0, 0, 0)), (sphere(0.1, density=2.0), (1, 0, 0))])
    assert total_mass(d) == pytest.approx(1.0 + 2.0 * volume(sphere(0.1, density=2.0).shape))


def test_composite_mass_sums_parts_left_to_right():
    # ten 0.1 kg points: a left-to-right sum gives 1 - 2^-53, where the
    # compensated builtin sum of Python 3.12 gives 1.0
    d = composite([(point_mass(0.1), (i, 0, 0)) for i in range(10)])
    assert total_mass(d).hex() == "0x1.fffffffffffffp-1"


def test_mass_equals_density_times_volume():
    d = cylinder(0.17, 0.2, density=2200.0)
    assert total_mass(d) == pytest.approx(2200.0 * math.pi * 0.17**2 * 0.2, rel=1e-12)


# --- form factor values --------------------------------------------------------

def test_form_factor_at_zero_is_total_mass_squared():
    shapes = [
        sphere(0.01, density=100.0),
        cuboid(0.01, 0.02, 0.03, density=100.0),
        cylinder(0.01, 0.05, density=100.0),
        point_mass(0.5),
        composite([(point_mass(0.25), (0.1, 0, 0)), (point_mass(0.75), (-0.2, 0.3, 0))]),
    ]
    for d in shapes:
        m = total_mass(d)
        assert form_factor_sq(d, np.zeros(3)) == pytest.approx(m * m, rel=1e-13)


def test_sphere_form_factor_at_kr_pi():
    R = 0.37
    d = sphere(R, mass=1.0)
    k = np.array([math.pi / R, 0.0, 0.0])
    assert form_factor_sq(d, k) == pytest.approx(SPHERE_FF_AT_KR_PI, rel=1e-13)


def test_two_point_interference_closed_form():
    m, a = 0.4, 1.3
    d = composite([(point_mass(m), (a, 0, 0)), (point_mass(m), (-a, 0, 0))])
    for ka in (0.0, 0.3, 1.0, 2.2):
        k = np.array([ka, 0.0, 0.0]) / a  # along the pair axis
        got = form_factor_sq(d, k)
        assert got == pytest.approx(4 * m * m * math.cos(ka) ** 2, abs=4 * m * m * 1e-14)


def test_cuboid_factorizes():
    d = cuboid(0.1, 0.2, 0.3, mass=2.0)
    k = np.array([7.0, 11.0, 13.0])
    expect = (2.0 * sinc_kernel(0.5 * 7.0 * 0.1) * sinc_kernel(0.5 * 11.0 * 0.2)
              * sinc_kernel(0.5 * 13.0 * 0.3)) ** 2
    assert form_factor_sq(d, k) == pytest.approx(float(expect), rel=1e-13)


def test_cylinder_form_factor_split():
    d = cylinder(0.02, 0.1, axis=(0, 0, 1), mass=1.5)
    k = np.array([3.0, 4.0, 9.0])  # k_perp = 5, k_par = 9
    expect = (1.5 * disc_kernel(5.0 * 0.02) * sinc_kernel(0.5 * 9.0 * 0.1)) ** 2
    assert form_factor_sq(d, k) == pytest.approx(float(expect), rel=1e-13)


def test_form_factor_vectorized_shape():
    d = sphere(0.01, mass=1.0)
    k = np.zeros((4, 5, 3))
    out = form_factor_sq(d, k)
    assert out.shape == (4, 5)
    np.testing.assert_allclose(out, 1.0)


# --- invariants ----------------------------------------------------------------

@given(st.floats(min_value=-1e4, max_value=1e4), st.floats(min_value=-1e4, max_value=1e4),
       st.floats(min_value=-1e4, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_form_factor_bounded_by_mass_squared(kx, ky, kz):
    d = cylinder(0.03, 0.2, mass=2.5)
    v = form_factor_sq(d, np.array([kx, ky, kz]))
    assert 0.0 <= v <= 2.5**2 * (1 + 1e-12)


def test_rotation_invariance():
    rng = np.random.default_rng(42)
    base_axis = np.array([0.0, 0.0, 1.0])
    d = cylinder(0.05, 0.3, axis=tuple(base_axis), mass=1.0)
    pair = composite([(sphere(0.02, mass=0.5), (0.1, 0.05, -0.2)),
                      (point_mass(0.5), (-0.1, 0.0, 0.2))])
    for _ in range(12):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        k = rng.normal(size=3) * 30.0
        # cylinder: rotate the axis with the wave vector
        d_rot = cylinder(0.05, 0.3, axis=tuple(q @ base_axis), mass=1.0)
        np.testing.assert_allclose(form_factor_sq(d_rot, q @ k),
                                   form_factor_sq(d, k), rtol=1e-10)
        # composite: rotate offsets with the wave vector
        pair_rot = composite([(sphere(0.02, mass=0.5), tuple(q @ np.array([0.1, 0.05, -0.2]))),
                              (point_mass(0.5), tuple(q @ np.array([-0.1, 0.0, 0.2])))])
        np.testing.assert_allclose(form_factor_sq(pair_rot, q @ k),
                                   form_factor_sq(pair, k), rtol=1e-10)


def test_cuboid_axis_permutation_invariance():
    d = cuboid(0.1, 0.2, 0.3, mass=1.0)
    d_perm = cuboid(0.3, 0.1, 0.2, mass=1.0)
    k = np.array([5.0, 7.0, 11.0])
    k_perm = np.array([11.0, 5.0, 7.0])
    assert form_factor_sq(d, k) == pytest.approx(form_factor_sq(d_perm, k_perm), rel=1e-13)


def test_kernel_series_matches_direct_at_switch():
    # straddle each kernel's own series boundary so closely that the branch
    # change is the only difference; series and direct must agree to 1e-10
    for kern, cut in ((sinc_kernel, 1e-4), (sphere_kernel, 1e-2),
                      (disc_kernel, 1e-4)):
        below = float(kern(cut * (1.0 - 1e-13)))
        above = float(kern(cut * (1.0 + 1e-13)))
        assert below == pytest.approx(above, rel=1e-10)
        assert float(kern(0.0)) == 1.0


def test_cuboid_matches_equal_volume_sphere_at_small_k():
    # both reduce to m^2 (1 - k^2 Rg^2/3 + ...) with matching second moments
    L = 0.01
    R = (3.0 * L**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    dc = cuboid(L, L, L, mass=1.0)
    ds = sphere(R, mass=1.0)
    # gyration radii differ slightly; compare suppression at k L << 1
    k = np.array([1e-2 / L, 0.0, 0.0])
    fc = form_factor_sq(dc, k)
    fs = form_factor_sq(ds, k)
    assert fc == pytest.approx(1.0, abs=5e-5)
    assert fs == pytest.approx(1.0, abs=5e-5)
    # leading-order deficits match to the ratio of second moments along x:
    # cube <x^2> = L^2/12, sphere <x^2> = R^2/5
    deficit_ratio = (1.0 - fc) / (1.0 - fs)
    expect = (L**2 / 12.0) / (R**2 / 5.0)
    assert deficit_ratio == pytest.approx(expect, rel=1e-3)


def test_bessel_j1_against_fixtures():
    for x, ref in J1_TABLE:
        got = float(bessel_j1(x))
        assert got == pytest.approx(ref, abs=2e-15 + 1e-13 * abs(ref)), f"x={x}"


# --- validation ----------------------------------------------------------------

def test_negative_radius_rejected():
    with pytest.raises(ValidationError):
        sphere(-0.1, density=1.0)
    with pytest.raises(ValidationError):  # the shape is checked before mass/volume
        sphere(0, mass=1)


def test_both_density_and_mass_rejected():
    with pytest.raises(ValidationError):
        sphere(0.1, density=1.0, mass=1.0)
    with pytest.raises(ValidationError):
        sphere(0.1)


def test_zero_axis_rejected():
    with pytest.raises(ValidationError):
        cylinder(0.1, 0.2, axis=(0, 0, 0), density=1.0)


def test_empty_composite_rejected():
    with pytest.raises(ValidationError):
        composite([])


@pytest.mark.parametrize("build, field", [
    (lambda: MassDistribution(Sphere(1.0), -1.0), "geometry.density"),
    (lambda: MassDistribution(PointMass(), 0.0), "geometry.mass"),
    (lambda: Sphere(0.0), "geometry.radius"),
    (lambda: Cuboid(1.0, math.nan, 1.0), "geometry.ly"),
    (lambda: Cylinder(1.0, 1.0, (0, 0, 2.0)), "geometry.axis"),
    (lambda: MassDistribution(Composite(((sphere(1.0, density=1.0), (0.0, 0.0, 0.0)),)),
                              1.0), "geometry.density"),
    (lambda: dataclasses.replace(sphere(1.0, density=1.0), density=-1.0),
     "geometry.density"),
], ids=["negative-density", "zero-point-mass", "zero-radius", "nan-edge",
        "non-unit-axis", "composite-with-density", "replaced-density"])
def test_invalid_geometry_cannot_be_built(build, field):
    with pytest.raises(ValidationError) as info:
        build()
    assert info.value.field == field


def test_validate_distribution_passes_bundled_like_shapes():
    for d in (sphere(1.0, density=1.0), cuboid(1, 2, 3, density=1.0),
              cylinder(1.0, 2.0, density=1.0), point_mass(1.0)):
        assert validate_distribution(d) is d


def test_circumradius():
    assert circumradius(sphere(0.5, density=1)) == 0.5
    assert circumradius(cuboid(2, 2, 2, density=1)) == pytest.approx(math.sqrt(3))
    assert circumradius(cylinder(3, 8, density=1)) == pytest.approx(5.0)
    assert circumradius(point_mass(1.0)) == 0.0
    d = composite([(sphere(0.5, density=1), (2, 0, 0))])
    assert circumradius(d) == pytest.approx(2.5)


# SHA-256 of the float.hex values in test_oblique_vectors_have_the_same_bits_on_every_host
_OBLIQUE_ETA_DIGEST = "2342f215ff809409307d8ce7922eafa7524eb3812c0ba9145c491356bb678c2b"


def test_oblique_vectors_have_the_same_bits_on_every_host():
    # unit vectors, offsets and the cylinder axis cosine are plain-float
    # arithmetic, so their bits (and eta's) do not depend on the BLAS kernels;
    # uniform draws are exact, so the inputs are the same on every host too
    rng = np.random.default_rng(20)
    vs = rng.uniform(-1.0, 1.0, (2000, 3))
    offs = rng.uniform(-0.1, 0.1, (2000, 3))
    ball = sphere(0.01, density=1000.0)
    for v, off in zip(vs.tolist(), offs.tolist()):
        assert _unit(v, "axis") == tuple(c / math.hypot(*v) for c in v)
        assert circumradius(composite([(ball, off)])) == math.hypot(*off) + 0.01
    rcs = np.array([1e-9, 1e-7, 1e-5, 1e-3])
    bodies = [cylinder(0.02, 0.1, density=2700.0, axis=a, measurement_axis=b)
              for a, b in zip(vs[:40].tolist(), vs[40:80].tolist())]
    bodies += [composite([(rod, (0.0, 0.0, 0.0)), (ball, (10.0 * off).tolist())],
                         measurement_axis=m)
               for rod, off, m in zip(bodies[:20], offs[:20], vs[80:100].tolist())]
    bodies += [composite([(ball, (0.0, 0.0, 0.0)), (ball, off)], measurement_axis=m)
               for off, m in zip(offs[20:40].tolist(), vs[100:120].tolist())]
    digest = hashlib.sha256()
    for d in bodies:
        values, _ = eta_column(d, rcs)
        for rc, v in zip(rcs.tolist(), values.tolist()):
            digest.update(f"{eta_reduced(d, rc).value.hex()} {v.hex()}\n".encode())
    assert digest.hexdigest() == _OBLIQUE_ETA_DIGEST


def test_with_measurement_axis_normalizes():
    d = sphere(1.0, density=1.0, measurement_axis=(0, 0, 2))
    assert d.measurement_axis == (0.0, 0.0, 1.0)
    # normalizing is idempotent, so a unit vector written to a config and
    # read back keeps its bits
    for v in np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 3)).tolist():
        u = _unit(v, "axis")
        assert _unit(u, "axis") == u


# inputs for the 3-vector checks, each read in Python floats as numpy reads
# it into a float array: a str is one number (and a ValueError where it is
# not one), None is NaN, a nested sequence or an array of another shape is
# not a 3-vector
_VECTOR_INPUTS = ["1.0", "123", b"2", "abc", "", 5.0, None, [1, 2, 3], (0, 0, 2),
                  ["1", "0", "0"], ["a", 0, 0], [None, 0, 0], [True, 0, 0],
                  [math.inf, 0, 0], [np.float32(0.1), 0, 0], [np.array(1.0), 0, 0],
                  np.ones(3), np.ones((1, 3)), np.array(1.0), [[1, 2, 3]],
                  [[1], [2], [3]], [[1, 2], [3, 4], [5, 6]], [1, 2], [1, 2, 3, 4]]


@pytest.mark.parametrize("v", _VECTOR_INPUTS, ids=[repr(v) for v in _VECTOR_INPUTS])
def test_vectors_are_read_as_numpy_reads_them(v):
    # as an axis and as a part offset, each with its field and message
    ball = sphere(1.0, density=1.0)
    try:
        a = np.asarray(v, dtype=float)
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            _floats3(v, "axis", "must be a 3-vector")
        assert type(info.value) is ValueError and str(info.value) == str(err)
        return
    if a.shape != (3,):
        with pytest.raises(ValidationError) as info:
            cylinder(1.0, 1.0, axis=v, density=1.0)
        assert (info.value.field, info.value.constraint) == ("geometry.axis", "must be a 3-vector")
    else:
        got = _floats3(v, "axis", "must be a 3-vector")
        assert all(type(c) is float for c in got)
        assert np.array_equal(got, a, equal_nan=True)
        if np.all(np.isfinite(a)):
            assert composite([(ball, v)]).shape.parts[0][1] == got
            return
        with pytest.raises(ValidationError) as info:
            sphere(1.0, density=1.0, measurement_axis=v)
        assert (info.value.field, info.value.constraint) == (
            "measurement_axis", "must have positive finite norm")
    with pytest.raises(ValidationError) as info:
        composite([(ball, v)])
    assert (info.value.field, info.value.constraint) == (
        "geometry.part.offset", "must be a finite 3-vector")


def test_composite_parts_take_the_default_measurement_axis():
    # no route reads a part's axis, and a config cannot state one, so each
    # part is kept with the default: the body's axis is the measured one
    rod = cylinder(1e-3, 4e-3, density=2700.0)  # measured along z by default
    d = composite([(rod, (0.0, 0.0, 0.0)), (rod, (0.0, 0.0, 1e-2))],
                  measurement_axis=(0, 0, 1))
    for part, _ in d.shape.parts:
        assert part == dataclasses.replace(rod, measurement_axis=(1.0, 0.0, 0.0))
    ball = sphere(1e-3, density=1.0)
    assert composite([(ball, (0, 0, 0))]).shape.parts[0][0] is ball
    # built from parts measured along x, the body is the same one
    rod_x = cylinder(1e-3, 4e-3, density=2700.0, measurement_axis=(1, 0, 0))
    assert composite([(rod_x, (0.0, 0.0, 0.0)), (rod_x, (0.0, 0.0, 1e-2))],
                     measurement_axis=(0, 0, 1)) == d
