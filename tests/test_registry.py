import math
from importlib import resources

import pytest

from ccsl import (Ceiling, ParseError, ValidationError, list_bundled, load,
                  load_all_bundled, parse_config, serialize, total_mass)
from ccsl.geometry import Composite, Cuboid, Cylinder, Sphere
from ccsl.registry import ExperimentDescriptor, validate_descriptor

TWO_PI = 2.0 * math.pi


def test_list_bundled_stable_and_complete():
    ids = list_bundled()
    assert ids == list_bundled()  # deterministic
    assert len(ids) >= 7
    for required in ("auriga", "ligo", "lisa-pathfinder", "cantilever", "xray",
                     "bulk-heating", "cold-atom"):
        assert required in ids
    assert ids == sorted(ids)


def test_every_bundled_descriptor_loads_and_validates():
    for exp in load_all_bundled():
        assert validate_descriptor(exp) is exp


def test_auriga_quoted_values():
    exp = load("auriga")
    assert isinstance(exp.geometry.shape, Cylinder)
    assert exp.geometry.shape.length == 3.0
    assert exp.geometry.shape.radius == 0.30
    assert total_mass(exp.geometry) == pytest.approx(2300.0, rel=1e-12)
    assert exp.ceiling.value == 1.4e-22
    assert exp.ceiling.probe == pytest.approx(TWO_PI * 931.0, rel=1e-15)
    assert exp.oscillator.temperature == 4.2
    assert exp.oscillator.omega_m == pytest.approx(TWO_PI * 900.0, rel=1e-15)


def test_ligo_quoted_values():
    exp = load("ligo")
    s = exp.geometry.shape
    assert isinstance(s, Cylinder) and s.radius == 0.17 and s.length == 0.20
    assert exp.geometry.density == 2200.0
    assert exp.ceiling.value == 9e-27
    lo, hi = exp.ceiling.probe
    assert lo == pytest.approx(TWO_PI * 30.0) and hi == pytest.approx(TWO_PI * 35.0)


def test_lisa_pathfinder_quoted_values():
    exp = load("lisa-pathfinder")
    s = exp.geometry.shape
    assert isinstance(s, Composite) and len(s.parts) == 2
    offsets = sorted(off[0] for _, off in s.parts)
    assert offsets == [-0.188, 0.188]  # 37.6 cm average separation
    for part, _ in s.parts:
        assert isinstance(part.shape, Cuboid)
        assert part.shape.lx == part.shape.ly == part.shape.lz == 0.046
        assert total_mass(part) == pytest.approx(1.928, rel=1e-12)
    assert exp.ceiling.value == 3.15e-30
    assert exp.ceiling.probe == pytest.approx(TWO_PI * 1e-3)


def test_cantilever_quoted_values():
    exp = load("cantilever")
    assert isinstance(exp.geometry.shape, Sphere)
    assert exp.geometry.shape.radius == 15.5e-6
    assert exp.geometry.density == 7.43e3
    assert exp.ceiling.value == 1.87e-36  # 1.87 aN^2/Hz
    assert exp.ceiling.probe == pytest.approx(TWO_PI * 8174.01)


def test_xray_and_heating_and_coldatom_values():
    x = load("xray")
    assert x.ceiling.value == 803.0
    assert x.ceiling.probe == 1e19
    h = load("bulk-heating")
    assert h.ceiling.value == 1e-11
    assert h.phonon.v_s == 3000.0
    assert h.phonon.dispersion is None
    c = load("cold-atom")
    assert c.coldatom.mass_number == 87.0
    assert c.coldatom.expansion_time == 1.0
    assert c.ceiling.value == 4.8e-9
    assert "Kovachy" in c.provenance  # external sourcing documented


def test_serialization_round_trip_bit_identical():
    for exp in load_all_bundled():
        text = serialize(exp)
        again = parse_config(text)
        assert again == exp  # dataclass equality covers every float bit
        assert serialize(again) == text  # canonical form is a fixed point


def test_load_from_path(tmp_path):
    exp = load("cantilever")
    path = tmp_path / "custom.cfg"
    path.write_text(serialize(exp), encoding="utf-8")
    assert load(path) == exp
    assert load(str(path)) == exp


def test_bundled_ids_load_one_shared_descriptor():
    for name in list_bundled():
        assert load(name) is load(name)
    assert all(exp is load(exp.id) for exp in load_all_bundled())


def test_config_path_is_reread_on_every_load(tmp_path):
    path = tmp_path / "edited.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load(path).ceiling.value == 100.0
    path.write_text(MINIMAL.replace("value = 100.0", "value = 250.0"), encoding="utf-8")
    assert load(path).ceiling.value == 250.0


def test_unknown_source_rejected():
    with pytest.raises(ValidationError):
        load("not-an-experiment")


MINIMAL = """\
id = probe
kind = xray
[ceiling]
kind = xray_normalized
value = 100.0
probe_rad_s = 1e19
"""


def test_parse_minimal():
    exp = parse_config(MINIMAL)
    assert exp.id == "probe"
    assert exp.ceiling.value == 100.0


def test_negative_radius_rejected_with_field():
    text = """\
id = bad
kind = optomechanical
[geometry]
shape = sphere
radius = -0.1
density = 1000.0
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == "geometry.radius"
    assert "> 0" in err.value.constraint


def test_unknown_key_rejected_strict():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "colour = blue\n")
    assert "colour" in err.value.field


def test_bare_frequency_key_rejected():
    text = MINIMAL.replace("probe_rad_s = 1e19", "probe = 1e19")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "suffix" in err.value.constraint


def test_both_frequency_suffixes_rejected():
    text = MINIMAL + "\n"
    text = text.replace("probe_rad_s = 1e19",
                        "probe_rad_s = 1e19\nprobe_hz = 10.0")
    with pytest.raises(ValidationError):
        parse_config(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config("id = x\nkind = xray\nnonsense line\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_config("id = x\n[woods]\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_config('id = "unterminated\n')
    assert err.value.line == 1


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config("id = a\nid = b\nkind = xray\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nid = probe  # trailing\nkind = xray\n\n" \
           "[ceiling]\nkind = xray_normalized\nvalue = 100.0\nprobe_rad_s = 1e19\n"
    exp = parse_config(text)
    assert exp.id == "probe"


def test_kind_field_requirements_enforced():
    # xray must not carry geometry
    text = MINIMAL + """\
[geometry]
shape = sphere
radius = 0.1
density = 1000.0
"""
    with pytest.raises(ValidationError):
        parse_config(text)
    # optomechanical requires geometry
    text2 = """\
id = bad
kind = optomechanical
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""
    with pytest.raises(ValidationError):
        parse_config(text2)
    # ceiling kind must match experiment kind
    text3 = MINIMAL.replace("kind = xray_normalized", "kind = heating_power")
    text3 = text3.replace("probe_rad_s = 1e19", "")
    with pytest.raises(ValidationError):
        parse_config(text3)


def test_hz_scaling_on_load():
    text = MINIMAL.replace("probe_rad_s = 1e19", "probe_hz = 100.0")
    exp = parse_config(text)
    assert exp.ceiling.probe == pytest.approx(TWO_PI * 100.0, rel=1e-15)


def test_composite_requires_part_sections():
    text = """\
id = bad
kind = optomechanical
[geometry]
shape = composite
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""
    with pytest.raises(ValidationError):
        parse_config(text)


def test_descriptor_equality_and_hash():
    a = load("xray")
    b = parse_config(resources.files("ccsl").joinpath("data/xray.cfg").read_text("utf-8"))
    assert a == b and a is not b
    assert hash(a) == hash(b)


def test_validate_descriptor_missing_ceiling_kind():
    exp = load("xray")
    with pytest.raises(ValidationError):
        ExperimentDescriptor(id=exp.id, kind="bulk_heating", ceiling=exp.ceiling)


def test_descriptor_with_mismatched_ceiling_kind_cannot_be_built():
    # every field the kind needs is present; only the ceiling kind is wrong
    force = Ceiling("force_psd", 1e-30, probe=10.0)
    with pytest.raises(ValidationError) as info:
        ExperimentDescriptor(id="x", kind="xray", ceiling=force)
    assert info.value.field == "ceiling.kind"


OPTO = """\
id = probe
kind = optomechanical
[geometry]
shape = sphere
radius = 1e-5
density = 1000.0
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""

HEATING = """\
id = heat
kind = bulk_heating
[phonon]
v_s = 3000.0
dispersion = linear
[ceiling]
kind = heating_power
value = 1e-11
"""

PAIR = """\
id = pair
kind = optomechanical
[geometry]
shape = composite
[[geometry.part]]
shape = sphere
radius = 1e-5
density = 1000.0
offset = 0 0 0
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""

SPHERE_LINES = "shape = sphere\nradius = 1e-5\ndensity = 1000.0"


MALFORMED = [
    # syntax errors carry the line
    (OPTO.replace("radius = 1e-5", "radius = 1 2 x"), ParseError, 5, "bad vector"),
    (OPTO.replace("radius = 1e-5", "radius = 1 2"), ParseError, 5, "3-vector"),
    (OPTO.replace("radius = 1e-5", "radius ="), ParseError, 5, "missing value"),
    (OPTO.replace("id = probe", 'id = "probe'), ParseError, 1, "unterminated string"),
    (PAIR.replace("[[geometry.part]]", "[[geometry.part]"), ParseError, 5, "expected ']]'"),
    (PAIR.replace("[[geometry.part]]", "[[parts]]"), ParseError, 5, "unknown list section"),
    (OPTO.replace("[ceiling]", "[ceiling"), ParseError, 7, "expected ']'"),
    (OPTO + "[geometry]\n", ParseError, 11, "duplicate section"),
    (OPTO.replace("radius = 1e-5", "= 1e-5"), ParseError, 5, "empty key"),
    # semantic errors carry the field
    (OPTO.replace("radius = 1e-5", "radius = big"), ValidationError, "geometry.radius",
     "must be a number"),
    (OPTO.replace("probe_hz = 10.0", "probe_hz = fast"), ValidationError, "ceiling.probe",
     "must be a number"),
    (OPTO.replace("probe_hz = 10.0", "probe_hz = 1 2 3"), ValidationError, "ceiling.probe",
     "must be a number"),
    (OPTO.replace("probe_hz = 10.0", "probe_rad_s = fast"), ValidationError, "ceiling.probe",
     "must be a number"),
    (OPTO + "[oscillator]\nmass = 1.0\ntemperature = 4.2\n", ValidationError,
     "oscillator.omega_m", "missing (_hz or _rad_s)"),
    (OPTO.replace("radius = 1e-5", "radius = 1e-5\nlx = 1.0"), ValidationError,
     "geometry.lx", "not valid for this geometry"),
    (HEATING + "[phonon]\n", ParseError, 9, "duplicate section"),
    (HEATING.replace("dispersion = linear", "dispersion = linear\natom_mass = 1e-25"),
     ValidationError, "phonon.atom_mass", "not valid for this phonon"),
    (HEATING.replace("dispersion = linear", "dispersion = quadratic"), ValidationError,
     "phonon.dispersion", "unknown 'quadratic'"),
    (OPTO.replace(SPHERE_LINES, "shape = point_mass\nmass = 1.0\ndensity = 1.0"),
     ValidationError, "geometry.density", "point_mass takes mass only"),
    (OPTO.replace(SPHERE_LINES, "radius = 1e-5\ndensity = 1000.0"), ValidationError,
     "geometry.shape", "missing"),
    (OPTO.replace("shape = sphere", "shape = torus"), ValidationError, "geometry.shape",
     "unknown shape 'torus'"),
    (OPTO.replace("density = 1000.0", "density = 1000.0\nmeasurement_axis = up"),
     ValidationError, "geometry.measurement_axis", "3-vector"),
    (OPTO.replace(SPHERE_LINES, "shape = cylinder\nradius = 1e-5\nlength = 1.0\n"
                                "density = 1.0\naxis = z"),
     ValidationError, "geometry.axis", "3-vector"),
    (PAIR.replace("offset = 0 0 0\n", ""), ValidationError, "geometry.part[0].offset",
     "each part needs an offset 3-vector"),
    (PAIR.replace("shape = composite", "shape = composite\nmass = 1.0"), ValidationError,
     "geometry.density", "composite parts carry densities"),
    # a bare frequency name is its own error only where the section reads it
    # with a suffix; elsewhere it is an unknown key like any other
    (OPTO.replace("probe_hz = 10.0", "probe_hz = 10.0\nomega_c = 5"), ValidationError,
     "ceiling.omega_c", "not valid for this ceiling"),
    (OPTO + "[oscillator]\nmass = 1.0\nomega_m_hz = 1.0\ntemperature = 4.2\nprobe = 5\n",
     ValidationError, "oscillator.probe", "not valid for this oscillator"),
    (OPTO.replace("probe_hz = 10.0", "band_lo_hz = 10.0"), ValidationError, "ceiling.band",
     "band needs both lo and hi edges"),
    (OPTO.replace("probe_hz = 10.0", "probe_hz = 10.0\nband_lo_hz = 9.0\nband_hi_hz = 11.0"),
     ValidationError, "ceiling.probe", "a single probe or a band"),
    (OPTO.replace("kind = force_psd\n", ""), ValidationError, "ceiling.kind", "missing"),
    (OPTO.replace("value = 1e-30\n", ""), ValidationError, "ceiling.value", "missing"),
    (OPTO.split("[ceiling]")[0], ValidationError, "ceiling", "missing [ceiling] section"),
    (OPTO.replace("id = probe\n", ""), ValidationError, "id", "missing or not a string"),
    (OPTO.replace("id = probe\n", "id = probe\nprovenance = 3\n"), ValidationError,
     "provenance", "not a string: 3.0"),
    (OPTO.replace("id = probe\n", "id = probe\nprovenance = 1 2 3\n"), ValidationError,
     "provenance", "not a string: (1.0, 2.0, 3.0)"),
    (OPTO.replace("kind = optomechanical\n", ""), ValidationError, "kind", "missing"),
    # every builder pops the keys it uses and rejects the rest; a key starting
    # with "_" is rejected where it is read, as "_parts" holds the parts
    (OPTO.replace("id = probe\n", "id = probe\ncolour = blue\n"), ValidationError,
     "top.colour", "not valid for this top"),
    (OPTO.replace("id = probe\n", "id = probe\n_colour = blue\n"), ValidationError,
     "top._colour", "not valid for this top"),
    (PAIR.replace("shape = composite", "shape = composite\n_parts = 1"), ValidationError,
     "geometry._parts", "not valid for this geometry"),
    (PAIR.replace("offset = 0 0 0", "offset = 0 0 0\nmeasurement_axis = 0 0 1"),
     ValidationError, "geometry.part.measurement_axis", "not valid for this geometry.part"),
    (PAIR.replace("shape = composite", SPHERE_LINES), ValidationError, "geometry.shape",
     "sphere takes no [[geometry.part]] sections"),
]


@pytest.mark.parametrize("text, cls, where, message", MALFORMED,
                         ids=[f"{where}-{message}" for _, _, where, message in MALFORMED])
def test_malformed_config_rejected_at_its_field_or_line(text, cls, where, message):
    with pytest.raises(cls) as err:
        parse_config(text)
    assert type(err.value) is cls
    if cls is ParseError:
        assert err.value.line == where and message in err.value.message
    else:
        assert err.value.field == where and message in err.value.constraint


def test_serialization_round_trip_of_point_mass_damped_oscillator_and_full_sine():
    point = """\
id = point
kind = optomechanical
[geometry]
shape = point_mass
mass = 0.1
measurement_axis = 0 1 0
[oscillator]
mass = 0.1
omega_m_hz = 1.5
gamma_m_rad_s = 0.003
temperature = 0.02
[ceiling]
kind = force_psd
value = 3e-30
probe_hz = 2.0
"""
    sine = HEATING.replace("dispersion = linear",
                           "dispersion = full_sine\nforce_constant = 14.6\n"
                           "atom_mass = 1.055e-25\nplane_spacing = 2.55e-10")
    for text in (point, sine):
        exp = parse_config(text)
        again = parse_config(serialize(exp))
        assert again == exp
        assert serialize(again) == serialize(exp)
    exp = parse_config(point)
    assert exp.oscillator.gamma_m == 0.003
    assert total_mass(exp.geometry) == 0.1
    assert exp.geometry.measurement_axis == (0.0, 1.0, 0.0)
    assert parse_config(sine).phonon.dispersion.force_constant == 14.6
