import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsl import (Ceiling, ColdAtomDescriptor, FullSineDispersion, MechanicalOscillator,
                  ParseError, PhononModel, ValidationError, composite, cuboid, cylinder,
                  list_bundled, load, load_all_bundled, parse_config, point_mass, serialize,
                  sphere, total_mass)
from ccsl.geometry import Composite, Cuboid, Cylinder, Sphere
from ccsl.registry import ExperimentDescriptor, _strip_comment, validate_descriptor

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
    # with a composite of cylinder() parts, each measured along z by default:
    # composite keeps its parts with the default axis, which a config reads back
    rod = cylinder(1e-3, 4e-3, density=2700.0, axis=(1, 1, 0))
    rods = composite([(rod, (0, 0, 0)), (rod, (0, 0, 1e-2))], measurement_axis=(0, 0, 1))
    for exp in [*load_all_bundled(), replace(load("auriga"), id="rods", geometry=rods)]:
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


def _strip_comment_by_char(line):
    """The character loop _strip_comment replaced, kept as its oracle."""
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from('ab #"=1.\t'), max_size=40))
def test_strip_comment_cuts_where_the_character_loop_cut(line):
    assert _strip_comment(line) == _strip_comment_by_char(line)


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


# the kind rules, pinned field by field: per kind the sections it requires
# and forbids (the oscillator is optional for optomechanical, forbidden
# elsewhere) and the ceiling kind it needs
KIND_RULES = {
    "optomechanical": ("cantilever", ("geometry",), ("phonon", "coldatom"), "force_psd"),
    "xray": ("xray", (), ("geometry", "oscillator", "phonon", "coldatom"), "xray_normalized"),
    "bulk_heating": ("bulk-heating", ("phonon",), ("geometry", "oscillator", "coldatom"),
                     "heating_power"),
    "cold_atom": ("cold-atom", ("coldatom",), ("geometry", "oscillator", "phonon"),
                  "position_variance"),
}


def _section_samples():
    return {"geometry": load("cantilever").geometry, "oscillator": load("auriga").oscillator,
            "phonon": load("bulk-heating").phonon, "coldatom": load("cold-atom").coldatom}


@pytest.mark.parametrize("kind", sorted(KIND_RULES))
@pytest.mark.parametrize("field", ["geometry", "oscillator", "phonon", "coldatom"])
def test_kind_rules_name_the_field_and_the_kind(kind, field):
    base_id, required, forbidden, ceiling_kind = KIND_RULES[kind]
    base = load(base_id)
    assert base.kind == kind
    if field in required:
        with pytest.raises(ValidationError) as err:
            replace(base, **{field: None})
        assert (err.value.field, err.value.constraint) == (field, f"required for kind {kind}")
    elif field in forbidden:
        assert getattr(base, field) is None
        with pytest.raises(ValidationError) as err:
            replace(base, **{field: _section_samples()[field]})
        assert (err.value.field, err.value.constraint) == (field, f"not allowed for kind {kind}")
    else:  # optional: the descriptor is valid with and without it
        assert replace(base, **{field: _section_samples()[field]}) != base
        assert replace(base, **{field: None}) == base


@pytest.mark.parametrize("kind", sorted(KIND_RULES))
def test_kind_rules_ceiling_kind_and_precedence(kind):
    base_id, required, forbidden, ceiling_kind = KIND_RULES[kind]
    base, samples = load(base_id), _section_samples()
    other = next(k for k in KIND_RULES if k != kind)
    wrong_ceiling = load(KIND_RULES[other][0]).ceiling
    with pytest.raises(ValidationError) as err:
        replace(base, ceiling=wrong_ceiling)
    assert (err.value.field, err.value.constraint) == (
        "ceiling.kind", f"kind {kind} requires {ceiling_kind}")
    # a forbidden section wins over the ceiling kind, and the first forbidden
    # section in field order over the later ones
    every_forbidden = {f: samples[f] for f in forbidden}
    with pytest.raises(ValidationError) as err:
        replace(base, ceiling=wrong_ceiling, **every_forbidden)
    assert (err.value.field, err.value.constraint) == (
        forbidden[0], f"not allowed for kind {kind}")
    # a missing required section wins over a forbidden one
    for field in required:
        with pytest.raises(ValidationError) as err:
            replace(base, ceiling=wrong_ceiling, **{field: None}, **every_forbidden)
        assert (err.value.field, err.value.constraint) == (field, f"required for kind {kind}")
    # an unknown kind wins over every section rule, and an empty id over the kind
    with pytest.raises(ValidationError) as err:
        replace(base, kind="torsion", **every_forbidden)
    assert (err.value.field, err.value.constraint) == ("kind", "unknown kind 'torsion'")
    with pytest.raises(ValidationError) as err:
        replace(base, id="", kind="torsion")
    assert (err.value.field, err.value.constraint) == ("id", "must be non-empty")
    # an id or provenance that is not a string is a ValidationError too
    for field, value, constraint in (("id", 5, "missing or not a string"),
                                     ("id", None, "missing or not a string"),
                                     ("provenance", 3.0, "not a string: 3.0"),
                                     ("provenance", None, "not a string: None")):
        with pytest.raises(ValidationError) as err:
            replace(base, **{field: value})
        assert (err.value.field, err.value.constraint) == (field, constraint)


# --- round trip of drawn descriptors -------------------------------------------

_pos = st.floats(1e-30, 1e30)
# any direction, tilted ones included: the constructors normalize it
_vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3)
_offset = st.tuples(*[st.floats(-10.0, 10.0)] * 3)


def _primitive(measurement_axis):
    return st.one_of(
        st.builds(lambda r, rho: sphere(r, density=rho, measurement_axis=measurement_axis),
                  _pos, _pos),
        st.builds(lambda x, y, z, rho: cuboid(x, y, z, density=rho,
                                              measurement_axis=measurement_axis),
                  _pos, _pos, _pos, _pos),
        st.builds(lambda r, ln, ax, rho: cylinder(r, ln, axis=ax, density=rho,
                                                  measurement_axis=measurement_axis),
                  _pos, _pos, _vector, _pos),
        st.builds(lambda m: point_mass(m, measurement_axis=measurement_axis), _pos))


# a part's measurement axis has no key in a config; composite keeps each
# part with the default one, so parts are drawn with any axis (cylinder()'s
# default is z) and the body's own axis is drawn too
_geometry = _vector.flatmap(lambda m: st.one_of(
    _primitive(m),
    st.lists(st.tuples(_vector.flatmap(_primitive), _offset), min_size=1, max_size=3)
    .map(lambda parts: composite(parts, measurement_axis=m))))

_oscillator = st.builds(
    lambda mass, w, t, damped, g: MechanicalOscillator(mass, w, t, w * g if damped else None),
    _pos, _pos, _pos, st.booleans(), st.floats(1e-12, 0.5))


def _full_sine(c, m, a, stretch):
    disp = FullSineDispersion(c, m, a)
    return PhononModel(disp.sound_speed() * stretch, disp)


_phonon = st.one_of(st.builds(PhononModel, _pos),
                    st.builds(_full_sine, st.floats(1e-3, 1e3), st.floats(1e-27, 1e-23),
                              st.floats(1e-11, 1e-9), st.floats(0.995, 1.005)))
_coldatom = st.builds(ColdAtomDescriptor, _pos, _pos, st.one_of(st.just(0.0), _pos))
_band = st.tuples(_pos, st.floats(1.0 + 1e-9, 1e6)).map(lambda b: (b[0], b[0] * b[1]))
_probe = st.one_of(st.none(), _pos)

_descriptor = st.one_of(
    st.builds(lambda g, o, probe, v: ExperimentDescriptor(
        "drawn", "optomechanical", Ceiling("force_psd", v, probe), geometry=g, oscillator=o),
        _geometry, st.one_of(st.none(), _oscillator), st.one_of(_pos, _band), _pos),
    st.builds(lambda probe, v: ExperimentDescriptor(
        "drawn", "xray", Ceiling("xray_normalized", v, probe), provenance="drawn \"x\" # 1"),
        _pos, _pos),
    st.builds(lambda ph, probe, v: ExperimentDescriptor(
        "drawn", "bulk_heating", Ceiling("heating_power", v, probe), phonon=ph),
        _phonon, _probe, _pos),
    st.builds(lambda ca, probe, v: ExperimentDescriptor(
        "drawn", "cold_atom", Ceiling("position_variance", v, probe), coldatom=ca),
        _coldatom, _probe, _pos))


# ids and provenances with what a config line treats apart: blanks, line
# breaks, '#', '"', '=' and words that read as numbers
_text = st.text(st.one_of(st.sampled_from(' \t#"=[]\n\r\x85\u2028.e+-_0123456789'),
                          st.characters()), max_size=8)
_words = st.one_of(_text, st.sampled_from(["123", "nan", "inf", "1e5", "1 2 3", "a b"]))


@settings(max_examples=300, deadline=None)
@given(_descriptor, st.one_of(st.none(), _words), st.one_of(st.none(), _words))
def test_drawn_descriptors_round_trip(desc, exp_id, provenance):
    # a drawn id or provenance is either written so that it loads, or
    # rejected when built: only a string with a line break, or with both
    # '#' and '"', can be rejected
    drawn = {k: v for k, v in (("id", exp_id), ("provenance", provenance)) if v is not None}
    try:
        desc = replace(desc, **drawn)
    except ValidationError as err:
        value = drawn[err.field]
        assert err.constraint == ("must be non-empty" if value == ""
                                  else "cannot be written as one config value")
        assert value == "" or value.splitlines() != [value] or ("#" in value and '"' in value)
        return
    text = serialize(desc)
    again = parse_config(text)
    assert again == desc
    assert serialize(again) == text


def test_ids_and_provenances_are_written_so_that_they_load():
    xray = load("xray")
    for exp_id, line in [("a b", 'id = "a b"'), ("123", 'id = "123"'), ("nan", 'id = "nan"'),
                         ("a#b", 'id = "a#b"'), ("1 2 3", 'id = "1 2 3"'), ("x-ray", "id = x-ray")]:
        d = replace(xray, id=exp_id)
        assert serialize(d).splitlines()[0] == line
        assert parse_config(serialize(d)) == d
    for provenance in ('say "x"', 'a "b" # c', '"'):
        d = replace(xray, provenance=provenance)
        assert parse_config(serialize(d)) == d
    for field, value in [("id", "a\nb"), ("id", '"#'), ("provenance", "two\nlines"),
                         ("provenance", 'a"b # c'), ("provenance", "x\x85y")]:
        with pytest.raises(ValidationError) as err:
            replace(xray, **{field: value})
        assert (err.value.field, err.value.constraint) == (
            field, "cannot be written as one config value")


def test_numpy_floats_serialize_as_plain_floats():
    # a numpy float is a float subclass whose repr (np.float64(803.0)) no
    # config parses; serialize writes its plain float text
    f = np.float64
    desc = ExperimentDescriptor(
        "np", "optomechanical", Ceiling("force_psd", f(3e-30), (f(1.0), f(2.5))),
        geometry=sphere(f(1e-5), density=f(7430.0)),
        oscillator=MechanicalOscillator(f(0.1), f(9.4), f(0.02), f(0.003)))
    text = serialize(desc)
    assert "np.float64" not in text and "value = 3e-30" in text
    assert parse_config(text) == desc
    heat = ExperimentDescriptor("np", "bulk_heating", Ceiling("heating_power", f(1e-11)),
                                phonon=PhononModel(f(3000.0)))
    assert parse_config(serialize(heat)) == heat


# per section built from a dataclass, a config holding every required key,
# and those keys in field order
_SINE = HEATING.replace("dispersion = linear", "dispersion = full_sine\nforce_constant = 14.6\n"
                        "atom_mass = 1.055e-25\nplane_spacing = 2.55e-10")
_COLD = """\
id = cold
kind = cold_atom
[coldatom]
mass_number = 87.0
atom_mass = 1.44e-25
expansion_time = 1.0
[ceiling]
kind = position_variance
value = 4.8e-9
"""
_OSCILLATOR = OPTO + "[oscillator]\nmass = 0.1\nomega_m_hz = 1.5\ntemperature = 0.02\n"
_SHAPE = OPTO.replace(SPHERE_LINES, "shape = {}\ndensity = 1000.0\n{}")
REQUIRED_KEYS = [
    (_OSCILLATOR, "oscillator", ("mass", "omega_m", "temperature")),
    (_COLD, "coldatom", ("mass_number", "atom_mass", "expansion_time")),
    (_SINE, "phonon", ("force_constant", "atom_mass", "plane_spacing")),
    (_SHAPE.format("sphere", "radius = 1e-5"), "geometry", ("radius",)),
    (_SHAPE.format("cuboid", "lx = 1.0\nly = 2.0\nlz = 3.0"), "geometry", ("lx", "ly", "lz")),
    (_SHAPE.format("cylinder", "radius = 0.1\nlength = 1.0"), "geometry", ("radius", "length")),
    (PAIR, "geometry.part", ("radius",)),
]


@pytest.mark.parametrize("text, section, keys", REQUIRED_KEYS,
                         ids=[f"{s}-{'-'.join(k)}" for _, s, k in REQUIRED_KEYS])
def test_missing_required_keys_name_the_first_in_field_order(text, section, keys):
    assert parse_config(text)  # complete, it parses
    # two keys gone; a shape with one required key loses its density as well,
    # which is read before the shape's fields and checked after them
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]] or [(keys[0], "density")]
    for gone in pairs:
        lines = [ln for ln in text.splitlines()
                 if ln.partition("=")[0].strip() not in
                 {f"{k}{suffix}" for k in gone for suffix in ("", "_hz", "_rad_s")}]
        with pytest.raises(ValidationError) as err:
            parse_config("\n".join(lines) + "\n")
        missing = "missing (_hz or _rad_s)" if gone[0] == "omega_m" else "missing"
        assert (err.value.field, err.value.constraint) == (f"{section}.{gone[0]}", missing)


def test_serialize_writes_a_number_that_is_no_float_as_it_prints():
    # a library caller may build a section from ints: each is written as it
    # prints, and reads back as the equal float
    exp = replace(load("auriga"), oscillator=MechanicalOscillator(2, 10, 4, gamma_m=1))
    text = serialize(exp)
    assert text.split("[oscillator]\n")[1].split("\n\n")[0] == (
        "mass = 2\nomega_m_rad_s = 10\ntemperature = 4\ngamma_m_rad_s = 1")
    assert parse_config(text) == exp
