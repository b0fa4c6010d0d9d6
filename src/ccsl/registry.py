"""Experiment descriptors as data: bundled defaults plus user config files.

Config grammar (line oriented, UTF-8, '#' starts a comment outside quotes):

    key = value                  value: number | bare word | "string" | x y z
    [section]                    one of geometry, oscillator, ceiling,
                                 phonon, coldatom
    [[geometry.part]]            appends one composite part (primitives only)

Lengths, masses and densities are SI base units. Every frequency key must
carry a unit suffix, ``_hz`` (multiplied by 2*pi on load) or ``_rad_s``;
a bare ``probe =`` is rejected. Unknown keys and sections are errors
(strict mode).

The keys of [oscillator], [coldatom], a full-sine [phonon] and each
primitive shape are the fields of the dataclass built from them
(MechanicalOscillator, ColdAtomDescriptor, FullSineDispersion, Sphere,
Cuboid, Cylinder): the reader takes them in field order and ``serialize``
writes them in that order.

The descriptor and its section types (Ceiling, MechanicalOscillator,
PhononModel, FullSineDispersion, ColdAtomDescriptor) are defined here, and
this module imports no compute module: loading, checking and serializing a
descriptor needs no numpy.

Loaded descriptors are immutable and safe to share between threads. A
bundled id is parsed once per process and the same descriptor is returned on
every later load; a config file path is read and parsed on every load.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import TWO_PI
from .errors import ParseError, ValidationError, require_positive
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass, Sphere,
                       composite, cuboid, cylinder, point_mass, sphere)

_BUNDLED = ("auriga", "bulk-heating", "cantilever", "cold-atom", "ligo",
            "lisa-pathfinder", "xray")


# --- descriptor value types ------------------------------------------------------

FORCE_PSD = "force_psd"
XRAY_NORMALIZED = "xray_normalized"
HEATING_POWER = "heating_power"
POSITION_VARIANCE = "position_variance"


@dataclass(frozen=True)
class Ceiling:
    """A measured maximum signal attributable to collapse noise.

    kind/value units: force_psd N^2/Hz, xray_normalized s^-1 m^-2,
    heating_power W/kg, position_variance m^2. probe is a single angular
    frequency (rad/s), or an (lo, hi) band for force_psd.
    """

    kind: str
    value: float
    probe: float | tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (FORCE_PSD, XRAY_NORMALIZED, HEATING_POWER,
                             POSITION_VARIANCE):
            raise ValidationError("ceiling.kind", f"unknown kind {self.kind!r}")
        require_positive("ceiling.value", self.value)
        if isinstance(self.probe, tuple):
            if self.kind != FORCE_PSD:
                raise ValidationError("ceiling.probe", "bands only for force_psd")
            lo, hi = self.probe
            if not (0 < lo < hi and math.isfinite(hi)):
                raise ValidationError("ceiling.probe", "band needs 0 < lo < hi")
        elif self.probe is not None:
            require_positive("ceiling.probe", self.probe)
        if self.kind == FORCE_PSD and self.probe is None:
            raise ValidationError("ceiling.probe", "force_psd needs a probe frequency")
        if self.kind == XRAY_NORMALIZED and (self.probe is None
                                             or isinstance(self.probe, tuple)):
            raise ValidationError("ceiling.probe",
                                  "xray_normalized needs a single observation frequency")

    @property
    def omega(self) -> float | None:
        """The angular frequency f~ is taken at: the probe, or a band's lower
        edge (None without a probe). A band ceiling must hold at every
        frequency of the band, and f~ does not increase with |w|, so the
        lower edge gives the strongest bound that is justified."""
        return self.probe[0] if isinstance(self.probe, tuple) else self.probe


@dataclass(frozen=True)
class MechanicalOscillator:
    """Trapped, damped oscillator in a thermal bath.

    gamma_m may be omitted when only force-noise (not displacement) spectra
    are needed.
    """

    mass: float                 # kg
    omega_m: float              # rad/s
    temperature: float          # K
    gamma_m: float | None = None  # s^-1

    def __post_init__(self):
        for name in ("mass", "omega_m", "temperature"):
            require_positive(f"oscillator.{name}", getattr(self, name))
        if self.gamma_m is not None:
            require_positive("oscillator.gamma_m", self.gamma_m)
            if self.gamma_m >= self.omega_m:
                warnings.warn("oscillator is overdamped (gamma_m >= omega_m); "
                              "resonant formulas may not apply", stacklevel=2)


@dataclass(frozen=True)
class FullSineDispersion:
    """Nearest-neighbour monoatomic-lattice dispersion
    w_L(q)^2 = (4 C / m_A) sin^2(q a / 2)."""

    force_constant: float  # N/m
    atom_mass: float       # kg
    plane_spacing: float   # m

    def sound_speed(self) -> float:
        return self.plane_spacing * math.sqrt(self.force_constant / self.atom_mass)


@dataclass(frozen=True)
class PhononModel:
    """Longitudinal phonon branch: linear (dispersion=None, w_L = v_s q) or
    the full sine form. When both are given they must agree at small q."""

    v_s: float  # m/s
    dispersion: FullSineDispersion | None = None

    def __post_init__(self):
        require_positive("phonon.v_s", self.v_s)
        if self.dispersion is not None:
            for name in ("force_constant", "atom_mass", "plane_spacing"):
                require_positive(f"phonon.{name}", getattr(self.dispersion, name))
            if abs(self.dispersion.sound_speed() / self.v_s - 1.0) > 0.01:
                raise ValidationError(
                    "phonon.v_s", "inconsistent with a sqrt(C/m_A) beyond 1%")

    def omega_l(self, q):
        """w_L(q) in rad/s, as a float array (numpy is imported here)."""
        import numpy as np

        q = np.asarray(q, dtype=float)
        if self.dispersion is None:
            return self.v_s * np.abs(q)
        disp = self.dispersion
        wmax = 2.0 * math.sqrt(disp.force_constant / disp.atom_mass)
        return wmax * np.abs(np.sin(0.5 * np.abs(q) * disp.plane_spacing))


@dataclass(frozen=True)
class ColdAtomDescriptor:
    """Free-falling atom cloud: nucleon count A per atom, single-atom mass,
    and the ballistic expansion time."""

    mass_number: float     # dimensionless A
    atom_mass: float       # kg
    expansion_time: float  # s

    def __post_init__(self):
        for name in ("mass_number", "atom_mass"):
            require_positive(f"coldatom.{name}", getattr(self, name))
        if not (self.expansion_time >= 0 and math.isfinite(self.expansion_time)):
            raise ValidationError("coldatom.expansion_time", "must be >= 0")


@dataclass(frozen=True)
class ExperimentDescriptor:
    id: str
    kind: str
    ceiling: Ceiling
    geometry: MassDistribution | None = None
    oscillator: MechanicalOscillator | None = None
    phonon: PhononModel | None = None
    coldatom: ColdAtomDescriptor | None = None
    provenance: str = ""

    def __post_init__(self):
        validate_descriptor(self)


def validate_descriptor(desc: ExperimentDescriptor) -> ExperimentDescriptor:
    """Exactly the fields demanded by the kind must be present, and the id
    and provenance must read back from the config text ``serialize`` writes."""
    if not isinstance(desc.id, str):
        raise ValidationError("id", "missing or not a string")
    if not desc.id:
        raise ValidationError("id", "must be non-empty")
    if not isinstance(desc.provenance, str):
        raise ValidationError("provenance", f"not a string: {desc.provenance!r}")
    if _read_back(_word(desc.id)) != desc.id:
        raise ValidationError("id", "cannot be written as one config value")
    if desc.provenance and _read_back(f'"{desc.provenance}"') != desc.provenance:
        raise ValidationError("provenance", "cannot be written as one config value")
    need = {  # per kind: required sections, ceiling kind, forbidden sections
        "optomechanical": (("geometry",), FORCE_PSD, ("phonon", "coldatom")),
        "xray": ((), XRAY_NORMALIZED, ("geometry", "oscillator", "phonon", "coldatom")),
        "bulk_heating": (("phonon",), HEATING_POWER, ("geometry", "oscillator", "coldatom")),
        "cold_atom": (("coldatom",), POSITION_VARIANCE, ("geometry", "oscillator", "phonon")),
    }
    if desc.kind not in need:
        raise ValidationError("kind", f"unknown kind {desc.kind!r}")
    required, ceiling_kind, forbidden = need[desc.kind]
    for field in required:
        if getattr(desc, field) is None:
            raise ValidationError(field, f"required for kind {desc.kind}")
    for field in forbidden:
        if getattr(desc, field) is not None:
            raise ValidationError(field, f"not allowed for kind {desc.kind}")
    if desc.ceiling.kind != ceiling_kind:
        raise ValidationError("ceiling.kind",
                              f"kind {desc.kind} requires {ceiling_kind}")
    return desc


# --- parsing -------------------------------------------------------------------

_SECTIONS = ("geometry", "oscillator", "ceiling", "phonon", "coldatom")

# per section, its frequency keys: each is read through _freq with an _hz or
# _rad_s suffix and written as <key>_rad_s, so its bare name is an error of its own
_BARE_FREQ_KEYS = {"oscillator": ("omega_m", "gamma_m"), "ceiling": ("probe", "band_lo", "band_hi")}


def _strip_comment(line: str) -> str:
    """line up to its first '#' outside quotes: one with an even number of '"' before it."""
    cut = line.find("#")
    while cut >= 0 and line.count('"', 0, cut) % 2:
        cut = line.find("#", cut + 1)
    return line if cut < 0 else line[:cut]


def _parse_value(raw: str, line_no: int, col: int):
    raw = raw.strip()
    if not raw:
        raise ParseError(line_no, col, "missing value")
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ParseError(line_no, col, "unterminated string")
        return raw[1:-1]
    tokens = raw.split()
    if len(tokens) == 3:
        try:
            return tuple(float(t) for t in tokens)
        except ValueError:
            raise ParseError(line_no, col, f"bad vector {raw!r}") from None
    if len(tokens) != 1:
        raise ParseError(line_no, col, f"expected one value or a 3-vector, got {raw!r}")
    try:
        return float(tokens[0])
    except ValueError:
        return tokens[0]  # bare word


def _read_back(value: str):
    """The value a config line ``key = value`` holds, or None where value
    spans lines or does not parse."""
    if value.splitlines() != [value]:
        return None
    try:
        return _parse_value(_strip_comment(value), 1, 1)
    except ParseError:
        return None


def parse_config(text: str) -> ExperimentDescriptor:
    top: dict = {}
    sections: dict[str, dict] = {}
    parts: list[dict] = []
    current = top
    current_name = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise ParseError(line_no, len(raw_line), "expected ']]'")
            name = line[2:-2].strip()
            if name != "geometry.part":
                raise ParseError(line_no, 3, f"unknown list section {name!r}")
            current = {}
            current_name = "geometry.part"
            parts.append(current)
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(line_no, len(raw_line), "expected ']'")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(line_no, 2, f"unknown section {name!r}")
            if name in sections:
                raise ParseError(line_no, 2, f"duplicate section {name!r}")
            sections[name] = {}
            current = sections[name]
            current_name = name
            continue
        if "=" not in line:
            raise ParseError(line_no, 1, "expected 'key = value' or a section header")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(line_no, 1, "empty key")
        section = current_name or "top"
        if key in _BARE_FREQ_KEYS.get(section, ()):
            raise ValidationError(f"{section}.{key}",
                                  "frequency keys need an explicit _hz or _rad_s suffix")
        if key.startswith("_"):  # "_parts" holds the [[geometry.part]] sections
            raise ValidationError(f"{section}.{key}", f"not valid for this {section}")
        if key in current:
            raise ParseError(line_no, 1, f"duplicate key {key!r}")
        current[key] = _parse_value(raw_value, line_no, line.index("=") + 2)
    if parts:
        sections.setdefault("geometry", {})["_parts"] = parts
    return _build_descriptor(top, sections)


def _num(sec: dict, section: str, key: str, required=True):
    if key not in sec:
        if required:
            raise ValidationError(f"{section}.{key}", "missing")
        return None
    v = sec.pop(key)
    if not isinstance(v, float):
        raise ValidationError(f"{section}.{key}", "must be a number")
    return v


def _freq(sec: dict, section: str, base: str, required=True):
    """Angular frequency from the pair of suffixed keys; Hz scaled by 2*pi."""
    hz, rad = sec.pop(f"{base}_hz", None), sec.pop(f"{base}_rad_s", None)
    if hz is not None and rad is not None:
        raise ValidationError(f"{section}.{base}", "give _hz or _rad_s, not both")
    if hz is None and rad is None:
        if required:
            raise ValidationError(f"{section}.{base}", "missing (_hz or _rad_s)")
        return None
    v = rad if rad is not None else hz
    if not isinstance(v, float):
        raise ValidationError(f"{section}.{base}", "must be a number")
    return v if hz is None else TWO_PI * v


def _vec(sec: dict, section: str, key: str, default: tuple) -> tuple:
    v = sec.pop(key, default)
    if not isinstance(v, tuple):
        raise ValidationError(f"{section}.{key}", "must be a 3-vector")
    return v


def _fields(cls, sec: dict, section: str) -> dict:
    """cls's fields read from sec in field order, as keyword arguments: a
    3-vector where the field defaults to a tuple, the _hz/_rad_s pair for a
    key in _BARE_FREQ_KEYS, a number otherwise. A field with a default may
    be absent, and then takes it."""
    freqs, kw = _BARE_FREQ_KEYS.get(section, ()), {}
    for f in dataclasses.fields(cls):
        if isinstance(f.default, tuple):
            v = _vec(sec, section, f.name, f.default)
        else:
            read = _freq if f.name in freqs else _num
            v = read(sec, section, f.name, required=f.default is dataclasses.MISSING)
        if v is not None:
            kw[f.name] = v
    return kw


def _check_consumed(sec: dict, section: str):
    """The one check for unknown keys: a builder pops every key it uses."""
    for key in sec:
        raise ValidationError(f"{section}.{key}", f"not valid for this {section}")


def _build_section(cls, sec: dict, section: str):
    """cls built from its own section: its fields, and no other key."""
    obj = cls(**_fields(cls, sec, section))
    _check_consumed(sec, section)
    return obj


def _build_geometry(sec: dict, section="geometry") -> MassDistribution:
    shape, parts = sec.pop("shape", None), sec.pop("_parts", None)
    if shape is None:
        raise ValidationError(f"{section}.shape", "missing")
    if parts and shape != "composite":
        raise ValidationError(f"{section}.shape", f"{shape} takes no [[geometry.part]] sections")
    meas = _vec(sec, section, "measurement_axis", (1.0, 0.0, 0.0)) \
        if section == "geometry" else (1.0, 0.0, 0.0)
    density = _num(sec, section, "density", required=False)
    mass = _num(sec, section, "mass", required=False)
    primitives = {"sphere": (sphere, Sphere), "cuboid": (cuboid, Cuboid),
                  "cylinder": (cylinder, Cylinder)}
    if shape in primitives:
        make, cls = primitives[shape]
        d = make(**_fields(cls, sec, section), density=density, mass=mass,
                 measurement_axis=meas)
    elif shape == "point_mass":
        if density is not None:
            raise ValidationError(f"{section}.density", "point_mass takes mass only")
        d = point_mass(mass if mass is not None else float("nan"), measurement_axis=meas)
    elif shape == "composite":
        if not parts:
            raise ValidationError(f"{section}.shape", "composite needs [[geometry.part]] sections")
        if density is not None or mass is not None:
            raise ValidationError(f"{section}.density", "composite parts carry densities")
        built = []
        for i, p in enumerate(parts):
            off = p.pop("offset", None)
            if not isinstance(off, tuple):
                raise ValidationError(f"geometry.part[{i}].offset",
                                      "each part needs an offset 3-vector")
            built.append((_build_geometry(p, section="geometry.part"), off))
        d = composite(built, measurement_axis=meas)
    else:
        raise ValidationError(f"{section}.shape", f"unknown shape {shape!r}")
    _check_consumed(sec, section)
    return d


def _build_ceiling(sec: dict) -> Ceiling:
    kind = sec.pop("kind", None)
    if kind is None:
        raise ValidationError("ceiling.kind", "missing")
    value = _num(sec, "ceiling", "value")
    lo = _freq(sec, "ceiling", "band_lo", required=False)
    hi = _freq(sec, "ceiling", "band_hi", required=False)
    single = _freq(sec, "ceiling", "probe", required=False)
    if (lo is None) != (hi is None):
        raise ValidationError("ceiling.band", "band needs both lo and hi edges")
    if lo is not None and single is not None:
        raise ValidationError("ceiling.probe", "give a single probe or a band, not both")
    probe = (lo, hi) if lo is not None else single
    _check_consumed(sec, "ceiling")
    return Ceiling(kind=kind, value=value, probe=probe)


def _build_descriptor(top: dict, sections: dict) -> ExperimentDescriptor:
    exp_id = top.pop("id", None)
    kind = top.pop("kind", None)
    provenance = top.pop("provenance", "")
    if not isinstance(exp_id, str) or not exp_id:
        raise ValidationError("id", "missing or not a string")
    if not isinstance(provenance, str):  # a number or a vector would not round-trip
        raise ValidationError("provenance", f"not a string: {provenance!r}")
    if not isinstance(kind, str):
        raise ValidationError("kind", "missing")
    _check_consumed(top, "top")

    geometry = oscillator = phonon = coldatom = None
    if "geometry" in sections:
        geometry = _build_geometry(sections.pop("geometry"))
    if "oscillator" in sections:
        oscillator = _build_section(MechanicalOscillator, sections.pop("oscillator"), "oscillator")
    if "phonon" in sections:
        sec = sections.pop("phonon")
        v_s = _num(sec, "phonon", "v_s")
        disp_name = sec.pop("dispersion", "linear")
        if disp_name == "linear":
            dispersion = None
        elif disp_name == "full_sine":
            dispersion = FullSineDispersion(**_fields(FullSineDispersion, sec, "phonon"))
        else:
            raise ValidationError("phonon.dispersion", f"unknown {disp_name!r}")
        phonon = PhononModel(v_s=v_s, dispersion=dispersion)
        _check_consumed(sec, "phonon")
    if "coldatom" in sections:
        coldatom = _build_section(ColdAtomDescriptor, sections.pop("coldatom"), "coldatom")
    if "ceiling" not in sections:
        raise ValidationError("ceiling", "missing [ceiling] section")
    ceiling = _build_ceiling(sections.pop("ceiling"))

    return ExperimentDescriptor(id=exp_id, kind=kind, ceiling=ceiling,
                                geometry=geometry, oscillator=oscillator,
                                phonon=phonon, coldatom=coldatom,
                                provenance=provenance)


# --- serialization ---------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, tuple):
        return " ".join(repr(float(x)) for x in v)
    if isinstance(v, float):  # a numpy float's own repr, np.float64(803.0), does not parse
        return repr(float(v))
    return str(v)


def _word(s: str) -> str:
    """A string as config text: bare where it reads back as itself, quoted
    where it would not (a space, a '#', or a word that reads as a number)."""
    return s if _read_back(s) == s else f'"{s}"'


def _field_lines(obj, section: str) -> list[str]:
    """obj's fields as config lines in field order, the order _fields reads
    them: a frequency as <key>_rad_s, a None field left out."""
    freqs = _BARE_FREQ_KEYS.get(section, ())
    return [f"{f.name}{'_rad_s' if f.name in freqs else ''} = {_fmt(v)}"
            for f in dataclasses.fields(obj) if (v := getattr(obj, f.name)) is not None]


def _geometry_lines(d: MassDistribution, header: str, out: list,
                    offset=None) -> None:
    s = d.shape
    out.append(header)
    if isinstance(s, Composite):
        out.append("shape = composite")
        out.append(f"measurement_axis = {_fmt(d.measurement_axis)}")
        for part, off in s.parts:
            out.append("")
            _geometry_lines(part, "[[geometry.part]]", out, offset=off)
        return
    if isinstance(s, PointMass):
        out.append("shape = point_mass")
        out.append(f"mass = {_fmt(d.density)}")
    else:  # a primitive, named in configs by its class name in lower case
        out.append(f"shape = {type(s).__name__.lower()}")
        out.extend(_field_lines(s, "geometry"))
        out.append(f"density = {_fmt(d.density)}")
    if offset is not None:
        out.append(f"offset = {_fmt(offset)}")
    if header == "[geometry]":
        out.append(f"measurement_axis = {_fmt(d.measurement_axis)}")


def serialize(desc: ExperimentDescriptor) -> str:
    """Canonical config text; load(serialize(d)) equals d field for field."""
    out = [f"id = {_word(desc.id)}", f"kind = {desc.kind}"]
    if desc.provenance:
        out.append(f'provenance = "{desc.provenance}"')
    if desc.geometry is not None:
        out.append("")
        _geometry_lines(desc.geometry, "[geometry]", out)
    if desc.oscillator is not None:
        out.extend(["", "[oscillator]", *_field_lines(desc.oscillator, "oscillator")])
    if desc.phonon is not None:
        p = desc.phonon
        out.extend(["", "[phonon]", f"v_s = {_fmt(p.v_s)}"])
        if p.dispersion is None:
            out.append("dispersion = linear")
        else:
            out.append("dispersion = full_sine")
            out.extend(_field_lines(p.dispersion, "phonon"))
    if desc.coldatom is not None:
        out.extend(["", "[coldatom]", *_field_lines(desc.coldatom, "coldatom")])
    c = desc.ceiling
    out.extend(["", "[ceiling]", f"kind = {c.kind}", f"value = {_fmt(c.value)}"])
    if isinstance(c.probe, tuple):
        out.append(f"band_lo_rad_s = {_fmt(c.probe[0])}")
        out.append(f"band_hi_rad_s = {_fmt(c.probe[1])}")
    elif c.probe is not None:
        out.append(f"probe_rad_s = {_fmt(c.probe)}")
    return "\n".join(out) + "\n"


# --- loading ---------------------------------------------------------------------

def list_bundled() -> list[str]:
    """Stable, alphabetical list of bundled experiment ids."""
    return list(_BUNDLED)


def load(source: str | Path) -> ExperimentDescriptor:
    """Load a bundled descriptor by id, or a config file by path."""
    if isinstance(source, str) and source in _BUNDLED:
        return _load_bundled(source)
    path = Path(source)
    if not path.is_file():
        raise ValidationError("source", f"no bundled experiment or file named {source!r}")
    return parse_config(path.read_text("utf-8"))


@functools.cache
def _load_bundled(name: str) -> ExperimentDescriptor:
    text = resources.files("ccsl").joinpath(f"data/{name}.cfg").read_text("utf-8")
    return parse_config(text)


def load_all_bundled() -> list[ExperimentDescriptor]:
    return [load(name) for name in _BUNDLED]
