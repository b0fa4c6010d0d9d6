"""Rigid-body mass distributions and their Fourier-space form factors.

The form factor convention is mu~(k) = integral mu(x) e^{-i k.x} d^3x, so
mu~(0) equals the total mass. Squared moduli for the primitives:

* sphere   [3 m (sin kR - kR cos kR)/(kR)^3]^2
* cuboid   m^2 prod_i sinc^2(k_i L_i / 2)          (body axes = global axes)
* cylinder m^2 [2 J1(kp R)/(kp R)]^2 sinc^2(ka L/2)
* point    m^2
* composite |sum_j mu~_j(k) e^{-i k.a_j}|^2

kp/ka are the components of k across/along the cylinder axis. The kernels
switch to a 6th-order Taylor series below |x| = 1e-4 (sinc, disc) or 1e-2
(sphere); they serve only form_factor_sq and eta_reduced_reference, and
each imports numpy when called. The disc kernel's J1 is scipy.special's,
imported on its first call: scipy is needed for that reference path only,
never for eta_reduced. Shapes and distributions check their invariants
when built, in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import sum_left
from .errors import ValidationError, require_positive

_SERIES_CUT = 1e-4


# --- shapes ------------------------------------------------------------------

def _require_unit(field: str, v) -> None:
    if not abs(math.hypot(*v) - 1.0) <= 1e-9:
        raise ValidationError(field, "must be a unit vector")


@dataclass(frozen=True)
class Sphere:
    radius: float  # m

    def __post_init__(self):
        require_positive("geometry.radius", self.radius)


@dataclass(frozen=True)
class Cuboid:
    lx: float  # m; edges are parallel to the global axes
    ly: float
    lz: float

    def __post_init__(self):
        for name in ("lx", "ly", "lz"):
            require_positive(f"geometry.{name}", getattr(self, name))


@dataclass(frozen=True)
class Cylinder:
    radius: float  # m
    length: float  # m
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)  # unit vector

    def __post_init__(self):
        require_positive("geometry.radius", self.radius)
        require_positive("geometry.length", self.length)
        _require_unit("geometry.axis", self.axis)


@dataclass(frozen=True)
class PointMass:
    pass


@dataclass(frozen=True)
class Composite:
    # (part distribution, center offset in m); parts must be primitives
    parts: tuple[tuple["MassDistribution", tuple[float, float, float]], ...]


Shape = Sphere | Cuboid | Cylinder | PointMass | Composite


@dataclass(frozen=True)
class MassDistribution:
    """A rigid body: geometry plus density, and the axis the experiment
    measures displacement along.

    density is kg/m^3 for extended shapes, the total mass in kg for
    PointMass, and None for Composite (each part carries its own).
    """

    shape: Shape
    density: float | None
    measurement_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        validate_distribution(self)


# --- constructors ------------------------------------------------------------

def _floats3(v, field: str, constraint: str) -> tuple[float, float, float]:
    """v as three Python floats, read as numpy reads a sequence into a float
    array: each element by float(), None as NaN; ValidationError(field,
    constraint) where v is not three numbers. A str (or bytes) is one
    number, so it is never a 3-vector; one that does not read as a number
    raises float()'s ValueError."""
    if isinstance(v, (str, bytes)):
        float(v)
        raise ValidationError(field, constraint)
    try:
        parts = tuple(v)
    except TypeError:  # a number, or None
        raise ValidationError(field, constraint) from None
    # a list, tuple or array element is a row, so v is not flat
    if len(parts) != 3 or any(isinstance(c, (list, tuple)) or getattr(c, "shape", ())
                              for c in parts):
        raise ValidationError(field, constraint)
    x, y, z = (math.nan if c is None else float(c) for c in parts)
    return x, y, z


def _unit(v, field: str) -> tuple[float, float, float]:
    """v / |v| in Python floats: math.hypot and three divisions have the same
    bits on every host, whichever BLAS numpy uses. A v whose norm is within
    4 ulp(1) of 1, as the norm of every vector this returns is, is returned
    as it is, so a unit vector read back from a config keeps its bits."""
    x, y, z = _floats3(v, field, "must be a 3-vector")
    norm = math.hypot(x, y, z)
    if not 0.0 < norm < math.inf:
        raise ValidationError(field, "must have positive finite norm")
    if abs(norm - 1.0) <= 4.0 * math.ulp(1.0):
        return (x, y, z)
    return (x / norm, y / norm, z / norm)


def _density_from(shape: Shape, density, mass) -> float:
    if (density is None) == (mass is None):
        raise ValidationError("geometry", "give exactly one of density or mass")
    if density is not None:
        return float(density)
    return float(mass) / volume(shape)


def sphere(radius, *, density=None, mass=None,
           measurement_axis=(1.0, 0.0, 0.0)) -> MassDistribution:
    shape = Sphere(float(radius))
    return MassDistribution(shape, _density_from(shape, density, mass),
                            _unit(measurement_axis, "measurement_axis"))


def cuboid(lx, ly, lz, *, density=None, mass=None,
           measurement_axis=(1.0, 0.0, 0.0)) -> MassDistribution:
    shape = Cuboid(float(lx), float(ly), float(lz))
    return MassDistribution(shape, _density_from(shape, density, mass),
                            _unit(measurement_axis, "measurement_axis"))


def cylinder(radius, length, *, axis=(0.0, 0.0, 1.0), density=None, mass=None,
             measurement_axis=(0.0, 0.0, 1.0)) -> MassDistribution:
    shape = Cylinder(float(radius), float(length), _unit(axis, "geometry.axis"))
    return MassDistribution(shape, _density_from(shape, density, mass),
                            _unit(measurement_axis, "measurement_axis"))


def point_mass(mass, *, measurement_axis=(1.0, 0.0, 0.0)) -> MassDistribution:
    return MassDistribution(PointMass(), float(mass), _unit(measurement_axis, "measurement_axis"))


def composite(parts, *, measurement_axis=(1.0, 0.0, 0.0)) -> MassDistribution:
    """Assemble primitives into one rigid body.

    parts: iterable of (MassDistribution, offset 3-vector in m). Each part
    is kept with the default measurement axis: the body's own axis is the
    one measured, no route reads a part's, and a config cannot state one.
    """
    packed = []
    for part, offset in parts:
        off = _floats3(offset, "geometry.part.offset", "must be a finite 3-vector")
        if not all(map(math.isfinite, off)):
            raise ValidationError("geometry.part.offset", "must be a finite 3-vector")
        if part.measurement_axis != MassDistribution.measurement_axis:  # the default
            part = MassDistribution(part.shape, part.density)
        packed.append((part, off))
    if not packed:
        raise ValidationError("geometry.parts", "composite needs at least one part")
    return MassDistribution(Composite(tuple(packed)), None,
                            _unit(measurement_axis, "measurement_axis"))


# --- mass and volume ---------------------------------------------------------

def volume(shape: Shape) -> float:
    """Analytic volume in m^3 (0.0 for PointMass; parts summed for Composite
    would need densities, so Composite is rejected here)."""
    if isinstance(shape, Sphere):
        return 4.0 / 3.0 * math.pi * shape.radius**3
    if isinstance(shape, Cuboid):
        return shape.lx * shape.ly * shape.lz
    if isinstance(shape, Cylinder):
        return math.pi * shape.radius**2 * shape.length
    if isinstance(shape, PointMass):
        return 0.0
    raise TypeError(f"no single volume for {type(shape).__name__}")


def total_mass(d: MassDistribution) -> float:
    """Total mass in kg: density x analytic volume; Composite sums its parts
    left to right."""
    if isinstance(d.shape, Composite):
        return sum_left(total_mass(part) for part, _ in d.shape.parts)
    if isinstance(d.shape, PointMass):
        return d.density
    return d.density * volume(d.shape)


# --- scalar kernels ----------------------------------------------------------

def sinc_kernel(x):
    """sin(x)/x, with series 1 - x^2/6 + x^4/120 - x^6/5040 below 1e-4."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 0.0, x)
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.where(small, 1.0, np.sin(xs) / np.where(small, 1.0, xs))
    return np.where(small, series, direct)


def sphere_kernel(x):
    """3 (sin x - x cos x)/x^3, series 1 - x^2/10 + x^4/280 - x^6/15120.

    The series window is 1e-2 rather than 1e-4: sin x - x cos x cancels to
    x^3/3, so the direct form carries a ~6 eps/x^2 relative error (1e-8 at
    x = 1e-4). At the 1e-2 switch the truncated series errs by x^8/1330560
    ~ 1e-22 and the direct branch by ~7e-12.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = 1.0 - x2 / 10.0 + x2 * x2 / 280.0 - x2 * x2 * x2 / 15120.0
    direct = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs**3
    return np.where(small, series, direct)


def disc_kernel(x):
    """2 J1(x)/x, series 1 - x^2/8 + x^4/192 - x^6/9216. J1 is bessel_j1's,
    so the first call imports scipy.special."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = 1.0 - x2 / 8.0 + x2 * x2 / 192.0 - x2 * x2 * x2 / 9216.0
    direct = 2.0 * bessel_j1(xs) / xs
    return np.where(small, series, direct)


def bessel_j1(x):
    """Bessel J1: SciPy's Cephes implementation, imported on first use, so
    only the reference path (form_factor_sq of a cylinder) loads scipy.
    Accuracy is pinned by the high-precision fixtures in the test suite."""
    from scipy.special import j1

    return j1(x)


# --- form factor -------------------------------------------------------------

def form_amplitude(d: MassDistribution, k):
    """mu~(k) for k of shape (..., 3). Real for centered primitives, complex
    for composites (translation phases)."""
    import numpy as np

    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError("k must have shape (..., 3)")
    shape = d.shape
    if isinstance(shape, PointMass):
        return np.broadcast_to(np.asarray(d.density), k.shape[:-1]).copy()
    if isinstance(shape, Sphere):
        m = total_mass(d)
        kr = np.linalg.norm(k, axis=-1) * shape.radius
        return m * sphere_kernel(kr)
    if isinstance(shape, Cuboid):
        m = total_mass(d)
        return (m * sinc_kernel(0.5 * k[..., 0] * shape.lx)
                * sinc_kernel(0.5 * k[..., 1] * shape.ly)
                * sinc_kernel(0.5 * k[..., 2] * shape.lz))
    if isinstance(shape, Cylinder):
        m = total_mass(d)
        axis = np.asarray(shape.axis)
        k_par = k @ axis
        k_perp = np.sqrt(np.maximum(np.sum(k * k, axis=-1) - k_par**2, 0.0))
        return (m * disc_kernel(k_perp * shape.radius)
                * sinc_kernel(0.5 * k_par * shape.length))
    if isinstance(shape, Composite):
        total = np.zeros(k.shape[:-1], dtype=complex)
        for part, offset in shape.parts:
            phase = np.exp(-1j * (k @ np.asarray(offset)))
            total = total + form_amplitude(part, k) * phase
        return total
    raise TypeError(f"unknown shape {type(shape).__name__}")


def form_factor_sq(d: MassDistribution, k):
    """|mu~(k)|^2 in kg^2 for k (m^-1) of shape (..., 3) or (3,)."""
    import numpy as np

    amp = form_amplitude(d, k)
    out = np.abs(amp) ** 2 if np.iscomplexobj(amp) else amp * amp
    return float(out) if out.ndim == 0 else out


# --- validation --------------------------------------------------------------

def circumradius(d: MassDistribution) -> float:
    """Radius of the smallest origin-centered ball containing the body."""
    s = d.shape
    if isinstance(s, Sphere):
        return s.radius
    if isinstance(s, Cuboid):
        return 0.5 * math.sqrt(s.lx**2 + s.ly**2 + s.lz**2)
    if isinstance(s, Cylinder):
        return math.sqrt(s.radius**2 + (0.5 * s.length) ** 2)
    if isinstance(s, PointMass):
        return 0.0
    if isinstance(s, Composite):
        return max(math.hypot(*off) + circumradius(part)
                   for part, off in s.parts)
    raise TypeError(type(s).__name__)


def validate_distribution(d: MassDistribution) -> MassDistribution:
    """Check the distribution-level invariants: a positive density (None for
    a composite) and a unit measurement axis. Shapes and composite parts
    check their own when they are built; MassDistribution calls this."""
    if isinstance(d.shape, Composite):
        if d.density is not None:
            raise ValidationError("geometry.density", "composite parts carry densities")
    elif d.density is None or not (d.density > 0 and math.isfinite(d.density)):
        field = "geometry.mass" if isinstance(d.shape, PointMass) else "geometry.density"
        raise ValidationError(field, "must be > 0")
    _require_unit("measurement_axis", d.measurement_axis)
    return d
