"""Collapse-noise correlation kernels in time and frequency domain.

Two noise models are supported:

* white      f(dt) = delta(dt),        spectrum f~(w) = 1
* exponential f(dt) = (Wc/2) e^{-Wc |dt|}, spectrum f~(w) = Wc^2/(Wc^2 + w^2)

``omega_c`` (Wc) is the angular cutoff in rad/s. The white model behaves as
the exact Wc -> infinity limit in every downstream formula; it is a distinct
variant rather than an infinity sentinel so no float infinities propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, WhiteKernelNotPointwise

WHITE_KIND = "white"
EXPONENTIAL_KIND = "exponential"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    omega_c: float | None = None  # rad/s, present iff kind == "exponential"

    def __post_init__(self):
        if self.kind == WHITE_KIND:
            if self.omega_c is not None:
                raise ValidationError("noise.omega_c", "white noise has no cutoff")
        elif self.kind == EXPONENTIAL_KIND:
            if self.omega_c is None or not math.isfinite(self.omega_c) or self.omega_c <= 0:
                raise ValidationError(
                    "noise.omega_c", "exponential noise requires finite omega_c > 0")
        else:
            raise ValidationError("noise.kind", f"unknown noise kind {self.kind!r}")

    @property
    def is_white(self) -> bool:
        return self.kind == WHITE_KIND


WHITE = NoiseSpec(WHITE_KIND)


def exponential(omega_c: float) -> NoiseSpec:
    """Exponentially correlated noise with angular cutoff omega_c (rad/s)."""
    return NoiseSpec(EXPONENTIAL_KIND, float(omega_c))


def time_correlation(n: NoiseSpec, dt):
    """Time correlation f(dt) in s^-1, even in dt, unit time integral.

    Defined pointwise only for the exponential kernel; the white kernel is a
    delta function.
    """
    if n.is_white:
        raise WhiteKernelNotPointwise("white kernel is a delta function")
    import numpy as np

    dt = np.asarray(dt, dtype=float)
    out = 0.5 * n.omega_c * np.exp(-n.omega_c * np.abs(dt))
    return out if out.ndim else float(out)


def spectrum(n: NoiseSpec, omega):
    """Noise spectrum f~(omega), dimensionless, in [0, 1].

    Computed as 1/(1 + (omega/omega_c)^2), which stays finite for any
    representable omega_c: where the ratio or its square overflows to inf
    (a tiny omega_c), the spectrum is 0, with no overflow warning.

    A Python float omega gives a Python float, computed in Python floats;
    any other omega (an int, a numpy scalar, an array) is read as a float
    array, and gives a float when it is 0-d and an array otherwise; only
    that route imports numpy. Both give the same bits: Python's float ** is
    libm's pow, as numpy's scalar ** is.
    """
    if type(omega) is float:
        if n.is_white:
            return 1.0
        try:
            return 1.0 / (1.0 + (omega / n.omega_c) ** 2)
        except OverflowError:  # where numpy's square is inf, so f~ is 0
            return 0.0
    import numpy as np

    omega = np.asarray(omega, dtype=float)
    if n.is_white:
        # a 0-d omega gives the float a Python float omega gives
        return np.ones_like(omega) if omega.ndim else 1.0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + (omega / n.omega_c) ** 2)
    return out if out.ndim else float(out)
