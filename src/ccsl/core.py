"""Physical constants, collapse parameters and a left-to-right float sum,
shared by every module.

Conventions used throughout the package:

* SI units everywhere; each field documents its unit.
* Every frequency held internally is angular (rad/s). Config ingestion
  accepts plain Hz through ``*_hz`` keys and multiplies by 2*pi on load,
  so no 2*pi factor ever appears downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add

from .errors import NegativeLambda, NonPositiveRc

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 constants. A single shared instance, CONSTANTS, is the
    source of truth for all modules."""

    hbar: float = 6.62607015e-34 / TWO_PI  # J s (h exact / 2 pi)
    m0: float = 1.67262192369e-27          # kg, nucleon reference mass (proton)
    me: float = 9.1093837015e-31           # kg, electron mass
    e_charge: float = 1.602176634e-19      # C (exact)
    eps0: float = 8.8541878128e-12         # F/m
    c_light: float = 299792458.0           # m/s (exact)
    kB: float = 1.380649e-23               # J/K (exact)


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class CollapseParams:
    """The (lambda, r_C) pair being constrained.

    lam: collapse rate, s^-1, >= 0. Named ``lam`` because ``lambda`` is
    reserved in Python.
    rc:  noise correlation length, m, > 0.
    """

    lam: float
    rc: float

    def __post_init__(self):
        validate_params(self)


def validate_params(p: CollapseParams) -> CollapseParams:
    """Return p unchanged if its invariants hold, else raise."""
    if not (math.isfinite(p.rc) and p.rc > 0):
        raise NonPositiveRc(f"rc must be > 0 and finite, got {p.rc!r}")
    if not (math.isfinite(p.lam) and p.lam >= 0):
        raise NegativeLambda(f"lambda must be >= 0 and finite, got {p.lam!r}")
    return p


def sum_left(xs) -> float:
    """Left-to-right sum from 0.0, as builtin sum adds floats before Python
    3.12 (which compensates): the float.hex pins hold on every version."""
    return functools.reduce(add, xs, 0.0)
