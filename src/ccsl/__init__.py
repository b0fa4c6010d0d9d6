"""Predictions and exclusion bounds for the colored-noise CSL collapse model.

The package turns experimental noise ceilings (force spectra, X-ray emission,
bulk heating, cold-atom expansion) into upper bounds on the collapse rate as
a function of the correlation length, for white or exponentially correlated
collapse noise.

Importing ccsl loads the descriptor layer only (constants, errors, noise
kernels, geometries and experiment descriptors), which needs no numpy. The
compute names (eta, the predictions and the bounds) are looked up in their
home modules on first access, and the compute modules (ccsl.bounds and the
rest) are imported on first access; either imports numpy.
"""

import importlib

__version__ = "0.1.0"

from .core import CONSTANTS, CollapseParams, PhysicalConstants, validate_params
from .errors import (CcslError, CompositeCrossTermUnsupported, EmptyInput,
                     NegativeLambda, NonPositiveFrequency, NonPositiveRc,
                     ParseError, QuadratureNotConverged, ValidationError, WashedOut,
                     WhiteKernelNotPointwise)
from .noise import WHITE, NoiseSpec, exponential, spectrum, time_correlation
from .geometry import (Composite, Cuboid, Cylinder, MassDistribution, PointMass,
                       Sphere, composite, cuboid, cylinder, form_factor_sq,
                       point_mass, sphere, total_mass)
from .registry import (Ceiling, ColdAtomDescriptor, ExperimentDescriptor,
                       FullSineDispersion, MechanicalOscillator, PhononModel,
                       list_bundled, load, load_all_bundled, parse_config, serialize)

_EAGER = [
    "CONSTANTS", "CollapseParams", "PhysicalConstants", "validate_params",
    "CcslError", "CompositeCrossTermUnsupported", "EmptyInput", "NegativeLambda",
    "NonPositiveFrequency", "NonPositiveRc", "ParseError", "QuadratureNotConverged",
    "ValidationError", "WashedOut", "WhiteKernelNotPointwise",
    "WHITE", "NoiseSpec", "exponential", "spectrum", "time_correlation",
    "Composite", "Cuboid", "Cylinder", "MassDistribution", "PointMass", "Sphere",
    "composite", "cuboid", "cylinder", "form_factor_sq", "point_mass", "sphere",
    "total_mass",
    "Ceiling", "ColdAtomDescriptor", "ExperimentDescriptor", "FullSineDispersion",
    "MechanicalOscillator", "PhononModel", "list_bundled", "load", "load_all_bundled",
    "parse_config", "serialize",
]

# each compute name and the module it lives in, imported on first access
_LAZY = {name: module for module, names in (
    ("diffusion", ("EtaResult", "eta", "eta_column", "eta_reduced", "eta_reduced_reference")),
    ("predict", ("cold_atom_diffusion", "dns_ccsl", "dns_total", "heating_rate",
                 "lambda_eff", "lambda_eff_quad", "normalized_xray_rate", "xray_rate")),
    ("bounds", ("ExclusionCurve", "envelope", "lambda_max_coldatom", "lambda_max_for",
                "lambda_max_force", "lambda_max_heating", "lambda_max_xray", "scan")),
) for name in names}

# the submodules that importing ccsl leaves unimported
_SUBMODULES = {*_LAZY.values(), "quadrature", "cli"}

__all__ = _EAGER + list(_LAZY)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing binds it, so later lookups do not come here
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
