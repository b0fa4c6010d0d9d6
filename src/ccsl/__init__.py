"""Predictions and exclusion bounds for the colored-noise CSL collapse model.

The package turns experimental noise ceilings (force spectra, X-ray emission,
bulk heating, cold-atom expansion) into upper bounds on the collapse rate as
a function of the correlation length, for white or exponentially correlated
collapse noise.
"""

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
from .diffusion import EtaResult, eta, eta_column, eta_reduced, eta_reduced_reference
from .predict import (ColdAtomDescriptor, FullSineDispersion,
                      MechanicalOscillator, PhononModel, cold_atom_diffusion,
                      dns_ccsl, dns_total, heating_rate, lambda_eff, lambda_eff_quad,
                      normalized_xray_rate, xray_rate)
from .bounds import (Ceiling, ExclusionCurve, envelope, lambda_max_coldatom,
                     lambda_max_for, lambda_max_force, lambda_max_heating,
                     lambda_max_xray, scan)
from .registry import (ExperimentDescriptor, list_bundled, load,
                       load_all_bundled, parse_config, serialize)

__all__ = [
    "CONSTANTS", "CollapseParams", "PhysicalConstants", "validate_params",
    "CcslError", "CompositeCrossTermUnsupported", "EmptyInput", "NegativeLambda",
    "NonPositiveFrequency", "NonPositiveRc", "ParseError", "QuadratureNotConverged",
    "ValidationError", "WashedOut", "WhiteKernelNotPointwise",
    "WHITE", "NoiseSpec", "exponential", "spectrum", "time_correlation",
    "Composite", "Cuboid", "Cylinder", "MassDistribution", "PointMass", "Sphere",
    "composite", "cuboid", "cylinder", "form_factor_sq", "point_mass", "sphere",
    "total_mass",
    "EtaResult", "eta", "eta_column", "eta_reduced", "eta_reduced_reference",
    "ColdAtomDescriptor", "FullSineDispersion", "MechanicalOscillator",
    "PhononModel", "cold_atom_diffusion", "dns_ccsl", "dns_total", "heating_rate",
    "lambda_eff", "lambda_eff_quad", "normalized_xray_rate", "xray_rate",
    "Ceiling", "ExclusionCurve", "envelope",
    "lambda_max_coldatom", "lambda_max_for", "lambda_max_force",
    "lambda_max_heating", "lambda_max_xray", "scan",
    "ExperimentDescriptor", "list_bundled", "load", "load_all_bundled",
    "parse_config", "serialize",
]
