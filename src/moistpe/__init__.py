"""Pseudo-spectral simulator and verification harness for the moist
primitive equations on a periodic pressure-coordinate domain.

The public surface mirrors the internal layering: spectral fields and norms,
the physical model (diagnostics, tendencies, projection), time integration,
runtime monitors, randomized probes, and the verification oracles."""

from .config import RunConfig
from .errors import (
    BlowupError,
    ConfigError,
    ConstraintError,
    DataError,
    ParameterError,
    SamplingError,
    SimulationError,
)
from .fields import Field3D, dealias, derivative
from .grid import Grid
from .initial import random_smooth, rest
from .manufactured import CASES, ManufacturedSolution, get_case
from .model import (
    FAITHFUL,
    Diagnostics,
    ModelVariant,
    Tendency,
    barotropic_project,
    diagnose,
    diagnose_omega,
    diagnose_phi,
    project_state,
    temperature_from_theta,
    tendency,
    theta_from_temperature,
)
from .monitors import (
    BudgetSample,
    NormReport,
    energy_budget,
    gronwall_series,
    minkowski_probe,
    norm_report,
    trilinear_bound,
    trilinear_form,
)
from .norms import sobolev_norm, weighted_norm_w
from .params import PhysParams, Profile
from .state import State
from .stepper import StepConfig, Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "BlowupError",
    "BudgetSample",
    "CASES",
    "ConfigError",
    "ConstraintError",
    "DataError",
    "Diagnostics",
    "FAITHFUL",
    "Field3D",
    "Grid",
    "ManufacturedSolution",
    "ModelVariant",
    "NormReport",
    "ParameterError",
    "PhysParams",
    "Profile",
    "RunConfig",
    "SamplingError",
    "SimulationError",
    "State",
    "StepConfig",
    "Tendency",
    "Trajectory",
    "barotropic_project",
    "dealias",
    "derivative",
    "diagnose",
    "diagnose_omega",
    "diagnose_phi",
    "energy_budget",
    "get_case",
    "gronwall_series",
    "minkowski_probe",
    "norm_report",
    "project_state",
    "random_smooth",
    "rest",
    "run",
    "sobolev_norm",
    "temperature_from_theta",
    "tendency",
    "theta_from_temperature",
    "trilinear_bound",
    "trilinear_form",
    "weighted_norm_w",
    "__version__",
]
