"""Fifteen-minute market simulation with proxy and data-driven ramping products."""

from .milp import (MilpModel, MilpSolution, ConstraintReport, SolveOptions,
                   check_solution, solve)
from .network import (Bus, GenerationResource, PowerSystem, PtdfMatrix, SolarUnit,
                      TransmissionLine, compute_ptdf, load_system, validate_system)
from .scenarios import (ForecastProfile, ProxyEnvelope, Scenario, UncertaintyConfig,
                        load_profiles, proxy_envelopes, sample_scenarios,
                        select_deployment_scenarios)

__version__ = "0.1.0"

__all__ = [
    "Bus", "TransmissionLine", "GenerationResource", "SolarUnit", "PowerSystem",
    "PtdfMatrix", "load_system", "compute_ptdf", "validate_system",
    "ForecastProfile", "UncertaintyConfig", "Scenario",
    "ProxyEnvelope", "load_profiles", "sample_scenarios",
    "select_deployment_scenarios", "proxy_envelopes",
    "MilpModel", "MilpSolution", "ConstraintReport", "SolveOptions",
    "solve", "check_solution",
    "__version__",
]
