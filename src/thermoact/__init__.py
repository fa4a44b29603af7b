"""Simulator for laterally deflecting electrothermal microactuators.

The package models a U-shaped polysilicon actuator: Joule heating of the
asymmetric arms, the resulting steady temperature profile, differential
thermal elongation, and the frame mechanics that convert it into a
lateral jaw sweep.  Two independent numerical oracles (finite-difference
thermal, direct-stiffness mechanical) back every closed form.
"""

from .config import (ConfigError, StudySettings, parse_config,
                     resolve_sweep, serialize_config)
from .electrothermal import (TemperatureProfile, ThermalLoad,
                             ThermalSystemError, fd_temperature_oracle,
                             rise_integral, solve_temperature_profile,
                             temperature_at)
from .model import (ActuatorSpec, Drive, Environment, Geometry,
                    InvalidSpecError, Material, default_spec)
from .output import sweep_chart_svg, sweep_csv
from .study import (OptimumReport, SweepPlan, SweepTable, find_optimal_ratio,
                    run_sweep)
from .thermomech import (FrameSingularError, FrameSolution, SmallAngleError,
                         StiffnessResult, simulate, stiffness_oracle)

__version__ = "0.1.0"

__all__ = [
    "ActuatorSpec", "ConfigError", "Drive", "Environment",
    "FrameSingularError", "FrameSolution", "Geometry", "InvalidSpecError",
    "Material", "OptimumReport", "SmallAngleError", "StiffnessResult",
    "StudySettings", "SweepPlan", "SweepTable", "TemperatureProfile",
    "ThermalLoad", "ThermalSystemError", "default_spec",
    "fd_temperature_oracle", "find_optimal_ratio", "parse_config",
    "resolve_sweep", "rise_integral", "run_sweep", "serialize_config",
    "simulate", "solve_temperature_profile", "stiffness_oracle",
    "sweep_chart_svg", "sweep_csv", "temperature_at",
]
