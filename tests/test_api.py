import thermoact

PUBLIC_NAMES = [
    "ActuatorSpec", "ConfigError", "Drive", "Environment",
    "FrameSingularError", "FrameSolution", "Geometry", "InvalidSpecError",
    "Material", "OptimumReport", "SmallAngleError", "StiffnessResult",
    "StudySettings", "SweepPlan", "SweepTable", "TemperatureProfile",
    "ThermalLoad", "ThermalSystemError", "default_spec",
    "fd_temperature_oracle", "find_optimal_ratio", "parse_config",
    "resolve_sweep", "rise_integral", "run_sweep", "sensitivity_summary",
    "serialize_config", "simulate", "solve_temperature_profile",
    "stiffness_oracle", "sweep_chart_svg", "sweep_csv", "temperature_at",
]


def test_public_api_is_pinned():
    """The package exports exactly these 33 names, and each resolves."""
    assert sorted(thermoact.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(thermoact, name)] == []
