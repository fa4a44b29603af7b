import ast
import re
from pathlib import Path

import thermoact

PUBLIC_NAMES = [
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

README = Path(__file__).parents[1] / "README.md"


def test_public_api_is_pinned():
    """The package exports exactly these 32 names, and each resolves."""
    assert sorted(thermoact.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(thermoact, name)] == []


def _names_loaded_by_the_package():
    """Every name a module of the package other than ``__init__.py``
    loads: as a ``Name``, as an ``Attribute`` or in an ``ImportFrom``."""
    loaded = set()
    for path in Path(thermoact.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_public_name_has_a_caller():
    """Each exported name is used by the package itself or documented
    in the README; a name only the tests use is not exported."""
    loaded = _names_loaded_by_the_package()
    readme = README.read_text(encoding="utf-8")
    orphans = [name for name in thermoact.__all__
               if name not in loaded and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []
