"""Plain-text configuration for actuators and studies.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines ignored.  Sections are material, environment, geometry,
drive and study.  Geometry lengths are written in micrometres, drive in
volts, material and environment in SI; micrometre-to-metre conversion
happens here and nowhere else.  Any key may be omitted, in which case
the reference actuator's value applies, so an empty document is a valid
description of the default device.

Example::

    geometry.hot_arm_length = 750     # um
    geometry.cold_arm_length = 345    # um
    drive.voltage = 8
    study.parameter = ratio
    study.optimize_grid = 71
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import (ActuatorSpec, Drive, Environment, Geometry,
                    InvalidSpecError, Material)
from .study import PARAMETERS, RATIO_RANGE, _linspace

_MICRO = 1.0e-6

# Upper bound on the points of one sweep or optimisation scan, far above
# any study grid in use, so a mistyped size is refused before anything
# is allocated.
MAX_GRID_POINTS = 100_000

_SECTION_TYPES = {
    "material": Material,
    "environment": Environment,
    "geometry": Geometry,
    "drive": Drive,
}

_STUDY_KEYS = {
    "parameter": str,
    "start": float,
    "stop": float,
    "steps": int,
    "optimize_grid": int,
}

# Display unit and its factor to SI for each swept parameter (config
# file, CLI flags, CSV values and chart axis).
DISPLAY_UNITS = {
    "voltage": ("V", 1.0),
    "ratio": ("", 1.0),
    "gap": ("um", _MICRO),
    "hot_arm_length": ("um", _MICRO),
}

# The built-in study grids in SI, each display value times its unit's
# factor, formed once: a sweep given no range returns its grid as is.
_DEFAULT_GRIDS = {
    param: tuple(v * DISPLAY_UNITS[param][1] for v in display)
    for param, display in (("ratio", _linspace(*RATIO_RANGE, 71)),
                           ("gap", (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)),
                           ("voltage", _linspace(0.0, 8.0, 17)),
                           ("hot_arm_length", (500.0, 600.0, 750.0)))
}


class ConfigError(ValueError):
    """Unparseable or invalid configuration; lists every diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True)
class StudySettings:
    """Study controls from the config file, in display units.

    start/stop/steps replace the built-in grid for the chosen
    parameter; a sweep given some but not all three, CLI flags merged
    in, is refused with ``incomplete sweep range: missing ...``.
    """

    parameter: str = "ratio"
    start: float | None = None
    stop: float | None = None
    steps: int | None = None
    optimize_grid: int = 71


def _known_keys():
    keys = {}
    for section, cls in _SECTION_TYPES.items():
        for f in fields(cls):
            keys[f"{section}.{f.name}"] = float
    for name, kind in _STUDY_KEYS.items():
        keys[f"study.{name}"] = kind
    return keys


_SCHEMA = _known_keys()


def parse_config(text: str):
    """Parse a config document into (ActuatorSpec, StudySettings).

    Raises ConfigError carrying one line-numbered diagnostic per
    problem; nothing is constructed until the whole document is clean.
    """
    values: dict[str, dict[str, object]] = {
        section: {} for section in (*_SECTION_TYPES, "study")}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, _, literal = line.partition("=")
        key = key.strip()
        literal = literal.strip()
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        section, _, name = key.partition(".")
        if name in values[section]:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        kind = _SCHEMA[key]
        try:
            value = kind(literal)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            problems.append(
                f"line {lineno}: {key} expects {expected}, got {literal!r}")
            continue
        values[section][name] = value * _MICRO if section == "geometry" else value
    if problems:
        raise ConfigError(problems)

    try:
        spec = ActuatorSpec(**{section: cls(**values[section])
                               for section, cls in _SECTION_TYPES.items()})
    except InvalidSpecError as exc:
        raise ConfigError(exc.diagnostics) from exc

    settings = StudySettings(**values["study"])
    study_problems = []
    if settings.parameter not in PARAMETERS:
        study_problems.append(
            f"study.parameter must be one of {', '.join(PARAMETERS)}")
    if settings.steps is not None and settings.steps < 2:
        study_problems.append("study.steps must be at least 2")
    if settings.steps is not None and settings.steps > MAX_GRID_POINTS:
        study_problems.append(f"study.steps must be at most {MAX_GRID_POINTS}")
    if settings.optimize_grid < 3:
        study_problems.append("study.optimize_grid must be at least 3")
    if settings.optimize_grid > MAX_GRID_POINTS:
        study_problems.append(
            f"study.optimize_grid must be at most {MAX_GRID_POINTS}")
    if (settings.start is None) != (settings.stop is None):
        study_problems.append("study.start and study.stop must appear together")
    finite = True
    for name in ("start", "stop"):
        value = getattr(settings, name)
        if value is not None and not math.isfinite(value):
            study_problems.append(f"study.{name} must be finite")
            finite = False
    if finite and settings.start is not None and settings.stop is not None \
            and not settings.start < settings.stop:
        study_problems.append("study.start must be below study.stop")
    if study_problems:
        raise ConfigError(study_problems)
    return spec, settings


def serialize_config(spec: ActuatorSpec, settings: StudySettings | None = None) -> str:
    """Render a spec (and optional study settings) as a config document.

    Emits every key in schema order so the output is also a readable
    record of the full operating point.
    """
    lines = [
        "# thermoact configuration",
        "# geometry in micrometres, drive in volts, the rest in SI",
    ]
    for section, cls in _SECTION_TYPES.items():
        component = getattr(spec, section)
        lines.append("")
        for f in fields(cls):
            value = getattr(component, f.name)
            if section == "geometry":
                # The displays d that parse back (d x 1e-6) to this
                # length fill an interval about length / 1e-6, and this
                # quotient is the double nearest that point, so it parses
                # back whenever any display does.  A length with no such
                # display comes back one float off.
                value = value / _MICRO
            lines.append(f"{section}.{f.name} = {value!r}")
    if settings is not None:
        lines.append("")
        for name in _STUDY_KEYS:
            value = getattr(settings, name)
            if value is not None:
                lines.append(f"study.{name} = {value}")
    return "\n".join(lines) + "\n"


def resolve_sweep(settings: StudySettings, parameter: str | None = None,
                  start: float | None = None, stop: float | None = None,
                  steps: int | None = None):
    """Merge CLI overrides with config settings into (parameter, values).

    Values come out in SI, finite and strictly increasing; a range
    whose grid is not is a ConfigError.  When no range is given
    anywhere, the parameter's built-in study grid, stored in SI, is
    returned as it is (71 ratios in [0.1, 0.8], gaps 5..10 um, 17
    voltages in [0, 8], hot-arm lengths {500, 600, 750} um).
    """
    param = parameter if parameter is not None else settings.parameter
    if param not in PARAMETERS:
        raise ConfigError([f"unknown sweep parameter {param!r}"])
    lo = start if start is not None else settings.start
    hi = stop if stop is not None else settings.stop
    n = steps if steps is not None else settings.steps
    given = [v is not None for v in (lo, hi, n)]
    if not any(given):
        return param, _DEFAULT_GRIDS[param]
    elif all(given):
        for name, value in (("start", lo), ("stop", hi)):
            if not math.isfinite(value):
                raise ConfigError([f"sweep {name} must be finite"])
        if not lo < hi:
            raise ConfigError(["sweep start must be below stop"])
        if n < 2:
            raise ConfigError(["sweep needs at least 2 steps"])
        if n > MAX_GRID_POINTS:
            raise ConfigError([f"sweep needs at most {MAX_GRID_POINTS} steps"])
        display = _linspace(lo, hi, n)     # a bad grid is refused below
    else:
        missing = [name for name, ok in
                   zip(("start", "stop", "steps"), given) if not ok]
        raise ConfigError(
            [f"incomplete sweep range: missing {', '.join(missing)}"])
    scale = DISPLAY_UNITS[param][1]
    values = tuple(v * scale for v in display)
    # A range too narrow for its steps repeats values, one too wide
    # overflows, and the SI scaling can underflow distinct values.
    if not all(map(math.isfinite, values)) \
            or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError([f"sweep from {lo!r} to {hi!r} in {n} steps does "
                           "not give strictly increasing finite values"])
    return param, values
