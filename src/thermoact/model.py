"""Data model for the lateral electrothermal actuator.

All quantities are SI (metres, volts, watts, degrees Celsius) unless a
docstring says otherwise.  The actuator is a U-shaped polysilicon frame:
a long hot arm, a shorter and therefore cooler cold arm, a connecting
link of length equal to the air gap, and a short extension carrying the
jaw tip past the cold-arm anchor.  Driving current through the loop
heats the hot arm more than the cold arm; the differential expansion
bends the frame and sweeps the tip sideways.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields


class InvalidSpecError(ValueError):
    """Raised when an actuator description violates physical bounds.

    Carries every violation found, not just the first, so a bad config
    file can be fixed in one pass.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class _Float64(float):
    """A float that numpy compares with its own scalars in float64.  A
    plain float it would round to a narrower scalar's type, where the
    float max is inf."""


# The bounds a field is checked against, each stated once, read by both
# the comparison in ActuatorSpec.__init__ and collect_diagnostics.
# A finite field is at most the float max: math.isfinite's bound, which
# unlike math.inf no int past the float range compares below.
_FLOAT_MAX = _Float64(sys.float_info.max)
_ABSOLUTE_ZERO = -273.15
# Lowest allowed value and its diagnostic for the fields whose bound is
# not "positive".
_LOWER_BOUNDS = {
    "convection_coefficient": (0.0, "must be non-negative"),
    "ambient_temperature": (_ABSOLUTE_ZERO, "must be above absolute zero"),
    "voltage": (0.0, "must be non-negative"),
}


def _record(cls):
    """Make ``cls`` a frozen dataclass, the one way the package makes a
    record, whose ``__init__``, unless the class writes its own, puts
    each field into ``__dict__`` in field order, each default the
    field's own object: about half the cost of dataclass's per-field
    ``object.__setattr__``."""
    cls = dataclass(frozen=True, init=False)(cls)
    if "__init__" not in vars(cls):
        members = fields(cls)
        source = f"def __init__(self, {', '.join(f.name for f in members)}):\n"
        source += "    d = self.__dict__\n" + "".join(
            f"    d[{f.name!r}] = {f.name}\n" for f in members)
        exec(source, namespace := {})
        init = namespace["__init__"]
        defaults = tuple(f.default for f in members if f.default is not MISSING)
        init.__defaults__ = defaults or None
        init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
        cls.__init__ = init
    return cls


@_record
class Material:
    """Isotropic polysilicon properties.

    young_modulus        Pa
    thermal_conductivity W/(m C)
    expansion_coefficient 1/C
    resistivity          ohm m
    """

    young_modulus: float = 158.0e9
    thermal_conductivity: float = 41.0
    expansion_coefficient: float = 2.7e-6
    resistivity: float = 5.0e-4


@_record
class Environment:
    """Surroundings: film coefficient to ambient and ambient temperature.

    convection_coefficient W/(m^2 C); zero switches the thermal model to
    the conduction-only branch.
    """

    convection_coefficient: float = 50.0
    ambient_temperature: float = 20.0


@_record
class Geometry:
    """Planar layout of the U-frame, everything in metres.

    The current path runs anchor -> hot arm (hot_arm_length) -> link
    (gap) -> cold arm (cold_arm_length) -> anchor.  Both arms share the
    same rectangular cross-section beam_width x beam_thickness.  The
    extension continues past the hot/cold junction and carries the jaw tip.
    """

    hot_arm_length: float = 750.0e-6
    cold_arm_length: float = 345.0e-6
    gap: float = 5.0e-6
    beam_width: float = 2.8e-6
    beam_thickness: float = 2.0e-6
    extension_length: float = 40.0e-6


@_record
class Drive:
    """Electrical excitation: a DC voltage across the two anchor pads."""

    voltage: float = 8.0


@_record
class ActuatorSpec:
    """A complete, validated description of one actuator and its drive.

    Its ``__init__`` stores the four parts, then accepts a spec whose
    thirteen fields all meet their bounds in one chained comparison:
    positive and at most the float max, or for the convection
    coefficient and the voltage non-negative, for the ambient temperature
    at least absolute zero, and the cold arm no longer than the hot arm.
    Any other spec, or a field the comparison cannot order, goes through
    ``collect_diagnostics``, which alone decides: it raises
    InvalidSpecError listing every violated bound, or the error that its
    finiteness check raises.  A part left out is one shared default
    instance, as every part is frozen.  Instances are frozen and safe to
    share between studies.
    """

    material: Material = Material()
    environment: Environment = Environment()
    geometry: Geometry = Geometry()
    drive: Drive = Drive()

    def __init__(self, material=material, environment=environment, geometry=geometry,
                 drive=drive):
        d = self.__dict__
        d["material"] = material
        d["environment"] = environment
        d["geometry"] = geometry
        d["drive"] = drive
        m, e, g = material, environment, geometry
        try:
            valid = (0.0 < m.young_modulus <= _FLOAT_MAX
                     and 0.0 < m.thermal_conductivity <= _FLOAT_MAX
                     and 0.0 < m.expansion_coefficient <= _FLOAT_MAX
                     and 0.0 < m.resistivity <= _FLOAT_MAX
                     and 0.0 <= e.convection_coefficient <= _FLOAT_MAX
                     and _ABSOLUTE_ZERO <= e.ambient_temperature <= _FLOAT_MAX
                     and 0.0 < g.cold_arm_length <= g.hot_arm_length <= _FLOAT_MAX
                     and 0.0 < g.gap <= _FLOAT_MAX
                     and 0.0 < g.beam_width <= _FLOAT_MAX
                     and 0.0 < g.beam_thickness <= _FLOAT_MAX
                     and 0.0 < g.extension_length <= _FLOAT_MAX
                     and 0.0 <= drive.voltage <= _FLOAT_MAX)
        except Exception:   # the walk raises its own error, or names the field
            valid = False
        if not valid:
            problems = collect_diagnostics(self)
            if problems:
                raise InvalidSpecError(problems)


def collect_diagnostics(spec) -> list[str]:
    """Return all bound violations of ``spec`` as human-readable strings.

    Each field must be finite and then meet its lower bound; it gets at
    most one diagnostic.
    """
    out: list[str] = []
    for component in (spec.material, spec.environment, spec.geometry, spec.drive):
        for name, value in vars(component).items():
            if not math.isfinite(value):
                out.append(f"{name} must be finite")
            elif name in _LOWER_BOUNDS:
                lowest, message = _LOWER_BOUNDS[name]
                if value < lowest:
                    out.append(f"{name} {message}")
            elif not value > 0.0:
                out.append(f"{name} must be positive")
    g = spec.geometry
    if 0.0 < g.hot_arm_length < g.cold_arm_length < math.inf:
        out.append("cold_arm_length exceeds hot_arm_length")
    return out


def default_spec() -> ActuatorSpec:
    """The reference actuator: 750 um hot arm, 0.46 length ratio, 5 um gap,
    driven at 8 V."""
    return ActuatorSpec()
