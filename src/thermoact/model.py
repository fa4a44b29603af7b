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
from dataclasses import dataclass, field


class InvalidSpecError(ValueError):
    """Raised when an actuator description violates physical bounds.

    Carries every violation found, not just the first, so a bad config
    file can be fixed in one pass.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# Lowest allowed value and its diagnostic for the fields whose bound is
# not "positive".
_LOWER_BOUNDS = {
    "convection_coefficient": (0.0, "must be non-negative"),
    "ambient_temperature": (-273.15, "must be above absolute zero"),
    "voltage": (0.0, "must be non-negative"),
}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Environment:
    """Surroundings: film coefficient to ambient and ambient temperature.

    convection_coefficient W/(m^2 C); zero switches the thermal model to
    the conduction-only branch.
    """

    convection_coefficient: float = 50.0
    ambient_temperature: float = 20.0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Drive:
    """Electrical excitation: a DC voltage across the two anchor pads."""

    voltage: float = 8.0


@dataclass(frozen=True)
class ActuatorSpec:
    """A complete, validated description of one actuator and its drive.

    Construction runs the full validation sweep and raises
    InvalidSpecError listing every violated bound.  Instances are frozen
    and safe to share between studies.
    """

    material: Material = field(default_factory=Material)
    environment: Environment = field(default_factory=Environment)
    geometry: Geometry = field(default_factory=Geometry)
    drive: Drive = field(default_factory=Drive)

    def __post_init__(self):
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
