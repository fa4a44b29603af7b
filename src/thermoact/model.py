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


def _check_finite(component, out):
    for name, value in vars(component).items():
        if not math.isfinite(value):
            out.append(f"{name} must be finite")


def _check_material(m, out):
    if not m.young_modulus > 0.0:
        out.append("young_modulus must be positive")
    if not 0.0 <= m.poisson_ratio < 0.5:
        out.append("poisson_ratio must lie in [0, 0.5)")
    if not m.density > 0.0:
        out.append("density must be positive")
    if not m.thermal_conductivity > 0.0:
        out.append("thermal_conductivity must be positive")
    if not m.expansion_coefficient > 0.0:
        out.append("expansion_coefficient must be positive")
    if not m.specific_heat > 0.0:
        out.append("specific_heat must be positive")
    if not m.resistivity > 0.0:
        out.append("resistivity must be positive")


def _check_environment(e, out):
    if not e.convection_coefficient >= 0.0:
        out.append("convection_coefficient must be non-negative")
    if not -273.15 <= e.ambient_temperature:
        out.append("ambient_temperature must be above absolute zero")


def _check_geometry(g, out):
    for name in ("hot_arm_length", "cold_arm_length", "gap", "beam_width",
                 "beam_thickness", "extension_length", "pad_side"):
        if not getattr(g, name) > 0.0:
            out.append(f"{name} must be positive")
    if g.cold_arm_length > 0.0 and g.hot_arm_length > 0.0 \
            and g.cold_arm_length > g.hot_arm_length:
        out.append("cold_arm_length exceeds hot_arm_length")


def _check_drive(d, out):
    if not d.voltage >= 0.0:
        out.append("voltage must be non-negative")


@dataclass(frozen=True)
class Material:
    """Isotropic polysilicon properties.

    young_modulus        Pa
    poisson_ratio        dimensionless
    density              kg/m^3
    thermal_conductivity W/(m C)
    expansion_coefficient 1/C
    specific_heat        J/(kg C)
    resistivity          ohm m
    """

    young_modulus: float = 158.0e9
    poisson_ratio: float = 0.066
    density: float = 2320.0
    thermal_conductivity: float = 41.0
    expansion_coefficient: float = 2.7e-6
    specific_heat: float = 700.0
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
    extension continues past the hot/cold junction and carries the jaw
    tip; pad_side is the square anchor pad (thermally it acts as an
    ideal heat sink and plays no structural role).
    """

    hot_arm_length: float = 750.0e-6
    cold_arm_length: float = 345.0e-6
    gap: float = 5.0e-6
    beam_width: float = 2.8e-6
    beam_thickness: float = 2.0e-6
    extension_length: float = 40.0e-6
    pad_side: float = 200.0e-6


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
    """Return all bound violations of ``spec`` as human-readable strings."""
    out: list[str] = []
    for component in (spec.material, spec.environment, spec.geometry, spec.drive):
        _check_finite(component, out)
    _check_material(spec.material, out)
    _check_environment(spec.environment, out)
    _check_geometry(spec.geometry, out)
    _check_drive(spec.drive, out)
    return out


def default_spec() -> ActuatorSpec:
    """The reference actuator: 750 um hot arm, 0.46 length ratio, 5 um gap,
    driven at 8 V."""
    return ActuatorSpec()
