import dataclasses
import math

import pytest

from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             InvalidSpecError, Material, default_spec)


def test_default_spec_is_the_reference_device():
    spec = default_spec()
    assert spec.geometry.hot_arm_length == 750.0e-6
    assert spec.geometry.cold_arm_length == 345.0e-6  # 0.46 of the hot arm
    assert spec.geometry.gap == 5.0e-6
    assert spec.geometry.beam_width == 2.8e-6
    assert spec.geometry.beam_thickness == 2.0e-6
    assert spec.geometry.extension_length == 40.0e-6
    assert spec.material.young_modulus == 158.0e9
    assert spec.material.thermal_conductivity == 41.0
    assert spec.material.expansion_coefficient == 2.7e-6
    assert spec.material.resistivity == 5.0e-4
    assert spec.environment.convection_coefficient == 50.0
    assert spec.environment.ambient_temperature == 20.0
    assert spec.drive.voltage == 8.0


def test_specs_are_frozen():
    spec = default_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.drive = Drive(voltage=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.geometry.gap = 1.0e-6


def test_cold_arm_longer_than_hot_arm_is_rejected():
    with pytest.raises(InvalidSpecError) as err:
        ActuatorSpec(geometry=Geometry(hot_arm_length=300.0e-6,
                                       cold_arm_length=400.0e-6))
    assert "cold_arm_length exceeds hot_arm_length" in err.value.diagnostics


def test_equal_arm_lengths_are_allowed():
    spec = ActuatorSpec(geometry=Geometry(hot_arm_length=400.0e-6,
                                          cold_arm_length=400.0e-6))
    assert spec.geometry.cold_arm_length == spec.geometry.hot_arm_length


@pytest.mark.parametrize("field", ["hot_arm_length", "cold_arm_length", "gap",
                                   "beam_width", "beam_thickness",
                                   "extension_length"])
def test_nonpositive_geometry_is_rejected(field):
    for bad in (0.0, -1.0e-6, math.inf):
        with pytest.raises(InvalidSpecError) as err:
            ActuatorSpec(geometry=Geometry(**{field: bad}))
        assert any(field in d for d in err.value.diagnostics)


@pytest.mark.parametrize("field", ["young_modulus", "thermal_conductivity",
                                   "expansion_coefficient", "resistivity"])
def test_nonpositive_material_is_rejected(field):
    for bad in (0.0, math.inf):
        with pytest.raises(InvalidSpecError) as err:
            ActuatorSpec(material=Material(**{field: bad}))
        assert any(field in d for d in err.value.diagnostics)


def test_drive_accepts_zero_but_not_negative_voltage():
    ActuatorSpec(drive=Drive(voltage=0.0))
    for bad in (-2.0, math.inf):
        with pytest.raises(InvalidSpecError) as err:
            ActuatorSpec(drive=Drive(voltage=bad))
        assert any("voltage" in d for d in err.value.diagnostics)


def test_convection_zero_is_valid_and_negative_is_not():
    ActuatorSpec(environment=Environment(convection_coefficient=0.0))
    for bad in (-5.0, math.inf):
        with pytest.raises(InvalidSpecError):
            ActuatorSpec(environment=Environment(convection_coefficient=bad))


@pytest.mark.parametrize("component", [Material, Environment, Geometry, Drive])
def test_non_finite_values_are_named(component):
    """Every field rejects inf, -inf and nan with one finiteness
    diagnostic that names it, and no bound or cross-field check adds a
    second one."""
    section = component.__name__.lower()
    for f in dataclasses.fields(component):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidSpecError) as err:
                ActuatorSpec(**{section: component(**{f.name: bad})})
            assert err.value.diagnostics == [f"{f.name} must be finite"]


def test_all_violations_are_collected_at_once():
    """One bad spec should name every problem, not stop at the first."""
    with pytest.raises(InvalidSpecError) as err:
        ActuatorSpec(
            material=Material(young_modulus=-1.0, resistivity=0.0),
            geometry=Geometry(gap=-1.0e-6),
            drive=Drive(voltage=-1.0),
        )
    text = err.value.diagnostics
    assert len(text) == 4
    for needle in ("young_modulus", "resistivity", "gap", "voltage"):
        assert any(needle in d for d in text)
