import dataclasses
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoact.model as model
from thermoact.config import parse_config, serialize_config
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             InvalidSpecError, Material, collect_diagnostics,
                             default_spec)
from thermoact.study import apply_parameter


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


PARTS = (Material, Environment, Geometry, Drive)
FIELDS = {f.name: part for part in PARTS for f in dataclasses.fields(part)}
MAX, TINY = sys.float_info.max, math.nextafter(0.0, 1.0)
# Each bound and its neighbouring floats, signed zeros, subnormals, the
# float max, the infinities, nan, ints inside and past the float range
# (int(MAX) + 1 rounds to MAX, so it is finite and above the max),
# numpy scalars narrower than float64 and values no float compares with.
SPECIAL = (0.0, -0.0, TINY, -TINY, 1.0e-310,
           sys.float_info.min, -273.15, math.nextafter(-273.15, 0.0),
           math.nextafter(-273.15, -math.inf), MAX, math.nextafter(MAX, 0.0), -MAX,
           math.inf, -math.inf, math.nan, 10 ** 308, 10 ** 400, -10 ** 400,
           int(MAX) + 1, np.float32(1.0e-5), np.float32(math.inf), np.float16(math.inf),
           np.float32(math.nan), "1.0", None)


def _outcome(decide):
    """How ``decide()``, which returns a list of diagnostics or raises,
    ends: accepted, invalid with the list, or any other error's type and
    text."""
    try:
        problems = decide()
    except InvalidSpecError as exc:
        return ("invalid", exc.diagnostics)
    except Exception as exc:
        return (type(exc), str(exc))
    return ("invalid", problems) if problems else "accepted"


def _parts(changed, cold_towards=None):
    """The default parts with the fields in ``changed`` set, and the cold
    arm at the hot arm (0.0) or next to it (1.0 above, -1.0 below)."""
    values = {name: changed.get(name, getattr(part(), name)) for name, part in FIELDS.items()}
    hot = values["hot_arm_length"]
    if cold_towards is not None and isinstance(hot, float):
        values["cold_arm_length"] = (hot if cold_towards == 0.0 else
                                     math.nextafter(hot, cold_towards * math.inf))
    return [part(**{f.name: values[f.name] for f in dataclasses.fields(part)})
            for part in PARTS]


def _assert_built_as_the_walk_decides(parts):
    def build():
        ActuatorSpec(*parts)
        return []

    walk = _outcome(lambda: collect_diagnostics(SimpleNamespace(
        material=parts[0], environment=parts[1], geometry=parts[2], drive=parts[3])))
    assert _outcome(build) == walk, parts


def test_each_field_at_each_special_value_is_built_as_the_walk_decides():
    """Building a spec ends as ``collect_diagnostics`` decides on the same
    parts (accepted, the same diagnostics, or the same error) for every
    field at every special value, and for the cold arm at and next to
    hot arms at special values, with no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in FIELDS:
            for value in SPECIAL:
                _assert_built_as_the_walk_decides(_parts({name: value}))
        for value in SPECIAL:
            for towards in (0.0, 1.0, -1.0):
                _assert_built_as_the_walk_decides(_parts({"hot_arm_length": value}, towards))
    assert caught == []


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.dictionaries(st.sampled_from(sorted(FIELDS)),
                       st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0),
                                 st.floats(0.1, 3.0).map(lambda f: f * 1.0e-4)),
                       max_size=4),
       st.sampled_from((None, 0.0, 1.0, -1.0)))
def test_the_comparison_accepts_exactly_what_the_walk_accepts(changed, cold_towards):
    """The same on the default parts with up to four fields set to an
    ordinary or a special value, the cold arm sometimes at or next to the
    hot arm."""
    _assert_built_as_the_walk_decides(_parts(changed, cold_towards))


def test_only_an_invalid_spec_walks_the_diagnostics(monkeypatch):
    """A valid spec is accepted by the comparison alone, however it is
    built and with every field at its lowest or highest accepted value;
    an invalid one walks the diagnostics once."""
    calls = []
    walk = model.collect_diagnostics

    def counted(spec):
        calls.append(spec)
        return walk(spec)

    monkeypatch.setattr(model, "collect_diagnostics", counted)
    base = default_spec()
    valid = [
        ActuatorSpec(),
        ActuatorSpec(Material(young_modulus=10 ** 308), Environment(0, -273),
                     Geometry(1, 1, 1, 1, 1, 1), Drive(0)),
        ActuatorSpec(Material(*[MAX] * 4), Environment(MAX, MAX), Geometry(*[MAX] * 6),
                     Drive(MAX)),
        ActuatorSpec(Material(*[TINY] * 4), Environment(0.0, -273.15),
                     Geometry(*[TINY] * 6), Drive(0.0)),
        dataclasses.replace(base, drive=Drive(-0.0)),
        apply_parameter(base, "gap", 8.0e-6),
        apply_parameter(base, "voltage", 0.0),
        parse_config(serialize_config(base))[0],
    ]
    assert calls == []
    assert [walk(spec) for spec in valid] == [[]] * len(valid)
    with pytest.raises(InvalidSpecError):
        ActuatorSpec(geometry=Geometry(gap=-1.0e-6))
    assert len(calls) == 1


def test_a_spec_shares_its_default_parts():
    """Parts left out are shared frozen instances, and a spec made of
    them is equal to, hashes like and prints like one of fresh parts."""
    shared, fresh = ActuatorSpec(), ActuatorSpec(Material(), Environment(), Geometry(),
                                                 Drive())
    again = ActuatorSpec()
    assert all(getattr(shared, name) is getattr(again, name)
               for name in ("material", "environment", "geometry", "drive"))
    assert default_spec().geometry is shared.geometry
    assert shared == fresh and hash(shared) == hash(fresh)
    assert repr(shared) == repr(fresh)
