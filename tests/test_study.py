import copy
import dataclasses
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermoact.model as model
import thermoact.study as study
from thermoact.config import StudySettings, resolve_sweep
from thermoact.electrothermal import ThermalSystemError, _constants
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             InvalidSpecError, Material, default_spec)
from thermoact.study import (OptimumReport, SweepPlan, SweepRecord,
                             apply_parameter, find_optimal_ratio,
                             golden_section_max, run_sweep)
from thermoact.thermomech import FrameSingularError, SmallAngleError, simulate

from test_bits import EDGES, _domain, _extreme
from test_bits import _outcome as _dump_line


def _base(hot_um=750.0, ratio=0.46, volts=8.0):
    geometry = Geometry(hot_arm_length=hot_um * 1.0e-6,
                        cold_arm_length=ratio * hot_um * 1.0e-6)
    return ActuatorSpec(geometry=geometry, drive=Drive(voltage=volts))


def test_apply_parameter_touches_only_its_target():
    base = default_spec()
    v = apply_parameter(base, "voltage", 3.0)
    assert v.drive.voltage == 3.0
    assert v.geometry == base.geometry

    r = apply_parameter(base, "ratio", 0.5)
    assert r.geometry.cold_arm_length == 0.5 * base.geometry.hot_arm_length
    assert r.geometry.hot_arm_length == base.geometry.hot_arm_length

    g = apply_parameter(base, "gap", 8.0e-6)
    assert g.geometry.gap == 8.0e-6

    h = apply_parameter(base, "hot_arm_length", 500.0e-6)
    assert h.geometry.hot_arm_length == 500.0e-6
    # the cold arm follows to preserve the base length ratio
    kept = h.geometry.cold_arm_length / h.geometry.hot_arm_length
    want = base.geometry.cold_arm_length / base.geometry.hot_arm_length
    assert kept == pytest.approx(want, rel=1.0e-12)


# Every field away from its default, so that a copy which drops a
# field of the base shows.
_OFF_DEFAULT = ActuatorSpec(
    material=Material(young_modulus=150.0e9, thermal_conductivity=30.0,
                      expansion_coefficient=2.5e-6, resistivity=4.0e-4),
    environment=Environment(convection_coefficient=60.0,
                            ambient_temperature=25.0),
    geometry=Geometry(hot_arm_length=700.0e-6, cold_arm_length=320.0e-6,
                      gap=4.0e-6, beam_width=3.0e-6, beam_thickness=2.2e-6,
                      extension_length=35.0e-6),
    drive=Drive(voltage=7.0))


def _replace_route(base, parameter, value):
    """The swept spec built by ``dataclasses.replace``, the reference
    for the direct construction in ``apply_parameter``."""
    if parameter == "voltage":
        return dataclasses.replace(base, drive=Drive(voltage=value))
    g = base.geometry
    changes = {"ratio": {"cold_arm_length": value * g.hot_arm_length},
               "gap": {"gap": value},
               "hot_arm_length": {
                   "hot_arm_length": value,
                   "cold_arm_length": g.cold_arm_length / g.hot_arm_length * value},
               }[parameter]
    return dataclasses.replace(base, geometry=dataclasses.replace(g, **changes))


def test_the_reference_base_leaves_no_field_at_its_default():
    for part in (_OFF_DEFAULT.material, _OFF_DEFAULT.environment,
                 _OFF_DEFAULT.geometry, _OFF_DEFAULT.drive):
        for f in dataclasses.fields(part):
            assert getattr(part, f.name) != f.default, f.name


@pytest.mark.parametrize("parameter,value", [
    ("voltage", 3.0), ("ratio", 0.5), ("gap", 8.0e-6),
    ("hot_arm_length", 500.0e-6)])
def test_apply_parameter_equals_the_replace_route(parameter, value):
    assert (apply_parameter(_OFF_DEFAULT, parameter, value)
            == _replace_route(_OFF_DEFAULT, parameter, value))


@pytest.mark.parametrize("parameter,value", [
    ("ratio", 1.5), ("gap", 0.0), ("gap", math.inf), ("voltage", -1.0),
    ("hot_arm_length", math.nan), ("hot_arm_length", -5.0e-6)])
def test_apply_parameter_refuses_as_the_replace_route(parameter, value):
    with pytest.raises(InvalidSpecError) as ours:
        apply_parameter(_OFF_DEFAULT, parameter, value)
    with pytest.raises(InvalidSpecError) as reference:
        _replace_route(_OFF_DEFAULT, parameter, value)
    assert ours.value.diagnostics == reference.value.diagnostics
    assert str(ours.value) == str(reference.value)


# Values at and beyond the float range, as in tests/test_properties.py.
EXTREMES = (0.0, -0.0, 5.0e-324, 1.0e-320, -1.0e-320, 1.0e-300, 1.0e300,
            1.7e308, -1.7e308, math.inf, -math.inf, math.nan)

_POSITIVE = st.floats(min_value=5.0e-324, max_value=1.7e308)


@st.composite
def _bases(draw):
    """A valid spec: every positive field anywhere in the float range,
    or the reference base with each field scaled."""
    if draw(st.booleans()):
        scale = st.floats(0.1, 10.0)
        parts = [{name: value * draw(scale) for name, value in vars(part).items()}
                 for part in (_OFF_DEFAULT.material, _OFF_DEFAULT.environment,
                              _OFF_DEFAULT.geometry, _OFF_DEFAULT.drive)]
        parts[2]["cold_arm_length"] = min(parts[2]["cold_arm_length"],
                                          parts[2]["hot_arm_length"])
    else:
        parts = [{f.name: draw(_POSITIVE) for f in dataclasses.fields(cls)}
                 for cls in (Material, Environment, Geometry, Drive)]
        parts[1]["ambient_temperature"] = draw(st.floats(-273.15, 1.0e300))
        parts[3]["voltage"] = draw(st.floats(0.0, 1.7e308))
        arms = sorted((parts[2]["hot_arm_length"], parts[2]["cold_arm_length"]))
        parts[2]["cold_arm_length"], parts[2]["hot_arm_length"] = arms
    material, environment, geometry, drive = parts
    return ActuatorSpec(material=Material(**material),
                        environment=Environment(**environment),
                        geometry=Geometry(**geometry), drive=Drive(**drive))


_HUGE_ARMS = ActuatorSpec(geometry=Geometry(hot_arm_length=1.0e300,
                                            cold_arm_length=1.0e299))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(base=_bases(), parameter=st.sampled_from(study.PARAMETERS),
       value=st.one_of(st.sampled_from(EXTREMES), _POSITIVE, st.floats()))
@example(base=_OFF_DEFAULT, parameter="ratio", value=1.0)        # cold == hot
@example(base=_OFF_DEFAULT, parameter="ratio", value=5.0e-324)   # cold underflows to 0
@example(base=_HUGE_ARMS, parameter="ratio", value=1.0e10)       # cold overflows to inf
@example(base=_HUGE_ARMS, parameter="hot_arm_length", value=math.inf)
@example(base=_HUGE_ARMS, parameter="hot_arm_length", value=1.7976931348623157e308)
def test_apply_parameter_matches_the_replace_route_bit_for_bit(base, parameter, value):
    """The study path checks only the fields a point changes; whatever
    the value, it gives the spec or the refusal that the fully checked
    ``dataclasses.replace`` route gives.  With cold <= hot, the cold arm
    of a ``hot_arm_length`` point overflows only for an infinite value."""
    try:
        ours = apply_parameter(base, parameter, value)
    except InvalidSpecError as exc:
        with pytest.raises(InvalidSpecError) as reference:
            _replace_route(base, parameter, value)
        assert exc.diagnostics == reference.value.diagnostics
        assert str(exc) == str(reference.value)
        return
    reference = _replace_route(base, parameter, value)
    assert type(ours) is ActuatorSpec
    assert ours == reference
    assert (hash(ours), repr(ours)) == (hash(reference), repr(reference))
    assert list(vars(ours)) == list(vars(reference))
    for name, part in vars(ours).items():
        fields = vars(getattr(reference, name))
        assert list(vars(part)) == list(fields)
        assert ([float.hex(v) for v in vars(part).values()]
                == [float.hex(v) for v in fields.values()])


@pytest.mark.parametrize("parameter,value", [
    ("voltage", 3.0), ("ratio", 0.5), ("gap", 8.0e-6),
    ("hot_arm_length", 500.0e-6)])
def test_a_study_spec_behaves_like_a_constructed_one(parameter, value):
    spec = apply_parameter(_OFF_DEFAULT, parameter, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.drive = Drive(voltage=1.0)
    with pytest.raises(InvalidSpecError):
        dataclasses.replace(spec, drive=Drive(-1.0))
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.deepcopy(spec) == spec


def test_apply_parameter_rejects_unknown_names():
    with pytest.raises(ValueError):
        apply_parameter(default_spec(), "beam_width", 1.0e-6)


def test_plan_values_must_increase():
    base = default_spec()
    with pytest.raises(ValueError):
        SweepPlan(base=base, parameter="gap", values=())
    with pytest.raises(ValueError):
        SweepPlan(base=base, parameter="gap", values=(5.0e-6, 5.0e-6))
    with pytest.raises(ValueError):
        SweepPlan(base=base, parameter="gap", values=(7.0e-6, 5.0e-6))


def test_plan_rejects_values_that_break_the_spec():
    base = default_spec()
    with pytest.raises(InvalidSpecError) as err:
        SweepPlan(base=base, parameter="ratio", values=(0.5, 0.9, 1.2))
    # the offending value is named so the study input can be fixed
    assert any("1.2" in d for d in err.value.diagnostics)
    assert any("cold_arm_length exceeds hot_arm_length" in d
               for d in err.value.diagnostics)


@pytest.mark.parametrize("parameter", ["gap", "voltage"])
def test_a_plan_refuses_at_construction_what_apply_parameter_refuses(parameter):
    """A plan checks each value against the constructor's bounds, so an
    int past the float range is refused when the plan is built, with
    ``apply_parameter``'s error, and never reaches ``run_sweep``; the
    float max itself is accepted by both."""
    base = default_spec()
    with pytest.raises(OverflowError) as applied:
        apply_parameter(base, parameter, 10 ** 400)
    with pytest.raises(OverflowError) as planned:
        SweepPlan(base, parameter, (10 ** 400,))
    assert str(planned.value) == str(applied.value) == "int too large to convert to float"
    top = sys.float_info.max
    assert SweepPlan(base, parameter, (top,))._points == (
        study._point(apply_parameter(base, parameter, top), parameter)(top),)


# The ends of every field's range: NaN, both zeros, both infinities,
# the float max and the float below it, an int past the float range,
# and ordinary floats and an int.
_RULE_VALUES = (math.nan, 0.0, -0.0, math.inf, -math.inf, sys.float_info.max,
                math.nextafter(sys.float_info.max, 0.0), 10 ** 400, 0.5, 5.0e-6, 3)
# A ratio's cold arm on these subnormal arms underflows to zero.
_SUBNORMAL_ARMS = ActuatorSpec(geometry=Geometry(hot_arm_length=5.0e-324,
                                                 cold_arm_length=5.0e-324))


def _point_outcome(call):
    """The type and repr of each of the hot arm, cold arm, gap and
    voltage ``call`` returns, or its refusal's type and diagnostics."""
    try:
        point = call()
    except (InvalidSpecError, OverflowError) as exc:
        return type(exc), getattr(exc, "diagnostics", str(exc))
    return [(type(v), repr(v)) for v in point]


def _fields(spec):
    g = spec.geometry
    return g.hot_arm_length, g.cold_arm_length, g.gap, spec.drive.voltage


@pytest.mark.parametrize("parameter", study.PARAMETERS)
def test_each_point_rule_ends_as_apply_parameter_does(parameter):
    """The point rule a study chooses once, ``_point(base, parameter)``,
    gives for every value the four fields of the spec that
    ``apply_parameter`` builds, and that the fully checked replace route
    builds, with their types and signs, or the same exception type and
    diagnostics."""
    outcomes = []
    for base in (_OFF_DEFAULT, _SUBNORMAL_ARMS, _HUGE_ARMS):
        rule = study._point(base, parameter)
        for value in _RULE_VALUES:
            ours = _point_outcome(lambda: rule(value))
            assert ours == _point_outcome(
                lambda: _fields(apply_parameter(base, parameter, value))), (base, value)
            assert ours == _point_outcome(
                lambda: _fields(_replace_route(base, parameter, value))), (base, value)
            outcomes.append(ours)
    assert {type(o) for o in outcomes} == {list, tuple}     # solved and refused
    assert (OverflowError, "int too large to convert to float") in outcomes
    if parameter == "ratio":
        assert (InvalidSpecError, ["cold_arm_length must be positive"]) in outcomes


def test_a_plan_keeps_no_specs():
    """A plan keeps no specs, as a field or an attribute: a point's spec
    is ``apply_parameter``'s to build.  The plan is a frozen, picklable
    record equal by base, parameter and values."""
    values = (300.0e-6, 500.0e-6, 700.0e-6)
    plan = SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length", values=values)
    assert not hasattr(plan, "specs")
    assert "specs" not in {f.name for f in dataclasses.fields(plan)}
    for name, value in (("specs", ()), ("values", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, value)
    twin = SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length", values=values)
    assert plan == twin and hash(plan) == hash(twin)
    assert plan != SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length",
                             values=values[:2])
    assert repr(plan) == (f"SweepPlan(base={_OFF_DEFAULT!r}, "
                          f"parameter='hot_arm_length', values={values!r})")
    for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
        assert clone == plan and clone._points == plan._points
        assert run_sweep(clone) == run_sweep(plan)
    with pytest.raises(InvalidSpecError) as err:
        SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length",
                  values=values + (math.inf,))
    assert err.value.diagnostics == ["hot_arm_length = inf: hot_arm_length must be finite",
                                     "hot_arm_length = inf: cold_arm_length must be finite"]


def test_a_plan_keeps_its_values_as_a_tuple():
    """A plan built from a list or a generator of values keeps their
    tuple, so it equals, hashes like and prints like the plan built
    from that tuple, with the same points."""
    values = (300.0e-6, 500.0e-6, 700.0e-6)
    plan = SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length", values=values)
    for given in (list(values), (v for v in values)):
        again = SweepPlan(base=_OFF_DEFAULT, parameter="hot_arm_length", values=given)
        assert type(again.values) is tuple
        assert again == plan and hash(again) == hash(plan) and repr(again) == repr(plan)
        assert again._points == plan._points


def test_a_study_builds_no_spec_per_point():
    """Ratio optimisation and the four default-grid sweeps solve every
    point from the base spec and four floats: no point runs the spec
    constructor or any other code of ``thermoact.model``, which holds
    every way to build or check a spec."""
    base = default_spec()
    grids = [resolve_sweep(StudySettings(), parameter=p) for p in study.PARAMETERS]
    init = ActuatorSpec.__init__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and (frame.f_code is init
                                or frame.f_code.co_filename == model.__file__):
            calls.append(frame.f_code.co_name)

    def counted(study_call):
        calls.clear()
        sys.setprofile(profile)
        try:
            study_call()
        finally:
            sys.setprofile(None)
        return len(calls)

    assert counted(lambda: find_optimal_ratio(base, 71)) == 0
    assert counted(lambda: [run_sweep(SweepPlan(base, *grid)) for grid in grids]) == 0
    # the count sees a spec that a study call does build
    assert counted(lambda: apply_parameter(base, "gap", 8.0e-6)) > 0


def test_plan_rejects_unknown_parameters():
    with pytest.raises(ValueError):
        SweepPlan(base=default_spec(), parameter="width", values=(1.0,))


def test_voltage_sweep_follows_the_square_law():
    plan = SweepPlan(base=default_spec(), parameter="voltage",
                     values=(0.0, 2.0, 4.0, 8.0))
    table = run_sweep(plan)
    tips = [rec.tip_deflection for rec in table.records]
    assert tips[0] == 0.0
    assert abs(tips[2] - 4.0 * tips[1]) <= 1.0e-9 * tips[2]
    assert abs(tips[3] - 16.0 * tips[1]) <= 1.0e-9 * tips[3]
    assert [rec.value for rec in table.records] == [0.0, 2.0, 4.0, 8.0]


def test_sweep_records_carry_the_full_operating_point():
    plan = SweepPlan(base=default_spec(), parameter="gap",
                     values=(5.0e-6, 10.0e-6))
    table = run_sweep(plan)
    first = table.records[0]
    assert first.peak_temperature > 300.0
    assert first.hot_elongation > first.cold_elongation > 0.0
    assert first.junction_rotation > 0.0
    # widening the gap weakens the lever, so the tip moves less
    assert table.records[1].tip_deflection < first.tip_deflection


def _simulate_record(value, solution):
    """A sweep record copied field by field out of ``simulate``'s
    solution: the route the studies took before they read the scalar
    kernel's floats."""
    return SweepRecord(
        value=value,
        tip_deflection=solution.tip_deflection,
        junction_deflection=solution.junction_deflection,
        junction_rotation=solution.junction_rotation,
        hot_elongation=solution.thermal_load.hot_elongation,
        cold_elongation=solution.thermal_load.cold_elongation,
        peak_temperature=solution.peak_temperature,
    )


def _bits(record):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in vars(record).values())


def _outcome(study_call):
    """("done", the bits of every record a study call returns) or
    ("refused", the refusal's type, its message)."""
    try:
        result = study_call()
    except Exception as exc:
        return "refused", type(exc), str(exc)
    if isinstance(result, tuple):
        return "done", [_bits(r) for r in result]
    return "done", _bits(result)


# Valid bases whose refusal shows the order of a point's steps.  (a) is
# refused by the fin of every point, whose resistivity times path length
# underflows, before its 1e103 m beam width leaves the frame gain out of
# the float range.  (b) is refused at the first grid ratio of an
# optimisation, whose cold arm underflows to zero, before its fin's
# k w h = 0 is refused.
_ORDER_BASES = [
    ActuatorSpec(material=Material(resistivity=1.0e-322),
                 geometry=Geometry(beam_width=1.0e103)),
    ActuatorSpec(material=Material(thermal_conductivity=1.0e-310),
                 geometry=Geometry(hot_arm_length=5.0e-324, cold_arm_length=5.0e-324,
                                   beam_width=1.0e-10, beam_thickness=1.0e-10)),
]


def _seeded_bases():
    """Valid bases from the bit dump's seeded draws: its single-point
    domain, its extreme decades and its edge cases; then the order
    bases."""
    rng = random.Random(1818)
    bases = [_domain(rng) for _ in range(120)]
    for build in [_extreme(rng, i) for i in range(240)] + list(EDGES):
        try:
            bases.append(build())
        except InvalidSpecError:
            pass
    return bases + _ORDER_BASES


def _around(base, parameter):
    """Strictly increasing study values around the base's own value."""
    g = base.geometry
    current, fixed = {"voltage": (base.drive.voltage, {0.0}),
                      "ratio": (g.cold_arm_length / g.hot_arm_length, {0.1, 0.8, 1.0}),
                      "gap": (g.gap, set()),
                      "hot_arm_length": (g.hot_arm_length, set())}[parameter]
    return sorted(fixed | {0.5 * current, current, 2.0 * current})


def test_sweeps_keep_every_bit_of_the_simulate_route():
    """Every point of every parameter, alone and in one plan, gives the
    record ``simulate``'s solution gives, to the bit, or the same
    refusal with the same message."""
    refusals = set()
    for base in _seeded_bases():
        for parameter in study.PARAMETERS:
            plans = []
            for value in _around(base, parameter):
                try:
                    plans.append(SweepPlan(base=base, parameter=parameter,
                                           values=(value,)))
                except InvalidSpecError:
                    pass
            plans.append(SweepPlan(base=base, parameter=parameter,
                                   values=tuple(p.values[0] for p in plans)))
            for plan in plans:
                ours = _outcome(lambda: run_sweep(plan).records)
                reference = _outcome(lambda: tuple(
                    _simulate_record(v, simulate(apply_parameter(base, parameter, v)))
                    for v in plan.values))
                assert ours == reference, (base, parameter, plan.values)
                if ours[0] == "refused":
                    refusals.add(ours[1])
    assert {SmallAngleError, FrameSingularError} < refusals


def test_the_optimum_keeps_every_bit_of_the_simulate_objective(monkeypatch):
    """``find_optimal_ratio`` on the kernel and each point's four floats
    reports what it reports on the objective that builds a spec per
    point, by the fully checked replace route, and reads the tip of
    ``simulate``: the same bits, or the same refusal at the same point."""
    seeded = _seeded_bases()
    bases = seeded[:-len(_ORDER_BASES)][::3] + _ORDER_BASES
    ours = [_outcome(lambda: find_optimal_ratio(base)) for base in bases]
    # The optimisation solves _solve_point(c, *point(r)) with the point
    # rule point = _point(base, "ratio") and the constants c of the base.
    monkeypatch.setattr(study, "_point", lambda base, parameter: lambda value:
                        (_replace_route(base, parameter, value),))
    monkeypatch.setattr(study, "_solve_point",
                        lambda constants, spec: (simulate(spec).tip_deflection,))
    assert ours == [_outcome(lambda: find_optimal_ratio(base)) for base in bases]
    assert ours[-2:] == [
        ("refused", ThermalSystemError, "fin resistivity times path length underflows"),
        ("refused", InvalidSpecError, "cold_arm_length must be positive")]
    assert {o[1][-1] for o in ours if o[0] == "done"} == {None, "flat", "non_unimodal"}
    assert any(o[0] == "refused" for o in ours)


# Valid bases with int fields whose sum or product leaves the float
# range.  ``_constants`` makes the width and thickness floats first, so
# each such sum or product is inf, not an OverflowError, and every point
# refuses by name, as on the same base written in floats: the first two
# by the fin's check of its resistivity times path length, the last two
# by the frame gain.
_INT_BASES = [
    (ActuatorSpec(material=Material(resistivity=1.0e-322),
                  geometry=Geometry(beam_width=10 ** 308, beam_thickness=10 ** 308)),
     ThermalSystemError, "fin resistivity times path length underflows"),
    (ActuatorSpec(material=Material(resistivity=1.0e-322, thermal_conductivity=10 ** 200),
                  geometry=Geometry(beam_width=10 ** 200)),
     ThermalSystemError, "fin resistivity times path length underflows"),
    (ActuatorSpec(geometry=Geometry(beam_width=10 ** 160, beam_thickness=10 ** 160)),
     FrameSingularError, "frame gain is out of the float range"),
    (ActuatorSpec(geometry=Geometry(beam_width=10 ** 308, beam_thickness=10 ** 308)),
     FrameSingularError, "frame gain is out of the float range"),
]


def _floated(spec):
    """``spec`` with each int field written as the float nearest it."""
    parts = {}
    for name, part in vars(spec).items():
        parts[name] = dataclasses.replace(part, **{
            field: float(value) for field, value in vars(part).items()
            if type(value) is int})
    return ActuatorSpec(**parts)


def test_int_fields_past_the_float_range_keep_their_refusal():
    for base, kind, message in _INT_BASES:
        for spec in (base, _floated(base)):
            for call in (lambda: simulate(spec), lambda: find_optimal_ratio(spec),
                         lambda: run_sweep(SweepPlan(spec, "gap", (4.0e-6, 6.0e-6)))):
                assert _outcome(call) == ("refused", kind, message)


def test_int_fields_that_floats_hold_solve_as_floats():
    """``simulate`` on each int spec of the bit dump's edge cases, and on
    two more whose int section and arms solve, gives the bits or the
    refusal it gives on the same spec written in floats.  The edge with
    arms past 2**53 is left out, as no float writes them."""
    specs = [build() for build in EDGES] + [
        ActuatorSpec(geometry=Geometry(hot_arm_length=3, cold_arm_length=1, gap=1,
                                       beam_width=1, beam_thickness=1,
                                       extension_length=1)),
        ActuatorSpec(material=Material(young_modulus=158 * 10 ** 9,
                                       thermal_conductivity=41,
                                       expansion_coefficient=1, resistivity=1),
                     environment=Environment(convection_coefficient=50,
                                             ambient_temperature=20),
                     geometry=Geometry(hot_arm_length=750, cold_arm_length=345, gap=5,
                                       beam_width=3, beam_thickness=2,
                                       extension_length=50),
                     drive=Drive(voltage=8))]
    compared = 0
    for spec in specs:
        ints = [value for part in vars(spec).values() for value in vars(part).values()
                if type(value) is int]
        if ints and all(float(value) == value for value in ints):
            assert _dump_line(lambda: spec) == _dump_line(lambda: _floated(spec))
            compared += 1
    assert compared == 4


def test_base_constants_cannot_raise():
    """The constants a study shares are reads, sums and products that
    return numbers on every valid base: the seeded ones, the int ones
    and these at the ends of the float range.  The width, the thickness,
    the side loss, the conduction term and the axial rigidity are floats
    on every base, the int ones included, with the bits they have on the
    base written in floats."""
    extremes = [
        ActuatorSpec(environment=Environment(convection_coefficient=1.0e308)),
        ActuatorSpec(geometry=Geometry(beam_width=5.0e-324, beam_thickness=5.0e-324)),
        ActuatorSpec(material=Material(thermal_conductivity=1.0e-310)),
        ActuatorSpec(material=Material(young_modulus=1.0e308, thermal_conductivity=1.0e308),
                     environment=Environment(convection_coefficient=1.0e308),
                     geometry=Geometry(beam_width=1.0e308, beam_thickness=1.0e308)),
    ]
    for base in _seeded_bases() + extremes + [base for base, *_ in _INT_BASES]:
        constants = _constants(base)
        assert len(constants) == 10
        assert all(type(value) in (float, int) for value in constants)
        rho, w, h, loss, kwh, k, alpha, ambient, rigidity, ext = constants
        mat = base.material
        assert (rho, k, alpha, ambient, ext) == (
            mat.resistivity, mat.thermal_conductivity, mat.expansion_coefficient,
            base.environment.ambient_temperature, base.geometry.extension_length)
        floats = (w, h, loss, kwh, rigidity)
        assert all(type(value) is float for value in floats)
        rho, w, h, loss, kwh, k, alpha, ambient, rigidity, ext = _constants(_floated(base))
        assert [v.hex() for v in floats] == [v.hex() for v in (w, h, loss, kwh, rigidity)]


def test_a_study_forms_the_base_constants_once(monkeypatch):
    calls = []

    def counting(spec, constants=_constants):
        calls.append(spec)
        return constants(spec)

    monkeypatch.setattr(study, "_constants", counting)
    base = default_spec()
    find_optimal_ratio(base, 71)
    assert calls == [base]
    for parameter in study.PARAMETERS:
        calls.clear()
        run_sweep(SweepPlan(base, *resolve_sweep(StudySettings(), parameter=parameter)))
        assert calls == [base]


def test_golden_section_finds_an_interior_peak():
    best_x, best_f = golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert best_x == pytest.approx(0.3, abs=1.0e-4)
    assert best_f <= 0.0
    # the reported pair is the best point actually evaluated
    assert best_f == -(best_x - 0.3) ** 2


def test_golden_section_handles_edge_maxima():
    best_x, _ = golden_section_max(lambda x: x, 0.0, 1.0)
    assert best_x == 1.0
    best_x, _ = golden_section_max(lambda x: -x, 0.0, 1.0)
    assert best_x == 0.0
    # on a tie the first point evaluated, the lower end, is kept
    assert golden_section_max(lambda x: 1.0, 0.2, 0.7) == (0.2, 1.0)


def test_optimal_ratio_for_the_default_device():
    report = find_optimal_ratio(_base(), grid=71)
    assert report.flag is None
    assert 0.40 <= report.optimal_ratio <= 0.52
    assert report.optimal_tip_deflection > 0.0
    assert report.gain_over_range > 1.0
    assert report.grid_resolution == 71
    assert report.hot_arm_length == 750.0e-6


def test_optimum_is_stable_under_grid_refinement():
    coarse = find_optimal_ratio(_base(), grid=71)
    fine = find_optimal_ratio(_base(), grid=141)
    assert abs(coarse.optimal_ratio - fine.optimal_ratio) <= 0.01


def test_refinement_only_improves_on_the_grid():
    report = find_optimal_ratio(_base(), grid=31)
    ratios = np.linspace(0.1, 0.8, 31)
    from thermoact.thermomech import simulate
    grid_best = max(
        simulate(apply_parameter(_base(), "ratio", r)).tip_deflection
        for r in ratios)
    assert report.optimal_tip_deflection >= grid_best


def _rising_kernel(spec, hot, cold, gap, volts):
    """A stand-in for the study kernel ``_solve_point`` whose tip
    deflection, its first float, is the length ratio, so that the scan
    peaks at the last grid ratio."""
    return (cold / hot,)


@pytest.mark.parametrize("physics", [study._solve_point, _rising_kernel],
                         ids=["interior-peak", "edge-peak"])
def test_refinement_takes_its_bracket_ends_from_the_grid(monkeypatch, physics):
    """Golden-section search starts from two grid points, whose
    deflections the scan already has: the optimisation simulates every
    grid point and every refinement point but those two."""
    calls = {"kernel": 0, "refine": 0}

    def counting_kernel(*point):
        calls["kernel"] += 1
        return physics(*point)

    def counting_golden(func, lo, hi, golden=golden_section_max):
        def counted(x):
            calls["refine"] += 1
            return func(x)
        return golden(counted, lo, hi)

    monkeypatch.setattr(study, "_solve_point", counting_kernel)
    monkeypatch.setattr(study, "golden_section_max", counting_golden)
    report = find_optimal_ratio(_base(), grid=31)
    assert report.flag is None
    assert calls["refine"] > 2
    assert calls["kernel"] == 31 + calls["refine"] - 2


def test_flat_objective_is_flagged_not_refined():
    report = find_optimal_ratio(_base(volts=0.0), grid=11)
    assert report.flag == "flat"
    assert report.optimal_tip_deflection == 0.0
    assert report.gain_over_range == 1.0


def test_multi_peak_objective_is_flagged(monkeypatch):
    """Classifier check with a synthetic two-hump response standing in
    for the physics."""
    def fake_kernel(spec, hot, cold, gap, volts):
        return (np.sin(12.0 * (cold / hot)) + 1.5,)

    monkeypatch.setattr(study, "_solve_point", fake_kernel)
    report = find_optimal_ratio(_base(), grid=41)
    assert report.flag == "non_unimodal"


def test_a_peak_on_the_grid_beats_the_refinement(monkeypatch):
    """A sharp peak exactly on a grid ratio, which the golden-section
    search brackets but never lands on: the report keeps the grid
    point and its value."""
    peak = study._linspace(0.1, 0.8, 71)[30]

    def fake_kernel(spec, hot, cold, gap, volts):
        return (1.0 - abs(cold / hot - peak),)

    refined = []

    def recording_search(*args, **kwargs):
        refined.append(golden_section_max(*args, **kwargs))
        return refined[-1]

    monkeypatch.setattr(study, "_solve_point", fake_kernel)
    monkeypatch.setattr(study, "golden_section_max", recording_search)
    report = find_optimal_ratio(_base(), grid=71)
    at_peak = apply_parameter(_base(), "ratio", peak)
    g = at_peak.geometry
    expected = fake_kernel(at_peak, g.hot_arm_length, g.cold_arm_length, g.gap,
                           at_peak.drive.voltage)[0]
    assert (report.optimal_ratio, report.optimal_tip_deflection) == (peak, expected)
    assert report.flag is None
    assert refined[0][1] < expected     # the search fell short of the grid


def test_find_optimal_ratio_validates_its_inputs():
    with pytest.raises(ValueError):
        find_optimal_ratio(_base(), grid=2)


def test_reports_are_plain_records():
    report = find_optimal_ratio(_base(500.0), grid=15)
    assert isinstance(report, OptimumReport)
    assert dataclasses.is_dataclass(report)
