"""Every record of the package keeps the dataclass contract.

``Material``, ``Environment``, ``Geometry``, ``Drive``, ``ActuatorSpec``,
``ThermalLoad``, ``TemperatureProfile``, ``FrameSolution``,
``StiffnessResult``, ``SweepPlan``, ``SweepRecord``, ``SweepTable``,
``OptimumReport`` and ``StudySettings`` are frozen dataclasses made by
``model._record``, which generates an ``__init__`` that fills
``__dict__`` directly; ``ActuatorSpec`` and ``SweepPlan`` write their
own, which also validate.  These tests hold each one to what
dataclass's own ``__init__`` gave: its signature and defaults, the field
order of ``vars``, the dataclass helpers, pickling, copying, frozenness,
and the ``==``, ``hash`` and ``repr`` of a plain
``@dataclass(frozen=True)`` twin.  They hold ``_record`` to the same on
classes of their own, every dataclass of the package to being one of
these records, and ``model.py`` to being the one module that imports
``dataclasses``.  They also hold ``ActuatorSpec``'s validation to one
outcome for every way of building a spec.
"""

import ast
import copy
import dataclasses
import functools
import importlib
import inspect
import math
import pickle
import pkgutil
import random
from pathlib import Path

import pytest

import thermoact
from test_bits import _extreme
from thermoact.config import StudySettings
from thermoact.electrothermal import TemperatureProfile, ThermalLoad
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             InvalidSpecError, Material, _record, default_spec)
from thermoact.study import (PARAMETERS, OptimumReport, SweepPlan, SweepRecord,
                             SweepTable)
from thermoact.thermomech import FrameSolution, StiffnessResult

PARTS = (Material, Environment, Geometry, Drive)
RECORDS = PARTS + (ActuatorSpec, ThermalLoad, TemperatureProfile, FrameSolution,
                   StiffnessResult, SweepPlan, SweepRecord, SweepTable, OptimumReport,
                   StudySettings)
# The records that write their own, validating ``__init__``.
OWN_INIT = (ActuatorSpec, SweepPlan)
# What a record stores beyond its fields: a plan keeps each point's four floats.
EXTRA = {SweepPlan: ["_points"]}


def _values(cls, start):
    """Distinct floats, one per field, falling from ``start``: positive,
    and the cold arm shorter than the hot arm, so a spec of them is valid."""
    return [start - i / 16 for i in range(len(dataclasses.fields(cls)))]


def _word(start, words):
    """One of ``words``, a different one for each ``start`` a sample takes."""
    return words[int(start * 2) % len(words)]


def _sample(cls, start=2.0):
    """An instance of ``cls`` with no field at its default, and every
    field unequal to the same field of a sample of another ``start``."""
    floats = _values(cls, start)
    if cls is ActuatorSpec:
        return ActuatorSpec(*(_sample(part, start) for part in PARTS))
    if cls is FrameSolution:
        return FrameSolution(ThermalLoad(start, start / 2), (start, -start, start / 4),
                             *floats[2:])
    if cls is TemperatureProfile:
        return TemperatureProfile(*floats[:6], _word(start, ("convective", "conduction-only")))
    if cls is StiffnessResult:
        return StiffnessResult(*floats[:3], (start, -start, start / 4), int(start * 64))
    if cls is SweepPlan:
        return SweepPlan(_sample(ActuatorSpec, start), _word(start, PARAMETERS),
                         (start / 8, start / 4))
    if cls is SweepTable:
        return SweepTable(_sample(SweepPlan, start),
                          (_sample(SweepRecord, start), _sample(SweepRecord, start / 2)))
    if cls is OptimumReport:
        return OptimumReport(*floats[:3], int(start * 64), floats[4],
                             _word(start, (None, "flat", "non_unimodal")))
    if cls is StudySettings:
        return StudySettings(_word(start, PARAMETERS), start, 2 * start, int(start * 4),
                             int(start * 64))
    return cls(*floats)


@functools.cache
def _twin(cls):
    """A plain ``@dataclass(frozen=True)`` over the same fields, names,
    types and defaults: the class the generated ``__init__`` would give."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING
            else (f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _as_twin(obj):
    twin = _twin(type(obj))
    return twin(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_hand_written_init_is_the_dataclass_init(cls):
    """The class is a frozen dataclass whose only ``__init__`` is its own,
    with the fields in order as parameters and each default the field's
    own default object."""
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen
    assert not cls.__dataclass_params__.init
    assert "__init__" in vars(cls)
    assert (cls.__init__.__code__.co_filename == "<string>") is (cls not in OWN_INIT)
    fields = dataclasses.fields(cls)
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in fields]
    for p, f in zip(parameters, fields):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default is dataclasses.MISSING:
            assert p.default is inspect.Parameter.empty
        else:
            assert p.default is f.default


def test_a_generated_init_puts_the_defaults_on_the_trailing_parameters():
    @_record
    class Pair:
        first: float
        second: tuple = (1.0,)

    init = Pair.__init__
    assert init.__qualname__ == f"{Pair.__qualname__}.__init__"
    assert init.__module__ == __name__
    assert [(p.name, p.default) for p in inspect.signature(Pair).parameters.values()] == [
        ("first", inspect.Parameter.empty), ("second", (1.0,))]
    assert len(init.__defaults__) == 1 and init.__defaults__[0] is Pair.second
    pair = Pair(2.0)
    assert vars(pair) == {"first": 2.0, "second": (1.0,)} and pair.second is Pair.second
    assert vars(Pair(3.0, second=None)) == {"first": 3.0, "second": None}
    with pytest.raises(TypeError, match=r"Pair\.__init__\(\) missing 1 required "
                                        r"positional argument: 'first'$"):
        Pair()
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.first = 1.0


def test_a_record_that_writes_its_own_init_keeps_it():
    @_record
    class Split:
        half: float
        rest: float

        def __init__(self, total):
            self.__dict__.update(half=total / 2.0, rest=total / 2.0)

    assert list(inspect.signature(Split).parameters) == ["total"]
    assert vars(Split(3.0)) == {"half": 1.5, "rest": 1.5}
    assert Split.__dataclass_params__.frozen and not Split.__dataclass_params__.init


def test_every_per_point_record_of_the_package_is_held_to_the_contract():
    """The package's dataclasses are exactly the records these tests
    cover, each made by ``_record``: frozen, without dataclass's
    ``__init__`` and with one of its own."""
    found = set()
    for module in pkgutil.iter_modules(thermoact.__path__, "thermoact."):
        for obj in vars(importlib.import_module(module.name)).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found.add(obj)
    assert found == set(RECORDS) and len(found) == 14
    for cls in found:
        params = cls.__dataclass_params__
        assert params.frozen and not params.init and "__init__" in vars(cls)


def test_only_the_model_imports_dataclasses():
    """``model._record`` is the one way the package makes a record, so
    ``model.py`` is the one module of the package that imports
    ``dataclasses``."""
    importers = set()
    for path in Path(thermoact.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.add(path.name)
    assert importers == {"model.py"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_stores_its_fields_in_order(cls):
    """``vars`` lists the fields in order, by position and by keyword,
    each the object passed in; ``collect_diagnostics`` walks that order."""
    names = [f.name for f in dataclasses.fields(cls)]
    obj = _sample(cls)
    values = [getattr(obj, name) for name in names]
    by_keyword = cls(**dict(zip(reversed(names), reversed(values))))
    for built in (obj, cls(*values), by_keyword):
        assert list(vars(built)) == names + EXTRA.get(cls, [])
        assert all(a is b for a, b in zip(vars(built).values(), values))


@pytest.mark.parametrize("cls", [cls for cls in RECORDS
                                 if dataclasses.fields(cls)[0].default
                                 is not dataclasses.MISSING],
                         ids=lambda cls: cls.__name__)
def test_a_record_left_empty_holds_its_default_objects(cls):
    obj = cls()
    assert list(vars(obj)) == [f.name for f in dataclasses.fields(cls)]
    assert all(getattr(obj, f.name) is f.default for f in dataclasses.fields(cls))
    assert _as_twin(obj) == _twin(cls)()


def test_a_default_spec_shares_its_default_parts():
    assert all(getattr(ActuatorSpec(), f.name) is getattr(default_spec(), f.name)
               is f.default for f in dataclasses.fields(ActuatorSpec))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_round_trips_through_the_dataclass_helpers(cls):
    """replace, astuple, pickle and copy give back an equal record with
    its fields in order; replace changes only the field it names."""
    obj = _sample(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    for again in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj)),
                  copy.copy(obj), copy.deepcopy(obj)):
        assert type(again) is cls
        assert again == obj
        assert list(vars(again)) == names + EXTRA.get(cls, [])
        assert vars(again) == vars(obj)
    assert dataclasses.astuple(obj) == dataclasses.astuple(_as_twin(obj))
    assert dataclasses.asdict(obj) == dataclasses.asdict(_as_twin(obj))
    other = _sample(cls, start=1.5)
    for name in names:
        changed = dataclasses.replace(obj, **{name: getattr(other, name)})
        assert [n for n in names if getattr(changed, n) != getattr(obj, n)] == [name]
        assert list(vars(changed)) == names + EXTRA.get(cls, [])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_frozen(cls):
    obj = _sample(cls)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert obj == _sample(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_compares_hashes_and_prints_as_its_generated_twin(cls):
    obj, same, other = _sample(cls), _sample(cls), _sample(cls, start=1.5)
    assert same is not obj
    for a, b in ((obj, same), (obj, other), (other, obj)):
        ta, tb = _as_twin(a), _as_twin(b)
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
        assert hash(a) == hash(ta)
        assert repr(a) == repr(ta)
    assert obj == same and obj != other
    assert obj != _as_twin(obj)


def _field_values(build):
    """The thirteen field values of an extreme draw, as
    ``test_bits._spec`` would build them, per part in field order."""
    drawn = inspect.getclosurevars(build).nonlocals
    hot, fields = drawn["hot"], drawn["fields"]
    given = {**fields, "convection_coefficient": drawn["convection"],
             "hot_arm_length": hot * 1e-6,
             "cold_arm_length": drawn["ratio"] * hot * 1e-6,
             "gap": drawn["gap"] * 1e-6, "voltage": drawn["volts"]}
    return [{f.name: given.get(f.name, f.default) for f in dataclasses.fields(part)}
            for part in PARTS]


# Values that break a bound, each with its own diagnostic or error.
BAD = (0.0, -1.0, -300.0, math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400))


def _outcome(build):
    try:
        return "accepted", build()
    except InvalidSpecError as exc:
        return "InvalidSpecError", exc.diagnostics
    except OverflowError as exc:
        return "OverflowError", str(exc)


def test_every_way_of_building_a_spec_gets_one_verdict():
    """Positional, keyword and ``dataclasses.replace`` construction accept
    the same extreme draws, equal to one another, and refuse the same
    ones with the same diagnostics in field order, or the same
    OverflowError.  Some draws have up to three fields broken."""
    rng = random.Random(5150)
    names = [f.name for part in PARTS for f in dataclasses.fields(part)]
    base = default_spec()
    seen = {"accepted": 0, "InvalidSpecError": 0, "OverflowError": 0}
    for i in range(3000):
        values = _field_values(_extreme(rng, i))
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            part = rng.choice(values)
            part[rng.choice(list(part))] = rng.choice(BAD)
        routes = (
            lambda: ActuatorSpec(*(cls(*v.values()) for cls, v in zip(PARTS, values))),
            lambda: ActuatorSpec(**{f.name: cls(**v) for f, cls, v
                                    in zip(dataclasses.fields(ActuatorSpec), PARTS, values)}),
            lambda: dataclasses.replace(base, **{
                f.name: dataclasses.replace(getattr(base, f.name), **v)
                for f, v in zip(dataclasses.fields(ActuatorSpec), values)}),
        )
        outcomes = [_outcome(route) for route in routes]
        kind, result = outcomes[0]
        assert [k for k, _ in outcomes] == [kind] * 3
        if kind == "accepted":
            assert outcomes[1][1] == result and outcomes[2][1] == result
            assert [list(vars(p).values()) for p in vars(result).values()] == [
                list(v.values()) for v in values]
        else:
            assert outcomes[1][1] == outcomes[2][1] == result
        if kind == "InvalidSpecError":
            order = [names.index(d.split()[0]) for d in result
                     if d != "cold_arm_length exceeds hot_arm_length"]
            assert order == sorted(set(order))
        seen[kind] += 1
    assert min(seen.values()) > 50, seen
