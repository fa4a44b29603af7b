"""Bit dump of the closed-form pipeline, pinned by its sha256.

Every ``simulate`` output, written as ``float.hex``, on seeded
operating points: about 2000 in the benchmark's single-point domain,
about 500 log-uniform draws over many decades of every spec field,
explicit edge cases, the four default-grid sweeps and a few ratio
optimisations.  A refused point contributes its exception's kind and
message instead.  A change to the pipeline that moves a single bit of
any output, or the kind or text of any refusal, changes the digest.

The inputs come from ``random.Random`` alone, so the dump needs no
numpy.  Run the file as a script to print the dump, so that two
checkouts compare with one command:

    diff <(PYTHONPATH=src python tests/test_bits.py) \\
         <(cd ../other && PYTHONPATH=src python tests/test_bits.py)

Re-pin the digest only for a deliberate change of behaviour, with the
drift stated alongside it.
"""

import hashlib
import random

from thermoact.config import StudySettings, resolve_sweep
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             Material, default_spec)
from thermoact.study import PARAMETERS, apply_parameter, find_optimal_ratio
from thermoact.thermomech import simulate

DIGEST = "5fd9138aa9b7930bcfc496d068248ae64a72b5eac409bf377437508a6c03be5e"

DOMAIN_POINTS = 2000
EXTREME_POINTS = 500
CONVECTION = (0.0, 50.0, 500.0, 5000.0)
# Decades either side of each default that an extreme draw spans.
SPREADS = (2.0, 20.0, 200.0)


def _spec(hot, ratio, gap, volts, convection, **fields):
    """An ActuatorSpec from the benchmark's point format (hot arm and gap
    in um) plus any Material, Environment or Geometry field."""
    material = Material(**{k: v for k, v in fields.items()
                           if k in Material.__dataclass_fields__})
    environment = Environment(convection_coefficient=convection,
                              **{k: v for k, v in fields.items()
                                 if k in Environment.__dataclass_fields__})
    geometry = Geometry(hot_arm_length=hot * 1e-6,
                        cold_arm_length=ratio * hot * 1e-6, gap=gap * 1e-6,
                        **{k: v for k, v in fields.items()
                           if k in Geometry.__dataclass_fields__})
    return ActuatorSpec(material=material, environment=environment,
                        geometry=geometry, drive=Drive(voltage=volts))


def _domain(rng):
    return _spec(rng.uniform(300.0, 1000.0), rng.uniform(0.1, 0.8),
                 rng.uniform(2.0, 10.0), rng.uniform(0.0, 10.0),
                 rng.choice(CONVECTION))


def _extreme(rng, i):
    spread = SPREADS[i % len(SPREADS)]

    def scaled(default):
        return default * 10.0 ** rng.uniform(-spread, spread)

    base = default_spec()
    fields = {name: scaled(getattr(part, name))
              for part in (base.material, base.environment, base.geometry)
              for name in vars(part)
              if name not in ("convection_coefficient", "hot_arm_length",
                              "cold_arm_length", "gap")}
    convection = 0.0 if i % 5 == 0 else scaled(50.0)
    volts = 0.0 if i % 7 == 0 else scaled(8.0)
    ratio = 10.0 ** rng.uniform(-min(spread, 20.0), 0.05)
    hot, gap = scaled(750.0), scaled(5.0)
    return lambda: _spec(hot, ratio, gap, volts, convection, **fields)


# Points a random draw rarely or never hits: both sides of the plateau
# threshold, conduction-only, equal arms, no drive, integer fields (one
# beyond 2**53, where a float and an int cube round apart), the
# conduction-only cube out of the float range, and a frame that turns
# past the small-angle limit.
EDGES = (
    lambda: default_spec(),
    lambda: _spec(750.0, 0.46, 5.0, 8.0, 0.0),
    lambda: _spec(750.0, 1.0, 5.0, 8.0, 50.0),
    lambda: _spec(750.0, 1.0, 5.0, 8.0, 0.0),
    lambda: _spec(750.0, 0.46, 5.0, 0.0, 50.0),
    lambda: _spec(750.0, 0.46, 5.0, 0.0, 0.0),
    lambda: _spec(750.0, 0.46, 5.0, 8.0, 1.0e-9),
    lambda: _spec(750.0, 0.46, 5.0, 8.0, 3.0e-11),
    lambda: _spec(750.0, 0.46, 5.0, 8.0, 1.0e-11),
    lambda: _spec(750.0, 0.46, 5.0, 8.0, 1.0e12),
    lambda: ActuatorSpec(geometry=Geometry(hot_arm_length=1, cold_arm_length=1,
                                           gap=1, beam_width=1,
                                           beam_thickness=1,
                                           extension_length=1),
                         drive=Drive(voltage=8)),
    lambda: ActuatorSpec(geometry=Geometry(hot_arm_length=3,
                                           cold_arm_length=1)),
    lambda: ActuatorSpec(environment=Environment(convection_coefficient=0),
                         geometry=Geometry(hot_arm_length=3 * 10 ** 16 + 7,
                                           cold_arm_length=10 ** 16 + 3, gap=1)),
    lambda: _spec(1.0e109, 0.5, 5.0, 8.0, 0.0),
    lambda: _spec(750.0, 0.46, 5.0, 80.0, 50.0),
)


def _hex(*values):
    return " ".join(float(v).hex() for v in values)


def _outcome(build):
    """One dump line: every output of ``simulate(build())`` or the
    refusal's kind and message."""
    try:
        s = simulate(build())
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    load = s.thermal_load
    return _hex(s.tip_deflection, s.junction_deflection, s.junction_rotation,
                *s.redundants, load.hot_elongation, load.cold_elongation,
                s.peak_temperature)


def dump_lines():
    rng = random.Random(20240611)
    for i in range(DOMAIN_POINTS):
        spec = _domain(rng)
        yield f"domain {i} {_outcome(lambda: spec)}"
    for i in range(EXTREME_POINTS):
        yield f"extreme {i} {_outcome(_extreme(rng, i))}"
    for i, build in enumerate(EDGES):
        yield f"edge {i} {_outcome(build)}"
    base = default_spec()
    for parameter in PARAMETERS:
        _, values = resolve_sweep(StudySettings(), parameter)
        for value in values:
            yield (f"sweep {parameter} {value.hex()} "
                   f"{_outcome(lambda: apply_parameter(base, parameter, value))}")
    for hot in (400.0, 750.0, 950.0):
        for convection in CONVECTION[:2]:
            r = find_optimal_ratio(_spec(hot, 0.46, 4.0, 6.0, convection), grid=31)
            yield (f"optimum {hot} {convection} {r.flag} "
                   f"{_hex(r.optimal_ratio, r.optimal_tip_deflection, r.gain_over_range)}")


def dump() -> str:
    return "".join(line + "\n" for line in dump_lines())


def test_every_output_bit_matches_the_pinned_dump():
    assert hashlib.sha256(dump().encode()).hexdigest() == DIGEST


if __name__ == "__main__":
    print(dump(), end="")
