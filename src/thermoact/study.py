"""Parameter studies over the actuator: sweeps and ratio optimisation.
A sensitivity study is a ``gap`` or ``hot_arm_length`` sweep.

Studies vary one scalar at a time around a base spec.  The swept
parameters and their meanings:

  voltage         drive voltage, V
  ratio           cold-arm length as a fraction of the hot arm
  gap             air gap between the arms, m
  hot_arm_length  hot-arm length, m; the cold arm follows so that the
                  base length ratio is preserved

Each study draws every number from ``simulate``'s scalar kernel
``thermomech._solve_point``, given the base's constants and each
point's four floats from the parameter's point rule, both formed once
per study; nothing is approximated here, so study output inherits the
pipeline's validation status unchanged.
"""

from __future__ import annotations

import math

from .electrothermal import _constants
from .model import _FLOAT_MAX, ActuatorSpec, Drive, Geometry, InvalidSpecError, _record
from .thermomech import _solve_point

PARAMETERS = ("voltage", "ratio", "gap", "hot_arm_length")
# Cold/hot length ratios that ratio optimisation scans, and the default
# ratio sweep's range.
RATIO_RANGE = (0.1, 0.8)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1.0e-4


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced floats from start to stop, the same
    bits as ``numpy.linspace(start, stop, num).tolist()``.

    Point i is i * step + start, or (i / (num - 1)) * delta + start
    when the step underflows to zero, and the last point is ``stop``
    itself.  A range whose width overflows gives the same non-finite
    values numpy does, without raising.
    """
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(div)]
    else:
        values = [i * step + start for i in range(div)]
    values.append(stop)
    return values


def _point(base: ActuatorSpec, parameter: str):
    """The point rule of one study parameter on ``base``: a function of
    one value that returns the hot arm, cold arm, gap and voltage, as
    ``_solve_point`` takes them, of ``base`` with ``parameter`` set to
    that value.  The base's four floats are read and the rule chosen
    here, once per study.  A point is checked only on the fields it
    changes and on the arm order, against the constructor's bounds, as
    ``base`` is valid; a point that fails goes to the full constructor,
    whose InvalidSpecError names every violated bound, or whose
    finiteness check raises (OverflowError for an int past the float
    range).  ValueError for an unknown parameter."""
    g = base.geometry
    hot, cold, gap, volts = g.hot_arm_length, g.cold_arm_length, g.gap, base.drive.voltage
    if parameter == "voltage":
        def point(value):
            if not 0.0 <= value <= _FLOAT_MAX:
                _spec(base, (hot, cold, gap, value))     # raises InvalidSpecError
            return hot, cold, gap, value
        return point
    if parameter == "ratio":
        def arms(value):
            return hot, value * hot, gap
    elif parameter == "gap":
        def arms(value):
            return hot, cold, value
    elif parameter == "hot_arm_length":
        ratio = cold / hot

        def arms(value):
            return value, ratio * value, gap
    else:
        raise ValueError(f"unknown study parameter {parameter!r}")

    def point(value):
        hot, cold, gap = arms(value)
        if not (0.0 < cold <= hot <= _FLOAT_MAX and 0.0 < gap <= _FLOAT_MAX):
            _spec(base, (hot, cold, gap, volts))         # raises InvalidSpecError
        return hot, cold, gap, volts
    return point


def _spec(base, point):
    """``base`` with the arm lengths, gap and voltage of ``point``, by the
    full constructor."""
    (hot, cold, gap, volts), g = point, base.geometry
    geometry = Geometry(hot, cold, gap, g.beam_width, g.beam_thickness, g.extension_length)
    return ActuatorSpec(base.material, base.environment, geometry, Drive(volts))


def apply_parameter(base: ActuatorSpec, parameter: str, value: float) -> ActuatorSpec:
    """A copy of ``base`` with one study parameter set to ``value``, or
    ``_point``'s refusal.  The studies themselves build no spec."""
    return _spec(base, _point(base, parameter)(value))


@_record
class SweepPlan:
    """A validated list of operating points for one swept parameter.

    Construction checks every value and keeps each point's four floats,
    so an invalid point aborts before any simulation runs, naming the
    offending value.  The values are kept as a tuple.
    """

    base: ActuatorSpec
    parameter: str
    values: tuple[float, ...]

    def __init__(self, base, parameter, values):
        point, values = _point(base, parameter), tuple(values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        points = []
        for value in values:
            try:
                points.append(point(value))
            except InvalidSpecError as exc:
                raise InvalidSpecError(
                    [f"{parameter} = {value!r}: {d}" for d in exc.diagnostics]
                ) from exc
        self.__dict__.update(base=base, parameter=parameter, values=values,
                             _points=tuple(points))


@_record
class SweepRecord:
    """One row of sweep output (SI units; temperatures in C)."""

    value: float
    tip_deflection: float
    junction_deflection: float
    junction_rotation: float
    hot_elongation: float
    cold_elongation: float
    peak_temperature: float


@_record
class SweepTable:
    """The simulated sweep: one record per plan value, in plan order."""

    plan: SweepPlan
    records: tuple[SweepRecord, ...]


def run_sweep(plan: SweepPlan) -> SweepTable:
    """Solve every point of the plan, in order, from its base spec's
    constants and four floats into a record of ``_solve_point``'s first
    six floats, ``simulate``'s bits."""
    c = _constants(plan.base)
    records = tuple(SweepRecord(value, *_solve_point(c, *point)[:6])
                    for value, point in zip(plan.values, plan._points))
    return SweepTable(plan=plan, records=records)


@_record
class OptimumReport:
    """Outcome of a ratio optimisation.

    flag is None for a clean unimodal refinement, "flat" when the
    objective does not vary over the grid, "non_unimodal" when the grid
    shows multiple rises and falls; in both flagged cases the best grid
    point is reported unrefined.  gain_over_range is the max/min tip
    deflection across the grid: 1.0 on a flat grid, where no ratio
    gains anything, else nan when the minimum is not positive.
    """

    hot_arm_length: float
    optimal_ratio: float
    optimal_tip_deflection: float
    grid_resolution: int
    gain_over_range: float
    flag: str | None


def golden_section_max(func, lo: float, hi: float):
    """Maximise a unimodal scalar function on [lo, hi] to a bracket of 1e-4.

    Returns (argmax, max) of the best point actually evaluated, the
    first evaluated among equals, which can only improve on the best
    bracketing endpoint.  Deterministic: no randomness, fixed evaluation
    order.
    """
    a, b = float(lo), float(hi)
    seen = {a: func(a), b: func(b)}
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = seen[c] = func(c)
    fd = seen[d] = func(d)
    while (b - a) > _GOLDEN_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = seen[c] = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = seen[d] = func(d)
    best = max(seen, key=seen.get)
    return best, seen[best]


def find_optimal_ratio(base: ActuatorSpec, grid: int = 71) -> OptimumReport:
    """Locate the cold/hot length ratio maximising tip deflection.

    Scans ``grid`` evenly spaced ratios over ``RATIO_RANGE``, checks the
    sampled objective is unimodal, then refines around the best grid
    point by golden-section search to 1e-4 in ratio.  A flat or
    non-unimodal scan is reported with the corresponding flag instead of
    refined blindly; any grid ratio ``simulate`` refuses aborts the scan.
    The objective is the tip, the first float of ``_solve_point``'s tuple
    on the base's constants and the ratio's four floats: no spec per ratio.
    """
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    ratios = _linspace(*RATIO_RANGE, grid)
    c, point = _constants(base), _point(base, "ratio")

    def objective(ratio: float) -> float:
        return _solve_point(c, *point(ratio))[0]

    deflections = [objective(r) for r in ratios]
    low = min(deflections)
    high = max(deflections)
    gain = high / low if low > 0.0 else float("nan")
    peak = deflections.index(high)

    if high == low:
        return OptimumReport(base.geometry.hot_arm_length, ratios[peak],
                             high, grid, 1.0, "flat")
    rising = [b > a for a, b in zip(deflections, deflections[1:])]
    unimodal = all(rising[:peak]) and not any(rising[peak:])
    if not unimodal:
        return OptimumReport(base.geometry.hot_arm_length, ratios[peak],
                             deflections[peak], grid, gain, "non_unimodal")

    # The bracket ends are grid points, whose deflections the scan has.
    lo, hi = max(peak - 1, 0), min(peak + 1, grid - 1)
    ends = {ratios[lo]: deflections[lo], ratios[hi]: deflections[hi]}
    best_ratio, best_deflection = golden_section_max(
        lambda r: ends[r] if r in ends else objective(r), ratios[lo], ratios[hi])
    if deflections[peak] > best_deflection:
        best_ratio, best_deflection = ratios[peak], deflections[peak]
    return OptimumReport(base.geometry.hot_arm_length, best_ratio,
                         best_deflection, grid, gain, None)
