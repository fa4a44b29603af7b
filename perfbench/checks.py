"""Output checks: the oracle comparison ``thermoact validate`` makes, the
exact laws, and the in-process replay of a CLI invocation.

Nothing here is timed.  Every function returns a list of failure
descriptions (empty when the output is right) or the expected result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from xml.etree import ElementTree

import numpy as np

from thermoact import cli, config, electrothermal, model, output, study, thermomech

# The tolerances and oracle resolutions of ``thermoact validate``.
THERMAL_TOLERANCE = 1.0e-3
MECHANICAL_TOLERANCE = 2.0e-2
FD_NODES = 4097
ORACLE_ELEMENTS = 64
# Rotation (rad) beyond which simulate must refuse; a refusal is
# confirmed when the stiffness oracle's rotation reaches it within the
# mechanical tolerance.
SMALL_ANGLE_LIMIT = 0.1
MICRO = 1.0e-6
SVG = "http://www.w3.org/2000/svg"


def validation_errors(spec, closed=None):
    """(thermal, mechanical) worst relative errors as ``validate`` prints them.

    ``closed`` is (tip, junction deflection, junction rotation) to judge
    in place of simulate's own, such as a stored sweep record.
    """
    profile = electrothermal.solve_temperature_profile(spec)
    xs, fd_temps = electrothermal.fd_temperature_oracle(spec, nodes=FD_NODES)
    closed_temps = electrothermal.temperature_at(profile, xs)
    scale = np.max(np.abs(fd_temps - profile.ambient))
    thermal = float(np.max(np.abs(closed_temps - fd_temps)) / scale) \
        if scale > 0.0 else 0.0
    if closed is None:
        sol = thermomech.simulate(spec)
        closed = (sol.tip_deflection, sol.junction_deflection,
                  sol.junction_rotation)
    oracle = thermomech.stiffness_oracle(spec, elements_per_member=ORACLE_ELEMENTS)
    theirs = (oracle.tip_deflection, oracle.junction_deflection,
              oracle.junction_rotation)
    mechanical = 0.0
    for ours, ref in zip(closed, theirs):
        if ref != 0.0:
            mechanical = max(mechanical, abs(ours - ref) / abs(ref))
        elif ours != 0.0:
            mechanical = math.inf
    return thermal, mechanical


def oracle_failures(spec, closed=None):
    """Disagreements of ``spec``'s closed forms with both oracles.

    A SmallAngleError refusal is correct only when the stiffness
    oracle's junction rotation confirms it.
    """
    try:
        thermal, mechanical = validation_errors(spec, closed)
    except thermomech.SmallAngleError:
        rotation = thermomech.stiffness_oracle(
            spec, elements_per_member=ORACLE_ELEMENTS).junction_rotation
        if abs(rotation) >= SMALL_ANGLE_LIMIT * (1.0 - MECHANICAL_TOLERANCE):
            return []
        return [f"refused although the oracle rotation is {rotation:.4g} rad"]
    out = []
    if not thermal <= THERMAL_TOLERANCE:
        out.append(f"thermal error {thermal:.3e} exceeds {THERMAL_TOLERANCE:.0e}")
    if not mechanical <= MECHANICAL_TOLERANCE:
        out.append(f"mechanical error {mechanical:.3e} exceeds "
                   f"{MECHANICAL_TOLERANCE:.0e}")
    return out


def law_failures(spec):
    """The exact laws at one operating point: the V^2 law, invariance
    under Young's modulus, zero for equal arms, zero at 0 V.  Tolerances
    are those of the acceptance suite."""
    def tip(s):
        return thermomech.simulate(s).tip_deflection

    while True:
        # a refused point is taken at half the voltage until it solves
        try:
            full = tip(spec)
            break
        except thermomech.SmallAngleError:
            spec = dataclasses.replace(
                spec, drive=model.Drive(spec.drive.voltage / 2))
    out = []
    half = tip(dataclasses.replace(spec, drive=model.Drive(spec.drive.voltage / 2)))
    if not abs(full - 4.0 * half) <= 1.0e-9 * abs(full):
        out.append(f"V^2 law: tip {full!r} is not 4 x {half!r}")
    for factor in (2.0, 3.7):
        material = dataclasses.replace(
            spec.material, young_modulus=factor * spec.material.young_modulus)
        scaled = tip(dataclasses.replace(spec, material=material))
        if not abs(scaled - full) <= 1.0e-10 * abs(full):
            out.append(f"modulus x{factor} moves the tip {full!r} -> {scaled!r}")
    geometry = spec.geometry
    equal = dataclasses.replace(spec, geometry=dataclasses.replace(
        geometry, cold_arm_length=geometry.hot_arm_length))
    balanced = tip(equal)
    if not abs(balanced) <= 1.0e-12 * geometry.hot_arm_length:
        out.append(f"equal arms give tip {balanced!r}")
    quiet = thermomech.simulate(dataclasses.replace(spec, drive=model.Drive(0.0)))
    if (quiet.tip_deflection, quiet.junction_deflection, quiet.junction_rotation,
            quiet.thermal_load.hot_elongation) != (0.0, 0.0, 0.0, 0.0):
        out.append("0 V does not give exactly zero motion")
    return out


def nonfinite(values):
    return not all(math.isfinite(v) for v in values)


def sweep_table(base, parameter, values):
    """Run one sweep through the public study API."""
    return study.run_sweep(study.SweepPlan(base=base, parameter=parameter,
                                           values=tuple(values)))


def sweep_failures(parameter, table, csv_text, svg_text):
    """A sweep's records are finite and its CSV and SVG render them."""
    out = []
    records = table.records
    for rec in records:
        if nonfinite(dataclasses.astuple(rec)):
            out.append(f"{parameter} = {rec.value!r}: non-finite record")
    rows = [line.split(",") for line in csv_text.splitlines()]
    if len(rows) != len(records) + 1:
        out.append(f"CSV has {len(rows) - 1} rows for {len(records)} records")
    else:
        for row, rec in zip(rows[1:], records):
            tip = float(row[2]) * MICRO
            if not abs(tip - rec.tip_deflection) <= 1e-8 * abs(rec.tip_deflection):
                out.append(f"CSV tip {row[2]} does not render {rec.tip_deflection!r}")
                break
    try:
        line = ElementTree.fromstring(svg_text).find(f"{{{SVG}}}polyline")
        plotted = len(line.get("points").split())
    except (ElementTree.ParseError, AttributeError):
        plotted = None
    if plotted != len(records):
        out.append(f"SVG plots {plotted} points for {len(records)} records")
    return out


@dataclasses.dataclass
class Expected:
    """What a CLI invocation must produce: exit code, stdout, the files
    it writes (name -> text), the stderr lines of a refusal, and the
    number of operating points it asks for (0 when its input is refused
    before any point is solved)."""

    code: int
    stdout: str = ""
    files: dict = dataclasses.field(default_factory=dict)
    stderr: list | None = None
    points: int = 0


def optimum_points(report):
    """Operating points a ``find_optimal_ratio`` call asks for: its grid
    over [0.1, 0.8] and, when the scan is unimodal, a golden-section
    refinement of a two-step bracket to 1e-4 in ratio (both ends, two
    inner points, then one point per shrink by 1/phi).  A definition of
    the work, not a count of calls, so that a program solving the same
    points another way is credited the same."""
    points = report.grid_resolution
    if report.flag is None:
        width = 2.0 * (0.8 - 0.1) / (report.grid_resolution - 1)
        points += 4
        while width > 1.0e-4:
            width *= (math.sqrt(5.0) - 1.0) / 2.0
            points += 1
    return points


def expected_cli(command, options, config_text):
    """Replay one CLI invocation through the in-process API.

    ``options`` holds the flags the case passes (voltage, param, start,
    stop, steps, grid, out, svg), file names relative to the case's
    directory.  Numbers are formatted as the CLI prints them.
    """
    try:
        spec, settings = config.parse_config(config_text)
    except config.ConfigError as exc:
        return Expected(1, stderr=[f"error: {d}" for d in exc.diagnostics])
    try:
        return _replay(command, options, spec, settings)
    except (config.ConfigError, model.InvalidSpecError) as exc:
        return Expected(1, stderr=[f"error: {d}" for d in exc.diagnostics])
    except (thermomech.SmallAngleError, thermomech.FrameSingularError) as exc:
        # only single-point commands are over-driven: the refused point
        return Expected(2, stderr=[f"error: {exc}"], points=1)


def _replay(command, options, spec, settings):
    text = io.StringIO()
    if command == "simulate":
        if options.get("voltage") is not None:
            spec = dataclasses.replace(spec, drive=model.Drive(options["voltage"]))
        sol = thermomech.simulate(spec)
        rows = (
            ("tip_deflection", sol.tip_deflection / MICRO, "um"),
            ("junction_deflection", sol.junction_deflection / MICRO, "um"),
            ("junction_rotation", sol.junction_rotation * 1.0e3, "mrad"),
            ("hot_elongation", sol.thermal_load.hot_elongation / MICRO, "um"),
            ("cold_elongation", sol.thermal_load.cold_elongation / MICRO, "um"),
            ("peak_temperature", sol.peak_temperature, "C"),
        )
        for name, value, unit in rows:
            print(f"{name} = {value:.9g} {unit}", file=text)
        return Expected(0, text.getvalue(), points=1)
    if command == "sweep":
        param, values = config.resolve_sweep(
            settings, parameter=options.get("param"), start=options.get("start"),
            stop=options.get("stop"), steps=options.get("steps"))
        table = sweep_table(spec, param, values)
        return Expected(0, files={options["out"]: output.sweep_csv(table),
                                  options["svg"]: output.sweep_chart_svg(table)},
                        points=len(values))
    if command == "optimize-ratio":
        grid = options.get("grid") or settings.optimize_grid
        report = study.find_optimal_ratio(spec, grid=grid)
        print(f"hot_arm_length = {report.hot_arm_length / MICRO:.9g} um", file=text)
        print(f"optimal_ratio={report.optimal_ratio:.9g}", file=text)
        print(f"optimal_tip_deflection = "
              f"{report.optimal_tip_deflection / MICRO:.9g} um", file=text)
        print(f"grid_resolution = {report.grid_resolution}", file=text)
        print(f"gain_over_range = {report.gain_over_range:.9g}", file=text)
        return Expected(0, text.getvalue(), points=optimum_points(report))
    thermal, mechanical = validation_errors(spec)
    print(f"thermal_max_rel_error = {thermal:.3e} "
          f"(limit {THERMAL_TOLERANCE:.0e})", file=text)
    print(f"mechanical_max_rel_error = {mechanical:.3e} "
          f"(limit {MECHANICAL_TOLERANCE:.0e})", file=text)
    if thermal <= THERMAL_TOLERANCE and mechanical <= MECHANICAL_TOLERANCE:
        print("validation ok", file=text)
        return Expected(0, text.getvalue(), points=1)
    return Expected(3, text.getvalue(), points=1)


def cli_failures(expected, declared, code, stdout, stderr, files):
    """Compare one finished CLI invocation with its expectation."""
    out = []
    if "Traceback" in stderr:
        out.append("printed a traceback")
    if code != declared:
        out.append(f"exit {code}, expected {declared}")
    elif code != expected.code:
        out.append(f"exit {code}, but the API gives {expected.code}")
    if stdout != expected.stdout:
        out.append("stdout differs from the API result")
    for name, text in expected.files.items():
        if files.get(name) != text:
            out.append(f"{name} differs from the API result")
    if expected.stderr is not None and \
            stderr.splitlines()[-len(expected.stderr):] != expected.stderr:
        out.append("stderr does not name the API's diagnostics")
    return out


def run_main(argv):
    """Call ``thermoact.cli.main`` in-process as the console script would:
    (exit code, stdout, stderr), with an escaping exception shown as the
    traceback the interpreter would print."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI's own failure, reported below
            print(f"Traceback (most recent call last):\n{type(exc).__name__}: "
                  f"{exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()
