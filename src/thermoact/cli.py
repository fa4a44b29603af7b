"""Command-line front end.

    thermoact simulate       one operating point, report to stdout
    thermoact sweep          parameter sweep to CSV (and optional SVG)
    thermoact optimize-ratio best cold/hot length ratio for the config
    thermoact validate       cross-check closed forms against oracles

Exit codes: 0 success, 1 configuration problems or a malformed command
line, 2 solver guard tripped (rotation outside the small-angle regime,
a fin, frame or oracle quantity out of the float range, a singular
system), each a named SmallAngleError, FrameSingularError or
ThermalSystemError, 3 validation breach from the ``validate``
subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (_MICRO, MAX_GRID_POINTS, ConfigError, StudySettings,
                     parse_config, resolve_sweep)
from .electrothermal import (ThermalSystemError, fd_temperature_oracle,
                             solve_temperature_profile, temperature_at)
from .model import ActuatorSpec, InvalidSpecError
from .output import _REPORT_FIELDS, _rows, sweep_chart_svg, sweep_csv
from .study import (PARAMETERS, SweepPlan, apply_parameter, find_optimal_ratio,
                    run_sweep)
from .thermomech import (FrameSingularError, SmallAngleError, simulate,
                         stiffness_oracle)

THERMAL_TOLERANCE = 1.0e-3
MECHANICAL_TOLERANCE = 2.0e-2
# The oracles' resolutions under ``validate``: FD nodes along the path
# and stiffness elements per member.
FD_NODES = 4097
ORACLE_ELEMENTS = 64


class _Parser(argparse.ArgumentParser):
    """argparse with its usage and message, but exit 1 on a malformed
    command line: argparse's 2 here means a solver guard tripped.  The
    subcommand parsers are made by this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermoact",
        description="Lateral electrothermal microactuator simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (defaults apply if omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate one operating point")
    p.add_argument("--voltage", type=float, help="override drive voltage [V]")
    p.add_argument("--out", metavar="CSV", help="also write a one-row CSV")

    p = sub.add_parser("sweep", parents=[common], help="run a parameter sweep")
    p.add_argument("--param", choices=PARAMETERS,
                   help="swept parameter (default from config)")
    p.add_argument("--from", dest="start", type=float, metavar="X",
                   help="sweep start, display units")
    p.add_argument("--to", dest="stop", type=float, metavar="Y",
                   help="sweep end, display units")
    p.add_argument("--steps", type=int, help="number of sweep points")
    p.add_argument("--out", metavar="CSV", help="CSV path (default stdout)")
    p.add_argument("--svg", metavar="SVG", help="also write a line chart")

    p = sub.add_parser("optimize-ratio", parents=[common],
                       help="find the tip-maximising length ratio")
    p.add_argument("--grid", type=int, help="scan resolution (default 71)")

    sub.add_parser("validate", parents=[common],
                   help="compare closed forms against numerical oracles")
    return parser


def _load(config_path):
    if config_path is None:
        return parse_config("")
    try:
        with open(config_path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    return parse_config(text)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError([f"cannot write output: {exc}"]) from exc


def _cmd_simulate(spec: ActuatorSpec, args) -> int:
    if args.voltage is not None:
        spec = apply_parameter(spec, "voltage", args.voltage)
    table = run_sweep(SweepPlan(base=spec, parameter="voltage",
                                values=(spec.drive.voltage,)))
    cells = next(_rows(table)).split(",")[2:]
    for (name, unit), cell in zip(_REPORT_FIELDS, cells):
        print(f"{name} = {cell} {unit}")
    if args.out:
        _write(args.out, sweep_csv(table))
    return 0


def _cmd_sweep(spec: ActuatorSpec, settings: StudySettings, args) -> int:
    param, values = resolve_sweep(settings, parameter=args.param,
                                  start=args.start, stop=args.stop,
                                  steps=args.steps)
    table = run_sweep(SweepPlan(base=spec, parameter=param, values=values))
    text = sweep_csv(table)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.svg:
        _write(args.svg, sweep_chart_svg(table))
    return 0


def _cmd_optimize(spec: ActuatorSpec, settings: StudySettings, args) -> int:
    grid = args.grid if args.grid is not None else settings.optimize_grid
    if grid < 3:
        raise ConfigError(["--grid must be at least 3"])
    if grid > MAX_GRID_POINTS:
        raise ConfigError([f"--grid must be at most {MAX_GRID_POINTS}"])
    report = find_optimal_ratio(spec, grid=grid)
    print(f"hot_arm_length = {report.hot_arm_length / _MICRO:.9g} um")
    print(f"optimal_ratio={report.optimal_ratio:.9g}")
    print(f"optimal_tip_deflection = "
          f"{report.optimal_tip_deflection / _MICRO:.9g} um")
    print(f"grid_resolution = {report.grid_resolution}")
    print(f"gain_over_range = {report.gain_over_range:.9g}")
    if report.flag is not None:
        print(f"warning: objective is {report.flag}; reporting the best "
              "grid point without refinement", file=sys.stderr)
    return 0


def _cmd_validate(spec: ActuatorSpec) -> int:
    # The closed form runs first, so a point it refuses ends in its
    # named error before numpy is loaded or the oracles see it.  The
    # oracles then load numpy, scipy's top-level package and its
    # compiled LAPACK wrappers, but not the scipy.linalg package.
    solution = simulate(spec)
    import numpy as np

    profile = solve_temperature_profile(spec)
    xs, fd_temps = fd_temperature_oracle(spec, nodes=FD_NODES)
    closed = temperature_at(profile, xs)
    scale = np.max(np.abs(fd_temps - profile.ambient))
    thermal_err = float(np.max(np.abs(closed - fd_temps)) / scale) \
        if scale > 0.0 else 0.0

    oracle = stiffness_oracle(spec, elements_per_member=ORACLE_ELEMENTS)
    pairs = (
        (solution.tip_deflection, oracle.tip_deflection),
        (solution.junction_deflection, oracle.junction_deflection),
        (solution.junction_rotation, oracle.junction_rotation),
    )
    mech_err = 0.0
    for ours, theirs in pairs:
        if theirs != 0.0:
            mech_err = max(mech_err, abs(ours - theirs) / abs(theirs))
        elif ours != 0.0:
            mech_err = max(mech_err, float("inf"))
    print(f"thermal_max_rel_error = {thermal_err:.3e} (limit {THERMAL_TOLERANCE:.0e})")
    print(f"mechanical_max_rel_error = {mech_err:.3e} (limit {MECHANICAL_TOLERANCE:.0e})")
    breaches = []
    if not thermal_err <= THERMAL_TOLERANCE:
        breaches.append(f"thermal error {thermal_err:.3e} exceeds {THERMAL_TOLERANCE:.0e}")
    if not mech_err <= MECHANICAL_TOLERANCE:
        breaches.append(f"mechanical error {mech_err:.3e} exceeds {MECHANICAL_TOLERANCE:.0e}")
    if breaches:
        for line in breaches:
            print(f"validation breach: {line}", file=sys.stderr)
        return 3
    print("validation ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec, settings = _load(args.config)
        if args.command == "simulate":
            code = _cmd_simulate(spec, args)
        elif args.command == "sweep":
            code = _cmd_sweep(spec, settings, args)
        elif args.command == "optimize-ratio":
            code = _cmd_optimize(spec, settings, args)
        else:
            code = _cmd_validate(spec)
        sys.stdout.flush()      # a deferred write error surfaces here
        return code
    except OSError as exc:      # stdout is a closed pipe, a full device, ...
        # Shutdown flushes stdout again; devnull keeps that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, InvalidSpecError) as exc:
        for line in exc.diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (SmallAngleError, FrameSingularError, ThermalSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
