"""The four workloads: seeded input generators, the timed op, and the
untimed output checks.

Every input comes from ``numpy.random.default_rng([seed, stream, ...])``,
so a seed fixes the inputs and the program only sees what the generator
made.  Streams keep the warm-up, untraced and traced phases of one run
from sharing any work.

A workload exposes ``input(i)`` (untimed), ``run(x)`` (the timed op),
``keep(i, x, out)`` (untimed bookkeeping) and ``check()`` (after the
timed phase).  ``points`` counts the operating points the timed ops ask
for: one per single-point op, the grid, golden-section refinement and
sweep values of a design task, and what each CLI invocation asks for.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from thermoact import config, model, output, study, thermomech

STREAM_TIMED, STREAM_WARM, STREAM_TRACED, STREAM_CHECK = range(4)

CONVECTION = (0.0, 50.0, 500.0, 5000.0)
BLOCK = 4096
# The default-grid sweeps a designer runs on one base spec.
SWEEPS = ("ratio", "gap", "voltage", "hot_arm_length")
OPTIMIZE_GRIDS = (31, 71, 151)


def point_block(seed, stream, block):
    """Single-point inputs ``block * BLOCK`` onward as (hot arm um, ratio,
    gap um, volts, convection W/m^2K) tuples.  About 2 % of them rotate
    past the small-angle limit."""
    rng = np.random.default_rng([seed, stream, block])
    cols = (rng.uniform(300.0, 1000.0, BLOCK), rng.uniform(0.1, 0.8, BLOCK),
            rng.uniform(2.0, 10.0, BLOCK), rng.uniform(0.0, 10.0, BLOCK),
            rng.choice(CONVECTION, BLOCK))
    return list(zip(*(c.tolist() for c in cols)))


def point_spec(point):
    hot, ratio, gap, volts, convection = point
    return model.ActuatorSpec(
        environment=model.Environment(convection_coefficient=convection),
        geometry=model.Geometry(hot_arm_length=hot * 1e-6,
                                cold_arm_length=ratio * hot * 1e-6,
                                gap=gap * 1e-6),
        drive=model.Drive(voltage=volts))


def sample(rng, items, k):
    if len(items) <= k:
        return list(items)
    return [items[j] for j in sorted(rng.choice(len(items), k, replace=False))]


class Workload:
    count_ops = 1     # traced ops over which the counts are taken
    warm_ops = 1
    # The tail percentile, fixed per workload so that its meaning does
    # not change with the op count: the highest of 50, 60, 75, 90, 95,
    # 99 and 99.9 that leaves at least 10 ops beyond it in a run of
    # run_seconds at the commit that defined the benchmark, and no higher
    # than p95, because p99 and above follow the host's preemptions and
    # spread past the bound over ten seeds.
    tail_pct = 50.0
    # ops per group in which the tail is taken, about a third of a second
    # (single-point) or half a second (cross-validate) at that commit, so that
    # the tenth percentile of the groups' tails leaves out bursts of load
    # on the host; None takes the whole run as one group
    tail_group = None
    # a run ends on a multiple of this many ops, so that every run has
    # the same mix of op kinds
    cycle = 1
    # ops per block in a traced run, where untraced and traced blocks
    # alternate; about a quarter second of ops
    trace_block = 1

    def __init__(self, seed, stream, workdir, src, traced=False):
        self.seed = seed
        self.stream = stream
        self.workdir = workdir
        self.src = src
        self.traced = traced
        self.ops = 0
        self.points = 0
        self.failures: list[str] = []   # one entry per failed op or check
        self.checked = 0                # check items beyond the timed ops
        self.span_parts = []            # spans traced in child processes
        self.rng = np.random.default_rng([seed, STREAM_CHECK, stream])

    def fail(self, what, problems):
        self.failures.extend(f"{what}: {p}" for p in problems)
        return bool(problems)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def known_defects(self):
        return 0, []


class SinglePoint(Workload):
    """One caller; each op builds a fresh spec and simulates it."""

    count_ops = 1000
    warm_ops = 300
    tail_pct = 95.0
    tail_group = 1000
    trace_block = 500

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._block = (-1, None)
        # ops of the first block only, the pool the oracle and law
        # samples come from: memory must not grow with the op count
        self.solved: list[int] = []
        self.refused: list[int] = []

    def input(self, i):
        block, points = self._block
        if block != i // BLOCK:
            points = point_block(self.seed, self.stream, i // BLOCK)
            self._block = (i // BLOCK, points)
        return points[i % BLOCK]

    def spec(self, i):
        return point_spec(self.input(i))

    def run(self, point):
        spec = point_spec(point)
        try:
            return thermomech.simulate(spec)
        except thermomech.SmallAngleError:
            return None

    def keep(self, i, point, sol):
        self.points += 1
        if isinstance(sol, Exception):
            self.fail(f"point {i}", [repr(sol)])
        elif sol is None:
            if i < BLOCK:
                self.refused.append(i)
        elif checks.nonfinite((sol.tip_deflection, sol.junction_deflection,
                               sol.junction_rotation, sol.peak_temperature,
                               sol.thermal_load.hot_elongation,
                               sol.thermal_load.cold_elongation)):
            self.fail(f"point {i}", ["non-finite result"])
        elif i < BLOCK:
            self.solved.append(i)

    def check(self):
        for i in sample(self.rng, self.solved, 12) + sample(self.rng, self.refused, 8):
            self.checked += 1
            self.fail(f"point {i} vs oracles", checks.oracle_failures(self.spec(i)))
        self.check_laws(self.solved)

    def check_laws(self, ops):
        for i in sample(self.rng, ops, 3):
            self.checked += 1
            self.fail(f"point {i} laws", checks.law_failures(self.spec(i)))


class CrossValidate(SinglePoint):
    """Each op compares one single-point input with both oracles, as
    ``thermoact validate`` does."""

    count_ops = 100
    warm_ops = 20
    tail_pct = 90.0
    tail_group = 100
    trace_block = 50

    def run(self, point):
        return checks.oracle_failures(point_spec(point))

    def keep(self, i, point, problems):
        self.points += 1
        if isinstance(problems, Exception):
            problems = [repr(problems)]
        if not self.fail(f"point {i} vs oracles", problems) and i < BLOCK:
            self.solved.append(i)

    def check(self):
        self.check_laws(self.solved)


class DesignStudy(Workload):
    """Each op is one designer task on a seeded base spec: find the best
    length ratio, run the four default-grid sweeps, render CSV and SVG."""

    count_ops = 6
    warm_ops = 1
    tail_pct = 95.0
    cycle = len(OPTIMIZE_GRIDS)
    trace_block = len(OPTIMIZE_GRIDS)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept = []

    def input(self, i):
        # Base specs stay where every default-grid sweep point is inside
        # the small-angle limit, so no task is refused.
        rng = np.random.default_rng([self.seed, self.stream, i])
        hot = rng.uniform(400.0, 700.0)
        base = model.ActuatorSpec(
            environment=model.Environment(
                convection_coefficient=float(rng.choice(CONVECTION))),
            geometry=model.Geometry(
                hot_arm_length=hot * 1e-6,
                cold_arm_length=rng.uniform(0.3, 0.6) * hot * 1e-6,
                gap=rng.uniform(4.0, 8.0) * 1e-6),
            drive=model.Drive(voltage=rng.uniform(2.0, 7.0)))
        return base, OPTIMIZE_GRIDS[i % len(OPTIMIZE_GRIDS)]

    def run(self, task):
        base, grid = task
        report = study.find_optimal_ratio(base, grid=grid)
        sweeps = []
        for name in SWEEPS:
            param, values = config.resolve_sweep(config.StudySettings(),
                                                 parameter=name)
            table = checks.sweep_table(base, param, values)
            sweeps.append((param, table, output.sweep_csv(table),
                           output.sweep_chart_svg(table)))
        return report, sweeps

    def keep(self, i, task, out):
        """Checks the task's outputs at once (a fraction of a millisecond,
        outside the op's clock) and keeps the first few for the oracle
        and law samples, so memory does not grow with the op count."""
        if isinstance(out, Exception):
            self.fail(f"task {i}", [repr(out)])
            return
        report, sweeps = out
        self.points += checks.optimum_points(report) + sum(
            len(table.records) for _, table, _, _ in sweeps)
        problems = []
        if checks.nonfinite((report.optimal_ratio, report.optimal_tip_deflection)) \
                or not 0.1 <= report.optimal_ratio <= 0.8:
            problems.append(f"optimum {report} is out of range")
        ratio_table = sweeps[SWEEPS.index("ratio")][1]
        ratio_tips = [r.tip_deflection for r in ratio_table.records]
        if report.flag is None and \
                report.optimal_tip_deflection < max(ratio_tips) * (1 - 1e-6):
            problems.append("optimum is below the best point of the ratio sweep")
        for sweep in sweeps:
            problems += checks.sweep_failures(*sweep)
        if not self.fail(f"task {i}", problems) and len(self.kept) < 12:
            self.kept.append((i, task[0], report, sweeps))

    def check(self):
        for i, base, report, sweeps in sample(self.rng, self.kept, 6):
            param, table = sweeps[int(self.rng.integers(len(sweeps)))][:2]
            rec = table.records[int(self.rng.integers(len(table.records)))]
            spec = study.apply_parameter(base, param, rec.value)
            self.checked += 1
            self.fail(f"task {i} {param} = {rec.value!r} vs oracles",
                      checks.oracle_failures(spec, (rec.tip_deflection,
                                                    rec.junction_deflection,
                                                    rec.junction_rotation)))
        for i, base, _, _ in sample(self.rng, self.kept, 2):
            self.checked += 1
            self.fail(f"task {i} laws", checks.law_failures(base))


# Config keys the computation reads.  Fixed here, not taken from the
# program, so that a seed's inputs do not change with the program.
FLOAT_KEYS = ("material.young_modulus", "material.thermal_conductivity",
              "material.expansion_coefficient", "material.resistivity",
              "environment.convection_coefficient",
              "environment.ambient_temperature", "geometry.hot_arm_length",
              "geometry.cold_arm_length", "geometry.gap", "geometry.beam_width",
              "geometry.beam_thickness", "geometry.extension_length",
              "drive.voltage")
MALFORMED = ("geometry.gap 5", "drive.voltage = 8 V", "geometry.length = 5",
             "drive.voltage = 4\ndrive.voltage = 5", "study.steps = 2.5")
OUT_OF_RANGE = ("geometry.gap = -3", "geometry.beam_width = 0",
                "environment.ambient_temperature = -300", "drive.voltage = -2",
                "material.thermal_conductivity = 0", "study.optimize_grid = 2",
                "geometry.hot_arm_length = 300\ngeometry.cold_arm_length = 400")
BAD_FLAGS = (("simulate", ["--voltage", "-3"]),
             ("sweep", ["--param", "gap", "--from", "9", "--to", "5", "--steps", "4"]),
             ("sweep", ["--param", "voltage", "--from", "1", "--to", "5"]))
# Seeded start and stop ranges (display units) of a sweep given by
# flags or study keys; the step count is the default grid's, so that a
# sweep solves the same number of points however its range is given.
SWEEP_RANGES = {"voltage": ((0.0, 2.0), (5.0, 8.0), 17),
                "ratio": ((0.1, 0.3), (0.5, 0.8), 71),
                "gap": ((4.0, 5.0), (8.0, 10.0), 6),
                "hot_arm_length": ((400.0, 450.0), (650.0, 700.0), 3)}
# One cycle of cli-session cases.  No usage data exists for the CLI, so
# every command kind has an equal share: four each of simulate, sweep
# (one per parameter), optimize-ratio (grid 31, 71 and 151 by flag or
# study key, and the config default) and validate, plus a fixed fifth
# of invalid input, one case of each kind the CLI must refuse.  Every
# other choice within a case is also an equal share.  Runs end on a
# whole cycle, so every run has the same mix and about the same number
# of points per op.
OPTIMIZE_CASES = (*OPTIMIZE_GRIDS, None)
INVALID = ("malformed", "out-of-range", "non-finite", "overdriven")
CLI_CYCLE = tuple(
    case for j in range(4)
    for case in (("simulate", j % 2 == 0), ("sweep", SWEEPS[j]),
                 ("optimize-ratio", OPTIMIZE_CASES[j]), ("validate", None),
                 (INVALID[j], None)))


def _set(lines, text):
    """Replace the lines that set any key of ``text`` by ``text``."""
    keys = {ln.split("=")[0].strip() for ln in text.splitlines()}
    return [ln for ln in lines if ln.split("=")[0].strip() not in keys] + [text]


def cli_case(seed, stream, i):
    """(command, flags, config text, declared exit code) of CLI case i."""
    rng = np.random.default_rng([seed, stream, i])
    kind, detail = CLI_CYCLE[i % len(CLI_CYCLE)]
    hot = round(rng.uniform(400.0, 700.0), 1)
    lines = [f"geometry.hot_arm_length = {hot!r}",
             f"geometry.cold_arm_length = {round(hot * rng.uniform(0.3, 0.6), 1)!r}",
             f"geometry.gap = {round(rng.uniform(4.0, 8.0), 2)!r}",
             f"drive.voltage = {round(rng.uniform(1.0, 7.0), 3)!r}",
             f"environment.convection_coefficient = {float(rng.choice(CONVECTION))!r}"]
    if rng.random() < 0.5:
        lines.append(f"environment.ambient_temperature = {round(rng.uniform(0, 40), 1)!r}")
    if rng.random() < 0.5:
        lines.append(f"material.young_modulus = {round(rng.uniform(150, 170), 1)!r}e9")
    command, flags, code = kind, [], 0
    if kind == "simulate" and detail:
        flags = ["--voltage", repr(round(rng.uniform(1.0, 7.0), 3))]
    elif kind == "sweep":
        (lo0, lo1), (hi0, hi1), steps = SWEEP_RANGES[detail]
        start, stop = round(rng.uniform(lo0, lo1), 3), round(rng.uniform(hi0, hi1), 3)
        how = int(rng.integers(3))
        if how == 0:
            flags = ["--param", detail]
        elif how == 1:
            flags = ["--param", detail, "--from", repr(start), "--to", repr(stop),
                     "--steps", str(steps)]
        else:
            lines += [f"study.parameter = {detail}", f"study.start = {start!r}",
                      f"study.stop = {stop!r}", f"study.steps = {steps}"]
        flags += ["--out", "out.csv", "--svg", "chart.svg"]
    elif kind == "optimize-ratio" and detail is not None:
        if rng.random() < 0.5:
            flags = ["--grid", str(detail)]
        else:
            lines.append(f"study.optimize_grid = {detail}")
    elif kind in ("malformed", "out-of-range", "non-finite"):
        code = 1
        command = str(rng.choice(("simulate", "sweep", "optimize-ratio", "validate")))
        if kind == "malformed":
            lines = _set(lines, str(rng.choice(MALFORMED)))
        elif kind == "non-finite":
            value = str(rng.choice(("nan", "-inf")))
            lines = _set(lines, f"{rng.choice(FLOAT_KEYS)} = {value}")
        elif rng.random() < 0.5:
            lines = _set(lines, str(rng.choice(OUT_OF_RANGE)))
        else:
            command, flags = BAD_FLAGS[int(rng.integers(len(BAD_FLAGS)))]
    elif kind == "overdriven":
        code = 2
        command = str(rng.choice(("simulate", "validate")))
        # 120 V turns even the stiffest generated frame past 0.2 rad
        lines = _set(lines, f"drive.voltage = {round(rng.uniform(120.0, 200.0), 2)!r}")
    return command, flags, "\n".join(lines) + "\n", code


def _flag_options(flags):
    """CLI flags as the keyword options ``checks.expected_cli`` takes."""
    names = {"--voltage": ("voltage", float), "--param": ("param", str),
             "--from": ("start", float), "--to": ("stop", float),
             "--steps": ("steps", int), "--grid": ("grid", int),
             "--out": ("out", str), "--svg": ("svg", str)}
    return {names[f][0]: names[f][1](v) for f, v in zip(flags[::2], flags[1::2])}


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, cwd, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one process to its end: (exit code, seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class CliSession(Workload):
    """One ``thermoact`` process at a time on seeded config files."""

    count_ops = len(CLI_CYCLE)
    warm_ops = 1
    tail_pct = 75.0
    cycle = len(CLI_CYCLE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = child_env(self.src)
        self.kept = []
        self.child_rss = 0.0

    def input(self, i):
        command, flags, text, code = cli_case(self.seed, self.stream, i)
        case_dir = self.workdir / f"case-{self.stream}-{i}"
        case_dir.mkdir()
        (case_dir / "actuator.cfg").write_text(text, encoding="utf-8")
        if self.traced:
            program = [sys.executable, str(Path(__file__).with_name("trace_child.py")),
                       "spans.npz"]
        else:
            program = [sys.executable, "-m", "thermoact.cli"]
        argv = program + [command, "--config", "actuator.cfg", *flags]
        return case_dir, argv, (command, flags, text, code)

    def run(self, x):
        case_dir, argv, _ = x
        with open(case_dir / "stdout", "wb") as out, open(case_dir / "stderr", "wb") as err:
            code, _, rss = spawn(argv, case_dir, self.env, out, err)
        return code, rss

    def keep(self, i, x, out):
        case_dir, _, case = x
        if isinstance(out, Exception):
            self.fail(f"case {i}", [repr(out)])
        else:
            code, rss = out
            self.child_rss = max(self.child_rss, rss)
            files = {p.name: p.read_text(encoding="utf-8")
                     for p in case_dir.iterdir() if p.suffix in (".csv", ".svg")}
            stdout = (case_dir / "stdout").read_text(encoding="utf-8")
            stderr = (case_dir / "stderr").read_text(encoding="utf-8")
            self.kept.append((i, case, code, stdout, stderr, files))
            spans = case_dir / "spans.npz"
            if spans.exists():
                names, cols = tracer.load(spans)
                cols["op"][:] = i
                self.span_parts.append((names, cols))
        shutil.rmtree(case_dir)

    def peak_rss_mb(self):
        return self.child_rss

    def check(self):
        for i, (command, flags, text, declared), code, stdout, stderr, files in self.kept:
            expected = checks.expected_cli(command, _flag_options(flags), text)
            self.points += expected.points
            self.fail(f"case {i} ({command} {' '.join(flags)})",
                      checks.cli_failures(expected, declared, code, stdout,
                                          stderr, files))

    def known_defects(self):
        """A config that sets one field to +inf must exit 1 without a
        traceback.  Most such configs fail when this benchmark is
        written; each of those is pinned with how it fails then, and is
        reported apart from ``failures`` while it still fails that way,
        so that a run on the program as it is stays clean.  A case that
        starts to fail, or fails another way, is a failure.  Returns
        (cases run, known defects seen)."""
        names = []
        path = self.workdir / "known-defect.cfg"
        for key in FLOAT_KEYS:
            path.write_text(f"{key} = inf\n", encoding="utf-8")
            code, _, stderr = checks.run_main(["simulate", "--config", str(path)])
            traceback = "Traceback" in stderr
            if code == 1 and not traceback:
                continue
            raised = stderr.strip().splitlines()[-1].split(":")[0] if traceback else None
            outcome = f"{key} = inf: exit {code}" + (f", {raised} traceback"
                                                     if traceback else "")
            if KNOWN_INF_DEFECTS.get(key) == (code, raised):
                names.append(outcome)
            else:
                self.fail("+inf config", [outcome])
        return len(FLOAT_KEYS), names


# How each +inf config failed at the commit that defined the benchmark:
# key -> (exit code, exception shown in a traceback or None).
KNOWN_INF_DEFECTS = {
    "material.young_modulus": (2, None),
    "material.thermal_conductivity": (0, None),
    "material.expansion_coefficient": (1, "ValueError"),
    "material.resistivity": (1, "ValueError"),
    "environment.convection_coefficient": (1, "ValueError"),
    "environment.ambient_temperature": (0, None),
    "geometry.hot_arm_length": (2, None),
    "geometry.gap": (2, None),
    "geometry.beam_width": (2, None),
    "geometry.beam_thickness": (2, None),
    "geometry.extension_length": (0, None),
    "drive.voltage": (1, "ValueError"),
}


WORKLOADS = {"single-point": SinglePoint, "design-study": DesignStudy,
             "cli-session": CliSession, "cross-validate": CrossValidate}
