import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import thermoact.cli as cli
import thermoact.study as study
import thermoact.thermomech as thermomech
from thermoact.cli import main
from thermoact.config import MAX_GRID_POINTS
from thermoact.model import default_spec
from thermoact.thermomech import StiffnessResult, simulate

GOLDEN = Path(__file__).parent / "golden"


def test_simulate_reports_the_default_point(capsys):
    assert main(["simulate"]) == 0
    out = capsys.readouterr().out
    tip = simulate(default_spec()).tip_deflection / 1.0e-6
    assert f"tip_deflection = {tip:.9g} um" in out
    for name in ("junction_deflection", "junction_rotation", "hot_elongation",
                 "cold_elongation", "peak_temperature"):
        assert name in out


def test_simulate_accepts_a_voltage_override(capsys):
    assert main(["simulate", "--voltage", "0"]) == 0
    out = capsys.readouterr().out
    assert "tip_deflection = 0 um" in out


def test_simulate_writes_an_optional_csv(tmp_path, capsys):
    out_path = tmp_path / "point.csv"
    assert main(["simulate", "--out", str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("param_name,")
    assert len(lines) == 2
    assert lines[1].startswith("voltage,8,")


def test_simulate_with_a_csv_solves_the_point_once(tmp_path, monkeypatch, capsys):
    calls = []
    kernel = thermomech._solve_point

    def counting(*point):
        calls.append(point)
        return kernel(*point)

    monkeypatch.setattr(study, "_solve_point", counting)
    monkeypatch.setattr(thermomech, "_solve_point", counting)
    assert main(["simulate", "--out", str(tmp_path / "p.csv")]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "simulate.stdout").read_text(encoding="utf-8")
    assert len(calls) == 1


def test_config_file_feeds_the_simulation(tmp_path, capsys):
    cfg = tmp_path / "actuator.cfg"
    cfg.write_text("drive.voltage = 4\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    quarter = simulate(default_spec()).tip_deflection / 4.0 / 1.0e-6
    assert f"tip_deflection = {quarter:.9g} um" in out


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"drive.voltage = 8\xff\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot read config: ")


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    text = "geometry.hot_arm_length = 600\ndrive.voltage = 6\n"
    plain = tmp_path / "plain.cfg"
    marked = tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["simulate", "--config", str(plain)]) == 0
    expected = capsys.readouterr()
    assert main(["simulate", "--config", str(marked)]) == 0
    assert capsys.readouterr() == expected
    assert expected.out != (GOLDEN / "simulate.stdout").read_text(encoding="utf-8")


def test_bad_config_contents_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometry.hot_arm_length = 300\n"
                   "geometry.cold_arm_length = 400\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "cold_arm_length exceeds hot_arm_length" in err


def test_bad_voltage_override_exits_one(capsys):
    assert main(["simulate", "--voltage", "-3"]) == 1
    assert capsys.readouterr().err == "error: voltage must be non-negative\n"


@pytest.mark.parametrize("key", ["material.young_modulus",
                                 "material.thermal_conductivity",
                                 "environment.ambient_temperature",
                                 "geometry.extension_length", "drive.voltage"])
def test_infinite_config_value_is_a_config_error(tmp_path, capsys, key):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"{key} = inf\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key.split('.')[1]} must be finite\n"


@pytest.mark.parametrize("args,needle", [
    (["optimize-ratio", "--grid", "2"], "--grid must be at least 3"),
    (["optimize-ratio", "--grid", "-1"], "--grid must be at least 3"),
    (["simulate", "--out", "{missing}/x.csv"], "cannot write output"),
    (["sweep", "--param", "gap", "--out", "{missing}/s.csv"], "cannot write output"),
    (["sweep", "--param", "gap", "--svg", "{missing}/s.svg"], "cannot write output"),
    (["optimize-ratio", "--grid", str(MAX_GRID_POINTS + 1)],
     f"--grid must be at most {MAX_GRID_POINTS}"),
    (["sweep", "--from", "0.1", "--to", "0.8", "--steps", str(MAX_GRID_POINTS + 1)],
     f"sweep needs at most {MAX_GRID_POINTS} steps"),
    (["sweep", "--param", "voltage", "--from", "1", "--to", "1.0000000000000002",
      "--steps", "5"], "does not give strictly increasing finite values"),
    (["sweep", "--param", "gap", "--from", "5", "--to", "1e400", "--steps", "3"],
     "sweep stop must be finite"),
], ids=["grid-2", "grid-negative", "simulate-out", "sweep-out", "sweep-svg",
        "grid-over-cap", "steps-over-cap", "sweep-too-narrow", "sweep-to-inf"])
def test_bad_command_line_is_one_error_line(tmp_path, capsys, args, needle):
    args = [a.format(missing=tmp_path / "missing") for a in args]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("args,last_line", [
    (["optimize-ratio", "--grid", "x"],
     "thermoact optimize-ratio: error: argument --grid: invalid int value: 'x'"),
    (["simulate", "--voltage", "abc"],
     "thermoact simulate: error: argument --voltage: invalid float value: 'abc'"),
    (["sweep", "--param", "foo"],
     "thermoact sweep: error: argument --param: invalid choice: 'foo' "
     "(choose from 'voltage', 'ratio', 'gap', 'hot_arm_length')"),
    (["frobnicate"],
     "thermoact: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'simulate', 'sweep', 'optimize-ratio', 'validate')"),
    ([], "thermoact: error: the following arguments are required: command"),
], ids=["grid-not-int", "voltage-not-float", "unknown-param", "unknown-command",
        "missing-command"])
def test_malformed_command_line_exits_one(capsys, args, last_line):
    """argparse's usage and message, with the configuration exit code:
    2 is kept for a tripped solver guard."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: thermoact")
    assert err[-1] == last_line


def test_help_exits_zero(capsys):
    for args in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: thermoact")


def test_a_sweep_range_that_overflows_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("study.parameter = voltage\nstudy.start = -1e308\n"
                   "study.stop = 1e308\nstudy.steps = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sweep from -1e+308 to 1e+308 in 3 steps "
                            "does not give strictly increasing finite values\n")


# Accepted configs whose thermal load is not finite: an overflowing
# Joule source, and a decay parameter that overflows to give nan.
NON_FINITE_LOADS = {"infinite-load": "drive.voltage = 1e200",
                    "nan-load": "environment.convection_coefficient = 1e308"}

# One accepted config for each place where the arithmetic of a stage
# leaves the float range, the command that reaches it, and its named
# refusal.  The closed form refuses the first three in every command;
# ``validate``'s oracles refuse the next four on devices that
# ``simulate`` solves (equal arms or no drive, which leave the frame at
# rest).  The last is a frame whose junction rotation overflows, which
# is no small-angle breach.
RANGE_REFUSALS = {
    "fin-current": ("simulate", "material.resistivity = 1e-322",
                    "fin resistivity times path length underflows"),
    "zero-conductivity": ("simulate", "material.thermal_conductivity = 1e-320",
                          "fin conduction term k w h underflows"),
    "fin-cube": ("simulate", "environment.convection_coefficient = 0\n"
                 "geometry.hot_arm_length = 1e109",
                 "fin path coordinate cubed overflows"),
    "fd-section": ("validate", "material.thermal_conductivity = 1e300\n"
                   "geometry.beam_width = 1e-154\ngeometry.beam_thickness = 1e-164\n"
                   "drive.voltage = 0",
                   "finite-difference cross-section w h underflows"),
    "fd-spacing-overflow": ("validate", "geometry.hot_arm_length = 1e164\n"
                            "geometry.cold_arm_length = 1e164",
                            "finite-difference node spacing squared leaves the float range"),
    "fd-spacing-underflow": ("validate", "geometry.hot_arm_length = 1e-154\n"
                             "geometry.cold_arm_length = 1e-154\ngeometry.gap = 1e-154\n"
                             "drive.voltage = 0",
                             "finite-difference node spacing squared leaves the float range"),
    "stiffness-width": ("validate", "geometry.beam_width = 1e110\ndrive.voltage = 0",
                        "stiffness beam width cubed overflows"),
    "junction-rotation": ("simulate", "material.expansion_coefficient = 1e200\n"
                          "geometry.hot_arm_length = 3e-20\n"
                          "geometry.cold_arm_length = 2e-25\ngeometry.gap = 3e-8\n"
                          "drive.voltage = 1e60", "junction rotation overflows"),
}


@pytest.mark.parametrize("command,line,message", [
    ("simulate", "geometry.beam_width = 1e200",
     "error: frame gain is out of the float range\n"),
    ("simulate", "geometry.beam_width = 1e-300", None),
    ("simulate", NON_FINITE_LOADS["infinite-load"],
     "error: thermal load is not finite"),
    ("simulate", NON_FINITE_LOADS["nan-load"], "error: thermal load is not finite"),
    ("validate", NON_FINITE_LOADS["infinite-load"],
     "error: thermal load is not finite"),
    ("validate", NON_FINITE_LOADS["nan-load"], "error: thermal load is not finite"),
    ("simulate", "drive.voltage = 1e-154", "error: junction response underflows\n"),
    ("simulate", "material.young_modulus = 1e300\ngeometry.beam_thickness = 1e25",
     "error: redundants are not finite\n"),
] + [(command, line, f"error: {message}\n")
     for command, line, message in RANGE_REFUSALS.values()],
    ids=["overflow", "zero-width", "infinite-load", "nan-load", "infinite-load-validate",
         "nan-load-validate", "underflow", "infinite-redundants", *RANGE_REFUSALS])
def test_extreme_accepted_input_is_a_solver_error(tmp_path, capsys, command, line,
                                                  message):
    """Values the validator accepts but the arithmetic cannot carry end
    in one named error line and exit 2, not in a traceback.  A beam so
    thin that its width squared underflows is no such value: its frame
    solves to the limit of no axial compliance and exits 0."""
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(line + "\n")
    if message is None:
        assert main([command, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("tip_deflection = ")
        return
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)


def test_overdrive_trips_the_rotation_guard(capsys):
    assert main(["simulate", "--voltage", "16"]) == 2
    assert "small-angle" in capsys.readouterr().err


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--param", "gap"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("param_name,")
    assert len(lines) == 7
    assert lines[1].startswith("gap,5,")
    assert lines[-1].startswith("gap,10,")


def test_sweep_writes_files_deterministically(tmp_path, capsys):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    args = ["sweep", "--param", "voltage", "--from", "0", "--to", "8",
            "--steps", "5"]
    assert main(args + ["--out", str(csv_a), "--svg", str(svg_a)]) == 0
    assert main(args + ["--out", str(csv_b), "--svg", str(svg_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert csv_a.read_text().splitlines()[1] == \
        "voltage,0,0,0,0,0,0," + format(20.0, ".9g")


def test_sweep_rejects_partial_ranges(capsys):
    assert main(["sweep", "--param", "gap", "--from", "5"]) == 1
    assert "missing" in capsys.readouterr().err


def test_sweep_aborts_on_an_invalid_induced_point(tmp_path, capsys):
    assert main(["sweep", "--param", "ratio", "--from", "0.5", "--to", "1.5",
                 "--steps", "3"]) == 1
    err = capsys.readouterr().err
    assert "cold_arm_length exceeds hot_arm_length" in err


def test_optimize_ratio_emits_a_machine_readable_line(capsys):
    assert main(["optimize-ratio", "--grid", "31"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("optimal_ratio="))
    ratio = float(line.partition("=")[2])
    assert 0.40 <= ratio <= 0.52
    assert "gain_over_range" in out
    assert "grid_resolution = 31" in out


def test_optimize_ratio_refuses_the_scan_when_one_grid_ratio_is_refused(
        tmp_path, capsys):
    """At 10 V the base ratio solves, but the low grid ratios rotate the
    junction past 0.1 rad, and the whole scan ends in exit 2."""
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("drive.voltage = 10\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["optimize-ratio", "--config", str(cfg), "--grid", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: junction rotation 0.1098 rad exceeds the small-angle limit 0.1"]


def test_optimize_ratio_warns_on_a_flat_objective(tmp_path, capsys):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("drive.voltage = 0\n")
    assert main(["optimize-ratio", "--config", str(cfg), "--grid", "11"]) == 0
    captured = capsys.readouterr()
    assert "flat" in captured.err
    assert "optimal_ratio=" in captured.out
    assert "gain_over_range = 1" in captured.out.splitlines()


def test_validate_passes_on_the_default_device(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "thermal_max_rel_error" in out
    assert "mechanical_max_rel_error" in out
    assert "validation ok" in out


def test_validate_flags_a_broken_oracle(monkeypatch, capsys):
    """Force a disagreement to prove breaches surface as exit code 3."""
    real = cli.stiffness_oracle

    def skewed(spec, elements_per_member=64):
        result = real(spec, elements_per_member)
        import dataclasses
        return dataclasses.replace(
            result, tip_deflection=result.tip_deflection * 1.10)

    monkeypatch.setattr(cli, "stiffness_oracle", skewed)
    assert main(["validate"]) == 3
    err = capsys.readouterr().err
    assert "validation breach" in err
    assert "mechanical" in err


def test_validate_flags_a_thermal_breach(monkeypatch, capsys):
    real = cli.fd_temperature_oracle

    def off_by_one_percent(spec, nodes):
        xs, temps = real(spec, nodes=nodes)
        ambient = spec.environment.ambient_temperature
        return xs, ambient + (temps - ambient) * 1.01

    monkeypatch.setattr(cli, "fd_temperature_oracle", off_by_one_percent)
    assert main(["validate"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("thermal_max_rel_error = 9.9")
    assert re.fullmatch(r"validation breach: thermal error 9\.9\d\de-03 "
                        r"exceeds 1e-03\n", captured.err)


def test_validate_flags_an_oracle_that_does_not_move(monkeypatch, capsys):
    """An oracle reading zero where the closed form does not is an
    infinite relative error, not a pass."""
    def still(spec, elements_per_member=64):
        return StiffnessResult(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                               elements_per_member)

    monkeypatch.setattr(cli, "stiffness_oracle", still)
    assert main(["validate"]) == 3
    captured = capsys.readouterr()
    assert "mechanical_max_rel_error = inf (limit 2e-02)\n" in captured.out
    assert captured.err == \
        "validation breach: mechanical error inf exceeds 2e-02\n"


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


def test_only_the_oracles_import_scipy(tmp_path):
    """Importing the CLI, simulating, sweeping, optimising and refusing
    a bad config load neither numpy nor scipy; the oracles behind
    ``validate`` load both on first use, but only scipy's compiled
    LAPACK wrappers ``scipy.linalg._flapack``: not the ``scipy.linalg``
    package, its array-API layer or ``scipy.sparse``.  A later import of
    ``scipy.linalg.lapack`` re-exports the very routines the oracles
    called."""
    script = (
        "import sys\n"
        "from thermoact.cli import main\n"
        "assert main(['simulate']) == 0\n"
        "assert main(['sweep', '--param', 'gap']) == 0\n"
        "assert main(['optimize-ratio', '--grid', '5']) == 0\n"
        "assert main(['simulate', '--voltage', '-3']) == 1\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not loaded, loaded\n"
        "assert main(['validate']) == 0\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "heavy = sorted(m for m in sys.modules if m in ('scipy.linalg', 'scipy.sparse')\n"
        "               or m.startswith('scipy._lib._array_api'))\n"
        "assert not heavy, heavy\n"
        "from thermoact.electrothermal import _lapack\n"
        "flapack = _lapack()\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert lapack.dptsv is flapack.dptsv and lapack.dpbsv is flapack.dpbsv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("validation ok\n")


# Accepted configs that only the oracles behind ``validate`` cannot
# carry: k / dx^2 overflows in the finite-difference system, or
# underflows to zero with no side loss and leaves it singular, a cold
# arm below one ulp of the hot arm collapses the stiffness mesh, a
# gap below one ulp of the path collapses the heated spans, and members
# far too short or long for their section take the element stiffness
# out of the float range.  A 10 fm gap leaves the clamped stiffness
# system so ill-conditioned that its band Cholesky meets a non-positive
# pivot.  A 1 m thick slab at E = 2e303 has finite element stiffness
# whose sum in one band entry overflows.  Arms far shorter than the gap
# put the frame gain itself out of the float range, so there the closed
# form refuses before the oracles.
_COEFFICIENT = "error: stiffness element has a coefficient that is not " \
    "finite and positive"
ORACLE_REFUSALS = [
    pytest.param("validate", "material.thermal_conductivity = 1e300",
                 "error: finite-difference thermal system is not finite",
                 id="huge-conductivity-validate"),
    pytest.param("validate", "geometry.cold_arm_length = 1e-20",
                 "error: stiffness mesh has an element length that is not "
                 "finite and positive", id="tiny-cold-arm-validate"),
    pytest.param("validate", "geometry.gap = 1e-30",
                 "error: heated element has a path span that is not positive",
                 id="tiny-gap-validate"),
    pytest.param("validate", "geometry.gap = 1e-200", _COEFFICIENT,
                 id="tinier-gap-validate"),
    pytest.param("validate", "geometry.hot_arm_length = 1e-100\n"
                 "geometry.cold_arm_length = 1e-101",
                 "error: frame gain is out of the float range", id="tiny-arms-validate"),
    pytest.param("validate", "geometry.beam_thickness = 1e+300",
                 _COEFFICIENT, id="huge-thickness-validate"),
    pytest.param("validate", "material.thermal_conductivity = 1e-310\n"
                 "environment.convection_coefficient = 0\ndrive.voltage = 0\n"
                 "geometry.hot_arm_length = 1e17\ngeometry.cold_arm_length = 1e16",
                 "error: finite-difference thermal system is singular",
                 id="singular-fd-validate"),
    pytest.param("validate", "geometry.gap = 1e-8",
                 "error: stiffness system did not solve", id="pivot-gap-validate"),
    pytest.param("validate", "material.young_modulus = 2e303\n"
                 "geometry.beam_thickness = 1e6",
                 "error: stiffness band entry overflows", id="band-overflow-validate"),
]


@pytest.mark.parametrize("command,line,message", [
    pytest.param(command, NON_FINITE_LOADS[load],
                 "error: thermal load is not finite", id=f"{load}-{command}")
    for load in sorted(NON_FINITE_LOADS)
    for command in ("simulate", "sweep", "validate")
] + ORACLE_REFUSALS)
def test_a_non_finite_load_is_one_stderr_line_from_the_process(tmp_path, command,
                                                                line, message):
    """The console script's whole stderr is the one error line: no
    warning from the arithmetic and no traceback reaches it.  In-process
    tests cannot see this, because pytest captures warnings."""
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(line + "\n")
    proc = subprocess.run([sys.executable, "-m", "thermoact.cli", command,
                           "--config", str(cfg)], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("line", [
    pytest.param("geometry.extension_length = 1e-200", id="tiny-extension-validate"),
    pytest.param("geometry.extension_length = 1e+300", id="huge-extension-validate"),
])
def test_an_extreme_extension_validates(tmp_path, line):
    """The extension carries no load, so the stiffness oracle does not
    mesh it: an extension far below one ulp of the hot arm, or far too
    long for its section, leaves the frame's oracle as it is, and the
    console script reports ``validation ok`` with nothing on stderr."""
    cfg = tmp_path / "extension.cfg"
    cfg.write_text(line + "\n")
    proc = subprocess.run([sys.executable, "-m", "thermoact.cli", "validate",
                           "--config", str(cfg)], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.endswith("validation ok\n")
    assert proc.stderr == ""


def test_a_stiffness_pivot_failure_is_a_named_solver_error(tmp_path, capsys):
    """In process, with every warning an error: a frame the band
    Cholesky cannot factor ends ``validate`` in exit 2 and its one named
    line, before any report line."""
    cfg = tmp_path / "pivot.cfg"
    cfg.write_text("geometry.gap = 1e-8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stiffness system did not solve\n"


def test_an_overdriven_validate_refuses_before_numpy_loads(tmp_path):
    """``validate`` runs the closed form first, so a point it refuses
    ends in exit 2 without loading numpy or scipy."""
    cfg = tmp_path / "overdriven.cfg"
    cfg.write_text("drive.voltage = 150\n")
    script = (
        "import sys\n"
        "from thermoact.cli import main\n"
        f"assert main(['validate', '--config', {str(cfg)!r}]) == 2\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("error: junction rotation ")
    assert "exceeds the small-angle limit" in proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["simulate"], ["sweep", "--param", "gap"],
                                  ["optimize-ratio", "--grid", "5"]],
                         ids=["simulate", "sweep", "optimize-ratio"])
def test_a_closed_stdout_is_an_unwritable_output(tmp_path, args, buffered):
    """``thermoact sweep | head`` closes the pipe early: one error line
    and exit 1, as for an unwritable ``--out``, and no traceback.  With
    a buffered stdout the write fails only when it is flushed."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "thermoact.cli", *args],
                              cwd=tmp_path, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["simulate"], ["sweep", "--param", "gap"],
                                  ["optimize-ratio", "--grid", "5"], ["validate"]],
                         ids=["simulate", "sweep", "optimize-ratio", "validate"])
def test_a_full_stdout_is_an_unwritable_output(tmp_path, args, buffered):
    """A stdout that refuses a write for another reason than a closed
    pipe, here a full device, ends the same way: one error line and
    exit 1, and no traceback."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "thermoact.cli", *args],
                              cwd=tmp_path, env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
