"""Golden outputs: the default-grid sweeps and the report commands must
reproduce the committed files in ``tests/golden`` byte for byte.

A refactor of the numerical pipeline that moves a single output bit far
enough to change a printed digit fails here.  Regenerate a file only for
a deliberate change of behaviour, with the drift stated alongside it.
"""

from pathlib import Path

import pytest

from thermoact.cli import main
from thermoact.study import PARAMETERS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_default_sweep_matches_golden(tmp_path, parameter):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    assert main(["sweep", "--param", parameter, "--out", str(csv_path),
                 "--svg", str(svg_path)]) == 0
    assert csv_path.read_bytes() == (GOLDEN / f"sweep_{parameter}.csv").read_bytes()
    assert svg_path.read_bytes() == (GOLDEN / f"sweep_{parameter}.svg").read_bytes()


# The evenly spaced built-in grids as explicit ranges, in display units.
RANGES = {"ratio": ("0.1", "0.8", "71"), "voltage": ("0", "8", "17"),
          "gap": ("5", "10", "6")}


@pytest.mark.parametrize("given", ["flags", "config"])
@pytest.mark.parametrize("parameter", sorted(RANGES))
def test_an_explicit_range_reproduces_the_builtin_sweep(tmp_path, parameter, given):
    """The range of a built-in grid, given by --from/--to/--steps or by
    study keys, runs the general path, and its CSV and SVG are the
    built-in sweep's golden files byte for byte."""
    start, stop, steps = RANGES[parameter]
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    argv = ["sweep", "--param", parameter, "--out", str(csv_path), "--svg", str(svg_path)]
    if given == "flags":
        argv += ["--from", start, "--to", stop, "--steps", steps]
    else:
        config = tmp_path / "range.cfg"
        config.write_text(f"study.start = {start}\nstudy.stop = {stop}\n"
                          f"study.steps = {steps}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 0
    assert csv_path.read_bytes() == (GOLDEN / f"sweep_{parameter}.csv").read_bytes()
    assert svg_path.read_bytes() == (GOLDEN / f"sweep_{parameter}.svg").read_bytes()


# Each report's arguments and golden file.  validate at a convection
# coefficient of 5000 W/(m^2 C) prints a thermal error that measures the
# closed form against the FD field, not rounding as the conduction-only
# device's does.
REPORTS = {"simulate": ["simulate"], "optimize-ratio": ["optimize-ratio"],
           "validate": ["validate"],
           "validate-convection-5000": ["validate", "--config",
                                        str(GOLDEN / "convection-5000.cfg")]}


@pytest.mark.parametrize("report", list(REPORTS))
def test_report_matches_golden(capsys, report):
    code = main(REPORTS[report])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{report}.stdout").read_text(encoding="utf-8")
