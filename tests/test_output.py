import ast
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import thermoact.output as output
from thermoact.model import default_spec
from thermoact.output import CSV_COLUMNS, _rows, sweep_chart_svg, sweep_csv
from thermoact.study import (PARAMETERS, SweepPlan, SweepRecord, SweepTable,
                             apply_parameter, run_sweep)

import pytest


@pytest.fixture(scope="module")
def gap_table():
    plan = SweepPlan(base=default_spec(), parameter="gap",
                     values=(5.0e-6, 7.5e-6, 10.0e-6))
    return run_sweep(plan)


def test_csv_header_and_shape(gap_table):
    text = sweep_csv(gap_table)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3
    assert text.endswith("\n")
    assert "\r" not in text


def test_csv_values_are_in_display_units(gap_table):
    rows = [line.split(",") for line in sweep_csv(gap_table).splitlines()[1:]]
    assert [r[0] for r in rows] == ["gap"] * 3
    assert [r[1] for r in rows] == ["5", "7.5", "10"]  # micrometres, not metres
    # nine significant digits, matching the solution it came from
    want = format(gap_table.records[0].tip_deflection / 1.0e-6, ".9g")
    assert rows[0][2] == want
    temp = format(gap_table.records[2].peak_temperature, ".9g")
    assert rows[2][7] == temp


def test_csv_rendering_is_deterministic(gap_table):
    assert sweep_csv(gap_table) == sweep_csv(gap_table)


# Cells a sweep record can hold, beyond any the physics gives.
_ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5.0e-324, -1.0e-310,
               2.2250738585072014e-308, 1.0e308, -1.0e308, 1.7976931348623157e308,
               0.1, 1.0e-6, 123456789.0)


def _writer_csv(table):
    """The sweep CSV as ``csv.writer`` renders it, with quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_rows(table))
    return buf.getvalue()


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_csv_is_what_the_csv_writer_writes(parameter):
    """No parameter name and no ``.9g`` cell needs quoting, so joining
    the cells gives the writer's bytes: on real sweeps, on every odd
    float in every field and on a table with no records."""
    base = default_spec()
    values = {"voltage": (0.0, 8.0), "ratio": (0.1, 0.8), "gap": (2.0e-6, 9.0e-6),
              "hot_arm_length": (3.0e-4, 1.0e-3)}[parameter]
    plan = SweepPlan(base=base, parameter=parameter, values=values)
    n = len(_ODD_FLOATS)
    odd = tuple(SweepRecord(*(_ODD_FLOATS[(i + k) % n] for k in range(7)))
                for i in range(n))
    for records in (run_sweep(plan).records, odd, ()):
        table = SweepTable(plan=plan, records=records)
        assert sweep_csv(table) == _writer_csv(table)


def test_output_does_not_load_the_csv_module():
    """Checked in a fresh interpreter; where start-up itself has loaded
    ``csv``, only the module's own imports are checked."""
    src = Path(output.__file__).parents[1]
    probe = ("import sys; before = 'csv' in sys.modules; import thermoact.output; "
             "print(before, 'csv' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    before, after = proc.stdout.split()
    assert after == before
    tree = ast.parse(Path(output.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"csv", "io"}


def test_chart_basic_structure(gap_table):
    svg = sweep_chart_svg(gap_table)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 1
    assert 'width="800"' in svg and 'height="600"' in svg
    assert "gap [um]" in svg
    assert "tip deflection [um]" in svg
    assert "nan" not in svg


def test_chart_labels_show_the_data_range(gap_table):
    svg = sweep_chart_svg(gap_table)
    tips = [rec.tip_deflection / 1.0e-6 for rec in gap_table.records]
    assert format(min(tips), ".9g") in svg
    assert format(max(tips), ".9g") in svg
    assert ">5<" in svg and ">10<" in svg


def test_chart_is_deterministic(gap_table):
    assert sweep_chart_svg(gap_table) == sweep_chart_svg(gap_table)


def test_chart_survives_degenerate_ranges():
    """A one-value plan has a single x, and an unpowered ratio sweep a
    constant zero response; both ranges are padded."""
    single = SweepPlan(base=default_spec(), parameter="gap", values=(5.0e-6,))
    svg = sweep_chart_svg(run_sweep(single))
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 1
    unpowered = SweepPlan(base=apply_parameter(default_spec(), "voltage", 0.0),
                          parameter="ratio", values=(0.3, 0.4, 0.5))
    svg = sweep_chart_svg(run_sweep(unpowered))
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 1
    # the zero response sits mid-height across the full plot width
    assert 'points="80.00,280.00 428.00,280.00 776.00,280.00"' in svg


def test_voltage_chart_uses_volt_labels():
    plan = SweepPlan(base=default_spec(), parameter="voltage",
                     values=(0.0, 4.0, 8.0))
    svg = sweep_chart_svg(run_sweep(plan))
    assert "voltage [V]" in svg


def test_ratio_chart_label_is_bare():
    plan = SweepPlan(base=default_spec(), parameter="ratio",
                     values=(0.3, 0.5))
    svg = sweep_chart_svg(run_sweep(plan))
    assert ">ratio<" in svg
