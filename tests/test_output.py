import ast
import csv
import io
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import thermoact.output as output
from thermoact.config import _MICRO, DISPLAY_UNITS
from thermoact.model import default_spec
from thermoact.output import CSV_COLUMNS, sweep_chart_svg, sweep_csv
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
    """The sweep CSV as ``csv.writer`` renders it, with quoting, from
    cells formatted here one by one with ``format(v, ".9g")``."""
    param = table.plan.parameter
    scale = DISPLAY_UNITS[param][1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in table.records:
        writer.writerow([param] + [format(v, ".9g") for v in (
            rec.value / scale, rec.tip_deflection / _MICRO,
            rec.junction_deflection / _MICRO, rec.junction_rotation * 1.0e3,
            rec.hot_elongation / _MICRO, rec.cold_elongation / _MICRO,
            rec.peak_temperature)])
    return buf.getvalue()


def _tables(parameter):
    """A real sweep of ``parameter``, then a table on the same plan whose
    records hold every odd float in every field."""
    values = {"voltage": (0.0, 8.0), "ratio": (0.1, 0.8), "gap": (2.0e-6, 9.0e-6),
              "hot_arm_length": (3.0e-4, 1.0e-3)}[parameter]
    plan = SweepPlan(base=default_spec(), parameter=parameter, values=values)
    n = len(_ODD_FLOATS)
    odd = tuple(SweepRecord(*(_ODD_FLOATS[(i + k) % n] for k in range(7)))
                for i in range(n))
    return run_sweep(plan), SweepTable(plan=plan, records=odd)


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_csv_is_what_the_csv_writer_writes(parameter):
    """No parameter name and no ``.9g`` cell needs quoting, so joining
    the cells gives the writer's bytes: on real sweeps, on every odd
    float in every field and on a table with no records."""
    real, odd = _tables(parameter)
    for table in (real, odd, SweepTable(plan=real.plan, records=())):
        assert sweep_csv(table) == _writer_csv(table)


def test_percent_formatting_is_format():
    """The CSV template and the chart's points use ``%``; on floats it
    gives the bytes ``format`` gives, to 9 significant digits and to 2
    decimals: on the odd floats, then on a seeded sample, half uniform
    bit patterns (nan payloads, subnormals, every exponent) and half
    log-uniform magnitudes of either sign from 5e-324 to 1e308."""
    rng = random.Random(2323)
    floats = list(_ODD_FLOATS) + [-1.0e308, 1.0e-320, -5.0e-324]
    for i in range(100_000):
        if i % 2:
            floats.append(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
        else:
            floats.append(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.3, 308.0))
    assert sum(v != v for v in floats) > 10
    assert sum(0.0 < abs(v) < 2.3e-308 for v in floats) > 1000
    assert [v for v in floats if "%.9g" % v != format(v, ".9g")] == []
    assert [v for v in floats if "%.2f" % v != format(v, ".2f")] == []


def _f_string_chart(table):
    """``sweep_chart_svg`` as it was with one f-string per point and
    ``format`` for the labels, kept here as the reference."""
    param = table.plan.parameter
    unit, scale = DISPLAY_UNITS[param]
    xs = [rec.value / scale for rec in table.records]
    ys = [rec.tip_deflection / _MICRO for rec in table.records]
    x_label = f"{param} [{unit}]" if unit else param
    width, height = 800, 600
    left, right, top, bottom = 80.0, 24.0, 24.0, 64.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    def fmt(value):
        return format(value, ".9g")

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    axis_y = height - bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{axis_y}" x2="{width - right}" y2="{axis_y}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{axis_y}" '
        'stroke="black"/>',
        f'<polyline fill="none" stroke="#1050a0" stroke-width="1.5" '
        f'points="{points}"/>',
        f'<text x="{left}" y="{axis_y + 18:.0f}" font-size="12" '
        f'text-anchor="middle">{fmt(min(xs))}</text>',
        f'<text x="{width - right}" y="{axis_y + 18:.0f}" font-size="12" '
        f'text-anchor="middle">{fmt(max(xs))}</text>',
        f'<text x="{left - 6}" y="{axis_y + 4:.0f}" font-size="12" '
        f'text-anchor="end">{fmt(min(ys))}</text>',
        f'<text x="{left - 6}" y="{top + 4:.0f}" font-size="12" '
        f'text-anchor="end">{fmt(max(ys))}</text>',
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 20}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>',
        '<text x="8" y="16" font-size="13">tip deflection [um]</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _chart_outcome(chart, table):
    """("done", the chart's text) or ("refused", the refusal's type and
    message): a lone value past 2**53 swallows the 0.5 padding."""
    try:
        return "done", chart(table)
    except ArithmeticError as exc:
        return "refused", type(exc), str(exc)


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_chart_is_the_f_string_chart(parameter):
    """The chart's bytes, or its refusal, are the reference's: on real
    sweeps, on odd floats in every field and on each odd float alone."""
    real, odd = _tables(parameter)
    tables = [real, odd] + [SweepTable(plan=odd.plan, records=(record,))
                            for record in odd.records]
    outcomes = [_chart_outcome(sweep_chart_svg, table) for table in tables]
    assert outcomes == [_chart_outcome(_f_string_chart, table) for table in tables]
    assert sum(outcome[0] == "done" for outcome in outcomes) > len(outcomes) // 2


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
