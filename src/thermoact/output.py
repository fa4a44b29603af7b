"""Tabular and graphical output.

Both emitters are deterministic: the same study produces byte-identical
files on every run, which the test suite relies on.  Floats are printed
with 9 significant digits, enough to reconstruct every plotted or
tabulated comparison without dumping full binary precision.
"""

from __future__ import annotations

import math

from .config import _MICRO, DISPLAY_UNITS
from .study import SweepTable

CSV_COLUMNS = ("param_name", "param_value", "d_tip_um", "u_um", "theta_mrad",
               "dl_hot_um", "dl_cold_um", "t_peak_c")
# Name and unit of each result column above in the simulate report.
_REPORT_FIELDS = (("tip_deflection", "um"), ("junction_deflection", "um"),
                  ("junction_rotation", "mrad"), ("hot_elongation", "um"),
                  ("cold_elongation", "um"), ("peak_temperature", "C"))


def _rows(table: SweepTable):
    """Each record's CSV line, formatted by one ``%`` on the table's
    template: the parameter name, then seven ``.9g`` floats."""
    param = table.plan.parameter
    scale = DISPLAY_UNITS[param][1]
    template = param + "," + ",".join(["%.9g"] * 7)
    for rec in table.records:
        yield template % (rec.value / scale, rec.tip_deflection / _MICRO,
                          rec.junction_deflection / _MICRO, rec.junction_rotation * 1.0e3,
                          rec.hot_elongation / _MICRO, rec.cold_elongation / _MICRO,
                          rec.peak_temperature)


def sweep_csv(table: SweepTable) -> str:
    """Render a sweep as CSV text, one row per operating point.  No
    cell, a parameter name or a ``.9g`` float, ever needs quoting."""
    return "\n".join([",".join(CSV_COLUMNS), *_rows(table)]) + "\n"


def _padded(lo: float, hi: float):
    """``lo``..``hi``, or 0.5 either way of an empty range, or the
    neighbouring floats where 0.5 is below one ulp."""
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    if hi - lo == 0.0:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def sweep_chart_svg(table: SweepTable) -> str:
    """Tip deflection against the swept parameter, display units: an
    800x600 single-polyline chart with min/max tick labels, each
    degenerate range padded so the geometry stays finite.
    """
    param = table.plan.parameter
    unit, scale = DISPLAY_UNITS[param]
    xs = [rec.value / scale for rec in table.records]
    ys = [rec.tip_deflection / _MICRO for rec in table.records]
    x_label = f"{param} [{unit}]" if unit else param
    width, height = 800, 600
    left, right, top, bottom = 80.0, 24.0, 24.0, 64.0
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    plot_w = width - left - right
    plot_h = height - top - bottom
    axis_y, x_span, y_span = height - bottom, x_hi - x_lo, y_hi - y_lo
    points = " ".join(["%.2f,%.2f" % (left + (x - x_lo) / x_span * plot_w,
                                      axis_y - (y - y_lo) / y_span * plot_h)
                       for x, y in zip(xs, ys)])
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
        f'text-anchor="middle">{min(xs):.9g}</text>',
        f'<text x="{width - right}" y="{axis_y + 18:.0f}" font-size="12" '
        f'text-anchor="middle">{max(xs):.9g}</text>',
        f'<text x="{left - 6}" y="{axis_y + 4:.0f}" font-size="12" '
        f'text-anchor="end">{min(ys):.9g}</text>',
        f'<text x="{left - 6}" y="{top + 4:.0f}" font-size="12" '
        f'text-anchor="end">{max(ys):.9g}</text>',
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 20}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>',
        '<text x="8" y="16" font-size="13">tip deflection [um]</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
