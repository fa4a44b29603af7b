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


# The chart's size, plot box, axes and title are the same on every chart,
# so its text is formed once: a chart fills in only the polyline's points,
# the four tick labels and the x-axis label.
_WIDTH, _HEIGHT = 800, 600
_LEFT, _RIGHT, _TOP, _BOTTOM = 80.0, 24.0, 24.0, 64.0
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM
_AXIS_Y = _HEIGHT - _BOTTOM
_CHART = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
    f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    f'<line x1="{_LEFT}" y1="{_AXIS_Y}" x2="{_WIDTH - _RIGHT}" y2="{_AXIS_Y}" '
    'stroke="black"/>',
    f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_AXIS_Y}" stroke="black"/>',
    '<polyline fill="none" stroke="#1050a0" stroke-width="1.5" points="%s"/>',
    f'<text x="{_LEFT}" y="{_AXIS_Y + 18:.0f}" font-size="12" '
    'text-anchor="middle">%.9g</text>',
    f'<text x="{_WIDTH - _RIGHT}" y="{_AXIS_Y + 18:.0f}" font-size="12" '
    'text-anchor="middle">%.9g</text>',
    f'<text x="{_LEFT - 6}" y="{_AXIS_Y + 4:.0f}" font-size="12" '
    'text-anchor="end">%.9g</text>',
    f'<text x="{_LEFT - 6}" y="{_TOP + 4:.0f}" font-size="12" '
    'text-anchor="end">%.9g</text>',
    f'<text x="{_LEFT + _PLOT_W / 2:.0f}" y="{_HEIGHT - 20}" font-size="13" '
    'text-anchor="middle">%s</text>',
    '<text x="8" y="16" font-size="13">tip deflection [um]</text>',
    "</svg>\n",
])


def sweep_chart_svg(table: SweepTable) -> str:
    """Tip deflection against the swept parameter, display units: an
    800x600 single-polyline chart with min/max tick labels, each
    degenerate range padded so the geometry stays finite.
    """
    param = table.plan.parameter
    unit, scale = DISPLAY_UNITS[param]
    xs = [rec.value / scale for rec in table.records]
    ys = [rec.tip_deflection / _MICRO for rec in table.records]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    points = " ".join(["%.2f,%.2f" % (_LEFT + (x - x_lo) / x_span * _PLOT_W,
                                      _AXIS_Y - (y - y_lo) / y_span * _PLOT_H)
                       for x, y in zip(xs, ys)])
    return _CHART % (points, min(xs), max(xs), min(ys), max(ys),
                     f"{param} [{unit}]" if unit else param)
