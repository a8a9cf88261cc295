"""Minimal deterministic SVG output for barcodes and CCDF curves.

Plot geometry only: each plot is a generator of its text, whose barcode
ticks and CCDF points, being many, ``_text.coordinates`` spells a bounded
chunk at a time, so a plot streams as every other output does. Identical
inputs give identical bytes, which the plotting CLI relies on. No styling
knobs beyond sizes; these are working plots, not publication figures.
"""

from __future__ import annotations

from functools import wraps
from math import log10
from typing import Sequence

import numpy as np

from ._text import coordinate, coordinates
from .components import EmpiricalCcdf

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{0}" height="{1}" viewBox="0 0 {0} {1}">\n'
    '<rect width="{0}" height="{1}" fill="white"/>\n'
)


def _plot(lines):
    """The plot that the generator ``lines`` yields, as one string; ``lines``,
    which checks its input before its first string, stays as ``.lines``."""
    plot = wraps(lines)(lambda *args, **kwargs: "".join(lines(*args, **kwargs)))
    plot.lines = lines
    return plot


@_plot
def barcode_svg(
    rows: Sequence[Sequence[float]],
    width: int = 900,
    row_height: int = 14,
    margin: int = 40,
):
    """Barcode of event times per component, largest component at the bottom.

    ``rows`` come ordered largest first; row k is drawn k rows above the
    bottom, one tick per event time, all sharing the time axis.
    """
    rows = [np.asarray(row, np.float64) for row in rows]
    drawn = [row for row in rows if len(row)]
    if not drawn:
        raise ValueError("no times to draw" if rows else "no rows to draw")
    t_min = float(min(row.min() for row in drawn))
    t_max = float(max(row.max() for row in drawn))
    span = t_max - t_min or 1.0
    height = 2 * margin + row_height * len(rows)
    x0, x1 = margin, width - margin

    def x_of(t):
        return x0 + (t - t_min) / span * (x1 - x0)

    yield _HEADER.format(width, height)
    for k, row in enumerate(rows):
        y_top = height - margin - (k + 1) * row_height
        color = _PALETTE[k % len(_PALETTE)]
        yield (
            f'<text x="{x0 - 6}" y="{coordinate(y_top + row_height * 0.8)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{k}</text>\n'
        )
        # x_of on a chunk of ticks gives the same doubles as x_of per tick
        x = (x_of, row)
        mid = f'" y1="{y_top + 2}" x2="'
        end = f'" y2="{y_top + row_height - 2}" stroke="{color}" stroke-width="1"/>\n'
        yield from coordinates('<line x1="', x, mid, x, end)
    axis_y = height - margin
    yield f'<line x1="{x0}" y1="{axis_y}" x2="{x1}" y2="{axis_y}" stroke="black" stroke-width="1"/>\n'
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_min + frac * span
        x = coordinate(x_of(t))
        yield (
            f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 4}" stroke="black" stroke-width="1"/>\n'
            f'<text x="{x}" y="{axis_y + 16}" font-size="10" text-anchor="middle">{t:.6g}</text>\n'
        )
    yield "</svg>\n"


@_plot
def ccdf_svg(
    curves: Sequence[tuple[str, EmpiricalCcdf]],
    width: int = 640,
    height: int = 480,
    margin: int = 50,
    log_x: bool = False,
):
    """Step plot of one or more labelled CCDF curves."""
    if not curves:
        raise ValueError("no curves to draw")
    lo = float(min(c.support.min() for _, c in curves))
    hi = float(max(c.support.max() for _, c in curves))
    if log_x and lo <= 0:
        raise ValueError("log_x needs strictly positive values")
    if log_x:
        lo, hi = log10(lo), log10(hi)
    span = hi - lo or 1.0
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin

    def x_of(values):
        # math.log10, not np.log10, whose last bits can differ
        values = np.fromiter(map(log10, values.tolist()), np.float64, len(values)) if log_x else values
        return x0 + (values - lo) / span * (x1 - x0)

    def y_of(p):
        return y0 + p * (y1 - y0)

    yield _HEADER.format(width, height)
    yield f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>\n'
    yield f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>\n'
    for frac in (0.0, 0.5, 1.0):
        yield (
            f'<text x="{x0 - 8}" y="{coordinate(y_of(frac) + 3)}" font-size="10" '
            f'text-anchor="end">{frac:.1f}</text>\n'
        )
    for k, (label, ccdf) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        # the first point, then each step's two corners: (x_k, y_{k-1}) and
        # (x_k, y_k), with y_{-1} at tail 1; from the third number on, that
        # is "y_k x_{k+1},y_k x_{k+1}," for each k < n - 1, then y_{n-1}
        first, top = coordinate(x_of(ccdf.support[:1])[0]), coordinate(y_of(1.0))
        yield f'<polyline points="{first},{top} {first},{top} {first},'
        y, x = (y_of, ccdf.tails[:-1]), (x_of, ccdf.support[1:])
        yield from coordinates(y, " ", x, ",", y, " ", x, ",")
        yield f'{coordinate(y_of(ccdf.tails[-1]))}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        yield (
            f'<text x="{x1 - 4}" y="{y1 + 12 * (k + 1)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{label}</text>\n'
        )
    yield "</svg>\n"
