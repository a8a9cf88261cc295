"""Minimal deterministic SVG output for barcodes and CCDF curves.

Pure string assembly: identical inputs give identical bytes, which the
plotting CLI relies on. No styling knobs beyond sizes; these are working
plots, not publication figures.
"""

from __future__ import annotations

from math import log10
from typing import Sequence

import numpy as np

from .components import EmpiricalCcdf

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def barcode_svg(
    rows: Sequence[Sequence[float]],
    width: int = 900,
    row_height: int = 14,
    margin: int = 40,
) -> str:
    """Barcode of event times per component, largest component at the bottom.

    ``rows`` come ordered largest first; row k is drawn k rows above the
    bottom, one tick per event time, all sharing the time axis.
    """
    if not rows:
        raise ValueError("no rows to draw")
    t_min = min(min(r) for r in rows if r)
    t_max = max(max(r) for r in rows if r)
    span = t_max - t_min or 1.0
    height = 2 * margin + row_height * len(rows)
    x0, x1 = margin, width - margin

    def x_of(t):
        return x0 + (t - t_min) / span * (x1 - x0)

    parts = _header(width, height)
    for k, row in enumerate(rows):
        y_top = height - margin - (k + 1) * row_height
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<text x="{x0 - 6}" y="{_fmt(y_top + row_height * 0.8)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{k}</text>'
        )
        # one float64 expression per row, in x_of's operation order, gives
        # the same doubles as x_of per tick
        ticks = map(_fmt, x_of(np.array(row, np.float64)).tolist())
        y1, y2 = y_top + 2, y_top + row_height - 2
        parts += [
            f'<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" stroke="{color}" stroke-width="1"/>'
            for x in ticks
        ]
    axis_y = height - margin
    parts.append(
        f'<line x1="{x0}" y1="{axis_y}" x2="{x1}" y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_min + frac * span
        x = _fmt(x_of(t))
        parts.append(
            f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 4}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{axis_y + 16}" font-size="10" text-anchor="middle">{t:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ccdf_svg(
    curves: Sequence[tuple[str, EmpiricalCcdf]],
    width: int = 640,
    height: int = 480,
    margin: int = 50,
    log_x: bool = False,
) -> str:
    """Step plot of one or more labelled CCDF curves."""
    if not curves:
        raise ValueError("no curves to draw")
    xs = [v for _, c in curves for v in c.values]
    if log_x and min(xs) <= 0:
        raise ValueError("log_x needs strictly positive values")
    lo, hi = min(xs), max(xs)
    if log_x:
        lo, hi = log10(lo), log10(hi)
    span = hi - lo or 1.0
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin

    def x_of(v: float) -> float:
        value = log10(v) if log_x else v
        return x0 + (value - lo) / span * (x1 - x0)

    def y_of(p: float) -> float:
        return y0 + p * (y1 - y0)

    parts = _header(width, height)
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y_of(frac) + 3)}" font-size="10" '
            f'text-anchor="end">{frac:.1f}</text>'
        )
    for k, (label, ccdf) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = [f"{_fmt(x_of(ccdf.values[0]))},{_fmt(y_of(1.0))}"]
        for v, p in zip(ccdf.values, ccdf.tail):
            x = _fmt(x_of(v))
            points.append(f"{x},{points[-1].split(',')[1]}")
            points.append(f"{x},{_fmt(y_of(p))}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x1 - 4}" y="{y1 + 12 * (k + 1)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
