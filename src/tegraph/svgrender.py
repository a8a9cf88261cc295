"""Minimal deterministic SVG output for barcodes and CCDF curves.

Pure string assembly: identical inputs give identical bytes, which the
plotting CLI relies on. Every coordinate reads as ``_fmt`` writes it (two
decimals, trailing zeros dropped). Barcode ticks and CCDF points are many,
so they are written a bounded chunk at a time from columns:
``_fmt_column`` spells a float column out as the rows of a NUL-padded byte
matrix, the matrices and the constant text between them are laid side by
side, and the NULs are dropped. No styling knobs beyond sizes; these are
working plots, not publication figures.
"""

from __future__ import annotations

from math import log10
from typing import Sequence

import numpy as np

from . import _text
from .components import EmpiricalCcdf

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _byte_rows(texts) -> np.ndarray:
    """Texts of three ASCII characters each, as the rows of a uint8 matrix."""
    return np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 3)


# _fmt's spelling of a whole part below 1e6, as its thousands (none for 0)
# and its units (zero-padded after thousands: row 1000 + u), and of the cents
_THOUSANDS = _byte_rows((str(v) if v else "").rjust(3, "\0") for v in range(1000))
_UNITS = _byte_rows([str(v).rjust(3, "\0") for v in range(1000)] + [f"{v:03d}" for v in range(1000)])
_CENTS = _byte_rows(f".{v:02d}".rstrip("0").rstrip(".").ljust(3, "\0") for v in range(100))


def _fmt_column(xs: np.ndarray) -> np.ndarray:
    """``_fmt(x)`` of each float64 ``x`` of ``xs``, as a row of ASCII with NULs
    for padding.

    Where x >= 0.005, 100 x rounds below 1e8 and lies more than 1e-6 from
    a half cent, the rounding error of 100 x (under 1e-8) cannot cross a
    half cent, so ``rint(100 x)`` is the cent count ``f"{x:.2f}"`` rounds
    to, and its digits are looked up. Every other x (exact half cents such
    as k/8, zeros, negatives, huge values) goes through ``_fmt``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge, infinite or NaN x
        cents = xs * 100
        rounded = np.rint(cents)
        exact = (xs >= 0.005) & (rounded < 1e8) & (np.abs(cents - rounded) < 0.5 - 1e-6)
    whole, cents = np.divmod(np.where(exact, rounded, 0).astype(np.int64), 100)
    thousands, units = np.divmod(whole, 1000)
    slow = np.flatnonzero(~exact)
    texts = [_fmt(x).encode() for x in xs[slow].tolist()]
    out = np.zeros((len(xs), max([9] + [len(t) for t in texts])), np.uint8)
    out[:, 0:3] = _THOUSANDS.take(thousands, 0)
    out[:, 3:6] = _UNITS.take(units + 1000 * (thousands > 0), 0)
    out[:, 6:9] = _CENTS.take(cents, 0)
    out[slow] = 0
    for row, text in zip(slow.tolist(), texts):
        out[row, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _joined(*pieces) -> str:
    """Row k of every piece side by side, one line of text per row, NULs
    dropped: a piece is a byte matrix (``_fmt_column``) or a string that
    every row repeats."""
    n = next(len(p) for p in pieces if not isinstance(p, str))
    blocks = [
        np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (n, len(p))) if isinstance(p, str) else p
        for p in pieces
    ]
    return np.hstack(blocks).tobytes().translate(None, b"\0").decode()


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
    rows = [np.asarray(row, np.float64) for row in rows]
    t_min = float(min(row.min() for row in rows if len(row)))
    t_max = float(max(row.max() for row in rows if len(row)))
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
        xs = x_of(row)
        mid = f'" y1="{y_top + 2}" x2="'
        end = f'" y2="{y_top + row_height - 2}" stroke="{color}" stroke-width="1"/>\n'
        for start in range(0, len(xs), _text.ROWS):
            x = _fmt_column(xs[start : start + _text.ROWS])
            parts.append(_joined('<line x1="', x, mid, x, end)[:-1])
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
    parts.append("</svg>\n")  # no copy of the whole text for its last newline
    return "\n".join(parts)


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
        # the first point, then each step's two corners: (x_k, y_{k-1}) and
        # (x_k, y_k), with y_{-1} at tail 1
        xs = np.repeat(x_of(ccdf.support), 2)
        xs = np.concatenate((xs[:1], xs))
        ys = np.repeat(y_of(np.concatenate(([1.0], ccdf.tails))), 2)[:-1]
        points = "".join(
            _joined(_fmt_column(xs[k : k + _text.ROWS]), ",", _fmt_column(ys[k : k + _text.ROWS]), " ")
            for k in range(0, len(xs), _text.ROWS)
        )
        parts.append(
            f'<polyline points="{points[:-1]}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x1 - 4}" y="{y1 + 12 * (k + 1)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
