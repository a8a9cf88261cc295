"""Column tables as text, a bounded chunk of rows at a time.

Every event, CSV, JSON and SVG output but the manifests is rendered here,
``ROWS`` rows at a time, plot coordinates included. The labelled-graph
reader has ``json.loads`` read its rows here, and the event reader reads its
stream, in chunks of about ``CHUNK`` characters: no list of every row or
line is held.
"""

from __future__ import annotations

import json

import numpy as np

ROWS = 1 << 12  # rows rendered at a time
CHUNK = 1 << 16  # characters read at a time


def rows(row: str, *columns, sep: str = ""):
    """``row % values`` for the values of ``columns`` at each index, joined by
    ``sep``, one string per bounded chunk of rows: lines when ``row`` ends in
    a newline. A column is an array, or a pair ``(function, array)`` that
    stands for ``function(array)`` computed a chunk at a time (node ids,
    motif names, time text), so no full-length copy is made."""
    columns = [column if isinstance(column, tuple) else (np.asarray, column) for column in columns]
    for start in range(0, len(columns[0][1]), ROWS):
        values = zip(*(f(column[start : start + ROWS]).tolist() for f, column in columns))
        yield sep.join(row % items for items in values)


def json_object(fields: dict):
    """The text of the object of ``fields``, byte for byte as ``json.dump(indent=1)``
    and a newline write it, without its pure-Python encoder (several times
    slower), in chunks. A field is a JSON value, or its empty text (``"[]"``
    or ``"{}"``), the ``row`` of its items and their columns: the items are
    ``rows(row, *columns)`` joined by ",\n", rendered a chunk at a time."""
    opening = "{"
    for name, value in fields.items():
        yield f'{opening}\n "{name}": '
        opening = ","
        if not isinstance(value, tuple):
            yield json.dumps(value)
            continue
        empty, row, *columns = value
        joint = empty[0] + "\n"
        for chunk in rows(row, *columns, sep=",\n"):
            yield joint + chunk
            joint = ",\n"
        yield "\n " + empty[1] if joint == ",\n" else empty
    yield "\n}\n"


def time_strings(times: np.ndarray) -> np.ndarray:
    """Each time as text, in an object column: an integer-valued time under
    2**53 in magnitude as that integer, any other by ``repr``. Numpy picks
    out and converts the integer-valued ones in one pass."""
    whole = (times == np.trunc(times)) & (np.abs(times) < 2**53)
    strings = np.empty(len(times), dtype=object)
    strings[whole] = list(map(str, times[whole].astype(np.int64).tolist()))
    strings[~whole] = list(map(repr, times[~whole].tolist()))
    return strings


def json_rows(text: str, start: int, stop: int, empty: str, row: str):
    """The items of the rows ``text[start:stop]``, joined by ",\n" as
    ``json_object`` joins the items of ``row``, read by ``json.loads`` a
    bounded chunk of rows at a time: one list per chunk for ``empty`` "[]",
    one dict for "{}"; ValueError where a chunk is not JSON.

    A chunk ends at a row joint, ",\n" and the text of ``row`` before its
    first value: a shorter joint, such as ",\n  ", also matches inside a row.
    """
    joint = ",\n" + row[: row.index("%")]
    while start < stop:
        cut = text.find(joint, start + CHUNK, stop)
        cut = stop if cut < 0 else cut
        yield json.loads(empty[0] + text[start:cut] + empty[1])
        start = cut + 2


def coordinate(x: float) -> str:
    """A plot coordinate: ``x`` with two decimals, trailing zeros dropped."""
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _byte_rows(texts) -> np.ndarray:
    """Texts of three ASCII characters each, as the rows of a uint8 matrix."""
    return np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 3)


# coordinate's spelling of a whole part below 1e6, as its thousands (none for
# 0) and its units (zero-padded after thousands: row 1000 + u), and of the cents
_THOUSANDS = _byte_rows((str(v) if v else "").rjust(3, "\0") for v in range(1000))
_UNITS = _byte_rows([str(v).rjust(3, "\0") for v in range(1000)] + [f"{v:03d}" for v in range(1000)])
_CENTS = _byte_rows(f".{v:02d}".rstrip("0").rstrip(".").ljust(3, "\0") for v in range(100))


def _coordinate_bytes(xs: np.ndarray) -> np.ndarray:
    """``coordinate(x)`` of each float64 ``x`` of ``xs``, as a row of ASCII
    with NULs for padding.

    Where x >= 0.005, 100 x rounds below 1e8 and lies more than 1e-6 from
    a half cent, the rounding error of 100 x (under 1e-8) cannot cross a
    half cent, so ``rint(100 x)`` is the cent count ``f"{x:.2f}"`` rounds
    to, and its digits are looked up. Every other x (exact half cents such
    as k/8, zeros, negatives, huge values) goes through ``coordinate``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge, infinite or NaN x
        cents = xs * 100
        rounded = np.rint(cents)
        exact = (xs >= 0.005) & (rounded < 1e8) & (np.abs(cents - rounded) < 0.5 - 1e-6)
    whole, cents = np.divmod(np.where(exact, rounded, 0).astype(np.int64), 100)
    thousands, units = np.divmod(whole, 1000)
    slow = np.flatnonzero(~exact)
    texts = [coordinate(x).encode() for x in xs[slow].tolist()]
    out = np.zeros((len(xs), max([9] + [len(t) for t in texts])), np.uint8)
    out[:, 0:3] = _THOUSANDS.take(thousands, 0)
    out[:, 3:6] = _UNITS.take(units + 1000 * (thousands > 0), 0)
    out[:, 6:9] = _CENTS.take(cents, 0)
    out[slow] = 0
    for row, text in zip(slow.tolist(), texts):
        out[row, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def coordinates(*pieces):
    """Row k of every piece side by side, NULs dropped, one string per chunk
    of ``ROWS`` rows: a piece is text that every row repeats, or a float
    column (an array, or a pair ``(function, array)`` as in ``rows``) that
    ``_coordinate_bytes`` spells, once per chunk however often it is passed."""
    columns = {id(p): p if isinstance(p, tuple) else (np.asarray, p) for p in pieces if not isinstance(p, str)}
    texts = {p: np.frombuffer(p.encode(), np.uint8) for p in pieces if isinstance(p, str)}
    count = len(next(iter(columns.values()))[1])
    for start in range(0, count, ROWS):
        spelled = {key: _coordinate_bytes(f(column[start : start + ROWS])) for key, (f, column) in columns.items()}
        n = min(ROWS, count - start)
        blocks = [np.broadcast_to(texts[p], (n, texts[p].size)) if isinstance(p, str) else spelled[id(p)] for p in pieces]
        yield np.hstack(blocks).tobytes().translate(None, b"\0").decode()
