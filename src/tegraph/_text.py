"""Column tables as text, a bounded chunk of rows at a time.

Every event, CSV and JSON output but the manifests is rendered here, ``ROWS``
rows at a time. The labelled-graph reader has ``json.loads`` read its rows
here, and the event reader reads its stream, in chunks of about ``CHUNK``
characters: no list of every row or line is held.
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
