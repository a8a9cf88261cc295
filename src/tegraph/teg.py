"""Static event-graph representation of a temporal network.

Each event becomes a vertex. A directed edge i -> j is drawn when j is the
*next* event within the waiting window that shares a node with i, taken
separately over each of i's two nodes; when both nodes lead to the same
event the two candidates collapse into a single edge. Every edge carries
the inter-event time (edge weight) and the motif class of its event pair.

The construction gives every vertex at most two in- and two out-edges and,
because edges always point from an earlier to a later event, the graph is
a DAG (under equal timestamps, order is the network's stable resolution
and edges still point forward because a zero gap never creates an edge).

The graph is stored as four numpy columns, one entry per edge, sorted by
(from, to).
"""

from __future__ import annotations

import json
from math import inf, isnan
from typing import TextIO

import numpy as np

from .events import Event, TemporalNetwork, _readonly, _stable_sort, _starts
from .motifs import MOTIFS


def check_window(delta_t: float) -> None:
    """Raise ValueError unless ``delta_t`` is a positive waiting window."""
    if isnan(delta_t) or delta_t <= 0:
        raise ValueError(f"delta_t must be positive (math.inf allowed), got {delta_t}")


class Teg:
    """Event graph of ``network`` at waiting window ``delta_t``.

    Vertices are event indices 0..M-1 in the network's order. Edge k runs
    from event ``heads[k]`` to the later event ``tails[k]``, with
    inter-event time ``iets[k]`` and motif ``MOTIFS[codes[k]]``; the
    columns must be sorted by (head, tail) and are stored read-only. The
    columns of its weakly connected components are kept once computed
    (``components.ComponentSet``).
    """

    __slots__ = ("network", "delta_t", "heads", "tails", "iets", "codes", "_components")

    def __init__(self, network: TemporalNetwork, delta_t: float, heads, tails, iets, codes):
        check_window(delta_t)
        self.network = network
        self.delta_t = delta_t
        self.heads = _readonly(heads, np.int64)
        self.tails = _readonly(tails, np.int64)
        self.iets = _readonly(iets, np.float64)
        self.codes = _readonly(codes, np.uint8)
        self._components = None
        if not len(self.heads) == len(self.tails) == len(self.iets) == len(self.codes):
            raise ValueError("edge columns must have equal lengths")

    @property
    def vertex_count(self) -> int:
        return len(self.network)

    @property
    def edge_count(self) -> int:
        return len(self.heads)

    def __repr__(self) -> str:
        dt = "inf" if self.delta_t == inf else repr(self.delta_t)
        return f"Teg({self.vertex_count} vertices, {self.edge_count} edges, delta_t={dt})"


def is_dt_adjacent(first: Event, second: Event, delta_t: float) -> bool:
    """True when the events share a node and 0 < gap < delta_t."""
    if first.source not in second.nodes and first.target not in second.nodes:
        return False
    gap = second.time - first.time
    return 0 < gap < delta_t


def _motif_table() -> np.ndarray:
    """Motif code by the four node equalities u_j == u_i, v_j == v_i, u_j == v_i
    and v_j == u_i of events (u_i, v_i) then (u_j, v_j), as bits 0-3 of the index."""
    bits = np.arange(16)
    same_u, same_v, u_is_v, v_is_u = (bits >> k & 1 == 1 for k in range(4))
    # first match wins, in MOTIFS order: ABAB, ABBA, ABAC, ABCA, ABBC, ABCB
    conditions = [same_u & same_v, u_is_v & v_is_u, same_u, v_is_u, u_is_v, same_v]
    return np.select(conditions, range(len(MOTIFS))).astype(np.uint8)


_MOTIF_OF_BITS = _motif_table()


def _incidence_edges(sources, targets, times, delta_t: float):
    """Event-graph edges of the events ``(sources[e], targets[e], times[e])``.

    Events must be in time order and nodes int64. Returns the ``heads``,
    ``tails`` and motif ``codes`` columns, sorted by (head, tail).
    """
    m = len(sources)
    # incidence 2e is (sources[e], e) and 2e + 1 is (targets[e], e)
    nodes = np.stack((sources, targets), 1).ravel()
    grouped, order = _stable_sort(nodes)
    del nodes
    follows = grouped[1:] == grouped[:-1]
    first = order[:-1][follows] >> 1
    second = order[1:][follows] >> 1
    gaps = times[second] - times[first]
    inside = (gaps > 0) & (gaps < delta_t)
    pairs = np.sort(first[inside] * m + second[inside])
    pairs = pairs[_starts(pairs)]
    # free the candidates before classifying: this sets the peak memory
    del order, grouped, follows, first, second, gaps, inside
    heads, tails = np.divmod(pairs, m)
    del pairs
    u_i, v_i, u_j, v_j = sources[heads], targets[heads], sources[tails], targets[tails]
    bits = (u_j == u_i).view(np.uint8)
    for shift, same in enumerate((v_j == v_i, u_j == v_i, v_j == u_i), 1):
        bits |= same.view(np.uint8) << shift
    return heads, tails, _MOTIF_OF_BITS[bits]


def build_teg(net: TemporalNetwork, delta_t: float) -> Teg:
    """Build the event graph of ``net`` by sorting node incidences, O(M log M).

    Every event contributes two (node, event) incidences. One packed-key
    sort of the incidences, stable by node, lists each node's events in the
    network's order, so consecutive incidences of one node are the candidate
    pairs (i, j) with j the next event of that node; under stable-order
    ties that is the next event in the resolved order (a zero gap never
    yields an edge, and with distinct timestamps this is exactly the next
    event in time). Candidates with a gap outside (0, delta_t) are dropped,
    a pair reached over both nodes is kept once, and each pair's motif is
    read off its four endpoints.
    """
    check_window(delta_t)
    times = net.times
    heads, tails, codes = _incidence_edges(net.sources, net.targets, times, delta_t)
    return Teg(net, delta_t, heads, tails, times[tails] - times[heads], codes)


_ROWS = 1 << 12  # rows rendered at a time, so no list of every row is held
_MOTIF_NAMES = np.array([m.value for m in MOTIFS], dtype=object)


def _json_rows(row: str, *columns):
    """``row % values`` for the values of ``columns`` at each index, joined
    by ",\\n" a bounded chunk of rows at a time: the items of a JSON array or
    object at depth 2, as ``json.dump(indent=1)`` lays them out."""
    for start in range(0, len(columns[0]), _ROWS):
        values = zip(*(column[start : start + _ROWS].tolist() for column in columns))
        yield ",\n".join(row % items for items in values)


def _write_json(stream: TextIO, fields: dict) -> None:
    """Write the object of rendered ``fields`` byte for byte as ``json.dump(indent=1)``
    and a newline would, without its pure-Python encoder (several times slower).
    A field is a rendered value, or a pair of its empty value (``"[]"`` or
    ``"{}"``) and the chunks of its items (``_json_rows``), written as they come."""
    opening = "{"
    for name, value in fields.items():
        stream.write(f'{opening}\n "{name}": ')
        opening = ","
        if isinstance(value, str):
            stream.write(value)
            continue
        empty, chunks = value
        written = False
        for chunk in chunks:
            stream.write(",\n" + chunk if written else empty[0] + "\n" + chunk)
            written = True
        stream.write(f"\n {empty[1]}" if written else empty)
    stream.write("\n}\n")


def write_teg_json(teg: Teg, stream: TextIO) -> None:
    """Dump the edge list with its header; inter-event times are lossless.
    Rows are written a bounded chunk at a time.

    The dump is for downstream tools: the package has no reader for it.
    """
    row = '  [\n   %d,\n   %d,\n   %r,\n   "%s"\n  ]'
    rows = _json_rows(row, teg.heads, teg.tails, teg.iets, _MOTIF_NAMES[teg.codes])
    delta_t = json.dumps("inf" if teg.delta_t == inf else teg.delta_t)
    _write_json(stream, {"delta_t": delta_t, "event_count": str(teg.vertex_count), "edges": ("[]", rows)})
