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
(from, to); the ``TegEdge`` views of the edge list and of per-vertex
adjacency are built from the columns on first access.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf, isnan
from typing import TextIO

import numpy as np

from .events import Event, TemporalNetwork
from .motifs import MOTIFS, Motif


@dataclass(frozen=True, slots=True)
class TegEdge:
    """Directed edge between event indices, weighted by inter-event time."""

    from_vertex: int
    to_vertex: int
    iet: float
    motif: Motif


def check_window(delta_t: float) -> None:
    """Raise ValueError unless ``delta_t`` is a positive waiting window."""
    if isnan(delta_t) or delta_t <= 0:
        raise ValueError(f"delta_t must be positive (math.inf allowed), got {delta_t}")


def _readonly(values, dtype) -> np.ndarray:
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


class Teg:
    """Event graph of ``network`` at waiting window ``delta_t``.

    Vertices are event indices 0..M-1 in the network's order. Edge k runs
    from event ``heads[k]`` to the later event ``tails[k]``, with
    inter-event time ``iets[k]`` and motif ``MOTIFS[codes[k]]``; the
    columns must be sorted by (head, tail) and are stored read-only.
    ``edges``, ``out_edges`` and ``in_edges`` give the same edges as
    ``TegEdge`` objects.
    """

    __slots__ = ("network", "delta_t", "heads", "tails", "iets", "codes", "_edges", "_adjacency")

    def __init__(self, network: TemporalNetwork, delta_t: float, heads, tails, iets, codes):
        check_window(delta_t)
        self.network = network
        self.delta_t = delta_t
        self.heads = _readonly(heads, np.int64)
        self.tails = _readonly(tails, np.int64)
        self.iets = _readonly(iets, np.float64)
        self.codes = _readonly(codes, np.uint8)
        if not len(self.heads) == len(self.tails) == len(self.iets) == len(self.codes):
            raise ValueError("edge columns must have equal lengths")
        self._edges = None
        self._adjacency = None

    @property
    def vertex_count(self) -> int:
        return len(self.network)

    @property
    def edge_count(self) -> int:
        return len(self.heads)

    @property
    def edges(self) -> tuple[TegEdge, ...]:
        """All edges as ``TegEdge`` objects, sorted by (from_vertex, to_vertex)."""
        if self._edges is None:
            motifs = [MOTIFS[c] for c in self.codes.tolist()]
            self._edges = tuple(
                map(TegEdge, self.heads.tolist(), self.tails.tolist(), self.iets.tolist(), motifs)
            )
        return self._edges

    @property
    def out_edges(self) -> tuple[tuple[TegEdge, ...], ...]:
        """Out-edges of every vertex, by vertex index."""
        return self._views()[0]

    @property
    def in_edges(self) -> tuple[tuple[TegEdge, ...], ...]:
        """In-edges of every vertex, by vertex index."""
        return self._views()[1]

    def _views(self):
        if self._adjacency is None:
            out: list[list[TegEdge]] = [[] for _ in range(self.vertex_count)]
            incoming: list[list[TegEdge]] = [[] for _ in range(self.vertex_count)]
            for e in self.edges:
                out[e.from_vertex].append(e)
                incoming[e.to_vertex].append(e)
            self._adjacency = (
                tuple(tuple(lst) for lst in out),
                tuple(tuple(lst) for lst in incoming),
            )
        return self._adjacency

    def out_degree(self, v: int) -> int:
        return len(self.out_edges[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_edges[v])

    def __repr__(self) -> str:
        dt = "inf" if self.delta_t == inf else repr(self.delta_t)
        return f"Teg({self.vertex_count} vertices, {self.edge_count} edges, delta_t={dt})"


def is_dt_adjacent(first: Event, second: Event, delta_t: float) -> bool:
    """True when the events share a node and 0 < gap < delta_t."""
    if first.source not in second.nodes and first.target not in second.nodes:
        return False
    gap = second.time - first.time
    return 0 < gap < delta_t


def _node_columns(net: TemporalNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Source and target of every event as int64 columns.

    Node ids past the int64 range are replaced by their rank among the
    network's nodes, which keeps node equality, all the builder needs.
    """
    events, m = net.events, len(net)
    try:
        sources = np.fromiter((e.source for e in events), np.int64, m)
        targets = np.fromiter((e.target for e in events), np.int64, m)
    except OverflowError:
        rank = {node: k for k, node in enumerate(sorted(net.nodes))}
        sources = np.fromiter((rank[e.source] for e in events), np.int64, m)
        targets = np.fromiter((rank[e.target] for e in events), np.int64, m)
    return sources, targets


def _incidence_edges(sources, targets, times, delta_t: float):
    """Event-graph edges of the events ``(sources[e], targets[e], times[e])``.

    Events must be in time order and node ids int64. Returns the ``heads``,
    ``tails`` and motif ``codes`` columns, sorted by (head, tail).
    """
    m = len(sources)
    # incidence 2e is (sources[e], e) and 2e + 1 is (targets[e], e)
    nodes = np.empty(2 * m, dtype=np.int64)
    nodes[0::2] = sources
    nodes[1::2] = targets
    order = np.argsort(nodes, kind="stable")
    grouped = nodes[order]
    follows = grouped[1:] == grouped[:-1]
    first = order[:-1][follows] >> 1
    second = order[1:][follows] >> 1
    gaps = times[second] - times[first]
    inside = (gaps > 0) & (gaps < delta_t)
    pairs = np.unique(first[inside] * m + second[inside])
    # free the candidates before classifying: this sets the peak memory
    del nodes, order, grouped, follows, first, second, gaps, inside
    heads, tails = np.divmod(pairs, m)
    del pairs
    u_i, v_i, u_j, v_j = sources[heads], targets[heads], sources[tails], targets[tails]
    # first match wins, in MOTIFS order: ABAB, ABBA, ABAC, ABCA, ABBC, ABCB
    codes = np.select(
        [
            (u_j == u_i) & (v_j == v_i),
            (u_j == v_i) & (v_j == u_i),
            u_j == u_i,
            v_j == u_i,
            u_j == v_i,
            v_j == v_i,
        ],
        range(len(MOTIFS)),
    )
    return heads, tails, codes


def build_teg(net: TemporalNetwork, delta_t: float) -> Teg:
    """Build the event graph of ``net`` by sorting node incidences, O(M log M).

    Every event contributes two (node, event) incidences. A stable sort by
    node lists each node's events in the network's order, so consecutive
    incidences of one node are the candidate pairs (i, j) with j the next
    event of that node; under stable-order ties that is the next event in
    the resolved order (a zero gap never yields an edge, and with distinct
    timestamps this is exactly the next event in time). Candidates with a
    gap outside (0, delta_t) are dropped, a pair reached over both nodes is
    kept once, and each pair's motif is read off its four endpoints.
    """
    check_window(delta_t)
    sources, targets = _node_columns(net)
    times = np.fromiter((e.time for e in net.events), np.float64, len(net))
    heads, tails, codes = _incidence_edges(sources, targets, times, delta_t)
    return Teg(net, delta_t, heads, tails, times[tails] - times[heads], codes)


def _dt_to_json(delta_t: float):
    return "inf" if delta_t == inf else delta_t


def _dt_from_json(value) -> float:
    if value == "inf":
        return inf
    return float(value)


def write_teg_json(teg: Teg, stream: TextIO) -> None:
    """Dump the edge list with its header; inter-event times are lossless."""
    names = [m.value for m in MOTIFS]
    records = [
        [i, j, iet, names[c]]
        for i, j, iet, c in zip(
            teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist()
        )
    ]
    doc = {
        "delta_t": _dt_to_json(teg.delta_t),
        "event_count": teg.vertex_count,
        "edges": records,
    }
    json.dump(doc, stream, indent=1)
    stream.write("\n")


@dataclass(frozen=True)
class TegDump:
    """Parsed form of a serialized event-graph edge list."""

    delta_t: float
    event_count: int
    edges: tuple[TegEdge, ...]


def read_teg_json(stream: TextIO) -> TegDump:
    doc = json.load(stream)
    try:
        delta_t = _dt_from_json(doc["delta_t"])
        count = int(doc["event_count"])
        edges = tuple(
            TegEdge(int(i), int(j), float(iet), Motif(motif)) for i, j, iet, motif in doc["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed event-graph JSON: {exc}") from None
    for e in edges:
        if not (0 <= e.from_vertex < count and 0 <= e.to_vertex < count):
            raise ValueError(f"edge ({e.from_vertex}, {e.to_vertex}) out of range for {count} events")
    return TegDump(delta_t, count, edges)
