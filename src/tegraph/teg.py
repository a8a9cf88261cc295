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

from math import inf, isnan
from typing import TextIO

import numpy as np

from . import _text
from .events import Event, TemporalNetwork, _readonly, _stable_sort, _starts
from .motifs import _CODE_OF_SLOTS, _NAMES, MOTIFS


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


def _adjacent_incidences(nodes, times, delta_t: float):
    """Each TEG edge candidate as a pair of incidences (p, q), and its slots.

    Incidence ``2e`` is (``nodes[2e]``, e) and ``2e + 1`` is
    (``nodes[2e + 1]``, e): the source and target of event e, events in time
    order. One stable sort by node lists each node's incidences in event
    order, so q is the next incidence of p's node; a pair stays where its
    gap lies in (0, delta_t). An event pair that shares both nodes may be
    reached over each of them, and then appears twice. ``slots``, the index
    of its code in ``_CODE_OF_SLOTS``, is the shared node's slot in each
    event and whether their other nodes are the same.
    """
    grouped, order = _stable_sort(nodes)
    follows = grouped[1:] == grouped[:-1]
    del grouped
    p, q = order[:-1][follows], order[1:][follows]
    del order, follows
    gaps = times[q >> 1] - times[p >> 1]
    inside = (gaps > 0) & (gaps < delta_t)
    del gaps
    p, q = p[inside], q[inside]
    del inside
    same = nodes[p ^ 1] == nodes[q ^ 1]  # before the shifts: its gathers set the peak memory
    return p, q, (p & 1) << 2 | (q & 1) << 1 | same


def _incidence_edges(sources, targets, times, delta_t: float):
    """Event-graph edges of the events ``(sources[e], targets[e], times[e])``.

    Events must be in time order and nodes int64. Returns the ``heads``,
    ``tails`` and motif ``codes`` columns, sorted by (head, tail).
    """
    m = len(sources)
    p, q, slots = _adjacent_incidences(np.stack((sources, targets), 1).ravel(), times, delta_t)
    # the keys pair << 3 | slots in place (int64 up to 2**30 events, whose incidence sort alone
    # needs over 100 GB), the candidates freed before the sort: this sets the peak memory
    keys = p >> 1
    keys *= m
    keys += q >> 1
    keys <<= 3
    keys |= slots
    del p, q, slots
    keys.sort()
    # a pair reached over both nodes has two slot values, but one code
    keys = keys[_starts(keys >> 3)]
    return *np.divmod(keys >> 3, m), _CODE_OF_SLOTS.take(keys & 7)


def _motif_code_counts(sources, targets, times, delta_t: float) -> np.ndarray:
    """Edge count per motif code of the event graph of the events
    ``(sources[e], targets[e], times[e])``, in time order, without the graph.

    Each candidate's slots give its motif; a pair of events reached over
    both of its nodes (``same``, the lowest bit of its slots) is counted once.
    """
    p, q, slots = _adjacent_incidences(np.stack((sources, targets), 1).ravel(), times, delta_t)
    two = np.flatnonzero((slots & 1) > 0)  # a bool mask: flatnonzero of the int64 column is 4x slower
    _, once = np.unique((p[two] >> 1) * len(sources) + (q[two] >> 1), return_index=True)
    by_slots = np.bincount(slots, minlength=8) - np.bincount(slots[np.delete(two, once)], minlength=8)
    counts = np.zeros(len(MOTIFS), np.int64)
    np.add.at(counts, _CODE_OF_SLOTS, by_slots)
    return counts


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
    read off the slots of a node it shares.
    """
    check_window(delta_t)
    times = net.times
    heads, tails, codes = _incidence_edges(net.sources, net.targets, times, delta_t)
    return Teg(net, delta_t, heads, tails, times[tails] - times[heads], codes)


def write_teg_json(teg: Teg, stream: TextIO) -> None:
    """Dump the edge list with its header; inter-event times are lossless.
    Rows are written a bounded chunk at a time.

    The dump is for downstream tools: the package has no reader for it.
    """
    row = '  [\n   %d,\n   %d,\n   %r,\n   "%s"\n  ]'
    edges = ("[]", row, teg.heads, teg.tails, teg.iets, (_NAMES.take, teg.codes))
    delta_t = "inf" if teg.delta_t == inf else teg.delta_t
    stream.writelines(_text.json_object({"delta_t": delta_t, "event_count": teg.vertex_count, "edges": edges}))
