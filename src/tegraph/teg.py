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
from .events import Event, TemporalNetwork, _packed_sort, _readonly, _starts
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


class _Scratch:
    """Work columns for the incidence sort and the time shuffle of event
    tables of ``size`` events, each made on first use and then reused. An
    ensemble worker keeps one for every member it runs, so that no member
    allocates a column of the table's size, nor faults its pages in anew.

    ``index`` is ``arange(2 * size)`` and stays so; every other column is
    overwritten by each use.
    """

    _LAYOUT = {  # entries per event, and dtype
        "index": (2, np.int64),
        "perm": (1, np.int64),
        "times": (1, np.float64),
        "nodes": (2, np.int64),
        "keys": (2, np.int64),
        "work": (2, np.int64),
        "slots": (2, np.int64),
        "joined": (2, bool),
        "spare": (2, bool),
    }

    def __init__(self, size: int):
        self.size = size

    def __getattr__(self, name: str) -> np.ndarray:  # a column not made yet
        if name not in self._LAYOUT:
            raise AttributeError(name)
        per_event, dtype = self._LAYOUT[name]
        length = per_event * self.size
        column = np.arange(length, dtype=dtype) if name == "index" else np.empty(length, dtype)
        setattr(self, name, column)
        return column


def _adjacent_incidences(sources, targets, times, delta_t: float, scratch: _Scratch):
    """Each TEG edge candidate of the events ``(sources[e], targets[e],
    times[e])``, in time order, as a pair of consecutive incidences in node
    order, and its slots; both are views of ``scratch``'s columns.

    Incidence ``2e`` is (``sources[e]``, e) and ``2e + 1`` is
    (``targets[e]``, e), their nodes put in ``scratch.nodes``. One stable
    sort by node lists each node's incidences in event order, ``order``,
    and the pair (``order[k]``, ``order[k + 1]``) is a candidate where both
    are of one node and its gap lies in (0, delta_t).
    An event pair that shares both nodes may be reached over each of them,
    and then appears twice. ``slots[k]``, the index of a candidate's code in
    ``_CODE_OF_SLOTS``, is the shared node's slot in each event and whether
    their other nodes are the same; it is 8 or more for a pair that is no
    candidate.

    The window test is skipped where it is vacuous: at delta_t = inf with
    strictly increasing times, the two incidences of a node in a pair are of
    two events (there are no self-loops), so every gap is positive.
    """
    nodes, keys, work, slots = scratch.nodes, scratch.keys, scratch.work, scratch.slots
    nodes[0::2], nodes[1::2] = sources, targets  # numpy skips a copy onto itself
    joined, spare = scratch.joined[:-1], scratch.spare[:-1]
    try:
        shift = _packed_sort(nodes, scratch.index, keys)
    except OverflowError:  # positions past 2**61 / len(times): far more node ids than fit in memory
        raise ValueError("too many node ids for the incidence sort") from None
    np.bitwise_xor(keys[1:], keys[:-1], out=work[1:])
    np.less(work[1:], 1 << shift, out=joined)  # both incidences are of one node
    keys &= (1 << shift) - 1  # now the incidence order
    if delta_t < inf or not np.greater(times[1:], times[:-1], out=spare[: len(times) - 1]).all():
        np.right_shift(keys, 1, out=work)
        at = np.take(times, work, out=slots.view(np.float64), mode="clip")  # each incidence's time
        gaps = np.subtract(at[1:], at[:-1], out=work.view(np.float64)[:-1])
        joined &= np.greater(gaps, 0, out=spare)
        joined &= np.less(gaps, delta_t, out=spare)
    # the other node of each incidence's event, and whether a pair's are equal
    np.take(nodes, np.bitwise_xor(keys, 1, out=work), out=slots, mode="clip")
    same = np.equal(slots[1:], slots[:-1], out=spare)
    slot = np.bitwise_and(keys, 1, out=work)  # each incidence's slot in its event
    slots = np.left_shift(slot[:-1], 1, out=slots[:-1])
    slots |= slot[1:]
    slots <<= 1
    slots |= same
    np.bitwise_or(slots, 8, out=slots, where=np.logical_not(joined, out=spare))
    return keys, slots


def _incidence_edges(sources, targets, times, delta_t: float):
    """Event-graph edges of the events ``(sources[e], targets[e], times[e])``.

    Events must be in time order and nodes int64. Returns the ``heads``,
    ``tails`` and motif ``codes`` columns, sorted by (head, tail).
    """
    m = len(sources)
    scratch = _Scratch(m)
    order, slots = _adjacent_incidences(sources, targets, times, delta_t, scratch)
    # the keys pair << 3 | slots (int64 up to 2**30 events, whose incidence sort
    # alone needs over 100 GB), packed in the dead node column
    events = np.right_shift(order, 1, out=scratch.work)
    packed = np.multiply(events[:-1], m, out=scratch.nodes[:-1])
    packed += events[1:]
    packed <<= 3
    packed |= slots  # a pair that is no candidate is dropped next
    kept = np.less(slots, 8, out=scratch.spare[:-1])
    del scratch, order, slots, events  # freed before the candidates are taken: this sets the peak memory
    keys = packed[kept]
    del packed, kept
    keys.sort()
    # a pair reached over both nodes has two slot values, but one code
    keys = keys[_starts(keys >> 3)]
    return *np.divmod(keys >> 3, m), _CODE_OF_SLOTS.take(keys & 7)


def _motif_code_counts(sources, targets, times, delta_t: float, scratch: _Scratch | None = None) -> np.ndarray:
    """Edge count per motif code of the event graph of the events
    ``(sources[e], targets[e], times[e])``, in time order, without the graph.

    Each candidate's slots give its motif; a pair of events reached over
    both of its nodes (``same``, the lowest bit of its slots) is counted once.
    With a ``scratch`` of as many events, no column of the table's size is
    allocated; the node columns that ``_shuffled_columns`` writes there are
    already in place.
    """
    scratch = scratch or _Scratch(len(times))
    order, slots = _adjacent_incidences(sources, targets, times, delta_t, scratch)
    by_slots = np.bincount(slots, minlength=16)[:8]
    # the candidates with the lowest bit: (slots & 9) == 1
    two = np.flatnonzero(np.equal(np.bitwise_and(slots, 9, out=scratch.work[:-1]), 1, out=scratch.spare[:-1]))
    _, once = np.unique((order[two] >> 1) * len(times) + (order[two + 1] >> 1), return_index=True)
    by_slots -= np.bincount(slots[np.delete(two, once)], minlength=8)
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
