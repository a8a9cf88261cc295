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
(from, to): the edge table of ``EdgeLabelledTeg``, the event graph without
its events, which ``Teg`` extends with the network and the window.
"""

from __future__ import annotations

from math import inf, isnan
from typing import TextIO

import numpy as np

from . import _text
from .events import (
    _MAX_IDS, Event, TemporalNetwork, _column, _given, _packed_sort, _readonly, _spelled, _stable_sort, _starts)
from .motifs import _CODE_OF_SLOTS, _NAMES, MOTIFS, Motif


def check_window(delta_t: float) -> None:
    """Raise ValueError unless ``delta_t`` is a positive waiting window."""
    if isnan(delta_t) or delta_t <= 0:
        raise ValueError(f"delta_t must be positive (math.inf allowed), got {delta_t}")


def _sorting_order(keys: np.ndarray):
    """The stable order that sorts the non-negative int64 ``keys``, None where
    they ascend strictly already, and the first row in the given order that
    repeats an earlier row's key, else -1."""
    if np.all(keys[1:] > keys[:-1]):  # as the writer and ``build_teg`` give them
        return None, -1
    grouped, order = _stable_sort(keys)
    repeats = order[1:][grouped[1:] == grouped[:-1]]
    return order, int(repeats.min()) if len(repeats) else -1


def _stored(given, column, order, dtype=np.int64) -> np.ndarray:
    """The checked ``column`` of the values ``given``, in ``order``, as a
    read-only ``dtype`` column: ``given`` itself where it is a read-only
    ``dtype`` array already in order, else a copy, so that a graph never
    keeps a column that was handed to it writable."""
    if order is not None:
        return _readonly(column[order], dtype)
    if isinstance(given, np.ndarray) and given.dtype == dtype and not given.flags.writeable:
        return given
    return _readonly(column.astype(dtype))


class EdgeLabelledTeg:
    """Event graph stripped of its events, as read-only numpy columns.

    Edge k runs from vertex ``heads[k]`` to ``tails[k] > heads[k]`` with
    positive inter-event time ``taus[k]`` and motif ``MOTIFS[codes[k]]``;
    edges are unique and sorted by (head, tail). ``anchor_vertices``
    (ascending) and ``anchor_times`` optionally pin vertices to absolute
    times. The constructor takes these columns in any row order and checks
    them; an error names the first offending edge or anchor in that order.
    A read-only column of the stored dtype (int64 ids, float64 taus and
    times, uint8 codes) that is already in order is kept, not copied.
    """

    __slots__ = ("vertex_count", "heads", "tails", "taus", "codes", "anchor_vertices", "anchor_times")

    def __init__(self, vertex_count: int, heads, tails, taus, codes, anchor_vertices=(), anchor_times=()):
        n = vertex_count
        if type(n) is bool or not isinstance(n, int) or n > _MAX_IDS:
            raise ValueError(f"vertex_count must be an integer of at most {_MAX_IDS}, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex_count must be non-negative, got {n}")
        given = heads, tails, taus, codes
        (heads, bad_key), (tails, wrong), (taus, bad_tau), (codes, bad_code) = (
            _column(heads), _column(tails), _column(taus, numbers=True), _column(codes))
        if not len(heads) == len(tails) == len(taus) == len(codes):
            raise ValueError(f"heads, tails, taus and codes have unequal lengths {tuple(map(len, given))}")
        bad_key |= wrong | ~((0 <= heads) & (heads < tails) & (tails < n))
        bad_tau |= ~((taus > 0) & (taus < inf))
        bad = np.flatnonzero(bad_key | bad_tau | bad_code | (codes < 0) | (codes >= len(MOTIFS)))
        if len(bad):
            k = bad[0]
            i, j, code = _given(given[0], k), _given(given[1], k), _given(given[3], k)
            tau = _given(given[2], k, number=True)
            if bad_key[k]:
                raise ValueError(f"edge key ({i!r},{j!r}) must be integers with 0 <= i < j < {n}")
            if bad_tau[k]:
                raise ValueError(f"tau[{i},{j}] must be positive and finite, got {_spelled(tau, repr)}")
            if bad_code[k]:
                raise ValueError(f"motif codes must be integers, got {code!r} at edge ({i},{j})")
            raise ValueError(f"motif code out of range 0..{len(MOTIFS) - 1} at edge ({i},{j}): {code}")
        (vertices, bad_vertex), (times, bad_time) = _column(anchor_vertices), _column(anchor_times, numbers=True)
        if len(vertices) != len(times):
            raise ValueError(f"anchor_vertices and anchor_times have unequal lengths {len(vertices), len(times)}")
        bad_vertex |= ~((0 <= vertices) & (vertices < n))
        bad = np.flatnonzero(bad_vertex | bad_time | ~np.isfinite(times))
        if len(bad):
            v, t = _given(anchor_vertices, bad[0]), _given(anchor_times, bad[0], number=True)
            if bad_vertex[bad[0]]:
                raise ValueError(f"anchor vertex {v!r} out of range")
            raise ValueError(f"anchor time for vertex {v} must be finite, got {_spelled(t, repr)}")
        order, k = _sorting_order(heads * n + tails)
        if k >= 0:
            raise ValueError(f"duplicate edge {(int(heads[k]), int(tails[k]))}")
        self.vertex_count = n
        self.heads, self.tails = _stored(given[0], heads, order), _stored(given[1], tails, order)
        self.taus, self.codes = _stored(given[2], taus, order, np.float64), _stored(given[3], codes, order, np.uint8)
        order, k = _sorting_order(vertices)
        if k >= 0:
            raise ValueError(f"duplicate anchor vertex {int(vertices[k])}")
        self.anchor_vertices = _stored(anchor_vertices, vertices, order)
        self.anchor_times = _stored(anchor_times, times, order, np.float64)

    @property
    def edge_count(self) -> int:
        return len(self.heads)

    @property
    def mu(self) -> dict[tuple[int, int], Motif]:
        """Motifs by key (i, j), as a new dict on each access: bind it once, or index the columns."""
        return dict(zip(zip(self.heads.tolist(), self.tails.tolist()), [MOTIFS[c] for c in self.codes.tolist()]))

    def __repr__(self) -> str:
        anchors = len(self.anchor_vertices)
        return f"EdgeLabelledTeg({self.vertex_count} vertices, {self.edge_count} edges, {anchors} anchors)"


class Teg(EdgeLabelledTeg):
    """Event graph of ``network`` at waiting window ``delta_t``: the
    edge-labelled graph of ``len(network)`` vertices, without anchors, that
    keeps its network.

    Vertices are event indices 0..M-1 in the network's order. Edge k runs
    from event ``heads[k]`` to the later event ``tails[k]``, with
    inter-event time ``iets[k]`` (the ``taus`` column) and motif
    ``MOTIFS[codes[k]]``. The columns of its weakly connected components
    are kept once computed (``components.ComponentSet``).
    """

    __slots__ = ("network", "delta_t", "_components")

    def __init__(self, network: TemporalNetwork, delta_t: float, heads, tails, iets, codes):
        check_window(delta_t)
        super().__init__(len(network), heads, tails, iets, codes)
        self.network, self.delta_t, self._components = network, delta_t, None

    @property
    def iets(self) -> np.ndarray:
        """The inter-event times, ``taus``."""
        return self.taus

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
    heads, tails, codes = map(_readonly, _incidence_edges(net.sources, net.targets, times, delta_t))
    return Teg(net, delta_t, heads, tails, _readonly(times[tails] - times[heads]), codes)


def write_teg_json(teg: Teg, stream: TextIO) -> None:
    """Dump the edge list with its header; inter-event times are lossless.
    Rows are written a bounded chunk at a time.

    The dump is for downstream tools: the package has no reader for it.
    """
    row = '  [\n   %d,\n   %d,\n   %r,\n   "%s"\n  ]'
    edges = ("[]", row, teg.heads, teg.tails, teg.iets, (_NAMES.take, teg.codes))
    delta_t = "inf" if teg.delta_t == inf else teg.delta_t
    stream.writelines(_text.json_object({"delta_t": delta_t, "event_count": teg.vertex_count, "edges": edges}))
