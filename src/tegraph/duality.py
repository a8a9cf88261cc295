"""Event-free edge-labelled event graphs and the inverse map back to events.

An edge-labelled event graph keeps only the structure of an event graph:
the vertex count and, per edge (i, j) with i < j, its inter-event time (tau)
and motif label (mu), held as columns, plus optional anchors pinning
vertices to absolute times.
Four conditions characterise the graphs that arise from a real event
sequence:

* C1: all directed paths between two vertices carry the same tau sum
  (event times are well defined).
* C2: the out-edges of a vertex have pairwise distinct origin labels
  (each node of an event hands over to at most one subsequent event).
* C3: the in-edges of a vertex have pairwise distinct destination labels
  (no node position is prescribed twice).
* C4: labels must agree with the node structure the rest of the graph
  implies. Node identities are slot classes: each vertex has a source slot
  and a target slot, every label joins the slots it prescribes, and a node
  is a class of joined slots. A vertex whose two slots share a class is a
  violation. The event graph of the resolved events is then rebuilt, with
  the vertex index as time and no waiting window, except that two
  vertices of equal relative time get no edge, as a zero gap gives none,
  unless the input holds that edge with a tau C1 accepts (tau sums of
  times one ulp apart can round equal): every edge it has and the input
  lacks, every input edge it lacks, and every label it gives differently
  is a violation. An event graph is a lossless representation, so a graph
  that survives this rebuild is the event graph of its resolved events.

``check_consistency`` reports every violation; ``reconstruct`` inverts a
consistent graph into a temporal network from the same single pass,
exactly one network per weakly connected component up to time
translation (anchored vertices land exactly on their anchor times).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import inf, isfinite
from typing import TextIO

import numpy as np

from . import _text
from .components import _labels
from .events import TemporalNetwork, _column, _first_seen, _inverse, _readonly, _stable_sort, _starts
from .motifs import _CODES, _NAMES, _SLOTS, _XI_IN, _XI_OUT, MOTIFS, Motif
from .teg import EdgeLabelledTeg, Teg, _incidence_edges


class InconsistentGraphError(ValueError):
    """Raised when an operation needs a consistent graph and got violations."""

    def __init__(self, report: "ConsistencyReport"):
        super().__init__("graph is not a valid event graph:\n" + report.summary())
        self.report = report


class AnchorError(ValueError):
    """Anchors contradict the graph's relative times or each other."""


@dataclass(frozen=True)
class Violation:
    """One broken condition, located by the vertices and edges involved."""

    condition: str  # "C1".."C4"
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    detail: str

    def __str__(self) -> str:
        where = ", ".join(f"({i},{j})" for i, j in self.edges)
        return f"{self.condition} at {where or 'vertex ' + str(self.vertices)}: {self.detail}"


@dataclass(frozen=True)
class ConsistencyReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)

    def summary(self) -> str:
        if self.ok:
            return "consistent"
        return "\n".join(str(v) for v in self.violations)


def strip_events(teg: Teg, keep_anchors: bool = False) -> EdgeLabelledTeg:
    """Drop the event sequence, keeping the labelled structure.

    With ``keep_anchors`` every vertex is pinned to its absolute event
    time, so reconstruction recovers absolute times in every component.
    The result shares the read-only columns of ``teg``, and the anchor
    times are the network's own.
    """
    anchors = (_readonly(np.arange(teg.vertex_count)), teg.network.times) if keep_anchors else ()
    return EdgeLabelledTeg(teg.vertex_count, teg.heads, teg.tails, teg.taus, teg.codes, *anchors)


# _DEEP levels in a row narrower than _NARROW vertices (a long path) go to the
# FIFO loop: a numpy round costs tens of microseconds, a FIFO step under one,
# so a level costs about the same either way at a width of 32-48 (measured on
# parallel two-node chains of 5e4 events in all)
_NARROW, _DEEP = 64, 32


def _fifo(queue, pot, ptr, ends, steps, seen):
    """The FIFO search, over Python lists: scans the vertices of ``queue`` in
    turn, and appends to it every vertex a scan finds not yet ``seen``,
    setting its ``pot`` to the scanned vertex's plus the entry's step."""
    for v in queue:  # grows while iterated
        here = pot[v]
        for k in range(ptr[v], ptr[v + 1]):
            w = ends[k]
            if not seen[w]:
                seen[w] = 1
                pot[w] = here + steps[k]
                queue.append(w)


def _potentials(roots, ptr, ends, steps):
    """Every vertex's time relative to its weakly connected component's
    smallest vertex, one of the ascending ``roots``, over the merged
    adjacency ``ptr``, ``ends``, ``steps``: each vertex's out-edges by tail,
    then its in-edges by head, an in-edge stepping by its negated tau.

    A breadth-first search sums the steps along the edges it crosses.
    Every component is searched at once, one level per numpy round: the
    round expands the whole frontier and keeps each new vertex's first
    occurrence in frontier order and then adjacency order, which is the
    discoverer a FIFO queue gives it. After ``_DEEP`` narrow levels in a row
    (a long path) the remaining queue goes to the FIFO loop, ``_fifo``,
    which continues it exactly. So every vertex gets the potential, to the
    bit, of one FIFO search per component.
    """
    pot, seen = np.zeros(len(ptr) - 1), bytearray(len(ptr) - 1)
    reached = np.frombuffer(seen, np.bool_)
    reached[roots] = True
    frontier, narrow = roots, 0
    while len(frontier) and narrow < _DEEP:
        degree = ptr[frontier + 1] - ptr[frontier]
        entries = np.arange(degree.sum()) + np.repeat(ptr[frontier] - (np.cumsum(degree) - degree), degree)
        parents = np.repeat(frontier, degree)
        fresh = ~reached[ends[entries]]
        entries, parents = entries[fresh], parents[fresh]
        found = ends[entries]
        grouped, by_vertex = _stable_sort(found)
        first = np.sort(by_vertex[_starts(grouped)])
        frontier = found[first]
        pot[frontier] = pot[parents[first]] + steps[entries[first]]
        reached[frontier] = True
        narrow = narrow + 1 if len(frontier) < _NARROW else 0
    if len(frontier):
        potentials = pot.tolist()
        _fifo(frontier.tolist(), potentials, ptr.tolist(), ends.tolist(), steps.tolist(), seen)
        pot = np.array(potentials)
    return pot


def _resolve_nodes(n, heads, tails, codes):
    """Node labels of every vertex's source and target, and the mask of the
    vertices whose two nodes collapse into one.

    Slot 2v is vertex v's source and slot 2v + 1 its target. Each edge
    joins the slots of its later vertex to the slots of its earlier vertex
    that its label prescribes, and a node is a class of joined slots, named
    by its smallest slot. A collapsed vertex keeps its source class and
    takes the unused label 2v + 1 as its target.
    """
    slots = _SLOTS[codes]  # per edge, (source, target) slot of the head, -1 free
    given = slots >= 0
    later = 2 * tails[:, None] + np.arange(2)
    label = _labels(2 * n, later[given], (2 * heads[:, None] + slots)[given])
    sources, targets = label[0::2], label[1::2]
    collapsed = sources == targets
    targets[collapsed] = 2 * np.flatnonzero(collapsed) + 1
    return sources, targets, collapsed


class _Pass:
    """One pass over a labelled graph, shared by the check and the
    reconstruction: compressed out- and in-adjacency over the sorted edge
    columns (numpy arrays), the weakly connected components, numbered by
    first vertex, with ``order`` listing each one's vertices ascending from
    ``starts`` on, their relative times from one level-synchronous search
    (``_potentials``), and node resolution."""

    def __init__(self, g: EdgeLabelledTeg):
        n = self.n = g.vertex_count
        self.g, self.keys = g, g.heads * n + g.tails
        self.in_tails, by_tail = _stable_sort(g.tails)  # each vertex's in-edges by head
        self.in_heads, self.in_codes = g.heads[by_tail], g.codes[by_tail]
        self.out_ptr = np.searchsorted(g.heads, np.arange(n + 1))
        self.in_ptr = np.searchsorted(self.in_tails, np.arange(n + 1))
        grouped, self.order = _stable_sort(_labels(n, g.heads, g.tails))  # by root, the smallest vertex
        first = _starts(grouped)
        self.starts, self.label = np.flatnonzero(first), np.empty(n, np.int64)
        self.label[self.order] = np.cumsum(first) - 1
        ptr = self.out_ptr + self.in_ptr  # each vertex's out-edges, then its in-edges
        edges = np.arange(g.edge_count)
        ends, steps = np.empty(2 * len(edges), np.int64), np.empty(2 * len(edges))
        at_out, at_in = edges + self.in_ptr[g.heads], edges + self.out_ptr[self.in_tails + 1]
        ends[at_out], ends[at_in], steps[at_out], steps[at_in] = g.tails, self.in_heads, g.taus, -g.taus[by_tail]
        del edges, at_out, at_in, by_tail, grouped, first  # dead during the search
        self.pot = _potentials(self.order[self.starts], ptr, ends, steps)
        del ptr, ends, steps  # and during node resolution
        self.low, self.high = self.reduce(np.minimum, self.pot), self.reduce(np.maximum, self.pot)
        self.sources, self.targets, self.collapsed = _resolve_nodes(n, g.heads, g.tails, g.codes)

    def reduce(self, ufunc, values):
        """``ufunc`` reduced over each component's entries of ``values``."""
        return ufunc.reduceat(values[self.order], self.starts)


def _code_at(keys, codes, query):
    """Motif code of every key in ``query`` among the sorted ``keys``, -1 where absent."""
    pos = np.searchsorted(keys, query)
    hit = np.append(keys, -1)[pos] == query
    return np.where(hit, np.append(codes, -1)[pos], -1)


def _c4_violations(p: _Pass, dirty, held) -> list[Violation]:
    """Every edge key where the graph differs from the event graph of the resolved
    events at time = vertex index, less the pairs of equal potential (a zero gap
    gives no edge) other than the sorted ``held`` keys, the input edges whose tau C1
    accepts; keys with an endpoint where ``dirty`` is set are skipped."""
    n, keys, labels = p.n, p.keys, p.g.codes
    heads, tails, codes = _incidence_edges(p.sources, p.targets, np.arange(n, dtype=np.float64), inf)
    gapped = p.pot[heads] != p.pot[tails]
    # a tau that C1 accepts is a gap (taus are positive) even where the
    # potentials round equal, as one ulp apart can
    tied = np.flatnonzero(~gapped)
    query = heads[tied] * n + tails[tied]
    gapped[tied] = np.append(held, -1)[np.searchsorted(held, query)] == query
    rebuilt, codes = heads[gapped] * n + tails[gapped], codes[gapped]  # sorted, as _incidence_edges gives them
    missing = rebuilt[_code_at(keys, labels, rebuilt) < 0]
    bad = np.sort(np.concatenate([keys[_code_at(rebuilt, codes, keys) != labels], missing]))
    bad = bad[~(dirty[bad // n] | dirty[bad % n])]

    violations = []
    given, derived = _code_at(keys, labels, bad).tolist(), _code_at(rebuilt, codes, bad).tolist()
    for k, label, code in zip(bad.tolist(), given, derived):
        i, j = divmod(k, n)
        implied = "the node structure implied by the other edges"
        if label < 0:
            detail = f"{implied} requires an edge labelled {MOTIFS[code]}; none exists"
        else:
            got = "no edge" if code < 0 else MOTIFS[code].value
            detail = f"label {MOTIFS[label]} contradicts {implied}, which gives {got}"
        violations.append(Violation("C4", (i, j), ((i, j),), detail))
    return violations


def _check_rel_tol(rel_tol: float) -> None:
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be non-negative, got {rel_tol!r}")


def _repeats(ends, labels, n: int) -> list[int]:
    """Vertices, ascending, with more than two edges in ``ends`` or two of
    one label; ``ends`` must list each vertex's edges contiguously."""
    flagged = np.bincount(ends, minlength=n) > 2
    repeat = (ends[1:] == ends[:-1]) & (labels[1:] == labels[:-1])
    flagged[ends[1:][repeat]] = True
    return np.flatnonzero(flagged).tolist()


def _report(p: _Pass, rel_tol: float) -> ConsistencyReport:
    g, n = p.g, p.n
    heads, tails, codes = g.heads, g.tails, g.codes
    violations: list[Violation] = []

    # C2 / C3: label multiplicities per vertex, spelt out for the vertices
    # the columns flag.
    in_edges = (p.in_heads, p.in_tails, p.in_codes)
    sides = (
        ("C2", "out", "xi_out", _repeats(heads, _XI_OUT[codes], n), p.out_ptr, (heads, tails, codes)),
        ("C3", "in", "xi_in", _repeats(p.in_tails, _XI_IN[p.in_codes], n), p.in_ptr, in_edges),
    )
    for cond, side, attr, flagged, ptr, (edge_heads, edge_tails, edge_codes) in sides:
        for v in flagged:
            at = slice(ptr[v], ptr[v + 1])
            edges = list(zip(edge_heads[at].tolist(), edge_tails[at].tolist()))
            if len(edges) > 2:
                detail = f"vertex {v} has {len(edges)} {side}-edges; events have two nodes"
                violations.append(Violation(cond, (v,), tuple(edges), detail))
            labelled = [(key, getattr(MOTIFS[c], attr)) for key, c in zip(edges, edge_codes[at].tolist())]
            for (ka, la), (kb, lb) in combinations(labelled, 2):
                if la == lb:
                    detail = f"vertex {v} has two {side}-edges with label {la}"
                    violations.append(Violation(cond, (v,), (ka, kb), detail))

    # C4 skips the endpoints of every edge a C2/C3 violation names, and the
    # collapsed vertices
    dirty = p.collapsed.copy()
    dirty[[v for violation in violations for key in violation.edges for v in key]] = True

    # C1: every edge re-checked against the breadth-first relative times,
    # within a tolerance from its component's span, by (component, head, tail).
    gaps, comp = p.pot[tails] - p.pot[heads], p.label[heads]
    tol = rel_tol * np.maximum(1.0, p.high - p.low)
    off = np.abs(gaps - g.taus) > tol[comp]
    bad = np.flatnonzero(off)
    bad = bad[_stable_sort(comp[bad])[1]]
    for v, w, gap, tau in zip(*(column[bad].tolist() for column in (heads, tails, gaps, g.taus))):
        detail = f"path sums disagree: relative times give {gap!r}, tau is {tau!r}"
        violations.append(Violation("C1", (v, w), ((v, w),), detail))

    # C4: the collapsed vertices, then the rebuild certificate.
    for v in np.flatnonzero(p.collapsed).tolist():
        edges = tuple((u, v) for u in p.in_heads[p.in_ptr[v] : p.in_ptr[v + 1]].tolist())
        detail = f"in-edges of vertex {v} collapse its two nodes into one"
        violations.append(Violation("C4", (v,), edges, detail))
    violations.extend(_c4_violations(p, dirty, p.keys[~off]))
    return ConsistencyReport(tuple(violations))


def check_consistency(g: EdgeLabelledTeg, rel_tol: float = 1e-12) -> ConsistencyReport:
    """Test conditions C1-C4 and report every violation found.

    C1 compares tau sums with a tolerance relative to the component's time
    span (exact inputs are checked exactly: integer or dyadic taus leave no
    rounding residue); ``rel_tol`` must be non-negative. C2/C3 compare
    labels. C4 takes node identities as slot classes: the source and
    target slots of every vertex, joined wherever a label prescribes a node,
    and a vertex whose two slots share a class is a violation. It then
    rebuilds the event graph of the resolved events with the vertex index as
    time and no waiting window, giving no edge between two vertices of
    equal relative time (a zero gap gives none) unless the input holds that
    edge with a tau C1 accepts, and reports every edge key
    where the rebuild and the input differ: a label the rebuild gives
    differently, an input edge it does not give, or an edge it gives that
    the input lacks. Keys with a collapsed endpoint, or one that a C2/C3
    violation names, are skipped; their fault is already reported.
    """
    _check_rel_tol(rel_tol)
    return _report(_Pass(g), rel_tol)


def _absolute_times(g: EdgeLabelledTeg, p: _Pass, rel_tol: float):
    """Every vertex's absolute time and every component's earliest time.

    Anchored vertices take their anchor verbatim, the others their potential
    shifted by their component's first anchor, or, without anchors, so that
    the component starts at zero. The first component with a fault raises
    AnchorError: anchors that disagree, else a negative time.
    """
    vertices, anchored = g.anchor_vertices, g.anchor_times
    comp, shift = p.label[vertices], -p.low
    found, first = np.unique(comp, return_index=True)  # anchors ascend by vertex
    shift[found] = anchored[first] - p.pot[vertices[first]]
    scale = np.maximum(1.0, p.high - p.low)
    np.maximum.at(scale, comp, np.abs(anchored))
    drift = np.abs((anchored - p.pot[vertices]) - shift[comp])
    off = np.flatnonzero(drift > rel_tol * scale[comp])
    times = p.pot + shift[p.label]
    times[vertices] = anchored
    low = p.reduce(np.minimum, times)
    negative = np.flatnonzero(low < 0)
    if len(negative) and negative[0] < comp[off].min(initial=len(low)):
        raise AnchorError(f"anchors place the earliest event at negative time {float(low[negative[0]])!r}")
    if len(off):
        k = off[np.argmin(comp[off])]
        v0 = vertices[np.argmax(comp == comp[k])]
        raise AnchorError(
            f"anchors at vertices {v0} and {vertices[k]} disagree with the "
            f"graph's relative times by {float(drift[k])!r}"
        )
    return times, low


def reconstruct(
    g: EdgeLabelledTeg,
    *,
    rel_tol: float = 1e-12,
    layout: str = "overlay",
    spacing: float = 1.0,
) -> TemporalNetwork:
    """Invert an edge-labelled event graph into a temporal network.

    One pass over the graph, shared with ``check_consistency``, finds the
    weakly connected components, the relative times from tau sums and the
    node identities the motif labels imply (the slot classes of
    ``check_consistency``). Each component is then placed on its own:
    anchored vertices at their anchor time and the rest relative to the
    first anchor, or the earliest event at 0 without anchors. Components are laid out by
    (start time, first vertex index), and node labels are numbered by
    first appearance in that order, each component's events taken by
    (time, vertex index), source before target. The output is canonical
    per component; node labels never straddle components.

    ``layout="end_to_end"`` instead places the components one after
    another, ``spacing`` apart, ignoring anchors; useful for display when
    anchor-less components would otherwise pile up at time 0.

    Raises InconsistentGraphError with the full ``check_consistency``
    report when the graph has violations; ValueError for a NaN or negative
    ``rel_tol``; and AnchorError for contradictory anchors.
    """
    _check_rel_tol(rel_tol)
    if layout not in ("overlay", "end_to_end"):
        raise ValueError(f"layout must be 'overlay' or 'end_to_end', got {layout!r}")
    if layout == "end_to_end" and not (isfinite(spacing) and spacing >= 0):
        raise ValueError(f"spacing must be non-negative and finite, got {spacing!r}")
    p = _Pass(g)
    report = _report(p, rel_tol)
    if not report.ok:
        raise InconsistentGraphError(report)

    times, start = _absolute_times(g, p, rel_tol)
    placed = np.argsort(start, kind="stable")  # by start time, then number: first vertex
    rank = _inverse(placed)
    if layout == "end_to_end":
        widths = (p.reduce(np.maximum, times) - start).tolist()
        offsets, offset = np.empty(len(placed)), 0.0
        for c in placed.tolist():
            offsets[c] = offset
            offset = widths[c] + offset + spacing
        times = times - start[p.label] + offsets[p.label]
    order = np.lexsort((times, rank[p.label]))
    sources, targets, node_ids = _first_seen(p.sources[order], p.targets[order])
    return TemporalNetwork(sources, targets, times[order], node_ids)


def save_edge_labelled(g: EdgeLabelledTeg, stream: TextIO) -> None:
    """JSON dump; tau values survive a round-trip bit-exactly. Rows are
    written a bounded chunk at a time."""
    edges = ("[]", _EDGE_ROW, g.heads, g.tails, g.taus, (_NAMES.take, g.codes))
    fields = {"vertex_count": g.vertex_count, "edges": edges}
    if len(g.anchor_vertices):
        fields["anchors"] = ("{}", _ANCHOR_ROW, g.anchor_vertices, g.anchor_times)
    stream.writelines(_text.json_object(fields))


def _edge_lists(records):
    """Heads, tails, taus and motif codes of edge ``records``, each value as
    the record gives it; ValueError names the first motif name that is not a motif."""
    heads, tails, taus, names = ([rec[field] for rec in records] for field in ("i", "j", "tau", "motif"))
    try:
        codes = [_CODES[name] for name in names]
    except (KeyError, TypeError):
        codes = [Motif(name) for name in names]  # raises for the first bad name
    return heads, tails, taus, codes


def _anchor_lists(anchors: dict):
    """Vertices and times of the ``anchors`` object; ValueError for a key that
    is not a vertex index spelled as one ("-0" and "01" are not vertex 0 and 1)."""
    vertices = list(map(int, anchors))
    for v, key in zip(vertices, anchors):
        if str(v) != key:
            raise ValueError(f"anchor key {key!r} is not a vertex index")
    return vertices, list(anchors.values())


def _json_columns(text: str):
    """Vertex count, edge columns and anchor columns of any JSON document,
    through ``json.loads``, each value as the document gives it, for the
    constructor to check; ValueError unless the document has their shape."""
    doc = json.loads(text)
    try:
        count, edges = doc["vertex_count"], doc["edges"]
        heads, tails, taus, codes = _edge_lists(edges)
        anchors = doc.get("anchors", {})
        if type(anchors) is not dict:
            raise ValueError(f"anchors must be a JSON object, got {anchors!r}")
        vertices, times = _anchor_lists(anchors)
    except (KeyError, TypeError) as exc:
        raise ValueError(exc) from None
    return count, heads, tails, taus, codes, vertices, times


# save_edge_labelled's layout: one row per edge or anchor, rows joined by ",\n"
_EDGE_ROW = '  {\n   "i": %d,\n   "j": %d,\n   "tau": %r,\n   "motif": "%s"\n  }'
_ANCHOR_ROW = '  "%d": %r'
_HEAD, _END = '{\n "vertex_count": ', "\n}\n"
_NO_EDGES, _EDGES, _ANCHORS = ',\n "edges": []', ',\n "edges": [\n', ',\n "anchors": {\n'


def _typed(values: list, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` column, JSON numbers for float64 and JSON
    integers otherwise; ValueError where the constructor would refuse a value
    for its type or range."""
    column, wrong = _column(values, numbers=dtype == np.float64)
    if wrong.any() or column.dtype == object:
        raise ValueError("a value the constructor refuses")
    return column.astype(dtype, copy=False)


def _layout_columns(text: str):
    """Vertex count, edge columns and anchor columns of ``text`` when it has
    exactly the framing ``save_edge_labelled`` writes, with anchors ascending;
    None otherwise. ``json.loads`` reads the rows a bounded chunk at a time,
    ``_edge_lists`` and ``_anchor_lists`` take the values out as on the
    whole-text path, and each chunk's values become typed columns; a value
    the constructor refuses gives None, so that the whole-text path names it."""
    try:
        at = text.find(",", len(_HEAD))
        if not text.startswith(_HEAD) or at < 0:
            return None
        count = json.loads(text[len(_HEAD) : at])
        if type(count) is not int:
            return None
        edges = [[np.empty(0, dtype)] for dtype in (np.int64, np.int64, np.float64, np.uint8)]
        anchors = [[np.empty(0, np.int64)], [np.empty(0)]]
        if text.startswith(_NO_EDGES, at):
            at += len(_NO_EDGES)
        elif text.startswith(_EDGES, at):
            stop = text.find("\n ]", at)
            for records in _text.json_rows(text, at + len(_EDGES), stop, "[]", _EDGE_ROW):
                for column, values in zip(edges, _edge_lists(records)):
                    column.append(_typed(values, column[0].dtype))
            at = stop + 3
        else:
            return None
        if text.startswith(_ANCHORS, at):
            stop = text.find("\n }", at)
            for rows in _text.json_rows(text, at + len(_ANCHORS), stop, "{}", _ANCHOR_ROW):
                for column, values in zip(anchors, _anchor_lists(rows)):
                    column.append(_typed(values, column[0].dtype))
            at = stop + 3
        if text[at:] != _END:
            return None
    except (ValueError, OverflowError, KeyError, TypeError):
        return None
    (heads, tails, taus, codes), (vertices, times) = map(np.concatenate, edges), map(np.concatenate, anchors)
    if (vertices[1:] <= vertices[:-1]).any():
        return None  # JSON keeps the last of repeated keys
    return count, heads, tails, taus, codes, vertices, times


def load_edge_labelled(stream: TextIO) -> EdgeLabelledTeg:
    """Read what ``save_edge_labelled`` writes; ValueError for anything else.

    In the writer's own framing, ``json.loads`` reads the rows a bounded
    chunk at a time, and each chunk's values become typed columns. Any
    other JSON layout, and any fault, goes through ``json.loads`` of the
    whole text instead, which reads the same graph from any layout and
    names the fault. Both paths take the values out of the records with the
    same helpers, so both give the same columns.
    """
    text = stream.read()
    try:
        return EdgeLabelledTeg(*(_layout_columns(text) or _json_columns(text)))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"malformed edge-labelled graph JSON: {exc}") from None
