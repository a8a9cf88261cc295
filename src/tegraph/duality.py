"""Event-free edge-labelled event graphs and the inverse map back to events.

An edge-labelled event graph keeps only the structure of an event graph:
vertex count, upper-triangular sparse inter-event times (tau) and motif
labels (mu), plus optional anchors pinning vertices to absolute times.
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
from typing import Mapping, TextIO

import numpy as np

from .components import _labels
from .events import _CHUNK, _MAX_IDS, TemporalNetwork, _first_seen, _id_array, _inverse, _readonly, _stable_sort, _starts
from .motifs import MOTIFS, Motif, prescribed_nodes
from .teg import _MOTIF_NAMES, Teg, _incidence_edges, _json_rows, _write_json

# per motif code, an id of its xi_out / xi_in label: equal ids, equal labels
_XI_OUT = np.unique([m.xi_out for m in MOTIFS], return_inverse=True)[1]
_XI_IN = np.unique([m.xi_in for m in MOTIFS], return_inverse=True)[1]
# per motif code, the later event's (source, target) as slots of the earlier
# event: 0 its source, 1 its target, -1 a new node
_SLOTS = np.array([[-1 if s is None else s for s in prescribed_nodes(m, 0, 1)] for m in MOTIFS])
_MOTIF_CODE = {m.value: c for c, m in enumerate(MOTIFS)}
_REAL = (int, float, np.integer, np.floating)  # bool is an int, and rejected apart


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


class EdgeLabelledTeg:
    """Event graph stripped of its events, as read-only numpy columns.

    Edge k runs from vertex ``heads[k]`` to ``tails[k] > heads[k]`` with
    positive inter-event time ``taus[k]`` and motif ``MOTIFS[codes[k]]``;
    edges are unique and sorted by (head, tail). ``anchor_vertices``
    (ascending) and ``anchor_times`` optionally pin vertices to absolute
    times. The constructor takes ``tau`` and ``mu`` over the same pairs
    (i, j), and ``anchors``, as mappings; the properties of those names
    build new dicts on each access.
    """

    __slots__ = ("vertex_count", "heads", "tails", "taus", "codes", "anchor_vertices", "anchor_times")

    def __init__(
        self,
        vertex_count: int,
        tau: Mapping[tuple[int, int], float],
        mu: Mapping[tuple[int, int], Motif],
        anchors: Mapping[int, float] | None = None,
    ):
        if set(tau) != set(mu):
            extra = set(tau) ^ set(mu)
            raise ValueError(f"tau and mu must label identical edges, mismatch at {sorted(extra)}")
        for (i, j), t in tau.items():
            if bool in (type(i), type(j)) or not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"edge key ({i},{j}) must satisfy 0 <= i < j < {vertex_count}")
            if type(t) is bool or not isinstance(t, _REAL):
                raise ValueError(f"tau[{i},{j}] must be positive and finite, got {t}")
            if not isinstance(mu[i, j], Motif):
                raise ValueError(f"mu[{(i, j)}] must be a Motif, got {mu[i, j]!r}")
        anchors = anchors or {}
        for v, t in anchors.items():
            if type(v) is bool or not isinstance(v, int):
                raise ValueError(f"anchor vertex {v!r} out of range")
            if type(t) is bool or not isinstance(t, _REAL):
                raise ValueError(f"anchor time for vertex {v} must be finite, got {t}")
        keys = list(tau)
        codes = [MOTIFS.index(mu[key]) for key in keys]
        heads, tails = [i for i, _ in keys], [j for _, j in keys]
        self._fill(vertex_count, heads, tails, list(tau.values()), codes, list(anchors), list(anchors.values()))

    @classmethod
    def _from_columns(cls, vertex_count, heads, tails, taus, codes, anchor_vertices=(), anchor_times=()):
        """Graph of unique edge columns in any order, checked as the constructor
        checks its mappings; an error names the first offending edge or anchor."""
        g = cls.__new__(cls)
        g._fill(vertex_count, heads, tails, taus, codes, anchor_vertices, anchor_times)
        return g

    def _fill(self, n, heads, tails, taus, codes, anchor_vertices, anchor_times):
        if type(n) is bool or not isinstance(n, int) or n > _MAX_IDS:
            raise ValueError(f"vertex_count must be an integer of at most {_MAX_IDS}, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex_count must be non-negative, got {n}")
        heads, tails, taus = _id_array(heads), _id_array(tails), np.asarray(taus, np.float64)
        bad_key = ~((0 <= heads) & (heads < tails) & (tails < n))
        bad = np.flatnonzero(bad_key | ~((taus > 0) & (taus < inf)))
        if len(bad):
            i, j, k = int(heads[bad[0]]), int(tails[bad[0]]), bad[0]
            if bad_key[k]:
                raise ValueError(f"edge key ({i},{j}) must satisfy 0 <= i < j < {n}")
            raise ValueError(f"tau[{i},{j}] must be positive and finite, got {float(taus[k])}")
        vertices, times = _id_array(anchor_vertices), np.asarray(anchor_times, np.float64)
        bad_vertex = ~((0 <= vertices) & (vertices < n))
        bad = np.flatnonzero(bad_vertex | ~np.isfinite(times))
        if len(bad):
            v, k = int(vertices[bad[0]]), bad[0]
            if bad_vertex[k]:
                raise ValueError(f"anchor vertex {v!r} out of range")
            raise ValueError(f"anchor time for vertex {v} must be finite, got {float(times[k])}")
        order = np.argsort(heads * n + tails)  # unique keys, so any sort is stable
        self.vertex_count = n
        self.heads, self.tails = _readonly(heads[order]), _readonly(tails[order])
        self.taus, self.codes = _readonly(taus[order]), _readonly(np.asarray(codes, np.uint8)[order])
        order = np.argsort(vertices)
        self.anchor_vertices, self.anchor_times = _readonly(vertices[order], np.int64), _readonly(times[order])

    @property
    def edge_count(self) -> int:
        return len(self.heads)

    @property
    def tau(self) -> dict[tuple[int, int], float]:
        return dict(zip(zip(self.heads.tolist(), self.tails.tolist()), self.taus.tolist()))

    @property
    def mu(self) -> dict[tuple[int, int], Motif]:
        return dict(zip(zip(self.heads.tolist(), self.tails.tolist()), [MOTIFS[c] for c in self.codes.tolist()]))

    @property
    def anchors(self) -> dict[int, float] | None:
        return dict(zip(self.anchor_vertices.tolist(), self.anchor_times.tolist())) or None

    def __repr__(self) -> str:
        anchors = len(self.anchor_vertices)
        return f"EdgeLabelledTeg({self.vertex_count} vertices, {self.edge_count} edges, {anchors} anchors)"


def strip_events(teg: Teg, keep_anchors: bool = False) -> EdgeLabelledTeg:
    """Drop the event sequence, keeping the labelled structure.

    With ``keep_anchors`` every vertex is pinned to its absolute event
    time, so reconstruction recovers absolute times in every component.
    """
    anchors = (np.arange(teg.vertex_count), teg.network.times) if keep_anchors else ()
    return EdgeLabelledTeg._from_columns(teg.vertex_count, teg.heads, teg.tails, teg.iets, teg.codes, *anchors)


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


def _potentials(n, heads, tails, taus, out_ptr, in_heads, in_tails, in_taus, in_ptr):
    """Every vertex's time relative to the first vertex of its weakly
    connected component, the vertices in visiting order and where each
    component starts in it.

    A breadth-first search from each component's smallest vertex sums tau
    along the edges it crosses, scanning a vertex's out-edges by tail and
    then its in-edges by head (an in-edge adds its negated tau). Every
    component is searched at once, one level per numpy round: the round
    expands the whole frontier and keeps each new vertex's first occurrence
    in frontier order and then adjacency order, which is the discoverer a
    FIFO queue gives it. After ``_DEEP`` narrow levels in a row (a long
    path) the remaining queue goes to the FIFO loop, ``_fifo``, which
    continues it exactly. So every vertex gets the potential, to the bit, of
    one FIFO search per component, and ``order`` lists each component's
    vertices in that search's visiting order.
    """
    ptr = out_ptr + in_ptr  # each vertex's out-edges, then its in-edges
    ends, steps = np.empty(2 * len(heads), np.int64), np.empty(2 * len(heads))
    at_out, at_in = np.arange(len(heads)) + in_ptr[heads], np.arange(len(heads)) + out_ptr[in_tails + 1]
    ends[at_out], ends[at_in], steps[at_out], steps[at_in] = tails, in_heads, taus, -in_taus
    root = _labels(n, heads, tails)
    roots = np.flatnonzero(root == np.arange(n))
    pot, seen = np.zeros(n), bytearray(n)
    reached = np.frombuffer(seen, np.bool_)
    reached[roots] = True
    visited, frontier, narrow = [roots], roots, 0
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
        visited.append(frontier)
        narrow = narrow + 1 if len(frontier) < _NARROW else 0
    if len(frontier):
        queue, potentials = frontier.tolist(), pot.tolist()
        _fifo(queue, potentials, ptr.tolist(), ends.tolist(), steps.tolist(), seen)
        pot = np.array(potentials)
        visited.append(np.array(queue[len(frontier) :], np.int64))
    visited = np.concatenate(visited)
    order = visited[_stable_sort(root[visited])[1]]
    return pot, order, np.searchsorted(root[order], roots)


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
    columns (numpy arrays), components with their relative times from one
    level-synchronous search (``_potentials``), and node resolution.
    Components are numbered by first vertex."""

    def __init__(self, g: EdgeLabelledTeg):
        n = self.n = g.vertex_count
        self.g, self.keys = g, g.heads * n + g.tails
        self.in_tails, by_tail = _stable_sort(g.tails)  # each vertex's in-edges by head
        self.in_heads, self.in_codes = g.heads[by_tail], g.codes[by_tail]
        self.out_ptr = np.searchsorted(g.heads, np.arange(n + 1))
        self.in_ptr = np.searchsorted(self.in_tails, np.arange(n + 1))
        self.pot, self.order, self.starts = _potentials(
            n, g.heads, g.tails, g.taus, self.out_ptr, self.in_heads, self.in_tails, g.taus[by_tail], self.in_ptr
        )
        self.label = np.empty(n, np.int64)
        self.label[self.order] = np.repeat(np.arange(len(self.starts)), np.diff(self.starts, append=n))
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
    gives no edge) other than the ``held`` keys, the input edges whose tau C1
    accepts; keys with an endpoint where ``dirty`` is set are skipped."""
    n, keys, labels = p.n, p.keys, p.g.codes
    heads, tails, codes = _incidence_edges(p.sources, p.targets, np.arange(n, dtype=np.float64), inf)
    gapped = p.pot[heads] != p.pot[tails]
    # a tau that C1 accepts is a gap (taus are positive) even where the
    # potentials round equal, as one ulp apart can
    tied = np.flatnonzero(~gapped)
    gapped[tied] = np.isin(heads[tied] * n + tails[tied], held)
    rebuilt, codes = heads[gapped] * n + tails[gapped], codes[gapped]
    missing = np.setdiff1d(rebuilt, keys, assume_unique=True)
    bad = np.sort(np.concatenate([keys[_code_at(rebuilt, codes, keys) != labels], missing]))
    bad = bad[~(dirty[bad // n] | dirty[bad % n])]

    violations = []
    given, derived = _code_at(keys, labels, bad).tolist(), _code_at(rebuilt, codes, bad).tolist()
    for k, label, code in zip(bad.tolist(), given, derived):
        i, j = divmod(k, n)
        if label < 0:
            detail = (
                f"the node structure implied by the other edges requires an edge "
                f"labelled {MOTIFS[code]}; none exists"
            )
        else:
            got = "no edge" if code < 0 else MOTIFS[code].value
            detail = (
                f"label {MOTIFS[label]} contradicts the node structure implied "
                f"by the other edges, which gives {got}"
            )
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
    placed = np.lexsort((p.order[p.starts], start))  # by (start time, first vertex)
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
    return TemporalNetwork._from_columns(sources, targets, times[order], node_ids)


def save_edge_labelled(g: EdgeLabelledTeg, stream: TextIO) -> None:
    """JSON dump; tau values survive a round-trip bit-exactly. Rows are
    written a bounded chunk at a time."""
    edges = _json_rows(_EDGE_ROW, g.heads, g.tails, g.taus, _MOTIF_NAMES[g.codes])
    fields = {"vertex_count": str(g.vertex_count), "edges": ("[]", edges)}
    if len(g.anchor_vertices):
        fields["anchors"] = ("{}", _json_rows(_ANCHOR_ROW, g.anchor_vertices, g.anchor_times))
    _write_json(stream, fields)


_NUMBER = {int, float}  # JSON true and false load as bool, which is neither


def _json_columns(text: str):
    """Vertex count, edge columns and anchor columns of any JSON document,
    through ``json.loads``; ValueError, with the document's first fault,
    unless it is a graph."""
    doc = json.loads(text)
    try:
        count = doc["vertex_count"]
        if type(count) is not int:
            raise ValueError(f"vertex_count must be a JSON integer, got {count!r}")
        edges = doc["edges"]
        heads, tails, taus, names = ([rec[field] for rec in edges] for field in ("i", "j", "tau", "motif"))
        for k, (i, j, t) in enumerate(zip(heads, tails, taus)):
            if type(i) is not int or type(j) is not int or type(t) not in _NUMBER:
                raise ValueError(f"edge {k} needs integer i and j and a numeric tau, got {edges[k]!r}")
        try:
            codes = [_MOTIF_CODE[name] for name in names]
        except (KeyError, TypeError):
            codes = [Motif(name) for name in names]  # raises for the first bad name
        taus = np.array(taus, np.float64)
        anchors = doc.get("anchors", {})
        if type(anchors) is not dict:
            raise ValueError(f"anchors must be a JSON object, got {anchors!r}")
        vertices = list(map(int, anchors))
        for v, key, t in zip(vertices, anchors, anchors.values()):
            if str(v) != key:
                raise ValueError(f"anchor key {key!r} is not a vertex index")
            if type(t) not in _NUMBER:
                raise ValueError(f"anchor of vertex {key} must be a JSON number, got {t!r}")
        times = np.array(list(anchors.values()), np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed edge-labelled graph JSON: {exc}") from None
    return count, heads, tails, taus, codes, vertices, times


# save_edge_labelled's layout: one row per edge or anchor, rows joined by ",\n"
_EDGE_ROW = '  {\n   "i": %d,\n   "j": %d,\n   "tau": %r,\n   "motif": "%s"\n  }'
_ANCHOR_ROW = '  "%d": %r'
_HEAD, _END = '{\n "vertex_count": ', "\n}\n"
_NO_EDGES, _EDGES, _ANCHORS = ',\n "edges": []', ',\n "edges": [\n', ',\n "anchors": {\n'
# what a value can hold: digits, the signs of a JSON number and motif letters;
# the rows' own text holds none of them
_VALUE_CHARS = b"0123456789.eE+-ABC"
_TOKENS = bytes(c if c in _VALUE_CHARS else 32 for c in range(256))  # the rest to spaces
_MOTIF_BYTES = {m.value.encode(): c for c, m in enumerate(MOTIFS)}


def _layout_rows(text: str, start: int, stop: int, row: str):
    """The value tokens of the rows ``text[start:stop]``, laid out as the
    writer lays out ``row``, as one list of tokens per value, a bounded chunk
    of rows at a time; raises ValueError where the text differs.

    A chunk is that layout when deleting every value character leaves the
    rows' own text, no value is empty (the writer quotes each value, or puts
    it between ": " and a comma or the end), and the value characters form
    one token per value. The tokens are isolated, not read: ``_values``
    reads them.
    """
    width, joint = row.count("%"), ",\n" + row[: row.index("%")]
    bare = row.replace("%d", "").replace("%r", "").replace("%s", "").encode()
    while start < stop:
        cut = text.find(joint, start + _CHUNK, stop)
        cut = stop if cut < 0 else cut
        chunk = text[start:cut].encode("ascii")
        tokens = chunk.translate(_TOKENS).split()
        rows, extra = divmod(len(tokens), width)
        if extra or chunk.translate(None, _VALUE_CHARS) != b",\n".join([bare] * rows):
            raise ValueError("not the writer's layout")
        if b'""' in chunk or b": ," in chunk or chunk.endswith(b": "):
            raise ValueError("not the writer's layout")
        yield [tokens[k::width] for k in range(width)]
        start = cut + 2


def _values(tokens: list[bytes], types, dtype) -> np.ndarray:
    """The JSON values of ``tokens``, read by ``json.loads`` as one list, as
    a ``dtype`` column; ValueError unless each value's type is in ``types``,
    OverflowError past int64."""
    values = json.loads(b"[" + b",".join(tokens) + b"]")
    if not set(map(type, values)) <= types:
        raise ValueError("a value of another JSON type")
    return np.array(values, dtype)


def _layout_columns(text: str):
    """Vertex count, edge columns and anchor columns of ``text`` when it is
    exactly the layout ``save_edge_labelled`` writes, with anchors ascending;
    None otherwise. The layout check isolates each value's token, a bounded
    chunk of rows at a time, and ``json.loads`` reads the tokens, so the
    values are those the ``json.loads`` path reads."""
    try:
        at = text.find(",", len(_HEAD))
        if not text.startswith(_HEAD) or at < 0:
            return None
        count = json.loads(text[len(_HEAD) : at])
        if type(count) is not int:
            return None
        edges = [[np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.uint8)]]
        anchors = [[np.empty(0, np.int64)], [np.empty(0)]]
        if text.startswith(_NO_EDGES, at):
            at += len(_NO_EDGES)
        elif text.startswith(_EDGES, at):
            stop = text.find("\n ]", at)
            for i, j, tau, names in _layout_rows(text, at + len(_EDGES), stop, _EDGE_ROW):
                edges[0].append(_values(i, {int}, np.int64))
                edges[1].append(_values(j, {int}, np.int64))
                edges[2].append(_values(tau, _NUMBER, np.float64))
                edges[3].append(np.array([_MOTIF_BYTES[name] for name in names], np.uint8))
            at = stop + 3
        else:
            return None
        if text.startswith(_ANCHORS, at):
            stop = text.find("\n }", at)
            for vertices, times in _layout_rows(text, at + len(_ANCHORS), stop, _ANCHOR_ROW):
                if not b"".join(vertices).isdigit():  # a key is a JSON string: "-0" is not vertex 0
                    return None
                anchors[0].append(_values(vertices, {int}, np.int64))
                anchors[1].append(_values(times, _NUMBER, np.float64))
            at = stop + 3
        if text[at:] != _END:
            return None
    except (ValueError, OverflowError, KeyError):
        return None
    (heads, tails, taus, codes), (vertices, times) = map(np.concatenate, edges), map(np.concatenate, anchors)
    if (vertices[1:] <= vertices[:-1]).any():
        return None  # JSON keeps the last of repeated keys
    return count, heads, tails, taus, codes, vertices, times


def load_edge_labelled(stream: TextIO) -> EdgeLabelledTeg:
    """Read what ``save_edge_labelled`` writes; ValueError for anything else.

    In the writer's own layout, a check of a bounded chunk of rows at a time
    isolates each value, and ``json.loads`` reads each column's values as
    one list. Any other JSON layout, and any fault, goes through
    ``json.loads`` of the whole text instead, which reads the same graph
    from any layout and names the fault. Either way one parser reads the
    numbers, so both give the same columns.
    """
    text = stream.read()
    count, heads, tails, taus, codes, vertices, times = _layout_columns(text) or _json_columns(text)
    g = EdgeLabelledTeg._from_columns(count, heads, tails, taus, codes, vertices, times)
    keys = g.heads * count + g.tails
    if np.any(keys[1:] == keys[:-1]):  # name the first duplicate in file order
        keys = np.array(heads, np.int64) * count + tails
        keys, order = _stable_sort(keys)
        k = order[1:][keys[1:] == keys[:-1]].min()
        raise ValueError(f"malformed edge-labelled graph JSON: duplicate edge {(int(heads[k]), int(tails[k]))}")
    return g
