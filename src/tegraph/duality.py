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
  implies. Node identities are resolved from the labels once, in vertex
  index order (every edge's tail comes before its head), and the event
  graph of the resolved events is rebuilt, with the vertex index as time
  and no waiting window: every edge it has and the input lacks, every
  input edge it lacks, and every label it gives differently is a
  violation. An event graph is a lossless representation, so a graph that
  survives this rebuild is the event graph of its resolved events.

``check_consistency`` reports every violation; ``reconstruct`` inverts a
consistent graph into a temporal network from the same single pass,
exactly one network per weakly connected component up to time
translation (anchored vertices land exactly on their anchor times).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import inf, isfinite, isqrt
from typing import Mapping, TextIO

import numpy as np

from .events import TemporalNetwork, _first_seen, _id_array, _readonly
from .motifs import MOTIFS, Motif, prescribed_nodes
from .teg import Teg, _incidence_edges, _json_items, _write_json

# per motif code, an id of its xi_out / xi_in label: equal ids, equal labels
_XI_OUT = np.unique([m.xi_out for m in MOTIFS], return_inverse=True)[1]
_XI_IN = np.unique([m.xi_in for m in MOTIFS], return_inverse=True)[1]
# per motif code, the later event's (source, target) as slots of the earlier
# event: 0 its source, 1 its target, None a new node
_SLOTS = [prescribed_nodes(m, 0, 1) for m in MOTIFS]
_MOTIF_CODE = {m.value: c for c, m in enumerate(MOTIFS)}
_MAX_VERTICES = isqrt(2**63 - 1)  # edge keys i * n + j are int64
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
        if type(n) is bool or not isinstance(n, int) or n > _MAX_VERTICES:
            raise ValueError(f"vertex_count must be an integer of at most {_MAX_VERTICES}, got {n!r}")
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
        order = np.argsort(heads * n + tails, kind="stable")  # in range, so both are int64
        self.vertex_count = n
        self.heads, self.tails = _readonly(heads[order]), _readonly(tails[order])
        self.taus, self.codes = _readonly(taus[order]), _readonly(np.asarray(codes, np.uint8)[order])
        order = np.argsort(vertices)
        self.anchor_vertices, self.anchor_times = _readonly(vertices[order], np.int64), _readonly(times[order])

    @property
    def edge_count(self) -> int:
        return len(self.heads)

    def edge_keys(self) -> list[tuple[int, int]]:
        return list(zip(self.heads.tolist(), self.tails.tolist()))

    @property
    def tau(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.edge_keys(), self.taus.tolist()))

    @property
    def mu(self) -> dict[tuple[int, int], Motif]:
        return dict(zip(self.edge_keys(), [MOTIFS[c] for c in self.codes.tolist()]))

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


def _potentials(n, out_ptr, out_ends, out_taus, in_ptr, in_ends, in_taus):
    """Every vertex's time relative to the first vertex of its weakly
    connected component, the vertices in visiting order and where each
    component starts in it. Each vertex not yet reached, in ascending order,
    starts a breadth-first search that sums tau along the edges it crosses,
    out-edges by tail before in-edges by head."""
    pot: list[float | None] = [None] * n
    order, starts = [], []
    for start in range(n):
        if pot[start] is not None:
            continue
        pot[start] = 0.0
        comp = [start]
        for v in comp:  # grows while iterated: a FIFO queue
            here = pot[v]
            for k in range(out_ptr[v], out_ptr[v + 1]):
                w = out_ends[k]
                if pot[w] is None:
                    pot[w] = here + out_taus[k]
                    comp.append(w)
            for k in range(in_ptr[v], in_ptr[v + 1]):
                u = in_ends[k]
                if pot[u] is None:
                    pot[u] = here - in_taus[k]
                    comp.append(u)
        starts.append(len(order))
        order += comp
    return pot, order, starts


def _resolve_nodes(n, in_ptr, in_heads, in_codes):
    """Node pairs implied by the labels, resolving vertices in index order:
    edges increase the index, so every edge's tail comes before its head.

    Returns the source and target label lists, the unresolvable-prescription
    violations, and the vertices whose resolution hit a conflict (their
    pairs are best-effort). Conflicts between in-edges whose destination
    labels already collide are left for C3 to report.
    """
    sources, targets = [0] * n, [0] * n
    violations: list[Violation] = []
    dirty, label = set(), 0
    for v in range(n):
        nodes: list[int | None] = [None, None]  # source, target
        setters = [0, 0]  # the in-edge that prescribed each
        edges = range(in_ptr[v], in_ptr[v + 1])
        for k in edges:
            u = in_heads[k]
            ends = (sources[u], targets[u])
            for pos, slot in enumerate(_SLOTS[in_codes[k]]):
                if slot is None:
                    continue
                if nodes[pos] is not None and nodes[pos] != ends[slot]:
                    dirty.add(v)
                    first = setters[pos]
                    if _XI_IN[in_codes[first]] != _XI_IN[in_codes[k]]:
                        detail = f"in-edges of vertex {v} prescribe different {('source', 'target')[pos]} nodes"
                        violations.append(Violation("C4", (v,), ((in_heads[first], v), (u, v)), detail))
                else:
                    nodes[pos], setters[pos] = ends[slot], k
        for pos in (0, 1):
            if nodes[pos] is None:
                nodes[pos] = label
                label += 1
        source, target = nodes
        if source == target:
            dirty.add(v)
            detail = f"in-edges of vertex {v} collapse its two nodes into one"
            violations.append(Violation("C4", (v,), tuple((in_heads[k], v) for k in edges), detail))
            target = label
            label += 1
        sources[v], targets[v] = source, target
    return sources, targets, violations, dirty


class _Pass:
    """One pass over a labelled graph, shared by the check and the
    reconstruction: compressed out- and in-adjacency over the sorted edge
    columns, components with their relative times, and node resolution.
    Components are numbered by first vertex."""

    def __init__(self, g: EdgeLabelledTeg):
        n = self.n = g.vertex_count
        self.g, self.keys = g, g.heads * n + g.tails
        by_tail = np.argsort(g.tails, kind="stable")  # each vertex's in-edges by head
        self.in_heads, self.in_tails, self.in_codes = g.heads[by_tail], g.tails[by_tail], g.codes[by_tail]
        self.out_ptr = np.searchsorted(g.heads, np.arange(n + 1)).tolist()
        self.in_ptr = np.searchsorted(self.in_tails, np.arange(n + 1)).tolist()
        in_heads = self.in_heads.tolist()
        pot, order, starts = _potentials(
            n, self.out_ptr, g.tails.tolist(), g.taus.tolist(), self.in_ptr, in_heads, g.taus[by_tail].tolist()
        )
        self.pot = np.array(pot, np.float64)
        self.order, self.starts = np.array(order, np.int64), np.array(starts, np.int64)
        self.label = np.empty(n, np.int64)
        self.label[self.order] = np.repeat(np.arange(len(starts)), np.diff(starts + [n]))
        self.low, self.high = self.reduce(np.minimum, self.pot), self.reduce(np.maximum, self.pot)
        resolved = _resolve_nodes(n, self.in_ptr, in_heads, self.in_codes.tolist())
        sources, targets, self.resolution, self.conflicted = resolved
        self.sources, self.targets = np.array(sources, np.int64), np.array(targets, np.int64)

    def reduce(self, ufunc, values):
        """``ufunc`` reduced over each component's entries of ``values``."""
        return ufunc.reduceat(values[self.order], self.starts)


def _code_at(keys, codes, query):
    """Motif code of every key in ``query`` among the sorted ``keys``, -1 where absent."""
    pos = np.searchsorted(keys, query)
    hit = np.append(keys, -1)[pos] == query
    return np.where(hit, np.append(codes, -1)[pos], -1)


def _c4_violations(p: _Pass, dirty) -> list[Violation]:
    """Every edge key where the graph differs from the event graph of the resolved
    events at time = vertex index, skipping keys with an endpoint in ``dirty``."""
    n, keys, labels = p.n, p.keys, p.g.codes
    heads, tails, codes = _incidence_edges(p.sources, p.targets, np.arange(n, dtype=np.float64), inf)
    rebuilt = heads * n + tails
    missing = np.setdiff1d(rebuilt, keys, assume_unique=True)
    bad = np.sort(np.concatenate([keys[_code_at(rebuilt, codes, keys) != labels], missing]))
    is_dirty = np.zeros(n, dtype=bool)
    is_dirty[np.fromiter(dirty, np.int64, len(dirty))] = True
    bad = bad[~(is_dirty[bad // n] | is_dirty[bad % n])]

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
    # vertices whose node resolution conflicted
    dirty = {v for violation in violations for key in violation.edges for v in key}
    dirty |= p.conflicted

    # C1: every edge re-checked against the breadth-first relative times,
    # within a tolerance from its component's span, by (component, head, tail).
    gaps, comp = p.pot[tails] - p.pot[heads], p.label[heads]
    tol = rel_tol * np.maximum(1.0, p.high - p.low)
    bad = np.flatnonzero(np.abs(gaps - g.taus) > tol[comp])
    bad = bad[np.argsort(comp[bad], kind="stable")]
    for v, w, gap, tau in zip(*(column[bad].tolist() for column in (heads, tails, gaps, g.taus))):
        detail = f"path sums disagree: relative times give {gap!r}, tau is {tau!r}"
        violations.append(Violation("C1", (v, w), ((v, w),), detail))

    # C4: the resolution's own contradictions, then the rebuild certificate.
    violations.extend(p.resolution)
    violations.extend(_c4_violations(p, dirty))
    return ConsistencyReport(tuple(violations))


def check_consistency(g: EdgeLabelledTeg, rel_tol: float = 1e-12) -> ConsistencyReport:
    """Test conditions C1-C4 and report every violation found.

    C1 compares tau sums with a tolerance relative to the component's time
    span (exact inputs are checked exactly: integer or dyadic taus leave no
    rounding residue); ``rel_tol`` must be non-negative. C2/C3 compare
    labels. C4 resolves node identities from the labels once, in vertex
    index order across the whole graph, rebuilds the event graph of the
    resolved events with the vertex index as time and no waiting window,
    and reports every edge key where the rebuild and the input differ: a
    label the rebuild gives differently, an input edge it does not give,
    or an edge it gives that the input lacks. Keys with an endpoint whose
    node resolution conflicted, or that a C2/C3 violation names, are
    skipped; their fault is already reported.
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
    node identities the motif labels imply (resolved in vertex index
    order). Each component is then placed on its own: anchored vertices at
    their anchor time and the rest relative to the first anchor, or the
    earliest event at 0 without anchors. Components are laid out by
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
    rank = np.argsort(placed)
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
    """JSON dump; tau values survive a round-trip bit-exactly."""
    names = [m.value for m in MOTIFS]
    columns = (g.heads.tolist(), g.tails.tolist(), g.taus.tolist(), g.codes.tolist())
    row = '  {\n   "i": %d,\n   "j": %d,\n   "tau": %r,\n   "motif": "%s"\n  }'
    edges = [row % (i, j, t, names[c]) for i, j, t, c in zip(*columns)]
    fields = {"vertex_count": str(g.vertex_count), "edges": _json_items(edges)}
    if len(g.anchor_vertices):
        anchors = [f'  "{v}": {t!r}' for v, t in zip(g.anchor_vertices.tolist(), g.anchor_times.tolist())]
        fields["anchors"] = _json_items(anchors, "{}")
    _write_json(stream, fields)


_NUMBER = {int, float}  # JSON true and false load as bool, which is neither


def load_edge_labelled(stream: TextIO) -> EdgeLabelledTeg:
    """Read what ``save_edge_labelled`` writes; ValueError for anything else."""
    doc = json.load(stream)
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
    g = EdgeLabelledTeg._from_columns(count, heads, tails, taus, codes, vertices, times)
    keys = g.heads * count + g.tails
    if np.any(keys[1:] == keys[:-1]):  # name the first duplicate in file order
        keys = np.array(heads, np.int64) * count + tails
        order = np.argsort(keys, kind="stable")
        k = order[1:][keys[order[1:]] == keys[order[:-1]]].min()
        raise ValueError(f"malformed edge-labelled graph JSON: duplicate edge {(heads[k], tails[k])}")
    return g
