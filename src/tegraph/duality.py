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
from math import inf, isfinite
from typing import Mapping, TextIO

import numpy as np

from .events import TemporalNetwork, _first_seen
from .motifs import MOTIFS, Motif, prescribed_nodes
from .teg import Teg, _incidence_edges

_CODES = {m: c for c, m in enumerate(MOTIFS)}
# per motif code, an id of its xi_out / xi_in label: equal ids, equal labels
_XI_OUT = np.unique([m.xi_out for m in MOTIFS], return_inverse=True)[1]
_XI_IN = np.unique([m.xi_in for m in MOTIFS], return_inverse=True)[1]


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
    """Event graph stripped of its events.

    ``tau`` and ``mu`` are sparse upper-triangular matrices over vertex
    pairs (i, j) with i < j and must share the same key set; tau values are
    positive inter-event times, mu values motif labels. ``anchors``
    optionally pins vertices to absolute times.
    """

    __slots__ = ("vertex_count", "tau", "mu", "anchors")

    def __init__(
        self,
        vertex_count: int,
        tau: Mapping[tuple[int, int], float],
        mu: Mapping[tuple[int, int], Motif],
        anchors: Mapping[int, float] | None = None,
    ):
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
        if set(tau) != set(mu):
            extra = set(tau) ^ set(mu)
            raise ValueError(f"tau and mu must label identical edges, mismatch at {sorted(extra)}")
        for (i, j), t in tau.items():
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < vertex_count):
                raise ValueError(f"edge key ({i},{j}) must satisfy 0 <= i < j < {vertex_count}")
            if not (isfinite(t) and t > 0):
                raise ValueError(f"tau[{i},{j}] must be positive and finite, got {t}")
        for key, m in mu.items():
            if not isinstance(m, Motif):
                raise ValueError(f"mu[{key}] must be a Motif, got {m!r}")
        if anchors is not None:
            for v, t in anchors.items():
                if not (isinstance(v, int) and 0 <= v < vertex_count):
                    raise ValueError(f"anchor vertex {v!r} out of range")
                if not isfinite(t):
                    raise ValueError(f"anchor time for vertex {v} must be finite, got {t}")
        self.vertex_count = vertex_count
        self.tau = dict(tau)
        self.mu = dict(mu)
        self.anchors = dict(anchors) if anchors else None

    @property
    def edge_count(self) -> int:
        return len(self.tau)

    def edge_keys(self) -> list[tuple[int, int]]:
        return sorted(self.tau)

    def __repr__(self) -> str:
        anch = len(self.anchors) if self.anchors else 0
        return (
            f"EdgeLabelledTeg({self.vertex_count} vertices, "
            f"{self.edge_count} edges, {anch} anchors)"
        )


def strip_events(teg: Teg, keep_anchors: bool = False) -> EdgeLabelledTeg:
    """Drop the event sequence, keeping the labelled structure.

    With ``keep_anchors`` every vertex is pinned to its absolute event
    time, so reconstruction recovers absolute times in every component.
    """
    keys = list(zip(teg.heads.tolist(), teg.tails.tolist()))
    tau = dict(zip(keys, teg.iets.tolist()))
    mu = dict(zip(keys, [MOTIFS[c] for c in teg.codes.tolist()]))
    anchors = dict(enumerate(teg.network.times.tolist())) if keep_anchors else None
    return EdgeLabelledTeg(teg.vertex_count, tau, mu, anchors)


def _adjacency(g: EdgeLabelledTeg):
    out: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    incoming: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for key in g.edge_keys():
        i, j = key
        out.setdefault(i, []).append((j, key))
        incoming.setdefault(j, []).append((i, key))
    return out, incoming


def _components(g: EdgeLabelledTeg, out, incoming):
    """Weakly connected components, each ascending and ordered by first
    vertex, and every vertex's time relative to its component's first
    vertex. Each vertex not yet reached, in ascending order, starts a
    breadth-first search that sums tau along the edges it crosses."""
    tau = g.tau
    pot: list[float | None] = [None] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if pot[start] is not None:
            continue
        pot[start] = 0.0
        comp = [start]
        for v in comp:  # grows while iterated: a FIFO queue
            for w, key in out.get(v, ()):
                if pot[w] is None:
                    pot[w] = pot[v] + tau[key]
                    comp.append(w)
            for u, key in incoming.get(v, ()):
                if pot[u] is None:
                    pot[u] = pot[v] - tau[key]
                    comp.append(u)
        comp.sort()
        comps.append(comp)
    return comps, pot


def _resolve_nodes(g: EdgeLabelledTeg, incoming):
    """Node pairs implied by the labels, resolving vertices in index order:
    edges increase the index, so every edge's tail comes before its head.

    Returns the source and target label lists, the unresolvable-prescription
    violations, and the vertices whose resolution hit a conflict (their
    pairs are best-effort). Conflicts between in-edges whose destination
    labels already collide are left for C3 to report.
    """
    mu = g.mu
    sources, targets = [0] * g.vertex_count, [0] * g.vertex_count
    violations: list[Violation] = []
    dirty: set[int] = set()
    label = 0
    for v in range(g.vertex_count):
        nodes: list[int | None] = [None, None]  # source, target
        keys: list[tuple[int, int] | None] = [None, None]
        for u, key in incoming.get(v, ()):
            prescribed = prescribed_nodes(mu[key], sources[u], targets[u])
            for pos, (role, node) in enumerate(zip(("source", "target"), prescribed)):
                if node is None:
                    continue
                if nodes[pos] is not None and nodes[pos] != node:
                    dirty.add(v)
                    if mu[keys[pos]].xi_in != mu[key].xi_in:
                        violations.append(
                            Violation(
                                "C4",
                                (v,),
                                (keys[pos], key),
                                f"in-edges of vertex {v} prescribe different {role} nodes",
                            )
                        )
                else:
                    nodes[pos], keys[pos] = node, key
        for pos in (0, 1):
            if nodes[pos] is None:
                nodes[pos] = label
                label += 1
        source, target = nodes
        if source == target:
            dirty.add(v)
            violations.append(
                Violation(
                    "C4",
                    (v,),
                    tuple(key for _, key in incoming.get(v, ())),
                    f"in-edges of vertex {v} collapse its two nodes into one",
                )
            )
            target = label
            label += 1
        sources[v], targets[v] = source, target
    return sources, targets, violations, dirty


class _Pass:
    """One pass over a labelled graph, shared by the check and the
    reconstruction: adjacency, components with their relative times, and
    node resolution."""

    def __init__(self, g: EdgeLabelledTeg):
        self.out, self.incoming = _adjacency(g)
        self.comps, self.pot = _components(g, self.out, self.incoming)
        resolved = _resolve_nodes(g, self.incoming)
        self.sources, self.targets, self.resolution, self.conflicted = resolved


def _c4_violations(g: EdgeLabelledTeg, p: _Pass, dirty, keys, labels) -> list[Violation]:
    """Every edge key where ``g`` differs from the event graph of the
    resolved events at time = vertex index, skipping keys with an endpoint
    in ``dirty``. ``keys`` holds every edge (i, j) of ``g`` as i * n + j and
    ``labels`` its motif code."""
    n = g.vertex_count
    sources, targets = np.array(p.sources, np.int64), np.array(p.targets, np.int64)
    heads, tails, codes = _incidence_edges(sources, targets, np.arange(n, dtype=np.float64), inf)
    rebuilt = heads * n + tails

    def derived(query):
        """Rebuilt motif code of every key in ``query``, -1 where no edge."""
        pos = np.searchsorted(rebuilt, query)
        hit = np.append(rebuilt, -1)[pos] == query
        return np.where(hit, np.append(codes, -1)[pos], -1)

    missing = np.setdiff1d(rebuilt, keys, assume_unique=True)
    bad = np.sort(np.concatenate([keys[derived(keys) != labels], missing]))
    is_dirty = np.zeros(n, dtype=bool)
    is_dirty[np.fromiter(dirty, np.int64, len(dirty))] = True
    bad = bad[~(is_dirty[bad // n] | is_dirty[bad % n])]

    violations = []
    for k, code in zip(bad.tolist(), derived(bad).tolist()):
        i, j = divmod(k, n)
        if (i, j) not in g.mu:
            detail = (
                f"the node structure implied by the other edges requires an edge "
                f"labelled {MOTIFS[code]}; none exists"
            )
        else:
            got = "no edge" if code < 0 else MOTIFS[code].value
            detail = (
                f"label {g.mu[i, j]} contradicts the node structure implied "
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


def _report(g: EdgeLabelledTeg, p: _Pass, rel_tol: float) -> ConsistencyReport:
    mu, n = g.mu, g.vertex_count
    keys = np.fromiter((i * n + j for i, j in mu), np.int64, len(mu))
    codes = np.fromiter((_CODES[m] for m in mu.values()), np.uint8, len(mu))
    order = np.argsort(keys)
    keys, codes = keys[order], codes[order]
    heads, tails = np.divmod(keys, n)
    by_tail = np.argsort(tails, kind="stable")
    violations: list[Violation] = []

    # C2 / C3: label multiplicities per vertex, spelt out for the vertices
    # the columns flag.
    sides = (
        (p.out, "xi_out", "C2", "out", _repeats(heads, _XI_OUT[codes], n)),
        (p.incoming, "xi_in", "C3", "in", _repeats(tails[by_tail], _XI_IN[codes[by_tail]], n)),
    )
    for adj, attr, cond, side, flagged in sides:
        for v in flagged:
            edges = adj[v]
            if len(edges) > 2:
                violations.append(
                    Violation(
                        cond,
                        (v,),
                        tuple(key for _, key in edges),
                        f"vertex {v} has {len(edges)} {side}-edges; events have two nodes",
                    )
                )
            labelled = [(key, getattr(mu[key], attr)) for _, key in edges]
            for (ka, la), (kb, lb) in combinations(labelled, 2):
                if la == lb:
                    detail = f"vertex {v} has two {side}-edges with label {la}"
                    violations.append(Violation(cond, (v,), (ka, kb), detail))

    # C4 skips the endpoints of every edge a C2/C3 violation names, and the
    # vertices whose node resolution conflicted
    dirty = {v for violation in violations for key in violation.edges for v in key}
    dirty |= p.conflicted

    # C1: every edge re-checked against the breadth-first relative times.
    pot = p.pot
    for comp in p.comps:
        if len(comp) == 1:
            continue
        span = max(pot[v] for v in comp) - min(pot[v] for v in comp)
        tol = rel_tol * max(1.0, span)
        for v in comp:
            for w, key in p.out.get(v, ()):
                residue = pot[w] - pot[v] - g.tau[key]
                if abs(residue) > tol:
                    violations.append(
                        Violation(
                            "C1",
                            (v, w),
                            (key,),
                            f"path sums disagree: relative times give {pot[w] - pot[v]!r}, "
                            f"tau is {g.tau[key]!r}",
                        )
                    )

    # C4: the resolution's own contradictions, then the rebuild certificate.
    violations.extend(p.resolution)
    violations.extend(_c4_violations(g, p, dirty, keys, codes))
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
    return _report(g, _Pass(g), rel_tol)


def _component_times(g: EdgeLabelledTeg, comp, pot, rel_tol: float):
    """Absolute times for one component: base from anchors, else zero.

    Anchored vertices take their anchor verbatim; the others sit at their
    potential shifted by the first anchor.
    """
    anchored = []
    if g.anchors:
        anchored = [(v, g.anchors[v]) for v in comp if v in g.anchors]
    if anchored:
        v0, t0 = anchored[0]
        shift = t0 - pot[v0]
        span = max(pot[v] for v in comp) - min(pot[v] for v in comp)
        tol = rel_tol * max(1.0, span, *(abs(t) for _, t in anchored))
        for v, t in anchored[1:]:
            if abs((t - pot[v]) - shift) > tol:
                raise AnchorError(
                    f"anchors at vertices {v0} and {v} disagree with the "
                    f"graph's relative times by {abs((t - pot[v]) - shift)!r}"
                )
    else:
        shift = -min(pot[v] for v in comp)
    times = {v: pot[v] + shift for v in comp}
    times.update(anchored)
    low = min(times.values())
    if low < 0:
        raise AnchorError(f"anchors place the earliest event at negative time {low!r}")
    return times


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
    report = _report(g, p, rel_tol)
    if not report.ok:
        raise InconsistentGraphError(report)

    placed = sorted(
        (_component_times(g, comp, p.pot, rel_tol) for comp in p.comps),
        key=lambda at: (min(at.values()), min(at)),
    )
    vertices, times, offset = [], [], 0.0
    for at in placed:
        if layout == "end_to_end":
            base = min(at.values())
            at = {v: t - base + offset for v, t in at.items()}
            offset = max(at.values()) + spacing
        vertices += sorted(at, key=lambda v: (at[v], v))
        times += [at[v] for v in vertices[len(times) :]]
    sources, targets, node_ids = _first_seen(*np.array([p.sources, p.targets], np.int64)[:, vertices])
    return TemporalNetwork._from_columns(sources, targets, np.array(times, np.float64), node_ids)


def save_edge_labelled(g: EdgeLabelledTeg, stream: TextIO) -> None:
    """JSON dump; tau values survive a round-trip bit-exactly."""
    doc: dict = {
        "vertex_count": g.vertex_count,
        "edges": [
            {"i": i, "j": j, "tau": g.tau[i, j], "motif": g.mu[i, j].value}
            for i, j in g.edge_keys()
        ],
    }
    if g.anchors:
        doc["anchors"] = {str(v): g.anchors[v] for v in sorted(g.anchors)}
    json.dump(doc, stream, indent=1)
    stream.write("\n")


_NUMBER = (int, float)  # JSON true and false load as bool, which is neither


def load_edge_labelled(stream: TextIO) -> EdgeLabelledTeg:
    """Read what ``save_edge_labelled`` writes; ValueError for anything else."""
    doc = json.load(stream)
    try:
        count = doc["vertex_count"]
        if type(count) is not int:
            raise ValueError(f"vertex_count must be a JSON integer, got {count!r}")
        tau = {}
        mu = {}
        for k, rec in enumerate(doc["edges"]):
            i, j, t = rec["i"], rec["j"], rec["tau"]
            if type(i) is not int or type(j) is not int or type(t) not in _NUMBER:
                raise ValueError(f"edge {k} needs integer i and j and a numeric tau, got {rec!r}")
            key = (i, j)
            if key in tau:
                raise ValueError(f"duplicate edge {key}")
            tau[key] = float(t)
            mu[key] = Motif(rec["motif"])
        anchors = None
        if "anchors" in doc:
            if type(doc["anchors"]) is not dict:
                raise ValueError(f"anchors must be a JSON object, got {doc['anchors']!r}")
            anchors = {}
            for v, t in doc["anchors"].items():
                if str(int(v)) != v:
                    raise ValueError(f"anchor key {v!r} is not a vertex index")
                if type(t) not in _NUMBER:
                    raise ValueError(f"anchor of vertex {v} must be a JSON number, got {t!r}")
                anchors[int(v)] = float(t)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed edge-labelled graph JSON: {exc}") from None
    return EdgeLabelledTeg(count, tau, mu, anchors)
