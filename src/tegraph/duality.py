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
  implies. Node identities are resolved from the labels, and the event
  graph of the resolved events is rebuilt, with the vertex index as time
  and no waiting window: every edge it has and the input lacks, every
  input edge it lacks, and every label it gives differently is a
  violation. An event graph is a lossless representation, so a graph that
  survives this rebuild is the event graph of its resolved events.

``check_consistency`` reports every violation; ``reconstruct`` inverts a
consistent graph into a temporal network, exactly one network per weakly
connected component up to time translation (absolute times recoverable
from anchors).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from math import inf, isfinite
from typing import Mapping, TextIO

import numpy as np

from .events import Event, TemporalNetwork
from .motifs import MOTIFS, Motif, prescribed_nodes
from .teg import Teg, _incidence_edges
from .unionfind import UnionFind

_CODES = {m: c for c, m in enumerate(MOTIFS)}


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
    anchors = None
    if keep_anchors:
        anchors = {v: teg.network.events[v].time for v in range(teg.vertex_count)}
    return EdgeLabelledTeg(teg.vertex_count, tau, mu, anchors)


def _adjacency(g: EdgeLabelledTeg):
    out: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    incoming: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for key in g.edge_keys():
        i, j = key
        out.setdefault(i, []).append((j, key))
        incoming.setdefault(j, []).append((i, key))
    return out, incoming


def _component_vertices(g: EdgeLabelledTeg) -> list[list[int]]:
    """Weakly connected components, each ascending, ordered by first vertex."""
    uf = UnionFind(g.vertex_count)
    for i, j in g.tau:
        uf.union(i, j)
    return sorted(uf.groups().values(), key=lambda group: group[0])


def _potentials(start: int, out, incoming, tau) -> dict[int, float]:
    """Relative times over one component via breadth-first tau sums."""
    pot = {start: 0.0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, key in out.get(v, ()):
            if w not in pot:
                pot[w] = pot[v] + tau[key]
                queue.append(w)
        for u, key in incoming.get(v, ()):
            if u not in pot:
                pot[u] = pot[v] - tau[key]
                queue.append(u)
    return pot


def _resolve_nodes(order, incoming, mu, start_label: int):
    """Node pairs implied by the labels, processing vertices in ``order``.

    ``order`` must put every edge's tail before its head. Returns the pair
    per vertex, the unresolvable-prescription violations, the set of
    vertices whose resolution hit a conflict (their pairs are best-effort),
    and the next fresh label. Conflicts between in-edges whose destination
    labels already collide are left for C3 to report.
    """
    resolved: dict[int, tuple[int, int]] = {}
    violations: list[Violation] = []
    dirty: set[int] = set()
    label = start_label
    for v in order:
        nodes: list[int | None] = [None, None]  # source, target
        keys: list[tuple[int, int] | None] = [None, None]
        for u, key in incoming.get(v, ()):
            if u not in resolved:
                dirty.add(v)
                continue
            prescribed = prescribed_nodes(mu[key], *resolved[u])
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
        resolved[v] = (source, target)
    return resolved, violations, dirty, label


def _c4_violations(g: EdgeLabelledTeg, comps, incoming, dirty) -> list[Violation]:
    """C4 violations: node identities are resolved per component in index
    order (a topological order, since edges increase the index), with labels
    fresh across components; then every edge key where ``g`` differs from
    the event graph of the resolved events, at time = vertex index, is
    reported, skipping keys with an endpoint in ``dirty``, to which the
    vertices whose resolution conflicted are added.
    """
    n = g.vertex_count
    sources = np.empty(n, dtype=np.int64)
    targets = np.empty(n, dtype=np.int64)
    violations: list[Violation] = []
    label = 0
    for comp in comps:
        resolved, vios, conflicted, label = _resolve_nodes(comp, incoming, g.mu, label)
        sources[comp], targets[comp] = zip(*(resolved[v] for v in comp))
        violations.extend(vios)
        dirty |= conflicted
    resolved = None  # free the last component's pairs before the rebuild
    heads, tails, codes = _incidence_edges(sources, targets, np.arange(n, dtype=np.float64), inf)
    rebuilt = heads * n + tails

    def derived(query):
        """Rebuilt motif code of every key in ``query``, -1 where no edge."""
        pos = np.searchsorted(rebuilt, query)
        hit = np.append(rebuilt, -1)[pos] == query
        return np.where(hit, np.append(codes, -1)[pos], -1)

    keys = np.fromiter((i * n + j for i, j in g.mu), np.int64, len(g.mu))
    labels = np.fromiter((_CODES[m] for m in g.mu.values()), np.uint8, len(g.mu))
    missing = np.setdiff1d(rebuilt, keys, assume_unique=True)
    bad = np.sort(np.concatenate([keys[derived(keys) != labels], missing]))
    is_dirty = np.zeros(n, dtype=bool)
    is_dirty[np.fromiter(dirty, np.int64, len(dirty))] = True
    bad = bad[~(is_dirty[bad // n] | is_dirty[bad % n])]

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


def check_consistency(g: EdgeLabelledTeg, rel_tol: float = 1e-12) -> ConsistencyReport:
    """Test conditions C1-C4 and report every violation found.

    C1 compares tau sums with a tolerance relative to the component's time
    span (exact inputs are checked exactly: integer or dyadic taus leave no
    rounding residue). C2/C3 compare labels. C4 resolves node identities
    from the labels in index order, rebuilds the event graph of the
    resolved events with the vertex index as time and no waiting window,
    and reports every edge key where the rebuild and the input differ: a
    label the rebuild gives differently, an input edge it does not give,
    or an edge it gives that the input lacks. Keys with an endpoint whose
    node resolution conflicted, or that a C2/C3 violation names, are
    skipped; their fault is already reported.
    """
    out, incoming = _adjacency(g)
    mu = g.mu
    violations: list[Violation] = []

    # C2 / C3: label multiplicities per vertex.
    for adj, attr, cond, side in ((out, "xi_out", "C2", "out"), (incoming, "xi_in", "C3", "in")):
        for v in sorted(adj):
            edges = adj[v]
            if len(edges) > 2:
                violations.append(
                    Violation(
                        cond,
                        (v,),
                        tuple(sorted(key for _, key in edges)),
                        f"vertex {v} has {len(edges)} {side}-edges; events have two nodes",
                    )
                )
            labelled = sorted((key, getattr(mu[key], attr)) for _, key in edges)
            for a in range(len(labelled)):
                for b in range(a + 1, len(labelled)):
                    (ka, la), (kb, lb) = labelled[a], labelled[b]
                    if la == lb:
                        violations.append(
                            Violation(
                                cond,
                                (v,),
                                (ka, kb),
                                f"vertex {v} has two {side}-edges with label {la}",
                            )
                        )

    # C4 skips the endpoints of every edge a C2/C3 violation names
    dirty = {v for violation in violations for key in violation.edges for v in key}

    # C1: breadth-first relative times, then every edge re-checked.
    comps = _component_vertices(g)
    for comp in comps:
        if len(comp) == 1:
            continue
        pot = _potentials(comp[0], out, incoming, g.tau)
        span = max(pot.values()) - min(pot.values())
        tol = rel_tol * max(1.0, span)
        for v in comp:
            for w, key in out.get(v, ()):
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

    # C4: resolve node identities, then certify by rebuilding.
    violations.extend(_c4_violations(g, comps, incoming, dirty))

    return ConsistencyReport(tuple(violations))


def _component_times(g: EdgeLabelledTeg, comp, out, incoming, rel_tol: float):
    """Absolute times for one component: base from anchors, else zero."""
    pot = _potentials(comp[0], out, incoming, g.tau)
    anchored = []
    if g.anchors:
        anchored = [(v, g.anchors[v]) for v in comp if v in g.anchors]
    if anchored:
        v0, t0 = anchored[0]
        shift = t0 - pot[v0]
        span = max(pot.values()) - min(pot.values())
        tol = rel_tol * max(1.0, span, *(abs(t) for _, t in anchored))
        for v, t in anchored[1:]:
            if abs((t - pot[v]) - shift) > tol:
                raise AnchorError(
                    f"anchors at vertices {v0} and {v} disagree with the "
                    f"graph's relative times by {abs((t - pot[v]) - shift)!r}"
                )
    else:
        shift = -min(pot.values())
    times = {v: pot[v] + shift for v in pot}
    low = min(times.values())
    if low < 0:
        raise AnchorError(f"anchors place the earliest event at negative time {low!r}")
    return times


def reconstruct(
    g: EdgeLabelledTeg,
    validate: bool = True,
    rel_tol: float = 1e-12,
    layout: str = "overlay",
    spacing: float = 1.0,
) -> TemporalNetwork:
    """Invert an edge-labelled event graph into a temporal network.

    Each weakly connected component is rebuilt independently: relative
    times from tau sums (the earliest event pinned to its anchor time, or
    0 without anchors), then node identities resolved in time order from
    the motif labels, fresh labels in order of appearance. The output is
    canonical per component; node labels never straddle components, and
    components are laid out by (start time, first vertex index).

    ``layout="end_to_end"`` instead places the components one after
    another, ``spacing`` apart, ignoring anchors; useful for display when
    anchor-less components would otherwise pile up at time 0.

    Raises InconsistentGraphError when ``validate`` finds violations (or
    when resolution hits a contradiction with ``validate=False``), and
    AnchorError for contradictory anchors.
    """
    if layout not in ("overlay", "end_to_end"):
        raise ValueError(f"layout must be 'overlay' or 'end_to_end', got {layout!r}")
    if layout == "end_to_end" and not (isfinite(spacing) and spacing >= 0):
        raise ValueError(f"spacing must be non-negative and finite, got {spacing!r}")
    if validate:
        report = check_consistency(g, rel_tol=rel_tol)
        if not report.ok:
            raise InconsistentGraphError(report)
    if g.vertex_count == 0:
        return TemporalNetwork(())

    out, incoming = _adjacency(g)
    placed = []
    for comp in _component_vertices(g):
        times = _component_times(g, comp, out, incoming, rel_tol)
        base = min(times.values())
        placed.append((base, comp[0], comp, times))
    placed.sort(key=lambda item: (item[0], item[1]))
    if layout == "end_to_end":
        shifted = []
        offset = 0.0
        for base, first, comp, times in placed:
            times = {v: t - base + offset for v, t in times.items()}
            offset = max(times.values()) + spacing
            shifted.append((min(times.values()), first, comp, times))
        placed = shifted

    events = []
    label = 0
    for _, _, comp, times in placed:
        order = sorted(comp, key=lambda v: (times[v], v))
        resolved, vios, dirty, label = _resolve_nodes(order, incoming, g.mu, label)
        if vios or dirty:
            report = ConsistencyReport(tuple(vios))
            if vios:
                raise InconsistentGraphError(report)
            raise InconsistentGraphError(
                ConsistencyReport(
                    (
                        Violation(
                            "C3",
                            tuple(sorted(dirty)),
                            (),
                            "node resolution conflicted; run check_consistency for detail",
                        ),
                    )
                )
            )
        for v in comp:
            events.append(Event(*resolved[v], times[v]))

    events.sort(key=lambda e: e.time)
    return TemporalNetwork(events)


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


def load_edge_labelled(stream: TextIO) -> EdgeLabelledTeg:
    doc = json.load(stream)
    try:
        count = int(doc["vertex_count"])
        tau = {}
        mu = {}
        for rec in doc["edges"]:
            key = (int(rec["i"]), int(rec["j"]))
            if key in tau:
                raise ValueError(f"duplicate edge {key}")
            tau[key] = float(rec["tau"])
            mu[key] = Motif(rec["motif"])
        anchors = None
        if "anchors" in doc:
            anchors = {int(v): float(t) for v, t in doc["anchors"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed edge-labelled graph JSON: {exc}") from None
    return EdgeLabelledTeg(count, tau, mu, anchors)
