"""Connectivity and summary statistics of event graphs.

Weakly connected components of the event graph partition the events into
maximal sets reachable through chains of close-in-time, node-sharing
events. Components are ranked largest first (ties: earlier start, then
lower first event index). On top of the partition this module provides the
component-growth sweep over waiting windows, motif and inter-event-time
distributions, Shannon and cumulative residual entropies, barcode rows for
plotting, and the time-aggregated static graph.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf, log2
from typing import Iterable, Sequence

import numpy as np

from .events import TemporalNetwork
from .motifs import MOTIFS, Motif
from .teg import Teg, build_teg, check_window
from .unionfind import UnionFind


@dataclass(frozen=True)
class Component:
    """One weakly connected set of events (indices ascending)."""

    events: tuple[int, ...]
    nodes: frozenset[int]
    start: float
    end: float

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def duration(self) -> float:
        return self.end - self.start


class ComponentSet:
    """All components of one event graph, largest first."""

    __slots__ = ("teg", "components", "assignment")

    def __init__(self, teg: Teg):
        events = teg.network.events
        uf = UnionFind(len(events))
        for a, b in zip(teg.heads.tolist(), teg.tails.tolist()):
            uf.union(a, b)
        comps = []
        for members in uf.groups().values():
            nodes = frozenset(n for v in members for n in events[v].nodes)
            comps.append(
                Component(
                    tuple(members),
                    nodes,
                    events[members[0]].time,
                    events[members[-1]].time,
                )
            )
        comps.sort(key=lambda c: (-c.size, c.start, c.events[0]))
        assignment = [0] * len(events)
        for rank, comp in enumerate(comps):
            for v in comp.events:
                assignment[v] = rank
        self.teg = teg
        self.components = tuple(comps)
        self.assignment = tuple(assignment)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, rank: int) -> Component:
        return self.components[rank]

    @property
    def largest_fraction(self) -> float:
        """Share of events in the largest component (0 for empty graphs)."""
        if not self.components:
            return 0.0
        return self.components[0].size / len(self.teg.network)


def weakly_connected_components(teg: Teg) -> ComponentSet:
    return ComponentSet(teg)


def _component_set(teg: Teg | ComponentSet) -> ComponentSet:
    return teg if isinstance(teg, ComponentSet) else ComponentSet(teg)


def sweep_largest_component(
    net: TemporalNetwork, delta_ts: Sequence[float]
) -> list[tuple[float, float]]:
    """Largest-component event fraction at each waiting window.

    ``delta_ts`` must be positive and ascending. A window's edge set is the
    unbounded-window edge set filtered to gaps below the window, so one
    pass over the edges sorted by gap feeds an incremental union-find and
    every window is read off without rebuilding. Returns (window, fraction)
    pairs.
    """
    if not delta_ts:
        raise ValueError("delta_ts must be non-empty")
    for dt in delta_ts:
        check_window(dt)
    if any(b <= a for a, b in zip(delta_ts, delta_ts[1:])):
        raise ValueError("delta_ts must be strictly ascending")
    m = len(net)
    if m == 0:
        raise ValueError("network is empty")
    full = build_teg(net, inf)
    order = np.argsort(full.iets)
    # edges[:stops[k]] of the sorted list are those with a gap below delta_ts[k]
    stops = np.searchsorted(full.iets[order], delta_ts).tolist()
    heads = full.heads[order].tolist()
    tails = full.tails[order].tolist()
    uf = UnionFind(m)
    largest = 1
    out = []
    k = 0
    for dt, stop in zip(delta_ts, stops):
        for a, b in zip(heads[k:stop], tails[k:stop]):
            if uf.union(a, b):
                largest = max(largest, uf.set_size(a))
        k = stop
        out.append((dt, largest / m))
    return out


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses over an explicit support."""

    support: tuple
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.masses):
            raise ValueError("support and masses must align")
        if any(p < 0 for p in self.masses):
            raise ValueError("negative probability mass")
        total = sum(self.masses)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total!r}, not 1")

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.masses))

    @classmethod
    def from_counts(cls, support: Iterable, counts: Iterable[int]) -> "DiscreteDistribution":
        support = tuple(support)
        counts = tuple(counts)
        total = sum(counts)
        if total <= 0:
            raise ValueError("empty scope: distribution undefined")
        return cls(support, tuple(c / total for c in counts))


def edges_within(teg: Teg, events: Iterable[int]) -> np.ndarray:
    """Positions, ascending, of the edges with both ends in ``events``.

    Index the edge columns with the result, as in ``teg.codes[inside]``.
    The cost grows with the events and their out-edges, not with the whole
    graph, so it can be called once per component.
    """
    members = np.array(sorted(set(events)), dtype=np.int64)
    # heads are sorted, so each member's out-edges are one run of positions
    lo = teg.heads.searchsorted(members)
    runs = teg.heads.searchsorted(members, "right") - lo
    positions = np.arange(runs.sum()) + np.repeat(lo - runs.cumsum() + runs, runs)
    tails = teg.tails[positions]
    found = members.searchsorted(tails).clip(max=len(members) - 1)
    return positions[members[found] == tails]


def motif_counts(teg: Teg, component: Iterable[int] | None = None) -> dict[Motif, int]:
    """Edge counts per motif class, optionally restricted to event indices."""
    codes = teg.codes if component is None else teg.codes[edges_within(teg, component)]
    return dict(zip(MOTIFS, np.bincount(codes, minlength=len(MOTIFS)).tolist()))


def motif_distribution(teg: Teg, component: Iterable[int] | None = None) -> DiscreteDistribution:
    """Relative motif frequencies over the edges in scope.

    The support is always the six classes in canonical order; zero-edge
    scopes are an error (the distribution is undefined).
    """
    counts = motif_counts(teg, component)
    return DiscreteDistribution.from_counts(MOTIFS, [counts[m] for m in MOTIFS])


def component_size_distribution(teg: Teg | ComponentSet) -> DiscreteDistribution:
    """Fraction of components at each size."""
    cs = _component_set(teg)
    if not cs.components:
        raise ValueError("no components: distribution undefined")
    sizes: dict[int, int] = {}
    for comp in cs:
        sizes[comp.size] = sizes.get(comp.size, 0) + 1
    support = tuple(sorted(sizes))
    return DiscreteDistribution.from_counts(support, [sizes[s] for s in support])


@dataclass(frozen=True)
class EmpiricalCcdf:
    """P(X > x) of a sample, as a right-continuous step function.

    ``values`` are the distinct sample values ascending; ``tail[k]`` is the
    fraction of the sample strictly greater than ``values[k]`` (so the last
    entry is 0).
    """

    values: tuple[float, ...]
    tail: tuple[float, ...]
    sample_count: int

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalCcdf":
        data = np.fromiter(samples, np.float64)
        n = len(data)
        if n == 0:
            raise ValueError("empty sample")
        values, counts = np.unique(data, return_counts=True)
        tail = (n - np.cumsum(counts)) / n
        return cls(tuple(values.tolist()), tuple(tail.tolist()), n)

    def evaluate(self, x: float) -> float:
        """P(X > x); 1 left of the support, 0 from the maximum on."""
        k = bisect_right(self.values, x)
        return 1.0 if k == 0 else self.tail[k - 1]


def iet_ccdf(teg: Teg, motif: Motif | None = None) -> EmpiricalCcdf:
    """CCDF of edge inter-event times, optionally for one motif class."""
    if motif is None:
        taus = teg.iets
    else:
        taus = teg.iets[teg.codes == MOTIFS.index(motif)]
    if not len(taus):
        scope = "any motif" if motif is None else str(motif)
        raise ValueError(f"no edges in scope ({scope}): CCDF undefined")
    return EmpiricalCcdf.from_samples(taus)


def shannon_entropy(dist: DiscreteDistribution | Iterable[float]) -> float:
    """Entropy in bits; zero masses contribute nothing."""
    masses = dist.masses if isinstance(dist, DiscreteDistribution) else tuple(dist)
    return -sum(p * log2(p) for p in masses if p > 0)


def cumulative_residual_entropy(ccdf: EmpiricalCcdf) -> float:
    """-integral of P(X>x) log2 P(X>x), evaluated exactly on the steps.

    The empirical CCDF is piecewise constant, so the integral is a finite
    sum of gap widths times -p log2 p. A single-valued sample gives 0.
    """
    total = 0.0
    for k in range(len(ccdf.values) - 1):
        p = ccdf.tail[k]
        if p > 0:
            width = ccdf.values[k + 1] - ccdf.values[k]
            total -= width * p * log2(p)
    return total


def barcode_rows(teg: Teg | ComponentSet, top: int | None = None) -> list[tuple[float, ...]]:
    """Event times per component, largest component first."""
    cs = _component_set(teg)
    comps = cs.components[: top if top is not None else len(cs.components)]
    events = cs.teg.network.events
    return [tuple(events[v].time for v in comp.events) for comp in comps]


@dataclass(frozen=True)
class AggregateGraph:
    """Static directed graph of the node pairs that ever interact."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def density(self) -> float:
        """Directed density E / (n (n-1)); 0 below two nodes."""
        n = len(self.nodes)
        if n < 2:
            return 0.0
        return len(self.edges) / (n * (n - 1))

    @property
    def reciprocity(self) -> float:
        """Fraction of edges whose reverse is also present."""
        if not self.edges:
            return 0.0
        return sum(1 for u, v in self.edges if (v, u) in self.edges) / len(self.edges)

    @property
    def weak_component_count(self) -> int:
        index = {node: k for k, node in enumerate(sorted(self.nodes))}
        uf = UnionFind(len(index))
        for u, v in self.edges:
            uf.union(index[u], index[v])
        return uf.count


def aggregate_network(net: TemporalNetwork) -> AggregateGraph:
    """Collapse time: one directed edge per interacting ordered pair."""
    return AggregateGraph(net.nodes, frozenset((e.source, e.target) for e in net))


def aggregate_component(teg: Teg | ComponentSet, rank: int) -> AggregateGraph:
    """Aggregate of the events inside one component (by rank).

    Raises ValueError unless ``0 <= rank`` < the component count.
    """
    cs = _component_set(teg)
    if not 0 <= rank < len(cs):
        raise ValueError(f"component {rank} out of range: the graph has {len(cs)} components")
    comp = cs[rank]
    events = cs.teg.network.events
    return AggregateGraph(
        comp.nodes, frozenset((events[v].source, events[v].target) for v in comp.events)
    )
