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

from dataclasses import dataclass
from functools import reduce
from math import inf, log2
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .events import _MAX_IDS, TemporalNetwork, _inverse, _readonly, _stable_sort, _starts
from .motifs import _CODES, MOTIFS, Motif
from .teg import Teg, build_teg, check_window


def _labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest vertex id in each vertex's component, over edges ``(a[k], b[k])``.

    Each round hooks every root joined by an edge to another tree onto the
    smallest such root, then jumps pointers until every vertex points at
    its root.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while ((jumped := label[label]) != label).any():
            label = jumped


def _component_columns(teg: Teg):
    """``assignment``, ``sizes``, ``starts``, ``ends``, members and bounds of
    the components of ``teg``: the columns of its ``ComponentSet``."""
    m, times = teg.vertex_count, teg.network.times
    label = _labels(m, teg.heads, teg.tails)
    firsts = np.flatnonzero(label == np.arange(m))
    sizes = np.bincount(label, minlength=m)[firsts]
    # largest first: the first events ascend, and so do their times, so the
    # stable sort breaks size ties by start and then by first event
    order = _stable_sort(m - sizes)[1]
    assignment = _inverse(order)[firsts.searchsorted(label)]
    # every rank's events, ascending, one run per rank
    _, members = _stable_sort(assignment)
    bounds = np.concatenate(([0], np.cumsum(sizes[order])))
    columns = assignment, sizes[order], times[firsts[order]], times[members[bounds[1:] - 1]], members, bounds
    return tuple(map(_readonly, columns))


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
    """All components of one event graph, largest first, as columns.

    ``assignment[v]`` is the rank of event v's component; ``sizes``,
    ``starts`` and ``ends`` are indexed by rank. All are read-only int64 or
    float64 columns. A ``Component``, with its node set, is built only for
    the ranks a caller reads. The columns are computed once per ``Teg`` and
    kept on it (the graph is immutable), so every ``ComponentSet`` of one
    graph shares them; the ``Teg`` holds the columns, not this object, so
    no reference cycle forms.

    The reductions over each rank's edges (an edge's rank is its head's)
    read one edge layer, built on first use and kept on this object.
    """

    __slots__ = ("teg", "assignment", "sizes", "starts", "ends", "_members", "_bounds", "_edges")

    def __init__(self, teg: Teg):
        if teg._components is None:
            teg._components = _component_columns(teg)
        self.teg = teg
        self.assignment, self.sizes, self.starts, self.ends, self._members, self._bounds = teg._components
        self._edges = None

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, rank: int) -> Component:
        rank = range(len(self))[rank]
        net, members = self.teg.network, self._members[self._bounds[rank] : self._bounds[rank + 1]]
        ends = np.sort(np.concatenate((net.sources[members], net.targets[members])))
        nodes = frozenset(net.node_ids[ends[_starts(ends)]].tolist())
        return Component(tuple(members.tolist()), nodes, float(self.starts[rank]), float(self.ends[rank]))

    @property
    def components(self) -> tuple[Component, ...]:
        """Every ``Component``, built anew on each access: bind it once, or index the columns."""
        return tuple(self)

    @property
    def largest_fraction(self) -> float:
        """Share of events in the largest component (0 for empty graphs)."""
        return int(self.sizes[0]) / len(self.teg.network) if len(self) else 0.0

    def _edge_layer(self):
        """Each edge's row (its rank's index among the ranks with edges), those ranks and their edges' bounds."""
        if self._edges is None:
            ranks = self.assignment[self.teg.heads]
            counts = np.bincount(ranks, minlength=len(self))
            rows = np.cumsum(counts > 0)[ranks] - 1
            self._edges = rows, np.flatnonzero(counts), np.append(0, np.cumsum(counts[counts > 0]))
        return self._edges

    def ranks_with_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranks that hold edges, ascending, and their edge counts: the rows of the reductions."""
        _, ranks, bounds = self._edge_layer()
        return ranks, np.diff(bounds)

    def motif_masses(self) -> np.ndarray:
        """Each rank's motif frequencies, a column per class in canonical order."""
        rows, ranks, bounds = self._edge_layer()
        counts = np.bincount(rows * len(MOTIFS) + self.teg.codes, minlength=len(ranks) * len(MOTIFS))
        return counts.reshape(-1, len(MOTIFS)) / np.diff(bounds)[:, None]

    def motif_entropies(self) -> np.ndarray:
        """``shannon_entropy`` of each rank's motif masses, bit for bit: the
        terms are added in order, and a zero mass adds 0.0, which changes no sum."""
        p = self.motif_masses()
        logs = np.zeros_like(p)
        logs[p > 0] = np.fromiter(map(log2, memoryview(p[p > 0])), np.float64)
        return -(p * logs).cumsum(axis=1)[:, -1]

    def iet_cres(self) -> np.ndarray:
        """``cumulative_residual_entropy`` of each rank's inter-event times, bit for bit."""
        rows, _, bounds = self._edge_layer()
        by_tau = np.argsort(self.teg.iets)  # then grouped by rank, stably: one sort of (rank, tau)
        return _cres(*_ccdfs(self.teg.iets[by_tau[_stable_sort(rows[by_tau])[1]]], bounds))

    def node_counts(self, top: int | None = None) -> np.ndarray:
        """Distinct nodes per rank, of the ``top`` largest ranks (all by default): one sort of (rank, node) keys."""
        top = len(self) if top is None else min(top, len(self))
        net, members = self.teg.network, self._members[: self._bounds[top]]
        n = len(net.node_ids)
        ranks = self.assignment[members] * n
        keys = np.sort(np.concatenate((ranks + net.sources[members], ranks + net.targets[members])))
        return np.bincount(keys[_starts(keys)] // n, minlength=top)


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
    pass over the edges sorted by gap grows a forest merged by size, and
    every window is read off without rebuilding. Each window finds the
    roots of its new edges' endpoints and labels the trees they join, at a
    cost of O(its new edges x log M). Returns (window, fraction) pairs of
    floats.
    """
    delta_ts = [float(dt) for dt in delta_ts]
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
    edges = np.stack((full.heads[order], full.tails[order]), axis=1)
    parent, size, slot = np.arange(m, dtype=np.int64), np.ones(m, np.int64), np.empty(m, np.int64)
    largest, k, out = 1, 0, []
    for dt, stop in zip(delta_ts, stops):
        if stop > k:
            new, k = edges[k:stop], stop
            ends = new
            while ((up := parent[ends]) != ends).any():
                ends = up
            parent[new] = ends  # shortcut the endpoints for later windows
            ends = ends[ends[:, 0] != ends[:, 1]]
            if len(ends):
                # number the roots largest first, lowest id on ties, so that
                # the kernel hangs each joined group under its largest root
                roots = np.sort(ends, axis=None)
                roots = roots[_starts(roots)]
                roots = roots[_stable_sort(m - size[roots])[1]]
                slot[roots] = np.arange(len(roots))
                chief = _labels(len(roots), slot[ends[:, 0]], slot[ends[:, 1]])
                moved = chief != np.arange(len(roots))
                np.add.at(size, roots[chief[moved]], size[roots[moved]])
                parent[roots] = roots[chief]
                largest = max(largest, int(size[roots[chief]].max()))
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


def motif_counts(teg: Teg) -> dict[Motif, int]:
    """Edge counts per motif class."""
    return dict(zip(MOTIFS, np.bincount(teg.codes, minlength=len(MOTIFS)).tolist()))


def motif_distribution(teg: Teg) -> DiscreteDistribution:
    """Relative motif frequencies over the edges.

    The support is always the six classes in canonical order; a graph
    without edges is an error (the distribution is undefined).
    """
    counts = motif_counts(teg)
    return DiscreteDistribution.from_counts(MOTIFS, [counts[m] for m in MOTIFS])


def component_size_distribution(teg: Teg | ComponentSet) -> DiscreteDistribution:
    """Fraction of components at each size."""
    cs = _component_set(teg)
    if not len(cs):
        raise ValueError("no components: distribution undefined")
    support, counts = np.unique(cs.sizes, return_counts=True)
    return DiscreteDistribution.from_counts(support.tolist(), counts.tolist())


class EmpiricalCcdf:
    """P(X > x) of a sample, as a right-continuous step function.

    ``support`` holds the distinct sample values ascending and ``tails[k]``
    the fraction of the sample strictly greater than ``support[k]`` (so the
    last entry is 0), as read-only float64 columns. Equality and hashing
    are those of ``values``, ``tail`` and ``sample_count``.
    """

    __slots__ = ("support", "tails", "sample_count")

    def __init__(self, values: Sequence[float], tail: Sequence[float], sample_count: int):
        self.support = _readonly(values, np.float64)
        self.tails = _readonly(tail, np.float64)
        self.sample_count = sample_count
        if len(self.support) != len(self.tails):
            raise ValueError("values and tail must align")

    @classmethod
    def from_samples(cls, samples: Iterable[float] | np.ndarray) -> "EmpiricalCcdf":
        if isinstance(samples, np.ndarray):
            data = np.sort(samples.astype(np.float64, copy=False), axis=None)
        else:
            data = np.sort(np.fromiter(samples, np.float64))
        if not len(data):
            raise ValueError("empty sample")
        return cls(*_ccdfs(data, np.array([0, len(data)]))[:2], len(data))

    @property
    def values(self) -> tuple[float, ...]:
        """``support``, as a new tuple on each access: bind it once, or index the column."""
        return tuple(self.support.tolist())

    @property
    def tail(self) -> tuple[float, ...]:
        """``tails``, as a new tuple on each access: bind it once, or index the column."""
        return tuple(self.tails.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalCcdf):
            return NotImplemented
        return (self.values, self.tail, self.sample_count) == (other.values, other.tail, other.sample_count)

    def __hash__(self):
        return hash((self.values, self.tail, self.sample_count))

    def __repr__(self) -> str:
        return f"EmpiricalCcdf({len(self.support)} values, sample_count={self.sample_count})"

    def evaluate(self, x: float) -> float:
        """P(X > x); 1 left of the support, 0 from the maximum on."""
        k = int(self.support.searchsorted(x, side="right"))
        return 1.0 if k == 0 else float(self.tails[k - 1])


def iet_ccdf(teg: Teg, motif: Motif | None = None) -> EmpiricalCcdf:
    """CCDF of edge inter-event times, optionally for one motif class."""
    taus = teg.iets if motif is None else teg.iets[teg.codes == _CODES[motif]]
    if not len(taus):
        scope = "any motif" if motif is None else str(motif)
        raise ValueError(f"no edges in scope ({scope}): CCDF undefined")
    return EmpiricalCcdf.from_samples(taus)


def shannon_entropy(dist: DiscreteDistribution | Iterable[float]) -> float:
    """Entropy in bits; zero masses contribute nothing. The terms are added
    in order, as ``sum()`` compensates float rounding from Python 3.12 on."""
    masses = dist.masses if isinstance(dist, DiscreteDistribution) else tuple(dist)
    return -reduce(add, (p * log2(p) for p in masses if p > 0), 0)


def _ccdfs(data: np.ndarray, bounds: np.ndarray):
    """``EmpiricalCcdf``'s ``support`` and ``tails`` of each segment ``data[bounds[k]:bounds[k + 1]]``
    of a column sorted within its segments, and each segment's bounds in them."""
    first = _starts(data)
    first[bounds[:-1][np.diff(bounds) > 0]] = True  # a segment starts a run
    runs = np.flatnonzero(first)
    steps = np.searchsorted(runs, bounds)
    counts = np.diff(steps)
    # the share of a run's segment past the run's end
    tails = (np.repeat(bounds[1:], counts) - np.append(runs[1:], len(data))) / np.repeat(np.diff(bounds), counts)
    return data[runs], tails, steps


def _cres(support: np.ndarray, tails: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``cumulative_residual_entropy`` of the CCDF of each segment
    ``support[bounds[k]:bounds[k + 1]]``, ``tails[...]``. A segment's terms
    are added in order from the first, as a loop adds them (``np.add.reduceat``
    adds pairwise): the segments of each length are the rows of one matrix,
    summed in place by a ``cumsum`` along the rows."""
    inside = tails > 0
    inside[bounds[1:][np.diff(bounds) > 0] - 1] = False  # a segment's last step has no width
    p = np.where(inside, tails, 1.0)
    terms = np.zeros(len(support))
    np.subtract(support[1:], support[:-1], out=terms[:-1])
    terms *= p
    terms *= np.fromiter(map(log2, memoryview(p)), np.float64, len(p))
    terms[~inside] = 0.0  # a zero term changes a sum at most from -0.0 to 0.0
    lengths, sums = np.diff(bounds), np.zeros(len(bounds) - 1)
    distinct = np.sort(lengths[lengths > 0])
    for length in distinct[_starts(distinct)].tolist():
        rows = np.flatnonzero(lengths == length)
        block = np.lib.stride_tricks.sliding_window_view(terms, length)[bounds[rows]]
        sums[rows] = np.cumsum(block, axis=1, out=block)[:, -1]
    return -sums + 0.0  # -(a + b) is -a + -b bit for bit; a loop from 0.0 never ends at -0.0


def cumulative_residual_entropy(ccdf: EmpiricalCcdf) -> float:
    """-integral of P(X>x) log2 P(X>x), evaluated exactly on the steps.

    The empirical CCDF is piecewise constant, so the integral is a finite
    sum of gap widths times -p log2 p. A single-valued sample gives 0. The
    terms are added in order, so the sum is the one a loop over the steps
    gives, bit for bit; the logarithms are taken by ``math.log2``, whose
    last bits ``np.log2`` does not always match. This is the one-segment
    case of ``ComponentSet.iet_cres``.
    """
    return float(_cres(ccdf.support, ccdf.tails, np.array([0, len(ccdf.support)]))[0])


def barcode_rows(teg: Teg | ComponentSet, top: int | None = None) -> list[tuple[float, ...]]:
    """Event times per component, largest component first; the ``top`` largest only."""
    if top is not None and top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    cs = _component_set(teg)
    bounds = cs._bounds[: None if top is None else top + 1].tolist()
    times = cs.teg.network.times[cs._members[: bounds[-1]]]
    return [tuple(times[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


class AggregateGraph:
    """Static directed graph of the node pairs that ever interact, as columns.

    Built from event columns ``sources`` and ``targets`` (positions into
    ``node_ids``). ``sources`` and ``targets`` then hold each interacting
    ordered pair once, sorted; ``present`` marks the nodes of ``node_ids``
    that take part. All are read-only numpy columns. Equality and hashing
    are those of ``nodes`` and ``edges``.
    """

    __slots__ = ("node_ids", "present", "sources", "targets")

    def __init__(self, node_ids: np.ndarray, sources: np.ndarray, targets: np.ndarray):
        n = len(node_ids)
        if n > _MAX_IDS:
            raise ValueError(f"at most {_MAX_IDS} nodes: edge keys are int64 source * n + target")
        keys = np.sort(np.asarray(sources, np.int64) * n + targets)
        keys = keys[_starts(keys)]
        present = np.zeros(n, dtype=bool)
        sources, targets = np.divmod(keys, n)
        present[sources] = present[targets] = True
        self.node_ids = _readonly(node_ids)
        self.present = _readonly(present)
        self.sources, self.targets = _readonly(sources), _readonly(targets)

    @property
    def nodes(self) -> frozenset[int]:
        """Node ids, as a new frozenset on each access: bind it once, or index the columns."""
        return frozenset(self.node_ids[self.present].tolist())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Node id pairs, as a new frozenset on each access: bind it once, or index the columns."""
        ids = self.node_ids
        return frozenset(zip(ids[self.sources].tolist(), ids[self.targets].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AggregateGraph):
            return NotImplemented
        return (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"AggregateGraph({self.node_count} nodes, {self.edge_count} edges)"

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.present))

    @property
    def edge_count(self) -> int:
        return len(self.sources)

    @property
    def density(self) -> float:
        """Directed density E / (n (n-1)); 0 below two nodes."""
        n = self.node_count
        if n < 2:
            return 0.0
        return self.edge_count / (n * (n - 1))

    @property
    def reciprocity(self) -> float:
        """Fraction of edges whose reverse is also present."""
        if not self.edge_count:
            return 0.0
        n = len(self.node_ids)
        # the keys and the reversed keys are each distinct: a key in both is
        # a pair of equal neighbours in their merged sort
        keys = np.concatenate((self.sources * n + self.targets, self.targets * n + self.sources))
        keys.sort()
        return int(np.count_nonzero(keys[1:] == keys[:-1])) / self.edge_count

    @property
    def weak_component_count(self) -> int:
        n = len(self.node_ids)
        label = _labels(n, self.sources, self.targets)
        return int(np.count_nonzero(self.present & (label == np.arange(n))))


def aggregate_network(net: TemporalNetwork) -> AggregateGraph:
    """Collapse time: one directed edge per interacting ordered pair."""
    return AggregateGraph(net.node_ids, net.sources, net.targets)


def aggregate_component(teg: Teg | ComponentSet, rank: int) -> AggregateGraph:
    """Aggregate of the events inside one component (by rank).

    Raises ValueError unless ``0 <= rank`` < the component count.
    """
    cs = _component_set(teg)
    if not 0 <= rank < len(cs):
        raise ValueError(f"component {rank} out of range: the graph has {len(cs)} components")
    net, members = cs.teg.network, cs._members[cs._bounds[rank] : cs._bounds[rank + 1]]
    return AggregateGraph(net.node_ids, net.sources[members], net.targets[members])
