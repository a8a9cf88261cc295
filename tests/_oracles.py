"""Independent reference implementations used by the tests.

Deliberately naive: the oracle builder walks every later event for every
node (O(M^2)) so it encodes the adjacency definition directly, with none
of the bookkeeping the production builder uses.
"""

from bisect import bisect_right
from functools import reduce
from math import log2
from operator import add

import numpy as np

from tegraph import MOTIFS, TemporalNetwork, classify_pair


def from_rows(rows, tie_policy="stable_order"):
    """The network of (source, target, time) ``rows``, given to the
    constructor as three lists of the rows' values."""
    rows = list(rows)
    return TemporalNetwork(*([row[k] for row in rows] for k in range(3)), tie_policy=tie_policy)


def brute_force_teg(net, delta_t):
    """Edge tuples (i, j, iet, motif) straight from the definition.

    For each event and each of its two nodes, scan forward for the next
    event containing that node; keep the edge when the gap lies in
    (0, delta_t). Both nodes leading to the same successor yield one edge.
    """
    events = net.events
    found = {}
    for i, ev in enumerate(events):
        for w in ev.nodes:
            for j in range(i + 1, len(events)):
                if w in events[j].nodes:
                    gap = events[j].time - ev.time
                    if 0 < gap < delta_t:
                        motif = classify_pair(
                            ev.source, ev.target, events[j].source, events[j].target
                        )
                        found[(i, j)] = (gap, motif)
                    break
    return {(i, j, gap, motif) for (i, j), (gap, motif) in found.items()}


def teg_edge_tuples(teg):
    """The builder's edges as (i, j, iet, motif) tuples, read off its columns."""
    columns = (teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist())
    return {(i, j, iet, MOTIFS[code]) for i, j, iet, code in zip(*columns)}


def union_find_labels(n, a, b):
    """Smallest vertex in each vertex's component over edges ``(a[k], b[k])``,
    by a union-find over a Python list that hangs the larger root under the
    smaller, so every root is the smallest vertex of its tree."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in zip(a, b):
        ru, rv = root(u), root(v)
        parent[max(ru, rv)] = min(ru, rv)
    return [root(v) for v in range(n)]


def fifo_potentials(n, out_ptr, out_ends, out_taus, in_ptr, in_ends, in_taus):
    """Relative times, visiting order and component starts by one FIFO
    breadth-first search per weakly connected component, each from its
    smallest vertex, over Python lists: a vertex's out-edges by tail, then
    its in-edges by head, summing tau forward and subtracting it backward.
    """
    pot = [None] * n
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


def format_time(t):
    """A time as an event line writes it, one float at a time."""
    if t == int(t) and abs(t) < 2**53:
        return str(int(t))
    return repr(t)


def stable_fill(sources, targets, times, node_ids=None):
    """The four columns of a network built from event columns in any order,
    by one stable argsort of the times; ``sources`` and ``targets`` are
    positions into ``node_ids``, or node ids when ``node_ids`` is None."""
    if node_ids is None:
        node_ids, ends = np.unique(np.stack((sources, targets), 1).ravel(), return_inverse=True)
        sources, targets = ends[0::2], ends[1::2]
    order = np.argsort(times, kind="stable")
    return sources[order], targets[order], times[order], node_ids


def first_seen(sources, targets):
    """Node columns renumbered 0, 1, ... by first appearance, source before
    target, and the new node ids, by ``np.unique``'s first indices."""
    ends = np.stack((sources, targets), 1).ravel()
    _, firsts, positions = np.unique(ends, return_index=True, return_inverse=True)
    ends = np.argsort(np.argsort(firsts))[positions]
    return ends[0::2], ends[1::2], np.arange(len(firsts))


def time_shuffle_sorted(net, seed):
    """The time-shuffle null model by its definition: the time column
    permuted over the events, and the network built again by a time sort."""
    perm = np.random.default_rng(seed).permutation(len(net))
    return TemporalNetwork(net.sources, net.targets, net.times[perm], net.node_ids)


def step_cre(sample):
    """The cumulative residual entropy of a sample by a loop over the steps
    of its CCDF: from 0.0, minus each gap times p log2 p, where p = (n - k) / n
    is the share of the sample above the step's value."""
    sample, total = sorted(sample), 0.0
    values = sorted(set(sample))
    for a, b in zip(values, values[1:]):
        p = (len(sample) - bisect_right(sample, a)) / len(sample)
        total -= (b - a) * p * log2(p)
    return total


def per_rank_loop(teg, assignment):
    """Each rank's rows by a loop over the ranks in Python: for every rank
    with edges (an edge lies inside its head's component) the tuple (rank,
    edge count, six motif masses, motif entropy, CRE of its inter-event
    times); and every rank's count of distinct nodes. The entropy adds its
    terms in order from 0, as ``shannon_entropy`` does."""
    ranks = assignment.tolist()
    edges = [[] for _ in range(max(ranks, default=-1) + 1)]
    nodes = [set() for _ in edges]
    for k, head in enumerate(teg.heads.tolist()):
        edges[ranks[head]].append(k)
    net = teg.network
    for v, ends in enumerate(zip(net.sources.tolist(), net.targets.tolist())):
        nodes[ranks[v]].update(ends)
    codes, iets, rows = teg.codes.tolist(), teg.iets.tolist(), []
    for rank, ks in enumerate(edges):
        if ks:
            masses = [sum(codes[k] == c for k in ks) / len(ks) for c in range(len(MOTIFS))]
            entropy = -reduce(add, (p * log2(p) for p in masses if p > 0), 0)
            rows.append((rank, len(ks), *masses, entropy, step_cre([iets[k] for k in ks])))
    return rows, [len(found) for found in nodes]


def label_groups(g):
    """The C2 and C3 violations of labelled graph ``g`` as (condition,
    vertex, edge keys, detail) tuples, by a loop over the vertices of each
    side: a vertex's out-edges by tail (C2), then its in-edges by head (C3).
    A vertex with more than two edges on a side gives one violation, then
    each group of two or more of its edges that share a label gives one, the
    groups in order of their first edge."""
    edges = sorted(zip(g.heads.tolist(), g.tails.tolist(), g.codes.tolist()))
    found = []
    for cond, side, attr, end in (("C2", "out", "xi_out", 0), ("C3", "in", "xi_in", 1)):
        for v in range(g.vertex_count):
            mine = sorted((edge for edge in edges if edge[end] == v), key=lambda edge: edge[1 - end])
            keys, labels = [edge[:2] for edge in mine], [getattr(MOTIFS[edge[2]], attr) for edge in mine]
            if len(mine) > 2:
                found.append((cond, v, keys, f"vertex {v} has {len(mine)} {side}-edges; events have two nodes"))
            for label in sorted(set(labels), key=labels.index):
                group = [key for key, other in zip(keys, labels) if other == label]
                if len(group) > 1:
                    count = "two" if len(group) == 2 else len(group)
                    found.append((cond, v, group, f"vertex {v} has {count} {side}-edges with label {label}"))
    return found
