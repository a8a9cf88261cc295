"""Reference outputs computed from the input arrays, without the package.

Every expected value the benchmark checks comes from here, for any seed:
an event graph built by sorting (event, node) incidences, components from
scipy's union of edges, and the statistics on top. The package's own code
is never called, so a change to it cannot move its own reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from inputs import digest, node_profile

MOTIF_NAMES = ("ABAB", "ABBA", "ABAC", "ABCA", "ABBC", "ABCB")
# motif index by (letter of the later source, letter of the later target),
# letters A = earlier source, B = earlier target, C = a third node
_MOTIF_OF = np.full((3, 3), -1)
for _k, _name in enumerate(MOTIF_NAMES):
    _MOTIF_OF["ABC".index(_name[2]), "ABC".index(_name[3])] = _k


def event_graph(src, dst, times, dt: float):
    """Edges ``(i, j, gap, motif)`` of the event graph of time-sorted events.

    Each node links each of its events to its next event; a pair of events
    sharing both nodes gives one edge, and only gaps in (0, dt) are kept.
    """
    m = len(times)
    event = np.concatenate([np.arange(m), np.arange(m)])
    node = np.concatenate([src, dst])
    order = np.lexsort((event, node))
    node, event = node[order], event[order]
    same = node[1:] == node[:-1]
    key = np.unique(event[:-1][same] * m + event[1:][same])
    i, j = key // m, key % m
    gap = times[j] - times[i]
    keep = (gap > 0) & (gap < dt)
    i, j, gap = i[keep], j[keep], gap[keep]

    def letter(x):
        return np.where(x == src[i], 0, np.where(x == dst[i], 1, 2))

    return i, j, gap, _MOTIF_OF[letter(src[j]), letter(dst[j])]


def motif_counts(motif) -> list[int]:
    return np.bincount(motif, minlength=6).tolist()


def masses(counts: list[int]) -> list[float]:
    total = sum(counts)
    return [c / total for c in counts]


def _labels(n: int, i, j):
    graph = coo_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n)).tocsr()
    return connected_components(graph, directed=True, connection="weak")


def stats(src, dst, times, dt: float, grid, top: int) -> dict:
    m = len(times)
    i, j, gap, motif = event_graph(src, dst, times, dt)
    counts = motif_counts(motif)
    p = masses(counts)

    ncomp, labels = _labels(m, i, j)
    sizes = np.bincount(labels)
    _, first = np.unique(labels, return_index=True)
    ranked = np.lexsort((first, times[first], -sizes))[:top]
    rows = [times[labels == c] for c in ranked]

    values, counts_at = np.unique(gap, return_counts=True)
    tail = (len(gap) - np.cumsum(counts_at)) / len(gap)
    head = tail[:-1] > 0
    widths = np.diff(values)[head]
    cre = -math.fsum((widths * tail[:-1][head] * np.log2(tail[:-1][head])).tolist())

    fi, fj, fgap, _ = event_graph(src, dst, times, math.inf)
    sweep = []
    for w in grid:
        keep = fgap < w
        _, lab = _labels(m, fi[keep], fj[keep])
        sweep.append(int(np.bincount(lab).max()) / m)

    width = int(max(src.max(), dst.max())) + 1
    pairs = np.unique(src * width + dst)
    nodes = np.unique(np.concatenate([src, dst]))
    n, e = len(nodes), len(pairs)
    a, b = pairs // width, pairs % width
    agg_components, _ = _labels(n, np.searchsorted(nodes, a), np.searchsorted(nodes, b))

    return {
        "tie_count": int(np.count_nonzero(np.diff(times) == 0)),
        "edge_count": len(i),
        "motif_masses": p,
        "component_count": int(ncomp),
        "largest_size": int(sizes.max()),
        "sweep": sweep,
        "motif_entropy": -sum(x * math.log2(x) for x in p if x > 0),
        "cre": cre,
        "barcode_sizes": [len(r) for r in rows],
        "barcode_digest": digest(np.concatenate(rows)),
        "svg_lines": sum(len(r) for r in rows) + 6,
        "agg_node_count": n,
        "agg_edge_count": e,
        "agg_density": e / (n * (n - 1)),
        "agg_reciprocity": int(np.isin(b * width + a, pairs).sum()) / e,
        "agg_components": int(agg_components),
    }


def roundtrip(src, dst, times) -> dict:
    """Expected outputs of build -> strip -> validate -> reconstruct."""
    _, _, _, motif = event_graph(src, dst, times, math.inf)
    return {
        "edge_count": len(motif),
        "motif_counts": motif_counts(motif),
        "violation_count": 0,
        "rebuilt_events": len(times),
        "rebuilt_within_tol": True,
        "rebuilt_node_profile": node_profile(src, dst),
    }


def null_model_csv(src, dst, times, seed: int, ensemble: int) -> str:
    """sha256 of the ``teg motifs --dt inf --ensemble K --seed S`` CSV."""

    def row(scope, edges, values):
        return ",".join([scope, str(edges)] + [f"{x:.17g}" for x in values])

    base = motif_counts(event_graph(src, dst, times, math.inf)[3])
    freqs = []
    for s in range(seed, seed + ensemble):
        shuffled = times[np.random.default_rng(s).permutation(len(times))]
        order = np.argsort(shuffled, kind="stable")
        motif = event_graph(src[order], dst[order], shuffled[order], math.inf)[3]
        freqs.append(masses(motif_counts(motif)))
    mean = [sum(col) / len(freqs) for col in zip(*freqs)]
    lines = [
        "scope,edges," + ",".join(MOTIF_NAMES),
        row("all", sum(base), masses(base)),
        row(f"shuffle_mean:{ensemble}", sum(base), mean),
    ]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
