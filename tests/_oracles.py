"""Independent reference implementations used by the tests.

Deliberately naive: the oracle builder walks every later event for every
node (O(M^2)) so it encodes the adjacency definition directly, with none
of the bookkeeping the production builder uses.
"""

from tegraph import MOTIFS, classify_pair


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
