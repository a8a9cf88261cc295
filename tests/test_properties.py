"""Property tests of the shuffle ensemble's counting path, of the duality
promises and of the components. The shuffled columns and the motif counts
the ensemble takes without a network or an event graph equal those of
``time_shuffle``, ``build_teg`` and the quadratic oracle. A labelled graph
reads back from its JSON bit for bit, and an anchored stripped event graph
reconstructs its tie-free network bit for bit. A stripped tie-free event
graph is consistent, every window of the sweep sees the largest component
of the event graph built at that window, and the component labels equal a
union-find's. The per-rank reductions of a ``ComponentSet`` equal a loop
over the ranks bit for bit."""

import io
import math
import warnings
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from _oracles import (  # noqa: E402
    brute_force_teg, label_groups, per_rank_loop, time_shuffle_sorted, union_find_labels)
from tegraph import (  # noqa: E402
    MOTIFS, EdgeLabelledTeg, TemporalNetwork, build_teg, check_consistency, load_edge_labelled, reconstruct,
    save_edge_labelled, strip_events, sweep_largest_component, time_shuffle, weakly_connected_components)
from tegraph import _text, duality  # noqa: E402
from tegraph.components import _labels  # noqa: E402
from tegraph.generators import _shuffled_columns  # noqa: E402
from tegraph.teg import _motif_code_counts, _Scratch  # noqa: E402

_SETTINGS = settings(max_examples=300, deadline=None, database=None)


@st.composite
def networks(draw, tied=True):
    """Few nodes, so many two-node motifs and pairs of events that share both
    nodes; tied: few distinct times, -0.0 among them; untied: ``np.arange``
    times or distinct floats."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=60))
    m = len(pairs)
    if tied:
        times = draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m))
    else:
        floats = st.lists(st.floats(0, 1e6), min_size=m, max_size=m, unique=True)
        times = draw(st.one_of(st.just(np.arange(m, dtype=float)), floats))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tie warning
        return TemporalNetwork([u for u, _ in pairs], [(u + d) % n for u, d in pairs], times)


windows = st.one_of(st.just(math.inf), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(1e-3, 10))


@_SETTINGS
@given(st.one_of(networks(), networks(tied=False)), windows)
def test_motif_code_counts_equal_the_event_graph_codes(net, delta_t):
    counts = _motif_code_counts(net.sources, net.targets, net.times, delta_t)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(build_teg(net, delta_t).codes, minlength=6).tolist()
    # both read one table: the oracle classifies every pair by its four nodes
    found = Counter(motif for *_, motif in brute_force_teg(net, delta_t))
    assert counts.tolist() == [found[m] for m in MOTIFS]


@_SETTINGS
@given(st.one_of(networks(), networks(tied=False)), st.integers(0, 2**32))
def test_shuffled_columns_are_the_time_shuffle_columns(net, seed):
    columns = _shuffled_columns(net, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the network, and its definition: the permuted times sorted again
        for shuffled in (time_shuffle(net, seed), time_shuffle_sorted(net, seed)):
            for got, expected in zip(columns, shuffled.__getstate__()):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# tied networks at dt = inf on their own too: there the window test is not
# vacuous, as a zero gap must still give no edge
members = st.one_of(
    st.tuples(networks(), st.just(math.inf)),
    st.tuples(st.one_of(networks(), networks(tied=False)), windows),
)


@_SETTINGS
@given(members, st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
def test_members_sharing_one_scratch_count_their_own_event_graphs(member, seeds):
    # ensemble members run one after another in one thread, as a worker runs
    # them: each overwrites the scratch that the one before it left
    net, delta_t = member
    scratch = _Scratch(len(net))
    for seed in seeds:
        counts = _motif_code_counts(*_shuffled_columns(net, seed, scratch), delta_t, scratch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shuffled = time_shuffle(net, seed)
        assert counts.tolist() == np.bincount(build_teg(shuffled, delta_t).codes, minlength=6).tolist()
        found = Counter(motif for *_, motif in brute_force_teg(shuffled, delta_t))
        assert counts.tolist() == [found[m] for m in MOTIFS]


# subnormal, ulp-apart and 1e16-scale values besides any finite float
_SPECIAL = [5e-324, 2.2250738585072014e-308, 1e16, float(np.nextafter(1e16, math.inf)), 0.1, 0.30000000000000004]
_taus = st.one_of(st.sampled_from(_SPECIAL), st.floats(min_value=5e-324, allow_infinity=False))
_times = st.one_of(st.sampled_from([-0.0, -1e16, *_SPECIAL]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def labelled_graphs(draw):
    """Any valid labelled graph: distinct keys, any codes, a subset of vertices anchored."""
    n = draw(st.integers(0, 12))
    keys = draw(st.lists(st.tuples(st.integers(0, max(n - 2, 0)), st.integers(1, 11)), max_size=40))
    keys = sorted({(i, i + d) for i, d in keys if i + d < n})
    taus = draw(st.lists(_taus, min_size=len(keys), max_size=len(keys)))
    codes = draw(st.lists(st.integers(0, len(MOTIFS) - 1), min_size=len(keys), max_size=len(keys)))
    vertices = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    times = draw(st.lists(_times, min_size=len(vertices), max_size=len(vertices)))
    return EdgeLabelledTeg(n, [i for i, _ in keys], [j for _, j in keys], taus, codes, vertices, times)


@_SETTINGS
@given(labelled_graphs(), st.sampled_from([1, 40, _text.CHUNK]))
def test_labelled_graphs_read_back_bit_for_bit(g, chunk):
    buf = io.StringIO()
    save_edge_labelled(g, buf)
    text, kept = buf.getvalue(), _text.CHUNK
    _text.CHUNK = chunk  # small chunks cut at every row joint
    try:
        assert duality._layout_columns(text) is not None
        loaded = load_edge_labelled(io.StringIO(text))
    finally:
        _text.CHUNK = kept
    assert loaded.vertex_count == g.vertex_count
    for name in EdgeLabelledTeg.__slots__[1:]:
        got, expected = getattr(loaded, name), getattr(g, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


@st.composite
def crowded_graphs(draw):
    """At most seven vertices, so up to six edges on each side of a vertex,
    any subset of the keys and any codes: groups of up to six edges that
    share a label."""
    n = draw(st.integers(1, 7))
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda k: k[0] < k[1]))))
    codes = draw(st.lists(st.integers(0, len(MOTIFS) - 1), min_size=len(keys), max_size=len(keys)))
    taus = draw(st.lists(_taus, min_size=len(keys), max_size=len(keys)))
    return EdgeLabelledTeg(n, [i for i, _ in keys], [j for _, j in keys], taus, codes)


@_SETTINGS
@given(crowded_graphs())
def test_label_violations_equal_a_loop_over_each_side(g):
    report = check_consistency(g)
    got = [(v.condition, *v.vertices, list(v.edges), v.detail) for v in report.violations if v.condition in ("C2", "C3")]
    assert got == label_groups(g)


@st.composite
def tie_free_networks(draw):
    """Distinct times on an offset up to 1e16 with gaps from one ulp to 1e6,
    so that tau sums round; few nodes, so many two-node motifs."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=1, max_size=40))
    t, times = draw(st.sampled_from([0.0, 1.0, 1e9, 1e16])), []
    for _ in pairs:
        times.append(t)
        ulps = draw(st.integers(1, 3))
        gap = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1e6)))
        t = t + gap
        for _ in range(ulps if t == times[-1] else 0):
            t = float(np.nextafter(t, math.inf))
    return TemporalNetwork([u for u, _ in pairs], [(u + d) % n for u, d in pairs], times)


@_SETTINGS
@given(tie_free_networks(), st.one_of(st.just(math.inf), st.floats(1e-6, 1e6)))
def test_anchored_round_trip_is_bit_exact(net, delta_t):
    g = strip_events(build_teg(net, delta_t), keep_anchors=True)
    rebuilt = reconstruct(g)
    assert rebuilt.times.tobytes() == net.times.tobytes()
    again = strip_events(build_teg(rebuilt, delta_t), keep_anchors=True)
    for name in EdgeLabelledTeg.__slots__[1:]:
        assert getattr(again, name).tobytes() == getattr(g, name).tobytes(), name
    if delta_t == math.inf:  # one component per connected node set: nodes map one to one
        pairs = set(zip(net.sources.tolist(), rebuilt.sources.tolist()))
        pairs |= set(zip(net.targets.tolist(), rebuilt.targets.tolist()))
        assert len(pairs) == len({u for u, _ in pairs}) == len({v for _, v in pairs})


@_SETTINGS
@given(tie_free_networks(), st.one_of(st.just(math.inf), st.floats(1e-6, 1e6)))
def test_stripped_tie_free_event_graphs_are_consistent(net, delta_t):
    assert check_consistency(strip_events(build_teg(net, delta_t))).ok


@st.composite
def swept_networks(draw):
    """A tie-free network and an ascending grid of windows, some of them at
    an edge's gap or one ulp above it, where the edge joins."""
    net = draw(tie_free_networks())
    iets = build_teg(net, math.inf).iets.tolist()
    at_gaps = st.sampled_from(iets + [float(np.nextafter(iet, math.inf)) for iet in iets]) if iets else st.nothing()
    windows = draw(st.lists(st.one_of(st.floats(1e-9, 1e7), st.just(math.inf), at_gaps), min_size=1, max_size=8))
    return net, sorted(set(windows))


@_SETTINGS
@given(swept_networks())
def test_every_sweep_window_is_the_largest_component_at_that_window(swept):
    net, grid = swept
    for delta_t, fraction in sweep_largest_component(net, grid):
        assert fraction == weakly_connected_components(build_teg(net, delta_t)).largest_fraction


@st.composite
def edge_lists(draw):
    """A vertex count and up to 60 edges between its vertices, self-loops among them."""
    n = draw(st.integers(1, 40))
    return n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))


@_SETTINGS
@given(edge_lists())
def test_labels_equal_a_union_find(graph):
    n, edges = graph
    a, b = (np.array([edge[k] for edge in edges], np.int64) for k in (0, 1))
    assert _labels(n, a, b).tolist() == union_find_labels(n, a.tolist(), b.tolist())


@_SETTINGS
@given(members)
def test_per_rank_reductions_equal_a_loop_over_the_ranks(member):
    # ties and few distinct times give repeated taus; short windows leave
    # components of one edge and of none
    net, delta_t = member
    cs = weakly_connected_components(build_teg(net, delta_t))
    rows, node_counts = per_rank_loop(cs.teg, cs.assignment)
    ranks, counts = cs.ranks_with_edges()
    got = np.column_stack((ranks, counts, cs.motif_masses(), cs.motif_entropies(), cs.iet_cres()))
    # every row of motifs and entropy --per-component, and the signs of its zeros
    assert got.tobytes() == np.array(rows, np.float64).reshape(-1, 10).tobytes()
    assert cs.node_counts().tolist() == node_counts
    for top in (1, 3):
        assert cs.node_counts(top).tolist() == node_counts[:top]
