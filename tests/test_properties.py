"""Property tests of the shuffle ensemble's counting path: the shuffled
columns and the motif counts it takes without a network or an event graph
equal those of ``time_shuffle``, ``build_teg`` and the quadratic oracle."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from _oracles import brute_force_teg, time_shuffle_sorted  # noqa: E402
from tegraph import MOTIFS, TemporalNetwork, build_teg, time_shuffle  # noqa: E402
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
