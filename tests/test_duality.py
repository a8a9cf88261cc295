"""Edge-labelled graphs: consistency conditions and network reconstruction."""

import hashlib
import io
import json
import math
import os
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import fifo_potentials, from_rows
from tegraph import (
    MOTIFS,
    AnchorError,
    EdgeLabelledTeg,
    Event,
    InconsistentGraphError,
    Motif,
    TemporalNetwork,
    Violation,
    build_teg,
    canonicalize,
    check_consistency,
    load_edge_labelled,
    load_events,
    reconstruct,
    save_edge_labelled,
    save_events,
    strip_events,
    weakly_connected_components,
    write_teg_json,
)
from tegraph.events import write_events
from tegraph import cli, duality
from tegraph import _text
from tegraph.generators import (
    DeterministicIets,
    ExponentialIets,
    GeneratorConfig,
    generate_random,
    parse_iet_sampler,
)

AB, BA = Motif.ABAB, Motif.ABBA
AC, CA, BC, CB = Motif.ABAC, Motif.ABCA, Motif.ABBC, Motif.ABCB


def _graph(n, edges):
    """The labelled graph of ``edges``, rows of (i, j, tau, motif)."""
    heads, tails, taus, motifs = zip(*edges)
    return EdgeLabelledTeg(n, heads, tails, taus, [MOTIFS.index(m) for m in motifs])


def _with(g, **columns):
    """``g`` built again with the named columns replaced."""
    kept = {name: getattr(g, name) for name in EdgeLabelledTeg.__slots__[1:]}
    return EdgeLabelledTeg(g.vertex_count, **{**kept, **columns})


def _taus(g):
    """``g``'s taus by key (i, j), read from its columns."""
    return dict(zip(zip(g.heads.tolist(), g.tails.tolist()), g.taus.tolist()))


def _anchors(g):
    """``g``'s anchor times by vertex, read from its columns."""
    return dict(zip(g.anchor_vertices.tolist(), g.anchor_times.tolist()))


def _row(g, i, j):
    """The row of edge (i, j) in ``g``'s columns."""
    return int(np.flatnonzero((g.heads == i) & (g.tails == j))[0])


# a valid 3-event chain: (a,b) then (b,c) then (c,a)
CHAIN = _graph(3, [(0, 1, 1.0, BC), (1, 2, 1.0, BC)])

# two out-edges with the same origin label
FIXTURE_C2 = _graph(3, [(0, 1, 1.0, AC), (0, 2, 2.0, AC)])

# two in-edges with the same destination label
FIXTURE_C3 = _graph(3, [(0, 2, 2.0, AC), (1, 2, 1.0, BC)])

# diamond from a real network with one inter-event time perturbed
FIXTURE_C1 = _graph(
    4, [(0, 1, 1.0, AC), (0, 2, 2.0, BC), (1, 3, 4.0, AC), (2, 3, 2.0, CA)]
)

# triangle whose direct edge carries the wrong two-node label
FIXTURE_C4 = _graph(3, [(0, 1, 1.0, BC), (1, 2, 1.0, CA), (0, 2, 2.0, BA)])


def test_strip_keeps_labels_and_keys():
    net = from_rows([(0, 1, 0.0), (1, 2, 1.0), (2, 0, 3.0)])
    teg = build_teg(net, math.inf)
    g = strip_events(teg)
    assert g.vertex_count == 3
    keys = list(zip(teg.heads.tolist(), teg.tails.tolist()))
    assert set(_taus(g)) == set(keys)
    for key, iet, code in zip(keys, teg.iets.tolist(), teg.codes.tolist()):
        assert _taus(g)[key] == iet
        assert g.mu[key] is MOTIFS[code]
    assert len(g.anchor_vertices) == len(g.anchor_times) == 0


def test_strip_anchors_record_every_event_time():
    net = from_rows([(0, 1, 2.0), (1, 2, 3.5)])
    g = strip_events(build_teg(net, math.inf), keep_anchors=True)
    assert _anchors(g) == {0: 2.0, 1: 3.5}


def test_strip_empty():
    g = strip_events(build_teg(from_rows(()), 1.0))
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert check_consistency(g).ok
    assert len(reconstruct(g)) == 0


def _edge(i=0, j=1, tau=1.0, code=0):
    return dict(heads=[i], tails=[j], taus=[tau], codes=[code])


@pytest.mark.parametrize("dt", (1.0, math.inf))
@pytest.mark.parametrize("keep_anchors", (False, True))
def test_strip_shares_the_columns_of_the_event_graph(keep_anchors, dt):
    net = generate_random(GeneratorConfig(40, 600, parse_iet_sampler("power_law:0.2"), 5))
    teg = build_teg(net, dt)
    g = strip_events(teg, keep_anchors=keep_anchors)
    for name in ("heads", "tails", "taus", "codes"):
        assert np.shares_memory(getattr(g, name), getattr(teg, name))
    assert np.shares_memory(g.anchor_times, net.times) == keep_anchors
    # an event graph is an edge-labelled graph: checked, written and
    # reconstructed as the graph stripped of its events
    assert check_consistency(teg).ok
    assert _written(teg) == _written(strip_events(teg))
    assert list(reconstruct(teg)) == list(reconstruct(strip_events(teg)))


def test_constructor_keeps_only_read_only_columns_in_order():
    def frozen(column):
        column = np.array(column)
        column.flags.writeable = False
        return column

    columns = [0, 0, 1], [1, 2, 2], [1.0, 2.0, 1.0], np.array([2, 1, 0], np.uint8)
    anchors = [0, 2], [0.5, 3.0]
    cases = {  # the columns given, and whether each is kept rather than copied
        "writable": ([np.array(c) for c in columns + anchors], [False] * 6),
        "read-only": ([frozen(c) for c in columns + anchors], [True] * 6),
        "int64 codes": ([frozen(c) for c in (*columns[:3], [2, 1, 0], *anchors)], [True] * 3 + [False, True, True]),
        "reversed": ([frozen(c[::-1]) for c in columns + anchors], [False] * 6),
    }
    for name, (given, kept) in cases.items():
        g = EdgeLabelledTeg(3, *given)
        stored = [g.heads, g.tails, g.taus, g.codes, g.anchor_vertices, g.anchor_times]
        assert [column is c for column, c in zip(given, stored)] == kept, name
        assert all(not c.flags.writeable for c in stored), name
        assert [c.tolist() for c in stored] == [np.asarray(c).tolist() for c in columns + anchors], name
        for column, c in zip(given, stored):
            if column.flags.writeable:  # writing what was given leaves the graph as it is
                column[:] = 0
                assert not np.shares_memory(column, c) and c.any(), name


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(_edge(), codes=[]), "unequal lengths"),
        (_edge(1, 0), "0 <= i < j"),
        (_edge(0, 0), "0 <= i < j"),
        (_edge(tau=0.0), "positive"),
        (_edge(code=len(MOTIFS)), "code out of range"),
        (dict(anchor_vertices=[5], anchor_times=[0.0]), "out of range"),
        (dict(anchor_vertices=[0], anchor_times=[math.nan]), "finite"),
        (_edge(False, True), "0 <= i < j"),
        (_edge(tau=True), "positive"),
        (_edge(tau="1.5"), "positive"),
        (dict(anchor_vertices=[True], anchor_times=[0.0]), "out of range"),
        (dict(anchor_vertices=[0], anchor_times=[False]), "finite"),
        (dict(_edge(False, True, True), anchor_vertices=[True], anchor_times=[False]), "0 <= i < j"),
        (_edge(0.7, 1.2), "integers"),
        (_edge(0.0, 1.0), "integers"),
        (_edge(code=255), "code out of range 0..5 at edge \\(0,1\\): 255"),
        (_edge(code=-1), "code out of range 0..5 at edge \\(0,1\\): -1"),
        (_edge(code=0.0), "integers"),
        (dict(heads=[0, 0], tails=[1], taus=[1.0, 1.0], codes=[0, 0]), "unequal lengths"),
        (dict(anchor_vertices=[0, 1], anchor_times=[0.0]), "unequal lengths"),
        (dict(heads=[0, 0], tails=[1, 1], taus=[1.0, 2.0], codes=[0, 1]), "duplicate edge \\(0, 1\\)"),
        (dict(anchor_vertices=[1, 1], anchor_times=[0.0, 0.0]), "duplicate anchor vertex 1"),
        (_edge(0, 2**70), "edge key \\(0,1180591620717411303424\\)"),
        (dict(heads=[[0]], tails=[[1]], taus=[[1.0]], codes=[[0]]), "integers"),
        # bools in lists of ints or floats are named, not cast: row 0 first
        (dict(heads=[True, 0], tails=[1, 1], taus=[1.0, True], codes=[0, 1]), "edge key \\(True,1\\)"),
        (dict(heads=[0, 0], tails=[1, 1], taus=[1.0, True], codes=[0, 1]), "tau\\[0,1\\] .* got True"),
        (dict(anchor_vertices=[0, 1], anchor_times=[1.0, True]), "vertex 1 must be finite, got True"),
        (dict(heads=np.array([0], np.uint64), tails=np.array([2**63], np.uint64), taus=[1.0], codes=[0]),
         "edge key \\(0,9223372036854775808\\)"),
        (dict(heads=np.array([[0]]), tails=[1], taus=[1.0], codes=[0]), "one-dimensional"),
    ],
)
def test_graph_validation(kwargs, match):
    no_edges = dict(heads=[], tails=[], taus=[], codes=[])
    with pytest.raises(ValueError, match=match):
        EdgeLabelledTeg(2, **{**no_edges, **kwargs})


def test_duplicate_edges_name_the_first_repeat_in_the_given_order():
    for rows, first in ([(2, 3), (0, 1), (0, 1), (2, 3)], (0, 1)), ([(0, 1), (2, 3), (2, 3), (0, 1)], (2, 3)):
        heads, tails = zip(*rows)
        with pytest.raises(ValueError, match=re.escape(f"duplicate edge {first}")):
            EdgeLabelledTeg(4, heads, tails, [1.0] * 4, [0] * 4)


@pytest.mark.parametrize(
    "count,match",
    [
        (True, "integer"),
        (2.0, "integer"),
        (-1, "non-negative"),
        (3_037_000_500, "at most 3037000499"),
        (10**20, "at most 3037000499"),
    ],
)
def test_vertex_count_validation(count, match):
    with pytest.raises(ValueError, match=match):
        EdgeLabelledTeg(count, [], [], [], [])
    # the largest count whose edge keys i * n + j fit in int64
    assert EdgeLabelledTeg(3_037_000_499, [], [], [], []).vertex_count == 3_037_000_499


def test_columns_are_sorted_and_read_only():
    g = EdgeLabelledTeg(4, [2, 0, 0], [3, 2, 1], [1, 2.5, 1.0], [0, 1, 2], [3, 1], [7, 2])
    assert g.heads.tolist() == [0, 0, 2] and g.tails.tolist() == [1, 2, 3]
    assert g.taus.tolist() == [1.0, 2.5, 1.0] and g.codes.tolist() == [2, 1, 0]
    assert g.anchor_vertices.tolist() == [1, 3] and g.anchor_times.tolist() == [2.0, 7.0]
    assert g.mu == {(0, 1): AC, (0, 2): BA, (2, 3): AB}
    for column in (g.heads, g.tails, g.taus, g.codes, g.anchor_vertices, g.anchor_times):
        assert not column.flags.writeable
    # ints are stored and written as floats
    buf = io.StringIO()
    save_edge_labelled(g, buf)
    assert '"tau": 1.0,' in buf.getvalue() and '"3": 7.0' in buf.getvalue()


@pytest.mark.parametrize(
    "fixture,condition",
    [
        (FIXTURE_C2, "C2"),
        (FIXTURE_C3, "C3"),
        (FIXTURE_C1, "C1"),
        (FIXTURE_C4, "C4"),
    ],
)
def test_each_fixture_breaks_exactly_its_condition(fixture, condition):
    report = check_consistency(fixture)
    assert not report.ok
    assert report.conditions == {condition}
    assert condition in report.summary()


def test_fixture_c4_with_correct_label_is_consistent():
    good = _graph(3, [(0, 1, 1.0, BC), (1, 2, 1.0, CA), (0, 2, 2.0, AB)])
    assert check_consistency(good).ok
    net = reconstruct(good)
    # direct edge closes the triangle on the same ordered pair
    assert net.events[0].nodes == net.events[2].nodes


def test_fixture_c1_with_correct_time_is_consistent():
    fixed = _graph(
        4, [(0, 1, 1.0, AC), (0, 2, 2.0, BC), (1, 3, 4.0, AC), (2, 3, 3.0, CA)]
    )
    assert check_consistency(fixed).ok


def test_more_than_two_edges_per_side_flagged():
    g = _graph(4, [(0, 1, 1.0, AC), (0, 2, 2.0, BC), (0, 3, 3.0, AC)])
    report = check_consistency(g)
    assert any(v.condition == "C2" and len(v.edges) == 3 for v in report.violations)


def test_label_multiplicity_report_is_exact():
    # vertex 0: three out-edges, two of them with origin label A; vertex 5:
    # two in-edges with destination label A
    g = _graph(
        6, [(0, 1, 1.0, AC), (0, 2, 2.0, BC), (0, 3, 3.0, AC), (3, 5, 1.0, BC), (4, 5, 2.0, AC)]
    )
    assert check_consistency(g).violations == (
        Violation(
            "C2",
            (0,),
            ((0, 1), (0, 2), (0, 3)),
            "vertex 0 has 3 out-edges; events have two nodes",
        ),
        Violation("C2", (0,), ((0, 1), (0, 3)), "vertex 0 has two out-edges with label A"),
        Violation("C3", (5,), ((3, 5), (4, 5)), "vertex 5 has two in-edges with label A"),
    )


def test_relabelled_chain_is_a_different_valid_network():
    # a lone prescription can never contradict itself, so swapping the
    # second hop's label just describes another genuine event sequence
    g = _graph(3, [(0, 1, 1.0, BC), (1, 2, 1.0, CA)])
    assert check_consistency(g).ok
    net = reconstruct(g)
    assert strip_events(build_teg(net, math.inf)).mu == g.mu


def test_sibling_two_node_label_without_support_path_is_c4():
    # labels locally coherent, but ABBA next to an out-edge needs the
    # sibling to start a path back to the direct head, and none exists
    g = _graph(3, [(0, 1, 1.0, BA), (0, 2, 2.0, AC)])
    report = check_consistency(g)
    assert report.conditions == {"C4"}


def test_node_collapse_is_c4():
    # (0,1) ABBA pins event 1 to (b,a); the in-edges of vertex 2 then
    # demand source b (from ABBC) and target b (from ABCA): one node
    g = _graph(3, [(0, 1, 1.0, BA), (0, 2, 2.0, BC), (1, 2, 1.0, CA)])
    report = check_consistency(g)
    assert "C4" in report.conditions
    assert any("one" in v.detail for v in report.violations if v.condition == "C4")


def test_label_implying_a_missing_edge_is_c4():
    # ABAB on (0,2) hands node a of event 0 to event 2, but event 1 holds a
    # in between (ABAC on (0,1)), so the labels imply an edge (1,2)
    g = _graph(3, [(0, 1, 1.0, AC), (0, 2, 2.0, AB)])
    report = check_consistency(g)
    assert report.violations == (
        Violation(
            "C4",
            (1, 2),
            ((1, 2),),
            "the node structure implied by the other edges requires an edge "
            "labelled ABAC; none exists",
        ),
    )


def _reply_pairs(pairs):
    """Pair (3p, 3p+1) opens, (3p, 3p+2) follows, (3p, 3p+1) replies; all
    openings come first, then all follow-ups, then all replies."""
    events = [(3 * p, 3 * p + 1, float(p)) for p in range(pairs)]
    events += [(3 * p, 3 * p + 2, float(pairs + p)) for p in range(pairs)]
    events += [(3 * p, 3 * p + 1, float(2 * pairs + p)) for p in range(pairs)]
    return strip_events(build_teg(from_rows(events), math.inf))


def test_reply_pairs_validate_and_a_flipped_reply_is_c4():
    pairs = 300
    g = _reply_pairs(pairs)
    assert check_consistency(g).ok
    reply = (17, 2 * pairs + 17)  # opening of pair 17 to its reply
    assert g.mu[reply] is AB
    codes = g.codes.copy()
    codes[_row(g, *reply)] = MOTIFS.index(BA)
    report = check_consistency(_with(g, codes=codes))
    assert report.conditions == {"C4"}


def test_perturbing_any_diamond_tau_breaks_c1():
    net = from_rows(
        [(0, 1, 0.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)]
    )
    g = strip_events(build_teg(net, math.inf))
    assert check_consistency(g).ok
    for k in range(g.edge_count):
        taus = g.taus.copy()
        taus[k] += 0.5
        broken = _with(g, taus=taus)
        assert "C1" in check_consistency(broken).conditions


def test_duplicating_xi_out_breaks_c2():
    g = strip_events(build_teg(from_rows(
        [(0, 1, 0.0), (0, 2, 1.0), (1, 2, 2.0)]
    ), math.inf))
    assert check_consistency(g).ok
    codes = g.codes.copy()
    codes[_row(g, 0, 2)] = codes[_row(g, 0, 1)]  # both out-edges of 0 now share xi_out
    report = check_consistency(_with(g, codes=codes))
    assert "C2" in report.conditions


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "sampler,windows",
    [
        (DeterministicIets(1.0), (2.5, 5.0, math.inf)),
        (ExponentialIets(1.0), (1.0, 4.0, math.inf)),
    ],
    ids=("deterministic", "exponential"),
)
def test_generated_graphs_are_consistent(seed, sampler, windows):
    net = generate_random(GeneratorConfig(9, 70, sampler, seed))
    for dt in windows:
        g = strip_events(build_teg(net, dt))
        report = check_consistency(g)
        assert report.ok, report.summary()


def test_round_trip_without_anchors_is_canonical():
    net = from_rows(
        [(3, 1, 4.0), (1, 2, 5.0), (2, 3, 6.5), (3, 2, 8.0)]
    )
    g = strip_events(build_teg(net, math.inf))
    assert reconstruct(g) == canonicalize(net)


def test_round_trip_with_anchors_restores_absolute_times():
    net = from_rows(
        [(0, 1, 10.0), (1, 2, 11.25), (0, 2, 13.5)]
    )
    g = strip_events(build_teg(net, math.inf), keep_anchors=True)
    rebuilt = reconstruct(g)
    assert [e.time for e in rebuilt] == [10.0, 11.25, 13.5]


def test_round_trip_with_anchors_restores_every_component():
    # three node-disjoint groups interleaved in time: three components
    rng = random.Random(5)
    events = []
    for k in range(60):
        group = rng.randrange(3)
        a, b = rng.sample(range(3 * group, 3 * group + 3), 2)
        events.append((a, b, 7.0 + 0.25 * k))
    net = from_rows(events)
    teg = build_teg(net, math.inf)
    assert len(weakly_connected_components(teg)) == 3
    g = strip_events(teg, keep_anchors=True)
    rebuilt = reconstruct(g)
    assert [e.time for e in rebuilt] == [e.time for e in net]
    again = strip_events(build_teg(rebuilt, math.inf), keep_anchors=True)
    assert (_taus(again), again.mu, _anchors(again)) == (_taus(g), g.mu, _anchors(g))


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random_connected(seed):
    # dyadic gaps keep every time sum exact, so equality is exact
    import numpy as np

    rng = np.random.default_rng(seed)
    events = []
    t = 0.0
    for k in range(60):
        t += float(1 + rng.integers(0, 8)) / 8.0
        u = int(rng.integers(0, 6))
        v = int(rng.integers(0, 5))
        v += v >= u
        events.append((u, v, t))
    net = from_rows(events)
    teg = build_teg(net, math.inf)
    g = strip_events(teg)
    assert reconstruct(g) == canonicalize(net)


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
@pytest.mark.parametrize(
    "events",
    [
        [(2, 1, 1.0), (0, 1, 1.0), (1, 2, 2.0)],
        [(1, 2, 0.0), (2, 1, 1.0), (0, 1, 1.0), (1, 2, 2.0)],
    ],
    ids=("three-events", "readme"),
)
def test_tied_network_round_trips(events):
    # two tied events share node 1 but no edge; the labels of their edges
    # to the next event join their slots, and a zero gap asks for no edge
    net = from_rows(events)
    g = strip_events(build_teg(net, 2.0))
    assert check_consistency(g).ok
    assert reconstruct(g) == canonicalize(net)


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
@pytest.mark.parametrize("keep_anchors", (False, True))
def test_tie_hiding_a_next_event_in_another_component_is_c4(keep_anchors):
    # node 1's event after (0,1,2) is the tied (1,2,2), which has no edge to
    # it and lies in another component; within its own component the labels
    # then make event 3 its next event on node 1, an edge the graph lacks
    net = from_rows([(0, 1, 2), (1, 2, 2), (2, 1, 3), (2, 1, 3), (0, 1, 5), (1, 0, 6), (1, 2, 6), (0, 2, 9)])
    report = check_consistency(strip_events(build_teg(net, 3.5), keep_anchors=keep_anchors))
    assert [(v.condition, v.edges) for v in report.violations] == [("C4", ((0, 3),))]


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
@pytest.mark.parametrize("keep_anchors", (False, True))
def test_one_ulp_gap_whose_potentials_round_equal_is_an_edge(keep_anchors):
    # events 2 and 3 are one ulp apart; the tau sums reach both at 3.3, yet
    # the edge between them is real and C1 accepts its tau
    times = (0.0, 1.0999999999999999, 3.3, math.nextafter(3.3, math.inf))
    net = from_rows([(0, 1, times[0]), (1, 0, times[1]), (2, 0, times[2]), (2, 1, times[3])])
    g = strip_events(build_teg(net, math.inf), keep_anchors=keep_anchors)
    assert g.taus[_row(g, 2, 3)] == times[3] - times[2]
    assert check_consistency(g).ok
    rebuilt = reconstruct(g)
    assert [(e.source, e.target) for e in rebuilt] == [(e.source, e.target) for e in canonicalize(net)]
    if keep_anchors:
        assert rebuilt == net


def _tied_networks(count):
    """Seeded integer-time networks of 2-5 nodes and up to 30 events, so most
    times are shared, each with a window of 0.5, 1, 2, 3.5 or inf."""
    rng = random.Random(5)
    for _ in range(count):
        nodes = rng.randrange(2, 6)
        events = [(*rng.sample(range(nodes), 2), float(rng.randrange(12))) for _ in range(rng.randrange(2, 31))]
        yield from_rows(events), rng.choice((0.5, 1.0, 2.0, 3.5, math.inf))


def _component(g, members):
    """The subgraph of ``g`` on the ascending ``members``, renumbered from 0."""
    index = np.full(g.vertex_count, -1)
    index[list(members)] = np.arange(len(members))
    edges, anchored = index[g.heads] >= 0, index[g.anchor_vertices] >= 0
    columns = (index[g.heads[edges]], index[g.tails[edges]], g.taus[edges], g.codes[edges])
    return EdgeLabelledTeg(len(members), *columns, index[g.anchor_vertices[anchored]], g.anchor_times[anchored])


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
@pytest.mark.parametrize("keep_anchors", (False, True))
def test_tied_graphs_that_validate_round_trip_per_component(keep_anchors):
    # the graphs that fail are the ones where a tie hides a node's next
    # event inside another component; every other graph is rebuilt, one
    # component at a time, to the labelled graph it came from
    failed = 0
    for net, dt in _tied_networks(300):
        teg = build_teg(net, dt)
        g = strip_events(teg, keep_anchors=keep_anchors)
        report = check_consistency(g)
        if not report.ok:
            assert report.conditions == {"C4"}, report.summary()
            failed += 1
            continue
        assert len(reconstruct(g)) == len(net)
        components = weakly_connected_components(teg)
        for rank in range(len(components)):
            part = _component(g, components[rank].events)
            again = strip_events(build_teg(reconstruct(part), dt), keep_anchors=keep_anchors)
            assert (_taus(again), again.mu, _anchors(again)) == (_taus(part), part.mu, _anchors(part))
    assert failed <= 6  # the hidden ties of this draw, 2% of it


def test_multi_component_reconstruction_layouts():
    g = _graph(4, [(0, 1, 1.0, AC), (2, 3, 2.0, BA)])
    with pytest.warns(UserWarning):
        overlay = reconstruct(g)
    # both components based at 0, node labels disjoint across components
    assert [(e.source, e.target, e.time) for e in overlay] == [
        (0, 1, 0.0),
        (3, 4, 0.0),
        (0, 2, 1.0),
        (4, 3, 2.0),
    ]
    laid = reconstruct(g, layout="end_to_end", spacing=0.5)
    assert [(e.source, e.target, e.time) for e in laid] == [
        (0, 1, 0.0),
        (0, 2, 1.0),
        (3, 4, 1.5),
        (4, 3, 3.5),
    ]
    with pytest.raises(ValueError, match="layout"):
        reconstruct(g, layout="stacked")
    with pytest.raises(ValueError, match="spacing"):
        reconstruct(g, layout="end_to_end", spacing=-1.0)


def test_isolated_vertex_becomes_fresh_event():
    g = EdgeLabelledTeg(1, [], [], [], [])
    assert reconstruct(g).events == (Event(0, 1, 0.0),)
    anchored = _with(g, anchor_vertices=[0], anchor_times=[7.5])
    assert reconstruct(anchored).events == (Event(0, 1, 7.5),)


def test_contradictory_anchors_raise():
    net = from_rows([(0, 1, 0.0), (1, 2, 1.0)])
    g = strip_events(build_teg(net, math.inf), keep_anchors=True)
    bad = _with(g, anchor_vertices=[0, 1], anchor_times=[0.0, 5.0])
    with pytest.raises(AnchorError, match="disagree"):
        reconstruct(bad)
    negative = _with(g, anchor_vertices=[1], anchor_times=[0.5])
    with pytest.raises(AnchorError, match="negative"):
        reconstruct(negative)


def test_reconstruct_refuses_inconsistent_input():
    with pytest.raises(InconsistentGraphError) as info:
        reconstruct(FIXTURE_C4)
    assert info.value.report.conditions == {"C4"}
    # there is no switch that skips the check, by keyword or by position
    with pytest.raises(TypeError):
        reconstruct(FIXTURE_C4, validate=False)
    with pytest.raises(TypeError):
        reconstruct(FIXTURE_C4, False)


@pytest.mark.parametrize("fixture", (FIXTURE_C4, FIXTURE_C3), ids=("C4", "C3"))
def test_reconstruct_raises_the_full_report(fixture):
    with pytest.raises(InconsistentGraphError) as info:
        reconstruct(fixture)
    assert info.value.report == check_consistency(fixture)


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")  # laid end to end, some events tie
@pytest.mark.parametrize("spacing", [0.1, 1 / 3, 0.0, 0, 1])
def test_end_to_end_layout_matches_a_loop(spacing):
    # a loop over the components in their placed order lays them out
    net = generate_random(GeneratorConfig(100, 2000, ExponentialIets(1.0), 5))
    g = strip_events(build_teg(net, 30.0))
    p = duality._Pass(g)
    times, start = duality._absolute_times(g, p, 1e-12)
    widths = p.reduce(np.maximum, times) - start
    placed = np.argsort(start, kind="stable").tolist()
    assert len(placed) > 200
    offsets, offset = [0.0] * len(placed), 0.0
    for c in placed:
        offsets[c] = offset
        offset = float(widths[c]) + offset + spacing
    expected = np.sort(times - start[p.label] + np.array(offsets)[p.label])
    laid = reconstruct(g, layout="end_to_end", spacing=spacing)
    assert laid.times.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")  # components overlaid at t = 0
@pytest.mark.parametrize("keep_anchors", (True, False))
def test_reconstruct_makes_one_pass(monkeypatch, keep_anchors):
    calls = {}
    for name in ("_potentials", "_resolve_nodes"):

        def counted(*args, _name=name, _original=getattr(duality, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(duality, name, counted)
    net = generate_random(GeneratorConfig(9, 70, ExponentialIets(1.0), 3))
    teg = build_teg(net, 1.0)
    assert len(weakly_connected_components(teg)) > 1
    g = strip_events(teg, keep_anchors=keep_anchors)
    rebuilt = reconstruct(g)
    assert len(rebuilt) == len(net)
    if keep_anchors:
        assert [e.time for e in rebuilt] == [e.time for e in net]
    assert calls == {"_potentials": 1, "_resolve_nodes": 1}


@pytest.mark.parametrize("dt", (math.inf, 1.0))
@pytest.mark.parametrize("events", (200, 5000, 20000))
@pytest.mark.parametrize("law", ("power_law:0.2", "exponential:1.0"))
def test_round_trip_with_anchors_is_exact_for_real_valued_times(law, events, dt):
    # float tau sums drift from the original times; anchors must not
    net = generate_random(GeneratorConfig(events // 20, events, parse_iet_sampler(law), 0))
    g = strip_events(build_teg(net, dt), keep_anchors=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a false equal-timestamp tie warns
        rebuilt = reconstruct(g)
    assert [e.time for e in rebuilt] == [e.time for e in net]
    again = strip_events(build_teg(rebuilt, dt), keep_anchors=True)
    assert (again.vertex_count, _taus(again), again.mu, _anchors(again)) == (
        g.vertex_count,
        _taus(g),
        g.mu,
        _anchors(g),
    )


@pytest.mark.parametrize("rel_tol", (math.nan, -1e-12))
def test_bad_rel_tol_is_rejected(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        check_consistency(CHAIN, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        reconstruct(CHAIN, rel_tol=rel_tol)


def test_reconstructed_times_realize_every_label():
    net = generate_random(GeneratorConfig(6, 50, ExponentialIets(1.0), 21))
    g = strip_events(build_teg(net, math.inf))
    rebuilt = reconstruct(g)
    times = [e.time for e in rebuilt]
    assert times == sorted(times)
    assert min(times) == 0.0
    assert len(rebuilt) == g.vertex_count
    # vertex order is event order, so edge (i, j) separates times by tau
    for i, j, tau in zip(g.heads.tolist(), g.tails.tolist(), g.taus.tolist()):
        assert times[j] - times[i] == pytest.approx(tau)


def test_report_locates_edges_and_vertices():
    report = check_consistency(FIXTURE_C1)
    v = report.violations[0]
    assert v.condition == "C1"
    assert all(0 <= i < j <= 3 for i, j in v.edges)
    assert v.vertices
    assert "C1" in str(v)


def test_json_round_trip_exact():
    net = generate_random(GeneratorConfig(5, 30, ExponentialIets(1.0), 2))
    g = strip_events(build_teg(net, 2.0), keep_anchors=True)
    buf = io.StringIO()
    save_edge_labelled(g, buf)
    loaded = load_edge_labelled(io.StringIO(buf.getvalue()))
    assert loaded.vertex_count == g.vertex_count
    assert _taus(loaded) == _taus(g)  # bit-exact floats
    assert loaded.mu == g.mu
    assert _anchors(loaded) == _anchors(g)


def _graphs_to_write():
    special = (5e-324, 1e-7, 1e16, 0.1, 3.0)
    yield EdgeLabelledTeg(0, [], [], [], [])
    yield EdgeLabelledTeg(3, [], [], [], [], [1, 2], [-0.0, 1e16])
    yield EdgeLabelledTeg(2, [0], [1], [5e-324], [MOTIFS.index(BA)])
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(2, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keys = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        taus = [rng.choice(special + (rng.random() + 1e-3,)) for _ in keys]
        codes = [MOTIFS.index(rng.choice(MOTIFS)) for _ in keys]
        times = special + (-0.0, 0.0, rng.uniform(-1e6, 1e6))
        vertices = rng.sample(range(n), rng.randrange(n + 1))
        anchor_times = [rng.choice(times) for _ in vertices]
        yield EdgeLabelledTeg(n, [i for i, _ in keys], [j for _, j in keys], taus, codes, vertices, anchor_times)


@pytest.mark.parametrize("g", list(_graphs_to_write()), ids=repr)
def test_writer_matches_json_dump(g):
    doc = {
        "vertex_count": g.vertex_count,
        "edges": [
            {"i": i, "j": j, "tau": tau, "motif": mu.value}
            for ((i, j), tau), mu in zip(sorted(_taus(g).items()), g.mu.values())
        ],
    }
    if _anchors(g):
        doc["anchors"] = {str(v): t for v, t in _anchors(g).items()}
    buf = io.StringIO()
    save_edge_labelled(g, buf)
    assert buf.getvalue() == json.dumps(doc, indent=1) + "\n"
    loaded = load_edge_labelled(io.StringIO(buf.getvalue()))
    assert (_taus(loaded), loaded.mu, _anchors(loaded)) == (_taus(g), g.mu, _anchors(g))


def test_pipeline_never_builds_dict_views(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("a dict view of the graph was built")

    monkeypatch.setattr(EdgeLabelledTeg, "mu", property(refuse))
    net = generate_random(GeneratorConfig(40, 600, parse_iet_sampler("power_law:0.2"), 5))
    for keep_anchors in (True, False):
        g = strip_events(build_teg(net, math.inf), keep_anchors=keep_anchors)
        buf = io.StringIO()
        save_edge_labelled(g, buf)
        loaded = load_edge_labelled(io.StringIO(buf.getvalue()))
        assert check_consistency(loaded).ok
        rebuilt = reconstruct(loaded, layout="overlay" if keep_anchors else "end_to_end")
        assert len(rebuilt) == len(net)
    assert not check_consistency(FIXTURE_C4).ok
    events, graph = tmp_path / "events.txt", tmp_path / "graph.json"
    for argv in (
        ["generate", "--nodes", 20, "--events", 300, "--iets", "exponential:1", "--output", events],
        ["build", "--input", events, "--dt", "inf", "--output", graph],
        ["validate", "--input", graph],
        ["reconstruct", "--input", graph, "--output", tmp_path / "rebuilt.txt"],
    ):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.mark.parametrize(
    "doc",
    [
        '{"edges": []}',
        '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": 1.0}]}',
        '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": 1.0, "motif": "ZZ"}]}',
        (
            '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": 1.0, "motif": "ABAB"},'
            ' {"i": 0, "j": 1, "tau": 2.0, "motif": "ABAB"}]}'
        ),
        '{"vertex_count": 2.0, "edges": []}',
        '{"vertex_count": "2", "edges": []}',
        '{"vertex_count": 3, "edges": [{"i": 0, "j": 1.9, "tau": 1.0, "motif": "ABAB"}]}',
        '{"vertex_count": 3, "edges": [{"i": true, "j": 2, "tau": 1.0, "motif": "ABAB"}]}',
        '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": "1.5", "motif": "ABAB"}]}',
        '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": true, "motif": "ABAB"}]}',
        '{"vertex_count": 2, "edges": [], "anchors": {"0": "3"}}',
        '{"vertex_count": 2, "edges": [], "anchors": {"0": false}}',
        '{"vertex_count": 2, "edges": [], "anchors": [1, 2]}',
        '{"vertex_count": 11, "edges": [], "anchors": {"1_0": 3.0}}',
        '{"vertex_count": 2, "edges": [], "anchors": {"01": 3.0}}',
        '{"vertex_count": 3, "edges": [{"i": 0, "j": 5, "tau": 1.0, "motif": "ABAB"}]}',
        '{"vertex_count": 2, "edges": [{"i": 0, "j": 1, "tau": 0, "motif": "ABAB"}]}',
    ],
)
def test_malformed_graph_json_rejected(doc):
    with pytest.raises(ValueError, match="malformed edge-labelled graph JSON"):
        load_edge_labelled(io.StringIO(doc))


def test_consistent_chain_round_trips():
    assert check_consistency(CHAIN).ok
    net = reconstruct(CHAIN)
    assert canonicalize(net) == net
    assert strip_events(build_teg(net, math.inf)).mu == CHAIN.mu


def _mutation_corpus():
    """Seeded labelled graphs: stripped from tie-free (real-valued) and
    tie-heavy (integer-time) networks, some with anchors, each then left
    alone, or given a flipped label, a changed tau, a dropped edge, an added
    edge or a moved anchor."""
    rng = random.Random(9)
    for k in range(600):
        tie_heavy = k % 2 == 1
        nodes = rng.randrange(2, 6) if tie_heavy else rng.randrange(3, 9)
        events, t = [], 0.0
        for _ in range(rng.randrange(2, 31)):
            u, v = rng.sample(range(nodes), 2)
            t = float(rng.randrange(12)) if tie_heavy else t + rng.choice((0.25, 1.0, rng.random() + 0.01))
            events.append((u, v, t))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net = from_rows(events)
        g = strip_events(build_teg(net, rng.choice((1.5, 3.5, math.inf))), keep_anchors=k % 3 == 0)
        tau, mu, anchors = _taus(g), g.mu, _anchors(g)
        keys = sorted(tau)
        mutation = rng.randrange(6)
        if mutation == 1 and keys:
            key = rng.choice(keys)
            mu[key] = rng.choice([m for m in MOTIFS if m is not mu[key]])
        elif mutation == 2 and keys:
            key = rng.choice(keys)
            tau[key] = tau[key] + rng.choice((0.5, 1e-9, 2.0))
        elif mutation == 3 and keys:
            key = rng.choice(keys)
            del tau[key], mu[key]
        elif mutation == 4 and g.vertex_count > 2:
            i, j = sorted(rng.sample(range(g.vertex_count), 2))
            tau[i, j], mu[i, j] = rng.choice((0.5, 1.0, 3.0)), rng.choice(MOTIFS)
        elif mutation == 5 and anchors:
            v = rng.choice(sorted(anchors))
            anchors[v] = anchors[v] + rng.choice((-50.0, 0.5, 1e-13))
        keys, anchors = sorted(tau), anchors or {}
        heads, tails = [i for i, _ in keys], [j for _, j in keys]
        codes = [MOTIFS.index(mu[key]) for key in keys]
        yield EdgeLabelledTeg(g.vertex_count, heads, tails, [tau[key] for key in keys], codes, *zip(*anchors.items()))


def _outcome(call):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return repr([(e.source, e.target, e.time) for e in call()])
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mutation_corpus_matches_recorded_digests():
    # pins every verdict, violation message, reconstructed time and
    # anchor error of the corpus
    summaries, rebuilt = hashlib.sha256(), hashlib.sha256()
    verdicts = set()
    for g in _mutation_corpus():
        report = check_consistency(g)
        verdicts |= report.conditions or {"ok"}
        summaries.update(report.summary().encode() + b"\n")
        for layout in ("overlay", "end_to_end"):
            rebuilt.update(_outcome(lambda: reconstruct(g, layout=layout)).encode() + b"\n")
    assert verdicts == {"ok", "C1", "C2", "C3", "C4"}
    assert summaries.hexdigest() == "558c0871b054d83ab685dff52284c830c56173c929b8fe07464d6f744eaddd08"
    assert rebuilt.hexdigest() == "ac85af9b45e52977c42a993778aa1e077b84aad0a989c5f29020c753ccf23941"


def _columns_graph(sources, targets, times):
    net = TemporalNetwork(np.asarray(sources), np.asarray(targets), np.asarray(times, float))
    return strip_events(build_teg(net, math.inf))


def _potential_shapes():
    """Labelled graphs the level-synchronous search has to get bit-exact:
    seeded multi-component networks, many three-event components, isolated
    vertices, no vertices, and two-node chains deeper than the hand-off to
    the FIFO loop, alone, beside a wide component, leading into one, and 32
    side by side, handed off together."""
    for seed, law in enumerate(("power_law:0.2", "exponential:1.0", "power_law:0.5")):
        net = generate_random(GeneratorConfig(60, 3000, parse_iet_sampler(law), seed))
        for dt in (0.05, 0.5, 3.0, 50.0, math.inf):
            yield f"{law}-dt{dt}", strip_events(build_teg(net, dt))
    rng = np.random.default_rng(3)
    pairs = 400
    ends = 3 * np.arange(pairs)
    times = np.cumsum(rng.exponential(1.0, 3 * pairs))
    yield "reply-pairs", _columns_graph(np.tile(ends, 3), np.concatenate([ends + 1, ends + 2, ends + 1]), times)
    yield "isolated", _graph(7, [(1, 4, 0.5, AC), (4, 5, 0.25, CA)])
    yield "empty", EdgeLabelledTeg(0, [], [], [], [])
    m = 3 * duality._DEEP + 5
    chain = np.arange(m) % 2
    gaps = np.cumsum(rng.exponential(1.0, m))
    yield "chain", _columns_graph(chain, 1 - chain, gaps)
    u = rng.integers(2, 40, 2000)
    v = (u - 2 + rng.integers(1, 38, 2000)) % 38 + 2
    wide_times = np.sort(rng.uniform(0, gaps[-1], 2000))
    yield "chain-beside-wide", _columns_graph(
        np.concatenate([chain, u]), np.concatenate([1 - chain, v]), np.concatenate([gaps, wide_times])
    )
    yield "chain-into-wide", _columns_graph(
        np.concatenate([chain, u % 20]),
        np.concatenate([1 - chain, v % 20 + 20]),
        np.concatenate([gaps, gaps[-1] + 1 + wide_times]),
    )
    k = np.arange(1, 32 * m + 1)
    flip = k // 32 % 2
    yield "parallel-chains", _columns_graph(2 * (k % 32) + flip, 2 * (k % 32) + 1 - flip, k)


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
@pytest.mark.parametrize("name,g", list(_potential_shapes()), ids=lambda x: x if isinstance(x, str) else "")
def test_potentials_match_one_fifo_search_per_component(name, g):
    p = duality._Pass(g)
    pot, order, starts = fifo_potentials(
        g.vertex_count,
        p.out_ptr.tolist(),
        g.tails.tolist(),
        g.taus.tolist(),
        p.in_ptr.tolist(),
        p.in_heads.tolist(),
        g.taus[np.argsort(g.tails, kind="stable")].tolist(),
    )
    assert p.pot.tobytes() == np.array(pot, np.float64).tobytes()
    components = [sorted(order[a:b]) for a, b in zip(starts, starts[1:] + [len(order)])]
    assert p.order.tolist() == [v for component in components for v in component]
    assert p.starts.tolist() == starts


def test_deep_chain_reaches_the_fifo_loop(monkeypatch):
    handed, scanned = [], []

    def counted(queue, *args, _original=duality._fifo):
        handed.append(len(queue))
        _original(queue, *args)
        scanned.append(len(queue))

    monkeypatch.setattr(duality, "_fifo", counted)
    shapes = dict(_potential_shapes())
    duality._Pass(shapes["chain"])
    assert scanned and scanned[0] > 2 * duality._DEEP
    handed.clear()
    scanned.clear()
    duality._Pass(shapes["parallel-chains"])  # one hand-off of all 32 components
    assert handed == [32] and scanned == [shapes["parallel-chains"].vertex_count - 32 * duality._DEEP]
    scanned.clear()
    duality._Pass(shapes["reply-pairs"])
    assert not scanned  # wide levels only


def _load_outcome(text, fast):
    """Columns or error text of load_edge_labelled, with or without the layout reader."""
    original = duality._layout_columns
    duality._layout_columns = original if fast else (lambda text: None)
    try:
        g = load_edge_labelled(io.StringIO(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        duality._layout_columns = original
    columns = (g.heads, g.tails, g.taus, g.codes, g.anchor_vertices, g.anchor_times)
    return g.vertex_count, [column.tobytes() for column in columns]


def _written(g):
    buf = io.StringIO()
    save_edge_labelled(g, buf)
    return buf.getvalue()


def _documents():
    """Writer output, the same documents in other JSON layouts, hand-made
    faults the layout reader must refuse, and seeded single-byte mutations."""
    net = generate_random(GeneratorConfig(6, 40, ExponentialIets(1.0), 8))
    graphs = [
        strip_events(build_teg(net, 2.0), keep_anchors=True),
        strip_events(build_teg(net, math.inf)),
        EdgeLabelledTeg(0, [], [], [], []),
        EdgeLabelledTeg(3, [], [], [], [], [1, 2], [-0.0, 1e16]),
        EdgeLabelledTeg(2, [0], [1], [5e-324], [MOTIFS.index(BA)], [0], [1e-7]),
    ]
    for g in graphs:
        text = _written(g)
        doc = json.loads(text)
        yield "writer", text
        yield "indent-none", json.dumps(doc)
        yield "indent-2", json.dumps(doc, indent=2) + "\n"
        yield "reordered", json.dumps(dict(reversed(doc.items())), indent=1) + "\n"
        yield "sorted-keys", json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if "anchors" in doc:  # the writer's framing up to the count, then anchors before edges
            first = {"vertex_count": doc["vertex_count"], "anchors": doc["anchors"], "edges": doc["edges"]}
            yield "anchors-first", json.dumps(first, indent=1) + "\n"
    g = graphs[0]
    text = _written(g)
    tau, anchor = f'"tau": {float(g.taus[0])!r}', f'"0": {float(g.anchor_times[0])!r}'
    name, last = MOTIFS[g.codes[0]].value, f'"{g.vertex_count - 1}": {float(g.anchor_times[-1])!r}'
    # a value moved out of its place leaves the same tokens in the same order
    yield "moved i", text.replace('  {\n   "i": 0,', '  {0\n   "i": ,', 1)
    yield "moved motif", text.replace(f'"motif": "{name}"\n  }}', f'"motif": ""\n  }}{name}', 1)
    yield "moved anchor", text.replace(f"{last}\n }}", f'"{g.vertex_count - 1}"{last.split()[1]}: \n }}')
    for old, new in [
        (tau, '"tau": inf'),
        (tau, '"tau": Infinity'),
        (tau, '"tau": -0'),
        (tau, '"tau": 2'),
        (tau, '"tau": 1e400'),
        (tau, '"tau": 01.5'),
        (tau, '"tau": .5'),
        (tau, '"tau": 5.'),
        (tau, '"tau": +1.5'),
        (tau, '"tau": 1E5'),
        (tau, '"tau": 1e-05'),
        (tau, '"tau": 1_0.5'),
        (tau, '"tau": 1e05'),
        (tau, '"tau": 1e+5'),
        (tau, '"tau": 1.5E-3'),
        (tau, '"tau": -0.0'),
        (tau, '"tau": -1.5'),
        (tau, '"tau": 0.50'),
        (tau, '"tau": 0e0'),
        (tau, '"tau": 1.5e-400'),
        (tau, '"tau": 1.7976931348623157e308'),
        (tau, '"tau": 2e-'),
        (anchor, '"0": -0'),
        (anchor, '"0": -00.5'),
        (anchor, '"00": 1.5'),
        (anchor, '"-0": 1.5'),
        (anchor, '"+0": 1.5'),
        (anchor, '"9223372036854775808": 1.5'),
        ('"i": 0', '"i": 00'),
        ('"i": 0', '"i": -0'),
        ('"i": 0', '"i": 1234567890123456789012'),
        ('"i": 0', '"i": 9223372036854775807'),
        ('"i": 0', '"i": 9223372036854775808'),
        ('"i": 0', '"i": -3'),
        ('"vertex_count": ', '"vertex_count": 0'),
        (f'"vertex_count": {g.vertex_count},', f'"vertex_count": {g.vertex_count}.0,'),
        ('"anchors": {\n  "0"', '"anchors": {\n  "1"'),
        ('"motif": "', '"motif": "\\u0041'),
        (f'"motif": "{name}"', '"motif": "ABCD"'),
        (f'"motif": "{name}"', '"motif": "abab"'),
        ("\n}\n", "\n}\n\n"),
        ("\n}\n", "\n} \n"),
        ("\n}\n", "\n}"),
    ]:
        assert old in text
        yield f"edit {new!r}", text.replace(old, new, 1)
    rng = random.Random(12)
    alphabet = '0123456789.eE+-ABCx "{}[],:\n\x01é'
    for k in range(400):
        text = _written(graphs[k % 2])
        at = rng.randrange(len(text))
        change = rng.randrange(3)
        char = rng.choice(alphabet)
        if change == 0:
            text = text[:at] + char + text[at + 1 :]
        elif change == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + char + text[at:]
        yield "mutation", text


def test_layout_reader_matches_the_json_reader():
    taken = {}
    for name, text in _documents():
        fast = duality._layout_columns(text) is not None
        taken.setdefault(name, set()).add(fast)
        assert _load_outcome(text, fast=True) == _load_outcome(text, fast=False), (name, text)
    assert taken["writer"] == {True}
    for name in ("indent-none", "indent-2", "reordered", "sorted-keys", "anchors-first"):
        assert taken[name] == {False}
    assert taken["mutation"] == {True, False}
    assert taken["moved i"] == taken["moved motif"] == taken["moved anchor"] == {False}
    for name in ("ABCD", "abab"):
        assert taken[f"edit '\"motif\": \"{name}\"'"] == {False}
    # JSON numbers in the writer's own form are read on the fast path
    assert taken["edit '\"tau\": 1E5'"] == {True}
    assert taken["edit '\"tau\": 1e-05'"] == {True}


def test_layout_reader_cut_at_any_row_joint(monkeypatch):
    # small chunks put a cut at every row joint, next to the framing and
    # inside mutated rows; either reader must still give the other's outcome
    documents = list(_documents())
    for chunk in (1, 40, 200):
        monkeypatch.setattr(_text, "CHUNK", chunk)
        for name, text in documents:
            assert _load_outcome(text, fast=True) == _load_outcome(text, fast=False), (chunk, name, text)
            if name == "writer":
                assert duality._layout_columns(text) is not None, (chunk, text)
    monkeypatch.undo()
    # writer output of many chunks at the real size takes the fast path: a cut
    # inside a row would fail to parse and quietly send it the whole-text way
    _, _, g = _pinned_graphs()
    edges = (c[:9000] for c in (g.heads, g.tails, g.taus, g.codes))
    text = _written(EdgeLabelledTeg(g.vertex_count, *edges, g.anchor_vertices, g.anchor_times))
    assert len(text) > 8 * _text.CHUNK and text.index('"anchors"') < len(text) - 2 * _text.CHUNK
    assert duality._layout_columns(text) is not None


def _pinned_graphs():
    net = generate_random(GeneratorConfig(250, 5000, parse_iet_sampler("power_law:0.2"), 1))
    teg = build_teg(net, math.inf)
    return teg, strip_events(teg), strip_events(teg, keep_anchors=True)


def test_writers_keep_their_bytes():
    # digests of the writers' output before rows were written in chunks
    teg, bare, anchored = _pinned_graphs()
    assert teg.edge_count > 2 * _text.ROWS
    buf = io.StringIO()
    write_teg_json(teg, buf)
    texts = (_written(bare), _written(anchored), buf.getvalue())
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    assert digests == [
        "a017a825c1d887ab19ae760c966b0a0ec6afd26080cdb30f4b8a8a6d0fb76966",
        "ef6550b0527456e73045b36da982d571e4328874bc4d3b30f79fe599d2ea961a",
        "b49ae627f0d577a383e93e86d3407e3457cef93fbafad6a4c94f1c307dca1b41",
    ]


@pytest.mark.parametrize("edges", (0, 1, 2, _text.ROWS, _text.ROWS + 1, 9000))
@pytest.mark.parametrize("keep_anchors", (False, True))
def test_chunked_writer_matches_json_dump(edges, keep_anchors):
    _, _, g = _pinned_graphs()
    anchors = (g.anchor_vertices, g.anchor_times) if keep_anchors else ()
    columns = (c[:edges] for c in (g.heads, g.tails, g.taus, g.codes))
    g = EdgeLabelledTeg(g.vertex_count, *columns, *anchors)
    doc = {
        "vertex_count": g.vertex_count,
        "edges": [
            {"i": i, "j": j, "tau": t, "motif": MOTIFS[c].value}
            for i, j, t, c in zip(g.heads.tolist(), g.tails.tolist(), g.taus.tolist(), g.codes.tolist())
        ],
    }
    if keep_anchors:
        doc["anchors"] = {str(v): t for v, t in zip(g.anchor_vertices.tolist(), g.anchor_times.tolist())}
    text = _written(g)
    assert text == json.dumps(doc, indent=1) + "\n"
    assert _load_outcome(text, fast=True) == _load_outcome(text, fast=False)


@pytest.mark.parametrize("rows", (0, 1, _text.ROWS, _text.ROWS + 1))
def test_chunked_components_writer_matches_json_dump(tmp_path, rows):
    # at this window the pinned network has 4,478 components, 454 of them
    # with more than one event, so --top sets the row count
    path, out = tmp_path / "events.txt", tmp_path / "components.json"
    net = _pinned_graphs()[0].network if rows else from_rows(())
    dt = 1.0
    save_events(net, str(path))
    argv = ["components", "--input", str(path), "--dt", repr(dt), "--output", str(out)]
    assert cli.main(argv + (["--top", str(rows)] if rows else [])) == 0
    cs = weakly_connected_components(build_teg(load_events(str(path)), dt))
    components = [
        {
            "rank": k,
            "size": c.size,
            "node_count": len(c.nodes),
            "start": c.start,
            "end": c.end,
            "first_event": c.events[0],
        }
        for k, c in zip(range(rows), cs)
    ]
    assert len(components) == rows
    doc = {
        "delta_t": dt,
        "event_count": len(net),
        "component_count": len(cs),
        "largest_fraction": cs.largest_fraction,
        "components": components,
    }
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"


def test_writers_hold_a_bounded_chunk_of_rows():
    # tracemalloc peaks of each writer into a discarding stream at 2e4 and
    # 2e5 events: a writer that renders a bounded chunk at a time peaks about
    # alike at both sizes
    peaks = {}
    for m in (20_000, 200_000):
        net = generate_random(GeneratorConfig(m // 20, m, parse_iet_sampler("power_law:0.2"), 1))
        teg = build_teg(net, math.inf)
        g = strip_events(teg, keep_anchors=True)
        writers = {
            "write_events": lambda stream: write_events(net, stream),
            "save_edge_labelled": lambda stream: save_edge_labelled(g, stream),
            "write_teg_json": lambda stream: write_teg_json(teg, stream),
        }
        tracemalloc.start()
        try:
            for name, write in writers.items():
                with open(os.devnull, "w") as sink:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    write(sink)
                    peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    for name, (small, large) in peaks.items():
        assert large < 2 * small, (name, small, large)


def test_constructor_converts_to_the_same_columns_and_names_the_first_offender():
    g = _pinned_graphs()[2]
    names = EdgeLabelledTeg.__slots__[1:]
    # any row order of the columns gives the same column bytes
    rng = np.random.default_rng(6)
    edges, anchors = rng.permutation(g.edge_count), rng.permutation(len(g.anchor_vertices))
    columns = [getattr(g, name)[edges if k < 4 else anchors] for k, name in enumerate(names)]
    shuffled = EdgeLabelledTeg(g.vertex_count, *columns)
    for name in names:
        assert getattr(shuffled, name).tobytes() == getattr(g, name).tobytes()
    # the first offending row is named, however many come before it
    i, j, first = int(g.heads[-1]), int(g.tails[-1]), (int(g.heads[0]), int(g.tails[0]))
    for last, match in (
        (dict(taus=-1.0), f"tau\\[{i},{j}\\].*got -1.0"),
        (dict(tails=i), f"edge key \\({i},{i}\\)"),
        (dict(codes=6), f"code out of range 0..5 at edge \\({i},{j}\\): 6"),
        (dict(heads=first[0], tails=first[1]), re.escape(f"duplicate edge {first}")),
    ):
        changed = {name: getattr(g, name).copy() for name in last}
        for name, value in last.items():
            changed[name][-1] = value
        with pytest.raises(ValueError, match=match):
            _with(g, **changed)
    # an int past the float range is named by its size: 10**5000 has too many digits to print
    v = int(g.anchor_vertices[-1])
    for big, bits in ((10**400, 1329), (10**5000, 16610)):
        got = re.escape(f"got an int past the float range ({bits} bits)")
        with pytest.raises(ValueError, match=f"tau\\[{i},{j}\\] must be positive and finite, {got}$"):
            _with(g, taus=[*g.taus.tolist()[:-1], big])
        with pytest.raises(ValueError, match=f"anchor time for vertex {v} must be finite, {got}$"):
            _with(g, anchor_times=[*g.anchor_times.tolist()[:-1], big])
