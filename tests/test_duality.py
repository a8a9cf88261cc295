"""Edge-labelled graphs: consistency conditions and network reconstruction."""

import io
import math
import random
import warnings

import pytest

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
    reconstruct,
    save_edge_labelled,
    strip_events,
    weakly_connected_components,
)
from tegraph import duality
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
    tau = {(i, j): t for i, j, t, _ in edges}
    mu = {(i, j): m for i, j, _, m in edges}
    return EdgeLabelledTeg(n, tau, mu)


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
    net = TemporalNetwork([Event(0, 1, 0.0), Event(1, 2, 1.0), Event(2, 0, 3.0)])
    teg = build_teg(net, math.inf)
    g = strip_events(teg)
    assert g.vertex_count == 3
    keys = list(zip(teg.heads.tolist(), teg.tails.tolist()))
    assert set(g.tau) == set(keys)
    for key, iet, code in zip(keys, teg.iets.tolist(), teg.codes.tolist()):
        assert g.tau[key] == iet
        assert g.mu[key] is MOTIFS[code]
    assert g.anchors is None


def test_strip_anchors_record_every_event_time():
    net = TemporalNetwork([Event(0, 1, 2.0), Event(1, 2, 3.5)])
    g = strip_events(build_teg(net, math.inf), keep_anchors=True)
    assert g.anchors == {0: 2.0, 1: 3.5}


def test_strip_empty():
    g = strip_events(build_teg(TemporalNetwork(()), 1.0))
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert check_consistency(g).ok
    assert len(reconstruct(g)) == 0


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(tau={(0, 1): 1.0}, mu={}), "identical edges"),
        (dict(tau={(1, 0): 1.0}, mu={(1, 0): AB}), "0 <= i < j"),
        (dict(tau={(0, 0): 1.0}, mu={(0, 0): AB}), "0 <= i < j"),
        (dict(tau={(0, 1): 0.0}, mu={(0, 1): AB}), "positive"),
        (dict(tau={(0, 1): 1.0}, mu={(0, 1): "ABAB"}), "Motif"),
        (dict(tau={}, mu={}, anchors={5: 0.0}), "out of range"),
        (dict(tau={}, mu={}, anchors={0: math.nan}), "finite"),
    ],
)
def test_graph_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        EdgeLabelledTeg(2, **kwargs)


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
    events = [Event(3 * p, 3 * p + 1, float(p)) for p in range(pairs)]
    events += [Event(3 * p, 3 * p + 2, float(pairs + p)) for p in range(pairs)]
    events += [Event(3 * p, 3 * p + 1, float(2 * pairs + p)) for p in range(pairs)]
    return strip_events(build_teg(TemporalNetwork(events), math.inf))


def test_reply_pairs_validate_and_a_flipped_reply_is_c4():
    pairs = 300
    g = _reply_pairs(pairs)
    assert check_consistency(g).ok
    reply = (17, 2 * pairs + 17)  # opening of pair 17 to its reply
    assert g.mu[reply] is AB
    mu = dict(g.mu)
    mu[reply] = BA
    report = check_consistency(EdgeLabelledTeg(g.vertex_count, g.tau, mu))
    assert report.conditions == {"C4"}


def test_perturbing_any_diamond_tau_breaks_c1():
    net = TemporalNetwork(
        [Event(0, 1, 0.0), Event(0, 2, 1.0), Event(1, 3, 2.0), Event(2, 3, 3.0)]
    )
    g = strip_events(build_teg(net, math.inf))
    assert check_consistency(g).ok
    for key in g.tau:
        tau = dict(g.tau)
        tau[key] = tau[key] + 0.5
        broken = EdgeLabelledTeg(g.vertex_count, tau, g.mu)
        assert "C1" in check_consistency(broken).conditions


def test_duplicating_xi_out_breaks_c2():
    g = strip_events(build_teg(TemporalNetwork(
        [Event(0, 1, 0.0), Event(0, 2, 1.0), Event(1, 2, 2.0)]
    ), math.inf))
    assert check_consistency(g).ok
    mu = dict(g.mu)
    mu[(0, 2)] = mu[(0, 1)]  # both out-edges of 0 now share xi_out
    report = check_consistency(EdgeLabelledTeg(g.vertex_count, g.tau, mu))
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
    net = TemporalNetwork(
        [Event(3, 1, 4.0), Event(1, 2, 5.0), Event(2, 3, 6.5), Event(3, 2, 8.0)]
    )
    g = strip_events(build_teg(net, math.inf))
    assert reconstruct(g) == canonicalize(net)


def test_round_trip_with_anchors_restores_absolute_times():
    net = TemporalNetwork(
        [Event(0, 1, 10.0), Event(1, 2, 11.25), Event(0, 2, 13.5)]
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
        events.append(Event(a, b, 7.0 + 0.25 * k))
    net = TemporalNetwork(events)
    teg = build_teg(net, math.inf)
    assert len(weakly_connected_components(teg)) == 3
    g = strip_events(teg, keep_anchors=True)
    rebuilt = reconstruct(g)
    assert [e.time for e in rebuilt] == [e.time for e in net]
    again = strip_events(build_teg(rebuilt, math.inf), keep_anchors=True)
    assert (again.tau, again.mu, again.anchors) == (g.tau, g.mu, g.anchors)


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
        events.append(Event(u, v, t))
    net = TemporalNetwork(events)
    teg = build_teg(net, math.inf)
    g = strip_events(teg)
    assert reconstruct(g) == canonicalize(net)


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
    g = EdgeLabelledTeg(1, {}, {})
    assert reconstruct(g).events == (Event(0, 1, 0.0),)
    anchored = EdgeLabelledTeg(1, {}, {}, anchors={0: 7.5})
    assert reconstruct(anchored).events == (Event(0, 1, 7.5),)


def test_contradictory_anchors_raise():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(1, 2, 1.0)])
    g = strip_events(build_teg(net, math.inf), keep_anchors=True)
    bad = EdgeLabelledTeg(g.vertex_count, g.tau, g.mu, {0: 0.0, 1: 5.0})
    with pytest.raises(AnchorError, match="disagree"):
        reconstruct(bad)
    negative = EdgeLabelledTeg(g.vertex_count, g.tau, g.mu, {1: 0.5})
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


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")  # components overlaid at t = 0
@pytest.mark.parametrize("keep_anchors", (True, False))
def test_reconstruct_makes_one_pass(monkeypatch, keep_anchors):
    calls = {}
    for name in ("_adjacency", "_components", "_resolve_nodes"):

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
    assert calls == {"_adjacency": 1, "_components": 1, "_resolve_nodes": 1}


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
    assert (again.vertex_count, again.tau, again.mu, again.anchors) == (
        g.vertex_count,
        g.tau,
        g.mu,
        g.anchors,
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
    for (i, j), tau in g.tau.items():
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
    assert loaded.tau == g.tau  # bit-exact floats
    assert loaded.mu == g.mu
    assert loaded.anchors == g.anchors


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
