"""Component structure, distributions, entropies, aggregates."""

import math

import networkx as nx
import numpy as np
import pytest
from scipy.integrate import quad

from tegraph import (
    ComponentSet,
    EmpiricalCcdf,
    Event,
    Motif,
    TemporalNetwork,
    aggregate_component,
    aggregate_network,
    barcode_rows,
    build_teg,
    component_size_distribution,
    cumulative_residual_entropy,
    edges_within,
    iet_ccdf,
    motif_counts,
    motif_distribution,
    shannon_entropy,
    sweep_largest_component,
    weakly_connected_components,
)
from tegraph.components import DiscreteDistribution
from tegraph.generators import (
    ExponentialIets,
    GeneratorConfig,
    PowerLawIets,
    generate_random,
)


def _random_net(seed, n=8, m=120):
    return generate_random(GeneratorConfig(n, m, ExponentialIets(1.0), seed))


def _nx_partition(teg):
    g = nx.DiGraph()
    g.add_nodes_from(range(teg.vertex_count))
    g.add_edges_from(zip(teg.heads.tolist(), teg.tails.tolist()))
    return {frozenset(c) for c in nx.weakly_connected_components(g)}


def test_partition_and_ranking():
    net = TemporalNetwork(
        [
            Event(0, 1, 0.0),
            Event(3, 4, 1.0),
            Event(1, 2, 2.0),
            Event(0, 2, 3.0),
            Event(5, 6, 9.0),
        ]
    )
    cs = weakly_connected_components(build_teg(net, 4.0))
    assert isinstance(cs, ComponentSet)
    # {0,2,3} spans nodes 0,1,2; {1} and {4} are singletons
    assert [c.events for c in cs] == [(0, 2, 3), (1,), (4,)]
    assert cs[0].nodes == frozenset({0, 1, 2})
    assert cs[0].start == 0.0 and cs[0].end == 3.0 and cs[0].duration == 3.0
    assert cs.assignment == (0, 1, 0, 0, 2)
    assert cs.largest_fraction == 3 / 5
    assert len(cs) == 3


def test_larger_component_outranks_earlier_one():
    net = TemporalNetwork(
        [Event(0, 1, 0.0), Event(2, 3, 1.0), Event(3, 4, 2.0)]
    )
    cs = ComponentSet(build_teg(net, math.inf))
    assert [c.events for c in cs] == [(1, 2), (0,)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dt", [0.4, 1.5, math.inf])
def test_partition_matches_networkx(seed, dt):
    teg = build_teg(_random_net(seed), dt)
    ours = {frozenset(c.events) for c in ComponentSet(teg)}
    assert ours == _nx_partition(teg)


@pytest.mark.parametrize("seed", range(6))
def test_unbounded_window_components_mirror_aggregate(seed):
    net = _random_net(seed, n=12, m=60)
    cs = ComponentSet(build_teg(net, math.inf))
    node_sets = [c.nodes for c in cs]
    # node sets partition the nodes
    seen = set()
    for s in node_sets:
        assert not (s & seen)
        seen |= s
    assert seen == net.nodes
    g = nx.DiGraph()
    g.add_edges_from((e.source, e.target) for e in net)
    assert {frozenset(c) for c in nx.weakly_connected_components(g)} == {
        frozenset(s) for s in node_sets
    }


def test_finite_window_components_may_share_nodes():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(0, 1, 10.0)])
    cs = ComponentSet(build_teg(net, 5.0))
    assert len(cs) == 2
    assert cs[0].nodes == cs[1].nodes == frozenset({0, 1})


def test_sweep_matches_per_window_rebuild():
    net = _random_net(3, n=10, m=150)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf]
    swept = sweep_largest_component(net, grid)
    assert [dt for dt, _ in swept] == grid
    for dt, fraction in swept:
        direct = ComponentSet(build_teg(net, dt)).largest_fraction
        assert fraction == direct
    fractions = [f for _, f in swept]
    assert fractions == sorted(fractions)


def test_sweep_below_smallest_gap_gives_singletons():
    net = _random_net(4, n=6, m=40)
    full = build_teg(net, math.inf)
    smallest = full.iets.min()
    (_, fraction), = sweep_largest_component(net, [smallest * 0.5])
    assert fraction == 1 / len(net)


@pytest.mark.parametrize(
    "grid,match",
    [
        ([], "non-empty"),
        ([0.0, 1.0], "positive"),
        ([2.0, 1.0], "ascending"),
        ([1.0, 1.0], "ascending"),
        ([math.nan], "positive"),
        ([1.0, math.nan], "positive"),
    ],
)
def test_sweep_rejects_bad_grids(grid, match):
    net = TemporalNetwork([Event(0, 1, 0.0)])
    with pytest.raises(ValueError, match=match):
        sweep_largest_component(net, grid)


def test_sweep_rejects_empty_network():
    with pytest.raises(ValueError, match="empty"):
        sweep_largest_component(TemporalNetwork(()), [1.0])


def test_motif_counts_sum_over_components():
    net = _random_net(5, n=9, m=100)
    teg = build_teg(net, 0.8)
    cs = ComponentSet(teg)
    assert len(cs) > 1
    whole = motif_counts(teg)
    assert sum(whole.values()) == teg.edge_count
    merged = {m: 0 for m in Motif}
    for comp in cs:
        for m, c in motif_counts(teg, comp.events).items():
            merged[m] += c
    assert merged == whole


def test_edges_within_matches_literal_filter():
    net = _random_net(6, n=9, m=120)
    teg = build_teg(net, 1.0)
    rng = np.random.default_rng(0)
    for size in (0, 1, 5, 40, 200):
        # any order, repeats allowed
        events = rng.integers(0, len(net), size).tolist()
        members = set(events)
        expected = [
            k
            for k, (i, j) in enumerate(zip(teg.heads.tolist(), teg.tails.tolist()))
            if i in members and j in members
        ]
        assert edges_within(teg, events).tolist() == expected


def test_motif_distribution_support_and_masses():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(0, 1, 1.0), Event(1, 0, 2.0)])
    dist = motif_distribution(build_teg(net, math.inf))
    assert dist.support == tuple(Motif)
    assert sum(dist.masses) == pytest.approx(1.0)
    assert dist.as_dict()[Motif.ABAB] == 0.5
    assert dist.as_dict()[Motif.ABBA] == 0.5


def test_zero_edge_scope_is_an_error():
    teg = build_teg(TemporalNetwork([Event(0, 1, 0.0)]), 1.0)
    with pytest.raises(ValueError, match="empty scope"):
        motif_distribution(teg)
    with pytest.raises(ValueError, match="no edges in scope"):
        iet_ccdf(teg)


def test_component_size_distribution_accepts_both_forms():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(0, 1, 1.0), Event(4, 5, 2.0)])
    teg = build_teg(net, math.inf)
    dist = component_size_distribution(teg)
    assert dist == component_size_distribution(ComponentSet(teg))
    assert dist.support == (1, 2)
    assert dist.masses == (0.5, 0.5)
    singleton = build_teg(TemporalNetwork([Event(0, 1, 0.0)]), 1.0)
    assert component_size_distribution(singleton).as_dict() == {1: 1.0}


def test_discrete_distribution_validation():
    with pytest.raises(ValueError, match="align"):
        DiscreteDistribution((1, 2), (1.0,))
    with pytest.raises(ValueError, match="negative"):
        DiscreteDistribution((1, 2), (1.5, -0.5))
    with pytest.raises(ValueError, match="not 1"):
        DiscreteDistribution((1, 2), (0.4, 0.4))
    with pytest.raises(ValueError, match="empty scope"):
        DiscreteDistribution.from_counts((1, 2), (0, 0))


def test_ccdf_steps_and_evaluation():
    ccdf = EmpiricalCcdf.from_samples([3.0, 1.0, 3.0, 2.0])
    assert ccdf.values == (1.0, 2.0, 3.0)
    assert ccdf.tail == (0.75, 0.5, 0.0)
    assert ccdf.sample_count == 4
    assert ccdf.evaluate(0.5) == 1.0
    assert ccdf.evaluate(1.0) == 0.75
    assert ccdf.evaluate(2.5) == 0.5
    assert ccdf.evaluate(3.0) == 0.0
    assert ccdf.evaluate(99.0) == 0.0
    with pytest.raises(ValueError, match="empty"):
        EmpiricalCcdf.from_samples([])


def test_iet_ccdf_conditions_on_motif():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(0, 1, 1.0), Event(1, 0, 4.0)])
    teg = build_teg(net, math.inf)
    # edges: (0,1) ABAB tau 1, (1,2) ABBA tau 3
    assert iet_ccdf(teg, Motif.ABAB).values == (1.0,)
    assert iet_ccdf(teg, Motif.ABBA).values == (3.0,)
    assert iet_ccdf(teg).values == (1.0, 3.0)
    with pytest.raises(ValueError, match="ABAC"):
        iet_ccdf(teg, Motif.ABAC)


def test_shannon_entropy_anchors():
    assert shannon_entropy([1 / 6] * 6) == pytest.approx(math.log2(6), abs=1e-12)
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    dist = DiscreteDistribution(("a", "b"), (0.25, 0.75))
    assert 0.0 < shannon_entropy(dist) < 1.0


def test_cumulative_residual_entropy_anchors():
    constant = EmpiricalCcdf.from_samples([2.5] * 10)
    assert cumulative_residual_entropy(constant) == 0.0
    coin = EmpiricalCcdf.from_samples([0.0, 1.0] * 500)
    assert cumulative_residual_entropy(coin) == pytest.approx(0.5, abs=1e-12)


def test_cumulative_residual_entropy_matches_quadrature():
    # uniform(0,1): -integral (1-x) log2(1-x) dx = 1/(4 ln 2)
    exact, _ = quad(lambda x: -(1 - x) * math.log2(1 - x) if x < 1 else 0.0, 0, 1)
    assert exact == pytest.approx(1 / (4 * math.log(2)), abs=1e-9)
    rng = np.random.default_rng(0)
    sample = EmpiricalCcdf.from_samples(rng.random(100_000).tolist())
    assert cumulative_residual_entropy(sample) == pytest.approx(exact, abs=0.01)


def test_barcode_rows_order_and_truncation():
    net = TemporalNetwork(
        [
            Event(0, 1, 0.0),
            Event(3, 4, 0.5),
            Event(1, 2, 1.0),
            Event(0, 2, 2.0),
        ]
    )
    teg = build_teg(net, math.inf)
    rows = barcode_rows(teg)
    assert rows == [(0.0, 1.0, 2.0), (0.5,)]
    assert barcode_rows(teg, top=1) == [(0.0, 1.0, 2.0)]
    assert barcode_rows(ComponentSet(teg)) == rows


def test_aggregate_graph_metrics():
    single = aggregate_network(TemporalNetwork([Event(0, 1, 0.0)]))
    assert single.node_count == 2
    assert single.edge_count == 1
    assert single.density == 0.5
    assert single.reciprocity == 0.0
    assert single.weak_component_count == 1

    back_and_forth = aggregate_network(
        TemporalNetwork([Event(0, 1, 0.0), Event(1, 0, 1.0)])
    )
    assert back_and_forth.edge_count == 2
    assert back_and_forth.reciprocity == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_aggregate_counts_match_networkx(seed):
    net = _random_net(seed, n=14, m=40)
    agg = aggregate_network(net)
    g = nx.DiGraph()
    g.add_nodes_from(agg.nodes)
    g.add_edges_from(agg.edges)
    assert agg.weak_component_count == nx.number_weakly_connected_components(g)
    assert agg.density == pytest.approx(nx.density(g))


def test_aggregate_of_one_component():
    net = TemporalNetwork([Event(0, 1, 0.0), Event(7, 8, 50.0)])
    teg = build_teg(net, 1.0)
    agg = aggregate_component(teg, 0)
    assert agg.node_count == 2
    assert agg.edge_count == 1
    assert aggregate_component(teg, 1).nodes == frozenset({7, 8})
    assert aggregate_component(ComponentSet(teg), 1) == aggregate_component(teg, 1)


def test_growth_curve_spread_for_heavy_tails():
    # bursty gaps keep the graph fragmented at short windows but let a
    # giant component form once the window passes the typical node gap
    net = generate_random(GeneratorConfig(200, 5_000, PowerLawIets(0.2), 11))
    swept = sweep_largest_component(net, [5.0, 15.0])
    assert swept[0][1] < 0.2
    assert swept[1][1] > 0.8
