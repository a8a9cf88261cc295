"""Component structure, distributions, entropies, aggregates."""

import gc
import hashlib
import math
import warnings
import weakref
from functools import reduce
from operator import add

import networkx as nx
import numpy as np
import pytest
from scipy.integrate import quad

from _oracles import from_rows, per_rank_loop, step_cre
from tegraph import (
    MOTIFS,
    AggregateGraph,
    ComponentSet,
    EmpiricalCcdf,
    Motif,
    aggregate_component,
    aggregate_network,
    barcode_rows,
    build_teg,
    component_size_distribution,
    cumulative_residual_entropy,
    iet_ccdf,
    motif_counts,
    motif_distribution,
    shannon_entropy,
    sweep_largest_component,
    weakly_connected_components,
)
from tegraph.cli import main
from tegraph import components as components_module
from tegraph import _text, svgrender
from tegraph.svgrender import barcode_svg
from tegraph.components import DiscreteDistribution, _labels
from tegraph.teg import Teg
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
    net = from_rows(
        [
            (0, 1, 0.0),
            (3, 4, 1.0),
            (1, 2, 2.0),
            (0, 2, 3.0),
            (5, 6, 9.0),
        ]
    )
    cs = weakly_connected_components(build_teg(net, 4.0))
    assert isinstance(cs, ComponentSet)
    # {0,2,3} spans nodes 0,1,2; {1} and {4} are singletons
    assert [c.events for c in cs] == [(0, 2, 3), (1,), (4,)]
    assert cs[0].nodes == frozenset({0, 1, 2})
    assert cs[0].start == 0.0 and cs[0].end == 3.0 and cs[0].duration == 3.0
    assert cs.assignment.tolist() == [0, 1, 0, 0, 2]
    assert cs.largest_fraction == 3 / 5
    assert len(cs) == 3


def test_larger_component_outranks_earlier_one():
    net = from_rows(
        [(0, 1, 0.0), (2, 3, 1.0), (3, 4, 2.0)]
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
    net = from_rows([(0, 1, 0.0), (0, 1, 10.0)])
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
    net = from_rows([(0, 1, 0.0)])
    with pytest.raises(ValueError, match=match):
        sweep_largest_component(net, grid)


def test_sweep_rejects_empty_network():
    with pytest.raises(ValueError, match="empty"):
        sweep_largest_component(from_rows(()), [1.0])


def test_motif_counts_sum_over_components():
    net = _random_net(5, n=9, m=100)
    teg = build_teg(net, 0.8)
    cs = ComponentSet(teg)
    assert len(cs) > 1
    whole = motif_counts(teg)
    assert sum(whole.values()) == teg.edge_count
    # every edge lies inside its head's component
    assert cs.assignment[teg.heads].tolist() == cs.assignment[teg.tails].tolist()
    edges = list(zip(teg.heads.tolist(), teg.tails.tolist(), teg.codes.tolist()))
    merged = {m: 0 for m in Motif}
    for comp in cs:
        inside = set(comp.events)
        for i, j, code in edges:
            if i in inside and j in inside:
                merged[MOTIFS[code]] += 1
    assert merged == whole


def test_motif_distribution_support_and_masses():
    net = from_rows([(0, 1, 0.0), (0, 1, 1.0), (1, 0, 2.0)])
    dist = motif_distribution(build_teg(net, math.inf))
    assert dist.support == tuple(Motif)
    assert sum(dist.masses) == pytest.approx(1.0)
    assert dist.as_dict()[Motif.ABAB] == 0.5
    assert dist.as_dict()[Motif.ABBA] == 0.5


def test_zero_edge_scope_is_an_error():
    teg = build_teg(from_rows([(0, 1, 0.0)]), 1.0)
    with pytest.raises(ValueError, match="empty scope"):
        motif_distribution(teg)
    with pytest.raises(ValueError, match="no edges in scope"):
        iet_ccdf(teg)


def test_component_size_distribution_accepts_both_forms():
    net = from_rows([(0, 1, 0.0), (0, 1, 1.0), (4, 5, 2.0)])
    teg = build_teg(net, math.inf)
    dist = component_size_distribution(teg)
    assert dist == component_size_distribution(ComponentSet(teg))
    assert dist.support == (1, 2)
    assert dist.masses == (0.5, 0.5)
    singleton = build_teg(from_rows([(0, 1, 0.0)]), 1.0)
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
    net = from_rows([(0, 1, 0.0), (0, 1, 1.0), (1, 0, 4.0)])
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


def _loop_entropy(masses):
    return -reduce(add, (p * math.log2(p) for p in masses if p > 0), 0)


def test_shannon_entropy_adds_its_terms_in_order():
    rng = np.random.default_rng(8)
    rows = [[1.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [1 / 6] * 6, [0.1] * 10]
    rows.append([0.997209935789211, 0.8203077943609558, 0.4344264414439891])  # np.log2 can differ here
    for size in (2, 6, 40):
        for _ in range(20):
            masses = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
            rows.append(masses.tolist())
    for masses in rows:
        assert shannon_entropy(masses).hex() == _loop_entropy(masses).hex()
    assert math.copysign(1.0, shannon_entropy([1.0])) == -1.0  # -(0.0), as the loop gives


def test_shannon_entropy_is_a_row_of_the_component_entropies():
    net = generate_random(GeneratorConfig(40, 3000, PowerLawIets(0.2), 6))
    cs = ComponentSet(build_teg(net, 1.0))
    masses, entropies = cs.motif_masses(), cs.motif_entropies()
    assert (masses == 0).any() and len(masses) > 50
    for row, entropy in zip(masses, entropies.tolist()):
        assert shannon_entropy(row).hex() == entropy.hex() == _loop_entropy(row.tolist()).hex()


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
    net = from_rows(
        [
            (0, 1, 0.0),
            (3, 4, 0.5),
            (1, 2, 1.0),
            (0, 2, 2.0),
        ]
    )
    teg = build_teg(net, math.inf)
    rows = barcode_rows(teg)
    assert rows == [(0.0, 1.0, 2.0), (0.5,)]
    assert barcode_rows(teg, top=1) == [(0.0, 1.0, 2.0)]
    assert barcode_rows(ComponentSet(teg)) == rows
    assert barcode_rows(teg, top=5) == rows
    assert barcode_rows(teg, top=0) == []
    with pytest.raises(ValueError, match="non-negative"):
        barcode_rows(teg, top=-1)


def test_aggregate_graph_metrics():
    single = aggregate_network(from_rows([(0, 1, 0.0)]))
    assert single.node_count == 2
    assert single.edge_count == 1
    assert single.density == 0.5
    assert single.reciprocity == 0.0
    assert single.weak_component_count == 1

    back_and_forth = aggregate_network(
        from_rows([(0, 1, 0.0), (1, 0, 1.0)])
    )
    assert back_and_forth.edge_count == 2
    assert back_and_forth.reciprocity == 1.0


def _reference_barcode_svg(rows, width=900, row_height=14, margin=40):
    """Per-tick barcode SVG: one ``x_of`` and one format call per event time."""
    fmt = lambda x: f"{x:.2f}".rstrip("0").rstrip(".")
    t_min = min(min(r) for r in rows if r)
    t_max = max(max(r) for r in rows if r)
    span = t_max - t_min or 1.0
    height = 2 * margin + row_height * len(rows)
    x0, x1 = margin, width - margin
    x_of = lambda t: x0 + (t - t_min) / span * (x1 - x0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for k, row in enumerate(rows):
        y_top = height - margin - (k + 1) * row_height
        color = palette[k % len(palette)]
        parts.append(
            f'<text x="{x0 - 6}" y="{fmt(y_top + row_height * 0.8)}" font-size="10" '
            f'text-anchor="end" fill="{color}">{k}</text>'
        )
        for t in row:
            x = fmt(x_of(t))
            parts.append(
                f'<line x1="{x}" y1="{y_top + 2}" x2="{x}" y2="{y_top + row_height - 2}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    axis_y = height - margin
    parts.append(f'<line x1="{x0}" y1="{axis_y}" x2="{x1}" y2="{axis_y}" stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_min + frac * span
        x = fmt(x_of(t))
        parts.append(f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x}" y="{axis_y + 16}" font-size="10" text-anchor="middle">{t:.6g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _barcode_cases():
    rng = np.random.default_rng(3)
    real = tuple(np.sort(rng.random(500) * 1e5 + 12.345).tolist())
    net = generate_random(GeneratorConfig(40, 3000, PowerLawIets(0.3), 2))
    return [
        ("real_valued", [real, real[:7], tuple(rng.random(3).tolist())]),
        # exact ties at the third decimal, where one ulp of x flips the rounding
        ("eighths", [tuple(np.arange(3.0, 1003.0001, 0.125).tolist())]),
        ("repeated", [(5.0, 5.0, 5.0, 7.5, 7.5), (6.25,) * 4]),
        ("single_element", [(3.0,)]),
        ("single_elements", [(1e-9,), (2e-9,), (0.1 + 0.2,)]),
        ("with_empty", [(0.0, 0.5, 1.0), (), (0.125, 0.375), ()]),
        ("huge_times", [(1e15, 1e15 + 0.5, 2e15), (1.5e15,)]),
        ("network", barcode_rows(build_teg(net, 0.05), top=12)),
    ]


@pytest.mark.parametrize("name,rows", _barcode_cases(), ids=[c[0] for c in _barcode_cases()])
def test_barcode_svg_bytes_match_per_tick_reference(name, rows):
    assert barcode_svg(rows) == _reference_barcode_svg(rows)
    assert barcode_svg(rows, width=333, row_height=9, margin=17) == _reference_barcode_svg(
        rows, width=333, row_height=9, margin=17
    )


@pytest.mark.parametrize(
    "rows,message", [([], "no rows to draw"), ([()], "no times to draw"), ([(), ()], "no times to draw")]
)
def test_barcode_svg_names_what_it_cannot_draw(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        barcode_svg(rows)


def _fmt_reference(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


def test_fmt_column_matches_fmt():
    rng = np.random.default_rng(17)
    xs = np.concatenate(
        [
            rng.random(20_000) * 10.0 ** rng.integers(-4, 19, 20_000),
            rng.integers(0, 10**7, 5000) / 8,  # exact half cents and quarters
            rng.integers(0, 10**8, 5000) / 200,
            (rng.integers(0, 10**8, 5000) + 0.5) / 100,  # near half cents
            np.nextafter(rng.integers(1, 10**8, 2000) / 200, [[-np.inf], [np.inf]]).ravel(),
            [0.0, -0.0, -1.5, -0.004, 0.004999, 0.005, 0.0050001, 0.00500001, 1e-300],
            [999999.99, 999999.994, 999999.995, 999999.996, 999999.999, 1e6, 1e6 + 0.5],
            [1e15, 1e15 + 0.125, 1e17, 2.0**53 + 2, 1.7e308, np.inf, -np.inf, np.nan],
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _text._coordinate_bytes(xs)
    texts = [row.tobytes().replace(b"\0", b"").decode() for row in rows]
    assert texts == [_fmt_reference(x) for x in xs.tolist()]


def _reference_ccdf_svg(curves, width=640, height=480, margin=50, log_x=False):
    """Per-point CCDF SVG: one ``x_of`` and one format call per step corner."""
    xs = [v for _, c in curves for v in c.values]
    lo, hi = min(xs), max(xs)
    if log_x:
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo or 1.0
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin
    x_of = lambda v: x0 + ((math.log10(v) if log_x else v) - lo) / span * (x1 - x0)
    y_of = lambda p: y0 + p * (y1 - y0)
    fmt = _fmt_reference
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{x0 - 8}" y="{fmt(y_of(frac) + 3)}" font-size="10" text-anchor="end">{frac:.1f}</text>')
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for k, (label, ccdf) in enumerate(curves):
        color = palette[k % len(palette)]
        points = [f"{fmt(x_of(ccdf.values[0]))},{fmt(y_of(1.0))}"]
        for v, p in zip(ccdf.values, ccdf.tail):
            x = fmt(x_of(v))
            points.append(f"{x},{points[-1].split(',')[1]}")
            points.append(f"{x},{fmt(y_of(p))}")
        parts.append(f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{x1 - 4}" y="{y1 + 12 * (k + 1)}" font-size="10" text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_ccdf_svg_bytes_match_per_point_reference():
    rng = np.random.default_rng(8)
    net = generate_random(GeneratorConfig(60, 6000, PowerLawIets(0.3), 4))
    teg = build_teg(net, math.inf)
    curves = [("all", iet_ccdf(teg))] + [(m.value, iet_ccdf(teg, m)) for m in MOTIFS if motif_counts(teg)[m]]
    cases = [
        curves,
        [("eighths", EmpiricalCcdf.from_samples(rng.integers(1, 5000, 3000) / 8))],
        [("one", EmpiricalCcdf.from_samples([2.5]))],
        [("zero", EmpiricalCcdf.from_samples([0.0, 0.0, 1.0, 3.0]))],
    ]
    for case in cases:
        for kwargs in ({}, {"log_x": True}, {"width": 333, "height": 201, "margin": 7}):
            if kwargs.get("log_x") and min(c.values[0] for _, c in case) <= 0:
                continue
            assert svgrender.ccdf_svg(case, **kwargs) == _reference_ccdf_svg(case, **kwargs)


def _reference_cre(ccdf):
    """The step sum of the CRE, one term at a time."""
    values, tail, total = ccdf.values, ccdf.tail, 0.0
    for k in range(len(values) - 1):
        p = tail[k]
        if p > 0:
            total -= (values[k + 1] - values[k]) * p * math.log2(p)
    return total


def test_cumulative_residual_entropy_matches_step_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    net = generate_random(GeneratorConfig(200, 20_000, PowerLawIets(0.2), 9))
    samples = [
        build_teg(net, 500.0).iets,
        rng.random(50_000) * 1e3,
        rng.integers(0, 12, 5000).astype(np.float64),  # many repeats
        rng.pareto(0.5, 3000),
        np.array([4.0, 4.0]),
        np.array([1e-300, 2e-300, 3e-300]),  # terms that underflow to zero
        np.array([0.0, 1.0]),
    ]
    for sample in samples:
        ccdf = EmpiricalCcdf.from_samples(sample)
        got, want = cumulative_residual_entropy(ccdf), _reference_cre(ccdf)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
    unsorted = EmpiricalCcdf((0.0, 2.0, 1.0, 3.0), (0.75, 0.0, 0.5, 0.0), 4)
    assert cumulative_residual_entropy(unsorted) == _reference_cre(unsorted)


def test_entropies_take_math_log2_where_np_log2_differs():
    # among the shares k/n with n < 200, np.log2 is one ulp off math.log2 at
    # 28/31 and 65/74, among others (numpy 2.4, x86-64), and so are the CRE
    # and the motif entropy below; the loops take math.log2
    sample = [0.0] * 3 + [1.0] * 28
    got, want = cumulative_residual_entropy(EmpiricalCcdf.from_samples(sample)), step_cre(sample)
    assert got.hex() == want.hex()
    # one component of 74 edges: 65 of one motif and 9 of another, and 9
    # inter-event times of 1.0 below 65 of 2.0
    net = from_rows([(k % 2, 1 - k % 2, float(k)) for k in range(75)])
    iets, codes = np.repeat([1.0, 2.0], [9, 65]), np.repeat([0, 3], [65, 9])
    cs = weakly_connected_components(Teg(net, math.inf, np.arange(74), np.arange(1, 75), iets, codes))
    (row,), _ = per_rank_loop(cs.teg, cs.assignment)
    assert (cs.motif_entropies()[0].hex(), cs.iet_cres()[0].hex()) == (row[8].hex(), row[9].hex())


def test_empirical_ccdf_columns():
    sample = np.array([3.0, 1.0, 3.0, 2.0])
    ccdf = EmpiricalCcdf.from_samples(sample)
    assert ccdf == EmpiricalCcdf.from_samples(sample.tolist()) == EmpiricalCcdf.from_samples(iter(sample.tolist()))
    assert ccdf == EmpiricalCcdf((1.0, 2.0, 3.0), (0.75, 0.5, 0.0), 4)
    assert hash(ccdf) == hash(((1.0, 2.0, 3.0), (0.75, 0.5, 0.0), 4))
    assert ccdf != EmpiricalCcdf((1.0, 2.0, 3.0), (0.75, 0.5, 0.0), 5)
    assert ccdf.support.dtype == ccdf.tails.dtype == np.float64
    assert not ccdf.support.flags.writeable and not ccdf.tails.flags.writeable
    ints = EmpiricalCcdf.from_samples(np.array([2, 2, 5]))
    assert ints.values == (2.0, 5.0) and all(type(v) is float for v in ints.values + ints.tail)
    assert type(ccdf.evaluate(1.5)) is float
    with pytest.raises(ValueError, match="align"):
        EmpiricalCcdf((1.0, 2.0), (0.0,), 2)
    with pytest.raises(ValueError, match="empty"):
        EmpiricalCcdf.from_samples(np.array([]))


def test_components_computed_once_per_graph(monkeypatch):
    net = generate_random(GeneratorConfig(30, 600, ExponentialIets(1.0), 5))
    teg = build_teg(net, 0.5)
    calls = []
    compute = components_module._component_columns
    monkeypatch.setattr(components_module, "_component_columns", lambda t: calls.append(t) or compute(t))
    cs = weakly_connected_components(teg)
    barcode_rows(teg)
    component_size_distribution(teg)
    aggregate_component(teg, 0)
    again = ComponentSet(teg)
    assert len(calls) == 1
    assert again.assignment is cs.assignment and again.teg is teg
    other = build_teg(net, 0.5)
    assert np.array_equal(ComponentSet(other).assignment, cs.assignment) and len(calls) == 2


def test_graph_and_components_freed_without_the_cycle_collector():
    net = generate_random(GeneratorConfig(30, 600, ExponentialIets(1.0), 5))
    teg = build_teg(net, 0.5)
    cs = weakly_connected_components(teg)
    columns = weakref.ref(cs.assignment)
    gc.disable()
    try:
        del teg, cs
        assert columns() is None
    finally:
        gc.enable()


def _assert_aggregate_matches_networkx(agg, events):
    g = nx.DiGraph()
    g.add_edges_from((e.source, e.target) for e in events)
    assert agg.nodes == frozenset(g.nodes) and agg.node_count == g.number_of_nodes()
    assert agg.edges == frozenset(g.edges) and agg.edge_count == g.number_of_edges()
    assert agg.density == nx.density(g)
    assert agg.reciprocity == nx.overall_reciprocity(g)
    assert agg.weak_component_count == nx.number_weakly_connected_components(g)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ids", ["dense", "sparse", "past_int64"])
def test_aggregate_counts_match_networkx(seed, ids):
    rng = np.random.default_rng(seed)
    base = _random_net(seed, n=14, m=40 + 30 * seed)
    labels = {
        "dense": range(14),
        "sparse": rng.choice(10**6, 14, replace=False).tolist(),
        "past_int64": [2**63 + 5 * k for k in range(7)] + list(range(7)),
    }[ids]
    relabel = dict(zip(range(14), labels))
    net = from_rows((relabel[e.source], relabel[e.target], e.time) for e in base)
    assert net.node_ids.dtype == (object if ids == "past_int64" else np.int64)
    _assert_aggregate_matches_networkx(aggregate_network(net), list(net))
    cs = ComponentSet(build_teg(net, 0.4))
    for rank in range(len(cs)):
        members = [net[i] for i in cs[rank].events]
        _assert_aggregate_matches_networkx(aggregate_component(cs, rank), members)
        assert cs[rank].nodes == {node for e in members for node in e.nodes}
        assert {type(node) for node in cs[rank].nodes} == {int}


def test_aggregate_equality_and_hash_are_those_of_the_sets():
    net = from_rows([(0, 1, 0.0), (1, 0, 0.5), (7, 8, 50.0), (7, 8, 51.0)])
    teg = build_teg(net, 1.0)
    part = aggregate_component(teg, 1)
    alone = aggregate_network(from_rows([(7, 8, 3.0)]))
    # the same sets over different node columns
    assert part == alone and hash(part) == hash(alone)
    assert hash(part) == hash((frozenset({7, 8}), frozenset({(7, 8)})))
    assert part != aggregate_network(from_rows([(8, 7, 3.0)]))
    assert part != aggregate_component(teg, 0)
    assert part != (part.nodes, part.edges)
    assert len({part, alone, aggregate_network(net)}) == 2


def test_aggregate_rejects_node_counts_past_int64_keys():
    ids = np.broadcast_to(np.int64(0), (3_037_000_500,))  # no memory behind it
    with pytest.raises(ValueError, match="at most 3037000499 nodes"):
        AggregateGraph(ids, np.array([0]), np.array([1]))


def test_aggregate_of_one_component():
    net = from_rows([(0, 1, 0.0), (7, 8, 50.0)])
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


def _nx_labels(n, a, b):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(a.tolist(), b.tolist()))
    label = [0] * n
    for comp in nx.connected_components(g):
        for v in comp:
            label[v] = min(comp)
    return label


def _path(order):
    return np.asarray(order[:-1], np.int64), np.asarray(order[1:], np.int64)


_SHAPES = {
    "reversed_path": lambda rng: (10_000, *_path(np.arange(10_000)[::-1])),
    "shuffled_path": lambda rng: (10_000, *_path(rng.permutation(10_000))),
    "star_hub_highest": lambda rng: (
        500,
        np.full(499, 499, np.int64),
        rng.permutation(499).astype(np.int64),
    ),
    "sparse_random": lambda rng: (2_000, *rng.integers(0, 2_000, (2, 900))),
    "critical_random": lambda rng: (2_000, *rng.integers(0, 2_000, (2, 1_000))),
    "dense_random": lambda rng: (2_000, *rng.integers(0, 2_000, (2, 6_000))),
    "no_edges": lambda rng: (7, np.zeros(0, np.int64), np.zeros(0, np.int64)),
    "no_vertices": lambda rng: (0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_labels_match_networkx(shape):
    n, a, b = _SHAPES[shape](np.random.default_rng(3))
    assert _labels(n, a, b).tolist() == _nx_labels(n, a, b)


def _tied_net(rng, m, nodes):
    """m events at small integer times: many ties and equal component starts."""
    src = rng.integers(0, nodes, m)
    dst = (src + rng.integers(1, nodes, m)) % nodes
    times = rng.integers(0, m // 4 + 1, m)
    events = list(zip(src.tolist(), dst.tolist(), map(float, times.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return from_rows(events)


def test_ranks_and_columns_match_networkx_under_ties():
    rng = np.random.default_rng(12)
    first_event_ties = 0
    for _ in range(40):
        net = _tied_net(rng, int(rng.integers(1, 80)), int(rng.integers(2, 30)))
        for dt in (1.0, 1.5, 2.5, math.inf):
            teg = build_teg(net, dt)
            g = nx.DiGraph()
            g.add_nodes_from(range(len(net)))
            g.add_edges_from(zip(teg.heads.tolist(), teg.tails.tolist()))
            times = [e.time for e in net]
            expected = sorted(
                (sorted(c) for c in nx.weakly_connected_components(g)),
                key=lambda c: (-len(c), times[c[0]], c[0]),
            )
            keys = [(len(c), times[c[0]]) for c in expected]
            first_event_ties += len(keys) - len(set(keys))
            cs = ComponentSet(teg)
            assert [list(c.events) for c in cs] == expected
            assert cs.sizes.tolist() == [len(c) for c in expected]
            assert cs.starts.tolist() == [times[c[0]] for c in expected]
            assert cs.ends.tolist() == [times[c[-1]] for c in expected]
            rank = {v: k for k, c in enumerate(expected) for v in c}
            assert cs.assignment.tolist() == [rank[v] for v in range(len(net))]
            assert cs[-1] == cs[len(cs) - 1]
            assert cs[-len(cs)] == cs[0]
            for bad in (len(cs), -len(cs) - 1):
                with pytest.raises(IndexError):
                    cs[bad]
    assert first_event_ties > 100


def test_sweep_matches_per_window_rebuild_under_ties():
    rng = np.random.default_rng(8)
    net = _tied_net(rng, 400, 40)
    grid = [0.25 * k for k in range(1, 200)] + [math.inf]
    for dt, fraction in sweep_largest_component(net, grid):
        assert fraction == ComponentSet(build_teg(net, dt)).largest_fraction


def test_sweep_accepts_numpy_grids():
    net = _random_net(3, n=10, m=150)
    grid = np.geomspace(0.25, 8.0, 6)
    swept = sweep_largest_component(net, grid)
    assert swept == sweep_largest_component(net, grid.tolist())
    assert all(type(dt) is float and type(f) is float for dt, f in swept)


def _tied_event_file(path, seed=7, m=600, nodes=40):
    """Integer times on few nodes: many ties and components with equal starts."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, m)
    dst = (src + rng.integers(1, nodes, m)) % nodes
    times = np.sort(rng.integers(0, m // 3, m))
    lines = zip(src.tolist(), dst.tolist(), times.tolist())
    path.write_text("".join(f"{s} {d} {t}\n" for s, d, t in lines))


# sha256 of each output, recorded before components became columns; integer
# times and only + - * / keep the bytes the same on every platform
_DIGESTS = {
    "components": "92cb8b58f62da70caab5a989d1203cd1f9fd45da6fec3ed0e9ef92f1f0bc2603",
    "sweep": "6f72b1543fbb7caacfcfa8d72d6dd95b763669c370c24ee99e31511c0127a6fb",
    "motifs": "3eca949c423c827d7129a6fc02c8902349ecb714b679e1ffef5813f864cc34f4",
    "barcode": "7d7905d67ff5ef4beb2b040d1414ef68b874aac65c0bb1834ba17517a949e942",
    "aggregate": "aa6c5590f975df74632342c4e65e49ad98f7ec802c620e0aa4a6edbeb373ebdd",
}


def test_component_outputs_match_recorded_digests(tmp_path):
    events = tmp_path / "events.txt"
    _tied_event_file(events)
    csv = tmp_path / "barcode.csv"
    runs = {
        "components": ("components", "--dt", "3"),
        "sweep": ("sweep", "--dt-grid", "lin:0.5:12:24"),
        "motifs": ("motifs", "--dt", "3", "--per-component"),
        "barcode": ("barcode", "--dt", "3", "--csv", str(csv)),
        "aggregate": ("aggregate", "--dt", "3", "--component", "0"),
    }
    for name, (command, *opts) in runs.items():
        out = tmp_path / f"{name}.out"
        argv = [command, "--input", str(events), *opts, "--output", str(out)]
        with pytest.warns(UserWarning, match="equal-timestamp"):
            assert main(argv) == 0
        produced = csv if name == "barcode" else out
        assert hashlib.sha256(produced.read_bytes()).hexdigest() == _DIGESTS[name], name


def _real_time_event_file(path, seed=5, m=400, nodes=25):
    """Times with three decimals: gaps and window edges are not dyadic."""
    rng = np.random.default_rng(seed)
    times = np.round(np.sort(rng.uniform(0, 60, m)), 3)
    src = rng.integers(0, nodes, m)
    dst = (src + rng.integers(1, nodes, m)) % nodes
    rows = zip(src.tolist(), dst.tolist(), times.tolist())
    path.write_text("".join(f"{s} {d} {t!r}\n" for s, d, t in rows))


# sha256 of outputs that no digest above covers, recorded while the CLI
# still built each output as one text
_ROUTED_DIGESTS = {
    "components_top": "9681cbec82b3a7e4bb1cb425a767e3c45ce61b6559b0ccc03486415a5ad772c3",
    "components_empty": "00adaf74cdb69701c2f577b7e49df44a4f48fcb0eed74fedfa4da339be40a4ae",
    "iets_motif": "608413f2780c0772a9d771795a72224731c518f34ee9da24daec599092e332bf",
    "sweep_real": "60f97858e5a6efbe9ef39eb3dbb3261a6acbc083b744c2aa1890dedf30802815",
}


def test_routed_outputs_match_recorded_digests(tmp_path):
    tied, real, empty = tmp_path / "tied.txt", tmp_path / "real.txt", tmp_path / "empty.txt"
    _tied_event_file(tied)
    _real_time_event_file(real)
    empty.write_text("")
    runs = {
        "components_top": ("components", tied, "--dt", "3", "--top", "3"),
        "components_empty": ("components", empty, "--dt", "3"),
        "iets_motif": ("iets", tied, "--dt", "20", "--motif", "ABCA"),
        "sweep_real": ("sweep", real, "--dt-grid", "0.05,0.3,1.1,2.5,7"),
    }
    for name, (command, events, *opts) in runs.items():
        out = tmp_path / f"{name}.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--input", str(events), *opts, "--output", str(out)]) == 0, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _ROUTED_DIGESTS[name], name
    assert '"components": []' in (tmp_path / "components_empty.out").read_text()
