"""Acceptance gate: one test per shipping criterion.

Each test checks a single end-to-end guarantee at its stated tolerance and
prints one ``criterion N (...): PASS`` line on success (visible with
``pytest -s``); a failed assertion is the FAIL line. Statistical criteria
use frozen seed bases so reruns are exact.
"""

import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_force_teg, from_rows, teg_edge_tuples
from tegraph import (
    MOTIFS,
    DeterministicIets,
    EdgeLabelledTeg,
    ExponentialIets,
    GeneratorConfig,
    Motif,
    PowerLawIets,
    TemporalNetwork,
    aggregate_network,
    analytic_motif_probabilities,
    build_teg,
    canonicalize,
    check_consistency,
    cumulative_residual_entropy,
    EmpiricalCcdf,
    ensemble_seeds,
    generate_random,
    load_events,
    motif_distribution,
    reconstruct,
    shannon_entropy,
    strip_events,
    sweep_largest_component,
    time_shuffle,
    weakly_connected_components,
)
from tegraph.cli import main


def _report(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def _connected_net(rng) -> TemporalNetwork:
    """Random network with N <= 20, M <= 200, connected aggregate.

    A random spanning tree guarantees connectivity, extra pairs are
    uniform, and the pair order is shuffled so tree edges do not cluster
    at the start. Times are dyadic (k/8) so every sum is float-exact.
    """
    n = int(rng.integers(2, 21))
    m = int(rng.integers(n - 1, 201))
    perm = rng.permutation(n)
    pairs = []
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[int(rng.integers(0, i))])
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    while len(pairs) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        pairs.append((u, v))
    order = rng.permutation(len(pairs))
    t = float(rng.integers(0, 8)) / 8.0
    events = []
    for k in order:
        u, v = pairs[k]
        events.append((u, v, t))
        t += 1.0 + float(rng.integers(0, 8)) / 8.0
    return from_rows(events)


def test_criterion_1_round_trip_bijection():
    """1,000 strip/reconstruct round-trips are exact, in under 10 s."""
    t0 = time.perf_counter()
    for k in range(1000):
        rng = np.random.default_rng(1000 + k)
        net = _connected_net(rng)
        rebuilt = reconstruct(strip_events(build_teg(net, math.inf)))
        assert rebuilt == canonicalize(net), f"round-trip changed network for seed {1000 + k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"1,000 round-trips took {elapsed:.1f} s"
    _report(1, "round-trip bijection")


_ORACLE_SAMPLERS = (
    ExponentialIets(1.0),
    PowerLawIets(0.5),
    DeterministicIets(1.0),
    PowerLawIets(0.2),
)


def _oracle_windows(net, rng):
    # gap quantiles land on interesting thresholds; the strict bound
    # 0 < gap < dt means a window equal to a gap excludes that edge
    times = [e.time for e in net]
    gaps = sorted(b - a for a, b in zip(times, times[1:]))
    picks = [gaps[len(gaps) // 4], gaps[len(gaps) // 2], gaps[(3 * len(gaps)) // 4]]
    span = times[-1] - times[0]
    return picks + [span * float(rng.uniform(0.5, 1.5)), math.inf]


def test_criterion_2_brute_force_oracle_equivalence():
    """Linear builder equals the quadratic oracle on 200 x 5 cases."""
    for k in range(200):
        rng = np.random.default_rng(4000 + k)
        cfg = GeneratorConfig(
            node_count=int(rng.integers(2, 21)),
            event_count=int(rng.integers(2, 201)),
            iets=_ORACLE_SAMPLERS[k % len(_ORACLE_SAMPLERS)],
            seed=int(rng.integers(0, 2**31)),
        )
        net = generate_random(cfg)
        for dt in _oracle_windows(net, rng):
            teg = build_teg(net, dt)
            assert teg_edge_tuples(teg) == brute_force_teg(net, dt), (
                f"builder disagrees with oracle (net {k}, dt {dt})"
            )
    _report(2, "brute-force oracle equivalence")


def _structural_batch():
    samplers = (ExponentialIets(1.0), PowerLawIets(0.3), DeterministicIets(0.5))
    for k in range(40):
        rng = np.random.default_rng(5000 + k)
        cfg = GeneratorConfig(
            node_count=int(rng.integers(2, 41)),
            event_count=int(rng.integers(1, 301)),
            iets=samplers[k % len(samplers)],
            seed=6000 + k,
        )
        net = generate_random(cfg)
        times = [e.time for e in net]
        gaps = sorted(b - a for a, b in zip(times, times[1:])) or [1.0]
        for dt in (gaps[len(gaps) // 2], 4.0 * gaps[-1], math.inf):
            yield net, build_teg(net, dt)


def test_criterion_3_structural_invariants():
    """Degree bounds, acyclicity, and infinite-window component identity."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for net, teg in _structural_batch():
        assert np.bincount(teg.heads, minlength=teg.vertex_count).max() <= 2
        assert np.bincount(teg.tails, minlength=teg.vertex_count).max() <= 2
        # edges only point forward in time order, so the graph is acyclic
        assert (teg.heads < teg.tails).all()
        if math.isinf(teg.delta_t):
            comps = weakly_connected_components(teg)
            node_sets = [frozenset(c.nodes) for c in comps.components]
            for i in range(len(node_sets)):
                for j in range(i + 1, len(node_sets)):
                    assert node_sets[i].isdisjoint(node_sets[j])
            g = nx.DiGraph()
            g.add_nodes_from(net.nodes)
            g.add_edges_from((e.source, e.target) for e in net)
            assert set(node_sets) == {
                frozenset(s) for s in nx.weakly_connected_components(g)
            }
        checked += 1
    assert checked == 120
    _report(3, "structural invariants")


def test_criterion_4_motif_law_convergence():
    """Ensemble motif frequencies match the analytic law within 3 SE.

    The analytic probabilities describe each event's next interaction:
    the first later event sharing one of its nodes, which per vertex is
    the earliest out-edge. The full edge census measures a different,
    dyad-heavier quantity (once an event's two node threads split, the
    later thread rejoins the same partner with probability 1/(N-1), not
    1/(2N-3)), so it is not compared against the law.
    """
    t0 = time.perf_counter()
    expected = np.array(analytic_motif_probabilities(200).masses)
    freqs = np.empty((100, 6))
    entropies = np.empty(100)
    for row, seed in enumerate(ensemble_seeds(2000, 100)):
        net = generate_random(GeneratorConfig(200, 5000, ExponentialIets(1.0), seed))
        teg = build_teg(net, math.inf)
        # columns are sorted by (head, tail): a head's first edge is its earliest
        first = np.flatnonzero(np.diff(teg.heads, prepend=-1))
        counts = np.bincount(teg.codes[first], minlength=6)
        freqs[row] = counts / counts.sum()
        entropies[row] = shannon_entropy(freqs[row])
    mean = freqs.mean(axis=0)
    stderr = freqs.std(axis=0, ddof=1) / math.sqrt(100)
    for i, motif in enumerate(MOTIFS):
        assert abs(mean[i] - expected[i]) <= 3.0 * stderr[i], (
            f"{motif.value}: mean {mean[i]:.6f} vs {expected[i]:.6f}"
            f" exceeds 3 SE ({stderr[i]:.2g})"
        )
    assert abs(entropies.mean() - 2.00) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"100-seed ensemble took {elapsed:.1f} s"
    _report(4, "motif law convergence")


def test_criterion_5_sigmoid_transition():
    """Heavy-tailed IETs give a sharp connectivity transition in dt."""
    low = []
    high = []
    for seed in ensemble_seeds(3000, 100):
        net = generate_random(GeneratorConfig(200, 5000, PowerLawIets(0.2), seed))
        curve = sweep_largest_component(net, [5.0, 15.0])
        low.append(curve[0][1])
        high.append(curve[1][1])
    assert np.mean(low) < 0.10, f"largest-component mean at dt=5 is {np.mean(low):.3f}"
    assert np.mean(high) > 0.90, f"largest-component mean at dt=15 is {np.mean(high):.3f}"
    _report(5, "sigmoid transition")


def _graph(vertex_count, edges):
    heads, tails, taus, motifs = zip(*edges)
    return EdgeLabelledTeg(vertex_count, heads, tails, taus, [MOTIFS.index(m) for m in motifs])


# each fixture violates exactly one condition: duplicated out-roles (C2),
# duplicated in-positions (C3), unequal path sums (C1), a two-node label
# that contradicts the node structure (C4)
DETECTOR_FIXTURES = (
    ("C2", _graph(3, [(0, 1, 1.0, Motif.ABAC), (0, 2, 2.0, Motif.ABAC)])),
    ("C3", _graph(3, [(0, 2, 2.0, Motif.ABAC), (1, 2, 1.0, Motif.ABBC)])),
    (
        "C1",
        _graph(
            4,
            [
                (0, 1, 1.0, Motif.ABAC),
                (0, 2, 2.0, Motif.ABBC),
                (1, 3, 4.0, Motif.ABAC),
                (2, 3, 2.0, Motif.ABCA),
            ],
        ),
    ),
    (
        "C4",
        _graph(
            3,
            [
                (0, 1, 1.0, Motif.ABBC),
                (1, 2, 1.0, Motif.ABCA),
                (0, 2, 2.0, Motif.ABBA),
            ],
        ),
    ),
)


def test_criterion_6_consistency_detectors():
    """Each detector fixture trips exactly its own condition; real graphs none."""
    for name, g in DETECTOR_FIXTURES:
        report = check_consistency(g)
        assert not report.ok
        assert report.conditions == {name}, (
            f"expected only {name}, found {sorted(report.conditions)}"
        )
    for _, teg in _structural_batch():
        assert check_consistency(strip_events(teg)).ok
    _report(6, "consistency detectors")


def test_criterion_7_entropy_anchors():
    assert shannon_entropy([1 / 6] * 6) == pytest.approx(math.log2(6), abs=1e-12)
    single = build_teg(from_rows([(0, 1, 0.0), (0, 1, 1.0)]), math.inf)
    assert shannon_entropy(motif_distribution(single)) == 0.0
    assert cumulative_residual_entropy(EmpiricalCcdf.from_samples([2.5] * 8)) == 0.0
    coin = EmpiricalCcdf.from_samples([0.0, 1.0])
    assert cumulative_residual_entropy(coin) == pytest.approx(0.5, abs=1e-12)
    _report(7, "entropy and CRE anchors")


UCI_ROW = dict(zip(MOTIFS, (0.070, 0.14, 0.27, 0.15, 0.11, 0.25)))
SHUFFLED_ROW = dict(zip(MOTIFS, (0.0090, 0.0076, 0.27, 0.22, 0.22, 0.26)))


def _college_messages_path():
    override = os.environ.get("TEG_UCI")
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "CollegeMsg.txt"


def test_criterion_8_college_messages_reproduction():
    """Published college-messaging statistics, when the dataset is present."""
    path = _college_messages_path()
    if not path.is_file():
        pytest.skip(f"college-messages dataset not found at {path}")
    with warnings.catch_warnings():
        # real data carries same-second events; the tie warning is expected
        warnings.simplefilter("ignore", UserWarning)
        net = load_events(str(path))
    assert len(net) == 59835
    assert len(net.nodes) == 1899

    t0 = time.perf_counter()
    hour = build_teg(net, 3600.0)
    observed = motif_distribution(hour).as_dict()
    for motif, target in UCI_ROW.items():
        assert abs(observed[motif] - target) <= 0.015, (
            f"{motif.value}: {observed[motif]:.4f} vs published {target}"
        )
    forever = build_teg(net, math.inf)
    comps = weakly_connected_components(forever)
    assert comps.components[0].size == len(net) - 4
    agg = aggregate_network(net)
    assert agg.weak_component_count == 4
    assert len(agg.edges) == 20296
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"pipeline took {elapsed:.0f} s"

    totals = np.zeros(6)
    for seed in ensemble_seeds(8000, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            shuffled = time_shuffle(net, seed)
        totals += np.array(motif_distribution(build_teg(shuffled, 3600.0)).masses)
    ensemble_mean = dict(zip(MOTIFS, totals / 200.0))
    for motif, target in SHUFFLED_ROW.items():
        assert abs(ensemble_mean[motif] - target) <= 0.015, (
            f"shuffled {motif.value}: {ensemble_mean[motif]:.4f} vs published {target}"
        )
    _report(8, "college-messages reproduction")


def _run_twice(tmp_path, args, outputs):
    """Run a CLI command twice into the same paths; return both byte snapshots."""
    snapshots = []
    for _ in range(2):
        assert main([str(a) for a in args]) == 0
        snapshot = {}
        for out in outputs:
            out = Path(out)
            snapshot[out.name] = out.read_bytes()
            manifest = out.with_name(out.name + ".manifest.json")
            snapshot[manifest.name] = manifest.read_bytes()
        snapshots.append(snapshot)
    return snapshots


def test_criterion_9_cli_determinism(tmp_path):
    """Every seeded subcommand is byte-identical across two runs."""
    events = tmp_path / "events.txt"
    first, second = _run_twice(
        tmp_path,
        ["generate", "--nodes", 30, "--events", 400, "--iets", "exponential:1.0",
         "--seed", 7, "--output", events],
        [events],
    )
    assert first == second

    shuffled = tmp_path / "shuffled.txt"
    first, second = _run_twice(
        tmp_path,
        ["shuffle", "--input", events, "--seed", 11, "--output", shuffled],
        [shuffled],
    )
    assert first == second

    motifs_csv = tmp_path / "motifs.csv"
    first, second = _run_twice(
        tmp_path,
        ["motifs", "--input", events, "--dt", "inf", "--ensemble", 8,
         "--seed", 13, "--output", motifs_csv],
        [motifs_csv],
    )
    assert first == second
    _report(9, "seeded CLI determinism")
