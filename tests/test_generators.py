"""Random model, shuffle null, analytic motif law, sampler parsing."""

import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from _oracles import from_rows
from tegraph import aggregate_network
from tegraph.generators import (
    DeterministicIets,
    ExponentialIets,
    GeneratorConfig,
    PowerLawIets,
    analytic_motif_probabilities,
    ensemble_seeds,
    generate_random,
    parse_iet_sampler,
    time_shuffle,
)


def test_same_seed_same_network():
    cfg = GeneratorConfig(12, 300, ExponentialIets(2.0), 77)
    assert generate_random(cfg) == generate_random(cfg)
    other = GeneratorConfig(12, 300, ExponentialIets(2.0), 78)
    assert generate_random(other) != generate_random(cfg)


def test_unit_gap_times_count_upward():
    net = generate_random(GeneratorConfig(5, 40, DeterministicIets(1.0), 3))
    assert [e.time for e in net] == [float(k) for k in range(1, 41)]


def test_no_self_loops_and_nodes_in_range():
    net = generate_random(GeneratorConfig(6, 500, DeterministicIets(1.0), 9))
    for e in net:
        assert e.source != e.target
        assert 0 <= e.source < 6 and 0 <= e.target < 6


def test_power_law_sample_range_and_mean():
    rng = np.random.default_rng(5)
    sampler = PowerLawIets(0.5)
    x = sampler.sample(rng, 200_000)
    assert np.all(x > 0) and np.all(x <= 1.0)
    assert sampler.mean == 0.5 / 1.5
    assert float(x.mean()) == pytest.approx(sampler.mean, abs=0.005)


def test_exponential_sample_mean():
    rng = np.random.default_rng(6)
    sampler = ExponentialIets(4.0)
    x = sampler.sample(rng, 200_000)
    assert float(x.mean()) == pytest.approx(0.25, abs=0.005)


def test_total_duration_tracks_sampler_mean():
    # expected span is event_count times the sampler mean
    sampler = PowerLawIets(0.2)
    spans = []
    for seed in ensemble_seeds(500, 20):
        net = generate_random(GeneratorConfig(200, 5_000, sampler, seed))
        spans.append(net.duration)
    expected = 5_000 * sampler.mean
    assert np.mean(spans) == pytest.approx(expected, abs=15.0)


def test_vanishing_gaps_never_stall_the_clock():
    # heavy-tailed gaps can underflow float addition; times must still rise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = generate_random(GeneratorConfig(200, 5_000, PowerLawIets(0.2), 11))
    times = [e.time for e in net]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_node_recurrence_is_geometric():
    # uniform pairs hit a fixed node with chance 2/n per event, so the
    # waits between a node's occurrences follow Geometric(2/n)
    n = 10
    net = generate_random(GeneratorConfig(n, 20_000, DeterministicIets(1.0), 42))
    last: dict[int, int] = {}
    waits = []
    for k, e in enumerate(net):
        for w in e.nodes:
            if w in last:
                waits.append(k - last[w])
            last[w] = k
    p = 2 / n
    counts = Counter(waits)
    kmax = max(counts)
    total = len(waits)
    obs, exp = [], []
    tail_obs = tail_exp = 0.0
    for k in range(1, kmax + 1):
        e = total * p * (1 - p) ** (k - 1)
        if e < 10:
            tail_obs += counts.get(k, 0)
            tail_exp += e
        else:
            obs.append(counts.get(k, 0))
            exp.append(e)
    obs.append(tail_obs + 0.0)
    exp.append(tail_exp + total * (1 - p) ** kmax)
    exp = np.asarray(exp) * (sum(obs) / sum(exp))
    result = stats.chisquare(obs, exp)
    assert result.pvalue > 0.001


def test_shuffle_preserves_marginals():
    net = generate_random(GeneratorConfig(8, 400, ExponentialIets(1.0), 15))
    shuffled = time_shuffle(net, 99)
    assert shuffled != net
    assert sorted(e.time for e in shuffled) == sorted(e.time for e in net)
    assert Counter((e.source, e.target) for e in shuffled) == Counter(
        (e.source, e.target) for e in net
    )
    assert aggregate_network(shuffled) == aggregate_network(net)
    assert time_shuffle(net, 99) == shuffled
    assert time_shuffle(net, 100) != shuffled


def test_shuffle_single_event_is_identity():
    net = from_rows([(3, 4, 1.5)])
    assert time_shuffle(net, 0) == net


def test_analytic_probabilities_smallest_case():
    dist = analytic_motif_probabilities(3)
    assert all(p == float(Fraction(1, 6)) for p in dist.masses)


def test_analytic_probabilities_match_closed_form():
    dist = analytic_motif_probabilities(200).as_dict()
    for motif, p in dist.items():
        if motif.is_two_node:
            assert p == float(Fraction(1, 794))
        else:
            assert p == float(Fraction(198, 794))


def test_analytic_probabilities_limit_and_domain():
    with pytest.raises(ValueError, match="at least 3"):
        analytic_motif_probabilities(2)
    dist = analytic_motif_probabilities(10**9)
    for motif, p in dist.as_dict().items():
        if not motif.is_two_node:
            assert p == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("power_law:0.2", PowerLawIets(0.2)),
        ("exponential:2", ExponentialIets(2.0)),
        ("deterministic:1.5", DeterministicIets(1.5)),
        (" power_law :0.5", PowerLawIets(0.5)),
    ],
)
def test_parse_iet_sampler(text, expected):
    assert parse_iet_sampler(text) == expected


@pytest.mark.parametrize("text", ["weibull:1", "power_law", "power_law:abc", ""])
def test_parse_iet_sampler_rejects(text):
    with pytest.raises(ValueError):
        parse_iet_sampler(text)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: PowerLawIets(0.0),
        lambda: PowerLawIets(math.inf),
        lambda: ExponentialIets(-1.0),
        lambda: DeterministicIets(0.0),
        lambda: GeneratorConfig(1, 10, DeterministicIets(1.0), 0),
        lambda: GeneratorConfig(5, -1, DeterministicIets(1.0), 0),
    ],
)
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ValueError):
        factory()


@pytest.mark.parametrize(
    "law,name,noun",
    [
        (PowerLawIets, "power_law", "exponent"),
        (ExponentialIets, "exponential", "rate"),
        (DeterministicIets, "deterministic", "gap"),
    ],
)
def test_iet_laws_name_their_parameter_and_parse_their_own_text(law, name, noun):
    for bad in (0.0, -1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{noun} must be positive, got {bad}$"):
            law(bad)
    assert str(law(0.1 + 0.2)) == f"{name}:0.30000000000000004"
    for value in (0.2, 1.0, 3.0, 1e-300, 0.1 + 0.2):
        assert parse_iet_sampler(str(law(value))) == law(value)


def test_ensemble_seeds_are_consecutive():
    assert ensemble_seeds(100, 5) == [100, 101, 102, 103, 104]
    assert ensemble_seeds(0, 0) == []


def _loop_clock(cfg):
    """The clock of ``generate_random`` repaired by a loop over the events:
    a time at or below its predecessor's moves to the float after it."""
    rng = np.random.default_rng(cfg.seed)
    times = np.cumsum(cfg.iets.sample(rng, cfg.event_count)).tolist()
    for k in range(1, len(times)):
        if times[k] <= times[k - 1]:
            times[k] = math.nextafter(times[k - 1], math.inf)
    return np.array(times, np.float64)


@pytest.mark.parametrize("exponent", [0.2, 0.05])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stalled_clock_repair_matches_a_loop(exponent, seed):
    cfg = GeneratorConfig(50, 20_000, PowerLawIets(exponent), seed)
    raw = np.cumsum(cfg.iets.sample(np.random.default_rng(seed), cfg.event_count))
    assert np.count_nonzero(np.diff(raw) <= 0) > 10  # the clock stalls
    assert generate_random(cfg).times.tobytes() == _loop_clock(cfg).tobytes()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_clock_of_few_events_matches_a_loop(m):
    for seed in range(5):
        cfg = GeneratorConfig(3, m, PowerLawIets(0.05), seed)
        assert generate_random(cfg).times.tobytes() == _loop_clock(cfg).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("m", [2, 3, 5])
def test_an_overflowing_clock_reports_its_first_infinite_time(m):
    # past an overflow to inf the repaired bits are NaN patterns; the network names the first inf
    with pytest.raises(ValueError, match=r"^event 1: event time must be non-negative and finite, got inf$"):
        generate_random(GeneratorConfig(4, m, DeterministicIets(1e308), 0))
