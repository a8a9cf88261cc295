"""Event-graph construction against the literal-definition oracle."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from _oracles import brute_force_teg, teg_edge_tuples
from tegraph import (
    MOTIFS,
    Event,
    Motif,
    TemporalNetwork,
    build_teg,
    classify_motif,
    classify_pair,
    is_dt_adjacent,
    write_teg_json,
)
from tegraph.generators import (
    DeterministicIets,
    ExponentialIets,
    GeneratorConfig,
    PowerLawIets,
    generate_random,
)

SAMPLERS = [ExponentialIets(1.0), PowerLawIets(0.5), DeterministicIets(0.25)]


def _windows(net):
    gaps = sorted(
        b.time - a.time for a, b in zip(net.events, net.events[1:]) if b.time > a.time
    )
    mid = gaps[len(gaps) // 2] if gaps else 1.0
    return [mid * 0.5, mid * 2.0, mid * 8.0, math.inf]


def test_is_dt_adjacent_boundaries():
    a = Event(1, 2, 0.0)
    assert is_dt_adjacent(a, Event(2, 3, 1.0), 2.0)
    assert not is_dt_adjacent(a, Event(2, 3, 2.0), 2.0)  # gap == window
    assert not is_dt_adjacent(a, Event(2, 3, 0.0), 2.0)  # zero gap
    assert not is_dt_adjacent(a, Event(3, 4, 1.0), 2.0)  # no shared node
    assert is_dt_adjacent(a, Event(1, 9, 1e9), math.inf)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sampler", SAMPLERS, ids=str)
def test_matches_literal_definition(seed, sampler):
    cfg = GeneratorConfig(node_count=7, event_count=120, iets=sampler, seed=seed)
    net = generate_random(cfg)
    for dt in _windows(net):
        teg = build_teg(net, dt)
        assert teg_edge_tuples(teg) == brute_force_teg(net, dt)


def _tied_network(rng, m):
    """m events on 2-5 nodes at small integer times: many ties, repeated pairs."""
    n = int(rng.integers(2, 6))
    events = []
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False)
        events.append(Event(int(u), int(v), float(rng.integers(0, m // 2 + 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TemporalNetwork(events)


@pytest.mark.parametrize("seed", range(10))
def test_ties_and_repeated_pairs_match_literal_definition(seed):
    rng = np.random.default_rng(seed)
    for m in list(range(16)) * 2:
        net = _tied_network(rng, m)
        for dt in (0.5, 1.0, 2.0, 3.5, math.inf):
            teg = build_teg(net, dt)
            assert teg_edge_tuples(teg) == brute_force_teg(net, dt)
            pairs = list(zip(teg.heads.tolist(), teg.tails.tolist()))
            assert pairs == sorted(set(pairs))  # sorted, each pair once
            columns = list(
                zip(teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist())
            )
            for i, j, _, code in columns:
                first, second = net.events[i], net.events[j]
                motif = classify_pair(first.source, first.target, second.source, second.target)
                assert MOTIFS[code] is motif


def test_node_ids_past_int64_range():
    big = 2**70
    net = TemporalNetwork([Event(big, 1, 0.0), Event(1, big + 1, 1.0), Event(big + 1, big, 2.0)])
    assert teg_edge_tuples(build_teg(net, math.inf)) == brute_force_teg(net, math.inf)


@pytest.mark.parametrize("seed", range(4))
def test_degree_bounds_and_forward_edges(seed):
    cfg = GeneratorConfig(node_count=5, event_count=150, iets=ExponentialIets(2.0), seed=seed)
    teg = build_teg(generate_random(cfg), 1.5)
    assert np.bincount(teg.heads, minlength=teg.vertex_count).max() <= 2
    assert np.bincount(teg.tails, minlength=teg.vertex_count).max() <= 2
    # edges point strictly forward in the event order, so the graph is acyclic
    assert (teg.heads < teg.tails).all()


def test_edge_labels_match_event_pairs():
    cfg = GeneratorConfig(node_count=6, event_count=80, iets=ExponentialIets(1.0), seed=11)
    net = generate_random(cfg)
    teg = build_teg(net, 2.0)
    assert teg.edge_count > 0
    for i, j, iet, code in zip(
        teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist()
    ):
        first, second = net.events[i], net.events[j]
        assert iet == second.time - first.time
        assert 0 < iet < 2.0
        assert MOTIFS[code] is classify_motif(first, second)


def test_repeated_pair_collapses_to_one_edge():
    net = TemporalNetwork([Event(1, 2, 0.0), Event(1, 2, 1.0)])
    teg = build_teg(net, math.inf)
    assert teg.edge_count == 1
    assert MOTIFS[teg.codes[0]] is Motif.ABAB


def test_only_next_event_of_a_node_connects():
    net = TemporalNetwork([Event(1, 2, 0.0), Event(1, 3, 1.0), Event(1, 4, 2.0)])
    teg = build_teg(net, math.inf)
    assert set(zip(teg.heads.tolist(), teg.tails.tolist())) == {(0, 1), (1, 2)}


def test_window_cuts_but_still_consumes_the_node():
    # 0-1 gap equals the window (excluded); node 2's next event is index 2
    # but that gap is out of the window as well, so only 1-2 survives
    net = TemporalNetwork([Event(1, 2, 0.0), Event(1, 3, 5.0), Event(3, 2, 6.0)])
    teg = build_teg(net, 5.0)
    assert set(zip(teg.heads.tolist(), teg.tails.tolist())) == {(1, 2)}


def test_equal_time_events_never_connect():
    with pytest.warns(UserWarning):
        net = TemporalNetwork([Event(1, 2, 1.0), Event(2, 3, 1.0), Event(3, 4, 2.0)])
    teg = build_teg(net, math.inf)
    assert set(zip(teg.heads.tolist(), teg.tails.tolist())) == {(1, 2)}


def test_trivial_networks():
    assert build_teg(TemporalNetwork(()), 1.0).edge_count == 0
    assert build_teg(TemporalNetwork([Event(0, 1, 0.0)]), 1.0).edge_count == 0


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
def test_bad_window_rejected(dt):
    with pytest.raises(ValueError):
        build_teg(TemporalNetwork(()), dt)


def test_json_round_trip():
    cfg = GeneratorConfig(node_count=5, event_count=40, iets=ExponentialIets(1.0), seed=0)
    teg = build_teg(generate_random(cfg), 3.0)
    buf = io.StringIO()
    write_teg_json(teg, buf)
    dump = json.loads(buf.getvalue())
    assert dump["delta_t"] == 3.0
    assert dump["event_count"] == teg.vertex_count
    assert dump["edges"] == [
        [i, j, iet, MOTIFS[code].value]
        for i, j, iet, code in zip(
            teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist()
        )
    ]


@pytest.mark.parametrize("dt", (3, 2.5, 1e16, math.inf))
@pytest.mark.parametrize(
    "events",
    [
        (),
        (Event(0, 1, 0.0),),
        (Event(0, 1, 0.0), Event(1, 2, 5e-324), Event(2, 0, 1e-7), Event(0, 1, 1e16)),
        tuple(generate_random(GeneratorConfig(7, 60, ExponentialIets(1.0), 3))),
    ],
    ids=("empty", "single", "special", "random"),
)
def test_write_teg_json_matches_json_dump(events, dt):
    teg = build_teg(TemporalNetwork(events), dt)
    doc = {
        "delta_t": "inf" if dt == math.inf else dt,
        "event_count": teg.vertex_count,
        "edges": [
            [i, j, iet, MOTIFS[code].value]
            for i, j, iet, code in zip(
                teg.heads.tolist(), teg.tails.tolist(), teg.iets.tolist(), teg.codes.tolist()
            )
        ],
    }
    buf = io.StringIO()
    write_teg_json(teg, buf)
    assert buf.getvalue() == json.dumps(doc, indent=1) + "\n"


def test_json_round_trip_infinite_window():
    teg = build_teg(TemporalNetwork([Event(0, 1, 0.0), Event(1, 2, 1.0)]), math.inf)
    buf = io.StringIO()
    write_teg_json(teg, buf)
    assert '"delta_t": "inf"' in buf.getvalue()
