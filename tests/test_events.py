"""Event and temporal-network basics: validation, ordering, text format."""

import io
import itertools
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from tegraph import (
    ComponentSet,
    Event,
    GeneratorConfig,
    ParseError,
    PowerLawIets,
    TemporalNetwork,
    aggregate_component,
    aggregate_network,
    barcode_rows,
    build_teg,
    canonicalize,
    cli,
    generate_random,
    motif_counts,
    parse_events,
    reconstruct,
    strip_events,
    sweep_largest_component,
    time_shuffle,
)
from _oracles import first_seen, format_time, from_rows, stable_fill, time_shuffle_sorted
from tegraph import _text
from tegraph.events import (
    _first_seen, _grouped, _parsed_lines, _stable_sort, load_events, save_events, write_events)


@pytest.mark.parametrize(
    "source,target,time",
    [
        (1, 1, 0.0),  # self-loop
        (-1, 2, 0.0),
        (1, -2, 0.0),
        (1.5, 2, 0.0),  # non-integer id
        (True, 2, 1.0),  # bool is an int subclass, but not a node id
        (1, False, 1.0),
        (1, 2, -0.5),
        (1, 2, math.inf),
        (1, 2, math.nan),
        (1, 2, True),  # a bool is not a time either
        (1, 2, "3"),
        pytest.param(1, 2, 10**400, id="1-2-int-past-the-float-range"),  # finite as an int, not as a float
    ],
)
def test_event_rejects_bad_fields(source, target, time):
    with pytest.raises(ValueError):
        Event(source, target, time)


_ROWS = dict(sources=[4, 7, 9], targets=[7, 9, 4], times=[0.5, 1.0, 2.0])
_POSITIONS = dict(sources=[0, 1, 2], targets=[1, 2, 0], times=[0.5, 1.0, 2.0])
_PAST = "event time must be non-negative and finite, got an int past the float range"


@pytest.mark.parametrize(
    "columns,match",
    [
        (dict(_ROWS, sources=[4, 7.0, 9]), "event 1: node ids must be integers, got (7.0, 9)"),
        (dict(_ROWS, targets=np.array([7.0, 9.0, 4.0])), "event 0: node ids must be integers, got (4, 7.0)"),
        (dict(_ROWS, targets=[7, 9, True]), "event 2: node ids must be integers, got (9, True)"),
        (dict(_ROWS, sources=np.array([True, False, True])), "event 0: node ids must be integers, got (True, 7)"),
        (dict(_ROWS, sources=[4, -7, 9]), "event 1: node ids must be non-negative, got (-7, 9)"),
        (dict(_ROWS, targets=[7, 7, 4]), "event 1: self-loop at node 7 (time 1.0)"),
        (dict(_ROWS, times=[0.5, math.nan, 2.0]), "event 1: event time must be non-negative and finite, got nan"),
        (dict(_ROWS, times=[0.5, 1.0, math.inf]), "event 2: event time must be non-negative and finite, got inf"),
        (dict(_ROWS, times=np.array([0.5, -1, 2])), "event 1: event time must be non-negative and finite, got -1.0"),
        (dict(_ROWS, times=[0.5, "1", False]), "event 1: event time must be non-negative and finite, got 1"),
        # the first offending row in the given order, whatever its fault
        (dict(sources=[4, 7, 9], targets=[7, 4.5, 9], times=[0.5, 1.0, -2.0]), "event 1: node ids must be integers"),
        (dict(_ROWS, sources=[True, 0, 9], targets=[2, 2, 4], times=[1.0, True, 2.0]), "event 0: node ids must be"),
        (dict(_ROWS, times=[0.5, 1.0]), "unequal lengths (3, 3, 2)"),
        (dict(_ROWS, sources=np.array([[4, 7, 9]])), "columns must be one-dimensional, got shape (1, 3)"),
        (dict(_POSITIONS, node_ids=[4, 9, 7]), "node_ids must be strictly ascending ids, got 7 at 2"),
        (dict(_POSITIONS, node_ids=[4, 4, 9]), "node_ids must be strictly ascending ids, got 4 at 1"),
        (dict(_POSITIONS, node_ids=[-4, 7, 9]), "node_ids must be strictly ascending ids, got -4 at 0"),
        (dict(_POSITIONS, node_ids=[4, True, 9]), "node_ids must be strictly ascending ids, got True at 1"),
        (dict(_POSITIONS, targets=[1, 3, 0], node_ids=[4, 7, 9]), "event 1: node positions (1, 3) not in 0..2"),
        (dict(_POSITIONS, sources=[0, 1, -1], node_ids=[4, 7, 9]), "event 2: node positions (-1, 0) not in 0..2"),
        (dict(_POSITIONS, sources=[0, 1.0, 2], node_ids=[4, 7, 9]), "event 1: node positions (1.0, 2) not in"),
        (dict(_POSITIONS, targets=[1, 1, 0], node_ids=[4, 7, 9]), "event 1: self-loop at node 7 (time 1.0)"),
        (dict(_POSITIONS, times=[0.5, 1.0, -0.5], node_ids=[4, 7, 9]), "event 2: event time must be non-negative"),
        (dict(_ROWS, tie_policy="first"), "unknown tie_policy 'first'"),
        # ints past the float range, named by their size: 10**5000 has too many digits to print
        (dict(sources=[0], targets=[1], times=[10**400]), f"event 0: {_PAST} (1329 bits)"),
        (dict(_ROWS, times=[0.5, 10**5000, 2**1024]), f"event 1: {_PAST} (16610 bits)"),
        (dict(_ROWS, times=[0.5, 1.0, -(2**1024)]), f"event 2: {_PAST} (1025 bits)"),
    ],
)
def test_constructor_names_the_first_offending_row(columns, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        TemporalNetwork(**columns)


def test_id_columns_keep_ids_past_int64():
    # a list past int64 is no float column, and uint64 ids never wrap negative
    big = [2**63, 2**64 + 1]
    for sources, targets in ((big, [1, 2]), (np.array(big[:1] * 2, np.uint64), np.array([1, 2], np.uint64))):
        net = TemporalNetwork(sources, targets, [0.0, 1.0])
        assert net.node_ids.dtype == object
        assert net.node_ids.tolist() == sorted({*map(int, sources), 1, 2})
    assert TemporalNetwork(np.array([3, 1], np.uint64), [1, 2], [0.0, 1.0]).node_ids.dtype == np.int64


def test_event_nodes():
    e = Event(3, 7, 1.5)
    assert e.nodes == (3, 7)


def test_network_sorts_by_time():
    net = from_rows([(0, 1, 5.0), (1, 2, 1.0), (2, 0, 3.0)])
    assert [e.time for e in net] == [1.0, 3.0, 5.0]
    assert net.nodes == frozenset({0, 1, 2})
    assert len(net) == 3
    assert net[0] == Event(1, 2, 1.0)


def test_equal_times_stable_order_warns():
    events = [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 1.0)]
    with pytest.warns(UserWarning, match="equal-timestamp"):
        net = from_rows(events)
    # ties keep their given relative order after the stable sort
    assert net.events[1:] == (Event(0, 1, 2.0), Event(1, 2, 2.0))
    assert net.tie_count == 1


def test_equal_times_reject_policy():
    events = [(0, 1, 2.0), (1, 2, 2.0)]
    with pytest.raises(ValueError, match="equal-timestamp"):
        from_rows(events, tie_policy="reject")
    with pytest.raises(ValueError):
        from_rows(events, tie_policy="nonsense")


def test_network_equality_and_hash():
    a = from_rows([(0, 1, 1.0), (1, 2, 2.0)])
    b = from_rows([(1, 2, 2.0), (0, 1, 1.0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != from_rows([(0, 1, 1.0)])


def test_duration():
    assert from_rows(()).duration == 0.0
    assert from_rows([(0, 1, 4.0)]).duration == 0.0
    net = from_rows([(0, 1, 1.5), (1, 2, 7.0)])
    assert net.duration == 5.5


def test_canonicalize_shifts_and_relabels():
    net = from_rows([(9, 4, 10.0), (4, 2, 11.5)])
    canon = canonicalize(net)
    assert canon.events == (Event(0, 1, 0.0), Event(1, 2, 1.5))
    # idempotent, and invariant under relabelling plus translation
    assert canonicalize(canon) == canon
    shifted = from_rows([(70, 80, 3.0), (80, 90, 4.5)])
    assert canonicalize(shifted) == canon


def test_canonicalize_empty_rejected():
    with pytest.raises(ValueError):
        canonicalize(from_rows(()))


def _event_text(net):
    buf = io.StringIO()
    write_events(net, buf)
    return buf.getvalue()


def test_text_round_trip_is_lossless():
    net = from_rows([(0, 1, 3.0), (5, 2, 3.0000000000000004)])
    text = _event_text(net)
    # integral times print bare, others with full precision
    assert text == "0 1 3\n5 2 3.0000000000000004\n"
    assert parse_events(io.StringIO(text)) == net


def test_parse_custom_delimiter_and_field_order():
    text = "# time,target,source\n10,2,1\n11,3,1\n"
    net = parse_events(
        io.StringIO(text), delimiter=",", fields=("time", "target", "source")
    )
    assert net.events == (Event(1, 2, 10.0), Event(1, 3, 11.0))


def test_parse_ignores_extra_columns_and_blanks():
    text = "\n1 2 5 extra junk\n\n# comment\n2 3 6\n"
    net = parse_events(io.StringIO(text))
    assert len(net) == 2


@pytest.mark.parametrize(
    "line,match",
    [
        ("1 2", "3 columns"),
        ("x 2 5", "bad node id"),
        ("1 2 y", "bad time"),
        ("1 1 5", "self-loop"),
        ("1 2 -4", "non-negative"),
        ("1 y 5", "bad node id"),
        ("1.0 2 5", "bad node id"),
        ("-1 2 5", "node ids must be non-negative"),
        ("1 -2 5", "node ids must be non-negative"),
        ("-3 -3 5", "self-loop"),
        ("1 2 inf", "finite"),
        ("1 2 nan", "finite"),
        ("1 2 x extra", "bad time"),
    ],
)
def test_parse_error_carries_line_number(line, match):
    with pytest.raises(ParseError, match=match) as info:
        parse_events(io.StringIO("0 1 1\n" + line + "\n"))
    assert info.value.line_number == 2
    # after comments and blank lines, and ahead of a later bad line
    text = "# source target time\n\n0 1 1\n   \n# note\n" + line + "\n5 6 nope\n"
    with pytest.raises(ParseError, match=match) as info:
        parse_events(io.StringIO(text))
    assert info.value.line_number == 6
    # the same fields in another column order, comma separated
    parts = line.split()
    moved = parts[2:3] + parts[:2] + parts[3:] if len(parts) >= 3 else parts
    text = "# time,source,target\n\n1,0,1\n" + ",".join(moved) + "\n"
    with pytest.raises(ParseError, match=match) as info:
        parse_events(io.StringIO(text), delimiter=",", fields=("time", "source", "target"))
    assert info.value.line_number == 4


def test_parse_self_loop_skip():
    net = parse_events(io.StringIO("1 1 5\n1 2 6\n"), on_self_loop="skip")
    assert net.events == (Event(1, 2, 6.0),)
    with pytest.raises(ValueError):
        parse_events(io.StringIO(""), on_self_loop="drop")


def test_parse_bad_fields_rejected():
    with pytest.raises(ValueError, match="permutation"):
        parse_events(io.StringIO(""), fields=("source", "target"))


def test_parse_duplicates_kept_with_warning():
    with pytest.warns(UserWarning) as caught:
        net = parse_events(io.StringIO("1 2 5\n1 2 5\n"))
    messages = [str(w.message) for w in caught]
    assert any("duplicate" in m for m in messages)
    # the duplicate pair is also an equal-timestamp tie
    assert any("stable order" in m for m in messages)
    assert len(net) == 2


def _parsed(triples):
    return parse_events(io.StringIO("".join(f"{s} {t} {x!r}\n" for s, t, x in triples)))


def _positions(triples):
    """The triples as positions into node ids that differ from the positions."""
    sources, targets, times = map(np.array, zip(*triples))
    ids = np.unique(np.concatenate((sources, targets)))
    return TemporalNetwork(ids.searchsorted(sources), ids.searchsorted(targets), times, 10 * ids + 3)


def _shuffled(triples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the parse's own warnings
        net = _parsed(triples)
    return time_shuffle(net, 11)


_BUILDS = {
    "parse": _parsed,
    "direct": lambda triples: TemporalNetwork(*map(np.array, zip(*triples))),
    "positions": _positions,
    "shuffle": _shuffled,
}


# the parsed rows keep their ids 0..5
@pytest.mark.parametrize(
    "build,seed", [pytest.param(b, s, id=str(s) if b == "parse" else f"{b}-{s}") for b in _BUILDS for s in range(6)]
)
def test_duplicate_count_only_among_ties(build, seed):
    # runs of equal times with and without repeated triples, -0.0 next to
    # 0.0, and tie-free events between them, in shuffled order
    rng = np.random.default_rng(seed)
    m = 200
    times = rng.choice([0.0, -0.0, 1.5, 2.0, 7.25] + rng.random(40).tolist(), m)
    sources = rng.integers(0, 4 if seed % 2 else 40, m)
    targets = (sources + rng.integers(1, 4, m)) % 50
    triples = list(dict.fromkeys(zip(sources.tolist(), targets.tolist(), times.tolist())))
    if seed < 5:  # seed 5 keeps ties without a single duplicate
        triples += [triples[k] for k in rng.integers(0, len(triples), 1 + seed)]
        triples = [triples[k] for k in rng.permutation(len(triples))]
    assert (len(triples) == len(set(triples))) == (seed == 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net = _BUILDS[build](triples)
    triples = [(e.source, e.target, e.time) for e in net]  # the table that was built
    duplicates = len(triples) - len(set(triples))
    found = [str(w.message) for w in caught if "duplicate" in str(w.message)]
    assert found == ([f"{duplicates} duplicate event triples kept"] if duplicates else [])


_REJECTED = {
    "parse": lambda: parse_events(io.StringIO("1 2 5\n3 4 5\n1 2 5\n"), tie_policy="reject"),
    "direct": lambda: TemporalNetwork([1, 3, 1], [2, 4, 2], [5.0, 5.0, 5.0], tie_policy="reject"),
}


@pytest.mark.parametrize("build", list(_REJECTED))
def test_duplicates_warn_before_the_tie_rejection(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="2 equal-timestamp adjacencies under tie_policy='reject'"):
            _REJECTED[build]()
    assert [str(w.message) for w in caught] == ["1 duplicate event triples kept"]


def test_file_round_trip(tmp_path):
    net = from_rows([(4, 1, 0.25), (1, 3, 2.0)])
    path = tmp_path / "events.txt"
    save_events(net, str(path))
    assert load_events(str(path)) == net


def test_write_events_stream():
    net = from_rows([(0, 1, 1.0)])
    buf = io.StringIO()
    write_events(net, buf)
    assert buf.getvalue() == "0 1 1\n"


@pytest.mark.parametrize(
    "times",
    [
        [-0.0, 0.0, 1.0, 2.5],
        [2.0**53 - 1, 2.0**53, 2.0**53 - 2, 2.0**53 + 2, 2.0**54 + 4],
        [1e16, 1e300, 1.7976931348623157e308, 5e-324, 123456789.0, 0.1],
        [float(k) for k in range(50)] + [k + 0.5 for k in range(50)],
        [k / 3 if k % 5 else float(k) for k in range(2 * _text.ROWS + 3)],
    ],
    ids=("signed-zero", "two-to-53", "large-floats", "mixed", "three-chunks"),
)
@pytest.mark.filterwarnings("ignore:.*equal-timestamp")  # -0.0 ties 0.0
def test_event_text_matches_one_float_at_a_time(times):
    # times of any size, as a network holds them
    n = len(times)
    net = TemporalNetwork(np.arange(n) % 7, np.arange(n) % 7 + 1, np.array(times))
    columns = (net.node_ids[net.sources].tolist(), net.node_ids[net.targets].tolist(), net.times.tolist())
    expected = "".join(f"{s} {t} {format_time(x)}\n" for s, t, x in zip(*columns))
    assert _event_text(net) == expected


def _event_lists():
    """(name, events) cases: random, tie-heavy, signed-zero times, and node
    ids past the int64 and uint64 ranges."""
    rng = np.random.default_rng(5)

    def events(ids, times):
        pairs = rng.choice(len(ids), size=(len(times), 2), replace=True)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        return [Event(ids[a], ids[b], t) for (a, b), t in zip(pairs.tolist(), times)]

    small = list(range(40))
    return [
        ("random", events(small, rng.random(400).tolist())),
        ("tie_heavy", events(small[:6], rng.integers(0, 20, 400).astype(float).tolist())),
        ("signed_zero", events(small[:5], [-0.0, 0.0, 1.0, -0.0, 2.0] * 40)),
        ("past_int64", events([2**63 + k for k in range(4)] + small[:4], rng.random(200).tolist())),
        ("past_2_64", events([2**64 + 3 * k for k in range(5)] + small[:3], [1.0, 0.5] * 100)),
    ]


@pytest.mark.parametrize("name,events", _event_lists(), ids=[c[0] for c in _event_lists()])
def test_columns_and_event_lists_agree(name, events):
    ordered = sorted(events, key=lambda e: e.time)
    ties = sum(a.time == b.time for a, b in zip(ordered, ordered[1:]))
    text = "".join(f"{e.source} {e.target} {e.time!r}\n" for e in events)
    ids = lambda attr: np.array([getattr(e, attr) for e in events], dtype=object)
    rows = [(e.source, e.target, e.time) for e in events]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        built = [
            from_rows(rows),
            TemporalNetwork(ids("source"), ids("target"), np.array([e.time for e in events])),
            parse_events(io.StringIO(text)),
            pickle.loads(pickle.dumps(from_rows(rows))),
        ]
    for net in built:
        assert net.events == tuple(ordered)
        assert list(net) == ordered and net[-1] == ordered[-1]
        assert net.nodes == frozenset(n for e in events for n in e.nodes)
        assert net.tie_count == ties
        assert net == built[0] and hash(net) == hash(tuple(ordered))
        assert net.node_ids.dtype == (object if max(net.nodes) >= 2**63 else np.int64)
        assert not any(c.flags.writeable for c in (net.sources, net.targets, net.times, net.node_ids))


def test_library_paths_build_no_events(tmp_path, monkeypatch):
    raw = tmp_path / "events.txt"
    lines = [f"{2**64 + (k * 7) % 5} {2**64 + (k * 3 + 1) % 5 + 5} {k // 4} x" for k in range(200)]
    raw.write_text("# source target time note\n\n7 7 1 loop\n" + "\n".join(lines) + "\n")

    def refuse(self):
        raise AssertionError("an Event was built")

    monkeypatch.setattr(Event, "__post_init__", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tied = load_events(str(raw), on_self_loop="skip")
        plain = generate_random(GeneratorConfig(12, 300, PowerLawIets(0.5), 3))
        for net in (tied, plain):
            assert len(net) and net.nodes and net.duration > 0 and net.tie_count >= 0
            assert net == pickle.loads(pickle.dumps(net))
            hash(net)
            canonicalize(net)
            shuffled = time_shuffle(net, 1)
            teg = build_teg(shuffled, 3.0)
            cs = ComponentSet(teg)
            assert [c.nodes for c in cs]
            aggregate_network(net)
            aggregate_component(cs, 0)
            barcode_rows(cs, top=3)
            motif_counts(teg)
            sweep_largest_component(net, [0.5, 2.0, 8.0])
            write_events(net, io.StringIO())
            save_events(net, str(tmp_path / "out.txt"))
        rebuilt = reconstruct(strip_events(build_teg(plain, math.inf), keep_anchors=True))
        assert np.array_equal(rebuilt.times, plain.times)
        rebuilt = reconstruct(strip_events(build_teg(plain, 2.0)), layout="end_to_end")
        write_events(rebuilt, io.StringIO())
        ensemble = tmp_path / "motifs.csv"
        argv = ["motifs", "--input", str(raw), "--skip-self-loops", "--dt", "inf"]
        assert cli.main(argv + ["--ensemble", "2", "--output", str(ensemble)]) == 0


def _reference_parse(lines, delimiter=None, fields=("source", "target", "time"), on_self_loop="error"):
    """Per-line reference parser: the events of ``lines``, or the ParseError
    (line number, message) of the first malformed line."""
    i, j, k = (list(fields).index(name) for name in ("source", "target", "time"))
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(delimiter)
        if len(parts) < 3:
            return lineno, f"expected at least 3 columns, got {len(parts)}"
        try:
            source, target = int(parts[i]), int(parts[j])
        except ValueError as exc:
            return lineno, f"bad node id: {exc}"
        try:
            time = float(parts[k])
        except ValueError as exc:
            return lineno, f"bad time: {exc}"
        if source == target:
            if on_self_loop == "skip":
                continue
            return lineno, f"self-loop at node {source}"
        try:
            events.append(Event(source, target, time))
        except ValueError as exc:
            return lineno, str(exc)
    return events


def _assert_parses_like_reference(parse, lines, **kwargs):
    """``parse(**kwargs)`` gives the reference's network and warnings, or its
    ParseError, for the ``lines`` that ``parse`` reads."""
    expected = _reference_parse(lines, **kwargs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = parse(**kwargs)
        except ParseError as exc:
            assert isinstance(expected, tuple), (lines, kwargs, str(exc))
            assert (exc.line_number, str(exc)) == (expected[0], f"line {expected[0]}: {expected[1]}")
            return
    assert isinstance(expected, list), (lines, kwargs, expected)
    triples = [(e.source, e.target, e.time) for e in expected]
    times = [e.time for e in expected]
    messages = [f"{len(triples) - len(set(triples))} duplicate event triples kept"]
    messages += [f"{len(times) - len(set(times))} equal-timestamp adjacencies resolved by stable order"]
    assert [str(w.message) for w in caught] == [m for m in messages if not m.startswith("0 ")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = from_rows((e.source, e.target, e.time) for e in expected)
    assert net.node_ids.dtype == want.node_ids.dtype
    assert net.node_ids.tolist() == want.node_ids.tolist()
    assert np.array_equal(net.sources, want.sources) and np.array_equal(net.targets, want.targets)
    assert net.times.tobytes() == want.times.tobytes()  # -0.0 stays -0.0


_PARSER_CORPUS = [
    # unicode whitespace, split on and stripped like ASCII blanks
    ("1\x1c2\x1d3\n4\x1e5\x1f6\n", {}),
    ("1 2 3\x85\n\u20284 5 6\u2028\n", {}),
    ("1\u20282 3\u2028\n4 5\u20296\n", {}),
    ("1\u30002\u30003\n\xa04 5 6\xa0\n", {}),
    ("1,\u30002 ,3\xa0\n", {"delimiter": ","}),
    ("1 2 3\x0b\n4\x0c5 6\n", {}),
    # CR inside a line (StringIO does not translate it)
    ("1 2\r3\n", {}),
    ("1 2 3\r4 5 6\n", {}),
    ("1 2 3\r\n4 5 6\r\n", {}),
    ("1,2,3\r\n# c\r\n4,5,6\r\n", {"delimiter": ","}),
    # "#" only as the first non-blank character starts a comment
    ("  # note\n\t#note\n1 2 3\n", {}),
    ("1 2 3#c\n", {}),
    ("1 2 3 #c extra\n4 5 6 # x\n", {}),
    ("1,2,3,#c\n#1,2,3\n", {"delimiter": ","}),
    ("#\n#", {}),
    ("1 2 3\n\xa0# unicode blank first\n", {}),
    # Python literal syntax the tokenizer does not take
    ("1_0 2 3\n", {}),
    ("1 2 1_0.5\n", {}),
    ("\u0661 2 3\n", {}),
    ("1 2 \u0663.5\n", {}),
    ("1 2 \uff13\n", {}),
    ("1 2 \ud800\n", {}),
    ("1 2 1__0\n", {}),
    # ids past int64 and past 2**64
    ("9223372036854775807 1 2\n", {}),
    ("9223372036854775808 1 2\n1 2 3\n", {}),
    ("18446744073709551617 18446744073709551618 2\n", {}),
    ("-9223372036854775809 1 2\n", {}),
    # signed zeros, infinities, nan, overflow
    ("-0 1 -0.0\n1 -0 0.0\n", {}),
    ("1 2 -0\n1 2 +0.0\n", {}),
    ("1 2 inf\n", {}),
    ("1 2 -inf\n", {}),
    ("1 2 nan\n", {}),
    ("1 2 1e400\n", {}),
    ("1 2 1e-400\n1 2 -1e-400\n", {}),
    ("1 2 Infinity\n", {}),
    ("+1 +2 +3.5e1\n", {}),
    ("1 2 0x10\n", {}),
    ("1 2 .5\n1 3 5.\n", {}),
    ("1.0 2 3\n", {}),
    ("1e3 2 3\n", {}),
    ("00012 3 4\n", {}),
    # empty and comment-only files
    ("", {}),
    ("\n\n   \n", {}),
    ("# only\n  # comments\n", {}),
    ("\n", {"delimiter": ","}),
    # delimiters
    ("1 , 2 , 3\n 4,5,6 \n", {"delimiter": ","}),
    ("1,2,3,\n", {"delimiter": ","}),
    (",1,2,3\n", {"delimiter": ","}),
    ("1,2,3\n\n4,5,6\n", {"delimiter": ","}),
    ("1,2,3\n  \n4,5,6\n", {"delimiter": ","}),
    ("1 2,3\n", {"delimiter": ","}),
    ("1::2::3\n4::5::6::x\n", {"delimiter": "::"}),
    ("1::2\n", {"delimiter": "::"}),
    ("1 2 3\n 4 5 6 \n", {"delimiter": " "}),
    ("1  2 3\n", {"delimiter": " "}),
    ("1\t2\t3\n\t4\t5\t6\t\n", {"delimiter": "\t"}),
    ("1;2;3\n", {"delimiter": ";"}),
    # short lines, bad tokens, extra columns
    ("1 2\n", {}),
    ("1 2 3\n4 5\n", {}),
    ("x 2 3\n", {}),
    ("1 2 y\n", {}),
    ("1 2 3 4 5 6 7\n1 2 3\n", {}),
    # self-loops, duplicates, ties
    ("1 1 5\n1 2 6\n", {"on_self_loop": "skip"}),
    ("1 1 5\n1 2 6\n", {"on_self_loop": "error"}),
    ("1 2 6\n-3 -3 5\n3 3 inf\n", {"on_self_loop": "skip"}),
    ("1 2 6\n-3 -3 5\n", {"on_self_loop": "error"}),
    ("1 2 5\n1 2 5\n2 1 5\n", {}),
    ("1 2 -0.0\n1 2 0\n", {}),
    ("2 3 1\n-1 2 5\n1 1 2\n", {}),
]


# chunk sizes for the stream reader: a joint after every line, every few
# lines, and (the real size) none in these short texts
_CHUNKS = (1, 7, 40, _text.CHUNK)


@pytest.mark.parametrize("text,kwargs", _PARSER_CORPUS)
def test_parser_matches_reference_on_corpus(text, kwargs, monkeypatch):
    parse = lambda **kw: parse_events(io.StringIO(text), **kw)
    # a stream whose readline also stops at "\r" still reads lines ending in "\n"
    untranslated = lambda **kw: parse_events(io.StringIO(text, newline=""), **kw)
    lines = list(io.StringIO(text))
    # a list of lines, not a stream, is read line by line
    _assert_parses_like_reference(lambda **kw: parse_events(lines, **kw), lines, **kwargs)
    for chunk in _CHUNKS:
        monkeypatch.setattr(_text, "CHUNK", chunk)
        _assert_parses_like_reference(parse, lines, **kwargs)
        _assert_parses_like_reference(untranslated, lines, **kwargs)


@pytest.mark.parametrize("fields", list(itertools.permutations(("source", "target", "time"))))
def test_parser_matches_reference_for_every_field_order(fields):
    for text in ("1 2 3\n4 5 6.5 x\n", "7 8 9\n1 1 2\n", "1 2 -1\n", "3 4\n", "1_0 2 3\n5 6 7\n"):
        for on_self_loop in ("error", "skip"):
            parse = lambda **kw: parse_events(io.StringIO(text), **kw)
            _assert_parses_like_reference(
                parse, list(io.StringIO(text)), fields=fields, on_self_loop=on_self_loop
            )


def test_parser_matches_reference_on_files(tmp_path, monkeypatch):
    path = tmp_path / "events.txt"
    for text, kwargs in _PARSER_CORPUS:
        if "\ud800" in text:
            continue  # a lone surrogate has no UTF-8 encoding
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)  # CR and CRLF as written; reading translates them
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
        for chunk in _CHUNKS:
            monkeypatch.setattr(_text, "CHUNK", chunk)
            _assert_parses_like_reference(lambda **kw: load_events(str(path), **kw), lines, **kwargs)


_FUZZ_TOKENS = [
    "0", "1", "2", "7", "12", "-1", "+3", "-0", "0.5", "-0.0", "1e3", "2.5e-1", ".5", "5.",
    "inf", "nan", "1e400", "1_0", "9223372036854775808", "18446744073709551616",
    "\u0661", "x", "#", "#c", "3#", "", "1.0",
]
_FUZZ_GAPS = [" ", " ", " ", "  ", "\t", ",", ", ", "::", "\xa0", "\u3000", "\x1c", "\r"]


@pytest.mark.parametrize("seed", range(6))
def test_parser_matches_reference_on_fuzz(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    pick = lambda pool: pool[int(rng.integers(len(pool)))]
    for _ in range(60):
        lines = []
        for _ in range(int(rng.integers(0, 6))):
            roll = rng.random()
            if roll < 0.1:
                lines.append(pick(["", "   ", "# c", "  #c", "\t"]))
                continue
            # mostly valid rows, so that later lines are reached
            count = int(rng.integers(2, 6)) if roll < 0.3 else 3
            values = [pick(_FUZZ_TOKENS) for _ in range(count)] if roll < 0.5 else [
                str(int(rng.integers(0, 4))), str(int(rng.integers(0, 4))), repr(float(rng.random()))
            ] + [pick(_FUZZ_TOKENS) for _ in range(int(rng.integers(0, 2)))]
            gap = pick(_FUZZ_GAPS) if rng.random() < 0.5 else " "
            lines.append(gap.join(values) + (pick(_FUZZ_GAPS) if rng.random() < 0.1 else ""))
        text = "\n".join(lines) + pick(["\n", "", "\r\n"])
        kwargs = {
            "delimiter": pick([None, None, ",", "::", " "]),
            "fields": pick(list(itertools.permutations(("source", "target", "time")))),
            "on_self_loop": pick(["error", "skip"]),
        }
        parse = lambda **kw: parse_events(io.StringIO(text), **kw)
        path = tmp_path / "events.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
        for chunk in _CHUNKS:
            monkeypatch.setattr(_text, "CHUNK", chunk)
            _assert_parses_like_reference(parse, list(io.StringIO(text)), **kwargs)
            _assert_parses_like_reference(lambda **kw: load_events(str(path), **kw), lines, **kwargs)


def test_plain_text_skips_the_line_loop(monkeypatch):
    rows = [(k % 7, k % 5 + 7, k * 0.25) for k in range(300)]
    text = "# source target time\n" + "".join(f"{s} {t} {x}\n" for s, t, x in rows) + "  # note\n"
    commas = "\t# comma separated\n" + "".join(f"{s}, {t},{x},extra\r\n" for s, t, x in rows)

    def refuse(*args):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr("tegraph.events._parsed_lines", refuse)
    assert len(parse_events(io.StringIO(text))) == 300
    assert len(parse_events(io.StringIO(commas, newline=None), delimiter=",")) == 300
    with pytest.raises(AssertionError, match="line loop"):
        parse_events(io.StringIO(text + "1 1 5\n"))


def _chunks_of_events(count):
    """Event text of ``count`` rows, several chunks long."""
    text = "".join(f"{k % 97} {k % 89 + 97} {k * 0.125}\n" for k in range(count))
    assert len(text) > 4 * _text.CHUNK
    return text


class _SizedReads(io.StringIO):
    """A stream that refuses to be read whole."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read the whole stream")
        return super().read(size)


def test_stream_is_read_a_chunk_at_a_time():
    text = _chunks_of_events(20000)
    assert parse_events(_SizedReads(text)) == parse_events(io.StringIO(text))
    with pytest.raises(ParseError, match="^line 20001: bad time"):
        parse_events(_SizedReads(text + "1 2 3.0#c\n"))


def test_refused_chunk_alone_goes_to_the_line_loop(tmp_path, monkeypatch):
    # a non-ASCII comment in the last chunk sends that chunk, not the file,
    # through the line loop
    text = _chunks_of_events(20000)
    path = tmp_path / "events.txt"
    path.write_text(text + "# caf\xe9\n", encoding="utf-8")
    seen = []

    def counting(lines, *args):
        lines = list(lines)
        seen.extend(lines)
        return _parsed_lines(lines, *args)

    monkeypatch.setattr("tegraph.events._parsed_lines", counting)
    assert load_events(str(path)) == parse_events(io.StringIO(text))
    read = "".join(seen)
    assert read.endswith("# caf\xe9\n") and (text + "# caf\xe9\n").endswith(read)
    assert len(read) <= _text.CHUNK + max(map(len, seen))  # one chunk: CHUNK characters and a line's rest


def _sort_cases():
    """(name, keys) cases for the packed-key sort; 1,000 keys pack positions
    into 10 bits, so keys below 2**53 fit int64."""
    rng = np.random.default_rng(14)
    edge = rng.integers(0, 2**53, 1000)
    edge[[0, 500, 999]] = 2**53 - 1
    past = edge.copy()
    past[500] = 2**53
    return [
        ("empty", np.zeros(0, np.int64)),
        ("one", np.array([5])),
        ("all_equal", np.full(1000, 7)),
        ("seeded", rng.integers(0, 50, 10_000)),
        ("few_ties", rng.integers(0, 10**6, 5000)),
        ("widest_packed", edge),
        ("past_the_limit", past),
        ("far_past_the_limit", rng.integers(0, 2**62, 1000)),
    ]


@pytest.mark.parametrize("name,keys", _sort_cases(), ids=[c[0] for c in _sort_cases()])
def test_stable_sort_matches_numpy(name, keys, monkeypatch):
    argsort, calls = np.argsort, []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    ordered, order = _stable_sort(keys)
    monkeypatch.undo()
    assert order.dtype == ordered.dtype == np.int64
    assert order.tobytes() == np.argsort(keys, kind="stable").tobytes()
    assert ordered.tobytes() == np.sort(keys).tobytes()
    # only a packed key past int64 falls back to the stable argsort
    assert calls == ([{"kind": "stable"}] if name.endswith("past_the_limit") else [])


@pytest.mark.parametrize("name,keys", _sort_cases(), ids=[c[0] for c in _sort_cases()])
def test_first_seen_matches_unique(name, keys):
    ends = np.append(keys, keys[: len(keys) % 2])  # (source, target) pairs
    for got, expected in zip(_first_seen(ends[0::2], ends[1::2]), first_seen(ends[0::2], ends[1::2])):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_GROUP_CASES = _sort_cases() + [("past_int64", np.array([2**64, 3, 2**63, 2**64, 3, 2**70], object))]


@pytest.mark.parametrize("name,keys", _GROUP_CASES, ids=[c[0] for c in _GROUP_CASES])
def test_grouped_matches_unique(name, keys):
    order, starts, runs = _grouped(keys)
    distinct, inverse = np.unique(keys, return_inverse=True)
    ordered = keys[np.argsort(keys, kind="stable")].tolist()
    assert order.dtype == starts.dtype == runs.dtype == np.int64
    assert order.tobytes() == np.argsort(keys, kind="stable").tobytes()
    assert starts.tolist() == [k for k in range(len(keys)) if k == 0 or ordered[k] != ordered[k - 1]]
    assert keys[order[starts]].tolist() == distinct.tolist()
    assert runs.tobytes() == inverse.astype(np.int64).tobytes()


def _fill_cases():
    """(name, sources, targets, times) event columns in any order."""
    rng = np.random.default_rng(15)

    def pairs(m, nodes):
        sources = rng.integers(0, nodes, m)
        return sources, (sources + rng.integers(1, nodes, m)) % nodes

    zeros = np.repeat(rng.choice([-0.0, 0.0], 60), 10)  # runs of ten of one sign
    mixed = rng.choice([-0.0, 0.0, 1.0, 2.0], 3000)
    return [
        ("tie_heavy", *pairs(5000, 20), rng.integers(0, 200, 5000).astype(float)),
        ("signed_zero_runs", *pairs(1800, 5), np.concatenate((zeros, np.ones(600), zeros))),
        ("signed_zero_mixed", *pairs(3000, 9), mixed),
        ("all_equal", *pairs(2000, 6), np.full(2000, 3.0)),
        ("one_event", np.array([4]), np.array([1]), np.array([-0.0])),
        ("sorted_distinct", *pairs(1000, 30), np.sort(rng.random(1000))),
        ("sorted_ties", *pairs(1000, 30), np.sort(rng.integers(0, 100, 1000)).astype(float)),
        ("sorted_signed_zeros", *pairs(1200, 7), np.concatenate((zeros, np.ones(600)))),
        ("distinct", *pairs(4000, 50), rng.random(4000)),
    ]


def _assert_columns(net, expected):
    sources, targets, times, node_ids = expected
    assert net.sources.tobytes() == sources.tobytes() and net.targets.tobytes() == targets.tobytes()
    assert net.times.tobytes() == times.tobytes()
    assert np.array_equal(np.signbit(net.times), np.signbit(times))
    assert np.array_equal(net.node_ids, node_ids) and net.node_ids.dtype == node_ids.dtype


@pytest.mark.parametrize("name,sources,targets,times", _fill_cases(), ids=[c[0] for c in _fill_cases()])
@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
def test_fill_matches_the_stable_sort_bit_for_bit(name, sources, targets, times):
    net = TemporalNetwork(sources, targets, times)
    _assert_columns(net, stable_fill(sources, targets, times))
    # the same events given as positions into known node ids
    _assert_columns(TemporalNetwork(net.sources, net.targets, net.times, net.node_ids),
                    stable_fill(net.sources, net.targets, net.times, net.node_ids))
    _assert_columns(
        TemporalNetwork(net.sources[::-1], net.targets[::-1], net.times[::-1], net.node_ids),
        stable_fill(net.sources[::-1], net.targets[::-1], net.times[::-1], net.node_ids),
    )


@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
def test_any_row_order_gives_the_same_columns():
    untied = generate_random(GeneratorConfig(40, 3000, PowerLawIets(0.5), 4))
    assert untied.tie_count == 0
    ids = untied.node_ids
    _, sources, targets, times = _fill_cases()[0]  # tie-heavy
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(len(untied))
        rows = ids[untied.sources[perm]], ids[untied.targets[perm]], untied.times[perm]
        _assert_columns(TemporalNetwork(*rows), untied.__getstate__())
        _assert_columns(TemporalNetwork(*(c.tolist() for c in rows)), untied.__getstate__())
        positions = untied.sources[perm], untied.targets[perm], untied.times[perm], ids
        _assert_columns(TemporalNetwork(*positions), untied.__getstate__())
        # tied rows keep their given relative order
        perm = np.random.default_rng(seed).permutation(len(times))
        expected = stable_fill(sources[perm], targets[perm], times[perm])
        _assert_columns(TemporalNetwork(sources[perm], targets[perm], times[perm]), expected)


@pytest.mark.parametrize("name,sources,targets,times", _fill_cases(), ids=[c[0] for c in _fill_cases()])
@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
def test_time_shuffle_matches_the_stable_sort_bit_for_bit(name, sources, targets, times):
    net = TemporalNetwork(sources, targets, times)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(net))
        expected = stable_fill(net.sources, net.targets, net.times[perm], net.node_ids)
        _assert_columns(time_shuffle(net, seed), expected)


def _shuffle_cases():
    """(name, network): untied networks take the inverse-permutation path
    of ``time_shuffle``, tied ones its time sort."""
    rng = np.random.default_rng(20)

    def random_network(times, offset=0):
        sources = rng.integers(0, 12, len(times))
        targets = (sources + rng.integers(1, 12, len(times))) % 12
        return TemporalNetwork(sources + offset, targets + offset, np.asarray(times, float))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [
            ("distinct", random_network(rng.random(3000))),
            ("integer_ties", random_network(rng.integers(0, 100, 3000))),
            ("all_equal", random_network(np.full(500, 7.0))),
            ("signed_zeros", random_network(rng.choice([-0.0, 0.0], 400))),
            ("signed_zeros_and_ones", random_network(np.sort(rng.choice([-0.0, 0.0, 1.0], 600)))),
            ("no_events", from_rows([])),
            ("one_event", from_rows([(3, 4, 1.5)])),
            ("big_ids", random_network(rng.random(800), offset=np.array(2**64, dtype=object))),
            ("big_ids_tied", random_network(rng.integers(0, 50, 800), offset=np.array(2**64, dtype=object))),
        ]


@pytest.mark.parametrize("name,net", _shuffle_cases(), ids=[c[0] for c in _shuffle_cases()])
@pytest.mark.filterwarnings("ignore:.*equal-timestamp")
def test_time_shuffle_matches_the_sorting_oracle(name, net):
    for seed in range(5):
        _assert_columns(time_shuffle(net, seed), time_shuffle_sorted(net, seed).__getstate__())
