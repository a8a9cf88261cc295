"""End-to-end runs of the ``teg`` command line, in process."""

import builtins
import hashlib
import json
import math
import threading
import warnings

import numpy as np
import pytest

from _oracles import per_rank_loop
from tegraph import (
    MOTIFS,
    Motif,
    barcode_rows,
    build_teg,
    canonicalize,
    iet_ccdf,
    load_events,
    motif_counts,
    save_edge_labelled,
    weakly_connected_components,
)
from tegraph import _text, cli
from tegraph.cli import main, parse_duration, parse_grid
from tegraph.duality import EdgeLabelledTeg
from tegraph.svgrender import barcode_svg, ccdf_svg

BAD_TRIANGLE = EdgeLabelledTeg(
    3,
    [0, 1, 0],
    [1, 2, 2],
    [1.0, 1.0, 2.0],
    [MOTIFS.index(m) for m in (Motif.ABBC, Motif.ABCA, Motif.ABBA)],
)


def run(*args):
    return main([str(a) for a in args])


def _generate(tmp_path, name="events.txt", **overrides):
    path = tmp_path / name
    opts = {"nodes": 6, "events": 40, "iets": "deterministic:1", "seed": 4}
    opts.update(overrides)
    rc = run(
        "generate",
        "--nodes", opts["nodes"],
        "--events", opts["events"],
        "--iets", opts["iets"],
        "--seed", opts["seed"],
        "--output", path,
    )
    assert rc == 0
    return path


def _write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        save_edge_labelled(g, fh)
    return path


def test_generate_build_validate_reconstruct(tmp_path, capsys):
    events = _generate(tmp_path)
    graph = tmp_path / "graph.json"
    assert run("build", "--input", events, "--dt", "inf", "--output", graph) == 0

    assert run("validate", "--input", graph) == 0
    assert "consistent" in capsys.readouterr().out

    back = tmp_path / "back.txt"
    assert run("reconstruct", "--input", graph, "--output", back) == 0
    original = load_events(str(events))
    rebuilt = load_events(str(back))
    # anchors carried the absolute times through the round trip
    assert [e.time for e in rebuilt] == [e.time for e in original]
    assert canonicalize(rebuilt) == canonicalize(original)


def test_build_edge_list_format(tmp_path):
    events = _generate(tmp_path)
    dump = tmp_path / "edges.json"
    assert run(
        "build", "--input", events, "--dt", "2.5", "--format", "edges",
        "--output", dump,
    ) == 0
    loaded = json.loads(dump.read_text())
    direct = build_teg(load_events(str(events)), 2.5)
    assert loaded["delta_t"] == 2.5
    columns = (direct.heads, direct.tails, direct.iets, direct.codes)
    assert loaded["edges"] == [
        [i, j, iet, MOTIFS[code].value] for i, j, iet, code in zip(*(c.tolist() for c in columns))
    ]


def test_validate_reports_violations_with_exit_3(tmp_path, capsys):
    graph = _write_graph(tmp_path, BAD_TRIANGLE)
    assert run("validate", "--input", graph) == 3
    assert "C4" in capsys.readouterr().out


def test_reconstruct_rejects_inconsistent_graph(tmp_path, capsys):
    graph = _write_graph(tmp_path, BAD_TRIANGLE)
    out = tmp_path / "back.txt"
    assert run("reconstruct", "--input", graph, "--output", out) == 3
    assert not out.exists()


def test_malformed_graph_json_exits_2(tmp_path, capsys):
    out = tmp_path / "back.txt"
    graph = tmp_path / "graph.json"
    fractional = {"vertex_count": 3, "edges": [{"i": 0, "j": 1.9, "tau": 1.0, "motif": "ABAB"}]}
    listed = {"vertex_count": 2, "edges": [], "anchors": [1, 2]}
    for doc in (fractional, listed):
        graph.write_text(json.dumps(doc))
        assert run("reconstruct", "--input", graph, "--output", out) == 2
        assert run("validate", "--input", graph) == 2
        assert "malformed edge-labelled graph JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", (100000000000000000000, 4000000000))
def test_vertex_count_past_int64_keys_exits_2(tmp_path, capsys, count):
    # edge keys i * n + j are int64: n * n must stay below 2**63
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertex_count": count, "edges": []}))
    out = tmp_path / "back.txt"
    assert run("validate", "--input", graph) == 2
    assert "vertex_count must be an integer of at most 3037000499" in capsys.readouterr().err
    assert run("reconstruct", "--input", graph, "--output", out) == 2
    assert "vertex_count must be an integer of at most 3037000499" in capsys.readouterr().err
    assert not out.exists()


def test_nan_or_negative_rel_tol_exits_2(tmp_path, capsys):
    events = _generate(tmp_path)
    graph = tmp_path / "graph.json"
    assert run("build", "--input", events, "--dt", "inf", "--output", graph) == 0
    doc = json.loads(graph.read_text())
    doc["edges"][0]["tau"] *= 3
    graph.write_text(json.dumps(doc))
    assert run("validate", "--input", graph) == 3
    capsys.readouterr()
    out = tmp_path / "back.txt"
    for rel_tol in ("nan", "-1"):
        assert run("validate", "--input", graph, "--rel-tol", rel_tol) == 2
        assert "rel_tol" in capsys.readouterr().err
        assert run(
            "reconstruct", "--input", graph, "--rel-tol", rel_tol, "--output", out
        ) == 2
    assert not out.exists()


def test_reconstruct_end_to_end_layout(tmp_path):
    raw = tmp_path / "two.txt"
    raw.write_text("0 1 0\n2 3 5\n")
    graph = tmp_path / "two.json"
    assert run(
        "build", "--input", raw, "--dt", "inf", "--no-anchors",
        "--output", graph,
    ) == 0
    out = tmp_path / "laid.txt"
    assert run(
        "reconstruct", "--input", graph, "--layout", "end-to-end",
        "--spacing", "2", "--output", out,
    ) == 0
    assert out.read_text() == "0 1 0\n2 3 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--input", "x", "--dt", "xyz", "--output", "y"),
        ("build", "--input", "x", "--dt", "-5", "--output", "y"),
        ("sweep", "--input", "x", "--dt-grid", "3,2,1", "--output", "y"),
        ("sweep", "--input", "x", "--dt-grid", "log:5:1:4", "--output", "y"),
        ("frobnicate",),
        ("generate", "--nodes", "5", "--output", "y"),
        ("build", "--input", "x", "--dt", "1", "--output", "y", "--bogus"),
        ("reconstruct", "--input", "x", "--check", "--output", "y"),
        ("components", "--input", "x", "--dt", "1", "--top", "-1", "--output", "y"),
        ("components", "--input", "x", "--dt", "1", "--top", "0", "--output", "y"),
        ("barcode", "--input", "x", "--dt", "1", "--top", "0", "--output", "y"),
        ("barcode", "--input", "x", "--dt", "1", "--top", "2.5", "--output", "y"),
        ("motifs", "--input", "x", "--dt", "1", "--ensemble", "-2", "--output", "y"),
        ("reconstruct", "--input", "x", "--no-validate", "--output", "y"),
        ("motifs", "--input", "x", "--dt", "1", "--workers", "0", "--output", "y"),
        ("motifs", "--input", "x", "--dt", "1", "--workers", "-3", "--output", "y"),
        ("aggregate", "--input", "x", "--dt", "1", "--component", "-1", "--output", "y"),
    ],
)
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 1


def test_aggregate_flag_pairing_is_usage_error(tmp_path, capsys):
    events = _generate(tmp_path)
    out = tmp_path / "agg.json"
    assert run("aggregate", "--input", events, "--dt", "1", "--output", out) == 1
    assert "together" in capsys.readouterr().err
    assert run("aggregate", "--input", events, "--component", "0", "--output", out) == 1
    assert "together" in capsys.readouterr().err
    # the pairing is checked before the input is read
    assert run("aggregate", "--input", tmp_path / "missing.txt", "--dt", "5", "--output", out) == 1
    assert "together" in capsys.readouterr().err
    assert not out.exists()


def test_missing_and_malformed_inputs_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(
        "build", "--input", tmp_path / "nope.txt", "--dt", "1", "--output", out
    ) == 2
    bad_events = tmp_path / "bad.txt"
    bad_events.write_text("0 1 zero\n")
    assert run("build", "--input", bad_events, "--dt", "1", "--output", out) == 2
    assert "line 1" in capsys.readouterr().err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run("validate", "--input", bad_json) == 2


def test_self_loop_handling(tmp_path):
    raw = tmp_path / "loops.txt"
    raw.write_text("1 1 2\n0 1 3\n")
    out = tmp_path / "g.json"
    assert run("build", "--input", raw, "--dt", "1", "--output", out) == 2
    assert run(
        "build", "--input", raw, "--dt", "1", "--skip-self-loops",
        "--output", out,
    ) == 0


def test_tie_policy_flag(tmp_path):
    raw = tmp_path / "ties.txt"
    raw.write_text("0 1 5\n2 3 5\n")
    out = tmp_path / "g.json"
    assert run(
        "build", "--input", raw, "--dt", "1", "--tie-policy", "reject",
        "--output", out,
    ) == 2
    with pytest.warns(UserWarning, match="stable order"):
        assert run("build", "--input", raw, "--dt", "1", "--output", out) == 0


def test_delimiter_and_field_order(tmp_path):
    raw = tmp_path / "cols.csv"
    raw.write_text("5;1;2\n6;2;3\n")
    out = tmp_path / "g.json"
    assert run(
        "build", "--input", raw, "--delimiter", ";",
        "--fields", "time,source,target", "--dt", "inf", "--output", out,
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["vertex_count"] == 2


def test_entropy_requires_edges(tmp_path, capsys):
    raw = tmp_path / "one.txt"
    raw.write_text("0 1 0\n")
    out = tmp_path / "e.csv"
    assert run("entropy", "--input", raw, "--dt", "1", "--output", out) == 2
    assert "no edges" in capsys.readouterr().err


def test_ensemble_member_without_edges_exits_2(tmp_path, capsys):
    # the network has an edge at the window; its shuffle of seed 2 has none
    raw = tmp_path / "three.txt"
    raw.write_text("0 1 0\n1 2 1\n3 4 10\n")
    out = tmp_path / "m.csv"
    assert run("motifs", "--input", raw, "--dt", "1.5", "--ensemble", "2", "--seed", "1", "--output", out) == 2
    assert "shuffle seed 2: event graph has no edges at this window" in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    events = _generate(tmp_path, nodes=8, events=120, iets="exponential:1", seed=2)
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--input", events, "--dt-grid", "log:0.25:16:7", "--output", out
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_t,largest_fraction"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == 7
    fractions = [f for _, f in rows]
    assert fractions == sorted(fractions)
    # comma grids and lin grids name the same windows explicitly
    assert parse_grid("lin:1:3:3") == [1.0, 2.0, 3.0]
    assert parse_grid("0.5,1h,2h") == [0.5, 3600.0, 7200.0]


@pytest.mark.parametrize(
    "grid,message",
    [
        ("log:1:2", "expected log:A:B:N or lin:A:B:N"),
        ("lin:1:2:3:4", "expected log:A:B:N or lin:A:B:N"),
        ("log:1:inf:5", "endpoints must be finite"),
        ("log:1:2:0", "grid needs at least one point"),
        ("log:1:10:1.5", "grid point count must be an integer, got '1.5'"),
    ],
)
def test_malformed_grid_names_the_problem(grid, message, capsys):
    with pytest.raises(SystemExit) as info:
        run("sweep", "--input", "x", "--dt-grid", grid, "--output", "y")
    assert info.value.code == 1
    assert message in capsys.readouterr().err


def test_duration_suffixes():
    assert parse_duration("90s") == 90.0
    assert parse_duration("1.5m") == 90.0
    assert parse_duration("1h") == 3600.0
    assert parse_duration("1d") == 86400.0
    assert parse_duration("inf") == math.inf
    with pytest.raises(ValueError):
        parse_duration("5y")


def test_motifs_csv_scopes(tmp_path):
    events = _generate(tmp_path, nodes=8, events=120, iets="exponential:1", seed=2)
    out = tmp_path / "motifs.csv"
    assert run(
        "motifs", "--input", events, "--dt", "inf", "--per-component",
        "--ensemble", "4", "--seed", "7", "--output", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scope,edges,ABAB,ABBA,ABAC,ABCA,ABBC,ABCB"
    assert lines[1].startswith("all,")
    masses = [float(x) for x in lines[1].split(",")[2:]]
    assert sum(masses) == pytest.approx(1.0)
    assert any(line.startswith("component:0,") for line in lines)
    assert any(line.startswith("shuffle_mean:4,") for line in lines)


def test_motif_workers_agree(tmp_path):
    events = _generate(tmp_path, nodes=8, events=80, iets="exponential:1", seed=3)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["motifs", "--input", events, "--dt", "inf", "--ensemble", "6",
            "--seed", "1"]
    assert run(*base, "--workers", "1", "--output", serial) == 0
    assert run(*base, "--workers", "2", "--output", parallel) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_ensemble_members_run_concurrently(tmp_path, monkeypatch):
    # the first two members wait for each other: two threads pass together,
    # while one thread running every member in turn breaks the barrier
    events = _generate(tmp_path, nodes=8, events=80, iets="exponential:1", seed=3)
    member = cli._shuffle_frequencies

    def waiting_member(net, dt, seed):
        if seed < 2:
            barrier.wait()
        return member(net, dt, seed)

    monkeypatch.setattr(cli, "_shuffle_frequencies", waiting_member)
    argv = ("motifs", "--input", events, "--dt", "inf", "--ensemble", "4", "--output", tmp_path / "m.csv")
    barrier = threading.Barrier(2, timeout=10)
    assert run(*argv, "--workers", "2") == 0
    barrier = threading.Barrier(2, timeout=0.5)  # fails fast: nobody else comes
    with pytest.raises(threading.BrokenBarrierError):
        run(*argv, "--workers", "1")


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("ensemble, workers", [(7, 3), (2, 4)])
def test_ensemble_bytes_do_not_depend_on_the_thread_count(tmp_path, tied, ensemble, workers):
    # every thread runs its members in a scratch of its own, and more threads
    # than members leave some without any
    if tied:
        events = tmp_path / "ties.txt"
        _big_id_event_file(events)
    else:
        events = _generate(tmp_path, nodes=8, events=300, iets="exponential:1", seed=5)
    base = ["motifs", "--input", events, "--dt", "inf", "--ensemble", ensemble, "--seed", 3]
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tie warning
        assert run(*base, "--workers", 1, "--output", serial) == 0
        assert run(*base, "--workers", workers, "--output", threaded) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_ensemble_warns_only_of_the_parsed_ties(tmp_path, recwarn):
    # every shuffled member of a tied file has ties too; only the parse warns
    warnings.simplefilter("always")  # pytest's own "default" filter shows a repeat once
    events = tmp_path / "events.txt"
    _big_id_event_file(events)
    argv = ("motifs", "--input", events, "--dt", "inf", "--output", tmp_path / "m.csv")
    assert run(*argv) == 0
    parsed = [str(w.message) for w in recwarn]
    recwarn.clear()
    filters = list(warnings.filters)
    assert run(*argv, "--ensemble", "4", "--workers", "2") == 0
    messages = [str(w.message) for w in recwarn]
    assert messages == parsed
    assert sum("equal-timestamp adjacencies" in m for m in messages) == 1
    assert warnings.filters == filters


def test_iets_csv_and_svg(tmp_path):
    events = _generate(tmp_path, nodes=6, events=60, iets="exponential:1", seed=8)
    out = tmp_path / "iets.csv"
    svg = tmp_path / "iets.svg"
    assert run(
        "iets", "--input", events, "--dt", "inf", "--svg", svg, "--output", out
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scope,iet,tail"
    assert any(line.startswith("all,") for line in lines[1:])
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    only = tmp_path / "abab.csv"
    assert run(
        "iets", "--input", events, "--dt", "inf", "--motif", "ABAB",
        "--output", only,
    ) == 0
    scopes = {line.split(",")[0] for line in only.read_text().splitlines()[1:]}
    assert scopes == {"ABAB"}


def test_barcode_svg_and_csv(tmp_path):
    events = _generate(tmp_path, nodes=10, events=50, iets="exponential:1", seed=5)
    svg = tmp_path / "bars.svg"
    csv = tmp_path / "bars.csv"
    assert run(
        "barcode", "--input", events, "--dt", "0.5", "--top", "3",
        "--csv", csv, "--output", svg,
    ) == 0
    assert svg.read_text().startswith("<svg")
    lines = csv.read_text().splitlines()
    assert lines[0] == "component,time"
    ranks = [int(line.split(",")[0]) for line in lines[1:]]
    assert set(ranks) <= {0, 1, 2}
    sizes = [ranks.count(r) for r in sorted(set(ranks))]
    assert sizes == sorted(sizes, reverse=True)


def test_components_json(tmp_path):
    events = _generate(tmp_path, nodes=10, events=60, iets="exponential:1", seed=6)
    out = tmp_path / "comp.json"
    assert run(
        "components", "--input", events, "--dt", "1", "--top", "2",
        "--output", out,
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["event_count"] == 60
    assert doc["delta_t"] == 1
    assert len(doc["components"]) <= 2
    assert doc["components"][0]["rank"] == 0
    assert 0 < doc["largest_fraction"] <= 1
    sizes = [c["size"] for c in doc["components"]]
    assert sizes == sorted(sizes, reverse=True)


def test_aggregate_json(tmp_path):
    raw = tmp_path / "pair.txt"
    raw.write_text("0 1 0\n1 0 1\n")
    out = tmp_path / "agg.json"
    assert run("aggregate", "--input", raw, "--output", out) == 0
    doc = json.loads(out.read_text())
    assert doc["scope"] == "network"
    assert doc["node_count"] == 2
    assert doc["edge_count"] == 2
    assert doc["reciprocity"] == 1.0
    assert doc["weak_component_count"] == 1

    scoped = tmp_path / "agg0.json"
    assert run(
        "aggregate", "--input", raw, "--dt", "inf", "--component", "0",
        "--output", scoped,
    ) == 0
    assert json.loads(scoped.read_text())["scope"] == "component:0"


@pytest.mark.parametrize("rank", ["1", "5"])
def test_aggregate_component_out_of_range_exits_2(tmp_path, capsys, rank):
    raw = tmp_path / "pair.txt"
    raw.write_text("0 1 0\n1 0 1\n")  # one component at dt = inf
    out = tmp_path / "agg.json"
    assert run(
        "aggregate", "--input", raw, "--dt", "inf", "--component", rank,
        "--output", out,
    ) == 2
    assert f"component {rank} out of range: the graph has 1 components" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_sidecars(tmp_path):
    events = _generate(tmp_path)
    manifest = json.loads((tmp_path / "events.txt.manifest.json").read_text())
    assert manifest["tool"] == "teg"
    assert manifest["subcommand"] == "generate"
    assert str(tmp_path / "events.txt") in manifest["outputs"]
    assert "--seed" in manifest["argv"]
    assert set(manifest) == {"tool", "version", "subcommand", "argv", "outputs"}

    svg = tmp_path / "b.svg"
    csv = tmp_path / "b.csv"
    assert run(
        "barcode", "--input", events, "--dt", "1", "--csv", csv, "--output", svg
    ) == 0
    for path in (svg, csv):
        sidecar = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        assert sorted(sidecar["outputs"]) == sorted([str(svg), str(csv)])


def test_seeded_runs_are_byte_identical(tmp_path):
    first = _generate(tmp_path, name="a.txt", iets="exponential:1", seed=31)
    snapshot = first.read_bytes()
    again = _generate(tmp_path, name="a.txt", iets="exponential:1", seed=31)
    assert again.read_bytes() == snapshot

    shuffled = tmp_path / "s.txt"
    args = ("shuffle", "--input", first, "--seed", "9", "--output", shuffled)
    assert run(*args) == 0
    snap = shuffled.read_bytes()
    assert run(*args) == 0
    assert shuffled.read_bytes() == snap


@pytest.mark.parametrize(
    "lines, dt, component_count, entropy_rows",
    [
        # one motif class: entropy -0; all taus equal: CRE 0, not -0
        ("0 1 0\n0 1 1\n0 1 2\n2 3 5\n", "inf", 2, ["component:0,2,-0,0"]),
        # at this window only the largest of three components holds edges
        ("0 1 0\n2 3 0.5\n1 0 1\n0 1 2.5\n4 5 10\n", "2", 3, ["component:0,2,-0,0.25"]),
        # one component of every event, its taus repeated
        ("0 1 0\n1 2 1\n2 0 3\n0 1 4\n", "inf", 1, None),
    ],
    ids=["equal_taus", "some_components_with_edges", "one_component"],
)
def test_per_component_rows_equal_a_loop_over_the_ranks(tmp_path, lines, dt, component_count, entropy_rows):
    events = tmp_path / "events.txt"
    events.write_text(lines)
    out = {name: tmp_path / name for name in ("entropy.csv", "motifs.csv", "components.json")}
    assert run("entropy", "--input", events, "--dt", dt, "--per-component", "--output", out["entropy.csv"]) == 0
    assert run("motifs", "--input", events, "--dt", dt, "--per-component", "--output", out["motifs.csv"]) == 0
    assert run("components", "--input", events, "--dt", dt, "--output", out["components.json"]) == 0
    teg = build_teg(load_events(events), parse_duration(dt))
    rows, node_counts = per_rank_loop(teg, weakly_connected_components(teg).assignment)
    entropy = out["entropy.csv"].read_text().splitlines()[2:]
    assert entropy == ["component:%d,%d,%.17g,%.17g" % (r[0], r[1], r[8], r[9]) for r in rows]
    assert entropy_rows is None or entropy == entropy_rows
    motifs = out["motifs.csv"].read_text().splitlines()[2:]
    assert motifs == [("component:%d,%d" + ",%.17g" * 6) % r[:8] for r in rows]
    doc = json.loads(out["components.json"].read_text())
    assert [c["node_count"] for c in doc["components"]] == node_counts
    assert doc["component_count"] == component_count


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert "teg" in capsys.readouterr().out


def _big_id_event_file(path, seed=11, m=500, nodes=30):
    """Integer times on few nodes, so many ties; a third of the node ids
    are small and the rest pass 2^64. A comment, a blank line and an extra
    column ride along."""
    rng = np.random.default_rng(seed)
    ids = [k if k % 3 == 0 else 2**64 + 7 * k for k in range(nodes)]
    src = rng.integers(0, nodes, m)
    dst = (src + rng.integers(1, nodes, m)) % nodes
    times = np.sort(rng.integers(0, m // 3, m))
    rows = zip(src.tolist(), dst.tolist(), times.tolist())
    lines = "".join(f"{ids[s]} {ids[d]} {t} note\n" for s, d, t in rows)
    path.write_text("# source target time note\n\n" + lines)


# sha256 of each output, recorded before the network became columns;
# integer and quarter-step times keep the bytes the same on every platform
_EVENT_TABLE_DIGESTS = {
    "generate": "745378014b825ce1870cb6fc93a7e00e2323d202965c09d339cf751b2a49ad49",
    "generated_build": "94d05ac2f604484380b11d7afef0be30cf24e0ccc9894d1989dccdebd657ea00",
    "shuffle": "852643aeb53019e1d68f8b67cdf0a86fc3519141ac4ffa662ecefd3c6a2385e0",
    "build": "c8b8ef3273bcdfd613a5ef9b9f71468477d085715693fab39885387300ed9dcf",
    "edges": "2335999bb3c420b3bac62fd2e65a7293831f83f21f452c36449b1fe335ff48c4",
    "reconstruct": "017be495952df83aa0f2cc32690b527e675ec36a3c30ac99d0af830daaca523a",
    "aggregate": "8890d0a8c6372103aee414c3bfd0c02bd10e0761bde206f0fc9c8dad41993fb8",
    # recorded while the time order was still a stable argsort
    "motifs_ensemble": "7dbb787f0133f8fdc7e0744f17315aa2d98fa84eb0eb5628cb2aaf10d3157aa1",
}


def test_event_table_outputs_match_recorded_digests(tmp_path):
    events = tmp_path / "events.txt"
    _big_id_event_file(events)
    generated = tmp_path / "generate.out"
    runs = {
        "generate": ("generate", "--nodes", "9", "--events", "400",
                     "--iets", "deterministic:0.25", "--seed", "5"),
        # a tie-heavy graph need not validate, so reconstruct a tie-free one
        "generated_build": ("build", "--input", generated, "--dt", "1"),
        "reconstruct": ("reconstruct", "--input", tmp_path / "generated_build.out"),
        "shuffle": ("shuffle", "--input", events, "--seed", "3"),
        "build": ("build", "--input", events, "--dt", "3"),
        "edges": ("build", "--input", events, "--dt", "3", "--format", "edges"),
        "aggregate": ("aggregate", "--input", events),
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(*argv, "--output", out) == 0, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _EVENT_TABLE_DIGESTS[name], name


@pytest.mark.parametrize("workers", ["1", "2"])
def test_motif_ensemble_matches_recorded_digest(tmp_path, workers):
    # the tie-heavy file makes every shuffled member repair its time order
    events = tmp_path / "events.txt"
    _big_id_event_file(events)
    out = tmp_path / "motifs.csv"
    argv = ("motifs", "--input", events, "--dt", "3", "--ensemble", "8", "--seed", "5", "--workers", workers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(*argv, "--output", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _EVENT_TABLE_DIGESTS["motifs_ensemble"]


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, as ``sum()`` adds floats from Python 3.12 on."""
    total, carry = start, 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry if carry else total


@pytest.mark.parametrize(
    "name,argv",
    [
        ("motifs_ensemble", ("motifs", "--dt", "3", "--ensemble", "8", "--seed", "5", "--workers", "1")),
        ("entropy_components", ("entropy", "--dt", "3", "--per-component")),
    ],
)
def test_float_sums_keep_their_bytes_under_a_compensated_sum(tmp_path, monkeypatch, name, argv):
    # floats are added in order, so a compensating builtin sum() changes no byte
    events = tmp_path / "events.txt"
    _big_id_event_file(events)
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the patch compensates
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(*argv, "--input", events, "--output", out) == 0
    digests = {**_EVENT_TABLE_DIGESTS, **_STATS_DIGESTS}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name]


def _eighth_step_event_file(path, seed=3, m=300, nodes=12):
    """Times on a 1/8 grid from 0 to 820: barcode ticks sit at 40 + t, so
    many land exactly on half cents."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, 820 * 8 + 1, m)) / 8
    times[0], times[-1] = 0.0, 820.0
    src = rng.integers(0, nodes, m)
    dst = (src + rng.integers(1, nodes, m)) % nodes
    rows = zip(src.tolist(), dst.tolist(), times.tolist())
    path.write_text("".join(f"{s} {d} {t!r}\n" for s, d, t in rows))


# sha256 of the statistics outputs, recorded while barcode ticks, CCDF
# points and the CRE were still formatted and summed one value at a time
_STATS_DIGESTS = {
    "barcode": "8d22b19806917cf6a7fca17b404196f00b4a21b289033191f043a3fbb90b2b1f",
    "barcode_csv": "6c41837f314f8e089565a93738d1e9fdb059380d51bbce46eb064f1188fd0b83",
    "barcode_eighths": "eaae279daee394282ba6aa0cc9e892863f8f849b802e5583c538e640319a1f96",
    "iets": "b0f939bd61b4f0aff5260f1f691d3f4ce1a74b90377248e97a700fdd5ba0463a",
    "iets_svg": "7df178a31357d3b62d56a320aa33cc4f517e8f8eae976a3feec9c52c0ebe3cc9",
    "iets_eighths_svg": "21abdcc1720a4c19ec80e6b06c6233cf93d4cca06bde99da31ceb8a77995d9d1",
    "entropy": "95dc1f173ba7a766a03969e50ea27afddcd1f15b9c952f759f5b99c3b2384b0d",
    "entropy_components": "5dab0d8486abd4126c58a5054b915fd74ca1d2e13df6017672fc4537d062f98c",
}


def test_statistics_outputs_match_recorded_digests(tmp_path):
    events, eighths = tmp_path / "events.txt", tmp_path / "eighths.txt"
    _big_id_event_file(events)
    _eighth_step_event_file(eighths)
    out = {name: tmp_path / f"{name}.out" for name in _STATS_DIGESTS}
    runs = [
        ("barcode", "--input", events, "--dt", "3", "--top", "12", "--csv", out["barcode_csv"]),
        ("barcode_eighths", "--input", eighths, "--dt", "2"),
        ("iets", "--input", events, "--dt", "3", "--svg", out["iets_svg"]),
        ("iets_eighths", "--input", eighths, "--dt", "2", "--svg", out["iets_eighths_svg"]),
        ("entropy", "--input", events, "--dt", "3"),
        ("entropy_components", "--input", events, "--dt", "3", "--per-component"),
    ]
    for name, *argv in runs:
        command = name.split("_")[0]
        target = out.get(name, tmp_path / f"{name}.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(command, *argv, "--output", target) == 0, name
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == _STATS_DIGESTS


@pytest.mark.parametrize("rows", [1, 7, _text.ROWS])
def test_plots_keep_their_bytes_across_chunk_joints(tmp_path, monkeypatch, rows):
    # a joint every 1 or 7 ticks and points, or none below 4,096 per row
    monkeypatch.setattr(_text, "ROWS", rows)
    events, eighths = tmp_path / "events.txt", tmp_path / "eighths.txt"
    _big_id_event_file(events)
    _eighth_step_event_file(eighths)
    for path, dt, name in ((events, 3, "barcode"), (eighths, 2, "barcode_eighths")):
        svg, csv = tmp_path / f"{name}.svg", tmp_path / f"{name}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("barcode", "--input", path, "--dt", dt, "--top", "12", "--csv", csv, "--output", svg) == 0
            teg = build_teg(load_events(path), dt)
        assert svg.read_text() == barcode_svg(barcode_rows(teg, top=12))
        if name == "barcode":
            assert hashlib.sha256(svg.read_bytes()).hexdigest() == _STATS_DIGESTS["barcode"]
            assert hashlib.sha256(csv.read_bytes()).hexdigest() == _STATS_DIGESTS["barcode_csv"]
    for path, dt, name in ((events, 3, "iets_svg"), (eighths, 2, "iets_eighths_svg")):
        svg = tmp_path / f"{name}.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("iets", "--input", path, "--dt", dt, "--svg", svg, "--output", tmp_path / "iets.csv") == 0
            teg = build_teg(load_events(path), dt)
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == _STATS_DIGESTS[name]
        curves = [("all", iet_ccdf(teg))] + [(m.value, iet_ccdf(teg, m)) for m, n in motif_counts(teg).items() if n]
        log_x = all(c.support[0] > 0 for _, c in curves)
        assert svg.read_text() == ccdf_svg(curves, log_x=log_x)
    # a plot that cannot be drawn is refused before its file is opened
    comment, svg = tmp_path / "comment.txt", tmp_path / "empty.svg"
    comment.write_text("# source target time\n")
    assert run("barcode", "--input", comment, "--dt", "1", "--output", svg) == 2
    assert not svg.exists() and not (tmp_path / "empty.svg.manifest.json").exists()
