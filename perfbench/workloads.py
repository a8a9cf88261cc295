"""The four workloads: their sizes, inputs, timed passes and outputs.

A pass is one closed-loop request: it starts from the input file and ends
when the workload's last call returns. Every call into the package sits in
a span named ``<module>.<call>``; the untraced passes use a tracer that
records nothing. ``outputs`` turns a pass's results into the values the
benchmark checks, outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter

import numpy as np

import tegraph
from tegraph import cli
from tegraph.svgrender import barcode_svg

import inputs

# events, pairs and ensemble size per profile; "smoke" is the benchmark's own test
SIZES = {
    "full": {
        "stats": {"events": 200_000},
        "roundtrip": {"events": 50_000},
        "reply_pairs": {"pairs": 2000},
        "null_model": {"events": 20_000, "ensemble": 32},
    },
    "smoke": {
        "stats": {"events": 2000},
        "roundtrip": {"events": 2000},
        "reply_pairs": {"pairs": 200},
        "null_model": {"events": 2000, "ensemble": 2},
    },
}
EXPONENT = 0.2  # power_law:0.2 gaps; heavy tailed, so sweeps cross the transition
STATS_DT = 500.0
# log:50:5000:25 spans the percolation transition at 2e5 events
STATS_GRID = [float(x) for x in np.geomspace(50.0, 5000.0, 25)]
BARCODE_TOP = 20
WORKERS = 2
MEMBER_PROBES = 8
TIME_REL_TOL = 1e-12


def make_inputs(name: str, size: dict, seed: int, path: str):
    """Write the workload's input file; return its (source, target, time) arrays."""
    if name == "reply_pairs":
        arrays = inputs.reply_pairs(seed, size["pairs"])
    else:
        m = size["events"]
        arrays = inputs.uniform_pairs(seed, m, m // 20, EXPONENT)
    inputs.write_events(path, *arrays)
    return arrays


def package_generate(size: dict, seed: int):
    """The package's own generator on a uniform-pair workload's config."""
    m = size["events"]
    cfg = tegraph.GeneratorConfig(m // 20, m, tegraph.PowerLawIets(EXPONENT), seed)
    return tegraph.generate_random(cfg)


def events_handled(name: str, size: dict) -> int:
    if name == "reply_pairs":
        return 3 * size["pairs"]
    if name == "null_model":
        return (size["ensemble"] + 1) * size["events"]
    return size["events"]


def run_pass(job: dict, tr) -> dict:
    return _PASSES[job["workload"]](job, tr)


def _stats(job, tr):
    with tr.span("events.load_events"):
        net = tegraph.load_events(job["input"])
    with tr.span("teg.build_teg"):
        teg = tegraph.build_teg(net, STATS_DT)
    with tr.span("components.wcc"):
        cs = tegraph.weakly_connected_components(teg)
    with tr.span("components.sweep"):
        sweep = tegraph.sweep_largest_component(net, STATS_GRID)
    with tr.span("components.motif_distribution"):
        dist = tegraph.motif_distribution(teg)
        entropy = tegraph.shannon_entropy(dist)
    with tr.span("components.iet_ccdf"):
        cre = tegraph.cumulative_residual_entropy(tegraph.iet_ccdf(teg))
    with tr.span("components.barcode_rows"):
        rows = tegraph.barcode_rows(teg, top=BARCODE_TOP)
    with tr.span("svgrender.barcode_svg"):
        svg = barcode_svg(rows)
    with tr.span("components.aggregate"):
        agg = tegraph.aggregate_network(net)
        aggregate = (agg.node_count, agg.edge_count, agg.density, agg.reciprocity, agg.weak_component_count)
    tr.count("events.tie_count", net.tie_count)
    tr.count("teg.edge_count", teg.edge_count)
    tr.count("components.component_count", len(cs))
    return {
        "tie_count": net.tie_count,
        "edge_count": teg.edge_count,
        "motif_masses": list(dist.masses),
        "component_count": len(cs),
        "largest_size": cs[0].size,
        "sweep": [frac for _, frac in sweep],
        "motif_entropy": entropy,
        "cre": cre,
        "rows": rows,
        "svg": svg,
        "aggregate": aggregate,
    }


def _roundtrip(job, tr):
    with tr.span("events.load_events"):
        net = tegraph.load_events(job["input"])
    with tr.span("teg.build_teg"):
        teg = tegraph.build_teg(net, math.inf)
    with tr.span("duality.strip_events"):
        g = tegraph.strip_events(teg, keep_anchors=True)
    with tr.span("duality.save_edge_labelled"):
        with open(job["graph"], "w", encoding="utf-8", newline="\n") as fh:
            tegraph.save_edge_labelled(g, fh)
    with tr.span("duality.load_edge_labelled"):
        with open(job["graph"], "r", encoding="utf-8") as fh:
            g = tegraph.load_edge_labelled(fh)
    with tr.span("duality.check_consistency"):
        report = tegraph.check_consistency(g)
    with tr.span("duality.reconstruct"):
        rebuilt = tegraph.reconstruct(g)
    with tr.span("events.save_events"):
        tegraph.save_events(rebuilt, job["rebuilt"])
    tr.count("events.tie_count", net.tie_count)
    tr.count("teg.edge_count", teg.edge_count)
    tr.count("duality.json_bytes", os.path.getsize(job["graph"]))
    tr.count("duality.violation_count", len(report.violations))
    return {"graph": g, "violations": len(report.violations)}


def _reply_pairs(job, tr):
    with tr.span("events.load_events"):
        net = tegraph.load_events(job["input"])
    with tr.span("teg.build_teg"):
        teg = tegraph.build_teg(net, math.inf)
    with tr.span("duality.strip_events"):
        g = tegraph.strip_events(teg, keep_anchors=True)
    with tr.span("duality.check_consistency"):
        report = tegraph.check_consistency(g)
    with tr.span("duality.reconstruct"):
        rebuilt = tegraph.reconstruct(g)
    tr.count("events.tie_count", net.tie_count)
    tr.count("teg.edge_count", teg.edge_count)
    tr.count("duality.violation_count", len(report.violations))
    return {
        "graph": g,
        "violations": len(report.violations),
        "rebuilt": [(e.source, e.target, e.time) for e in rebuilt],
    }


def _null_model(job, tr):
    argv = [
        "motifs", "--input", job["input"], "--dt", "inf",
        "--ensemble", str(job["size"]["ensemble"]), "--workers", str(WORKERS),
        "--seed", str(job["seed"]), "--output", job["csv"],
    ]
    with tr.span("cli.motifs"):
        code = cli.main(argv)
    return {"exit_code": code}


def member_probe(job, tr) -> None:
    """Serial ensemble members, as the CLI's pool job runs them (traced runs only)."""
    with tr.span("events.load_events"):
        net = tegraph.load_events(job["input"])
    for seed in range(job["seed"], job["seed"] + MEMBER_PROBES):
        with tr.span("probe.member"):
            with tr.span("generators.time_shuffle"):
                shuffled = tegraph.time_shuffle(net, seed)
            with tr.span("teg.build_teg"):
                teg = tegraph.build_teg(shuffled, math.inf)
            with tr.span("components.motif_counts"):
                tegraph.motif_counts(teg)
    tr.count("events.tie_count", net.tie_count)
    tr.count("teg.edge_count", teg.edge_count)


_PASSES = {
    "stats": _stats,
    "roundtrip": _roundtrip,
    "reply_pairs": _reply_pairs,
    "null_model": _null_model,
}


def outputs(job: dict, raw: dict, original_times) -> tuple[dict, dict]:
    """Checked outputs of a pass, and the defect counts that are only reported."""
    name = job["workload"]
    if name == "stats":
        rows = raw.pop("rows")
        svg = raw.pop("svg")
        n, e, density, reciprocity, comps = raw.pop("aggregate")
        out = dict(raw)
        out.update(
            barcode_sizes=[len(r) for r in rows],
            barcode_digest=inputs.digest([t for r in rows for t in r]),
            svg_lines=svg.count("<line"),
            svg_sha256=hashlib.sha256(svg.encode()).hexdigest(),
            agg_node_count=n,
            agg_edge_count=e,
            agg_density=density,
            agg_reciprocity=reciprocity,
            agg_components=comps,
        )
        return out, {}
    if name == "null_model":
        with open(job["csv"], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        return {"exit_code": raw["exit_code"], "csv_sha256": sha}, {}

    g = raw["graph"]
    labels = Counter(m.value for m in g.mu.values())
    if name == "roundtrip":
        source, target, rebuilt = np.loadtxt(job["rebuilt"], ndmin=2).T
    else:
        source, target, rebuilt = np.array(raw["rebuilt"]).T
    a, b = np.sort(original_times), np.sort(rebuilt)
    same_length = len(a) == len(b)
    # relative to the time scale, as the package's own rel_tol is
    scale = max(1.0, float(np.abs(a).max()))
    within = same_length and float(np.abs(a - b).max()) <= TIME_REL_TOL * scale
    out = {
        "edge_count": g.edge_count,
        "motif_counts": [labels.get(m.value, 0) for m in tegraph.MOTIFS],
        "violation_count": raw["violations"],
        "rebuilt_events": len(b),
        "rebuilt_within_tol": within,
        "rebuilt_node_profile": inputs.node_profile(source, target),
    }
    defects = {}
    if same_length:
        defects = {
            "duality.time_mismatch_events": int(np.count_nonzero(a != b)),
            "duality.false_ties": int(np.count_nonzero(np.diff(b) == 0))
            - int(np.count_nonzero(np.diff(a) == 0)),
        }
    return out, defects
