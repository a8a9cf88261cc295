"""Command line front end.

Twelve subcommands cover the pipeline: generate/shuffle produce event
files, build/validate/reconstruct move between events and edge-labelled
event graphs, and components/sweep/motifs/iets/entropy/barcode/aggregate
compute statistics. Every produced file gets a ``<path>.manifest.json``
sidecar recording tool version and arguments; outputs are byte-identical
given identical inputs, arguments, and seeds.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 consistency violations found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from math import inf

import numpy as np

from . import __version__
from .components import (
    ComponentSet,
    EmpiricalCcdf,
    aggregate_component,
    aggregate_network,
    barcode_rows,
    cumulative_residual_entropy,
    iet_ccdf,
    motif_counts,
    motif_distribution,
    shannon_entropy,
    sweep_largest_component,
)
from .duality import (
    InconsistentGraphError,
    check_consistency,
    load_edge_labelled,
    reconstruct,
    save_edge_labelled,
    strip_events,
)
from .events import ParseError, _stable_sort, load_events, save_events
from .generators import (
    GeneratorConfig,
    ensemble_seeds,
    generate_random,
    parse_iet_sampler,
    time_shuffle,
)
from .motifs import MOTIFS, Motif
from .svgrender import barcode_svg, ccdf_svg
from .teg import build_teg, write_teg_json

_USAGE_EXIT = 1
_INPUT_EXIT = 2
_CONSISTENCY_EXIT = 3

_SUFFIX = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_duration(text: str) -> float:
    """A time span: plain number, number with s/m/h/d suffix, or ``inf``."""
    text = text.strip()
    if text == "inf":
        return inf
    scale = 1.0
    if text and text[-1] in _SUFFIX:
        scale = _SUFFIX[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise ValueError(f"bad time span {text!r}") from None
    if not value > 0:
        raise ValueError(f"time span must be positive, got {value}")
    return value


def parse_grid(text: str) -> list[float]:
    """``log:A:B:N``, ``lin:A:B:N``, or a comma list; ascending, positive."""
    text = text.strip()
    if text.startswith(("log:", "lin:")):
        if text.count(":") != 3:
            raise ValueError(f"bad grid {text!r}: expected log:A:B:N or lin:A:B:N")
        kind, a, b, n = text.split(":")
        lo, hi, count = parse_duration(a), parse_duration(b), int(n)
        if count < 1:
            raise ValueError("grid needs at least one point")
        if inf in (lo, hi):
            raise ValueError("grid endpoints must be finite")
        if not lo < hi:
            raise ValueError("grid endpoints must be ascending")
        fn = np.geomspace if kind == "log" else np.linspace
        values = [float(x) for x in fn(lo, hi, count)]
    else:
        values = [parse_duration(part) for part in text.split(",")]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be strictly ascending")
    return values


def _duration_arg(text: str) -> float:
    try:
        return parse_duration(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_arg(text: str) -> list[float]:
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_arg(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_event_input(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="event file (source target time per line)")
    p.add_argument("--delimiter", default=None, help="column separator (default: whitespace)")
    p.add_argument(
        "--fields",
        default="source,target,time",
        help="column order as a comma list of source,target,time",
    )
    p.add_argument(
        "--tie-policy",
        choices=("stable_order", "reject"),
        default="stable_order",
        help="equal-timestamp handling",
    )
    p.add_argument(
        "--skip-self-loops",
        action="store_true",
        help="drop self-loop lines instead of failing",
    )


def _read_events(args):
    return load_events(
        args.input,
        delimiter=args.delimiter,
        fields=tuple(f.strip() for f in args.fields.split(",")),
        tie_policy=args.tie_policy,
        on_self_loop="skip" if args.skip_self_loops else "error",
    )


def _write_manifest(args, argv, outputs) -> None:
    doc = {
        "tool": "teg",
        "version": __version__,
        "subcommand": args.command,
        "argv": list(argv),
        "outputs": sorted(outputs),
    }
    for path in outputs:
        with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _f(x: float) -> str:
    return f"{x:.17g}"


def _dt_json(dt: float):
    return "inf" if dt == inf else dt


# --- subcommand bodies ----------------------------------------------------


def _cmd_generate(args, argv):
    cfg = GeneratorConfig(args.nodes, args.events, parse_iet_sampler(args.iets), args.seed)
    net = generate_random(cfg)
    save_events(net, args.output)
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_shuffle(args, argv):
    net = _read_events(args)
    shuffled = time_shuffle(net, args.seed)
    save_events(shuffled, args.output)
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_build(args, argv):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        if args.format == "edges":
            write_teg_json(teg, fh)
        else:
            save_edge_labelled(strip_events(teg, keep_anchors=not args.no_anchors), fh)
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_validate(args, argv):
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_edge_labelled(fh)
    report = check_consistency(g, rel_tol=args.rel_tol)
    print(report.summary())
    return 0 if report.ok else _CONSISTENCY_EXIT


def _cmd_reconstruct(args, argv):
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_edge_labelled(fh)
    net = reconstruct(
        g,
        rel_tol=args.rel_tol,
        layout=args.layout.replace("-", "_"),
        spacing=args.spacing,
    )
    save_events(net, args.output)
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_components(args, argv):
    net = _read_events(args)
    dt = args.dt
    cs = ComponentSet(build_teg(net, dt))
    doc = {
        "delta_t": _dt_json(dt),
        "event_count": len(net),
        "component_count": len(cs),
        "largest_fraction": cs.largest_fraction,
        "components": [
            {
                "rank": k,
                "size": c.size,
                "node_count": len(c.nodes),
                "start": c.start,
                "end": c.end,
                "first_event": c.events[0],
            }
            for k, c in enumerate(islice(cs, args.top))
        ],
    }
    _write_text(args.output, json.dumps(doc, indent=1) + "\n")
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_sweep(args, argv):
    net = _read_events(args)
    rows = sweep_largest_component(net, args.dt_grid)
    lines = ["delta_t,largest_fraction"]
    lines += [f"{_f(dt)},{_f(frac)}" for dt, frac in rows]
    _write_text(args.output, "\n".join(lines) + "\n")
    _write_manifest(args, argv, [args.output])
    return 0


def _shuffle_frequencies(job):
    net, dt, seed = job
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shuffled = time_shuffle(net, seed)
    counts = motif_counts(build_teg(shuffled, dt))
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"shuffle seed {seed}: event graph has no edges at this window")
    return [counts[m] / total for m in MOTIFS]


def _motif_row(scope: str, edges: int, masses) -> str:
    return ",".join([scope, str(edges)] + [_f(p) for p in masses])


def _cmd_motifs(args, argv):
    net = _read_events(args)
    dt = args.dt
    teg = build_teg(net, dt)
    lines = ["scope,edges," + ",".join(m.value for m in MOTIFS)]
    lines.append(_motif_row("all", teg.edge_count, motif_distribution(teg).masses))
    if args.per_component:
        # every edge lies inside its head's component
        cs = ComponentSet(teg)
        ranks = cs.assignment[teg.heads]
        counts = np.bincount(ranks * len(MOTIFS) + teg.codes, minlength=len(cs) * len(MOTIFS))
        for rank, row in enumerate(counts.reshape(-1, len(MOTIFS)).tolist()):
            total = sum(row)
            if total:
                lines.append(_motif_row(f"component:{rank}", total, [c / total for c in row]))
    if args.ensemble:
        jobs = [(net, dt, s) for s in ensemble_seeds(args.seed, args.ensemble)]
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                freqs = list(pool.map(_shuffle_frequencies, jobs, chunksize=8))
        else:
            freqs = [_shuffle_frequencies(job) for job in jobs]
        mean = [sum(col) / len(freqs) for col in zip(*freqs)]
        lines.append(_motif_row(f"shuffle_mean:{args.ensemble}", teg.edge_count, mean))
    _write_text(args.output, "\n".join(lines) + "\n")
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_iets(args, argv):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    if args.motif:
        curves = [(args.motif, iet_ccdf(teg, Motif(args.motif)))]
    else:
        curves = [("all", iet_ccdf(teg))]
        counts = motif_counts(teg)
        for m in MOTIFS:
            if counts[m]:
                curves.append((m.value, iet_ccdf(teg, m)))
    lines = ["scope,iet,tail"]
    for label, ccdf in curves:
        lines += [f"{label},{_f(v)},{_f(p)}" for v, p in zip(ccdf.support.tolist(), ccdf.tails.tolist())]
    _write_text(args.output, "\n".join(lines) + "\n")
    outputs = [args.output]
    if args.svg:
        log_x = all(c.support[0] > 0 for _, c in curves)
        _write_text(args.svg, ccdf_svg(curves, log_x=log_x))
        outputs.append(args.svg)
    _write_manifest(args, argv, outputs)
    return 0


def _cmd_entropy(args, argv):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    lines = ["scope,edges,motif_entropy_bits,iet_cre"]

    def row(scope, inside):
        codes = teg.codes[inside]
        total = len(codes)
        if total == 0:
            return None
        masses = (np.bincount(codes, minlength=len(MOTIFS)) / total).tolist()
        cre = cumulative_residual_entropy(EmpiricalCcdf.from_samples(teg.iets[inside]))
        return f"{scope},{total},{_f(shannon_entropy(masses))},{_f(cre)}"

    whole = row("all", slice(None))
    if whole is None:
        print("error: event graph has no edges", file=sys.stderr)
        return _INPUT_EXIT
    lines.append(whole)
    if args.per_component:
        # every edge lies inside its head's component
        components = ComponentSet(teg)
        ranks = components.assignment[teg.heads]
        _, order = _stable_sort(ranks)
        for rank, inside in enumerate(np.split(order, np.cumsum(np.bincount(ranks))[:-1])):
            r = row(f"component:{rank}", inside)
            if r is not None:
                lines.append(r)
    _write_text(args.output, "\n".join(lines) + "\n")
    _write_manifest(args, argv, [args.output])
    return 0


def _cmd_barcode(args, argv):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    rows = barcode_rows(teg, top=args.top)
    _write_text(args.output, barcode_svg(rows))
    outputs = [args.output]
    if args.csv:
        lines = ["component,time"] + [
            f"{k},{_f(t)}" for k, row in enumerate(rows) for t in row
        ]
        _write_text(args.csv, "\n".join(lines) + "\n")
        outputs.append(args.csv)
    _write_manifest(args, argv, outputs)
    return 0


def _cmd_aggregate(args, argv):
    if (args.dt is None) != (args.component is None):
        print("error: --dt and --component go together", file=sys.stderr)
        return _USAGE_EXIT
    net = _read_events(args)
    if args.dt is None:
        agg = aggregate_network(net)
        scope = "network"
    else:
        teg = build_teg(net, args.dt)
        agg = aggregate_component(teg, args.component)
        scope = f"component:{args.component}"
    doc = {
        "scope": scope,
        "node_count": agg.node_count,
        "edge_count": agg.edge_count,
        "density": agg.density,
        "reciprocity": agg.reciprocity,
        "weak_component_count": agg.weak_component_count,
    }
    _write_text(args.output, json.dumps(doc, indent=1) + "\n")
    _write_manifest(args, argv, [args.output])
    return 0


# --- parser wiring ---------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="teg", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"teg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="random temporal network")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--iets", required=True, help="power_law:A | exponential:RATE | deterministic:GAP")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("shuffle", help="time-shuffle null model")
    _add_event_input(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("build", help="event graph from events")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg, help="waiting window (e.g. 3600, 1h, inf)")
    p.add_argument(
        "--format",
        choices=("graph", "edges"),
        default="graph",
        help="graph: reconstructable edge-labelled JSON; edges: flat edge list",
    )
    p.add_argument(
        "--no-anchors",
        action="store_true",
        help="omit absolute-time anchors from graph output",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="check an edge-labelled graph")
    p.add_argument("--input", required=True, help="edge-labelled graph JSON")
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reconstruct", help="events back from an edge-labelled graph")
    p.add_argument("--input", required=True, help="edge-labelled graph JSON")
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument(
        "--layout",
        choices=("overlay", "end-to-end"),
        default="overlay",
        help="overlay: anchors or t=0 per component; end-to-end: lay components out in sequence",
    )
    p.add_argument("--spacing", type=float, default=1.0, help="gap between end-to-end components")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("components", help="weakly connected components")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--top", type=_count_arg(1), default=None, help="report only the K largest")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("sweep", help="largest component fraction over windows")
    _add_event_input(p)
    p.add_argument("--dt-grid", required=True, type=_grid_arg, help="log:A:B:N | lin:A:B:N | comma list")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("motifs", help="motif distribution (optionally vs shuffles)")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--per-component", action="store_true")
    p.add_argument("--ensemble", type=_count_arg(0), default=0, help="time-shuffle ensemble size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=_count_arg(1),
        default=os.environ.get("TEG_WORKERS", "1"),
        help="parallel shuffle workers (default: TEG_WORKERS or 1)",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_motifs)

    p = sub.add_parser("iets", help="inter-event-time CCDFs")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--motif", choices=[m.value for m in MOTIFS], default=None)
    p.add_argument("--svg", default=None, help="also render curves to SVG")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_iets)

    p = sub.add_parser("entropy", help="motif entropy and inter-event-time CRE")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--per-component", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("barcode", help="component barcode SVG")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--top", type=_count_arg(1), default=None)
    p.add_argument("--csv", default=None, help="also dump rows as CSV")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_barcode)

    p = sub.add_parser("aggregate", help="time-aggregated static graph")
    _add_event_input(p)
    p.add_argument("--dt", default=None, type=_duration_arg, help="with --component: restrict to one component")
    p.add_argument("--component", type=_count_arg(0), default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_aggregate)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except InconsistentGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONSISTENCY_EXIT
    except (OSError, ParseError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
