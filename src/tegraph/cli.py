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
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from math import inf
from operator import add

import numpy as np

from . import __version__, _text
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
from .events import ParseError, _stable_sort, _starts, load_events, save_events
from .generators import (
    GeneratorConfig,
    ensemble_seeds,
    generate_random,
    parse_iet_sampler,
    time_shuffle,
)
from .motifs import _NAMES, MOTIFS, Motif
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


def _write_manifest(args, argv) -> None:
    """A ``<path>.manifest.json`` beside each file the run wrote."""
    outputs = [path for path in (getattr(args, name, None) for name in ("output", "svg", "csv")) if path]
    doc = {
        "tool": "teg",
        "version": __version__,
        "subcommand": args.command,
        "argv": list(argv),
        "outputs": sorted(outputs),
    }
    for path in outputs:
        with _output(path + ".manifest.json") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _output(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, *blocks) -> None:
    """Write the strings of each block in turn: a list, or chunks from ``_text``."""
    with _output(path) as fh:
        for block in blocks:
            fh.writelines(block)


# --- subcommand bodies ----------------------------------------------------


def _cmd_generate(args):
    cfg = GeneratorConfig(args.nodes, args.events, parse_iet_sampler(args.iets), args.seed)
    net = generate_random(cfg)
    save_events(net, args.output)
    return 0


def _cmd_shuffle(args):
    net = _read_events(args)
    shuffled = time_shuffle(net, args.seed)
    save_events(shuffled, args.output)
    return 0


def _cmd_build(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    with _output(args.output) as fh:
        if args.format == "edges":
            write_teg_json(teg, fh)
        else:
            save_edge_labelled(strip_events(teg, keep_anchors=not args.no_anchors), fh)
    return 0


def _cmd_validate(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_edge_labelled(fh)
    report = check_consistency(g, rel_tol=args.rel_tol)
    print(report.summary())
    return 0 if report.ok else _CONSISTENCY_EXIT


def _cmd_reconstruct(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_edge_labelled(fh)
    layout = args.layout.replace("-", "_")
    net = reconstruct(g, rel_tol=args.rel_tol, layout=layout, spacing=args.spacing)
    save_events(net, args.output)
    return 0


_COMPONENT_ROW = (
    '  {\n   "rank": %d,\n   "size": %d,\n   "node_count": %d,\n'
    '   "start": %r,\n   "end": %r,\n   "first_event": %d\n  }'
)


def _cmd_components(args):
    net = _read_events(args)
    cs = ComponentSet(build_teg(net, args.dt))
    top = len(cs) if args.top is None else min(args.top, len(cs))
    # each rank's node count: its distinct (rank, node) keys, by one sort
    n, members = len(net.node_ids), cs._members[: cs._bounds[top]]
    ranks = cs.assignment[members] * n
    keys = np.sort(np.concatenate((ranks + net.sources[members], ranks + net.targets[members])))
    node_counts = np.bincount(keys[_starts(keys)] // n, minlength=top)
    columns = np.arange(top), cs.sizes[:top], node_counts, cs.starts[:top], cs.ends[:top]
    fields = {
        "delta_t": "inf" if args.dt == inf else args.dt,
        "event_count": len(net),
        "component_count": len(cs),
        "largest_fraction": cs.largest_fraction,
        "components": ("[]", _COMPONENT_ROW, *columns, cs._members[cs._bounds[:top]]),
    }
    _write(args.output, _text.json_object(fields))
    return 0


def _cmd_sweep(args):
    net = _read_events(args)
    rows = np.array(sweep_largest_component(net, args.dt_grid))
    _write(args.output, ["delta_t,largest_fraction\n"], _text.rows("%.17g,%.17g\n", *rows.T))
    return 0


def _shuffle_frequencies(net, dt, seed):
    counts = motif_counts(build_teg(time_shuffle(net, seed), dt))
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"shuffle seed {seed}: event graph has no edges at this window")
    return [counts[m] / total for m in MOTIFS]


_MOTIF_ROW = "%s,%d" + ",%.17g" * len(MOTIFS) + "\n"


def _cmd_motifs(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    header = "scope,edges," + ",".join(_NAMES) + "\n"
    blocks = [[header, _MOTIF_ROW % ("all", teg.edge_count, *motif_distribution(teg).masses)]]
    if args.per_component:
        # every edge lies inside its head's component
        cs = ComponentSet(teg)
        ranks = cs.assignment[teg.heads]
        counts = np.bincount(ranks * len(MOTIFS) + teg.codes, minlength=len(cs) * len(MOTIFS))
        counts = counts.reshape(-1, len(MOTIFS))
        totals = counts.sum(1)
        kept = np.flatnonzero(totals)
        masses = counts[kept] / totals[kept, None]
        blocks.append(_text.rows("component:" + _MOTIF_ROW, kept, totals[kept], *masses.T))
    if args.ensemble:
        # members share the read-only network; numpy releases the GIL in their
        # sorts and gathers. Warning filters are process-wide and not
        # thread-safe to change, so the tie warnings of shuffled members are
        # silenced once, here, around the whole pool.
        with warnings.catch_warnings(), ThreadPoolExecutor(max_workers=args.workers) as pool:
            warnings.simplefilter("ignore")
            member = partial(_shuffle_frequencies, net, args.dt)
            freqs = list(pool.map(member, ensemble_seeds(args.seed, args.ensemble)))
        # added in order: sum() compensates float rounding from Python 3.12 on
        mean = [reduce(add, col) / len(freqs) for col in zip(*freqs)]
        blocks.append([_MOTIF_ROW % (f"shuffle_mean:{args.ensemble}", teg.edge_count, *mean)])
    _write(args.output, *blocks)
    return 0


def _cmd_iets(args):
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
    rows = (_text.rows(label + ",%.17g,%.17g\n", ccdf.support, ccdf.tails) for label, ccdf in curves)
    _write(args.output, ["scope,iet,tail\n"], *rows)
    if args.svg:
        log_x = all(c.support[0] > 0 for _, c in curves)
        _write(args.svg, [ccdf_svg(curves, log_x=log_x)])
    return 0


def _cmd_entropy(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)

    def entropies(inside):
        codes = teg.codes[inside]
        masses = (np.bincount(codes, minlength=len(MOTIFS)) / len(codes)).tolist()
        cre = cumulative_residual_entropy(EmpiricalCcdf.from_samples(teg.iets[inside]))
        return shannon_entropy(masses), cre

    if not teg.edge_count:
        raise ValueError("event graph has no edges")
    row = "%s,%d,%.17g,%.17g\n"
    whole = row % ("all", teg.edge_count, *entropies(slice(None)))
    blocks = [["scope,edges,motif_entropy_bits,iet_cre\n", whole]]
    if args.per_component:
        # every edge lies inside its head's component
        ranks = ComponentSet(teg).assignment[teg.heads]
        _, order = _stable_sort(ranks)
        sizes = np.bincount(ranks)
        groups = np.split(order, np.cumsum(sizes)[:-1])
        kept = np.flatnonzero(sizes)
        values = np.array([entropies(groups[rank]) for rank in kept.tolist()]).reshape(-1, 2)
        blocks.append(_text.rows("component:" + row, kept, sizes[kept], *values.T))
    _write(args.output, *blocks)
    return 0


def _cmd_barcode(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    rows = barcode_rows(teg, top=args.top)
    _write(args.output, [barcode_svg(rows)])
    if args.csv:
        ranks = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        _write(args.csv, ["component,time\n"], _text.rows("%d,%.17g\n", ranks, np.concatenate(rows)))
    return 0


def _cmd_aggregate(args):
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
    _write(args.output, _text.json_object(doc))
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
        help="parallel shuffle threads (default: TEG_WORKERS or 1)",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_motifs)

    p = sub.add_parser("iets", help="inter-event-time CCDFs")
    _add_event_input(p)
    p.add_argument("--dt", required=True, type=_duration_arg)
    p.add_argument("--motif", choices=_NAMES.tolist(), default=None)
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
        code = args.func(args)
        if code == 0:
            _write_manifest(args, argv)
        return code
    except InconsistentGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONSISTENCY_EXIT
    except (OSError, ParseError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
