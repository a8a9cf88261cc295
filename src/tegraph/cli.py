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
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from itertools import chain
from math import inf

import numpy as np

from . import __version__, _text
from .components import (
    ComponentSet,
    DiscreteDistribution,
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
from .events import load_events, save_events
from .generators import (
    GeneratorConfig,
    _shuffled_columns,
    ensemble_seeds,
    generate_random,
    parse_iet_sampler,
    time_shuffle,
)
from .motifs import _NAMES, MOTIFS, Motif
from .svgrender import barcode_svg, ccdf_svg
from .teg import _motif_code_counts, _Scratch, build_teg, write_teg_json

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
        lo, hi = parse_duration(a), parse_duration(b)
        try:
            count = int(n)
        except ValueError:
            raise ValueError(f"grid point count must be an integer, got {n!r}") from None
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


def _arg(parse):
    """argparse type: ``parse``, its ValueError a usage error with its message."""

    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


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
    fields = "source,target,time"
    p.add_argument("--fields", default=fields, help="column order as a comma list of " + fields)
    policies = ("stable_order", "reject")
    p.add_argument("--tie-policy", choices=policies, default="stable_order", help="equal-timestamp handling")
    p.add_argument("--skip-self-loops", action="store_true", help="drop self-loop lines instead of failing")


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
        _write(path + ".manifest.json", [json.dumps(doc, indent=1, sort_keys=True), "\n"])


def _output(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, *blocks) -> None:
    """Write the strings of each block in turn: a list, or chunks from ``_text``
    or a plot. The first is made before the file is opened: a refused input leaves no file."""
    strings = chain.from_iterable(blocks)
    first = next(strings, "")
    with _output(path) as fh:
        fh.writelines(chain([first], strings))


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
    columns = np.arange(top), cs.sizes[:top], cs.node_counts(top), cs.starts[:top], cs.ends[:top]
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


_members = threading.local()  # an ensemble worker thread's scratch, which ends with the thread


def _shuffle_frequencies(net, dt, seed):
    scratch = _members.scratch
    counts = _motif_code_counts(*_shuffled_columns(net, seed, scratch), dt, scratch).tolist()
    total = sum(counts)
    if total == 0:
        raise ValueError(f"shuffle seed {seed}: event graph has no edges at this window")
    return [count / total for count in counts]


_MOTIF_ROW = "%s,%d" + ",%.17g" * len(MOTIFS) + "\n"


def _cmd_motifs(args):
    net = _read_events(args)
    if args.per_component:  # one incidence sort: the event graph's codes count the network's row too
        cs = ComponentSet(build_teg(net, args.dt))
        counts = list(motif_counts(cs.teg).values())
        components = _text.rows("component:" + _MOTIF_ROW, *cs.ranks_with_edges(), *cs.motif_masses().T)
        del cs  # the ensemble reads only the network: free the event graph first
    else:  # as an ensemble member counts its shuffle, without the event graph
        counts, components = _motif_code_counts(net.sources, net.targets, net.times, args.dt).tolist(), []
    edge_count = sum(counts)
    header = "scope,edges," + ",".join(_NAMES) + "\n"
    blocks = [[header, _MOTIF_ROW % ("all", edge_count, *DiscreteDistribution.from_counts(MOTIFS, counts).masses)]]
    blocks.append(components)
    if args.ensemble:
        # members share the read-only network and build none of their own, so
        # they have nothing to warn of; numpy releases the GIL in their sorts
        # and gathers. Each thread runs its members in one scratch of its own.
        def make_scratch():
            _members.scratch = _Scratch(len(net))

        with ThreadPoolExecutor(max_workers=args.workers, initializer=make_scratch) as pool:
            member = partial(_shuffle_frequencies, net, args.dt)
            freqs = list(pool.map(member, ensemble_seeds(args.seed, args.ensemble)))
        # each column added in order by an accumulate, as a loop adds it
        mean = np.add.accumulate(freqs)[-1] / len(freqs)
        blocks.append([_MOTIF_ROW % (f"shuffle_mean:{args.ensemble}", edge_count, *mean)])
    _write(args.output, *blocks)
    return 0


def _cmd_iets(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    if args.motif:
        curves = [(args.motif, iet_ccdf(teg, Motif(args.motif)))]
    else:
        curves = [("all", iet_ccdf(teg))]
        curves += [(m.value, iet_ccdf(teg, m)) for m, count in motif_counts(teg).items() if count]
    rows = (_text.rows(label + ",%.17g,%.17g\n", ccdf.support, ccdf.tails) for label, ccdf in curves)
    _write(args.output, ["scope,iet,tail\n"], *rows)
    if args.svg:
        log_x = all(c.support[0] > 0 for _, c in curves)
        _write(args.svg, ccdf_svg.lines(curves, log_x=log_x))
    return 0


def _cmd_entropy(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    if not teg.edge_count:
        raise ValueError("event graph has no edges")
    row = "%s,%d,%.17g,%.17g\n"
    whole = shannon_entropy(motif_distribution(teg)), cumulative_residual_entropy(iet_ccdf(teg))
    blocks = [["scope,edges,motif_entropy_bits,iet_cre\n", row % ("all", teg.edge_count, *whole)]]
    if args.per_component:
        cs = ComponentSet(teg)
        blocks.append(_text.rows("component:" + row, *cs.ranks_with_edges(), cs.motif_entropies(), cs.iet_cres()))
    _write(args.output, *blocks)
    return 0


def _cmd_barcode(args):
    net = _read_events(args)
    teg = build_teg(net, args.dt)
    rows = barcode_rows(teg, top=args.top)
    _write(args.output, barcode_svg.lines(rows))
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
        agg, scope = aggregate_network(net), "network"
    else:
        agg, scope = aggregate_component(build_teg(net, args.dt), args.component), f"component:{args.component}"
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


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process."""
    parser = _Parser(prog="teg", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"teg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    duration = _arg(parse_duration)

    def command(name, func, about, events=True) -> _Parser:
        """The subcommand ``name`` that runs ``func``; it reads an event file where ``events``."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        if events:
            _add_event_input(p)
        return p

    p = command("generate", _cmd_generate, "random temporal network", events=False)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--iets", required=True, help="power_law:A | exponential:RATE | deterministic:GAP")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = command("shuffle", _cmd_shuffle, "time-shuffle null model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = command("build", _cmd_build, "event graph from events")
    p.add_argument("--dt", required=True, type=duration, help="waiting window (e.g. 3600, 1h, inf)")
    about = "graph: reconstructable edge-labelled JSON; edges: flat edge list"
    p.add_argument("--format", choices=("graph", "edges"), default="graph", help=about)
    p.add_argument("--no-anchors", action="store_true", help="omit absolute-time anchors from graph output")
    p.add_argument("--output", required=True)

    p = command("validate", _cmd_validate, "check an edge-labelled graph", events=False)
    p.add_argument("--input", required=True, help="edge-labelled graph JSON")
    p.add_argument("--rel-tol", type=float, default=1e-12)

    p = command("reconstruct", _cmd_reconstruct, "events back from an edge-labelled graph", events=False)
    p.add_argument("--input", required=True, help="edge-labelled graph JSON")
    p.add_argument("--rel-tol", type=float, default=1e-12)
    about = "overlay: anchors or t=0 per component; end-to-end: lay components out in sequence"
    p.add_argument("--layout", choices=("overlay", "end-to-end"), default="overlay", help=about)
    p.add_argument("--spacing", type=float, default=1.0, help="gap between end-to-end components")
    p.add_argument("--output", required=True)

    p = command("components", _cmd_components, "weakly connected components")
    p.add_argument("--dt", required=True, type=duration)
    p.add_argument("--top", type=_count_arg(1), default=None, help="report only the K largest")
    p.add_argument("--output", required=True)

    p = command("sweep", _cmd_sweep, "largest component fraction over windows")
    p.add_argument("--dt-grid", required=True, type=_arg(parse_grid), help="log:A:B:N | lin:A:B:N | comma list")
    p.add_argument("--output", required=True)

    p = command("motifs", _cmd_motifs, "motif distribution (optionally vs shuffles)")
    p.add_argument("--dt", required=True, type=duration)
    p.add_argument("--per-component", action="store_true")
    p.add_argument("--ensemble", type=_count_arg(0), default=0, help="time-shuffle ensemble size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_count_arg(1), default=1, help="parallel shuffle threads")
    p.add_argument("--output", required=True)

    p = command("iets", _cmd_iets, "inter-event-time CCDFs")
    p.add_argument("--dt", required=True, type=duration)
    p.add_argument("--motif", choices=_NAMES.tolist(), default=None)
    p.add_argument("--svg", default=None, help="also render curves to SVG")
    p.add_argument("--output", required=True)

    p = command("entropy", _cmd_entropy, "motif entropy and inter-event-time CRE")
    p.add_argument("--dt", required=True, type=duration)
    p.add_argument("--per-component", action="store_true")
    p.add_argument("--output", required=True)

    p = command("barcode", _cmd_barcode, "component barcode SVG")
    p.add_argument("--dt", required=True, type=duration)
    p.add_argument("--top", type=_count_arg(1), default=None)
    p.add_argument("--csv", default=None, help="also dump rows as CSV")
    p.add_argument("--output", required=True)

    p = command("aggregate", _cmd_aggregate, "time-aggregated static graph")
    p.add_argument("--dt", default=None, type=duration, help="with --component: restrict to one component")
    p.add_argument("--component", type=_count_arg(0), default=None)
    p.add_argument("--output", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if code == 0:
            _write_manifest(args, argv)
        return code
    except InconsistentGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONSISTENCY_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
