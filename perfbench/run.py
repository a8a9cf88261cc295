"""tegraph benchmark: one seeded workload per run, checked against references.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root or anywhere: paths are taken from this file.
Set-up (in this process) writes the seeded input, runs the package's own
generator against it and computes the reference outputs without the
package. A fresh child process (``child.py``) then measures. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. The spans of a traced run are
written to ``.perfbench_work/traces/``. See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a pass still running this long after the run began is killed
REL_TOL = 1e-12
WORKLOADS = ("stats", "roundtrip", "reply_pairs", "null_model")

END_TO_END = {
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "share",
}
PER_LAYER = {
    "events.load_events_s": "s",
    "events.load_events_peak_mb": "MB",
    "events.save_events_s": "s",
    "events.tie_count": "count",
    "teg.build_teg_s": "s",
    "teg.build_teg_peak_mb": "MB",
    "teg.edge_count": "count",
    "components.wcc_s": "s",
    "components.component_count": "count",
    "components.sweep_s": "s",
    "components.motif_distribution_s": "s",
    "components.iet_ccdf_s": "s",
    "components.barcode_rows_s": "s",
    "components.aggregate_s": "s",
    "svgrender.barcode_svg_s": "s",
    "duality.strip_events_s": "s",
    "duality.save_edge_labelled_s": "s",
    "duality.json_bytes": "bytes",
    "duality.load_edge_labelled_s": "s",
    "duality.check_consistency_s": "s",
    "duality.violation_count": "count",
    "duality.reconstruct_s": "s",
    "duality.reconstruct_peak_mb": "MB",
    "duality.time_mismatch_events": "count",
    "duality.false_ties": "count",
    "generators.generate_random_s": "s",
    "generators.time_shuffle_s": "s",
    "cli.motifs_s": "s",
    "cli.ensemble_parallel_eff": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a measurement."""


def _import_program():
    """Import what needs the package, so a checkout without it fails with a message."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tegraph", "__init__.py")):
        raise BenchError(f"package source not found under {src}")
    sys.path[:0] = [src, HERE]
    global oracle, workloads, Tracer, NullTracer
    import oracle
    import workloads
    from tracing import NullTracer, Tracer


def _mismatches(outputs: dict, expected: dict) -> list[str]:
    """Keys whose output differs: integers, strings and flags exactly,
    floats within REL_TOL relative, lists element by element."""

    def same(a, b):
        if isinstance(b, list):
            return isinstance(a, list) and len(a) == len(b) and all(map(same, a, b))
        if isinstance(b, float) and not isinstance(a, bool) and isinstance(a, (int, float)):
            return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
        return type(a) is type(b) and a == b

    return [k for k, v in expected.items() if k not in outputs or not same(outputs[k], v)]


def _expected(name: str, size: dict, seed: int, arrays) -> dict:
    if name == "stats":
        return oracle.stats(*arrays, workloads.STATS_DT, workloads.STATS_GRID, workloads.BARCODE_TOP)
    if name == "null_model":
        return {"exit_code": 0, "csv_sha256": oracle.null_model_csv(*arrays, seed, size["ensemble"])}
    return oracle.roundtrip(*arrays)


def _set_up(name, size, warm_size, seed, work, tracer):
    """Write the inputs and check the package's generator; repeated, timed."""
    paths = {"input": os.path.join(work, "events.txt"), "warm": os.path.join(work, "warm.txt")}
    generated = name != "reply_pairs"
    times, failures = [], 0
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        arrays = workloads.make_inputs(name, size, seed, paths["input"])
        workloads.make_inputs(name, warm_size, seed, paths["warm"])
        if generated:
            with tracer.span("generators.generate_random"):
                net = workloads.package_generate(size, seed)
        times.append(time.perf_counter() - start)
        if generated:
            got = [np.array([getattr(e, f) for e in net]) for f in ("source", "target", "time")]
            failures += not all(np.array_equal(g, a) for g, a in zip(got, arrays))
            del net, got
    return paths, arrays, statistics.median(times), failures


def _child(cfg: dict, work: str, deadline: float) -> dict:
    """One pass in a fresh process; returns its result file."""
    cfg_path = os.path.join(work, "child.json")
    cfg = dict(cfg, result=os.path.join(work, "result.json"))
    if os.path.exists(cfg["result"]):
        os.remove(cfg["result"])
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    # stdout of the child goes to stderr, so the result stays the last line here
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), cfg_path],
        stdout=sys.stderr,
        start_new_session=True,
        cwd=work,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("measurement did not finish in time") from None
    if code != 0 or not os.path.exists(cfg["result"]):
        raise BenchError(f"measuring process exited with code {code}")
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer(size, plain, traced, memory, generate_s) -> dict:
    """Per-layer metrics of a traced run; a layer the workload does not call reads 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    for s in traced.get("spans", []):
        key = s["name"] + "_s"
        if key in values:
            values[key] += s["self_s"]
    for s in memory.get("spans", []):
        key = s["name"] + "_peak_mb"
        if key in values:
            values[key] = max(values[key], s["peak_mb"])
    values.update(traced.get("counts", {}))
    values.update(traced.get("defects", {}))
    values["generators.generate_random_s"] = generate_s
    if "wall_s" in plain and "wall_s" in traced:
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    members = [s["end"] - s["start"] for s in traced.get("spans", []) if s["name"] == "probe.member"]
    if members and values["cli.motifs_s"] > 0:
        serial = statistics.median(members)
        values["cli.ensemble_parallel_eff"] = size["ensemble"] * serial / (workloads.WORKERS * values["cli.motifs_s"])
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def run(name: str, seed: int, seconds: float, trace: bool, profile: str = "full", record: bool = False) -> dict:
    """One benchmark run: set-up, then passes in fresh processes, then checks."""
    deadline = time.monotonic() + RUN_LIMIT_S
    size = workloads.SIZES[profile][name]
    warm_size = workloads.SIZES["smoke"][name]
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_tracer = Tracer() if trace else NullTracer()
        paths, arrays, setup_s, failed = _set_up(name, size, warm_size, seed, work, setup_tracer)
        attempted = SETUP_REPEATS if name != "reply_pairs" else 0
        expected = _expected(name, size, seed, arrays)
        recorded = _load_references().get(profile, {}).get(name, {}).get(str(seed), {})
        del arrays

        files = {"graph": "graph.json", "rebuilt": "rebuilt.txt", "csv": "motifs.csv"}
        job = {"workload": name, "seed": seed, "size": size, "input": paths["input"]}
        job.update({k: os.path.join(work, f) for k, f in files.items()})
        warm = dict(job, size=warm_size, input=paths["warm"])
        warm.update({k: os.path.join(work, "warm-" + f) for k, f in files.items()})

        if trace:
            modes = ("off", "spans", "memory")
            passes = [_child({"job": job, "warm": warm, "mode": m}, work, deadline) for m in modes]
        else:
            passes = []
            begin = time.monotonic()
            while not passes or time.monotonic() - begin < seconds:
                passes.append(_child({"job": job, "warm": warm, "mode": "off"}, work, deadline))

        errors = []
        for p in passes:
            if "error" in p:
                print(p["error"], file=sys.stderr)
                bad = ["exception"]
            else:
                bad = _mismatches(p["outputs"], expected) + _mismatches(p["outputs"], recorded)
            failed += bool(bad)
            errors += bad
        attempted += len(passes)
        if errors:
            print(f"{name} seed {seed}: outputs differ from the reference: {sorted(set(errors))}", file=sys.stderr)
        if record and not failed:
            _record(profile, name, seed, passes[0]["outputs"])

        if trace:
            metrics = _per_layer(size, *passes, _generate_s(setup_tracer))
            _write_trace(name, seed, setup_tracer.spans, passes)
        else:
            walls = [p["wall_s"] for p in passes if "wall_s" in p]
            values = {
                "events_per_s": workloads.events_handled(name, size) / statistics.median(walls) if walls else 0.0,
                "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
                "setup_s": setup_s + statistics.median(p["child_setup_s"] for p in passes),
                "ok_share": (attempted - failed) / attempted,
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _generate_s(tracer) -> float:
    spans = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "generators.generate_random"]
    return statistics.median(spans) if spans else 0.0


def _write_trace(name, seed, setup_spans, passes) -> None:
    """Spans of the set-up and of the three traced passes, with self time per layer."""
    _, traced, memory = passes
    layers: dict[str, float] = {}
    for s in traced.get("spans", []):
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    doc = {
        "workload": name,
        "seed": seed,
        "self_s_by_layer": layers,
        "setup_spans": setup_spans,
        "spans": traced.get("spans", []),
        "memory_spans": memory.get("spans", []),
        "counts": traced.get("counts", {}),
    }
    out = os.path.join(WORK, "traces")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _record(profile, name, seed, outputs) -> None:
    refs = _load_references()
    refs.setdefault(profile, {}).setdefault(name, {})[str(seed)] = outputs
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def smoke(seed: int, record: bool) -> int:
    """All four workloads once at tiny size, untraced and traced, with checks."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            res = run(name, seed, 0, trace, profile="smoke", record=record and not trace)
            names = set(PER_LAYER if trace else END_TO_END)
            good = res["correct"] and set(res["metrics"]) == names
            ok &= good
            print(json.dumps({"workload": name, "trace": trace, "ok": good, "failed": res["failed"]}))
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload once")
    p.add_argument("--record", action="store_true", help="store this run's outputs as the seed's reference")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    try:
        _import_program()
        if args.smoke:
            return smoke(args.seed, args.record)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), record=args.record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
