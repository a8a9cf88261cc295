"""One measured pass in a fresh process: ``python3 perfbench/child.py CONFIG.json``.

Every pass gets its own process, so each starts from the same state, as a
command-line user's would, and its peak resident set (with that of the pool
workers it waits for) belongs to that pass alone, not to set-up or to the
reference computation, which stay in the parent. The process imports the
package, warms up on the small input, runs the pass and writes a result
file for the parent.

``mode`` is ``off`` (no spans), ``spans`` (spans and counts) or
``memory`` (spans with ``tracemalloc`` peaks).
"""

import gc
import json
import os
import resource
import sys
import time
import tracemalloc
import traceback
import warnings

_spawned = time.time()
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def main(config_path: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    warnings.simplefilter("ignore")  # ties are reported as counts instead
    job, mode = cfg["job"], cfg["mode"]
    result = {}
    try:
        workloads.run_pass(cfg["warm"], NullTracer())
    except Exception:  # the timed pass will fail the same way and be counted
        pass
    result["child_setup_s"] = time.time() - _spawned

    tr = NullTracer() if mode == "off" else Tracer(memory=mode == "memory")
    gc.collect()
    if mode == "memory":
        tracemalloc.start()
    try:
        start = time.perf_counter()
        with tr.span(f"pass.{job['workload']}"):
            raw = workloads.run_pass(job, tr)
        result["wall_s"] = time.perf_counter() - start
        if mode != "off" and job["workload"] == "null_model":
            workloads.member_probe(job, tr)
    except Exception:  # a failed pass is counted by the parent
        result["error"] = traceback.format_exc(limit=4)
    finally:
        tracemalloc.stop()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = usage / 1024  # ru_maxrss is in KiB on Linux

    if "error" not in result:
        original = None
        if job["workload"] in ("roundtrip", "reply_pairs"):
            original = np.loadtxt(job["input"], usecols=2, ndmin=1)
        try:
            result["outputs"], result["defects"] = workloads.outputs(job, raw, original)
        except Exception:
            result["error"] = traceback.format_exc(limit=4)
    if mode != "off":
        own = tr.self_times()
        result["spans"] = [dict(s, self_s=own[s["id"]]) for s in tr.spans]
        result["counts"] = tr.counts
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
