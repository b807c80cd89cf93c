"""One benchmark process: import lineariv, warm up, run passes, report JSON.

Started by ``run.py`` with one JSON argument (the run spec).  ``mode`` is
``setup`` (import and one warm-up op, then exit) or ``measure`` (also run the
workload's passes, as many as ``workloads.passes_for`` gives, then check them).  With ``trace`` set, the passes are run a
second time with the tracer installed, as many of them as the untraced phase
ran.  The last line of standard output is the JSON result.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import refclock   # stdlib only: numpy is not imported yet

# Setup time runs from here, before lineariv (and numpy) are imported; the
# parse kernel is timed just before and just after it to gauge the host.
KERNEL_BEFORE = statistics.median(refclock.kernel_seconds("parse") for _ in range(5))
T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def run_phase(workload, harness, passes: int):
    """Runs ``passes`` whole passes; returns their results and wall times."""
    results, times = [], []
    for _ in range(passes):
        t = time.perf_counter()
        results.append(workload.run_pass(harness))
        times.append(time.perf_counter() - t)
    return results, times


def latency_summary(harness) -> dict:
    """Raw and reference-scaled throughput and latency percentiles (ms)."""
    out = {"samples": harness.ops, "raw_ops_per_s": harness.ops / sum(harness.latencies)}
    scaled = refclock.scale(harness.latencies, harness.ref_samples, harness.kernel)
    for prefix, latencies in (("raw_", harness.latencies), ("", scaled)):
        ms = sorted(1000.0 * v for v in latencies)
        out[prefix + "op_ms_p50"] = statistics.median(ms)
        # p99 only where at least ten samples lie beyond it
        if len(ms) >= 1000:
            out[prefix + "op_ms_p99"] = statistics.quantiles(ms, n=100)[98]
    out["ops_per_s"] = harness.ops / sum(scaled)
    kernel = [seconds for _, seconds in harness.ref_samples]
    out["ref_kernel_ms"] = {"median": 1000 * statistics.median(kernel),
                            "min": 1000 * min(kernel), "samples": len(kernel)}
    return out


def layer_metrics(names: list[str], tracer, harness, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced phase; counts and times are per op."""
    spans = tracer.self_times()
    ops = max(harness.ops, 1)
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
            continue
        if name == "failures.total":
            out[name] = sum(harness.failures.values()) / ops
            continue
        layer, stat = name.rsplit(".", 1)
        calls, self_s = spans.get(layer, (0, 0.0))
        if stat == "calls":
            out[name] = calls / ops
        elif stat == "self_s":
            out[name] = self_s / ops
        elif stat == "distinct_ratio":
            out[name] = tracer.counters[layer + ".distinct"] / calls if calls else 0.0
        elif stat == "rows_per_s":
            out[name] = tracer.counters[layer + ".rows"] / self_s if self_s else 0.0
        else:
            out[name] = tracer.counters[name] / ops
    return out


def main(spec: dict) -> dict:
    import lineariv

    if not Path(lineariv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lineariv imported from {lineariv.__file__}, not from {ROOT / 'src'}")
    import tracing
    import workloads

    workdir = Path(spec["workdir"])
    workload = workloads.make(spec["workload"], spec["size"], spec["seed"], workdir)
    workload.warmup()
    raw_setup_s = time.perf_counter() - T0
    kernel_after = statistics.median(refclock.kernel_seconds("parse") for _ in range(5))
    slowdown = (KERNEL_BEFORE + kernel_after) / 2 / refclock.NOMINAL_S["parse"]
    # Import slows less than the kernel: over 200 fresh processes at kernel
    # slowdowns of 1.04x to 2.3x, setup time grew as slowdown**0.41 to **0.47.
    setup = {"raw_setup_s": raw_setup_s, "setup_s": raw_setup_s / slowdown ** 0.5}
    if spec["mode"] == "setup":
        return setup

    window, kernel = workloads.REFERENCE[spec["workload"]]
    harness = workloads.Harness(window=window, kernel=kernel)
    results, times = run_phase(workload, harness,
                               passes=workloads.passes_for(spec["workload"], spec["seconds"]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "params": workload.params(),
        "passes": len(results),
        "pass_s": times,
        "ops": harness.ops,
        "failed_ops": harness.failed_ops,
        **latency_summary(harness),
    }
    phases = [("untraced", results)]
    if spec["trace"]:
        tracer = tracing.Tracer()
        traced_harness = workloads.Harness(tracer, window=window, kernel=kernel)
        tracer.install()
        try:
            traced, _ = run_phase(workload, traced_harness, passes=len(results))
        finally:
            tracer.uninstall()
        tracer.write_spans(workdir / "spans.npz")
        overhead = (sum(refclock.scale(traced_harness.latencies, traced_harness.ref_samples, kernel))
                    / sum(refclock.scale(harness.latencies, harness.ref_samples, kernel)) - 1.0)
        out["per_layer"] = layer_metrics(spec["per_layer"], tracer, traced_harness, overhead)
        out["traced_ops"] = traced_harness.ops
        out["spans_file"] = str(workdir / "spans.npz")
        out["notes"] = tracing.NOTES
        phases.append(("traced", traced))

    checks = []
    first = results[0]["output"]
    for phase, passes in phases:
        for i, res in enumerate(passes):
            checks.append({"name": f"{phase} pass {i} verdict", "passed": res["passed"],
                           "detail": res["detail"]})
            if res["output"] != first:
                checks.append({"name": f"{phase} pass {i} output equals pass 0", "passed": False,
                               "detail": "output bytes differ"})
    checks.extend(workload.final_check(results))
    out["checks"] = checks
    out["correct"] = all(c["passed"] for c in checks)

    classes = getattr(workload, "failure_classes", {})
    out["failures"] = {f"{est}.{classes.get(est, kind)}": count
                       for (est, kind), count in sorted(harness.failures.items())}
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
