"""lineariv benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload mc_table1 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/lineariv``; the library is
imported from there, never from an installed copy.  The inputs are made from
``--seed`` in this process (writing them is excluded from every metric), then
worker processes are started:

* one measuring worker: imports lineariv, runs one warm-up op (setup time),
  then a fixed number of whole passes of the workload that take about
  ``--seconds`` at nominal host speed (``workloads.passes_for``), then checks the
  output.  With ``--trace 1`` it repeats as many passes with every traced
  public function wrapped, and reports the per-layer metrics instead;
* with ``--trace 0``, ``SETUP_SAMPLES - 1`` more fresh workers that only set
  up; ``setup_s`` is the median over all of them.

Metric names, units and directions are registered in ``BENCHMARK.json``.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that only exercise the plumbing")
    return parser.parse_args(argv)


def run_worker(spec: dict, deadline: float) -> dict:
    """Runs worker.py to completion and returns its JSON result."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({spec['mode']}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_record(args, params: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lineariv").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "lineariv" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'lineariv'} not found; run from a lineariv checkout",
              file=sys.stderr)
        return 2
    registry = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in registry["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = OUT_DIR / "work" / f"{args.workload}-seed{args.seed}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload].prepare(workdir, workloads.SIZES[args.workload][args.size],
                                              args.seed)

    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "workdir": str(workdir), "mode": "measure",
            "per_layer": [m["name"] for m in registry["per_layer"]]}
    measured = run_worker(spec, deadline)
    setups = [{k: measured[k] for k in ("setup_s", "raw_setup_s")}]
    if not args.trace:
        setups += [run_worker({**spec, "mode": "setup"}, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]

    if args.trace:
        values = measured["per_layer"]
        registered = registry["per_layer"]
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "ops_per_s": measured["ops_per_s"],
                  "op_ms_p50": measured["op_ms_p50"], "peak_rss_mb": measured["peak_rss_mb"]}
        registered = registry["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in registered}

    failed_frac = measured["failed_ops"] / measured["ops"]
    record = {
        "run": run_record(args, measured["params"]),
        "metrics": metrics,
        "setup_samples": setups,
        "latency": {k: measured[k] for k in ("samples", "op_ms_p50", "op_ms_p99", "raw_ops_per_s",
                                             "raw_op_ms_p50", "raw_op_ms_p99", "ref_kernel_ms")
                    if k in measured},
        "ops": measured["ops"],
        "failed_ops": measured["failed_ops"],
        "failed_frac": failed_frac,
        "failures": measured["failures"],
        "passes": measured["passes"],
        "pass_s": measured["pass_s"],
        "checks": measured["checks"],
        "wall_s": time.monotonic() - started,
    }
    for key in ("traced_ops", "spans_file", "notes"):
        if key in measured:
            record[key] = measured[key]
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if "op_ms_p99" in measured:
        print(f"op_ms_p99 {measured['op_ms_p99']:.6g} ms ({measured['samples']} samples)")
    else:
        print(f"op_ms_p99 not reported: {measured['samples']} samples leave fewer than 10 "
              f"beyond it; op_ms_p50 {measured['op_ms_p50']:.6g} ms")
    print(f"failed_frac {failed_frac:.6g} ({measured['failed_ops']}/{measured['ops']} ops); "
          f"failures by estimator.class: {measured['failures'] or 'none'}")
    for note in measured.get("notes", []):
        print(f"note: {note}")
    for check in measured["checks"]:
        if not check["passed"]:
            print(f"FAILED CHECK {check['name']}: {check['detail']}")
    print(json.dumps({"correct": measured["correct"], "attempted": measured["ops"],
                      "failed": measured["failed_ops"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
