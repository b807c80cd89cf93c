"""Summarise the result records in .perfbench/results/ as one JSON document.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

For every workload: the median and quartiles of each end-to-end metric over
the untraced full-size runs, with their seeds, and the per-layer metrics of
the traced runs (median over runs).  Counts that repeat exactly across runs
are reported once, under ``exact_counts``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT_SUFFIXES = (".calls", ".distinct_ratio")


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None}


def summarize(records: list[dict]) -> dict:
    out = {}
    for rec in sorted(records, key=lambda r: (r["run"]["workload"], r["run"]["seed"])):
        run = rec["run"]
        entry = out.setdefault(run["workload"], {"params": run["params"], "untraced": {},
                                                 "traced": {}, "seeds": {"0": [], "1": []}})
        mode = "traced" if run["trace"] else "untraced"
        entry["seeds"][str(run["trace"])].append(run["seed"])
        for name, metric in rec["metrics"].items():
            entry[mode].setdefault(name, []).append(metric["value"])
    for entry in out.values():
        entry["untraced"] = {name: spread(v) for name, v in entry["untraced"].items()}
        traced = entry.pop("traced")
        entry["exact_counts"] = {name: v[0] for name, v in traced.items()
                                 if name.endswith(COUNT_SUFFIXES) and len(set(v)) == 1 and v[0]}
        entry["per_layer_median"] = {name: statistics.median(v) for name, v in traced.items()
                                     if name not in entry["exact_counts"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write here instead of standard output")
    args = parser.parse_args(argv)
    paths = sorted((ROOT / ".perfbench" / "results").glob("*-full.json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if not records:
        print("no full-size result records in .perfbench/results", file=sys.stderr)
        return 1
    first = records[0]["run"]
    doc = {"machine": {k: first[k] for k in ("commit", "src_sha256", "nproc", "platform", "python",
                                             "numpy", "scipy", "blas", "num_threads_env")},
           "workloads": summarize(records)}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
