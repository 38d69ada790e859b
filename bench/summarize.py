"""Summarize benchmark records across seeds.

    python3 bench/summarize.py [.bench-out] > summary.json

Reads every ``<workload>-seed<n>-trace<t>.json`` record that bench/run.py
wrote and prints, per workload and metric, the median, quartiles and the
spread (interquartile distance over the median) of the per-run values,
together with the seeds and the run environment. ``bench/baseline.json``
was made this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    values: dict[str, dict[str, dict[str, list[float]]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(list))
    )
    units: dict[str, str] = {}
    seeds: dict[str, dict[str, set[int]]] = defaultdict(lambda: defaultdict(set))
    for record in records:
        for workload, result in record["workloads"].items():
            for section in ("metrics", "detail", "per_layer"):
                if section in result:
                    seeds[workload][section].add(record["environment"]["seed"])
                for name, metric in result.get(section, {}).items():
                    values[workload][section][name].append(metric["value"])
                    units[name] = metric.get("unit", "")
    environment = records[-1]["environment"] if records else {}
    out: dict = {
        "environment": {k: v for k, v in environment.items() if k not in ("seed", "workloads")},
        "workloads": {},
    }
    for workload, sections in values.items():
        entry: dict = {"seeds": {k: sorted(v) for k, v in seeds[workload].items()}}
        for section, metrics in sections.items():
            entry[section] = {}
            for name, vals in metrics.items():
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
                entry[section][name] = {
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0,
                    "runs": len(vals),
                    "unit": units[name],
                }
        out["workloads"][workload] = entry
    return out


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(".bench-out")
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*-seed*-trace*.json"))]
    print(json.dumps(summarize(records), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
