"""Fold the results files of many runs into one BENCH file.

    python3 perfbench/summarize.py --label seed-5d82e12 perfbench/baseline/BENCH_seed.json

Reads every ``perfbench/out/<workload>-seed<n>-trace<t>.json`` and writes,
per workload: the seeds used, the median and quartiles of every end-to-end
metric over the untraced runs, the median time of each config, and the
median of every per-layer metric over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _stats(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"n": 0}
    if len(values) == 1:
        return {"n": 1, "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(results: list) -> dict:
    by_workload = defaultdict(list)
    for r in results:
        by_workload[r["workload"]].append(r)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"environment": runs[0]["environment"],
                 "seeds": sorted(r["seed"] for r in plain),
                 "traced_seeds": sorted(r["seed"] for r in traced),
                 "correct": all(r["failed"] == 0 for r in runs)}
        metrics = defaultdict(list)
        for r in plain:
            for k, v in r["metrics"].items():
                if k != "layers":
                    metrics[k].append(v)
        entry["end_to_end"] = {k: _stats(v) for k, v in metrics.items()}
        per_config = defaultdict(list)
        for r in plain:
            for rec in r["records"]:
                per_config[rec["name"]].append(rec["seconds"])
        entry["config_s"] = {k: _stats(v) for k, v in per_config.items()
                             if workload != "spectrum_sweep" or not k.startswith("sweep")}
        layers = defaultdict(list)
        for r in traced:
            for k, v in r["metrics"]["layers"].items():
                layers[k].append(v)
        entry["per_layer"] = {k: _stats(v) for k, v in layers.items()}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("output", type=Path)
    args = parser.parse_args(argv)
    results = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*-seed*-trace*.json"))]
    if not results:
        raise SystemExit("no results under perfbench/out/")
    payload = {"label": args.label, "workloads": summarize(results)}
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
