"""Collect the results in perfbench/out/ into one trajectory point.

Usage: python3 perfbench/trajectory.py NAME [NOTE]

Reads every result-<workload>-seed<n>-trace<t>.json that run.py left in
perfbench/out/ and writes perfbench/BENCH_<NAME>.json: per workload, the
median and quartiles of each end-to-end metric (item_ms.p99 included)
over the seeds run, and the per-layer metrics of each traced run, with
the machine stamp.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(name: str, note: str = "") -> int:
    e2e: dict = {}
    layers: dict = {}
    stamps = []
    for path in sorted(glob.glob(os.path.join(HERE, "out", "result-*-trace*.json"))):
        with open(path) as f:
            r = json.load(f)
        if not r["correct"] or len(r["details"]) != 1:
            continue
        (workload,) = r["details"]
        stamps.append(r["stamp"])
        if "trace0" in os.path.basename(path):
            metrics = dict(r["metrics"])
            metrics["item_ms.p99"] = {"value": r["details"][workload]["item_ms.p99"], "unit": "ms"}
            for metric, v in metrics.items():
                e2e.setdefault(workload, {}).setdefault(metric, {"unit": v["unit"], "values": []})
                e2e[workload][metric]["values"].append(v["value"])
        else:
            layers.setdefault(workload, {})[f"seed{r['stamp']['seed']}"] = {
                m: v["value"] for m, v in r["metrics"].items()
            }
    for metrics in e2e.values():
        for m in metrics.values():
            vals = m.pop("values")
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            m.update(runs=len(vals), median=statistics.median(vals), q1=q[0], q3=q[2])
    machine = {k: stamps[0][k] for k in ("kernel_backend", "python", "nproc", "cpu_model")} if stamps else {}
    doc = {
        "name": name,
        "note": note,
        "machine": machine,
        "git_commit": sorted({s["git_commit"] for s in stamps if s["git_commit"]}),
        "src_sha256": sorted({s["src_sha256"] for s in stamps}),
        "end_to_end": e2e,
        "per_layer": layers,
    }
    with open(os.path.join(HERE, f"BENCH_{name}.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
