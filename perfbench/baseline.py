#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and records, for every
metric and workload, the median, the quartiles and the run-to-run spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives the quartiles). Run it from the repository root:

    python3 perfbench/baseline.py --runs 10 --first-seed 11 --out perfbench/baseline.json
    python3 perfbench/baseline.py --runs 5 --trace 1 --out perfbench/baseline_trace.json

Beside the metrics it records, from each run's host_speed line, the
unscaled times and rates and the reference kernel's time
(unscaled.<metric>, unscaled.ref_ms). It always runs every workload
BENCHMARK.json lists, and flags an
end-to-end metric whose spread exceeds a third of its bound there. With
--compare it also checks that this set's medians are within the bounds of
an earlier set's.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), None)
    res = json.loads(lines[-1])
    speed = next((json.loads(l)["host_speed"] for l in lines if l.startswith('{"host_speed"')), None)
    if speed:
        for k, v in speed["unscaled"].items():
            res["metrics"]["unscaled." + k] = {"value": v}
        res["metrics"]["unscaled.ref_ms"] = {"value": speed["ref_ms"]}
    return res, host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="", help="earlier output of this script")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    doc = {"seconds": spec["run_seconds"], "trace": args.trace, "runs": args.runs,
           "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": {}}
    ok = True
    for w in names:
        values, correct, host, engine = {}, True, None, None
        for i in range(args.runs):
            seed = args.first_seed + i
            res, host = run_once(w, seed, spec["run_seconds"], args.trace)
            engine = (host or {}).pop("engine", None)
            correct = correct and res["correct"] and res["failed"] == 0
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
        doc["host"] = dict(host or {}, machine=platform.machine(), cpus=os.cpu_count())
        for k in ("workload", "seed", "traced"):
            doc["host"].pop(k, None)
        stats = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            line = f"  {w:12s} {k:32s} median {med:14.6g}  spread {spread:7.2%}"
            if k in bounds:
                b = bounds[k]
                if spread > b / 3:
                    line += f"  SPREAD > bound/3 ({b / 3:.2%})"
                    ok = False
                if k in earlier.get(w, {}).get("metrics", {}):
                    old = earlier[w]["metrics"][k]["median"]
                    lower = next(m["better"] == "lower" for m in spec["end_to_end"] if m["name"] == k)
                    worse = (med - old) / old if lower else (old - med) / old
                    line += f"  vs earlier {worse:+.2%} worse"
                    if worse > b:
                        line += "  OUTSIDE BOUND"
                        ok = False
            print(line, file=sys.stderr)
        doc["workloads"][w] = {"correct": correct, "engine": engine, "metrics": stats}
        ok = ok and correct
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
