#!/usr/bin/env python3
"""Compare two sets of benchmark records (perfbench/run.py output).

    python3 perfbench/compare.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are record files or directories of them (the
.bench_results/ directory of a checkout). Untraced records are grouped by
workload; for each end-to-end metric the two medians and quartiles are
printed with the change and, given BENCHMARK.json, whether it stays
within the metric's bound. Work counts are compared seed by seed.

Refuses (exit 2) to compare records whose host records differ in
threads, OMP_WAIT_POLICY, OMP_PROC_BIND, CPU model, active SIMD level or
precision, or whose runs had different lengths: timings from different
configurations say nothing about the code. Exits 1 when a metric got
worse by more than its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import END_TO_END, HOST_KEY  # noqa: E402


def load(path):
    p = Path(path)
    files = sorted(p.glob("*-t0.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark", help="BENCHMARK.json with the bounds")
    args = ap.parse_args()

    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("compare: no untraced records on one side", file=sys.stderr)
        return 2
    hosts = {tuple(r["host"].get(k) for k in HOST_KEY) for r in before + after}
    if len(hosts) > 1:
        print("compare: refusing to compare records from different host "
              "configurations:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEY, h)),
                  file=sys.stderr)
        return 2
    lengths = {r.get("seconds") for r in before + after}
    if len(lengths) > 1:
        print(f"compare: refusing to compare runs of different lengths: "
              f"{sorted(lengths, key=str)} s", file=sys.stderr)
        return 2

    bounds, better = {}, {}
    if args.benchmark:
        spec = json.loads(Path(args.benchmark).read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    regressions = 0
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        b = [r for r in before if r["workload"] == workload]
        a = [r for r in after if r["workload"] == workload]
        print(f"== {workload}: {len(b)} before, {len(a)} after ==")
        for name, unit in END_TO_END.items():
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            av = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            if not bv or not av:
                continue
            bq, aq = quartiles(bv), quartiles(av)
            change = (aq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change if better.get(name, "lower") == "lower" else -change
            verdict = ""
            if name in bounds:
                verdict = "REGRESSION" if worse > bounds[name] else "within bound"
                regressions += worse > bounds[name]
            print(f"  {name:<14} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}] -> "
                  f"{aq[1]:12.5g} [{aq[0]:.5g}, {aq[2]:.5g}] {unit:<4} "
                  f"{change:+7.1%} {verdict}")
        by_seed = {r["seed"]: r["counts"] for r in b}
        for r in a:
            old = by_seed.get(r["seed"])
            if old is None:
                continue
            for k in sorted(set(old) | set(r["counts"])):
                if old.get(k) != r["counts"].get(k):
                    print(f"  count {k} (seed {r['seed']}): {old.get(k)} -> {r['counts'].get(k)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
