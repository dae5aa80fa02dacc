#!/usr/bin/env python3
"""End-to-end benchmark for parlap.

    python3 perfbench/run.py --workload oneshot|many_rhs|serve \
        --seed N --seconds S --trace 0|1

Builds the library, the parlap_serve daemon and the parlap_perfbench
driver from this checkout (into .bench_build/), runs one workload, checks
every answer, and prints a table of every metric with its unit followed
by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END below);
with --trace 1 the per-layer ones (PER_LAYER), measured by a traced run
that also writes its spans as a Chrome trace and reports each layer's
self time and the tracing overhead against the latest untraced run.

Workloads (eps 1e-8, fp64, two threads, OpenMP settings untouched):
  oneshot   `parlap_cli solve`: per graph a fresh factorization through
            SolverRegistry::create("parlap") and one width-1 solve.
  many_rhs  `parlap_cli batch`: SolveEngine::run with one worker and
            block width 8 on two graphs; warm-up builds are set-up, then
            timed warm batches.
  serve     `parlap_serve`: a spawned daemon driven in a closed loop by
            a fixed seeded request sequence, 95% hot graphs, 5% cold
            misses; a sample of hashes re-checked in process.

Every end-to-end metric is reported on every workload, over that
workload's operations (a graph answered from scratch, one RHS, one
request); see perfbench/README.md for the per-workload definitions:
  setup_s      set-up time (factorizations, warm-up, daemon start)
  op_ms        wall time per operation
  p50_ms       median latency of a user's request
  peak_rss_mb  peak RSS of the measured process (serve: the daemon)
Timings are medians over the samples (passes, batches, chunks of
answers, set-ups) taken while the host's CPU steal was lowest: the
quieter half. A run also prints the workload's own names (answer_s,
solve_s, rhs_ms, req_p50_ms, req_p99_ms, req_per_s), the tails and
fail_ratio.

Every record (metrics, deterministic work counts, host record) is kept
in .bench_results/; perfbench/compare.py compares two sets of them.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("oneshot", "many_rhs", "serve")

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.load_ms": "ms",
    "split.edges": "count",
    "split.copies": "count",
    "build.factor_s": "s",
    "build.levels": "count",
    "build.degrees_s": "s",
    "build.five_dd_s": "s",
    "build.partition_s": "s",
    "build.walk_graph_s": "s",
    "build.schur_s": "s",
    "build.extract_s": "s",
    "build.base_s": "s",
    "build.peak_arena_mb": "MB",
    "chain.stored_entries": "count",
    "chain.op_complexity": "ratio",
    "chain.value_mb": "MB",
    "chain.apply_ms.w1": "ms",
    "chain.apply_ms.w1.t1": "ms",
    "chain.apply_scaling": "ratio",
    "chain.apply_ms_per_rhs.w8": "ms",
    "chain.apply_ns_per_entry": "ns",
    "solver.iterations": "count",
    "solver.escalations": "count",
    "solver.apply_share": "ratio",
    "solver.first_solve_extra_s": "s",
    "solver.solve_many_ms_per_rhs.w8": "ms",
    "linalg.matvec_ms.w1": "ms",
    "linalg.matvec_ms.w8": "ms",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.single_flight_waits": "count",
    "engine.panel_occupancy": "ratio",
    "serve.shed_ratio": "ratio",
    "serve.error_ratio": "ratio",
    "baseline.cg_jacobi.rhs_ms": "ms",
    "baseline.cg_jacobi.iterations": "count",
    "ratio.rhs_ms_vs_cg": "ratio",
}

# Host facts two results must share before their timings are compared.
HOST_KEY = ("threads", "omp_wait_policy", "omp_proc_bind", "cpu_model",
            "simd_active", "precision")

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds the driver and daemon; returns paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no parlap sources at {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "build.log", "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                        "parlap_perfbench", "parlap_serve"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return BUILD / "parlap_perfbench", BUILD / "parlap" / "tools" / "parlap_serve"


def source_digest():
    """Names the code under test: the git commit when there is one, else a
    digest of the sources (a benchmark checkout is not a repository)."""
    if not (ROOT / ".git").exists():
        return "src-" + tree_digest()
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                    "--", "src", "tools", "CMakeLists.txt", "perfbench"],
                                   capture_output=True, text=True, timeout=10).stdout
            return rev.stdout.strip() + ("-dirty" if dirty.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + tree_digest()


def tree_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "tools", "bench/harness", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:12]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(driver_host):
    host = dict(driver_host)
    host.update({
        "omp_wait_policy": os.environ.get("OMP_WAIT_POLICY", "unset"),
        "omp_proc_bind": os.environ.get("OMP_PROC_BIND", "unset"),
        "cpu_model": cpu_model(),
        "nproc": str(os.cpu_count()),
        "commit": source_digest(),
    })
    return host


def record_path(workload, seed, trace):
    return RESULTS / f"{workload}-s{seed}-t{trace}.json"


def same_host(a, b):
    return all(a.get(k) == b.get(k) for k in HOST_KEY)


def check_counts(rec, previous):
    """Work counts must repeat exactly for the same seed, code and host."""
    if not previous or previous["host"].get("commit") != rec["host"]["commit"] \
            or previous.get("seconds") != rec["seconds"] \
            or not same_host(previous["host"], rec["host"]):
        return []
    return [f"count {k} was {previous['counts'][k]} in the previous run, now {v}"
            for k, v in rec["counts"].items()
            if k in previous["counts"] and previous["counts"][k] != v]


def untraced_base(rec):
    """The untraced record of the same workload, code and host to measure
    the tracing overhead against: the same seed if there is one, else the
    newest."""
    best, key = None, None
    for p in RESULTS.glob(f"{rec['workload']}-s*-t0.json"):
        try:
            r = json.loads(p.read_text())
        except (OSError, ValueError):
            continue
        if r["host"].get("commit") == rec["host"]["commit"] and same_host(r["host"], rec["host"]):
            k = (r["seed"] == rec["seed"], r.get("finished", 0))
            if key is None or k > key:
                best, key = r, k
    return best


def value_of(rec, name):
    if name in rec["metrics"]:
        return rec["metrics"][name]["value"]
    return rec["counts"].get(name)


def print_table(rec, overhead):
    def row(name, value, unit, note=""):
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {name:<34} {value:>14} {unit:<6} {note}")

    m = rec["metrics"]
    print(f"== {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['attempted']} attempted, {rec['failed']} failed ==")
    for group, names in (("end to end", END_TO_END), ("per layer", PER_LAYER)):
        print(f"{group}:")
        for name in names:
            if name in m:
                row(name, m[name]["value"], m[name]["unit"],
                    f"{m[name]['stat']}, n={m[name]['samples']}")
            elif name in rec["counts"]:
                row(name, rec["counts"][name], "count", "exact")
    print("workload metrics:")
    for name, x in sorted(m.items()):
        if name not in END_TO_END and name not in PER_LAYER:
            row(name, x["value"], x["unit"], f"{x['stat']}, n={x['samples']}")
    print("work counts (repeat exactly for a seed):")
    for name, v in sorted(rec["counts"].items()):
        row(name, v, "count")
    if rec.get("self_ms"):
        print("self time by layer (traced run):")
        for layer, ms in sorted(rec["self_ms"].items(), key=lambda kv: -kv[1]):
            row(layer, ms, "ms")
    if overhead:
        print("tracing overhead (this traced run minus the untraced run of seed "
              f"{rec['trace_overhead']['base_seed']}):")
        for name, d in overhead.items():
            row(name, d, END_TO_END[name])
    print("host: " + ", ".join(f"{k}={v}" for k, v in sorted(rec["host"].items())))
    for f in rec["failures"]:
        print(f"FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        driver, serve = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed ({e}); see .bench_build/build.log")
        return 3

    RESULTS.mkdir(exist_ok=True)
    run_dir = BUILD.parent / "run"
    run_dir.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace-{args.workload}-s{args.seed}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", str(serve), "--run-dir", str(run_dir),
           "--trace-file", str(trace_file)]
    # Own process group, so a daemon left by a crashed or stuck driver is
    # stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver failed with exit code {proc.returncode}")
        return 4
    rec = json.loads(lines[-1])
    rec["host"] = host_record(rec["host"])
    rec["finished"] = time.time()
    rec["seconds"] = args.seconds

    path = record_path(args.workload, args.seed, args.trace)
    previous = None
    if path.is_file():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = None
    problems = check_counts(rec, previous)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        v = value_of(rec, name)
        if v is None or not math.isfinite(v):
            problems.append(f"metric {name} missing")
            continue
        metrics[name] = {"value": v, "unit": unit}
    for name in END_TO_END:
        if not rec["metrics"].get(name, {}).get("value", 0) > 0:
            problems.append(f"end-to-end metric {name} is not positive")
    rec["failures"] += problems

    overhead = {}
    if args.trace:
        base = untraced_base(rec)
        if base:
            overhead = {k: rec["metrics"][k]["value"] - base["metrics"][k]["value"]
                        for k in END_TO_END if k in base["metrics"] and k in rec["metrics"]}
            rec["trace_overhead"] = dict(overhead, base_seed=base["seed"])
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")

    failed = rec["failed"] + len(problems)
    correct = failed == 0
    print_table(rec, overhead)
    print(json.dumps({"correct": correct, "attempted": rec["attempted"] + len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
