#!/usr/bin/env python3
"""End-to-end contract test for parlap_cli (ctest suite `cli.e2e`).

Drives the installed binary exactly as a user would: solves a checked-in
Matrix Market fixture under every registered method, validates the JSON
report schema (docs/CLI.md), checks that the methods agree on the
solution, and exercises the documented failure modes (malformed input,
disconnected-graph RHS incompatibility, unknown method, usage errors)
with their exit codes.

Usage: cli_e2e_test.py <parlap_cli-binary> <tests/data-dir>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

EPS = 1e-8
METHODS = ["parlap", "parlap-lev", "cg", "cg-jacobi", "cg-tree", "ks16", "dense"]

failures = []


def check(cond, what):
    tag = "ok  " if cond else "FAIL"
    print(f"{tag} {what}")
    if not cond:
        failures.append(what)


def run(cli, *args, errors="strict"):
    return subprocess.run([str(cli), *args], capture_output=True, text=True,
                          errors=errors)


def load_solution(path):
    rows = [[float(v) for v in line.split()] for line in Path(path).read_text().split("\n") if line.strip()]
    cols = list(zip(*rows))
    # Solutions are defined up to a per-component constant; the fixture is
    # connected, so compare mean-centered vectors.
    out = []
    for col in cols:
        mean = sum(col) / len(col)
        out.append([v - mean for v in col])
    return out


def validate_solve_json(doc, method, n_runs):
    check(doc.get("schema") == "parlap-cli-solve-v1", f"{method}: json schema tag")
    md = doc.get("metadata", {})
    for key in ("commit", "timestamp_utc", "hostname", "compiler", "build_type", "threads"):
        check(key in md, f"{method}: metadata.{key} present")
    inp = doc.get("input", {})
    check(inp.get("vertices") == 25 and inp.get("edges") == 40,
          f"{method}: input dims 25/40, got {inp.get('vertices')}/{inp.get('edges')}")
    check(inp.get("components") == 1, f"{method}: one component")
    check(doc.get("method") == method, f"{method}: method echoed")
    check(doc.get("eps") == EPS, f"{method}: eps echoed")
    check(doc.get("setup_seconds", -1) >= 0, f"{method}: setup_seconds >= 0")
    stored = doc.get("stored_entries", 0)
    check(isinstance(stored, int) and stored >= 1,
          f"{method}: stored_entries >= 1, got {stored}")
    check(isinstance(doc.get("stored_bytes"), int) and doc["stored_bytes"] >= 1,
          f"{method}: stored_bytes >= 1, got {doc.get('stored_bytes')}")
    oc = doc.get("op_complexity", -1)
    check(abs(oc - stored / inp.get("edges", 1)) <= 1e-12 * max(oc, 1),
          f"{method}: op_complexity {oc} = stored_entries / input edges")
    runs = doc.get("runs", [])
    check(len(runs) == n_runs, f"{method}: {n_runs} run(s), got {len(runs)}")
    for r in runs:
        check(r.get("converged") is True, f"{method}: run converged")
        check(0 <= r.get("relative_residual", 1) <= EPS,
              f"{method}: residual {r.get('relative_residual')} <= eps")
        check(r.get("iterations", -1) >= 0 and r.get("solve_seconds", -1) >= 0,
              f"{method}: iterations/solve_seconds sane")
    check(doc.get("all_converged") is True, f"{method}: all_converged")


def main():
    cli = Path(sys.argv[1])
    data = Path(sys.argv[2])
    fixture = data / "grid5x5.mtx"
    with tempfile.TemporaryDirectory(prefix="parlap_cli_e2e_") as tmpdir:
        return run_checks(cli, data, fixture, Path(tmpdir))


def run_checks(cli, data, fixture, tmp):

    # --- every method solves the same fixture and the reports agree ------
    solutions = {}
    for method in METHODS:
        out_json = tmp / f"{method}.json"
        out_x = tmp / f"{method}.x"
        p = run(cli, "solve", "--input", str(fixture), "--method", method,
                "--eps", str(EPS), "--json", str(out_json), "--out", str(out_x))
        check(p.returncode == 0, f"{method}: exit 0 (got {p.returncode}: {p.stderr.strip()})")
        if p.returncode != 0:
            continue
        validate_solve_json(json.loads(out_json.read_text()), method, 1)
        solutions[method] = load_solution(out_x)[0]

    dense = solutions.get("dense")
    check(dense is not None, "dense solution available as ground truth")
    for method, x in solutions.items():
        err = max(abs(a - b) for a, b in zip(x, dense))
        check(err < 1e-5, f"{method}: matches dense ground truth (max err {err:.2e})")

    # --- multiple right-hand sides --------------------------------------
    out_json = tmp / "multi.json"
    p = run(cli, "solve", "--input", str(fixture), "--method", "parlap",
            "--rhs-random", "3", "--eps", str(EPS), "--json", str(out_json))
    check(p.returncode == 0, f"multi-rhs: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        validate_solve_json(json.loads(out_json.read_text()), "parlap", 3)

    # --- build-phase telemetry (docs/CLI.md "build" object) --------------
    out_json = tmp / "build_stats.json"
    p = run(cli, "solve", "--input", str(fixture), "--method", "parlap",
            "--build-stats", "--eps", str(EPS), "--json", str(out_json))
    check(p.returncode == 0, f"build-stats: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        doc = json.loads(out_json.read_text())
        build = doc.get("build", {})
        check(build.get("total_seconds", -1) >= 0 and
              build.get("base_seconds", -1) >= 0,
              "build-stats: build timings present")
        check(build.get("levels") == len(build.get("levels_detail", [])),
              "build-stats: one levels_detail entry per level")
        check(build.get("arena_allocations", -1) >= 0 and
              build.get("peak_arena_bytes", -1) >= 0,
              "build-stats: arena counters present")
        detail = build.get("levels_detail", [])
        for key in ("edges_scanned", "walked"):
            check(build.get(key, -1) >= 0 and
                  build.get(key) == sum(lvl.get(key, 0) for lvl in detail),
                  f"build-stats: {key} present and summed over levels")
        phases = build.get("phases", {})
        for key in ("degrees_seconds", "five_dd_seconds", "partition_seconds",
                    "walk_graph_seconds", "schur_seconds", "extract_seconds"):
            check(phases.get(key, -1) >= 0, f"build-stats: phases.{key}")
    # Methods outside the chain pipeline report no build object.
    out_json = tmp / "build_stats_cg.json"
    p = run(cli, "solve", "--input", str(fixture), "--method", "cg",
            "--build-stats", "--eps", str(EPS), "--json", str(out_json))
    check(p.returncode == 0, f"build-stats cg: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        check("build" not in json.loads(out_json.read_text()),
              "build-stats: cg reports no build object")

    # --- chain shape: one stored entry per (row, column) ---------------
    # Splitting puts many parallel copies of each edge into the level
    # graphs; the stored chain sums them. Storing every copy gives ~111
    # entries per input edge here, summing gives ~12.5.
    out_json = tmp / "grid48.json"
    p = run(cli, "solve", "--gen", "grid2d:48", "--seed", "1",
            "--build-stats", "--json", str(out_json))
    check(p.returncode == 0, f"chain shape: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        doc = json.loads(out_json.read_text())
        check(doc.get("op_complexity", 1e9) < 30,
              f"chain shape: grid2d:48 op_complexity {doc.get('op_complexity')} < 30")
        line = (f"chain: stored_entries {doc.get('stored_entries')}, "
                f"op_complexity ")
        check(any(l.startswith(line) and
                  l.endswith(f", stored_bytes {doc.get('stored_bytes')}")
                  for l in p.stdout.splitlines()),
              "chain shape: --build-stats prints the JSON's chain numbers")

    # --- outer loop: PCG needs no rebuild where Richardson needed one ---
    # On this path the paper's Richardson loop took 73 iterations and one
    # doubled-copies rebuild; the PCG outer loop converges on the first
    # chain in about 26.
    out_json = tmp / "path5000.json"
    p = run(cli, "solve", "--gen", "path:5000", "--seed", "42",
            "--rhs-random", "1", "--json", str(out_json))
    check(p.returncode == 0, f"path:5000: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        r = json.loads(out_json.read_text())["runs"][0]
        check(r.get("converged") is True and r.get("relative_residual", 1) <= EPS,
              f"path:5000: converged to eps ({r.get('relative_residual')})")
        check(r.get("escalations") == 0,
              f"path:5000: no escalation (got {r.get('escalations')})")

    # --- hard instances: converged means eps; never worse than x = 0 ----
    # Weights spanning 1e+-6 defeat some of these at eps 1e-8 (exit 1);
    # a failed solve must still report the true residual of an x no worse
    # than the zero start (relative residual 1).
    out_json = tmp / "hard.json"
    for graph in ("grid2d:32", "path:80", "barbell:60", "rmat:10"):
        for weights in ("unit", "powerlaw:1e-4,1e4,1", "powerlaw:1e-6,1e6,1"):
            what = f"hard {graph} {weights}"
            p = run(cli, "solve", "--gen", graph, "--weights", weights,
                    "--seed", "1", "--rhs-random", "1", "--json", str(out_json))
            check(p.returncode in (0, 1), f"{what}: exit 0 or 1 (got {p.returncode})")
            if p.returncode not in (0, 1):
                continue
            r = json.loads(out_json.read_text())["runs"][0]
            res = r.get("relative_residual", 2.0)
            check(res <= 1.0, f"{what}: residual {res} <= 1")
            if r.get("converged") is True:
                check(res <= EPS, f"{what}: converged residual {res} <= eps")
            check((p.returncode == 0) == (r.get("converged") is True),
                  f"{what}: exit code matches converged")

    # --- documented failure modes ---------------------------------------
    p = run(cli, "solve", "--input", str(data / "malformed.mtx"))
    check(p.returncode == 3, f"malformed mtx: exit 3 (got {p.returncode})")
    check("error" in p.stderr, "malformed mtx: message on stderr")

    p = run(cli, "solve", "--input", str(data / "disconnected.mtx"))
    check(p.returncode == 3, f"disconnected rhs: exit 3 (got {p.returncode})")
    check("incompatible" in p.stderr and "--project-rhs" in p.stderr,
          "disconnected rhs: explains the fix")

    p = run(cli, "solve", "--input", str(data / "disconnected.mtx"), "--project-rhs")
    check(p.returncode == 0, f"disconnected + --project-rhs: exit 0 (got {p.returncode})")

    p = run(cli, "solve", "--input", str(fixture), "--method", "nope")
    check(p.returncode == 3, f"unknown method: exit 3 (got {p.returncode})")
    check("known methods" in p.stderr and "parlap" in p.stderr,
          "unknown method: lists alternatives")

    p = run(cli, "solve", "--input", str(fixture), "--bogus-flag")
    check(p.returncode == 2, f"bad flag: exit 2 (got {p.returncode})")

    p = run(cli, "solve")
    check(p.returncode == 2, f"missing input: exit 2 (got {p.returncode})")

    # Demand endpoints are validated as 64-bit before narrowing to the
    # 32-bit vertex type (no silent truncation to a different system).
    p = run(cli, "solve", "--gen", "grid2d:5", "--rhs-demand", "4294967296,1")
    check(p.returncode == 3, f"overflowing demand id: exit 3 (got {p.returncode})")
    check("out of range" in p.stderr, "overflowing demand id: clear message")

    p = run(cli, "solve", "--gen", "path:1")
    check(p.returncode == 3, f"single-vertex default rhs: exit 3 (got {p.returncode})")
    check("single vertex" in p.stderr, "single-vertex: clear message")

    p = run(cli, "solve", "--gen", "grid2d:4294967297")
    check(p.returncode == 3, f"oversized generator: exit 3 (got {p.returncode})")
    check("vertex-id limit" in p.stderr, "oversized generator: clear message")

    p = run(cli, "solve", "--gen", "grid2d:5", "--rhs-random", "0")
    check(p.returncode == 2, f"--rhs-random 0: exit 2 (got {p.returncode})")

    # --- gen -> info round trip ------------------------------------------
    gen_path = tmp / "gen.mtx"
    p = run(cli, "gen", "--gen", "grid2d:6", "--out", str(gen_path))
    check(p.returncode == 0, f"gen: exit 0 (got {p.returncode})")
    info_json = tmp / "info.json"
    p = run(cli, "info", "--input", str(gen_path), "--json", str(info_json))
    check(p.returncode == 0, f"info: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        doc = json.loads(info_json.read_text())
        check(doc.get("schema") == "parlap-cli-info-v1", "info: schema tag")
        check(doc.get("vertices") == 36 and doc.get("edges") == 60,
              "info: grid2d:6 has 36 vertices / 60 edges")
        check(doc.get("components") == 1, "info: connected")

    # --- batch: engine, cache, and worker-count determinism ---------------
    jobs_file = data / "batch_jobs.jsonl"
    batch_docs = {}
    for workers in ("1", "4"):
        batch_json = tmp / f"batch{workers}.json"
        p = run(cli, "batch", "--jobs", str(jobs_file), "--workers", workers,
                "--json", str(batch_json))
        check(p.returncode == 0,
              f"batch workers={workers}: exit 0 (got {p.returncode}: {p.stderr.strip()})")
        if p.returncode != 0:
            continue
        batch_docs[workers] = json.loads(batch_json.read_text())

    if "4" in batch_docs:
        doc = batch_docs["4"]
        check(doc.get("schema") == "parlap-cli-batch-v3", "batch: schema tag")
        check(doc.get("all_converged") is True, "batch: all jobs converged")
        check(doc.get("cache", {}).get("hits", 0) > 0,
              "batch: repeated graphs produce cache hits")
        check(doc.get("block_width") == 1, "batch: default block width is 1")
        agg = doc.get("aggregate", {})
        check(agg.get("failed") == 0 and agg.get("succeeded") == agg.get("jobs"),
              "batch: aggregate counts consistent")
        check(agg.get("solves_per_second", 0) > 0, "batch: throughput reported")
        check(agg.get("p95_solve_seconds", 0) >= agg.get("p50_solve_seconds", 1),
              "batch: p95 >= p50")
        check(agg.get("panels") == agg.get("jobs"),
              "batch: width 1 puts every job in its own panel")
        check(agg.get("panel_occupancy") == 1.0,
              "batch: width-1 panels are full by definition")
        check(doc.get("cache", {}).get("build_seconds", -1) > 0,
              "batch: miss cost attributed in cache.build_seconds")
        check(len(doc.get("panels", [])) == agg.get("jobs"),
              "batch: per-panel telemetry present")
        check(agg.get("p99_solve_seconds", 0) >= agg.get("p95_solve_seconds", 1),
              "batch: p99 >= p95")
        metrics = doc.get("metrics", {})
        solve_m = metrics.get("solve_seconds", {})
        queue_m = metrics.get("queue_wait_seconds", {})
        check(solve_m.get("count", 0) == agg.get("jobs"),
              "batch: metrics.solve_seconds counts every job")
        check(0 <= solve_m.get("p50", -1) <= solve_m.get("p95", -1)
              <= solve_m.get("p99", -1),
              "batch: metrics solve percentiles monotone")
        check(queue_m.get("count", 0) == agg.get("panels"),
              "batch: metrics.queue_wait_seconds counts every task")
        check(0 <= queue_m.get("p50", -1) <= queue_m.get("p95", -1)
              <= queue_m.get("p99", -1),
              "batch: metrics queue percentiles monotone")
        check(0.0 <= metrics.get("cache_hit_rate", -1) <= 1.0,
              "batch: metrics.cache_hit_rate in [0, 1]")
        check(doc.get("cache", {}).get("single_flight_waits", -1) >= 0,
              "batch: cache.single_flight_waits present")
        for pn in doc.get("panels", []):
            check(pn.get("queue_seconds", -1) >= 0
                  and pn.get("exec_seconds", -1) >= 0,
                  "batch: panel queue/exec seconds present")
        for job in doc.get("jobs", []):
            check("build_seconds" in job and "build_arena_allocations" in job,
                  f"batch: job {job.get('id')} carries build-cost fields")
            check(job.get("panel_width") == 1 and "apply_seconds" in job,
                  f"batch: job {job.get('id')} carries panel fields")

    if set(batch_docs) == {"1", "4"}:
        a = batch_docs["1"]["jobs"]
        b = batch_docs["4"]["jobs"]
        check([j["id"] for j in a] == [j["id"] for j in b],
              "batch: job order is input order for every worker count")
        for ja, jb in zip(a, b):
            check(ja.get("solution_hash") == jb.get("solution_hash")
                  and ja.get("relative_residual") == jb.get("relative_residual")
                  and ja.get("iterations") == jb.get("iterations"),
                  f"batch: job {ja.get('id')} identical at workers 1 vs 4")

    # --- batch: panel grouping (--block-width) is bit-identical ----------
    blocked_json = tmp / "batch_blocked.json"
    p = run(cli, "batch", "--jobs", str(jobs_file), "--workers", "2",
            "--block-width", "4", "--json", str(blocked_json))
    check(p.returncode == 0,
          f"batch --block-width 4: exit 0 (got {p.returncode}: {p.stderr.strip()})")
    if p.returncode == 0 and "1" in batch_docs:
        blocked = json.loads(blocked_json.read_text())
        check(blocked.get("block_width") == 4, "batch: block_width echoed")
        agg = blocked.get("aggregate", {})
        check(0 < agg.get("panels", 0) < agg.get("jobs", 0),
              "batch: width 4 groups same-factorization jobs into panels")
        widths = [pn.get("width") for pn in blocked.get("panels", [])]
        check(max(widths, default=0) > 1, "batch: at least one multi-job panel")
        check(sum(widths) == agg.get("jobs"),
              "batch: every job lands in exactly one panel")
        for pn in blocked.get("panels", []):
            check(pn.get("solve_seconds", -1) >= 0
                  and pn.get("apply_seconds", -1) >= 0,
                  "batch: per-panel apply seconds reported")
        for ja, jb in zip(batch_docs["1"]["jobs"], blocked["jobs"]):
            check(ja.get("solution_hash") == jb.get("solution_hash")
                  and ja.get("iterations") == jb.get("iterations")
                  and ja.get("relative_residual") == jb.get("relative_residual"),
                  f"batch: job {ja.get('id')} identical at block width 1 vs 4")

    # --- batch: span tracing (--trace-out) -------------------------------
    trace_path = tmp / "trace.json"
    traced_json = tmp / "batch_traced.json"
    p = run(cli, "batch", "--jobs", str(jobs_file), "--workers", "2",
            "--block-width", "4", "--trace-out", str(trace_path),
            "--json", str(traced_json))
    check(p.returncode == 0,
          f"batch --trace-out: exit 0 (got {p.returncode}: {p.stderr.strip()})")
    if p.returncode == 0:
        trace = json.loads(trace_path.read_text())
        events = trace.get("traceEvents", [])
        check(len(events) > 0, "trace: events recorded")
        cats = {ev.get("cat") for ev in events}
        for cat in ("build", "apply", "cache", "queue", "cli"):
            check(cat in cats, f"trace: category {cat} present")
        bad = [ev for ev in events
               if ev.get("ph") != "X"
               or not isinstance(ev.get("ts"), (int, float))
               or not isinstance(ev.get("dur"), (int, float))]
        check(not bad, f"trace: all {len(events)} events are complete events")

    p = run(cli, "batch", "--jobs", str(data / "nope.jsonl"))
    check(p.returncode == 3, f"batch missing job file: exit 3 (got {p.returncode})")

    p = run(cli, "batch")
    check(p.returncode == 2, f"batch without --jobs: exit 2 (got {p.returncode})")

    bad_jobs = tmp / "bad.jsonl"
    bad_jobs.write_text('{"method": "parlap"}\n')  # no graph
    p = run(cli, "batch", "--jobs", str(bad_jobs))
    check(p.returncode == 3, f"batch malformed job: exit 3 (got {p.returncode})")
    check("line 1" in p.stderr, "batch malformed job: names the line")

    # A failing job is isolated: exit 1, the rest still solve. The report
    # stays valid UTF-8 when a job's graph (echoed in its error) holds a
    # raw 0xff byte.
    mixed_jobs = tmp / "mixed.jsonl"
    mixed_jobs.write_bytes(
        b'{"id": "good", "graph": "grid2d:6"}\n'
        b'{"id": "bad", "graph": "grid2d:6", "method": "no-such"}\n'
        b'{"id": "raw", "graph": "grid2d:\xff"}\n')
    mixed_json = tmp / "mixed.json"
    # stderr echoes the raw byte; only the JSON report must be UTF-8.
    p = run(cli, "batch", "--jobs", str(mixed_jobs), "--json", str(mixed_json),
            errors="replace")
    check(p.returncode == 1, f"batch with failing job: exit 1 (got {p.returncode})")
    check("no-such" in p.stderr, "batch with failing job: error surfaced")
    try:
        mixed = json.loads(mixed_json.read_bytes().decode("utf-8"))
    except (OSError, ValueError) as e:  # UnicodeDecodeError is a ValueError
        check(False, f"batch with failing job: JSON loads as strict UTF-8 ({e})")
        mixed = {}
    jobs = {j.get("id"): j for j in mixed.get("jobs", [])}
    check(jobs.get("good", {}).get("converged") is True,
          "batch with failing job: the good job solves")
    for bad in ("bad", "raw"):
        check(jobs.get(bad, {}).get("ok") is False and jobs[bad].get("error"),
              f"batch with failing job: job {bad} reports ok false and its error")

    # --- bench smoke ------------------------------------------------------
    bench_json = tmp / "bench.json"
    p = run(cli, "bench", "--family", "path", "--sizes", "64,128", "--reps", "1",
            "--json", str(bench_json))
    check(p.returncode == 0, f"bench: exit 0 (got {p.returncode})")
    if p.returncode == 0:
        doc = json.loads(bench_json.read_text())
        check(doc.get("experiment") == "cli-bench", "bench: experiment tag")
        check(len(doc.get("cases", [])) == 2, "bench: one case per size")

    # --- help is complete -------------------------------------------------
    p = run(cli, "help")
    check(p.returncode == 0, "help: exit 0")
    for method in METHODS:
        check(method in p.stdout, f"help: lists method {method}")

    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
