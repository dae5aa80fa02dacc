"""Black-box protocol suite for parlap_serve.

argv: <parlap_serve binary> <parlap_cli binary> <scripts dir>

Covers the serving contract of docs/SERVING.md end to end against the
real binary: request/response framing, streamed per-job results,
concurrent clients with a mixed workload, round-robin fairness, the
telemetry plane (unique request ids with per-phase timings, rolling
window stats reconciling with client-observed counts, and a Prometheus
/metrics scrape validated by scripts/check_exposition.py), and the
determinism acceptance property — the same job set run through
`parlap_cli batch` and through concurrent serve clients (shuffled
arrival order, several workers) yields bit-identical solution hashes —
and the file policy: "file:" graphs are refused unless the daemon runs
with --graph-root, and then confined to that directory.
"""

import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_client import Checker, ServeClient, ServeDaemon, fast_job, slow_job

HASH_RE = re.compile(r"^[0-9a-f]{16}$")


def test_basics(c, binary):
    with ServeDaemon(binary, workers=2) as d:
        with d.connect() as cl:
            pong = cl.request({"type": "ping"})
            c.check(pong.get("type") == "pong", "ping answered with pong")

            r = cl.request(fast_job("one"))
            c.check(r.get("status") == "ok", "solve status ok: %r" % r)
            c.check(r.get("id") == "one", "result carries the request id")
            c.check(r.get("converged") is True, "solve converged")
            c.check(HASH_RE.match(r.get("solution_hash", "")),
                    "solution_hash is 16 hex chars")
            for key in ("iterations", "relative_residual", "solve_seconds",
                        "wall_seconds", "queue_seconds", "cache_hit"):
                c.check(key in r, "result has %s" % key)

            st = cl.request({"type": "stats"})
            c.check(st.get("status") == "ok", "stats status ok")
            c.check(st.get("queue_depth") == 0, "stats queue_depth settles to 0")
            for key in ("p50", "p95", "p99", "count", "mean"):
                c.check(key in st.get("solve_seconds", {}),
                        "stats solve_seconds has %s" % key)
                c.check(key in st.get("queue_wait_seconds", {}),
                        "stats queue_wait_seconds has %s" % key)
            c.check("hit_rate" in st.get("cache", {}),
                    "stats cache has hit_rate")
            c.check(st["counters"]["completed"] >= 1,
                    "stats counters count the solve")


def test_streaming(c, binary):
    """Pipelined requests stream results back as they complete."""
    with ServeDaemon(binary, workers=2) as d:
        with d.connect() as cl:
            n = 6
            for i in range(n):
                cl.send(fast_job("s%d" % i, seed=i))
            got = {}
            for _ in range(n):
                r = cl.recv()
                got[r["id"]] = r
            c.check(sorted(got) == ["s%d" % i for i in range(n)],
                    "all pipelined jobs answered exactly once")
            c.check(all(r["status"] == "ok" for r in got.values()),
                    "all pipelined jobs succeeded")


def test_concurrent_mixed(c, binary):
    """>= 4 concurrent clients, mixed workload, per-client bookkeeping."""
    clients = 5
    per_client = 4
    failures = []

    def client_main(k):
        try:
            with d.connect() as cl:
                sent = []
                for j in range(per_client):
                    jid = "c%d_j%d" % (k, j)
                    if j == per_client - 1:
                        # One intentionally failing job per client: the
                        # engine reports it as a structured error result.
                        req = fast_job(jid)
                        req["method"] = "no-such-method"
                    elif j % 2 == 0:
                        req = fast_job(jid, seed=7)  # shared -> cache hits
                    else:
                        req = slow_job(jid, seed=k, n=24, eps=1e-6)
                    cl.send(req)
                    sent.append(jid)
                got = {}
                for _ in sent:
                    r = cl.recv()
                    got[r["id"]] = r
                if sorted(got) != sorted(sent):
                    failures.append("client %d: ids %s != %s"
                                    % (k, sorted(got), sorted(sent)))
                bad = sent[-1]
                if got[bad]["status"] != "error":
                    failures.append("client %d: bad method not an error" % k)
                for jid in sent[:-1]:
                    if got[jid]["status"] != "ok":
                        failures.append("client %d: %s not ok: %r"
                                        % (k, jid, got[jid]))
        except Exception as e:  # noqa: BLE001 - collected for the report
            failures.append("client %d: %r" % (k, e))

    with ServeDaemon(binary, workers=3) as d:
        threads = [threading.Thread(target=client_main, args=(k,))
                   for k in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        st = d.stats()
    c.check(not failures, "concurrent mixed workload: %s" % failures[:3])
    c.check(st["counters"]["completed"] >= clients * per_client,
            "stats counted every completed job")


def test_fairness(c, binary):
    """A one-job client is not stuck behind a flooding client."""
    with ServeDaemon(binary, workers=1) as d:
        flood = d.connect()
        n_flood = 10
        # Each flood job must outlast the 50 ms poll below by a margin, or
        # the backlog drains before the poll sees it: grid2d:96 builds
        # take about 0.1 s where grid2d:48's take about 0.02 s.
        for i in range(n_flood):
            flood.send(slow_job("flood%d" % i, seed=i, n=96))
        # Wait until the backlog is real.
        import time
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if d.stats()["queue_depth"] >= n_flood - 2:
                break
            time.sleep(0.05)
        with d.connect() as quick:
            quick.send(fast_job("quick"))
            r = quick.recv(timeout=120.0)
            c.check(r["id"] == "quick" and r["status"] == "ok",
                    "quick client got its result")
            depth_after = d.stats()["queue_depth"]
            c.check(depth_after >= 1,
                    "round-robin served the quick client ahead of the "
                    "flood backlog (depth after: %d)" % depth_after)
        for _ in range(n_flood):
            r = flood.recv(timeout=300.0)
            c.check(r["status"] == "ok", "flood job %s ok" % r.get("id"))
        flood.close()


def test_request_ids_and_window(c, binary):
    """Every response carries a unique admission-minted request id with
    a timing breakdown, and the last-60s window stats reconcile with
    what this client observed."""
    with ServeDaemon(binary, workers=2) as d:
        with d.connect() as cl:
            n = 5
            for i in range(n):
                cl.send(fast_job("rid%d" % i, seed=i))
            rids = []
            for _ in range(n):
                r = cl.recv()
                c.check(r.get("status") == "ok", "rid job ok: %r" % r)
                rid = r.get("request_id")
                c.check(isinstance(rid, int) and rid > 0,
                        "result carries a positive request_id: %r" % rid)
                rids.append(rid)
                t = r.get("timings", {})
                for key in ("queue_wait_ms", "build_ms", "solve_ms"):
                    c.check(isinstance(t.get(key), (int, float))
                            and t[key] >= 0,
                            "timings.%s is a non-negative number: %r"
                            % (key, t.get(key)))
                c.check(t.get("cache") in ("hit", "miss"),
                        "timings.cache is hit|miss: %r" % t.get("cache"))
            c.check(len(set(rids)) == n,
                    "request ids are unique: %r" % rids)

            # A shed/rejected answer is correlatable the same way.
            st = cl.request({"type": "stats"})
            w = st.get("window", {})
            c.check(w.get("window_seconds") == 60,
                    "window covers 60s: %r" % w.get("window_seconds"))
            # Run began seconds ago, so everything is inside the window.
            c.check(w.get("completed") == n,
                    "window completed (%r) reconciles with the %d solves "
                    "this client saw" % (w.get("completed"), n))
            c.check(w.get("shed") == 0, "nothing shed in this run")
            c.check(w.get("solve_seconds", {}).get("count") == n,
                    "window solve digest counts every solve")
            c.check(w.get("solve_seconds", {}).get("p99", 0) > 0,
                    "window p99 is a real measurement")
            c.check(st["solve_seconds"]["count"] == n,
                    "lifetime digest agrees with the window this early")


def http_get(port, target, payload_limit=4 << 20):
    """Raw HTTP/1.1 GET against the daemon's TCP listener; returns
    (status_line, headers dict, body bytes)."""
    s = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    try:
        s.sendall(("GET %s HTTP/1.1\r\nHost: localhost\r\n"
                   "Connection: close\r\n\r\n" % target).encode())
        data = b""
        while len(data) < payload_limit:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        s.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return lines[0], headers, body


def test_metrics_exposition(c, binary, scripts_dir):
    """GET /metrics during live traffic is a valid Prometheus scrape,
    and the TCP port comes from the stats config echo — not a flag the
    test hard-codes."""
    with ServeDaemon(binary, workers=2, extra_args=["--tcp", "0"]) as d:
        with d.connect() as cl:
            for i in range(3):
                cl.send(fast_job("m%d" % i, seed=i))
            for _ in range(3):
                cl.recv()

        port = d.stats()["config"]["tcp_port"]
        c.check(isinstance(port, int) and port > 0,
                "stats config echoes the bound tcp port: %r" % port)

        status, headers, body = http_get(port, "/metrics")
        c.check(status.startswith("HTTP/1.1 200"),
                "GET /metrics is 200: %r" % status)
        c.check(headers.get("content-type", "").startswith(
                    "text/plain; version=0.0.4"),
                "scrape content type: %r" % headers.get("content-type"))
        c.check(headers.get("content-length") == str(len(body)),
                "content-length matches the body")

        check = subprocess.run(
            [sys.executable,
             os.path.join(scripts_dir, "check_exposition.py"), "-"],
            input=body.decode(), capture_output=True, text=True)
        c.check(check.returncode == 0,
                "check_exposition.py accepts the scrape: %s%s"
                % (check.stdout, check.stderr))
        c.check(b"parlap_serve_completed_total 3" in body,
                "scrape counts the three completed solves")

        # /stats over HTTP and the JSON metrics verb serve the same data.
        status, headers, stats_body = http_get(port, "/stats")
        c.check(status.startswith("HTTP/1.1 200"), "GET /stats is 200")
        c.check(json.loads(stats_body)["counters"]["completed"] == 3,
                "HTTP stats agree with the JSON protocol")
        with d.connect() as cl:
            m = cl.request({"type": "metrics"})
            c.check(m.get("status") == "ok"
                    and "parlap_serve_requests_total" in m.get("text", ""),
                    "metrics verb returns the exposition inline")

        status, _, body404 = http_get(port, "/nope")
        c.check(status.startswith("HTTP/1.1 404"),
                "unknown target is a 404: %r" % status)


def deterministic_fields(r):
    """The per-job result fields that are a pure function of the job.

    cache_hit depends on arrival order and is left out; serve reports
    escalations under "timings"."""
    return {"converged": r.get("converged"),
            "iterations": r.get("iterations"),
            "escalations": r.get("escalations",
                                 r.get("timings", {}).get("escalations")),
            "precision": r.get("precision"),
            "relative_residual": r.get("relative_residual"),
            "solution_hash": r.get("solution_hash")}


def test_determinism_vs_batch(c, serve_bin, cli_bin):
    """Same jobs via batch CLI and via concurrent serve clients give
    bit-identical results, any worker count / arrival order, and on a
    daemon whose --simd forces the scalar kernels."""
    jobs = []
    for i in range(3):
        jobs.append({"id": "g%d" % i, "graph": "grid2d:16,16",
                     "method": "parlap", "eps": 1e-7, "seed": i,
                     "rhs": "random"})
    jobs.append({"id": "ws", "graph": "ws:150,4,0.2", "method": "parlap",
                 "eps": 1e-7, "seed": 11})
    jobs.append({"id": "cg", "graph": "gnm:120,480", "method": "cg",
                 "eps": 1e-7, "seed": 3})
    jobs.append({"id": "dem", "graph": "grid2d:16,16", "method": "parlap",
                 "eps": 1e-7, "seed": 5, "rhs": "demand:0,100"})

    with tempfile.TemporaryDirectory(prefix="pls_det_") as tmp:
        jobs_path = os.path.join(tmp, "jobs.jsonl")
        json_path = os.path.join(tmp, "batch.json")
        with open(jobs_path, "w") as f:
            for j in jobs:
                f.write(json.dumps(j) + "\n")
        subprocess.run(
            [cli_bin, "batch", "--jobs", jobs_path, "--workers", "2",
             "--cache-budget", "1000000", "--json", json_path],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(json_path) as f:
            batch = json.load(f)
    batch_results = {j["id"]: deterministic_fields(j) for j in batch["jobs"]}
    c.check(len(batch_results) == len(jobs)
            and all(j.get("ok") for j in batch["jobs"]),
            "batch solved every job")
    c.check(all(v is not None for r in batch_results.values()
                for v in r.values()),
            "batch reports every compared field: %r" % batch_results)

    def serve_all(d):
        """Solves the jobs on `d` from three concurrent clients."""
        serve_results = {}
        lock = threading.Lock()

        def submit(my_jobs):
            with d.connect() as cl:
                for j in my_jobs:
                    req = dict(j)
                    req["type"] = "solve"
                    cl.send(req)
                for _ in my_jobs:
                    r = cl.recv(timeout=300.0)
                    with lock:
                        serve_results[r["id"]] = deterministic_fields(r)

        shuffled = list(jobs)
        random.Random(0xC0FFEE).shuffle(shuffled)
        thirds = [shuffled[0::3], shuffled[1::3], shuffled[2::3]]
        threads = [threading.Thread(target=submit, args=(part,))
                   for part in thirds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return serve_results

    with ServeDaemon(serve_bin, workers=3) as d:
        serve_results = serve_all(d)
    c.check(serve_results == batch_results,
            "serve results match batch results: %r vs %r"
            % (serve_results, batch_results))

    with ServeDaemon(serve_bin, workers=3,
                     extra_args=("--simd", "scalar")) as d:
        with d.connect() as cl:
            config = cl.request({"type": "stats"}).get("config", {})
        c.check(config.get("simd_active") == "scalar",
                "--simd scalar is applied at startup: %r" % config)
        scalar_results = serve_all(d)
    c.check(scalar_results == batch_results,
            "--simd scalar serve results match batch results: %r vs %r"
            % (scalar_results, batch_results))


def test_file_graphs(c, binary, data_dir):
    """"file:" graph specs: refused without --graph-root, confined to it
    with one, and a refusal never quotes the file."""
    secret = "/etc/passwd"
    secret_text = ""
    if os.path.isfile(secret):
        with open(secret, errors="replace") as f:
            secret_text = f.read()
    secret_lines = [ln for ln in secret_text.splitlines() if ln.strip()]

    def refused(r, what):
        c.check(r.get("status") == "error", what + ": refused (%r)" % r)
        reply = json.dumps(r)
        c.check(not any(ln in reply for ln in secret_lines),
                what + ": the reply quotes none of the file")

    def job(job_id, graph):
        return {"type": "solve", "id": job_id, "graph": graph,
                "method": "parlap", "eps": 1e-6}

    with ServeDaemon(binary, workers=1) as d:
        with d.connect() as cl:
            refused(cl.request(job("etc", "file:" + secret)),
                    "no graph root, /etc/passwd")

    with tempfile.TemporaryDirectory(prefix="plr_") as root:
        fixture = os.path.join(data_dir, "grid5x5.mtx")
        with open(fixture) as src, \
                open(os.path.join(root, "grid.mtx"), "w") as dst:
            dst.write(src.read())
        os.symlink(secret, os.path.join(root, "escape.mtx"))
        os.mkdir(os.path.join(root, "sub"))
        with ServeDaemon(binary, workers=1,
                         extra_args=("--graph-root", root)) as d:
            with d.connect() as cl:
                for job_id, graph in (("abs", os.path.join(root, "grid.mtx")),
                                      ("rel", "grid.mtx"),
                                      ("inner", "sub/../grid.mtx")):
                    r = cl.request(job(job_id, "file:" + graph))
                    c.check(r.get("status") == "ok" and
                            r.get("converged") is True,
                            "graph root, %s path solves: %r" % (job_id, r))
                refused(cl.request(job("etc", "file:" + secret)),
                        "graph root, /etc/passwd")
                refused(cl.request(job("dotdot",
                                       "file:../../../../../../etc/passwd")),
                        "graph root, ../ escape")
                refused(cl.request(job("link", "file:escape.mtx")),
                        "graph root, symlink out of the root")
                refused(cl.request(job("dir", "file:sub")),
                        "graph root, a directory")
                r = cl.request(fast_job("gen"))
                c.check(r.get("status") == "ok",
                        "graph root, generated graphs still solve")


def main():
    serve_bin, cli_bin, scripts_dir = sys.argv[1], sys.argv[2], sys.argv[3]
    c = Checker()
    test_basics(c, serve_bin)
    test_streaming(c, serve_bin)
    test_concurrent_mixed(c, serve_bin)
    test_fairness(c, serve_bin)
    test_request_ids_and_window(c, serve_bin)
    test_metrics_exposition(c, serve_bin, scripts_dir)
    test_determinism_vs_batch(c, serve_bin, cli_bin)
    test_file_graphs(c, serve_bin,
                     os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir, "data"))
    c.finish("serve_protocol_test")


if __name__ == "__main__":
    main()
