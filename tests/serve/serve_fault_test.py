"""Fault-injection suite for parlap_serve.

argv: <parlap_serve binary>

Malformed command lines exit 2 before the daemon starts. Hostile-client
behaviors the daemon must absorb without crashing, hanging, or leaking
admission-queue slots: malformed JSON, schema violations, oversized
lines, truncated lines followed by disconnects, disconnects with work
still queued, and silent clients against an idle timeout. After every abuse the daemon must still answer a well-formed
request, and its queue accounting must return to zero. CI also runs
this suite against the asan build.
"""

import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_client import Checker, ServeDaemon, fast_job, slow_job


def wait_for_quiet(d, timeout=60.0):
    """Polls stats until the queue is empty; returns the final stats."""
    deadline = time.monotonic() + timeout
    st = d.stats()
    while time.monotonic() < deadline:
        if st["queue_depth"] == 0 and st["in_flight"] == 0:
            return st
        time.sleep(0.05)
        st = d.stats()
    return st


def test_malformed(c, binary):
    with ServeDaemon(binary, workers=2) as d:
        with d.connect() as cl:
            for garbage in (b"{not json\n", b"[1,2,3]\n", b'"a string"\n',
                            b'{"type":42}\n', b"\x00\xff\xfe garbage\n"):
                cl.raw_send(garbage)
                r = cl.recv()
                c.check(r is not None and r.get("status") == "error",
                        "garbage %r answered with a structured error: %r"
                        % (garbage[:20], r))
            # Schema violations: parseable JSON, invalid job.
            for bad in ({"type": "solve", "id": "x"},          # no graph
                        {"type": "solve", "graph": "grid2d:4",
                         "eps": 5.0},                          # eps range
                        {"type": "solve", "graph": "grid2d:4",
                         "bogus_field": 1},                    # unknown key
                        {"type": "wibble"}):                   # unknown type
                r = cl.request(bad)
                c.check(r.get("status") == "error",
                        "invalid request %r rejected structurally: %r"
                        % (bad, r))
            # The session survived all of it.
            r = cl.request(fast_job("after"))
            c.check(r.get("status") == "ok",
                    "session still solves after malformed traffic")
        c.check(d.stats()["counters"]["errors"] >= 9,
                "error counter saw the malformed traffic")


def test_oversized_line(c, binary):
    with ServeDaemon(binary, workers=1,
                     extra_args=["--max-line-bytes", "4096"]) as d:
        with d.connect() as cl:
            big = b'{"type":"solve","graph":"' + b"x" * 8192 + b'"}\n'
            cl.raw_send(big)
            r = cl.recv()
            c.check(r is not None and "exceeds" in r.get("error", ""),
                    "oversized line answered with a limit error: %r" % r)
            r = cl.request(fast_job("after_big"))
            c.check(r.get("status") == "ok",
                    "session usable after an oversized line")


def test_truncated_then_disconnect(c, binary):
    with ServeDaemon(binary, workers=1) as d:
        # Half a request, no newline, then vanish.
        cl = d.connect()
        cl.raw_send(b'{"type":"solve","graph":"grid2d')
        cl.close()
        # Same, mid-flood: some complete requests, then a truncated one.
        cl = d.connect()
        for i in range(4):
            cl.send(slow_job("t%d" % i, seed=i))
        cl.raw_send(b'{"type":"solve","gra')
        cl.close()
        st = wait_for_quiet(d)
        c.check(st["queue_depth"] == 0 and st["in_flight"] == 0,
                "queue slots reclaimed after disconnects: %r"
                % {k: st[k] for k in ("queue_depth", "in_flight")})
        with d.connect() as probe:
            r = probe.request(fast_job("alive"))
            c.check(r.get("status") == "ok",
                    "daemon alive after truncated-line disconnects")


def test_disconnect_with_queued_work(c, binary):
    with ServeDaemon(binary, workers=1) as d:
        cl = d.connect()
        for i in range(8):
            cl.send(slow_job("q%d" % i, seed=10 + i))
        # Give the daemon a moment to admit them, then vanish.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if d.stats()["counters"]["admitted"] >= 8:
                break
            time.sleep(0.02)
        cl.close()
        st = wait_for_quiet(d, timeout=120.0)
        c.check(st["queue_depth"] == 0,
                "queued jobs of a dead client purged (depth %d)"
                % st["queue_depth"])
        c.check(st["queued_bytes"] == 0,
                "queued bytes refunded (got %d)" % st["queued_bytes"])
        with d.connect() as probe:
            r = probe.request(fast_job("alive2"))
            c.check(r.get("status") == "ok",
                    "daemon solves for new clients after the purge")


def test_idle_timeout(c, binary):
    with ServeDaemon(binary, workers=1,
                     extra_args=["--idle-timeout-ms", "300"]) as d:
        silent = d.connect()
        # Never writes anything. The daemon must reap it...
        c.check(silent.recv_eof(timeout=30.0),
                "silent client reaped by the idle timeout")
        # ...but never reap a session with work in flight or recent talk.
        with d.connect() as busy:
            for _ in range(6):
                r = busy.request(fast_job("tick"), timeout=30.0)
                c.check(r.get("status") == "ok", "active session not reaped")
                time.sleep(0.15)
        # The idle clock restarts when an answer is delivered: a cold solve
        # that outlasts the timeout leaves its session open for more work.
        # The grid grows until a solve outlasts the timeout, so the check
        # does not depend on the host's speed; after every answer the same
        # connection must answer a ping.
        with d.connect() as slow:
            for n in (96, 128, 160, 192):
                r = slow.request(slow_job("cold%d" % n, seed=99, n=n),
                                 timeout=300.0)
                c.check(r is not None and r.get("status") == "ok",
                        "cold %d^2 solve answered: %r" % (n, r))
                wall = (r or {}).get("wall_seconds", 0.0)
                try:
                    pong = slow.request({"type": "ping"}, timeout=30.0)
                except OSError as e:
                    pong = {"error": repr(e)}
                if not c.check(pong is not None and pong.get("type") == "pong",
                               "session answered after a %.2f s solve: %r"
                               % (wall, pong)):
                    break
                if wall > 0.3:
                    break
            else:
                print("note: no cold solve outlasted the 300 ms idle timeout")
        st = d.stats()
        c.check(st["counters"]["idle_reaped"] >= 1,
                "idle_reaped counter incremented")


def test_usage_errors(c, binary):
    """Malformed command lines exit 2 before the daemon binds anything."""
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "s.sock")
        cases = (
            (["--socket", sock, "--bogus"], "unknown flag"),
            (["--socket", sock, "--workers"], "flag missing its value"),
            (["--socket", sock, "--workers", "two"], "non-integer --workers"),
            (["--socket", sock, "--event-log", "--metrics"],
             "a flag taken as --event-log's value"),
        )
        for args, what in cases:
            try:
                p = subprocess.run([binary] + args, capture_output=True,
                                   text=True, timeout=30)
                rc = p.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout (the daemon started)"
            c.check(rc == 2, "%s exits 2 (rc=%s)" % (what, rc))
            c.check(not os.path.exists(sock), "%s binds no socket" % what)


def main():
    binary = sys.argv[1]
    c = Checker()
    test_usage_errors(c, binary)
    test_malformed(c, binary)
    test_oversized_line(c, binary)
    test_truncated_then_disconnect(c, binary)
    test_disconnect_with_queued_work(c, binary)
    test_idle_timeout(c, binary)
    c.finish("serve_fault_test")


if __name__ == "__main__":
    main()
