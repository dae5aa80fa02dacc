"""Black-box suite for parlap_top, the live daemon monitor.

argv: <parlap_serve binary> <parlap_top binary>

Drives parlap_top against a live daemon: a --count 1 --plain snapshot
renders the queue/counter/window/cache lines from real stats, the
digest table carries the solves the test just ran, repeated polls
refresh, and the exit-code contract holds (2 on usage errors, 3 when
the first poll cannot reach a daemon).
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_client import Checker, ServeDaemon, fast_job


def run_top(args, timeout=60.0):
    return subprocess.run(args, capture_output=True, text=True,
                          timeout=timeout)


def test_snapshot(c, serve_bin, top_bin):
    with ServeDaemon(serve_bin, workers=2) as d:
        with d.connect() as cl:
            for i in range(4):
                cl.send(fast_job("t%d" % i, seed=i))
            for _ in range(4):
                cl.recv()

        top = run_top([top_bin, "--socket", d.socket_path,
                       "--count", "1", "--plain"])
        c.check(top.returncode == 0,
                "one-shot snapshot exits 0: %s" % top.stderr)
        out = top.stdout
        c.check(out.startswith("parlap_top"), "header line present")
        c.check("\x1b[" not in out, "--plain suppresses ANSI escapes")
        for token in ("workers 2", "queue 0/", "completed 4",
                      "cache hit rate", "solve (60s)", "solve (life)",
                      "queue (60s)", "p99_ms"):
            c.check(token in out, "snapshot shows %r" % token)
        c.check("solves/s" in out and "shed rate" in out,
                "window throughput line present")

        # The 60s digest row actually carries this test's four solves.
        for line in out.splitlines():
            if line.startswith("solve (60s)"):
                count = line.split()[2]
                c.check(count == "4",
                        "window digest row counts the solves: %r" % line)
                break
        else:
            c.check(False, "no solve (60s) row in:\n%s" % out)

        # Multi-poll mode keeps refreshing (2 polls, short interval).
        multi = run_top([top_bin, "--socket", d.socket_path,
                         "--count", "2", "--interval-ms", "50", "--plain"])
        c.check(multi.returncode == 0, "two-poll run exits 0")
        c.check(multi.stdout.count("parlap_top") == 2,
                "two polls render two headers")

        # TCP target works the same way when the daemon listens there.
    with ServeDaemon(serve_bin, workers=1,
                     extra_args=["--tcp", "0"]) as d:
        port = d.stats()["config"]["tcp_port"]
        top = run_top([top_bin, "--tcp", str(port),
                       "--count", "1", "--plain"])
        c.check(top.returncode == 0,
                "tcp-target snapshot exits 0: %s" % top.stderr)
        c.check("workers 1" in top.stdout, "tcp snapshot shows config")


def test_exit_codes(c, top_bin):
    usage = run_top([top_bin])
    c.check(usage.returncode == 2, "no target is a usage error (rc=%s)"
            % usage.returncode)
    usage = run_top([top_bin, "--socket", "/tmp/x", "--bogus"])
    c.check(usage.returncode == 2, "unknown flag is a usage error")
    usage = run_top([top_bin, "--socket", "--plain", "--count", "1"])
    c.check(usage.returncode == 2,
            "a flag is not taken as --socket's value (rc=%s)"
            % usage.returncode)
    dead = run_top([top_bin, "--socket", "/tmp/definitely_not_a_daemon.sock",
                    "--count", "1"])
    c.check(dead.returncode == 3,
            "unreachable daemon on the first poll exits 3 (rc=%s)"
            % dead.returncode)


def main():
    serve_bin, top_bin = sys.argv[1], sys.argv[2]
    c = Checker()
    test_snapshot(c, serve_bin, top_bin)
    test_exit_codes(c, top_bin)
    c.finish("serve_monitor_test")


if __name__ == "__main__":
    main()
