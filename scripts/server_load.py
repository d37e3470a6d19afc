#!/usr/bin/env python3
"""k6-style load harness for ``repro serve`` — stdlib clients only.

Boots the server as a subprocess and drives it through ramped stages of
concurrent clients (2 -> 8 -> 16 by default), each firing a probe-heavy
request mix: ``GET /api/healthz`` latency probes with an occasional
``POST /api/jobs`` submission (distinct seeds, so every submission is a
genuinely new job).  What it measures — and what CI gates on — is the
backpressure envelope:

* per-stage latency percentiles (p50/p90/p99) of successful probes;
* **429** rejections once a client outruns its token bucket, every one
  of which must carry ``Retry-After``;
* **503** rejections once ``--max-jobs`` jobs are active (the bounded
  backlog pushing back instead of queueing without bound);
* nothing outside {200, 202, 429, 503} — any other status or a dropped
  connection fails the run;
* a calm watchdog client (one probe every 2 s, its own rate bucket)
  must see 200 for the whole run: overload may shed load, never hang
  the server;
* SIGTERM afterwards must drain cleanly (exit 0).

``--smoke`` is the 30-second CI profile used by the server-smoke job;
the default profile runs the same ramp over 120 s.  The per-stage
report is written as JSON (``--report``, default server_load.json).

Run from the repo root: ``PYTHONPATH=src python scripts/server_load.py``
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

#: concurrency ramp: (clients, fraction of the total duration)
STAGES: Tuple[Tuple[int, float], ...] = ((2, 0.2), (8, 0.3), (16, 0.5))

#: every Nth request per client is a job submission instead of a probe
SUBMIT_EVERY = 5

#: pause between requests per client (keeps 16 clients civil on 2 vCPUs)
THINK_S = 0.005

OK_STATUSES = frozenset({200, 202, 429, 503})


def request(
    port: int, method: str, path: str, client: str,
    body: Optional[dict] = None, timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"X-Client-Id": client})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw
    finally:
        conn.close()


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = round(q / 100.0 * (len(ordered) - 1))
    return ordered[idx]


class StageStats:
    """Thread-safe tally of one ramp stage."""

    def __init__(self, clients: int, duration_s: float) -> None:
        self.clients = clients
        self.duration_s = duration_s
        self.lock = threading.Lock()
        self.statuses: Counter = Counter()
        self.probe_latencies: List[float] = []
        self.missing_retry_after = 0
        self.transport_errors: List[str] = []

    def record(self, kind: str, status: int,
               headers: Dict[str, str], latency_s: float) -> None:
        with self.lock:
            self.statuses[status] += 1
            if kind == "probe" and status == 200:
                self.probe_latencies.append(latency_s)
            if status == 429 and "Retry-After" not in headers:
                self.missing_retry_after += 1

    def error(self, message: str) -> None:
        with self.lock:
            self.transport_errors.append(message)

    def report(self) -> Dict:
        total = sum(self.statuses.values())
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_s, 1),
            "requests": total,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "rejected_429": self.statuses[429],
            "rejected_503": self.statuses[503],
            "rejection_rate": round(
                (self.statuses[429] + self.statuses[503]) / total, 4
            ) if total else 0.0,
            "probe_p50_ms": round(percentile(self.probe_latencies, 50) * 1e3, 2),
            "probe_p90_ms": round(percentile(self.probe_latencies, 90) * 1e3, 2),
            "probe_p99_ms": round(percentile(self.probe_latencies, 99) * 1e3, 2),
            "transport_errors": len(self.transport_errors),
        }


def client_loop(
    port: int, client_id: str, deadline: float,
    stats: StageStats, seeds: "itertools.count",
) -> None:
    sent = 0
    while time.monotonic() < deadline:
        sent += 1
        if sent % SUBMIT_EVERY == 0:
            kind, method, path = "submit", "POST", "/api/jobs"
            body: Optional[dict] = {
                "grid": "smoke", "n_jobs": 8, "seed": next(seeds),
            }
        else:
            kind, method, path, body = "probe", "GET", "/api/healthz", None
        t0 = time.monotonic()
        try:
            status, headers, _ = request(port, method, path, client_id, body)
        except OSError as exc:
            stats.error(f"{client_id} {method} {path}: {exc}")
            continue
        stats.record(kind, status, headers, time.monotonic() - t0)
        time.sleep(THINK_S)


def watchdog_loop(port: int, stop: threading.Event,
                  failures: List[str]) -> None:
    """A calm client: one probe every 2 s must always get 200."""
    while not stop.wait(2.0):
        try:
            status, _, _ = request(port, "GET", "/api/healthz",
                                   "calm-watchdog", timeout=10.0)
        except OSError as exc:
            failures.append(f"watchdog: {exc}")
            continue
        if status != 200:
            failures.append(f"watchdog: healthz returned {status}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=120.0,
                        help="total seconds across all ramp stages")
    parser.add_argument("--smoke", action="store_true",
                        help="30-second CI profile (overrides --duration)")
    parser.add_argument("--report", default="server_load.json", metavar="PATH",
                        help="write the per-stage JSON report here")
    args = parser.parse_args()
    duration = 30.0 if args.smoke else args.duration

    cache_dir = tempfile.mkdtemp(prefix="server-load-cache-")
    # small bucket (429s appear as soon as a client outruns 10 req/s) and
    # tiny backlog (503s as soon as two jobs are active); each executor
    # runs its cells in one reused cell process, as every server does
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--no-cache",
         "--cache-dir", cache_dir, "--max-jobs", "2",
         "--rate", "10", "--burst", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        bufsize=1,
    )
    failures: List[str] = []
    stages: List[StageStats] = []
    try:
        banner = proc.stdout.readline()
        if not banner.startswith("serving on http://"):
            print(f"FAIL: server did not come up ({banner.strip()!r})",
                  file=sys.stderr)
            return 1
        port = int(banner.rsplit(":", 1)[1])
        print(f"server up on port {port}; "
              f"ramp {'/'.join(str(c) for c, _ in STAGES)} clients "
              f"over {duration:.0f}s")

        stop = threading.Event()
        watchdog_failures: List[str] = []
        watchdog = threading.Thread(
            target=watchdog_loop, args=(port, stop, watchdog_failures),
            daemon=True,
        )
        watchdog.start()

        seeds = itertools.count(1_000)
        for clients, fraction in STAGES:
            stage = StageStats(clients, duration * fraction)
            stages.append(stage)
            deadline = time.monotonic() + stage.duration_s
            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(port, f"load-{clients}-{i}", deadline, stage, seeds),
                )
                for i in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            rep = stage.report()
            print(f"  {clients:>3} clients {stage.duration_s:5.1f}s: "
                  f"{rep['requests']:>5} reqs  "
                  f"p50 {rep['probe_p50_ms']:6.1f}ms  "
                  f"p99 {rep['probe_p99_ms']:6.1f}ms  "
                  f"429s {rep['rejected_429']:>4}  "
                  f"503s {rep['rejected_503']:>4}")

        stop.set()
        watchdog.join(timeout=10)
        failures.extend(watchdog_failures)

        # -- verdicts over the whole run ---------------------------------
        unexpected = {
            status: count
            for stage in stages
            for status, count in stage.statuses.items()
            if status not in OK_STATUSES
        }
        if unexpected:
            failures.append(f"unexpected statuses: {unexpected}")
        transport = sum(len(s.transport_errors) for s in stages)
        if transport:
            failures.append(f"{transport} dropped/failed connections")
        if sum(s.statuses[429] for s in stages) == 0:
            failures.append("rate limiter never engaged (no 429)")
        missing = sum(s.missing_retry_after for s in stages)
        if missing:
            failures.append(f"{missing} 429 responses without Retry-After")
        if sum(s.statuses[503] for s in stages) == 0:
            failures.append("backlog never pushed back (no 503)")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures.append(
                f"server exited {proc.returncode} on SIGTERM drain"
            )
            sys.stderr.write(out)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    report = {
        "profile": "smoke" if args.smoke else "full",
        "duration_s": duration,
        "stages": [s.report() for s in stages],
        "failures": failures,
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.report}")

    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print("server load envelope passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
