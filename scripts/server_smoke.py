#!/usr/bin/env python3
"""CI smoke test for ``repro serve`` — stdlib clients only.

Boots the HTTP server as a real subprocess, then checks the acceptance
path end to end:

1. four concurrent clients POST the same smoke grid; idempotency folds
   them onto one job (exactly one ``created: true``);
2. every client streams SSE until the ``done`` event, then GETs the
   result — each body must be byte-identical to the serial
   ``run_cells`` rendering computed in this process;
3. the queue executed each distinct cell exactly once
   (``cells_executed`` in ``/api/cluster``);
4. one ``stream: true`` job of new cells gets ``trace`` events on its
   SSE stream, which closes with ``done``, and its result is
   byte-identical to the serial one: its cells run in the same cell
   processes as every other cell;
5. a request burst from one client trips the 429 rate limit with a
   ``Retry-After`` header while an independent client still gets 200;
6. SIGTERM drains the server: it exits 0, reports the drain, and no
   process it started (its cell processes, one per executor) is still
   running a few seconds later.

Before the clients start, two malformed cells are posted: one whose
cluster has no map slots (a run that could never end) and one whose
workload is a file on the server.  Each must get a 400, and neither
may create a job.

The flow runs twice: against ``--cache-dir`` and against ``--no-cache``.
Without a cache the server keeps results in a private temporary cache;
that run starts the server with ``TMPDIR`` set to a fresh directory and
checks that the results were written there and are gone after the drain.

Run from the repo root: ``PYTHONPATH=src python scripts/server_smoke.py``
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.experiments.service import cell_to_doc
from repro.experiments.sweep import (
    build_grid,
    doc_to_text,
    outcomes_to_doc,
    run_cells,
)

GRID = "smoke"
N_JOBS = 8
SEED = 20110926
SPEC = {"grid": GRID, "n_jobs": N_JOBS, "seed": SEED}
CLIENTS = 4
#: the trace-streaming job: the same grid at another length, so new cells
STREAM_SPEC = {"grid": GRID, "n_jobs": 5, "seed": SEED, "stream": True}


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def request(port: int, method: str, path: str, client: str,
            body: dict | None = None) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"X-Client-Id": client})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw
    finally:
        conn.close()


def serial_text(spec: dict) -> bytes:
    """The serial ``run_cells`` result document of a named-grid spec."""
    cells = build_grid(spec["grid"], n_jobs=spec["n_jobs"], seed=spec["seed"])
    return doc_to_text(outcomes_to_doc(
        run_cells(cells, jobs=1), grid=spec["grid"], n_jobs=spec["n_jobs"],
        seed=spec["seed"], provenance=False,
    )).encode()


def stream_until_done(port: int, job_id: str, client: str) -> list[str]:
    """Follow the job's SSE stream; return the event kinds seen."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    kinds: list[str] = []
    try:
        conn.request("GET", f"/api/jobs/{job_id}/events",
                     headers={"X-Client-Id": client})
        resp = conn.getresponse()
        assert resp.status == 200, resp.status
        while True:
            line = resp.readline()
            if not line:
                break
            if line.startswith(b"event:"):
                kinds.append(line.split(b":", 1)[1].strip().decode())
            if kinds and kinds[-1] == "done":
                break
    finally:
        conn.close()
    return kinds


def client_run(port: int, index: int, out: dict) -> None:
    me = f"client-{index}"
    status, _, raw = request(port, "POST", "/api/jobs", me, SPEC)
    check(status in (200, 202), f"{me} POST accepted (status {status})")
    doc = json.loads(raw)
    kinds = stream_until_done(port, doc["id"], me)
    check(kinds[-1] == "done", f"{me} SSE stream ended with done")
    status, _, result = request(
        port, "GET", f"/api/jobs/{doc['id']}/result", me)
    check(status == 200, f"{me} result ready after done event")
    out[index] = {"id": doc["id"], "created": doc["created"],
                  "result": result}


def stream_job(port: int, serial: bytes) -> None:
    """A ``stream: true`` job streams its cells' trace records, closes
    its stream with ``done`` and serves the serial result."""
    status, _, raw = request(port, "POST", "/api/jobs", "streamer", STREAM_SPEC)
    check(status == 202, f"stream job accepted (status {status})")
    job_id = json.loads(raw)["id"]
    kinds = stream_until_done(port, job_id, "streamer")
    check(kinds.count("trace") > 0,
          f"stream job got trace events ({kinds.count('trace')})")
    check(kinds[-1] == "done", "stream job's SSE stream ended with done")
    status, _, result = request(
        port, "GET", f"/api/jobs/{job_id}/result", "streamer")
    check(status == 200 and result == serial,
          "stream job result byte-identical to serial run_cells")


def refused_cells(port: int) -> None:
    """Cells that cannot run, or that name a server path, get a 400 and
    create no job."""
    doc = cell_to_doc(build_grid(GRID, n_jobs=N_JOBS, seed=SEED)[0])
    no_slots = json.loads(json.dumps(doc))
    no_slots["config"]["cluster_spec"]["map_slots"] = 0
    server_file = json.loads(json.dumps(doc))
    server_file["workload"] = ["file", 5, 1, os.path.abspath(__file__)]
    for name, cell in (("no map slots", no_slots), ("file workload", server_file)):
        status, _, raw = request(port, "POST", "/api/jobs", "refused",
                                 {"cells": [cell]})
        check(status == 400, f"cell with {name} refused (status {status}: "
                             f"{json.loads(raw).get('error')})")
    status, _, raw = request(port, "GET", "/api/jobs", "refused")
    check(status == 200 and json.loads(raw)["jobs"] == [],
          "refused cells created no job")


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def children(pid: int) -> list[int]:
    """The running processes whose parent is ``pid``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            kids.append(int(stat.parent.name))
    return kids


def result_files(root: str) -> list[Path]:
    return list(Path(root).rglob("*.json"))


def serve_flow(serial: bytes, serial_stream: bytes, n_cells: int,
               cache_flags: list[str], tmpdir: str) -> None:
    """Boot ``repro serve`` with ``cache_flags`` and ``TMPDIR=tmpdir``,
    then drive the whole client flow against it."""
    print(f"-- repro serve {' '.join(cache_flags)}")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", *cache_flags, "--rate", "5", "--burst", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        bufsize=1, env=dict(os.environ, TMPDIR=tmpdir),
    )
    private = "--no-cache" in cache_flags
    try:
        banner = proc.stdout.readline()
        check(banner.startswith("serving on http://"),
              f"server came up ({banner.strip()!r})")
        port = int(banner.rsplit(":", 1)[1])
        refused_cells(port)

        # four concurrent clients, one shared grid
        results: dict = {}
        threads = [
            threading.Thread(target=client_run, args=(port, i, results))
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        check(len(results) == CLIENTS, "all clients finished")
        check(len({r["id"] for r in results.values()}) == 1,
              "identical submissions deduped onto one job")
        check(sum(r["created"] for r in results.values()) == 1,
              "exactly one submission created the job")
        for i in range(CLIENTS):
            check(results[i]["result"] == serial,
                  f"client-{i} result byte-identical to serial run_cells")

        status, _, raw = request(port, "GET", "/api/cluster", "observer")
        cluster = json.loads(raw)
        check(cluster["cells_executed"] == n_cells,
              f"each of the {n_cells} cells executed exactly once")
        check("cache" in cluster, "/api/cluster carries a cache block")
        if private:
            check(len(result_files(tmpdir)) == n_cells,
                  "results live in a private cache under TMPDIR")
        stream_job(port, serial_stream)

        # a burst trips the limiter; an independent client is unaffected
        codes = [request(port, "GET", "/api/healthz", "bursty")[0]
                 for _ in range(20)]
        check(codes.count(429) > 0, "burst client rate limited (429)")
        status, headers, _ = request(port, "GET", "/api/healthz", "bursty")
        if status == 429:
            check("Retry-After" in headers, "429 carries Retry-After")
        status, _, _ = request(port, "GET", "/api/healthz", "calm")
        check(status == 200, "independent client unaffected by the burst")

        # two executors ran the grid, each in its own cell process
        kids = children(proc.pid)
        check(len(kids) >= 2, f"the server runs cells in child processes ({kids})")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        check(proc.returncode == 0, "SIGTERM drained the server (exit 0)")
        check("server drained" in out, "drain was reported")
        deadline = time.monotonic() + 5.0
        while any(map(running, kids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in kids if running(pid)]
        check(not left, f"no process of the server outlived the drain ({left})")
        if private:
            check(not result_files(tmpdir),
                  "the private cache was removed at exit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def main() -> None:
    n_cells = len(build_grid(GRID, n_jobs=N_JOBS, seed=SEED))
    serial, serial_stream = serial_text(SPEC), serial_text(STREAM_SPEC)

    scratch = tempfile.mkdtemp(prefix="server-smoke-")
    try:
        for name, flags in (("cache", ["--cache-dir", f"{scratch}/cache"]),
                            ("no-cache", ["--no-cache"])):
            tmpdir = os.path.join(scratch, f"tmp-{name}")
            os.mkdir(tmpdir)
            serve_flow(serial, serial_stream, n_cells, flags, tmpdir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("server smoke passed")


if __name__ == "__main__":
    main()
