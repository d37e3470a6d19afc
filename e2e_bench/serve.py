"""The ``serve`` workload: a closed loop of API clients against ``repro serve``.

The server runs as a subprocess (``--workers 1 --isolation process``) on
a fresh result cache inside ``results/``.  Each of :data:`CLIENTS` client
threads submits a job, follows its SSE stream to ``done``, fetches the
result, then submits the next (a closed loop: a slower server receives
less load).  Every job is a two-cell grid of the same small cell (CCT,
fair + ElephantTrap, WL1 x 60 jobs): one cell with a never-seen seed,
which the server executes and caches, and one repeating the client's
previous seed, which the queue resolves without executing.  So writes
(new cells, cache stores, POSTs) run beside reads (deduplicated cells,
SSE, result GETs), and serving overhead dominates the small cell.  Every
cell runs the same trace; only its simulation seed is new, so that the
work per job varies as little as the simulation workloads' cells do.

The load is a fixed number of jobs, sized from the run's length
(:data:`LOAD_JOBS_PER_S`): the server keeps every job it served, so its
memory grows with the job count, and a load that stopped on a clock
would make ``peak_rss_mb`` follow the host's speed.

Every time is scaled to the reference CPU by the speed sampled in this
process while it ran (:class:`common.SpeedSampler`).  The main thread
only waits here, so the sampler wakes on whichever CPU is free and its
readings average the CPUs the server and its cell processes run on.

The per-client rate limit is raised far above the loop's request rate so
that a faster server is never refused.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    CANONICAL_SEED,
    P90_MIN_SAMPLES,
    RESULTS_DIR,
    ROOT,
    SRC,
    SpeedSampler,
    median,
    p90,
    result_digest,
)

from repro.cluster.cluster import CCT_SPEC
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.serialize import result_to_dict
from repro.experiments.service import cell_to_doc
from repro.experiments.sweep import SweepCell, WorkloadSpec

CLIENTS = 2
CELL_JOBS = 60
#: server spawns timed for set-up (the last one serves the load)
SPAWNS = 11
#: API jobs per second of the run's length; the reference CPU serves
#: about 16 a second, which leaves time for the spawns and the checks
LOAD_JOBS_PER_S = 8
#: the :class:`common.SpeedSampler` sensitivity of the server's work
#: (see ``sim.SENSITIVITY``)
SENSITIVITY = 1.2
#: executed cells re-run in-process and compared with the served result
VERIFY_CELLS = 3
HTTP_TIMEOUT_S = 60.0


def cell(seed: int) -> SweepCell:
    config = ExperimentConfig(cluster_spec=CCT_SPEC, scheduler="fair",
                              dare=DareConfig.elephant_trap(), seed=seed)
    return SweepCell(config, WorkloadSpec("wl1", CELL_JOBS, CANONICAL_SEED),
                     tag=f"serve/{seed}")


def jobs_per_client(seconds: float) -> int:
    """Each client's share of the load for a run of ``seconds``: at least
    :data:`P90_MIN_SAMPLES` jobs in all, so that the 90th percentile is
    valid."""
    jobs = max(P90_MIN_SAMPLES, seconds * LOAD_JOBS_PER_S)
    return math.ceil(jobs / CLIENTS)


def job_seed(seed: int, client: int, k: int) -> int:
    """The new cell's seed of client ``client``'s ``k``-th job (k >= 1).

    Clients draw from disjoint ranges well clear of the canonical seed.
    """
    return (abs(seed) + 1) * 10_000_000 + client * 1_000_000 + k


# -- the server process ---------------------------------------------------------


def spawn_server(cache_dir: str, sampler: SpeedSampler) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns (process, port, scaled seconds to banner)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
         "--isolation", "process", "--cache-dir", cache_dir,
         "--rate", "100000", "--burst", "100000"],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, bufsize=1,
    )
    banner = proc.stdout.readline()
    elapsed = sampler.scale(started, time.perf_counter())
    if not banner.startswith("serving on http://"):
        stop_server(proc)
        raise RuntimeError(f"server did not come up: {banner.strip()!r}")
    return proc, int(banner.rsplit(":", 1)[1]), elapsed


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM, wait for the drain, kill if it hangs; returns its output."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


# -- the client -------------------------------------------------------------------


def request(port: int, method: str, path: str, client: str,
            body: Optional[Dict] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers={"X-Client-Id": client})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def follow(port: int, job_id: str, client: str) -> Tuple[bool, Optional[float], List[float]]:
    """Read the job's SSE stream to ``done``.

    Returns (saw done, time of the first ``cell started`` event, durations
    of the cells the server executed).
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    first_start: Optional[float] = None
    durations: List[float] = []
    kind = ""
    try:
        conn.request("GET", f"/api/jobs/{job_id}/events", headers={"X-Client-Id": client})
        resp = conn.getresponse()
        if resp.status != 200:
            return False, None, durations
        while True:
            line = resp.readline()
            if not line:
                return False, first_start, durations
            if line.startswith(b"event:"):
                kind = line.split(b":", 1)[1].strip().decode()
                if kind == "done":
                    return True, first_start, durations
            elif line.startswith(b"data:") and kind == "cell":
                data = json.loads(line.split(b":", 1)[1])
                if data.get("phase") == "started" and first_start is None:
                    first_start = time.perf_counter()
                elif data.get("phase") == "finished" and not data.get("from_cache"):
                    durations.append(float(data["duration_s"]))
    finally:
        conn.close()


class Job:
    """Timings (``perf_counter``) and outcome of one API job."""

    __slots__ = ("posted", "accepted", "started", "result_sent", "done", "ended",
                 "error", "exec_s")

    def __init__(self) -> None:
        self.posted = self.accepted = self.result_sent = self.done = self.ended = 0.0
        self.started: Optional[float] = None
        self.error = ""
        self.exec_s: List[float] = []


def run_job(port: int, client: str, seeds: List[int],
            digests: Dict[int, str]) -> Job:
    """Submit one grid and see it through; checks every cell's result.

    ``digests`` maps seeds already served to their digest: a repeated
    seed must come back identical, a new one is recorded.
    """
    job = Job()
    job.posted = time.perf_counter()
    job.error = _see_through(job, port, client, seeds, digests)
    job.ended = time.perf_counter()
    return job


def _see_through(job: Job, port: int, client: str, seeds: List[int],
                 digests: Dict[int, str]) -> str:
    """POST, follow, GET; returns what went wrong, or ''."""
    try:
        status, raw = request(port, "POST", "/api/jobs", client,
                              {"cells": [cell_to_doc(cell(s)) for s in seeds]})
        job.accepted = time.perf_counter()
        if status not in (200, 202):
            return f"POST answered {status}"
        job_id = json.loads(raw)["id"]
        saw_done, job.started, job.exec_s = follow(port, job_id, client)
        if not saw_done:
            return "SSE stream ended without done"
        job.result_sent = time.perf_counter()
        status, raw = request(port, "GET", f"/api/jobs/{job_id}/result", client)
        job.done = time.perf_counter()
        if status != 200:
            return f"result GET answered {status}"
        served = json.loads(raw)["cells"]
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        return f"transport: {exc!r}"
    if len(served) != len(seeds) or not all(c["ok"] for c in served):
        return "result document has failed or missing cells"
    for s, served_cell in zip(seeds, served):
        digest = result_digest(served_cell["result"])
        if digests.setdefault(s, digest) != digest:
            return f"seed {s}: result differs from the one served before"
    return ""


def client_loop(port: int, index: int, seed: int, count: int, jobs: List[Job],
                digests: Dict[int, str]) -> None:
    """Client ``index``: submit the next job when the previous finishes,
    ``count`` times.  The first job repeats the warm-up's canonical cell."""
    previous = CANONICAL_SEED
    for k in range(1, count + 1):
        new = job_seed(seed, index, k)
        jobs.append(run_job(port, f"bench-{index}", [new, previous], digests))
        previous = new


def run_load(port: int, seed: int, count: int,
             digests: Dict[int, str]) -> Tuple[List[Job], float, float]:
    """Every client runs ``count`` jobs; returns the jobs and when the load
    started and ended."""
    started = time.perf_counter()
    per_client: List[List[Job]] = [[] for _ in range(CLIENTS)]
    threads = [threading.Thread(target=client_loop,
                                args=(port, i, seed, count, per_client[i], digests))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [j for js in per_client for j in js], started, time.perf_counter()


# -- the workload ---------------------------------------------------------------------


def _cluster(port: int) -> Dict:
    status, raw = request(port, "GET", "/api/cluster", "bench-observer")
    if status != 200:
        raise RuntimeError(f"/api/cluster answered {status}")
    return json.loads(raw)


def _p50_ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def run(seed: int, seconds: float, golden: Optional[Dict]) -> Dict:
    with SpeedSampler(SENSITIVITY) as sampler:
        return _run(sampler, seed, seconds, golden)


def _run(sampler: SpeedSampler, seed: int, seconds: float, golden: Optional[Dict]) -> Dict:
    cache_dir = RESULTS_DIR / f"serve-cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    spawn_s: List[float] = []
    errors: List[str] = []
    warmups: List[Job] = []
    jobs: List[Job] = []
    digests: Dict[int, str] = {}
    proc = None
    try:
        for k in range(SPAWNS):
            spawned, port, elapsed = spawn_server(str(cache_dir), sampler)
            spawn_s.append(elapsed)
            if k < SPAWNS - 1:
                stop_server(spawned)
            else:
                proc = spawned

        # warm-up: both clients submit the canonical cell (one shared job)
        warmups = [run_job(port, f"bench-{i}", [CANONICAL_SEED], digests)
                   for i in range(CLIENTS)]
        errors.extend(f"warm-up: {job.error}" for job in warmups if job.error)
        before_load = _cluster(port)
        jobs, load_start, load_end = run_load(port, seed, jobs_per_client(seconds), digests)
        after_load = _cluster(port)
    finally:
        if proc is not None:
            drained = stop_server(proc)
            if proc.returncode != 0 or "server drained" not in drained:
                errors.append(f"server exited {proc.returncode} without a clean drain")
        shutil.rmtree(cache_dir, ignore_errors=True)

    ok = [j for j in jobs if not j.error]
    failed = sum(1 for j in warmups + jobs if j.error)
    # a dead server fails every job at once: keep the first few reasons
    errors.extend(f"job: {j.error}" for j in [j for j in jobs if j.error][:20])

    # re-run a few executed cells here and compare with what was served
    new_seeds = sorted(s for s in digests if s != CANONICAL_SEED)
    step = max(1, len(new_seeds) // VERIFY_CELLS)
    for s in new_seeds[::step][:VERIFY_CELLS]:
        local = result_digest(result_to_dict(
            run_experiment(cell(s).config, cell(s).workload.materialize())))
        if local != digests[s]:
            errors.append(f"seed {s}: served result differs from a local run")
            failed += 1

    canonical = {"serve/canonical": digests.get(CANONICAL_SEED, "")}
    golden_status = "written"
    if golden is not None:
        golden_status = "match" if golden == canonical else "mismatch"
        if golden_status == "mismatch":
            errors.append("canonical cell digest differs from golden.json")
            failed += 1

    scale = sampler.scale
    latencies = [scale(j.posted, j.ended) for j in ok]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    executed = after_load["cells_executed"] - before_load["cells_executed"]
    lookups = sum(after_load["cache"][k] - before_load["cache"][k]
                  for k in ("hits", "misses"))
    job_p90 = p90(latencies)
    load_s = scale(load_start, load_end)
    layers = {
        "server.submit_p50_ms": _p50_ms([scale(j.posted, j.accepted) for j in ok]),
        "server.result_p50_ms": _p50_ms([scale(j.result_sent, j.done) for j in ok]),
        "server.job_p50_ms": _p50_ms(latencies),
        "server.job_p90_ms": job_p90 * 1e3 if job_p90 is not None else 0.0,
        "server.jobs_per_s": len(ok) / load_s if load_s else 0.0,
        "experiments.queue_wait_p50_ms": _p50_ms(
            [scale(j.accepted, j.started) for j in ok if j.started is not None]),
        "experiments.cell_exec_p50_ms": _p50_ms(
            [d * sampler.speed_between(j.posted, j.ended) for j in ok for d in j.exec_s]),
        "experiments.cells_executed_per_job": executed / len(ok) if ok else 0.0,
        "experiments.cache_lookups_per_executed_cell": lookups / executed if executed else 0.0,
        "trace.overhead_ratio": 1.0,
        "trace.layer_coverage": 0.0,
    }
    # client seconds per completed job: a failed job's time counts, its
    # completion does not, so failing fast can never read as faster
    run_s = sum(scale(j.posted, j.ended) for j in jobs) / len(ok) if ok else 0.0
    return {
        "attempted": len(warmups) + len(jobs),
        "failed": failed,
        "errors": errors,
        "golden": {"status": golden_status, "digests": canonical},
        "digests": {str(seed): {f"serve/{s}": d for s, d in sorted(digests.items())}},
        "host_slowdown": sampler.slowdown(),
        "values": {"setup_s": median(spawn_s), "run_s": run_s, "peak_rss_mb": rss_mb},
        "samples": {"setup_s": spawn_s, "run_s": latencies or [0.0],
                    "peak_rss_mb": [rss_mb]},
        "layers": layers,
        "detail": {
            "jobs": len(jobs), "ok": len(ok), "load_wall_s": load_end - load_start,
            "load_scaled_s": load_s, "job_p90_ms_valid": job_p90 is not None,
        },
    }
