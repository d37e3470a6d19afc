"""The HTTP front door: REST API, SSE streaming, backpressure, restart.

Four layers:

* unit tests of the building blocks — :class:`RecordStream` (bounded
  sequenced fan-out), :class:`RateLimiter` (token buckets under a fake
  clock), and submission-spec validation;
* :class:`TestJobManager` — the job manager against the in-process
  work queue: cross-job cell dedupe, cache pre-resolution (a warm grid
  completes at submit with zero ``run_experiment`` calls), idempotent
  resubmission, bounded backlog, completions fanned out to every job
  holding the cell;
* :class:`TestServerHTTP` — a real asyncio server on a loopback port
  driven by ``http.client``: the full POST → SSE → GET loop
  byte-identical to serial ``run_cells``, four concurrent clients
  converging on one shared execution, 429 under burst, 4xx/5xx edges,
  and journal-backed restart resuming a half-done grid;
* a subprocess test sending a real SIGTERM to ``repro serve`` and
  expecting a clean drain.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import DareConfig
from repro.experiments.jobs import (
    JOB_DONE,
    JOB_FAILED,
    Job,
    JobManager,
    JobRejected,
    RUNNING,
    parse_job_spec,
    server_queue,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.serialize import result_to_dict
from repro.experiments.service import cell_to_doc
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    build_grid,
    doc_to_text,
    outcomes_to_doc,
    run_cells,
)
from repro.observability.stream import RecordStream
from repro.server.jobstore import JobJournal, restore
from repro.server.ratelimit import RateLimiter, TokenBucket

SEED = 20110926
N_JOBS = 4  # tiny cells keep the suite fast


def _cell(tag: str, seed: int = SEED) -> SweepCell:
    config = ExperimentConfig(dare=DareConfig.elephant_trap(), seed=seed)
    return SweepCell(config, WorkloadSpec("wl1", N_JOBS, seed), tag=tag)


CELLS = tuple(_cell(f"c{i}", SEED + i) for i in range(3))
SMOKE_SPEC = {"grid": "smoke", "n_jobs": N_JOBS, "seed": SEED}


def smoke_serial_text() -> str:
    """The serial-path result document for SMOKE_SPEC, via the shared
    serializer (this is the byte-identity oracle)."""
    cells = build_grid("smoke", n_jobs=N_JOBS, seed=SEED)
    outcomes = run_cells(cells, jobs=1)
    return doc_to_text(outcomes_to_doc(
        outcomes, grid="smoke", n_jobs=N_JOBS, seed=SEED, provenance=False,
    ))


@pytest.fixture(scope="module")
def smoke_serial():
    return smoke_serial_text()


# -- RecordStream -------------------------------------------------------------


class TestRecordStream:
    def test_publish_and_read(self):
        s = RecordStream(capacity=8)
        assert s.publish("a", {"n": 1}) == 1
        assert s.publish("b", {"n": 2}) == 2
        events, dropped, closed = s.read_since(0)
        assert [(e.seq, e.kind) for e in events] == [(1, "a"), (2, "b")]
        assert dropped == 0 and not closed
        events, dropped, closed = s.read_since(1)
        assert [e.kind for e in events] == ["b"]

    def test_reader_detects_evictions(self):
        s = RecordStream(capacity=3)
        for n in range(10):
            s.publish("e", {"n": n})
        events, dropped, _ = s.read_since(0)
        assert [e.seq for e in events] == [8, 9, 10]
        assert dropped == 7  # seqs 1..7 evicted before this reader arrived

    def test_caught_up_reader_after_eviction_drops_nothing(self):
        s = RecordStream(capacity=2)
        for n in range(5):
            s.publish("e", {"n": n})
        events, dropped, _ = s.read_since(4)
        assert [e.seq for e in events] == [5] and dropped == 0

    def test_close_drains_then_stops(self):
        s = RecordStream()
        s.publish("a", {})
        s.close()
        events, _, closed = s.read_since(0)
        assert closed and len(events) == 1
        assert s.publish("b", {}) == 1  # ignored after close
        assert s.read_since(1) == ([], 0, True)

    def test_fully_drained_reader_sees_pending_drop_count(self):
        s = RecordStream(capacity=2)
        for n in range(5):
            s.publish("e", {"n": n})
        _, dropped, _ = s.read_since(5)
        assert dropped == 0
        _, dropped, _ = s.read_since(1)  # stale cursor, ring moved on
        assert dropped == 2

    def test_waiters_fire_on_publish_and_close(self):
        s = RecordStream()
        hits = []
        s.add_waiter(lambda: hits.append("x"))
        s.publish("a", {})
        s.close()
        assert hits == ["x", "x"]
        s2 = RecordStream()
        wake = lambda: hits.append("y")  # noqa: E731
        s2.add_waiter(wake)
        s2.remove_waiter(wake)
        s2.publish("a", {})
        assert "y" not in hits


# -- rate limiting ------------------------------------------------------------


class TestRateLimit:
    def test_bucket_burst_then_refill(self):
        b = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert b.acquire(0.0) == 0.0
        assert b.acquire(0.0) == 0.0
        wait = b.acquire(0.0)
        assert wait == pytest.approx(1.0)
        assert b.acquire(1.5) == 0.0  # refilled

    def test_limiter_is_per_client(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert limiter.check("alice") == (True, 0.0)
        ok, wait = limiter.check("alice")
        assert not ok and wait > 0
        assert limiter.check("bob")[0]  # separate bucket
        clock[0] = 2.0
        assert limiter.check("alice")[0]
        assert limiter.allowed == 3 and limiter.limited == 1

    def test_eviction_bounds_client_table(self):
        clock = [0.0]
        limiter = RateLimiter(
            rate=10.0, burst=1.0, max_clients=4, clock=lambda: clock[0]
        )
        for n in range(4):
            limiter.check(f"c{n}")
        clock[0] = 10.0  # all buckets refill to full -> evictable
        limiter.check("c-new")
        assert len(limiter) <= 2  # stale buckets dropped, new one added


# -- submission validation ----------------------------------------------------


class TestParseJobSpec:
    def test_named_grid(self):
        cells, spec = parse_job_spec({"grid": "smoke", "n_jobs": 4})
        assert len(cells) == 2 and spec["grid"] == "smoke"
        assert not spec["stream"]

    def test_explicit_cells(self):
        doc = {"cells": [cell_to_doc(c) for c in CELLS[:2]]}
        cells, spec = parse_job_spec(doc)
        assert cells == list(CELLS[:2]) and spec["grid"] == "custom"

    def test_check_invariants_applies_to_cells(self):
        cells, _ = parse_job_spec(
            {"grid": "smoke", "n_jobs": 4, "check_invariants": True}
        )
        assert all(c.config.check_invariants for c in cells)

    @pytest.mark.parametrize("doc,match", [
        ([1, 2], "JSON object"),
        ({"grid": "smoke", "bogus": 1}, "unknown field"),
        ({"grid": "no-such-grid"}, "unknown grid"),
        ({"grid": 7}, "'grid' must be"),
        ({"n_jobs": 0}, "'n_jobs' must be"),
        ({"n_jobs": True}, "'n_jobs' must be"),
        ({"seed": "x"}, "'seed' must be"),
        ({"cells": []}, "'cells' must be"),
        ({"cells": [{"bad": 1}]}, "malformed cell"),
    ])
    def test_rejections_are_400(self, doc, match):
        with pytest.raises(JobRejected, match=match) as err:
            parse_job_spec(doc)
        assert err.value.status in (400,)


# -- the job manager over the in-process queue --------------------------------


def make_manager(tmp_path, **kwargs):
    defaults = dict(
        cache=ResultCache(tmp_path / "cache"),
        workers=2,
        isolation="thread",
    )
    defaults.update(kwargs)
    return JobManager(**defaults)


def wait_for(predicate, timeout=60.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


class TestJobManager:
    def test_submit_executes_and_finishes(self, tmp_path):
        manager = make_manager(tmp_path).start()
        try:
            job, created = manager.submit(
                {"cells": [cell_to_doc(c) for c in CELLS[:2]]}
            )
            assert created and job.state == RUNNING
            wait_for(lambda: not job.active, what="job completion")
            assert job.state == JOB_DONE
            doc = manager.job_result_doc(job)
            assert [c["ok"] for c in doc["cells"]] == [True, True]
            assert manager.cells_executed == 2
        finally:
            manager.stop()

    def test_warm_cache_completes_at_submit_with_zero_runs(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        run_cells(list(CELLS[:2]), jobs=1, cache=cache)  # warm it
        manager = make_manager(tmp_path, cache=cache)  # executors never started
        import repro.experiments.sweep as sweep_mod

        def boom(*a, **k):  # any execution attempt is a failure
            raise AssertionError("run_experiment called on a warm grid")

        monkeypatch.setattr(sweep_mod, "run_experiment", boom)
        job, created = manager.submit(
            {"cells": [cell_to_doc(c) for c in CELLS[:2]]}
        )
        assert created
        assert job.state == JOB_DONE  # settled synchronously at submit
        assert manager.cells_executed == 0
        progress = manager.job_status_doc(job)["progress"]
        assert progress == {"total": 2, "done": 2, "cached": 2, "failed": 0}

    def test_resubmission_is_idempotent(self, tmp_path):
        manager = make_manager(tmp_path)
        spec = {"cells": [cell_to_doc(CELLS[0])]}
        job1, created1 = manager.submit(spec)
        job2, created2 = manager.submit(spec)
        assert created1 and not created2
        assert job1 is job2
        job3, _ = manager.submit(
            {"cells": [cell_to_doc(CELLS[0])], "idempotency_key": "mine"}
        )
        assert job3 is not job1  # explicit key = distinct identity

    def test_overlapping_jobs_share_cells(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.submit({"cells": [cell_to_doc(c) for c in CELLS[:2]]})
        manager.submit({"cells": [cell_to_doc(c) for c in CELLS[1:3]]})
        assert len(manager.queue.entries) == 3  # not 4: middle cell shared

    def test_backlog_bound_rejects_with_503(self, tmp_path):
        manager = make_manager(tmp_path, max_queued_jobs=1)
        manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        with pytest.raises(JobRejected) as err:
            manager.submit({"cells": [cell_to_doc(CELLS[1])]})
        assert err.value.status == 503 and err.value.retry_after_s > 0

    def test_oversized_grid_rejects_with_413(self, tmp_path):
        manager = make_manager(tmp_path, max_cells_per_job=1)
        with pytest.raises(JobRejected) as err:
            manager.submit({"cells": [cell_to_doc(c) for c in CELLS[:2]]})
        assert err.value.status == 413

    def test_draining_rejects_with_503(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.drain()
        with pytest.raises(JobRejected) as err:
            manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        assert err.value.status == 503

    def test_failed_cell_fails_job_and_resubmit_retries(self, tmp_path, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        calls = {"n": 0}
        real = sweep_mod.run_experiment

        def flaky(config, workload, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(sweep_mod, "run_experiment", flaky)
        manager = make_manager(
            tmp_path, queue=server_queue(max_attempts=1)).start()
        try:
            spec = {"cells": [cell_to_doc(CELLS[0])]}
            job, _ = manager.submit(spec)
            wait_for(lambda: not job.active, what="job failure")
            assert job.state == JOB_FAILED
            assert "injected cell failure" in job.error
            doc = manager.job_result_doc(job)
            assert doc["cells"][0]["ok"] is False
            # resubmitting the same spec re-arms the quarantined cell
            monkeypatch.setattr(sweep_mod, "run_experiment", real)
            job2, created = manager.submit(spec)
            assert job2 is job and not created
            wait_for(lambda: not job.active, what="retried job")
            assert job.state == JOB_DONE
        finally:
            manager.stop()

    def test_completion_fans_out_and_caches_once(self, tmp_path):
        """A remote-style completion settles every job holding the cell
        and lands in the result cache; a second one is a duplicate."""
        cache = ResultCache(tmp_path / "cache")
        manager = make_manager(tmp_path, cache=cache, workers=0)
        job_a, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        job_b, _ = manager.submit(
            {"cells": [cell_to_doc(c) for c in CELLS[:2]]})
        grant = manager.lease("remote")
        assert grant["key"] == job_a.keys[0]
        result = result_to_dict(run_cells([CELLS[0]])[0].result)
        ack = manager.complete(grant["key"], grant["lease_id"], result,
                               worker="remote")
        assert ack["accepted"]
        assert job_a.state == JOB_DONE and job_b.active
        assert manager.job_status_doc(job_b)["progress"]["done"] == 1
        assert len(cache) == 1 and manager.cells_executed == 0
        again = manager.complete(grant["key"], grant["lease_id"], result)
        assert again == {"ok": True, "accepted": False, "reason": "duplicate"}
        events, _, _ = job_b.stream.read_since(0)
        finished = [e.data for e in events
                    if e.kind == "cell" and e.data["phase"] == "finished"]
        assert [f["key"] for f in finished] == [grant["key"]]

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="the crash is monkeypatched into fork-inherited children",
    )
    def test_crashing_cell_runs_once_per_queue_attempt(self, tmp_path, monkeypatch):
        """The queue's max_attempts is the only retry count: a cell whose
        child dies starts one child per attempt, then is quarantined with
        the exit code."""
        import multiprocessing as mp

        import repro.experiments.sweep as sweep_mod

        children = mp.Value("i", 0)

        def die(*args, **kwargs):
            with children.get_lock():
                children.value += 1
            os._exit(3)

        monkeypatch.setattr(sweep_mod, "run_experiment", die)
        manager = make_manager(tmp_path, workers=1, isolation="process",
                               queue=server_queue(max_attempts=2)).start()
        try:
            job, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
            wait_for(lambda: not job.active, what="job failure")
        finally:
            manager.stop()
        assert job.state == JOB_FAILED
        assert children.value == 2
        entry = manager.queue.entries[job.keys[0]]
        assert entry.state == "quarantined" and "exit code 3" in entry.error

    def test_stream_jobs_need_an_executor(self, tmp_path):
        manager = make_manager(tmp_path, workers=0)
        with pytest.raises(JobRejected) as err:
            manager.submit({"cells": [cell_to_doc(CELLS[0])], "stream": True})
        assert err.value.status == 400

    def test_journal_restore_resumes_unfinished_job(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # warm exactly one of the two cells, as if the first server
        # completed it before crashing
        run_cells([CELLS[0]], jobs=1, cache=cache)
        journal_path = tmp_path / "jobs.jsonl"
        crashed = make_manager(
            tmp_path, cache=cache, workers=0,
            journal=JobJournal(journal_path),
        )
        job, _ = crashed.submit({"cells": [cell_to_doc(c) for c in CELLS[:2]]})
        job_id = job.id
        progress = crashed.job_status_doc(job)["progress"]
        assert progress["done"] == 1 and progress["cached"] == 1
        crashed.journal.close()  # "crash": executors never ran

        revived = make_manager(tmp_path, cache=cache,
                               journal=JobJournal(journal_path))
        assert restore(revived, journal_path) == 1
        revived.start()
        try:
            job2 = revived.jobs[job_id]
            assert job2.idempotency_key == job.idempotency_key
            wait_for(lambda: not job2.active, what="resumed job")
            assert job2.state == JOB_DONE
            # only the genuinely unfinished cell re-executed
            assert revived.cells_executed == 1
            doc = revived.job_result_doc(job2)
            assert [c["ok"] for c in doc["cells"]] == [True, True]
        finally:
            revived.stop()

    def test_restored_finished_job_serves_result_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "jobs.jsonl"
        first = make_manager(tmp_path, cache=cache,
                             journal=JobJournal(journal_path)).start()
        try:
            job, _ = first.submit({"cells": [cell_to_doc(CELLS[0])]})
            wait_for(lambda: not job.active, what="first run")
            expected = doc_to_text(first.job_result_doc(job))
        finally:
            first.stop()
        revived = make_manager(tmp_path, cache=cache)
        restore(revived, journal_path)
        job2 = revived.jobs[job.id]
        assert job2.state == JOB_DONE and job2.stream.closed
        assert doc_to_text(revived.job_result_doc(job2)) == expected

    def test_job_ids_continue_past_j9999_after_adoption(self, tmp_path):
        submitted, _ = make_manager(tmp_path, workers=0).submit(
            {"cells": [cell_to_doc(CELLS[0])]}
        )
        revived = make_manager(tmp_path, workers=0)
        doc = dict(submitted.to_doc(), id="j10000-274884d0cc85")
        revived.adopt(Job.from_doc(doc), JOB_DONE)
        job, created = revived.submit({"cells": [cell_to_doc(CELLS[1])]})
        assert created
        assert job.id.startswith("j10001-")

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        journal = JobJournal(journal_path)
        journal.append({"event": "state", "id": "j1", "state": "done"})
        journal.close()
        with journal_path.open("a") as fh:
            fh.write('{"event": "submit", "job": {"tr')  # torn mid-append
        assert JobJournal.events(journal_path) == [
            {"event": "state", "id": "j1", "state": "done"}
        ]


# -- the HTTP server ----------------------------------------------------------


class ServerThread:
    """A real Server on a loopback port, its loop in a daemon thread."""

    def __init__(self, manager, **kwargs):
        import asyncio

        from repro.server.app import Server

        self._asyncio = asyncio
        self.server = Server(manager, port=0, **kwargs)
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._asyncio.run(self._main())

    async def _main(self):
        await self.server.start()
        self._loop = self._asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(60)

    @property
    def port(self):
        return self.server.port

    def request(self, method, path, body=None, headers=None, timeout=60):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            if isinstance(body, dict):
                body = json.dumps(body)
            conn.request(method, path, body=body, headers=headers or {})
            reply = conn.getresponse()
            return reply.status, dict(reply.getheaders()), reply.read()
        finally:
            conn.close()

    def get_json(self, path, **kwargs):
        status, _, data = self.request("GET", path, **kwargs)
        return status, json.loads(data)

    def stream_events(self, path, timeout=120):
        """Read one SSE response to EOF; returns [(kind, seq, data)]."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            assert reply.status == 200
            assert reply.getheader("Content-Type").startswith(
                "text/event-stream")
            body = reply.read().decode()
        finally:
            conn.close()
        events = []
        for frame in body.split("\n\n"):
            kind = seq = data = None
            for line in frame.splitlines():
                if line.startswith("event: "):
                    kind = line[len("event: "):]
                elif line.startswith("id: "):
                    seq = int(line[len("id: "):])
                elif line.startswith("data: "):
                    data = json.loads(line[len("data: "):])
            if kind is not None:
                events.append((kind, seq, data))
        return events


class TestServerHTTP:
    def test_post_sse_result_byte_identical_to_serial(
        self, tmp_path, smoke_serial
    ):
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, headers, data = st.request(
                    "POST", "/api/jobs", body=SMOKE_SPEC
                )
                assert status == 202
                job_id = json.loads(data)["id"]

                events = st.stream_events(f"/api/jobs/{job_id}/events")
                kinds = [kind for kind, _, _ in events]
                assert kinds[0] == "job" and kinds[-1] == "done"
                assert "progress" in kinds and "cell" in kinds
                finished = [d for k, _, d in events
                            if k == "cell" and d["phase"] == "finished"]
                assert len(finished) == 2 and all(d["ok"] for d in finished)
                # seqs are monotonically increasing and resumable
                seqs = [s for _, s, _ in events]
                assert seqs == sorted(seqs)

                status, _, data = st.request(
                    "GET", f"/api/jobs/{job_id}/result"
                )
                assert status == 200
                assert data.decode() == smoke_serial

                # resume from mid-stream: only later events arrive
                resumed = st.stream_events(
                    f"/api/jobs/{job_id}/events?since={seqs[1]}"
                )
                assert [s for _, s, _ in resumed] == seqs[2:]

                status, doc = st.get_json(f"/api/jobs/{job_id}")
                assert doc["state"] == "done"
                assert all(c["state"] == "done" for c in doc["cells"])
        finally:
            manager.stop()

    def test_warm_resubmission_served_instantly_over_http(
        self, tmp_path, smoke_serial, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        cells = build_grid("smoke", n_jobs=N_JOBS, seed=SEED)
        run_cells(cells, jobs=1, cache=cache)
        import repro.experiments.sweep as sweep_mod

        monkeypatch.setattr(
            sweep_mod, "run_experiment",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("executed a warm cell")),
        )
        manager = make_manager(tmp_path, cache=cache)  # no executors
        with ServerThread(manager) as st:
            status, _, data = st.request("POST", "/api/jobs", body=SMOKE_SPEC)
            assert status == 202
            doc = json.loads(data)
            assert doc["state"] == "done"  # settled inside the POST
            assert doc["progress"]["cached"] == doc["progress"]["total"] == 2
            status, _, data = st.request(
                "GET", f"/api/jobs/{doc['id']}/result"
            )
            assert status == 200 and data.decode() == smoke_serial
        assert manager.cells_executed == 0

    def test_four_concurrent_clients_converge(self, tmp_path, smoke_serial):
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                results, errors = {}, []

                def client(n):
                    try:
                        status, _, data = st.request(
                            "POST", "/api/jobs", body=SMOKE_SPEC,
                            headers={"X-Client-Id": f"client-{n}"},
                        )
                        assert status in (200, 202), data
                        job_id = json.loads(data)["id"]
                        events = st.stream_events(
                            f"/api/jobs/{job_id}/events")
                        assert events[-1][0] == "done"
                        status, _, data = st.request(
                            "GET", f"/api/jobs/{job_id}/result",
                            headers={"X-Client-Id": f"client-{n}"},
                        )
                        assert status == 200
                        results[n] = data.decode()
                    except Exception as exc:  # surfaced below
                        errors.append((n, exc))

                threads = [threading.Thread(target=client, args=(n,))
                           for n in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(180)
                assert not errors, errors
                assert len(results) == 4
                assert set(results.values()) == {smoke_serial}
                # four identical submissions converged on one job and one
                # execution of each of the two smoke cells
                assert len(manager.jobs) == 1
                assert manager.queue.completions == 2
                status, doc = st.get_json("/api/cluster")
                assert doc["jobs"]["done"] == 1
                assert doc["queue"]["completions"] == 2
        finally:
            manager.stop()

    def test_rate_limit_returns_429_with_retry_after(self, tmp_path):
        manager = make_manager(tmp_path, workers=0)
        with ServerThread(manager, rate=0.001, burst=2) as st:
            hdr = {"X-Client-Id": "bursty"}
            assert st.request("GET", "/api/cluster", headers=hdr)[0] == 200
            assert st.request("GET", "/api/cluster", headers=hdr)[0] == 200
            status, headers, data = st.request(
                "GET", "/api/cluster", headers=hdr)
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "rate limit" in json.loads(data)["error"]
            # an independent client is unaffected
            assert st.request("GET", "/api/cluster",
                              headers={"X-Client-Id": "calm"})[0] == 200

    def test_backpressure_and_error_edges(self, tmp_path):
        manager = make_manager(
            tmp_path, workers=0, max_queued_jobs=1, max_cells_per_job=4
        )
        with ServerThread(manager, max_body_bytes=4096) as st:
            spec_a = {"cells": [cell_to_doc(CELLS[0])]}
            status, _, data = st.request("POST", "/api/jobs", body=spec_a)
            assert status == 202
            job_id = json.loads(data)["id"]

            # backlog full -> 503 with Retry-After
            status, headers, _ = st.request(
                "POST", "/api/jobs",
                body={"cells": [cell_to_doc(CELLS[1])]},
            )
            assert status == 503 and "Retry-After" in headers
            # ...but a duplicate of the active job dedupes, not rejects
            status, _, data = st.request("POST", "/api/jobs", body=spec_a)
            assert status == 200 and json.loads(data)["created"] is False

            # result of a still-running job -> 409
            assert st.request(
                "GET", f"/api/jobs/{job_id}/result")[0] == 409
            # malformed JSON -> 400
            status, _, data = st.request("POST", "/api/jobs", body="{nope")
            assert status == 400
            assert "not valid JSON" in json.loads(data)["error"]
            # non-finite floats -> 400
            assert st.request(
                "POST", "/api/jobs", body='{"grid": NaN}')[0] == 400
            # unknown spec field -> 400
            assert st.request(
                "POST", "/api/jobs", body={"grid": "smoke", "oops": 1}
            )[0] == 400
            # oversized body -> 413
            status, _, _ = st.request(
                "POST", "/api/jobs",
                body='{"pad": "' + "x" * 8192 + '"}',
            )
            assert status == 413
            # unknown job/route -> 404; wrong method -> 405
            assert st.request("GET", "/api/jobs/jXXXX")[0] == 404
            assert st.request("GET", "/api/nope")[0] == 404
            assert st.request("DELETE", "/api/cluster")[0] == 405
            assert st.request("PUT", "/api/jobs")[0] == 405

    def test_submitted_cell_may_not_choose_a_trace_path(self, tmp_path):
        """The executor writes a cell's trace where its config says, so a
        client must not be able to name that file."""
        target = tmp_path / "chosen-by-client.jsonl"
        traced = CELLS[0]._replace(config=dataclasses.replace(
            CELLS[0].config, trace_path=str(target)))
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, _, data = st.request(
                    "POST", "/api/jobs",
                    body={"cells": [cell_to_doc(CELLS[1]), cell_to_doc(traced)]},
                )
                assert status == 400
                assert "trace_path" in json.loads(data)["error"]
                assert not manager.jobs
        finally:
            manager.stop()
        assert not target.exists()

    def test_sse_streams_trace_records(self, tmp_path):
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, _, data = st.request(
                    "POST", "/api/jobs",
                    body={"cells": [cell_to_doc(CELLS[0])], "stream": True},
                )
                assert status == 202
                job_id = json.loads(data)["id"]
                events = st.stream_events(f"/api/jobs/{job_id}/events")
                traces = [d for k, _, d in events if k == "trace"]
                types = {t["type"] for t in traces}
                assert "run.config" in types and "run.summary" in types
                assert all("t" in t and "data" in t for t in traces)
                assert events[-1][0] == "done"
        finally:
            manager.stop()

    def test_stream_job_cells_are_never_leased_to_remote_workers(
        self, tmp_path
    ):
        """A remote worker polling POST /api/queue is handed the plain
        job's cell but never the ``stream: true`` job's, which runs in
        the server so its trace records reach the SSE stream."""
        manager = make_manager(tmp_path, workers=1)  # executors start later
        try:
            with ServerThread(manager) as st:
                def lease():
                    status, _, data = st.request(
                        "POST", "/api/queue",
                        body={"op": "lease", "worker": "remote"})
                    assert status == 200
                    return json.loads(data)

                status, _, data = st.request(
                    "POST", "/api/jobs",
                    body={"cells": [cell_to_doc(CELLS[0])], "stream": True},
                )
                stream_job = json.loads(data)["id"]
                assert lease().get("wait")  # the only cell is the stream job's
                st.request("POST", "/api/jobs",
                           body={"cells": [cell_to_doc(CELLS[1])]})
                grant = lease()
                assert grant["key"] not in manager.jobs[stream_job].keys
                assert lease().get("wait")
                manager.start()
                events = st.stream_events(f"/api/jobs/{stream_job}/events")
                assert events[-1][0] == "done"
                assert any(k == "trace" for k, _, _ in events)
                started = [d for k, _, d in events
                           if k == "cell" and d["phase"] == "started"]
                assert [d["worker"] for d in started] == ["exec-0"]
                # hand the plain cell back so the drain has nothing to wait on
                status, _, data = st.request("POST", "/api/queue", body={
                    "op": "fail", "worker": "remote", "key": grant["key"],
                    "lease_id": grant["lease_id"], "requeue": True,
                    "error": "remote worker going away",
                })
                assert json.loads(data)["accepted"]
        finally:
            manager.stop()

    def test_cluster_doc_shares_queue_serializer(self, tmp_path):
        manager = make_manager(tmp_path, workers=0)
        manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        with ServerThread(manager) as st:
            status, doc = st.get_json("/api/cluster")
            assert status == 200
            # the queue sub-document is WorkQueue.status_doc verbatim —
            # the same serializer `repro sweep --status --json` prints
            assert doc["queue"] == manager.queue.status_doc()
            assert doc["server"]["ratelimit"]["allowed"] >= 1
            assert doc["jobs"]["running"] == 1

    def test_http_restart_resumes_mid_grid(self, tmp_path, smoke_serial):
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "jobs.jsonl"
        # warm one smoke cell so the "crashed" server has half the work done
        cells = build_grid("smoke", n_jobs=N_JOBS, seed=SEED)
        run_cells(cells[:1], jobs=1, cache=ResultCache(cache_dir))

        crashed = make_manager(
            tmp_path, cache=ResultCache(cache_dir), workers=0,
            journal=JobJournal(journal_path),
        )
        with ServerThread(crashed) as st:
            status, _, data = st.request("POST", "/api/jobs", body=SMOKE_SPEC)
            assert status == 202
            doc = json.loads(data)
            job_id = doc["id"]
            assert doc["state"] == "running"
            assert doc["progress"]["done"] == 1  # the pre-warmed cell
        crashed.journal.close()

        revived = make_manager(tmp_path, cache=ResultCache(cache_dir),
                               journal=JobJournal(journal_path))
        assert restore(revived, journal_path) == 1
        revived.start()
        try:
            with ServerThread(revived) as st:
                events = st.stream_events(f"/api/jobs/{job_id}/events")
                assert events[-1][0] == "done"
                status, _, data = st.request(
                    "GET", f"/api/jobs/{job_id}/result")
                assert status == 200 and data.decode() == smoke_serial
            assert revived.cells_executed == 1  # only the unfinished cell
        finally:
            revived.stop()

    def test_drain_refuses_new_work_then_exits(self, tmp_path):
        manager = make_manager(tmp_path).start()
        st = ServerThread(manager)
        with st:
            assert st.request("GET", "/api/healthz")[0] == 200
        # after drain the listener is closed and the manager refuses work
        assert manager.draining
        with pytest.raises(JobRejected):
            manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        with pytest.raises(OSError):
            http.client.HTTPConnection(
                "127.0.0.1", st.port, timeout=2
            ).request("GET", "/api/healthz")


# -- real-signal drain of the CLI server --------------------------------------


def test_repro_serve_sigterm_drains_cleanly(tmp_path):
    """`repro serve` + real SIGTERM: drains and exits 0."""
    env = dict(os.environ)
    root = Path(repro.__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(root) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"),
         "--jobstore", str(tmp_path / "jobs.jsonl"),
         "--isolation", "thread", "--grace", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path),
    )
    try:
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        port = int(line.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/api/healthz")
        assert conn.getresponse().status == 200
        conn.close()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "server drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
