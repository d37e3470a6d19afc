"""Fault-injection harness for the distributed sweep service.

Three layers:

* :class:`TestWorkQueue` — deterministic unit tests of the lease state
  machine under an injected fake clock: expiry + reclaim, renewal,
  duplicate/late completion resolution, exponential backoff and poison
  quarantine, work stealing, drain, and a coordinator restart from its
  job journal and result cache.
* ``test_queue_state_machine_*`` — a hypothesis property over random
  interleavings of lease/complete/fail/expire/renew: the queue never
  loses a cell, never double-counts a completion, keeps each canonical
  result stable, and always terminates with every cell done or
  quarantined.  Each op dimension is drawn independently (the
  ``tests/invariants`` shrinking convention), so counterexamples shrink
  toward the shortest readable schedule.
* :class:`TestServiceIntegration` — what ``repro sweep --serve`` runs (a
  real HTTP :class:`~repro.server.app.Server` over a ``JobManager``
  holding the grid as one job) + real workers leasing over
  ``POST /api/queue``: a worker SIGKILLed mid-cell (via the CLI's
  ``--chaos`` injection), a frozen worker whose lease is reclaimed, a
  straggler whose delayed completion arrives as a duplicate, a
  coordinator restart resuming a half-done grid from its job journal
  and result cache, shard parity with
  offline ``shard K/M`` — each ending byte-identical to the serial
  ``run_cells`` path.  :class:`TestProtocolHardening` covers the HTTP
  edge the workers share with job clients (408, 413, 431, 429).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import DareConfig
from repro.experiments.jobs import JobManager
from repro.experiments.runner import ExperimentConfig
from repro.experiments.serialize import result_to_dict, result_to_json
from repro.experiments.service import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    QUEUE_ROUTE,
    ChaosSpec,
    WorkQueue,
    cell_from_doc,
    cell_to_doc,
    http_json,
    parse_address,
    parse_chaos,
    run_worker,
)
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    cache_key,
    results_of,
    run_cells,
    shard_cells,
)
from repro.server.app import Server
from repro.server.jobstore import JobJournal, restore

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the base image
    HAVE_HYPOTHESIS = False

SEED = 20110926
N_JOBS = 4  # tiny cells (~0.1s) keep the fault-injection suite fast


def _cell(tag: str, seed: int = SEED) -> SweepCell:
    config = ExperimentConfig(dare=DareConfig.elephant_trap(), seed=seed)
    return SweepCell(config, WorkloadSpec("wl1", N_JOBS, seed), tag=tag)


#: a small grid of distinct cells shared by every test in the module
CELLS = tuple(_cell(f"c{i}", SEED + i) for i in range(4))
KEYS = tuple(cache_key(c.config, c.workload) for c in CELLS)


@pytest.fixture(scope="module")
def serial_docs():
    """The canonical result of each CELLS member, computed serially once."""
    results = results_of(run_cells(list(CELLS)))
    return {key: result_to_dict(r) for key, r in zip(KEYS, results)}


class FakeClock:
    """Injectable logical time for deterministic lease-expiry tests."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_manager(clock, tmp_path, **kwargs) -> JobManager:
    """A manager with no executors over an empty :func:`make_queue`
    queue, caching into ``tmp_path``."""
    return JobManager(cache=ResultCache(tmp_path / "cache"), workers=0,
                      queue=make_queue(clock, n_cells=0), clock=clock, **kwargs)


def make_queue(clock, n_cells: int = 2, **kwargs) -> WorkQueue:
    defaults = dict(
        lease_s=10.0, max_attempts=3, backoff_s=1.0, backoff_cap_s=8.0,
        steal_after_s=5.0, clock=clock,
    )
    defaults.update(kwargs)
    queue = WorkQueue(**defaults)
    queue.add_cells(CELLS[:n_cells])
    return queue


# -- wire helpers -------------------------------------------------------------


class TestWire:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7341") == ("10.0.0.2", 7341)
        assert parse_address("7341") == ("127.0.0.1", 7341)
        assert parse_address(":7341") == ("127.0.0.1", 7341)
        with pytest.raises(ValueError, match="bad address"):
            parse_address("host:notaport")
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_address(":65535") == ("127.0.0.1", 65535)
        for spec in ("127.0.0.1:99999", "127.0.0.1:-5", "65536"):
            with pytest.raises(ValueError, match="port must be 0-65535"):
                parse_address(spec)

    def test_cli_rejects_out_of_range_ports(self):
        from repro.cli import main

        for argv in (["sweep", "--serve", "127.0.0.1:99999"],
                     ["sweep", "--worker", "127.0.0.1:99999"],
                     ["sweep", "--status", "127.0.0.1:-5"]):
            with pytest.raises(SystemExit, match="port must be 0-65535"):
                main(argv)
        with pytest.raises(SystemExit, match="--port 99999 is out of range"):
            main(["serve", "--port", "99999"])

    def test_parse_chaos(self):
        assert parse_chaos("") == ChaosSpec()
        assert parse_chaos("kill-after-lease:2") == ChaosSpec("kill-after-lease", n=2)
        assert parse_chaos("hang-after-lease") == ChaosSpec("hang-after-lease", n=1)
        assert parse_chaos("delay-complete:1.5") == ChaosSpec(
            "delay-complete", delay_s=1.5
        )
        with pytest.raises(ValueError, match="unknown chaos"):
            parse_chaos("explode")

    def test_cell_doc_round_trip(self):
        cell = CELLS[0]
        restored = cell_from_doc(json.loads(json.dumps(cell_to_doc(cell))))
        assert restored == cell


# -- the work-queue state machine (deterministic unit tests) ------------------


class TestWorkQueue:
    def test_lease_then_complete(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        assert grant["key"] == KEYS[0] and not grant["stolen"]
        assert q.counts()[LEASED] == 1
        ack = q.complete(grant["key"], grant["lease_id"], {"m": 1}, worker="w1")
        assert ack["accepted"]
        assert q.done
        assert q.entries[KEYS[0]].completed_by == "w1"

    def test_empty_queue_is_done(self):
        q = make_queue(FakeClock(), n_cells=0)
        assert q.done
        assert q.lease("w1") == {"ok": True, "done": True}

    def test_add_cells_dedupes_by_key(self):
        q = make_queue(FakeClock(), n_cells=2)
        assert q.add_cells(CELLS[:2]) == 0  # same cells, no duplicates
        assert len(q.entries) == 2

    def test_wait_reply_when_everything_leased(self):
        q = make_queue(FakeClock(), n_cells=1)
        q.lease("w1")
        reply = q.lease("w2")  # nothing pending, straggler too young to steal
        assert reply.get("wait") and reply["retry_s"] > 0

    def test_lease_expiry_reclaims_cell(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        first = q.lease("w1")
        clock.advance(q.lease_s + 0.1)
        assert q.expire() == 1
        assert q.expirations == 1
        assert q.entries[KEYS[0]].attempts == 1  # the expiry charged an attempt
        clock.advance(q.backoff_s + 0.1)  # sit out the retry backoff
        second = q.lease("w2")
        assert second["key"] == first["key"]
        assert second["lease_id"] != first["lease_id"]
        assert q.complete(second["key"], second["lease_id"], {"m": 1})["accepted"]

    def test_renew_keeps_lease_alive(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(0.8 * q.lease_s)
        assert q.renew(grant["key"], grant["lease_id"])
        clock.advance(0.8 * q.lease_s)  # past the original deadline
        assert q.expire() == 0
        assert q.entries[KEYS[0]].state == LEASED
        clock.advance(q.lease_s)
        assert q.expire() == 1
        assert not q.renew(grant["key"], grant["lease_id"])  # lease is gone

    def test_late_completion_after_expiry_wins_if_first(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # w1's lease reclaimed; w1 doesn't know and reports anyway
        ack = q.complete(grant["key"], grant["lease_id"], {"m": "late"}, worker="w1")
        assert ack["accepted"]
        assert q.late_completions == 1
        assert q.entries[KEYS[0]].result == {"m": "late"}

    def test_duplicate_completion_is_discarded(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # reclaim
        clock.advance(q.backoff_s + 0.1)
        second = q.lease("w2")  # re-lease to another worker
        assert q.complete(second["key"], second["lease_id"], {"m": "w2"})["accepted"]
        late = q.complete(grant["key"], grant["lease_id"], {"m": "w1"}, worker="w1")
        assert late == {"ok": True, "accepted": False, "reason": "duplicate"}
        # deterministic resolution: the first completion stays canonical
        assert q.entries[KEYS[0]].result == {"m": "w2"}
        assert q.duplicates == 1 and q.completions == 1

    def test_backoff_grows_exponentially_then_quarantines(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=3, backoff_s=1.0,
                       backoff_cap_s=100.0)
        entry = q.entries[KEYS[0]]
        for attempt, backoff in ((1, 1.0), (2, 2.0)):
            grant = q.lease("w1")
            q.fail(grant["key"], grant["lease_id"], f"Traceback...\nboom {attempt}")
            assert entry.state == PENDING
            assert entry.not_before == pytest.approx(clock.t + backoff)
            assert q.lease("w1").get("wait")  # backing off: not leasable yet
            clock.advance(backoff + 0.1)
        grant = q.lease("w1")
        assert grant["attempt"] == 3
        q.fail(grant["key"], grant["lease_id"], "Traceback...\nboom 3")
        assert entry.state == QUARANTINED
        assert "boom 3" in entry.error
        assert entry.history == ["boom 1", "boom 2", "boom 3"]
        assert q.done  # quarantined counts as terminal
        assert q.lease("w1") == {"ok": True, "done": True}

    def test_backoff_is_capped(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=10, backoff_s=1.0,
                       backoff_cap_s=4.0)
        for _ in range(4):
            clock.advance(10.0)
            grant = q.lease("w1")
            q.fail(grant["key"], grant["lease_id"], "boom")
        assert q.entries[KEYS[0]].not_before - clock.t == pytest.approx(4.0)

    def test_completion_rescues_a_quarantined_cell(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # single allowed attempt burnt: quarantined
        assert q.entries[KEYS[0]].state == QUARANTINED
        ack = q.complete(grant["key"], grant["lease_id"], {"m": 1}, worker="w1")
        assert ack["accepted"]  # a correct deterministic result still counts
        assert q.entries[KEYS[0]].state == DONE

    def test_steal_releases_straggler_to_idle_worker(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=2, steal_after_s=5.0)
        straggler = q.lease("w1")
        other = q.lease("w1")
        q.complete(other["key"], other["lease_id"], {"m": 1})
        assert q.lease("w2").get("wait")  # straggler not old enough yet
        clock.advance(6.0)
        stolen = q.lease("w2")
        assert stolen["stolen"] and stolen["key"] == straggler["key"]
        assert q.steals == 1
        assert len(q.entries[straggler["key"]].leases) == 2
        # no third replica: max_leases bounds the speculative fan-out
        assert q.lease("w3").get("wait")
        # thief finishes first; the original attempt resolves to a duplicate
        assert q.complete(stolen["key"], stolen["lease_id"], {"m": "thief"})["accepted"]
        late = q.complete(straggler["key"], straggler["lease_id"], {"m": "orig"})
        assert not late["accepted"]
        assert q.entries[straggler["key"]].result == {"m": "thief"}
        assert q.done

    def test_failed_sibling_does_not_reset_surviving_lease(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, steal_after_s=1.0)
        orig = q.lease("w1")
        clock.advance(2.0)
        thief = q.lease("w2")
        assert thief["stolen"]
        ack = q.fail(thief["key"], thief["lease_id"], "thief exploded")
        assert ack["accepted"] and ack["state"] == LEASED  # original still runs
        assert q.entries[KEYS[0]].attempts == 0  # no attempt charged
        assert q.complete(orig["key"], orig["lease_id"], {"m": 1})["accepted"]

    def test_stale_fail_after_expiry_is_not_double_charged(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # charged attempt #1
        ack = q.fail(grant["key"], grant["lease_id"], "boom")
        assert ack == {"ok": True, "accepted": False, "reason": "stale-lease"}
        assert q.entries[KEYS[0]].attempts == 1

    def test_unknown_key_is_rejected(self):
        q = make_queue(FakeClock(), n_cells=1)
        assert not q.complete("feed" * 16, "L0", {})["ok"]
        assert not q.fail("feed" * 16, "L0", "boom")["ok"]

    def test_drain_stops_leasing_but_accepts_completions(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=2)
        grant = q.lease("w1")
        q.drain()
        assert q.lease("w2") == {"ok": True, "done": True}  # workers wind down
        assert q.complete(grant["key"], grant["lease_id"], {"m": 1})["accepted"]
        assert q.active_leases() == 0

    def test_journal_round_trip_and_restart(self, tmp_path, serial_docs):
        """A restarted manager rebuilds its queue from the job journal:
        the completed cell comes back from the result cache, the
        in-flight lease and the failed attempt are gone, and only the
        unfinished cells run again."""
        clock = FakeClock()
        path = tmp_path / "jobs.jsonl"
        spec = {"cells": [cell_to_doc(c) for c in CELLS[:3]]}
        first = make_manager(clock, tmp_path, journal=JobJournal(path))
        job, _ = first.submit(spec)
        done = first.lease("w1")
        first.complete(done["key"], done["lease_id"], serial_docs[done["key"]],
                       worker="w1")
        first.lease("w1")  # left in flight when the coordinator dies
        grant = first.lease("w1")
        first.fail(grant["key"], grant["lease_id"], "boom")  # backing off

        second = make_manager(clock, tmp_path, journal=JobJournal(path))
        assert restore(second, path) == 1
        job2, created = second.submit(spec)
        assert not created and job2.id == job.id
        q2 = second.queue
        assert q2.order == first.queue.order
        done_entry = q2.entries[done["key"]]
        assert done_entry.state == DONE and done_entry.from_cache
        assert done_entry.result == serial_docs[done["key"]]
        counts = q2.counts()
        assert counts[PENDING] == 2 and counts[LEASED] == 0
        assert q2.active_leases() == 0
        assert all(e.attempts == 0 for e in q2.entries.values())
        # the half-done grid runs to completion after the restart
        for _ in range(2):
            grant = second.lease("w2")
            second.complete(grant["key"], grant["lease_id"],
                            serial_docs[grant["key"]])
        assert not job2.active and q2.completions == 2
        assert [o.ok for o in second.outcomes(job2)] == [True] * 3

    def test_journal_rejects_unknown_format(self, tmp_path):
        """A job journal with an unreadable line before its tail fails
        the restart loudly instead of dropping the jobs after it."""
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"format": 99\n'
                        '{"event": "state", "id": "j0001-x", "state": "done"}\n')
        with pytest.raises(ValueError):
            restore(make_manager(FakeClock(), tmp_path), path)

    def test_outcomes_preserve_input_order(self, tmp_path, serial_docs):
        manager = make_manager(FakeClock(), tmp_path)
        job, _ = manager.submit({"cells": [cell_to_doc(c) for c in CELLS[:3]]})
        grants = {g["key"]: g["lease_id"]
                  for g in (manager.lease("w") for _ in range(3))}
        for key in (KEYS[2], KEYS[0], KEYS[1]):  # complete out of input order
            assert manager.complete(key, grants[key], serial_docs[key])["accepted"]
        outcomes = manager.outcomes(job)
        assert [o.key for o in outcomes] == list(KEYS[:3])
        assert all(o.ok and not o.from_cache for o in outcomes)


# -- hypothesis: random interleavings of the state machine --------------------


def _check_queue_invariants(q: WorkQueue, total: int, done_results: dict) -> None:
    counts = q.counts()
    assert sum(counts.values()) == total  # no cell is ever lost
    for entry in q.entries.values():
        assert entry.state in (PENDING, LEASED, DONE, QUARANTINED)
        if entry.state == LEASED:
            assert 1 <= len(entry.leases) <= q.max_leases
        else:
            assert not entry.leases
        if entry.state == DONE:
            assert entry.result is not None
    # completions are counted exactly once and results stay canonical
    assert q.completions == len(done_results)
    for key, marker in done_results.items():
        assert q.entries[key].result == {"marker": marker}


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(deadline=None, max_examples=80)
@given(
    n_cells=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # op kind
            st.integers(min_value=0, max_value=7),  # lease index / time step
            st.integers(min_value=0, max_value=2),  # worker index
        ),
        max_size=50,
    ),
)
def test_queue_state_machine_random_interleavings(n_cells, ops):
    """Random lease/complete/fail/expire/renew schedules never lose a cell,
    never double-count a completion, and always terminate."""
    clock = FakeClock()
    q = WorkQueue(lease_s=10.0, max_attempts=3, backoff_s=1.0, backoff_cap_s=8.0,
                  steal_after_s=5.0, clock=clock)
    q.add_cells(CELLS[:n_cells])
    total = n_cells
    issued = []  # every (key, lease_id) ever granted, live or stale
    done_results = {}  # key -> marker of the accepted (canonical) completion
    marker = 0

    def try_complete(key: str, lease_id: str, worker: str) -> None:
        nonlocal marker
        marker += 1
        ack = q.complete(key, lease_id, {"marker": marker}, worker=worker)
        if ack.get("accepted"):
            assert key not in done_results  # a cell completes exactly once
            done_results[key] = marker

    for kind, a, b in ops:
        worker = f"w{b}"
        if kind == 0:
            grant = q.lease(worker)
            if "lease_id" in grant:
                issued.append((grant["key"], grant["lease_id"]))
        elif kind == 1 and issued:
            key, lease_id = issued[a % len(issued)]
            try_complete(key, lease_id, worker)
        elif kind == 2 and issued:
            key, lease_id = issued[a % len(issued)]
            q.fail(key, lease_id, f"injected failure {a}")
        elif kind == 3:
            clock.advance(float(a))
            q.expire()
        elif kind == 4 and issued:
            key, lease_id = issued[a % len(issued)]
            q.renew(key, lease_id)
        _check_queue_invariants(q, total, done_results)

    # liveness: a worker that keeps pulling always drains the queue
    for _ in range(10 * total + 20):
        if q.done:
            break
        clock.advance(q.lease_s + q.backoff_cap_s + 1.0)
        grant = q.lease("driver")
        if "lease_id" in grant:
            try_complete(grant["key"], grant["lease_id"], "driver")
        _check_queue_invariants(q, total, done_results)
    assert q.done
    counts = q.counts()
    assert counts[DONE] + counts[QUARANTINED] == total
    assert counts[DONE] == len(done_results)


# -- integration: real HTTP server + real workers ------------------------------

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class GridServer:
    """What ``repro sweep --serve`` runs, in-process: a :class:`Server`
    over ``JobManager(workers=0)`` holding ``cells`` as one job, with its
    event loop on a daemon thread.  Unlike the CLI it keeps serving after
    the grid is done, until :meth:`close` (or :meth:`drain`).  With a
    ``jobstore`` it first restores the journal, as ``--jobstore`` does."""

    def __init__(self, cells, cache=None, jobstore="", server_kwargs=None,
                 **queue_kwargs):
        journal = JobJournal(jobstore) if jobstore else None
        self.manager = JobManager(cache=cache, workers=0, journal=journal,
                                  queue=WorkQueue(**queue_kwargs))
        if journal is not None:
            restore(self.manager, jobstore)
        self.job, created = self.manager.submit(
            {"cells": [cell_to_doc(c) for c in cells]})
        self.resumed = not created
        self.server = Server(self.manager, port=0, **(server_kwargs or {}))
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True)

    async def _main(self):
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve()

    def start(self) -> "GridServer":
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def __enter__(self) -> "GridServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self):
        return ("127.0.0.1", self.server.port)

    @property
    def queue(self) -> WorkQueue:
        return self.manager.queue

    def op(self, doc: dict) -> dict:
        """One worker op over ``POST /api/queue``."""
        status, reply, _ = http_json(self.address, "POST", QUEUE_ROUTE, doc)
        assert status == 200, reply
        return reply

    def wait(self, timeout=None) -> bool:
        """Block until the grid is done or a drain has landed; like the
        CLI's loop, this reaps expired leases while it waits."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.job.active and self._thread.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.1)
            self.manager.expire()
        return True

    def drain(self) -> None:
        """What SIGTERM does: stop granting leases, land in-flight ones."""
        self._loop.call_soon_threadsafe(self.server.request_stop)

    def close(self) -> None:
        if self._thread.is_alive():
            self.drain()
            self._thread.join(60)

    def outcomes(self):
        return self.manager.outcomes(self.job)

    def status(self) -> dict:
        return self.manager.cluster_doc()["queue"]


def _spawn_cli_worker(port: int, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "sweep",
           "--worker", f"127.0.0.1:{port}", "--no-cache", "--poll", "0.1",
           *extra]
    return subprocess.Popen(cmd, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _worker_thread(address, results: list, **kwargs):
    kwargs.setdefault("no_cache", True)
    kwargs.setdefault("poll_s", 0.05)
    thread = threading.Thread(
        target=lambda: results.append(run_worker(address, **kwargs)), daemon=True
    )
    thread.start()
    return thread


def _service_jsons(server: GridServer) -> list:
    return [result_to_json(o.result) for o in server.outcomes()]


class TestServiceIntegration:
    def test_two_workers_match_serial_bytes(self, serial_docs):
        serial = [result_to_json(run_cells([c])[0].result) for c in CELLS[:3]]
        with GridServer(CELLS[:3], lease_s=10.0) as server:
            stats: list = []
            threads = [
                _worker_thread(server.address, stats, worker_id=f"w{i}")
                for i in range(2)
            ]
            assert server.wait(timeout=60.0)
            for thread in threads:
                thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
        assert sum(s.completed for s in stats) == 3

    def test_worker_sigkill_mid_cell_grid_still_byte_identical(self):
        """The acceptance scenario: a worker is SIGKILLed mid-cell, its lease
        is reclaimed (by expiry or stealing), and the finished grid is
        byte-identical to the serial path."""
        cells = list(CELLS[:3])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=1.5) as server:
            chaos = _spawn_cli_worker(server.address[1],
                                      "--chaos", "kill-after-lease:1")
            chaos.communicate(timeout=30.0)
            assert chaos.returncode == -9  # died by its own SIGKILL, mid-cell
            status = server.status()
            assert status["leased"] >= 1  # the orphaned lease is still held
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="survivor")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
            status = server.status()
            # the dead worker's cell was recovered by expiry or by stealing
            assert status["expirations"] + status["steals"] >= 1
            assert status["quarantined"] == 0

    def test_frozen_worker_lease_reclaimed_and_late_complete_discarded(self):
        cells = list(CELLS[:2])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=0.4, steal_after_s=0.2) as server:
            # a frozen worker: leases a cell by hand and never executes it
            frozen = server.op({"op": "lease", "worker": "frozen"})
            assert "lease_id" in frozen
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="healthy")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
            # the thawed worker finally reports: discarded as a duplicate
            late = server.op({
                "op": "complete", "worker": "frozen", "key": frozen["key"],
                "lease_id": frozen["lease_id"], "result": {"m": "bogus"},
            })
            assert late["accepted"] is False and late["reason"] == "duplicate"
            status = server.status()
            assert status["duplicates"] == 1
            assert status["expirations"] + status["steals"] >= 1

    def test_delayed_completion_resolves_to_one_canonical_result(self):
        """A straggler sleeps past its lease before reporting; the re-executed
        attempt wins and the straggler's completion is the duplicate."""
        cells = [CELLS[0]]
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=0.3, steal_after_s=60.0) as server:
            stats_slow: list = []
            slow = _worker_thread(
                server.address, stats_slow, worker_id="straggler",
                chaos=ChaosSpec("delay-complete", delay_s=2.5),
            )
            time.sleep(0.1)  # let the straggler take the lease first
            stats_fast: list = []
            fast = _worker_thread(server.address, stats_fast, worker_id="fast")
            assert server.wait(timeout=60.0)
            slow.join(timeout=15.0)
            fast.join(timeout=15.0)
            assert _service_jsons(server) == serial
            status = server.status()
            assert status["completions"] == 1
            assert status["duplicates"] + status["late_completions"] >= 1
        [slow_stats] = stats_slow
        assert slow_stats.rejected + slow_stats.completed == 1

    def test_failing_cell_backs_off_then_quarantines(self, tmp_path):
        # a cell whose config crashes every worker deterministically
        bad_config = ExperimentConfig(dare=DareConfig.elephant_trap(), seed=SEED,
                                      scheduler="no-such-scheduler")
        bad = SweepCell(bad_config, WorkloadSpec("wl1", N_JOBS, SEED), tag="bad")
        cells = [bad, CELLS[1]]
        with GridServer(cells, lease_s=10.0, max_attempts=2,
                        backoff_s=0.05) as server:
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="w")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            outcomes = server.outcomes()
            assert not outcomes[0].ok and "no-such-scheduler" in outcomes[0].error
            assert outcomes[1].ok  # the grid survived the poison cell
            status = server.status()
            assert status["quarantined"] == 1 and status["failures"] == 2
        [worker_stats] = stats
        assert worker_stats.failed == 2  # initial attempt + one backoff retry

    def test_coordinator_restart_resumes_half_done_grid(self, tmp_path, serial_docs):
        cells = list(CELLS[:3])
        serial = [result_to_json(run_cells([c])[0].result) for c in cells]
        jobstore = str(tmp_path / "jobs.jsonl")
        first = GridServer(cells, cache=ResultCache(tmp_path / "cache"),
                           jobstore=jobstore, lease_s=10.0).start()
        # one cell completes, one is left mid-lease; then the server dies
        grant = first.op({"op": "lease", "worker": "w1"})
        first.op({
            "op": "complete", "worker": "w1", "key": grant["key"],
            "lease_id": grant["lease_id"], "result": serial_docs[grant["key"]],
        })
        first.op({"op": "lease", "worker": "w1"})  # in flight
        # stop without waiting for the in-flight lease: the journal and
        # the cache are all that survive
        first.server.shutdown_grace_s = 0.0
        first.close()

        second = GridServer(cells, cache=ResultCache(tmp_path / "cache"),
                            jobstore=jobstore, lease_s=10.0)
        assert second.resumed
        status = second.status()
        assert status["finished"] is False
        assert status[DONE] == 1  # the completed cell came back from the cache
        assert status[LEASED] == 0  # the in-flight lease was not journaled
        with second:
            stats: list = []
            thread = _worker_thread(second.address, stats, worker_id="w2")
            assert second.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(second) == serial
            assert second.queue.entries[grant["key"]].from_cache
        [worker_stats] = stats
        assert worker_stats.completed == 2  # only the unfinished cells re-ran

    def test_shard_parity_with_offline_shards(self):
        """A sharded coordinator grid is exactly the offline ``shard K/M``
        partition, and its results are byte-identical to running that
        shard serially."""
        cells = list(CELLS)
        seen_keys: list = []
        for k in (1, 2):
            shard = shard_cells(cells, (k, 2))
            shard_keys = [cache_key(c.config, c.workload) for c in shard]
            serial = [result_to_json(r) for r in results_of(run_cells(shard))]
            with GridServer(shard, lease_s=10.0) as server:
                assert server.queue.order == shard_keys
                stats: list = []
                thread = _worker_thread(server.address, stats)
                assert server.wait(timeout=60.0)
                thread.join(timeout=10.0)
                assert _service_jsons(server) == serial
            seen_keys.extend(shard_keys)
        assert sorted(seen_keys) == sorted(KEYS)  # the shards partition the grid

    def test_workers_share_the_coordinator_cache(self, tmp_path):
        cells = list(CELLS[:2])
        cache = ResultCache(tmp_path / "cache")
        with GridServer(cells, cache=cache, lease_s=10.0) as server:
            stats: list = []
            thread = _worker_thread(server.address, stats)
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
        assert len(cache) == 2  # accepted completions landed in the shared cache
        # a warm re-serve resolves everything from cache: no leases granted
        with GridServer(cells, cache=cache, lease_s=10.0) as server:
            assert server.wait(timeout=10.0)
            outcomes = server.outcomes()
            assert all(o.from_cache for o in outcomes)
            assert server.status()["leases_granted"] == 0

    def test_drain_is_graceful(self):
        cells = list(CELLS[:2])
        with GridServer(cells, lease_s=10.0) as server:
            grant = server.op({"op": "lease", "worker": "w1"})
            server.drain()
            reply = server.op({"op": "lease", "worker": "w2"})
            assert reply.get("done")  # new work is refused while draining
            assert not server.wait(timeout=0.3)  # still one lease in flight
            ack = server.op({
                "op": "complete", "worker": "w1", "key": grant["key"],
                "lease_id": grant["lease_id"], "result": {"m": 1},
            })
            assert ack["accepted"]  # in-flight work still lands
            assert server.wait(timeout=10.0)  # leases drained: server exits
            assert server.queue.counts()[PENDING] == 1  # never leased

    def test_cli_coordinator_drains_on_sigterm(self, tmp_path):
        """`repro sweep --serve` + a real SIGTERM: no new leases, the
        in-flight one still lands over the open listener, then the
        coordinator prints its summaries for what finished and exits."""
        import signal as signal_mod

        out = tmp_path / "out.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--grid", "smoke",
             "--n-jobs", str(N_JOBS), "--no-cache", "--serve", "127.0.0.1:0",
             "--out", str(out)],
            env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("coordinator listening on 127.0.0.1:")
            address = ("127.0.0.1", int(banner.split(":")[1].split()[0]))
            grant = http_json(address, "POST", QUEUE_ROUTE,
                              {"op": "lease", "worker": "w1"})[1]
            proc.send_signal(signal_mod.SIGTERM)
            deadline = time.monotonic() + 30.0
            while not http_json(address, "GET", "/api/healthz")[1]["draining"]:
                assert time.monotonic() < deadline, "never started draining"
                time.sleep(0.05)
            assert http_json(address, "POST", QUEUE_ROUTE,
                             {"op": "lease", "worker": "w2"})[1].get("done")
            result = run_cells([cell_from_doc(grant["cell"])])[0].result
            ack = http_json(address, "POST", QUEUE_ROUTE, {
                "op": "complete", "worker": "w1", "key": grant["key"],
                "lease_id": grant["lease_id"], "result": result_to_dict(result),
            })[1]
            assert ack["accepted"]
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1  # the never-leased cell counts as failed
        assert "service: 1 leases, 0 expired" in stdout
        assert "sweep: 2 cells, 1 failed (cache off)" in stdout
        cells = json.loads(out.read_text())["cells"]
        assert [c["ok"] for c in cells].count(True) == 1

    def test_status_op_and_cli(self, capsys):
        from repro.cli import main

        with GridServer(list(CELLS[:2]), lease_s=10.0) as server:
            host, port = server.address
            # machine-readable: the /api/cluster queue block, parseable
            assert main(["sweep", "--status", f"{host}:{port}", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["total"] == 2 and doc["pending"] == 2
            assert doc == server.status()  # one shared serializer
            # default: the human table
            assert main(["sweep", "--status", f"{host}:{port}"]) == 0
            table = capsys.readouterr().out
            assert "cells: 2" in table and "2 pending" in table
        with pytest.raises(SystemExit, match="cannot reach coordinator"):
            main(["sweep", "--status", f"{host}:{port}"])

    def test_unknown_op_and_bad_json_are_rejected(self):
        with GridServer(list(CELLS[:1])) as server:
            status, reply, _ = http_json(
                server.address, "POST", QUEUE_ROUTE, {"op": "explode"})
            assert status == 400 and "unknown op" in reply["error"]
            status, reply, _ = http_json(
                server.address, "POST", QUEUE_ROUTE,
                {"op": "renew", "key": ["not", "a", "string"]})
            assert status == 400 and "'key' must be a string" in reply["error"]
            conn = http.client.HTTPConnection(*server.address, timeout=5)
            conn.request("POST", QUEUE_ROUTE, body=b"this is not json")
            resp = conn.getresponse()
            assert resp.status == 400
            assert "not valid JSON" in json.loads(resp.read())["error"]
            conn.close()
            # the route only takes POSTs
            status, _, _ = http_json(server.address, "GET", QUEUE_ROUTE)
            assert status == 405


# -- voluntary release (graceful worker shutdown) -----------------------------


class TestVoluntaryRelease:
    def test_requeue_releases_without_charging_attempt(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        ack = q.fail(grant["key"], grant["lease_id"],
                     "worker shutting down", requeue=True)
        assert ack["accepted"] and ack["state"] == PENDING
        entry = q.entries[grant["key"]]
        assert entry.attempts == 0          # no attempt charged...
        assert entry.not_before == clock.t  # ...and no backoff
        assert q.releases == 1 and q.failures == 0
        assert q.status_doc()["releases"] == 1
        # the released cell is immediately leasable again
        regrant = q.lease("w2")
        assert regrant["key"] == grant["key"]

    def test_requeue_with_stale_lease_is_ignored(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, lease_s=1.0)
        grant = q.lease("w1")
        clock.advance(5.0)
        q.expire()  # the expiry already charged the attempt
        ack = q.fail(grant["key"], grant["lease_id"],
                     "late release", requeue=True)
        assert ack["accepted"] is False and ack["reason"] == "stale-lease"
        assert q.releases == 0

    def test_requeue_with_surviving_stolen_sibling_keeps_cell_leased(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant1 = q.lease("w1")
        clock.advance(6.0)  # past steal_after_s=5.0, inside lease_s=10.0
        grant2 = q.lease("w2")
        assert grant2["stolen"]
        ack = q.fail(grant1["key"], grant1["lease_id"],
                     "shutdown", requeue=True)
        assert ack["accepted"] and ack["state"] == LEASED
        assert q.releases == 1  # the sibling attempt stays in charge
        assert grant2["lease_id"] in q.entries[grant1["key"]].leases

    def test_releases_counter_survives_journal_reload(self, tmp_path):
        """A released cell survives a restart from the job journal as a
        pending cell with no attempt charged.  The release counter is the
        running server's: a restarted one counts from zero."""
        clock = FakeClock()
        path = tmp_path / "jobs.jsonl"
        first = make_manager(clock, tmp_path, journal=JobJournal(path))
        first.submit({"cells": [cell_to_doc(CELLS[0])]})
        grant = first.lease("w1")
        first.fail(grant["key"], grant["lease_id"], "shutdown", requeue=True)
        assert first.queue.releases == 1
        reloaded = make_manager(clock, tmp_path)
        restore(reloaded, path)
        entry = reloaded.queue.entries[grant["key"]]
        assert entry.state == PENDING and entry.attempts == 0
        assert reloaded.queue.releases == 0
        assert reloaded.lease("w2")["key"] == grant["key"]


# -- edge hardening: stalled, oversized, and rate-limited clients ------------


class TestProtocolHardening:
    def test_oversized_request_line_rejected(self):
        with GridServer(list(CELLS[:1])) as server:
            with socket.create_connection(server.address, timeout=5) as s:
                s.sendall(b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n")
                reply = s.makefile("rb").readline()
            assert reply.startswith(b"HTTP/1.1 431")
            # the server survived to answer the next client
            assert http_json(server.address, "GET", "/api/healthz")[0] == 200

    def test_oversized_worker_body_gets_413(self):
        with GridServer(list(CELLS[:1]),
                        server_kwargs={"max_body_bytes": 1024}) as server:
            status, reply, _ = http_json(server.address, "POST", QUEUE_ROUTE, {
                "op": "complete", "key": KEYS[0], "lease_id": "L0",
                "result": {"pad": "x" * 4096},
            })
            assert status == 413 and "exceeds 1024 bytes" in reply["error"]
            assert server.status()["completions"] == 0
            # a normal-sized op on the same route is still served
            assert server.op({"op": "renew", "key": KEYS[0],
                              "lease_id": "L0"}) == {"ok": False}

    def test_stalled_connection_closed_after_read_timeout(self):
        with GridServer(list(CELLS[:1]),
                        server_kwargs={"request_timeout_s": 0.3}) as server:
            start = time.monotonic()
            with socket.create_connection(server.address, timeout=10) as s:
                # send nothing: the handler answers 408 and hangs up
                reply = s.makefile("rb").read()
            assert reply.startswith(b"HTTP/1.1 408")
            assert time.monotonic() - start < 8.0
            assert http_json(server.address, "GET", "/api/healthz")[0] == 200

    def test_rate_limited_worker_waits_and_retries(self):
        """A 429 paces a worker; it is never a connection failure.  The
        first 25 requests from the worker are refused — more than the 20
        failures that would make it give up — and it still finishes."""
        from repro.server.ratelimit import RateLimiter

        class Refuse25(RateLimiter):
            def check(self, client):
                if client == "paced" and self.limited < 25:
                    self.limited += 1
                    return False, 0.02
                return super().check(client)

        cells = list(CELLS[:2])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=10.0) as server:
            server.server.limiter = Refuse25()
            started = time.monotonic()
            stats = run_worker(server.address, worker_id="paced",
                               no_cache=True, poll_s=0.05)
            assert time.monotonic() - started >= 25 * 0.02  # it waited
            assert server.wait(timeout=10.0)
            assert _service_jsons(server) == serial
            assert server.server.limiter.limited == 25
        assert stats.completed == 2 and stats.failed == 0


# -- graceful worker shutdown under a real signal -----------------------------


class TestWorkerGracefulShutdown:
    def test_sigterm_releases_in_flight_lease_in_process(self):
        """run_worker in the main thread, a real SIGTERM mid-cell: the
        in-flight lease is handed back (no attempt charged) and the grid
        still finishes byte-identical to serial."""
        import signal as signal_mod

        cells = list(CELLS[:2])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=30.0) as server:
            address = server.address

            def fire_once_leased():
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.status()[LEASED] >= 1:
                        time.sleep(0.3)  # let run_worker set in_flight
                        os.kill(os.getpid(), signal_mod.SIGTERM)
                        return
                    time.sleep(0.02)

            threading.Thread(target=fire_once_leased, daemon=True).start()
            # delay-complete holds the finished cell (and its lease) for
            # 30s before reporting — a deterministic window for the signal
            stats = run_worker(address, worker_id="doomed", no_cache=True,
                               chaos="delay-complete:30")
            assert stats.stopped_by_signal == signal_mod.SIGTERM
            assert stats.released == 1
            status = server.status()
            assert status["releases"] == 1 and status["failures"] == 0
            assert status[LEASED] == 0 and status["finished"] is False
            assert status[PENDING] >= 1  # the released cell, uncharged
            results: list = []
            thread = _worker_thread(address, results, worker_id="healthy")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial

    def test_cli_worker_sigterm_exits_cleanly_and_releases(self):
        """The acceptance scenario with a real process: SIGTERM a CLI
        worker mid-cell; it exits 0 and its lease returns to pending."""
        import signal as signal_mod

        cells = list(CELLS[:2])
        with GridServer(cells, lease_s=30.0) as server:
            port = server.address[1]
            proc = _spawn_cli_worker(port, "--chaos", "delay-complete:30")
            try:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.status()[LEASED] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("worker never leased a cell")
                time.sleep(0.3)
                proc.send_signal(signal_mod.SIGTERM)
                out, _ = proc.communicate(timeout=30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0  # graceful exit, not a crash
            assert b"worker" in out  # it got far enough to print stats
            status = server.status()
            assert status["releases"] == 1
            assert status[LEASED] == 0 and status[PENDING] >= 1
            assert status["failures"] == 0
