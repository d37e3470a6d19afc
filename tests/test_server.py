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

import copy
import dataclasses
import functools
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import CCT_SPEC, EC2_SPEC
from repro.core.config import DareConfig, Policy
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
from repro.experiments.runner import ExperimentConfig, Simulation
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.experiments.service import cell_from_doc, cell_to_doc
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    build_grid,
    cache_key,
    doc_to_text,
    outcomes_to_doc,
    run_cells,
)
from repro.mapreduce.jobtracker import DataLossError
from repro.observability.stream import RecordStream
from repro.policies.rollout import RolloutConfig
from repro.server.app import names_server_path
from repro.server.jobstore import JobJournal, restore
from repro.server.ratelimit import RateLimiter, TokenBucket
from tests import cell_faults

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


# -- the cell-boundary property ------------------------------------------------

#: valid cell documents whose fields the property perturbs, one at a time:
#: the CCT cell (FIFO, ElephantTrap, one failure) and an EC2 cell (Fair with
#: a delay, LRU, invariant checks on).  Absent-by-default spec flags are set
#: so they are perturbed too.
_BOUNDARY_BASES = {
    name: cell_to_doc(SweepCell(config, WorkloadSpec("wl1", 3, 7)))
    for name, config in (
        ("cct", ExperimentConfig(
            cluster_spec=CCT_SPEC, dare=DareConfig.elephant_trap(), seed=7,
            failures=((30.0, 1),))),
        ("ec2", ExperimentConfig(
            cluster_spec=EC2_SPEC, scheduler="fair", fair_delay_s=1.5,
            dare=DareConfig.greedy_lru(), seed=7, check_invariants=True,
            invariant_sweep_every=50)),
    )
}
for _doc in _BOUNDARY_BASES.values():
    _doc["config"]["cluster_spec"].update(lite_network=False, mesoscale=False)

#: ~100x a base cell's events: a cell the door accepts must end within it
_EVENT_BUDGET = 1_000_000

#: the names a perturbed workload item goes by
_WORKLOAD_FIELDS = ("kind", "n_jobs", "seed", "path")


def _leaves(doc, path=()):
    """Paths to every scalar of a cell document but ``tag`` and ``x``,
    which only label a cell."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if path or k not in ("tag", "x")]
    elif isinstance(doc, list) and doc:
        items = list(enumerate(doc))
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _perturbations(doc, path):
    """Values of another type, and values out of (or at the edge of) the
    field's range.  In-range magnitudes change by at most 2x: a valid cell
    that is merely slow (a cpu_scale of 1e9) is bounded by the engine's
    event guard or ``serve --timeout``, not by this check."""
    value = _get(doc, path)
    wrong_types = [None, "x", [1], {}]
    if isinstance(value, bool):
        return [not value, None, "x", 0, 1, [], {}]
    if isinstance(value, int):
        return [-1, 0, 1, 2, 2 * value, 10**12, 1.5, True, *wrong_types]
    if isinstance(value, float):
        return [-1.0, 0.0, 1e-9, 0.5, 2 * value, math.nan, math.inf, -math.inf,
                2, True, *wrong_types]
    if isinstance(value, str):
        return ["", "x", "fifo", "fair", "fair-skip", "dedicated", "virtualized",
                "normal", "mixture", *[p.value for p in Policy], "lru", "et",
                "wl1", "wl2", "file", "/etc/hostname", None, 1, [], {}]
    return [-1, 0, 1.5, math.nan, True, "x", [], {}]  # an unset (None) part


#: every (base, field path, value) the property may draw.  A mesoscale
#: CCT cell whose failure plan kills node 1 runs away on a known hub defect
#: (tests/test_heartbeat_hub_idle.py::test_a_failed_member_does_not_stall_its_rack,
#: a strict xfail), so those cases wait for its fix
_BOUNDARY_CASES = [
    (base, path, value)
    for base, doc in sorted(_BOUNDARY_BASES.items())
    for path in _leaves(doc)
    for value in _perturbations(doc, path)
    if not (base == "cct" and path[-1] == "mesoscale" and value)
]


def _field_names(path):
    """What a refusal may name: the field, or a part that holds it."""
    names = {key for key in path if isinstance(key, str) and key != "config"}
    if path[0] == "workload":
        names.add(_WORKLOAD_FIELDS[path[1]])
    return {name.lower() for name in names}


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

    @pytest.mark.parametrize("change, message", [
        (dict(dare=DareConfig(Policy.ELEPHANT_TRAP, p=2.0)),
         "dare: p must be in [0, 1], got 2.0"),
        (dict(dare=DareConfig(Policy.GREEDY_LRU, budget=-1.0)),
         "dare: budget must be >= 0, got -1.0"),
        (dict(scarlett=ScarlettConfig(epoch_s=0.0)),
         "scarlett: epoch_s must be > 0, got 0.0"),
        (dict(rollout=RolloutConfig(branches=0)),
         "rollout: branches must be >= 1, got 0"),
        (dict(failures=((10.0, 999),)),
         "failures: node 999 is not a slave"),
        (dict(dare=DareConfig(Policy.ELEPHANT_TRAP, p="high")),
         "dare: '<=' not supported"),
    ], ids=["dare-p", "dare-budget", "scarlett-epoch", "rollout-branches",
            "failure-node", "dare-p-not-a-number"])
    def test_out_of_range_cell_is_400_naming_the_field(self, change, message):
        bad = CELLS[1]._replace(
            config=dataclasses.replace(CELLS[1].config, **change))
        with pytest.raises(JobRejected) as err:
            parse_job_spec({"cells": [cell_to_doc(CELLS[0]), cell_to_doc(bad)]})
        assert err.value.status == 400
        assert err.value.message.startswith(
            f"malformed cell document: ValueError: {message}")
        # a journal written before the check still restores such a cell
        assert cell_from_doc(cell_to_doc(bad)) == bad

    @pytest.mark.parametrize("every", [0, "x"])
    def test_spec_check_invariants_is_applied_before_the_check(self, every):
        cell = CELLS[0]._replace(config=dataclasses.replace(
            CELLS[0].config, check_invariants=False, invariant_sweep_every=every))
        doc = {"cells": [cell_to_doc(cell)]}
        assert parse_job_spec(doc)[0] == [cell]  # never read with checks off
        with pytest.raises(JobRejected) as err:
            parse_job_spec({**doc, "check_invariants": True})
        assert err.value.status == 400
        assert "invariant_sweep_every must be an integer >= 1" in err.value.message

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @example(case=("cct", ("config", "scheduler"), "bogus"))
    @example(case=("cct", ("config", "replication"), 0))
    @example(case=("cct", ("config", "failure_detection_s"), -1.0))
    @example(case=("cct", ("config", "fair_delay_s"), 1.5))
    @example(case=("ec2", ("config", "cluster_spec", "n_nodes"), 0))
    @example(case=("ec2", ("config", "cluster_spec", "n_nodes"), 1))
    @example(case=("cct", ("config", "cluster_spec", "heartbeat_s"), 0.0))
    @example(case=("cct", ("config", "cluster_spec", "heartbeat_s"), 1e-9))
    @example(case=("cct", ("config", "cluster_spec", "dedicated_racks"), 0))
    @example(case=("ec2", ("config", "invariant_sweep_every"), 0))
    @example(case=("ec2", ("config", "cluster_spec", "racks_per_agg"), 0))
    @example(case=("cct", ("config", "cluster_spec", "cpu_scale"), -1.0))
    @example(case=("cct", ("config", "cluster_spec", "map_slots"), 0))
    @example(case=("cct", ("config", "cluster_spec", "reduce_slots"), 0))
    @example(case=("cct", ("workload", 1), 10_000_000))
    @given(case=st.sampled_from(_BOUNDARY_CASES))
    def test_a_submitted_cell_is_refused_naming_the_field_or_it_runs(self, case):
        """One field of a valid cell document changed, in type or in range:
        the door either refuses it with a 400 that names the field (or its
        part), or the cell builds and its run ends within a fixed event
        budget.  A build error, a run that raises or a runaway run fails
        the test."""
        base, path, value = case
        doc = _set(copy.deepcopy(_BOUNDARY_BASES[base]), path, value)
        try:
            cells, _ = parse_job_spec({"cells": [doc]})
        except JobRejected as err:
            assert err.status == 400
            names = _field_names(path)
            assert any(name in err.message.lower() for name in names), (
                f"{err.message!r} names none of {sorted(names)}")
            return
        if names_server_path(doc):  # the HTTP door's own 400
            return
        config, workload = cells[0].config, cells[0].workload
        spec = config.cluster_spec
        # the strategy draws large sizes only as values the door must
        # refuse: one that passed is a failure, not an allocation
        assert isinstance(spec.n_nodes, int) and spec.n_nodes <= 200
        assert isinstance(spec.dedicated_racks, int) and spec.dedicated_racks <= 200
        assert isinstance(workload.n_jobs, int) and workload.n_jobs <= 10
        sim = Simulation(config, workload.materialize())
        sim.engine.max_events = _EVENT_BUDGET
        try:
            sim.run()
        except DataLossError:
            # the simulator's verdict on a failure plan that destroyed
            # every copy of a block (replication 1, or one slave): an end
            return
        assert sim.finished
        sim.finalize()


# -- the job manager over the in-process queue --------------------------------


def make_manager(tmp_path, **kwargs):
    defaults = dict(
        cache=ResultCache(tmp_path / "cache"),
        workers=2,
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

    def test_executed_cell_count_survives_contending_executors(
        self, tmp_path, monkeypatch
    ):
        """More executor threads than CPUs, many distinct one-job cells
        and a short switch interval: every executed cell is counted.  The
        count's read yields the GIL, so an increment made outside the
        manager's lock loses updates whatever the interpreter's bytecode
        atomicity.  Each executor's cell process is a stand-in that
        answers at once, so the threads contend without spawning one
        interpreter each."""
        import repro.experiments.jobs as jobs_mod

        answer = result_to_dict(run_cells([CELLS[0]])[0].result)

        class InstantCellProcess:
            def run(self, cell, timeout_s=None, on_trace=None):
                return answer, ""

            def close(self):
                pass

        monkeypatch.setattr(jobs_mod, "CellProcess", InstantCellProcess)

        class YieldingCount(JobManager):
            @property
            def cells_executed(self):
                count = self._count
                time.sleep(0)
                return count

            @cells_executed.setter
            def cells_executed(self, count):
                self._count = count

        cells = [SweepCell(ExperimentConfig(seed=SEED + 100 + i),
                           WorkloadSpec("wl1", 1, SEED), tag=f"s{i}")
                 for i in range(24)]
        manager = YieldingCount(cache=ResultCache(tmp_path / "cache"),
                                workers=4 * (os.cpu_count() or 1) + 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manager.start()
            job, _ = manager.submit({"cells": [cell_to_doc(c) for c in cells]})
            wait_for(lambda: not job.active, what="job completion")
        finally:
            sys.setswitchinterval(interval)
            manager.stop()
        assert job.state == JOB_DONE
        assert manager.cells_executed == len(cells)
        assert manager.cluster_doc()["cells_executed"] == len(cells)

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

        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.fails_once, str(counter)))
        manager = make_manager(
            tmp_path, workers=1, queue=server_queue(max_attempts=1)).start()
        try:
            spec = {"cells": [cell_to_doc(CELLS[0])]}
            job, _ = manager.submit(spec)
            wait_for(lambda: not job.active, what="job failure")
            assert job.state == JOB_FAILED
            assert "injected cell failure" in job.error
            doc = manager.job_result_doc(job)
            assert doc["cells"][0]["ok"] is False
            # resubmitting the same spec re-arms the quarantined cell,
            # whose second attempt runs
            job2, created = manager.submit(spec)
            assert job2 is job and not created
            wait_for(lambda: not job.active, what="retried job")
            assert job.state == JOB_DONE
        finally:
            manager.stop()
        assert len(cell_faults.attempts(counter)) == 2

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
        ack = manager.complete(grant["key"], grant["lease_id"], result)
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

    def test_crashing_cell_runs_once_per_queue_attempt(self, tmp_path, monkeypatch):
        """The queue's max_attempts is the only retry count: a cell whose
        process dies is run once per attempt, then is quarantined with
        the exit code."""
        import repro.experiments.sweep as sweep_mod

        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.crash, str(counter), 3, ""))
        manager = make_manager(tmp_path, workers=1,
                               queue=server_queue(max_attempts=2)).start()
        try:
            job, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
            wait_for(lambda: not job.active, what="job failure")
        finally:
            manager.stop()
        assert job.state == JOB_FAILED
        assert len(cell_faults.attempts(counter)) == 2
        entry = manager.queue.entries[job.keys[0]]
        assert entry.state == "quarantined" and "exit code 3" in entry.error

    def test_stop_ends_and_reaps_every_cell_process(self, tmp_path, monkeypatch):
        """stop() leaves no cell process behind: the idle one and the one
        still in a cell when the executors' join gives up are both
        terminated and reaped."""
        import repro.experiments.sweep as sweep_mod

        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.hang, str(counter), "fair"))
        hangs = CELLS[1]._replace(
            config=dataclasses.replace(CELLS[1].config, scheduler="fair"))
        manager = make_manager(tmp_path).start()
        try:
            # the executor that takes the hanging cell keeps it, so the
            # other executor runs the second cell in a second process
            manager.submit({"cells": [cell_to_doc(hangs)]})
            done, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
            wait_for(lambda: not done.active
                     and len(cell_faults.attempts(counter)) == 2,
                     what="one finished cell and one hanging cell")
        finally:
            manager.stop(timeout=0.5)
        assert done.state == JOB_DONE
        pids = cell_faults.attempts(counter)
        assert len(set(pids)) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):  # reaped
                os.waitpid(pid, os.WNOHANG)
            with pytest.raises(ProcessLookupError):  # and gone
                os.kill(pid, 0)

    def test_stream_jobs_need_an_executor(self, tmp_path):
        manager = make_manager(tmp_path, workers=0)
        with pytest.raises(JobRejected) as err:
            manager.submit({"cells": [cell_to_doc(CELLS[0])], "stream": True})
        assert err.value.status == 400

    def test_stream_job_cell_is_bounded_by_the_cell_timeout(self, tmp_path):
        """A ``stream: true`` cell runs in its executor's cell process, so
        ``cell_timeout_s`` ends it however many trace records it has sent
        meanwhile.  CPU times stretched 1e9-fold make this valid cell run
        until the engine's 200M-event guard."""
        spec = CCT_SPEC._replace(cpu_scale=1e9)
        endless = SweepCell(ExperimentConfig(cluster_spec=spec, seed=SEED),
                            WorkloadSpec("wl1", 3, SEED))
        manager = make_manager(tmp_path, workers=1, cell_timeout_s=1.0,
                               queue=server_queue(max_attempts=1)).start()
        try:
            job, _ = manager.submit({"cells": [cell_to_doc(endless)],
                                     "stream": True})
            wait_for(lambda: not job.active, timeout=30, what="the timeout")
        finally:
            manager.stop()
        assert job.state == JOB_FAILED
        assert job.error.endswith(": cell timed out after 1s and was terminated")
        events, _, closed = job.stream.read_since(0)
        assert closed and any(e.kind == "trace" for e in events)

    def test_stream_job_whose_cell_process_dies_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        """A ``stream: true`` cell whose process exits fails its attempt
        like any cell: after ``max_attempts`` it is quarantined with the
        exit code, and the executor then serves the next stream job from
        a fresh process."""
        import repro.experiments.sweep as sweep_mod

        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.crash, str(counter), 5, "fair"))
        dies = CELLS[0]._replace(
            config=dataclasses.replace(CELLS[0].config, scheduler="fair"))
        manager = make_manager(tmp_path, workers=1,
                               queue=server_queue(max_attempts=2)).start()
        try:
            job, _ = manager.submit({"cells": [cell_to_doc(dies)], "stream": True})
            wait_for(lambda: not job.active, what="job failure")
            entry = manager.queue.entries[job.keys[0]]
            assert job.state == JOB_FAILED and entry.state == "quarantined"
            assert entry.error == "worker died (exit code 5)"
            assert len(cell_faults.attempts(counter)) == 2
            served, _ = manager.submit({"cells": [cell_to_doc(CELLS[1])],
                                        "stream": True})
            wait_for(lambda: not served.active, what="the next job")
        finally:
            manager.stop()
        assert served.state == JOB_DONE
        events, _, _ = served.stream.read_since(0)
        assert any(e.kind == "trace" for e in events)
        assert len(set(cell_faults.attempts(counter))) == 3

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

    @pytest.mark.parametrize("workload", [["wl1", 5, -1, ""], ["wl1", 5.0, 7, ""]],
                             ids=["negative-seed", "float-n-jobs"])
    def test_journal_restores_a_cell_the_door_now_refuses(self, workload, tmp_path):
        """An older server took such a cell and journaled it: submission
        refuses it now, but reading a journal checks nothing new."""
        with pytest.raises(JobRejected, match="malformed cell document: "
                                              "ValueError: workload "):
            parse_job_spec({"cells": [{**cell_to_doc(CELLS[0]), "workload": workload}]})
        journal_path = tmp_path / "jobs.jsonl"
        first = make_manager(tmp_path, workers=0, journal=JobJournal(journal_path))
        job, _ = first.submit({"cells": [cell_to_doc(CELLS[0])]})
        first.journal.close()
        # make the journal hold what that server wrote: the cell and its key
        old_cell = CELLS[0]._replace(workload=WorkloadSpec(*workload))
        text = journal_path.read_text()
        for valid, journaled in ((canonical_json(list(CELLS[0].workload)),
                                  canonical_json(workload)),
                                 (job.keys[0], cache_key(old_cell.config,
                                                         old_cell.workload))):
            assert valid in text
            text = text.replace(valid, journaled)
        journal_path.write_text(text)
        revived = make_manager(tmp_path, workers=0, journal=JobJournal(journal_path))
        assert restore(revived, journal_path) == 1
        assert list(revived.jobs[job.id].cells[0].workload) == workload

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

    def test_restored_failed_job_reports_as_it_did_live(self, tmp_path):
        """A failed job restored from its journal keeps its error, and
        each cell reads as the cache says: done with a cached result,
        quarantined without one.  A resubmission retries only the
        quarantined cell."""
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "jobs.jsonl"
        live = make_manager(tmp_path, cache=cache, workers=0,
                            queue=server_queue(max_attempts=1),
                            journal=JobJournal(journal_path))
        spec = {"cells": [cell_to_doc(c) for c in CELLS[:2]]}
        job, _ = live.submit(spec)
        good = live.lease("w")
        live.complete(good["key"], good["lease_id"],
                      result_to_dict(run_cells([CELLS[0]])[0].result))
        bad = live.lease("w")
        live.fail(bad["key"], bad["lease_id"], "Traceback ...\nRuntimeError: boom")
        assert job.state == JOB_FAILED and job.error == "c1: RuntimeError: boom"
        before = live.job_status_doc(job)
        live.journal.close()

        revived = make_manager(tmp_path, cache=cache, workers=0)
        restore(revived, journal_path)
        job2 = revived.jobs[job.id]
        after = revived.job_status_doc(job2)
        assert after["state"] == JOB_FAILED and after["error"] == job.error
        for doc in (before, after):
            assert [c["state"] for c in doc["cells"]] == ["done", "quarantined"]
            assert (doc["progress"]["done"], doc["progress"]["failed"]) == (1, 1)
        assert revived.jobs_doc()[0]["progress"] == after["progress"]
        good_cell, bad_cell = revived.job_result_doc(job2)["cells"]
        assert good_cell["ok"] and not bad_cell["ok"]
        assert bad["key"] in bad_cell["error"]

        job3, created = revived.submit(spec)
        assert job3 is job2 and not created and job2.active
        assert revived.queue.entries[good["key"]].state == "done"
        assert revived.queue.entries[bad["key"]].state == "pending"

    def test_lost_result_is_an_error_naming_its_key(self, tmp_path):
        """Results are read back from the cache without counting a hit or
        a miss; a settled cell whose entry was removed or corrupted
        comes back failed, with an error that names its key."""
        cache = ResultCache(tmp_path / "cache")
        manager = make_manager(tmp_path, cache=cache, workers=0)
        job, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        grant = manager.lease("w")
        key = grant["key"]
        manager.complete(key, grant["lease_id"],
                         result_to_dict(run_cells([CELLS[0]])[0].result))
        assert job.state == JOB_DONE
        lookups = (cache.hits, cache.misses)
        assert manager.job_result_doc(job)["cells"][0]["ok"]
        assert manager.outcome(CELLS[0], key).ok
        assert (cache.hits, cache.misses) == lookups

        assert cache.invalidate(key)
        [cell_doc] = manager.job_result_doc(job)["cells"]
        assert cell_doc["ok"] is False and key in cell_doc["error"]
        cache.path(key).write_text("{not json")
        outcome = manager.outcome(CELLS[0], key)
        assert not outcome.ok and key in outcome.error

    def test_private_cache_lives_as_long_as_the_manager(self, tmp_path, monkeypatch):
        """Without a cache the manager keeps results in a private
        temporary directory: readable after stop(), removed with the
        manager."""
        import gc
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        manager = JobManager(workers=1).start()
        root = manager.cache.root
        assert root.parent == tmp_path
        try:
            job, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
            wait_for(lambda: not job.active, what="job completion")
        finally:
            manager.stop()
        assert manager.job_result_doc(job)["cells"][0]["ok"]
        assert "cache" in manager.cluster_doc()
        assert len(ResultCache(root)) == 1
        del manager
        gc.collect()
        assert not root.exists()

    def test_finished_jobs_keep_no_result_documents(self, tmp_path):
        """A settled cell's result lives only in the cache.  Between N
        and 4N finished one-cell jobs, retained memory (tracemalloc,
        after gc) grows by well under one parsed result document per
        job (~53 KB for this cell); the job's own records take ~8 KB."""
        import gc
        import tracemalloc

        from repro.cluster.cluster import CCT_SPEC
        from repro.experiments.runner import run_experiment

        def config(seed):
            return ExperimentConfig(cluster_spec=CCT_SPEC, scheduler="fair",
                                    dare=DareConfig.elephant_trap(), seed=seed)

        workload = WorkloadSpec("wl1", 60, SEED)
        doc_text = json.dumps(result_to_dict(
            run_experiment(config(SEED), workload.materialize())))
        manager = make_manager(tmp_path, workers=0)

        def finish(seeds):
            for seed in seeds:
                cell = SweepCell(config(seed), workload)
                job, _ = manager.submit({"cells": [cell_to_doc(cell)]})
                grant = manager.lease("remote")
                # each completion arrives as its own parsed document
                manager.complete(grant["key"], grant["lease_id"],
                                 json.loads(doc_text))
                assert job.state == JOB_DONE

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        n = 40
        tracemalloc.start()
        try:
            finish(range(n))
            at_n = retained()
            finish(range(n, 4 * n))
            per_job = (retained() - at_n) / (3 * n)
        finally:
            tracemalloc.stop()
        assert per_job < 16_000, f"{per_job:.0f} B retained per finished job"

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

    @pytest.mark.parametrize("path", ["existing.json", "no-such-dir/w.json"])
    def test_submitted_cell_may_not_name_a_workload_file(self, path, tmp_path):
        """The server would hash and load whatever file a client names, and
        a missing one answered 500 with the errno line."""
        (tmp_path / "existing.json").write_text("{}")
        doc = cell_to_doc(CELLS[0])
        doc["workload"] = ["file", 5, 1, str(tmp_path / path)]
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, _, data = st.request(
                    "POST", "/api/jobs", body={"cells": [cell_to_doc(CELLS[1]), doc]})
                assert status == 400
                assert "'file' workload" in json.loads(data)["error"]
                assert not manager.jobs
        finally:
            manager.stop()

    def test_submitted_out_of_range_cell_is_refused(self, tmp_path):
        """A cell that would fail in every executor is refused at the
        door, naming the field, instead of queued and quarantined."""
        bad = CELLS[0]._replace(config=dataclasses.replace(
            CELLS[0].config, failures=((10.0, 999),)))
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, _, data = st.request(
                    "POST", "/api/jobs", body={"cells": [cell_to_doc(bad)]})
                assert status == 400
                assert json.loads(data)["error"] == (
                    "malformed cell document: ValueError: failures: "
                    "node 999 is not a slave (master is 0)")
                assert not manager.jobs
        finally:
            manager.stop()

    def test_submitted_cell_with_no_jobs_is_refused(self, tmp_path):
        empty = cell_to_doc(CELLS[0])
        empty["workload"] = ["wl1", 0, 7, ""]
        manager = make_manager(tmp_path).start()
        try:
            with ServerThread(manager) as st:
                status, _, data = st.request(
                    "POST", "/api/jobs", body={"cells": [empty]}
                )
                assert status == 400
                assert "a wl1 workload needs at least 1 job (got 0)" in (
                    json.loads(data)["error"]
                )
                assert not manager.jobs
        finally:
            manager.stop()

    def test_sse_streams_trace_records(self, tmp_path):
        """A ``stream: true`` job's SSE ``trace`` events are, in order, the
        records a Tracer subscriber collects from an in-process run of the
        same cell, which emits fewer records than the job's ring holds."""
        from repro.experiments.runner import run_experiment
        from repro.observability.trace import Tracer

        tracer = Tracer(engine_events=False)
        records = []
        tracer.subscribe(records.append)
        run_experiment(CELLS[0].config, CELLS[0].workload.materialize(),
                       tracer=tracer)
        expected = json.loads(json.dumps([[r.type, r.time, r.data] for r in records]))
        assert 1000 < len(expected) < RecordStream().capacity - 100
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
                traces = [[d["type"], d["t"], d["data"]]
                          for k, _, d in events if k == "trace"]
                assert traces == expected
                assert events[-1][0] == "done"
                assert "dropped" not in {k for k, _, _ in events}
        finally:
            manager.stop()

    def test_stream_job_cells_are_never_leased_to_remote_workers(
        self, tmp_path
    ):
        """A remote worker polling POST /api/queue is handed the plain
        job's cell but never the ``stream: true`` job's, which runs on the
        server's executors so its trace records reach the SSE stream."""
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

    def test_remote_completion_must_parse_as_a_result(self, tmp_path):
        """A remote ``complete`` whose result is no result document is a
        400: the lease stays live, nothing is cached, and the cell is
        not served as a success."""
        result = result_to_dict(run_cells([CELLS[0]])[0].result)
        cache = ResultCache(tmp_path / "cache")
        manager = make_manager(tmp_path, cache=cache, workers=0)
        job, _ = manager.submit({"cells": [cell_to_doc(CELLS[0])]})
        with ServerThread(manager) as st:
            def op(body):
                status, _, data = st.request("POST", "/api/queue", body=body)
                return status, json.loads(data)

            status, grant = op({"op": "lease", "worker": "remote"})
            assert status == 200
            lease = {"key": grant["key"], "lease_id": grant["lease_id"]}
            status, reply = op({"op": "complete", **lease, "result": {}})
            assert status == 400
            assert "malformed result document" in reply["error"]
            assert op({"op": "renew", **lease}) == (200, {"ok": True})
            assert len(cache) == 0 and job.active
            assert manager.job_result_doc(job) is None
            status, reply = op({"op": "complete", **lease, "result": result})
            assert status == 200 and reply["accepted"]
        assert len(cache) == 1
        assert manager.job_result_doc(job)["cells"][0]["result"] == result

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
         "--grace", "10"],
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
