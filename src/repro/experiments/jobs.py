"""The job manager: many clients' grids multiplexed onto one work queue.

This is the bridge between the async HTTP front door
(:mod:`repro.server`) and the cell-process/queue world of
:mod:`repro.experiments.sweep` and :mod:`repro.experiments.service`.
The server thread hands :class:`JobManager` parsed submissions; the
manager turns each into a :class:`Job` — a list of content-addressed
:class:`~repro.experiments.sweep.SweepCell` s — and enqueues the cells
onto the one :class:`~repro.experiments.service.WorkQueue` it owns:

* **Cells deduplicate across jobs.**  Two clients submitting overlapping
  grids share the overlapping cells' single execution (the queue is
  keyed by :func:`~repro.experiments.sweep.cache_key`), and every
  completion fans out to every job that contains the cell.
* **One result store.**  Every settled cell's result lives only in the
  manager's :class:`~repro.experiments.sweep.ResultCache` (a private
  temporary one when the caller has none) and is read back from it;
  the queue keeps states and errors.
* **Cache pre-resolution.**  Submission resolves every cell it can from
  the cache before any executor touches it, exactly like ``run_cells``
  does — a warm grid completes at submit time with zero
  ``run_experiment`` calls.
* **Idempotent submissions.**  A job's identity is a digest of its
  cells' cache keys (or an explicit client ``idempotency_key``);
  re-submitting an in-flight or finished grid returns the existing job
  instead of queueing a duplicate.
* **One set of worker operations.**  :meth:`~JobManager.lease`,
  ``renew``, ``complete`` and ``fail`` are the only way into the queue,
  for the manager's executor threads (in-process) and remote ``repro
  sweep --worker`` processes (``POST /api/queue``) alike.  An accepted
  completion is cached once and fanned out to every job holding the cell.
* **Executor threads** run each leased cell once — by default
  (``isolation='process'``) in the executor's own long-lived
  :class:`~repro.experiments.sweep.CellProcess`, spawned on its first
  cell and bounded per cell by ``cell_timeout_s`` (counted from the
  moment the process is ready), or in-thread (``isolation='thread'``,
  used by tests).  A failed execution is a failed attempt, so the
  queue's ``max_attempts`` is the one retry count; a timed-out or dead
  cell process is replaced on the executor's next cell, and
  :meth:`~JobManager.stop` ends and reaps every one.  The executors
  alone get the cells of active trace-streaming jobs, and run them
  in-process so tracer records reach the job's
  :class:`~repro.observability.stream.RecordStream`.
* **Bounded backlog.**  At most ``max_queued_jobs`` jobs may be active;
  beyond that submissions are rejected with a 503-shaped
  :class:`JobRejected` so the API edge can push back instead of queueing
  unboundedly.

Every job carries a bounded :class:`RecordStream` of progress ticks,
per-cell outcomes, and (for streaming jobs) trace-bus records — the
substrate the server's SSE endpoint reads.  Restart journaling lives in
:mod:`repro.server.jobstore`; the manager only exposes :meth:`adopt` for
replaying journaled submissions into a fresh queue, where the result
cache makes re-enqueued warm cells resolve instantly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.config import check_number
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.experiments.service import (
    DONE,
    PENDING,
    QUARANTINED,
    WorkQueue,
    cell_from_doc,
    cell_to_doc,
)
from repro.experiments.sweep import (
    CellOutcome,
    CellProcess,
    ResultCache,
    SweepCell,
    build_grid,
    cache_key,
    outcomes_to_doc,
    run_cells,
)
from repro.observability.stream import RecordStream

#: job lifecycle states
RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: most jobs one submitted cell's workload may hold, grid or explicit
MAX_JOBS = 100_000

#: fields a submission document may carry
_SPEC_FIELDS = frozenset(
    {"grid", "n_jobs", "seed", "cells", "check_invariants", "stream",
     "idempotency_key"}
)


class JobRejected(Exception):
    """A submission the API edge must refuse, with its HTTP status."""

    def __init__(self, status: int, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


def check_cell(cell: SweepCell) -> SweepCell:
    """Raise ``ValueError`` naming the first field that keeps ``cell`` off
    the job queue; return the cell.  ``cell_from_doc`` checks none of it,
    so a journal written before a rule existed still restores."""
    cell.config.validate()
    check_number("workload seed", cell.workload.seed, 0, integer=True)
    check_number("workload n_jobs", cell.workload.n_jobs, 1, MAX_JOBS, integer=True)
    return cell


def parse_job_spec(doc: object) -> Tuple[List[SweepCell], Dict]:
    """Validate one submission document into (cells, normalized spec).

    Accepts either a named grid (``{"grid": "smoke", "n_jobs": 8}``) or
    explicit cells (``{"cells": [...]}`` in ``cell_to_doc`` form, each
    checked by :func:`check_cell` as the spec's ``check_invariants`` leaves
    it).  Raises :class:`JobRejected` (400-shaped) on anything malformed —
    unknown fields are rejected outright so typos fail loudly.
    """
    if not isinstance(doc, dict):
        raise JobRejected(400, "request body must be a JSON object")
    unknown = sorted(set(doc) - _SPEC_FIELDS)
    if unknown:
        raise JobRejected(400, f"unknown field(s): {', '.join(unknown)}")
    spec: Dict = {
        "grid": doc.get("grid", "smoke"),
        "n_jobs": doc.get("n_jobs", 200),
        "seed": doc.get("seed", 20110926),
        "check_invariants": bool(doc.get("check_invariants", False)),
        "stream": bool(doc.get("stream", False)),
    }

    def with_spec(cell: SweepCell) -> SweepCell:  # the spec may switch checks on
        if not spec["check_invariants"]:
            return cell
        return cell._replace(config=dataclasses.replace(cell.config, check_invariants=True))

    if "cells" in doc:
        if not isinstance(doc["cells"], list) or not doc["cells"]:
            raise JobRejected(400, "'cells' must be a non-empty list")
        spec["grid"] = "custom"
        try:
            cells = [check_cell(with_spec(cell_from_doc(d))) for d in doc["cells"]]
        except Exception:
            raise JobRejected(
                400,
                "malformed cell document: "
                + traceback.format_exc(limit=0).strip().splitlines()[-1],
            )
    else:
        if not isinstance(spec["grid"], str):
            raise JobRejected(400, "'grid' must be a string")
        try:
            check_number("'n_jobs'", spec["n_jobs"], 1, MAX_JOBS, integer=True)
            check_number("'seed'", spec["seed"], integer=True)
            cells = build_grid(spec["grid"], n_jobs=spec["n_jobs"], seed=spec["seed"])
        except ValueError as exc:
            raise JobRejected(400, str(exc))
        cells = [with_spec(c) for c in cells]
    return cells, spec


@dataclass
class Job:
    """One client submission: a list of cells tracked through the queue."""

    id: str
    idempotency_key: str
    spec: Dict
    cells: List[SweepCell]
    keys: List[str]
    state: str = RUNNING
    error: str = ""
    created: float = 0.0
    finished: float = 0.0
    #: bounded event ring the SSE layer reads (progress/cell/trace/done)
    stream: RecordStream = field(default_factory=RecordStream, repr=False)

    def __post_init__(self) -> None:
        self.key_set = frozenset(self.keys)

    @property
    def active(self) -> bool:
        """True while the job still has cells in flight."""
        return self.state == RUNNING

    def to_doc(self) -> Dict:
        """The journal-safe submission record (no runtime state)."""
        return {
            "id": self.id,
            "idempotency_key": self.idempotency_key,
            "spec": self.spec,
            "cells": [cell_to_doc(c) for c in self.cells],
            "keys": self.keys,
            "created": self.created,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "Job":
        return cls(
            id=doc["id"],
            idempotency_key=doc["idempotency_key"],
            spec=doc["spec"],
            cells=[cell_from_doc(d) for d in doc["cells"]],
            keys=list(doc["keys"]),
            created=doc.get("created", 0.0),
        )


def job_identity(keys: List[str], spec: Dict) -> str:
    """The default idempotency key: a digest of the cells + options."""
    doc = {"keys": sorted(keys), "stream": bool(spec.get("stream", False))}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def server_queue(lease_s: float = 3600.0, max_attempts: int = 2,
                 clock: Callable[[], float] = time.time) -> WorkQueue:
    """The ``repro serve`` queue: long leases, quick retries, no stealing
    (in-process executors cannot crash apart from the manager, so
    speculative duplicates would only waste CPU)."""
    return WorkQueue(lease_s=lease_s, max_attempts=max_attempts, backoff_s=0.2,
                     backoff_cap_s=5.0, max_leases=1, clock=clock)


class JobManager:
    """Executes submitted jobs over one WorkQueue + ResultCache.

    The manager is the only owner of ``queue`` (default:
    :func:`server_queue`): every transition happens under its lock.
    ``cache=None`` gives it a private cache in a temporary directory that
    lives as long as the manager object (callers read outcomes after
    :meth:`stop`).
    """

    def __init__(
        self,
        cache: Union[ResultCache, str, Path, None] = None,
        workers: int = 2,
        isolation: str = "process",
        max_queued_jobs: int = 16,
        max_cells_per_job: int = 512,
        cell_timeout_s: Optional[float] = None,
        queue: Optional[WorkQueue] = None,
        stream_capacity: int = 4096,
        journal: Optional[object] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if isolation not in ("process", "thread"):
            raise ValueError(f"unknown isolation {isolation!r}")
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self._private = None
        if cache is None:
            self._private = tempfile.TemporaryDirectory(prefix="repro-results-")
            cache = ResultCache(self._private.name)
        self.cache: ResultCache = cache
        self.isolation = isolation
        self.workers = workers
        self.max_queued_jobs = max_queued_jobs
        self.max_cells_per_job = max_cells_per_job
        self.cell_timeout_s = cell_timeout_s
        self.stream_capacity = stream_capacity
        self.journal = journal  # anything with .append(doc); see server.jobstore
        self._clock = clock
        self._lock = threading.RLock()
        self.queue = queue if queue is not None else server_queue(clock=clock)
        self.jobs: Dict[str, Job] = {}
        self.order: List[str] = []
        self._by_identity: Dict[str, str] = {}
        self.draining = False
        self.started = clock()
        #: cells this manager's executors ran (0 for a fully warm grid)
        self.cells_executed = 0
        self._seq = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._current: Dict[str, Optional[Dict]] = {}
        #: each executor's cell process (process isolation only)
        self._cell_processes: Dict[str, CellProcess] = {}
        #: state of each cell of a restored finished job (no queue entry)
        self._restored: Dict[str, str] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobManager":
        """Start the executor threads; under process isolation each
        spawns its cell process on its first cell."""
        for n in range(self.workers):
            name = f"exec-{n}"
            self._current[name] = None
            if self.isolation == "process":
                self._cell_processes[name] = CellProcess()
            thread = threading.Thread(
                target=self._executor_loop, args=(name,), name=name, daemon=True
            )
            self._threads.append(thread)
            thread.start()
        return self

    def drain(self) -> None:
        """Refuse new submissions and leases; in-flight cells still land."""
        with self._lock:
            self.draining = True
            self.queue.drain()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain, stop the executors, wait for in-flight cells, then end
        and reap every cell process (one still in a cell after
        ``timeout`` is terminated)."""
        self.drain()
        self._stop.set()
        self._wake.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        for cell_process in self._cell_processes.values():
            cell_process.close()

    def busy(self) -> bool:
        """True while any lease is out (reclaiming expired ones first)."""
        with self._lock:
            self.expire()
            return self.queue.active_leases() > 0

    # -- submission ------------------------------------------------------------

    def submit(self, doc: object) -> Tuple[Job, bool]:
        """Accept one submission; returns ``(job, created)``.

        ``created=False`` means the idempotency key matched an existing
        job (the caller should answer 200, not 202).  Raises
        :class:`JobRejected` for malformed specs (400), oversized grids
        (413), a draining server or a full backlog (503).
        """
        cells, spec = parse_job_spec(doc)
        if len(cells) > self.max_cells_per_job:
            raise JobRejected(
                413,
                f"grid has {len(cells)} cells; this server accepts at most "
                f"{self.max_cells_per_job} per job",
            )
        if spec["stream"] and not self.workers:
            raise JobRejected(
                400, "'stream' jobs run in the server, which has no executors"
            )
        keys = [cache_key(c.config, c.workload) for c in cells]
        identity = ""
        if isinstance(doc, dict) and doc.get("idempotency_key"):
            identity = str(doc["idempotency_key"])
        if not identity:
            identity = job_identity(keys, spec)
        with self._lock:
            if self.draining:
                raise JobRejected(503, "server is draining", retry_after_s=30.0)
            existing_id = self._by_identity.get(identity)
            if existing_id is not None:
                existing = self.jobs[existing_id]
                if existing.state != JOB_FAILED:
                    return existing, False
                self._reset_failed(existing)
                return existing, False
            active = sum(1 for j in self.jobs.values() if j.active)
            if active >= self.max_queued_jobs:
                raise JobRejected(
                    503,
                    f"job backlog is full ({active} active jobs)",
                    retry_after_s=5.0,
                )
            self._seq += 1
            job = Job(
                id=f"j{self._seq:04d}-{identity[:12]}",
                idempotency_key=identity,
                spec=spec,
                cells=cells,
                keys=keys,
                created=self._clock(),
                stream=RecordStream(self.stream_capacity),
            )
            self._register(job)
            if self.journal is not None:
                self.journal.append({"event": "submit", "job": job.to_doc()})
            self._enqueue(job)
        self._wake.set()
        return job, True

    def adopt(self, job: Job, state: str, error: str = "") -> None:
        """Re-create a journaled job after a restart (before serving).

        Finished jobs keep their terminal state and error; their cells
        stay out of the queue, each done if the cache holds its result
        and quarantined if not.  Unfinished jobs re-enqueue; cache
        pre-resolution makes the already-computed prefix instant.
        """
        with self._lock:
            job.stream = RecordStream(self.stream_capacity)
            # ids are f"j{seq:04d}-{hash}": the digits run up to the dash
            self._seq = max(self._seq, int(job.id[1:].split("-", 1)[0]))
            self._register(job)
            if state in (JOB_DONE, JOB_FAILED):
                job.state = state
                job.error = error
                job.stream.close()
                for key in job.keys:
                    cached = self.cache.path(key).exists()
                    self._restored[key] = DONE if cached else QUARANTINED
                return
            self._enqueue(job)
        self._wake.set()

    def _register(self, job: Job) -> None:
        self.jobs[job.id] = job
        self.order.append(job.id)
        self._by_identity[job.idempotency_key] = job.id

    def _enqueue(self, job: Job) -> None:
        """Add the job's cells to the queue and pre-resolve cache hits."""
        job.state = RUNNING
        job.error = ""
        self.queue.add_cells(job.cells)
        for key in job.keys:
            entry = self.queue.entries[key]
            if entry.state != PENDING:
                continue
            if entry.cell["config"].get("trace_path"):
                continue  # must really run so the trace gets written
            if self.cache.load(key) is not None:
                self.queue.mark_cached(key)
        job.stream.publish("job", {"id": job.id, "state": job.state})
        self._refresh_job(job)

    def _reset_failed(self, job: Job) -> None:
        """Re-arm a failed job's quarantined cells for a retry submission."""
        now = self._clock()
        for key in job.keys:
            entry = self.queue.entries.get(key)
            if entry is not None and entry.state == QUARANTINED:
                entry.state = PENDING
                entry.attempts = 0
                entry.error = ""
                entry.not_before = now
        job.stream = RecordStream(self.stream_capacity)
        self._enqueue(job)
        self._wake.set()

    # -- worker operations -----------------------------------------------------

    def lease(self, worker: str, local: bool = False) -> Dict:
        """Hand ``worker`` a cell (the ``lease`` op; reply as WorkQueue's).

        Cells of an active ``stream: true`` job go only to the manager's
        own executors (``local``), so their trace records reach the
        job's stream.
        """
        with self._lock:
            self.expire()
            skip: FrozenSet[str] = frozenset()
            if not local:
                skip = skip.union(*(
                    job.key_set for job in self.jobs.values()
                    if job.active and job.spec.get("stream")
                ))
            reply = self.queue.lease(worker, skip=skip)
            if "key" in reply:
                event = {"phase": "started", "key": reply["key"],
                         "tag": reply["cell"]["tag"], "worker": worker}
                for job in self._holding(reply["key"]):
                    job.stream.publish("cell", event)
            return reply

    def renew(self, key: str, lease_id: str) -> bool:
        """Extend a live lease (the ``renew`` op); False if it was lost."""
        with self._lock:
            return self.queue.renew(key, lease_id)

    def complete(
        self,
        key: str,
        lease_id: str,
        result_doc: Dict,
        cached: bool = False,
    ) -> Dict:
        """Record a finished cell (the ``complete`` op).

        The first completion is stored in the cache, then announced to
        every job holding the cell (a reader of the announcement finds
        the result stored); later ones are acknowledged duplicates that
        never touch the cache.
        """
        with self._lock:
            granted = self._granted(key, lease_id)
            reply = self.queue.complete(key, lease_id, cached=cached)
            if reply.get("accepted"):
                self.cache.store(key, result_doc)
                self._finished(key, granted, ok=True, from_cache=cached, error="")
            return reply

    def fail(
        self, key: str, lease_id: str, error: str, requeue: bool = False
    ) -> Dict:
        """Record a failed attempt or a voluntary release (the ``fail`` op)."""
        with self._lock:
            granted = self._granted(key, lease_id)
            reply = self.queue.fail(key, lease_id, error, requeue=requeue)
            if reply.get("accepted"):
                self._finished(key, granted, ok=False, from_cache=False,
                               error=error)
            return reply

    def expire(self) -> int:
        """Reclaim expired leases; settles any job a quarantine finished."""
        with self._lock:
            expired = self.queue.expire()
            if expired:
                for job in [j for j in self.jobs.values() if j.active]:
                    self._refresh_job(job)
            return expired

    def _holding(self, key: str) -> List[Job]:
        return [j for j in self.jobs.values() if j.active and key in j.key_set]

    def _granted(self, key: str, lease_id: str) -> float:
        entry = self.queue.entries.get(key)
        lease = entry.leases.get(lease_id) if entry is not None else None
        return lease["granted"] if lease else self._clock()

    def _finished(self, key: str, granted: float, **outcome) -> None:
        """Publish one cell's outcome to every job holding it."""
        entry = self.queue.entries[key]
        event = dict(
            outcome, phase="finished", key=key, tag=entry.cell["tag"],
            state=entry.state, error=_last_line(outcome["error"]),
            duration_s=round(max(0.0, self._clock() - granted), 6),
        )
        for job in self._holding(key):
            job.stream.publish("cell", event)
            self._refresh_job(job)

    # -- execution -------------------------------------------------------------

    def _executor_loop(self, name: str) -> None:
        while not self._stop.is_set():
            reply = self.lease(name, local=True)
            if "key" not in reply:
                # idle: wait for a submission (or backoff expiry) to wake us
                retry = min(0.2, float(reply.get("retry_s", 0.2)) or 0.2)
                self._wake.wait(retry)
                self._wake.clear()
                continue
            key = reply["key"]
            cell = cell_from_doc(reply["cell"])
            self._current[name] = {"key": key, "tag": cell.tag}
            try:
                result_doc, error = self._execute(name, cell, key)
            except Exception:  # e.g. the OS refused a child process
                result_doc, error = None, traceback.format_exc()
            finally:
                self._current[name] = None
            if result_doc is not None:
                self.complete(key, reply["lease_id"], result_doc)
            else:
                self.fail(key, reply["lease_id"], error)

    def _execute(
        self, name: str, cell: SweepCell, key: str
    ) -> Tuple[Optional[Dict], str]:
        """Run one cell once on executor ``name``: ``(result document,
        "")`` or ``(None, error)``.

        Trace-streaming cells run in-process with a tracer.
        """
        with self._lock:
            self.cells_executed += 1
            streams = [
                job.stream for job in self._holding(key) if job.spec.get("stream")
            ]
        if streams:
            return self._execute_streaming(cell, streams)
        if self.isolation == "process":
            return self._cell_processes[name].run(cell, self.cell_timeout_s)
        [outcome] = run_cells([cell])
        if outcome.ok:
            return result_to_dict(outcome.result), ""
        return None, outcome.error

    def _execute_streaming(
        self, cell: SweepCell, streams: List[RecordStream]
    ) -> Tuple[Optional[Dict], str]:
        """In-process execution with trace-bus fan-out to the job streams."""
        from repro.experiments.runner import run_experiment
        from repro.observability.trace import Tracer

        tracer = Tracer(engine_events=False)

        def fan_out(record) -> None:
            doc = {"type": record.type, "t": record.time, "data": dict(record.data)}
            for stream in streams:
                stream.publish("trace", doc)

        tracer.subscribe(fan_out)
        try:
            result = run_experiment(
                cell.config, cell.workload.materialize(), tracer=tracer
            )
        except Exception:
            return None, traceback.format_exc()
        return result_to_dict(result), ""

    # -- job state -------------------------------------------------------------

    def _cell(self, key: str) -> Tuple[str, bool, int, str]:
        """One cell's ``(state, from_cache, attempts, error)``: from its
        queue entry, else as :meth:`adopt` restored it."""
        entry = self.queue.entries.get(key)
        if entry is not None:
            return entry.state, entry.from_cache, entry.attempts, entry.error
        if self._restored[key] == DONE:
            return DONE, True, 0, ""
        return QUARANTINED, False, 0, _no_result(key, QUARANTINED)

    def _progress(self, job: Job) -> Dict[str, int]:
        done = cached = failed = 0
        for key in job.keys:
            state, from_cache, _, _ = self._cell(key)
            if state == DONE:
                done += 1
                cached += from_cache
            elif state == QUARANTINED:
                failed += 1
        return {
            "total": len(job.keys),
            "done": done,
            "cached": cached,
            "failed": failed,
        }

    def _refresh_job(self, job: Job) -> None:
        """Publish progress; settle the job if every cell is terminal."""
        progress = self._progress(job)
        job.stream.publish("progress", progress)
        if progress["done"] + progress["failed"] < progress["total"]:
            return
        if progress["failed"]:
            job.state = JOB_FAILED
            lines = []
            for cell, key in zip(job.cells, job.keys):
                state, _, _, error = self._cell(key)
                if state == QUARANTINED:
                    lines.append(f"{cell.tag or key[:12]}: {_last_line(error)}")
            job.error = "; ".join(lines)
        else:
            job.state = JOB_DONE
        job.finished = self._clock()
        if self.journal is not None:
            self.journal.append({
                "event": "state", "id": job.id,
                "state": job.state, "error": job.error,
            })
        job.stream.publish("job", {"id": job.id, "state": job.state,
                                   "error": job.error})
        job.stream.publish("done", {"id": job.id, "state": job.state})
        job.stream.close()

    # -- documents -------------------------------------------------------------

    def job_status_doc(self, job: Job) -> Dict:
        """The ``GET /api/jobs/{id}`` body: state, progress, per-cell view."""
        with self._lock:
            cells = []
            for cell, key in zip(job.cells, job.keys):
                state, from_cache, attempts, error = self._cell(key)
                cells.append({
                    "tag": cell.tag, "x": cell.x, "key": key,
                    "state": state, "from_cache": from_cache,
                    "attempts": attempts, "error": _last_line(error),
                })
            return {
                "id": job.id,
                "state": job.state,
                "error": job.error,
                "created": job.created,
                "spec": dict(job.spec),
                "idempotency_key": job.idempotency_key,
                "progress": self._progress(job),
                "events": job.stream.last_seq,
                "cells": cells,
            }

    def outcome(self, cell: SweepCell, key: str) -> CellOutcome:
        """One cell as a :class:`CellOutcome`: a quarantined cell's error,
        else its result read back from the cache (neither a hit nor a
        miss).  A result that is not there is an error naming the key."""
        with self._lock:
            state, from_cache, _, error = self._cell(key)
        if state == QUARANTINED:
            return CellOutcome(cell, None, error=error, key=key)
        try:
            result = self.cache.read(key)
        except Exception:
            return CellOutcome(cell, None, error=_no_result(key, state), key=key)
        return CellOutcome(cell, result, from_cache=from_cache, key=key)

    def outcomes(self, job: Job) -> List[CellOutcome]:
        """One outcome per job cell, in submission order."""
        return [self.outcome(cell, key) for cell, key in zip(job.cells, job.keys)]

    def job_result_doc(self, job: Job) -> Optional[Dict]:
        """The finished job's outcome document (``--out`` shape, no
        provenance) — byte-identical to the serial ``run_cells`` path for
        the same cells.  None while the job is still running.  It reads
        every cell from the cache: keep it off an event loop."""
        if job.active:
            return None
        return outcomes_to_doc(
            self.outcomes(job),
            grid=job.spec.get("grid", ""),
            n_jobs=job.spec.get("n_jobs", 0),
            seed=job.spec.get("seed", 0),
            provenance=False,
        )

    def cluster_doc(self) -> Dict:
        """The ``GET /api/cluster`` body: queue/worker/job/cache state."""
        with self._lock:
            states = {RUNNING: 0, JOB_DONE: 0, JOB_FAILED: 0}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "draining": self.draining,
                "uptime_s": round(max(0.0, self._clock() - self.started), 3),
                "cells_executed": self.cells_executed,
                "queue": self.queue.status_doc(),
                "workers": [
                    {"id": name, "busy": current is not None, "cell": current}
                    for name, current in sorted(self._current.items())
                ],
                "jobs": {
                    "total": len(self.jobs),
                    "running": states[RUNNING],
                    "done": states[JOB_DONE],
                    "failed": states[JOB_FAILED],
                },
                "cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "corrupt": self.cache.corrupt,
                },
            }

    def jobs_doc(self) -> List[Dict]:
        """The ``GET /api/jobs`` body: one summary row per job."""
        with self._lock:
            return [
                {
                    "id": job.id,
                    "state": job.state,
                    "grid": job.spec.get("grid", ""),
                    "created": job.created,
                    "progress": self._progress(job),
                }
                for job in (self.jobs[jid] for jid in self.order)
            ]


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _no_result(key: str, state: str) -> str:
    return f"no readable result for cell {key} ({state}) in the result cache"
