"""Parallel sweep executor with a content-addressed result cache.

The paper's evaluation is a large grid of independent ``run_experiment``
cells (figures 7-11, the sensitivity sweeps, the ablations).  Each cell
is deterministic given its :class:`~repro.experiments.runner.ExperimentConfig`
and workload spec, which makes the grid embarrassingly parallel *and*
perfectly cacheable:

* :func:`run_cells` runs cells in-process (``jobs == 1``, the
  byte-identical serial path) or hands them to an in-process
  :class:`~repro.experiments.jobs.JobManager` with ``jobs`` executors
  (``jobs > 1``), the scheduler ``repro serve`` runs.  Every cell
  derives all randomness from its own seeds, so results do not depend
  on worker count, scheduling order, or cache state.
* :class:`ResultCache` stores each result under a SHA-256 of the cell's
  canonical identity — config + workload spec + ``CACHE_VERSION`` (a
  code-relevant version tag, bumped whenever a simulator change is
  allowed to move results).  Corrupted or truncated entries are treated
  as misses and re-run.  Config fields that cannot change the serialized
  result (``trace_path``, the inert ``profile`` fields) are excluded from
  the key; cells that request a trace file bypass cache *reads* so the
  trace is actually written.
* :class:`CellProcess` is one long-lived process that runs cells one
  at a time: each job-manager executor owns one.  It is spawned (a fresh
  interpreter, never a fork of the threaded server) on the executor's
  first cell and reused for every later one, and it reports each cell's
  result (after its trace records, on request), its traceback, or (by
  dying) its exit code.  ``timeout_s`` bounds a cell's wall time from
  the moment the process is ready, so start-up is never charged to a
  cell; a timed-out or dead process is ended and the next cell spawns a
  fresh one.  It retries nothing: the manager's work queue retries a
  failed cell and then quarantines it, and the rest of the sweep keeps
  going.
* :func:`shard_cells` splits a cell list into ``K/M`` round-robin
  shards for CI fan-out; the M shards partition the grid exactly.

``python -m repro sweep`` exposes all of this on the command line.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import multiprocessing as mp
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.serialize import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.observability.trace import Tracer
from repro.workloads.swim import Workload

#: the code-relevant version tag mixed into every cache key.  Bump this
#: whenever a simulator change is *allowed* to alter experiment results;
#: stale entries then simply never match again.
CACHE_VERSION = 2

#: seed used throughout the reproduction (same as figures.DEFAULT_SEED,
#: duplicated here to keep the import graph acyclic)
DEFAULT_SEED = 20110926

#: config fields that cannot change the serialized result — excluded
#: from the cache key so e.g. tracing to a different path still hits.
#: The two ``profile`` fields are inert but still serialized (see
#: ExperimentConfig), so a cell that sets them shares its key.
_KEY_EXCLUDED_FIELDS = ("trace_path", "profile", "profile_sample_every")

#: per-process counter making cache temp-file names unique across threads
_tmp_seq = itertools.count()


class WorkloadSpec(NamedTuple):
    """A workload by recipe, not by object.

    Cells carry this instead of a materialized
    :class:`~repro.workloads.swim.Workload` so they can be hashed into
    cache keys and rebuilt inside worker processes.  ``kind`` is
    ``'wl1'``/``'wl2'`` (synthesized from ``seed``/``n_jobs``) or
    ``'file'`` (a saved ``.json`` workload or SWIM ``.tsv`` trace at
    ``path``; identity is the file's content hash).
    """

    kind: str
    n_jobs: int = 500
    seed: int = DEFAULT_SEED
    path: str = ""

    def validate(self) -> "WorkloadSpec":
        """Refuse a recipe that cannot build a workload; returns ``self``."""
        if self.kind in ("wl1", "wl2"):
            if not isinstance(self.n_jobs, (int, float)) or self.n_jobs < 1:
                raise ValueError(
                    f"a {self.kind} workload needs at least 1 job (got {self.n_jobs!r})"
                )
        elif self.kind != "file":
            raise ValueError(f"unknown workload kind {self.kind!r}")
        return self

    def materialize(self) -> Workload:
        """Build the workload. Deterministic: same spec, same workload."""
        import numpy as np

        self.validate()
        if self.kind == "wl1" or self.kind == "wl2":
            from repro.workloads.swim import synthesize_wl1, synthesize_wl2

            synth = synthesize_wl1 if self.kind == "wl1" else synthesize_wl2
            return synth(np.random.default_rng(self.seed), n_jobs=self.n_jobs)
        if self.kind == "file":
            if self.path.endswith(".json"):
                from repro.workloads.swim_io import load_workload

                return load_workload(self.path)
            from repro.workloads.swim_io import load_swim_trace

            return load_swim_trace(self.path, np.random.default_rng(self.seed))

    def describe(self) -> Dict:
        """Identity dict for cache keys (content hash for file workloads)."""
        if self.kind == "file":
            sha = hashlib.sha256(Path(self.path).read_bytes()).hexdigest()
            return {"kind": "file", "seed": self.seed, "sha256": sha}
        return {"kind": self.kind, "n_jobs": self.n_jobs, "seed": self.seed}


class SweepCell(NamedTuple):
    """One executable cell of a sweep grid."""

    config: ExperimentConfig
    workload: WorkloadSpec
    #: display label for progress/report lines (not part of the identity)
    tag: str = ""
    #: the sweep's x-coordinate, for sensitivity-curve assembly
    x: float = 0.0

    def label(self) -> str:
        """Human-readable cell name."""
        return self.tag or f"{self.workload.kind}/{self.config.label()}"


def cache_key(config: ExperimentConfig, workload: WorkloadSpec) -> str:
    """Content-addressed identity of one cell's result."""
    cfg = config_to_dict(config)
    for name in _KEY_EXCLUDED_FIELDS:
        cfg.pop(name)
    doc = {
        "cache_version": CACHE_VERSION,
        "config": cfg,
        "workload": workload.describe(),
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class ResultCache:
    """On-disk result store addressed by :func:`cache_key`.

    Entries are canonical-JSON files under ``root/<key[:2]>/<key>.json``,
    written atomically (unique temp file + ``os.replace``) so a crashed
    writer can at worst leave a truncated temp file, never a corrupt
    entry.  Concurrent writers of the same key — two sweep-service
    workers finishing the same cell, or two coordinator handler threads
    — are last-writer-wins: every writer renames its own private temp
    file over the entry, so readers only ever observe one complete
    version or none.  Anything unreadable or unparsable loads as a miss
    and is re-run.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path(self, key: str) -> Path:
        """Entry path for ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[ExperimentResult]:
        """The cached result, or None on miss/corruption (both counted)."""
        try:
            result = self.read(key)
        except OSError:
            self.misses += 1
            return None
        except Exception:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def read(self, key: str) -> ExperimentResult:
        """The stored result, counted as neither a hit nor a miss: how a
        job manager reads back a cell it already settled.  Raises
        ``OSError`` when the entry is absent, anything else when it is
        unparsable."""
        return result_from_dict(json.loads(self.path(key).read_text()))

    def store(self, key: str, result_doc: Dict) -> Path:
        """Atomically write one serialized result; returns its path.

        The temp name is unique per (process, call): same-key races —
        whether across processes or across threads sharing a pid — each
        write a private file and rename it into place, so the entry is
        always one writer's complete bytes (last writer wins).
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{key}.{os.getpid()}.{next(_tmp_seq)}.tmp")
        try:
            tmp.write_text(canonical_json(result_doc) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # only survives if the write failed
        return path

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        try:
            self.path(key).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("??/*.json"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))


@dataclass
class CellOutcome:
    """What happened to one cell: a result, a cache hit, or a failure."""

    cell: SweepCell
    result: Optional[ExperimentResult]
    error: str = ""
    from_cache: bool = False
    duration_s: float = 0.0
    key: str = ""

    @property
    def ok(self) -> bool:
        """True when the cell produced a result."""
        return self.result is not None


class SweepError(RuntimeError):
    """Raised by :func:`results_of` when any cell failed."""


def results_of(outcomes: Sequence[CellOutcome]) -> List[ExperimentResult]:
    """Unwrap outcomes into results, raising :class:`SweepError` on failures."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        lines = []
        for o in failed:
            last = o.error.strip().splitlines()[-1] if o.error else "unknown error"
            lines.append(f"  - {o.cell.label()}: {last}")
        raise SweepError(
            f"{len(failed)} of {len(outcomes)} sweep cell(s) failed:\n"
            + "\n".join(lines)
        )
    return [o.result for o in outcomes]


def outcomes_to_doc(
    outcomes: Sequence[CellOutcome],
    grid: str = "",
    n_jobs: int = 0,
    seed: int = DEFAULT_SEED,
    shard: str = "",
    provenance: bool = True,
) -> Dict:
    """The sweep's outcome document (``repro sweep --out`` / the server).

    One serializer shared by every consumer, so the CLI's ``--out`` file,
    the server's ``GET /api/jobs/{id}/result`` body, and test comparators
    all agree byte-for-byte.  ``provenance=False`` drops the
    ``from_cache`` flag — execution provenance that depends on cache
    warmth, not on the cells — leaving a document fully determined by
    the cell identities, so a cached re-serve is byte-identical to the
    cold run that populated the cache.
    """
    cells = []
    for o in outcomes:
        cell_doc = {
            "tag": o.cell.tag,
            "x": o.cell.x,
            "key": o.key,
            "ok": o.ok,
            "error": o.error,
            "result": None if o.result is None else result_to_dict(o.result),
        }
        if provenance:
            cell_doc["from_cache"] = o.from_cache
        cells.append(cell_doc)
    return {
        "grid": grid,
        "n_jobs": n_jobs,
        "seed": seed,
        "shard": shard,
        "cells": cells,
    }


def doc_to_text(doc: Dict) -> str:
    """Render an outcome document exactly as ``--out`` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


#: progress callback: (outcome, cells done, cells total, ETA seconds)
ProgressFn = Callable[[CellOutcome, int, int, float], None]


def print_progress(
    outcome: CellOutcome,
    done: int,
    total: int,
    eta_s: float,
    cache: Optional[ResultCache] = None,
) -> None:
    """Default progress reporter: one stderr line per finished cell.

    With a ``cache``, each line also carries the running hit/miss tally,
    so a long sweep shows how much of the grid is being reused as it goes.
    """
    if outcome.from_cache:
        status = "cached"
    elif outcome.ok:
        status = "ok"
    else:
        status = "FAILED"
    eta = f"  eta {eta_s:5.0f}s" if eta_s >= 0.5 else ""
    tally = f"  cache {cache.hits}h/{cache.misses}m" if cache is not None else ""
    print(
        f"[{done}/{total}] {outcome.cell.label():<44s} {status:>6s}"
        f" {outcome.duration_s:7.2f}s{eta}{tally}",
        file=sys.stderr,
        flush=True,
    )


def cache_progress(cache: Optional[ResultCache]) -> ProgressFn:
    """A :func:`print_progress` bound to a cache's live hit/miss counters."""

    def report(outcome: CellOutcome, done: int, total: int, eta_s: float) -> None:
        print_progress(outcome, done, total, eta_s, cache=cache)

    return report


# -- the cell process ---------------------------------------------------------

#: cell processes start as fresh interpreters: a fork of a multi-threaded
#: parent (the server, a job manager's executors) would copy its locks
#: in whatever state its other threads held them
_SPAWN = mp.get_context("spawn")


#: takes one trace record as ``{"type": ..., "t": ..., "data": {...}}``
RecordSink = Callable[[Dict], None]


def execute_cell(
    config_doc: Dict, workload_tuple: Tuple, sink: Optional[RecordSink] = None
) -> Dict:
    """One cell from its wire form to its result document: what a cell
    process does with each request.  With a ``sink``, every trace record
    of the run is passed to it as it is emitted.

    All randomness is derived from the config/workload seeds, never from
    process state, so the document is the serial path's whichever cells
    the process ran before.  A :class:`CellProcess` passes the
    ``execute_cell`` of this module as it stands when the process starts,
    so a test can swap in a module-level fault injector.
    """
    tracer = None
    if sink is not None:
        tracer = Tracer(engine_events=False)
        tracer.subscribe(lambda r: sink({"type": r.type, "t": r.time, "data": dict(r.data)}))
    workload = WorkloadSpec(*workload_tuple).materialize()
    return result_to_dict(run_experiment(config_from_dict(config_doc), workload, tracer=tracer))


def _cell_process_main(conn, execute: Callable[..., Dict]) -> None:
    """Cell-process entry: answer each ``(config dict, workload tuple,
    stream)`` request with ``("ok", result document)`` or ``("error",
    traceback)`` until the parent hangs up.  A ``stream`` request first
    sends each trace record of the run as ``("trace", record)``.

    Start-up's objects (the imported simulator) are frozen out of the
    collector, and each cell's garbage is collected once its answer is
    sent, so every cell starts from the same heap and the process's
    peak memory is one cell's.
    """
    gc.freeze()
    conn.send(("ready", ""))

    def send_record(record: Dict) -> None:
        conn.send(("trace", record))

    while True:
        try:
            config_doc, workload, stream = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            reply = ("ok", execute(config_doc, workload, send_record if stream else None))
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        del config_doc, workload, reply
        gc.collect()


def _stop(proc: mp.process.BaseProcess) -> None:
    """Terminate (then kill) a process and reap it."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=2.0)


def _next_message(proc: mp.process.BaseProcess, conn, deadline: Optional[float]):
    """``proc``'s next message on ``conn``, or None once the
    ``time.perf_counter`` time ``deadline`` has passed; raises
    ``EOFError`` once the process died without sending one."""
    while deadline is None or time.perf_counter() < deadline:
        if conn.poll(0.1):
            return conn.recv()
        if not proc.is_alive() and not conn.poll(0):
            raise EOFError
    return None


class CellProcess:
    """One long-lived process that runs cells one at a time.

    The process is spawned on the first :meth:`run` and serves every
    later cell.  A cell that times out or kills the process ends it; the
    next cell spawns a fresh one.  :meth:`close` ends it for good.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[mp.process.BaseProcess] = None
        self._conn = None
        self._closed = False

    def run(self, cell: SweepCell, timeout_s: Optional[float] = None,
            on_trace: Optional[RecordSink] = None) -> Tuple[Optional[Dict], str]:
        """Run one cell: ``(result document, "")`` or ``(None, error)``.

        The error is the cell's traceback, the timeout, or the exit code
        of a process that died without answering.  ``timeout_s`` bounds
        the cell's wall time from the moment the process is ready to its
        answer, so a start-up is never charged to a cell.  ``on_trace``
        gets the cell's trace records, in order, before the answer.
        Nothing is retried here: the caller's work queue owns the retry
        count.
        """
        with self._lock:
            if self._closed:
                return None, "the cell process was closed"
            fresh = self._proc is None
            if fresh:
                conn, child = _SPAWN.Pipe()
                proc = _SPAWN.Process(
                    target=_cell_process_main, args=(child, execute_cell),
                    name="repro-cell", daemon=True,
                )
                try:
                    proc.start()
                finally:
                    child.close()
                self._proc, self._conn = proc, conn
            proc, conn = self._proc, self._conn
        try:
            if fresh:
                _next_message(proc, conn, None)  # ready
            conn.send((config_to_dict(cell.config), tuple(cell.workload),
                       on_trace is not None))
            deadline = None if timeout_s is None else time.perf_counter() + timeout_s
            reply = _next_message(proc, conn, deadline)
            while reply is not None and reply[0] == "trace":
                on_trace(reply[1])
                reply = _next_message(proc, conn, deadline)
        except (EOFError, OSError):  # died before or while answering
            self._end(proc, grace_s=5.0)
            return None, f"worker died (exit code {proc.exitcode})"
        if reply is None:
            self._end(proc, grace_s=0.0)
            return None, f"cell timed out after {timeout_s:g}s and was terminated"
        status, payload = reply
        return (payload, "") if status == "ok" else (None, payload)

    def close(self) -> None:
        """Terminate the process, even mid-cell, and reap it.  Any thread
        may call it; later cells are refused."""
        with self._lock:
            self._closed = True
            proc = self._proc
        if proc is not None:
            self._end(proc, grace_s=0.0)

    def _end(self, proc: mp.process.BaseProcess, grace_s: float) -> None:
        """Close ``proc``'s pipe, give it ``grace_s`` to exit, then
        terminate and reap it.  Only the first caller for a process acts."""
        with self._lock:
            if self._proc is not proc:
                return
            conn = self._conn
            self._proc = self._conn = None
        conn.close()
        proc.join(timeout=grace_s)
        _stop(proc)


def run_cells(
    cells: Iterable[SweepCell],
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> List[CellOutcome]:
    """Run every cell, in input order, and return one outcome per cell.

    ``jobs == 1`` executes in-process (identical to calling
    ``run_experiment`` in a loop).  ``jobs > 1`` submits the cells as one
    job to an in-process :class:`~repro.experiments.jobs.JobManager`
    with ``jobs`` executors, each running its cells in its own
    :class:`CellProcess`:
    its work queue retries a failed cell once and then reports it with
    the last error; a cell it refuses (``jobs.check_cell``) fails alone.
    ``cache`` may be a :class:`ResultCache` or a directory path; None
    runs without one.  ``timeout_s`` bounds each cell's wall time (cell
    processes only).
    """
    cells = list(cells)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)

    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    done = 0
    run_durations: List[float] = []

    def finish(i: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[i] = outcome
        done += 1
        if outcome.ok and not outcome.from_cache:
            run_durations.append(outcome.duration_s)
        if progress is not None:
            mean = sum(run_durations) / len(run_durations) if run_durations else 0.0
            eta = mean * (total - done) / max(1, jobs)
            progress(outcome, done, total, eta)

    if jobs > 1 and cells:
        _run_on_manager(cells, jobs, cache, timeout_s, finish)
        return outcomes  # type: ignore[return-value]

    keys = [cache_key(c.config, c.workload) for c in cells]
    pending: List[int] = []
    for i, cell in enumerate(cells):
        # a cell that writes a trace must actually run, so skip cache reads
        if cache is not None and not cell.config.trace_path:
            hit = cache.load(keys[i])
            if hit is not None:
                finish(i, CellOutcome(cell, hit, from_cache=True, key=keys[i]))
                continue
        pending.append(i)

    memo: Dict[WorkloadSpec, Workload] = {}
    for i in pending:
        cell = cells[i]
        started = time.perf_counter()
        try:
            if cell.workload not in memo:
                memo[cell.workload] = cell.workload.materialize()
            result = run_experiment(cell.config, memo[cell.workload])
        except Exception:
            finish(i, CellOutcome(
                cell, None, error=traceback.format_exc(), key=keys[i],
                duration_s=time.perf_counter() - started,
            ))
            continue
        if cache is not None:
            cache.store(keys[i], result_to_dict(result))
        finish(i, CellOutcome(
            cell, result, key=keys[i],
            duration_s=time.perf_counter() - started,
        ))
    return outcomes  # type: ignore[return-value]


def _run_on_manager(
    cells: List[SweepCell],
    jobs: int,
    cache: Optional[ResultCache],
    timeout_s: Optional[float],
    finish: Callable[[int, CellOutcome], None],
) -> None:
    """``run_cells``' parallel path: one job on an in-process JobManager.

    Cells the queue refuses are reported first, failed with the traceback,
    and cells the cache resolves at submission next; the rest as the job's
    stream announces them finished, and any whose announcement the bounded
    stream dropped when the job settles.
    """
    from repro.experiments.jobs import JobManager, check_cell
    from repro.experiments.service import DONE, QUARANTINED, cell_to_doc

    queued: List[int] = []
    for i, cell in enumerate(cells):
        try:
            check_cell(cell)
        except Exception:
            finish(i, CellOutcome(cell, None, error=traceback.format_exc(),
                                  key=cache_key(cell.config, cell.workload)))
        else:
            queued.append(i)
    if not queued:
        return
    manager = JobManager(cache=cache, workers=jobs, cell_timeout_s=timeout_s,
                         max_cells_per_job=len(queued))
    job, _ = manager.submit({"cells": [cell_to_doc(cells[i]) for i in queued]})
    unreported: Dict[str, List[int]] = {}
    for i, key in zip(queued, job.keys):
        unreported.setdefault(key, []).append(i)

    def report(key: str, duration_s: float = 0.0) -> None:
        for i in unreported.pop(key, ()):
            outcome = manager.outcome(cells[i], key)
            outcome.duration_s = duration_s
            finish(i, outcome)

    for key in list(unreported):
        if manager.queue.entries[key].state == DONE:
            report(key)
    wake = threading.Event()
    job.stream.add_waiter(wake.set)
    manager.start()
    try:
        seq, closed = 0, False
        while not closed:
            wake.clear()
            events, _, closed = job.stream.read_since(seq)
            for seq, kind, data in events:
                if kind == "cell" and data["phase"] == "finished" \
                        and data["state"] in (DONE, QUARANTINED):
                    report(data["key"], data["duration_s"])
            if not closed:
                wake.wait()
    finally:
        manager.stop()
    for key in list(unreported):
        report(key)


# -- prefix-sharing fork cells ------------------------------------------------


class ForkCell(NamedTuple):
    """A what-if cell: one base run forked at ``fork_time`` under a patch.

    Grids of fork cells that share (config, workload, fork_time) also
    share their entire simulated prefix: :func:`run_fork_cells` runs the
    base simulation up to the divergence time once, snapshots it, and
    forks every cell from the checkpoint instead of re-simulating the
    prefix per cell.  ``patch`` is a :func:`repro.checkpoint.parse_patch`
    spec (empty = plain resume, the control cell).
    """

    config: ExperimentConfig
    workload: WorkloadSpec
    fork_time: float
    patch: str = ""
    #: display label for progress/report lines (not part of the identity)
    tag: str = ""
    #: the sweep's x-coordinate, for sensitivity-curve assembly
    x: float = 0.0

    def label(self) -> str:
        """Human-readable cell name."""
        if self.tag:
            return self.tag
        base = f"{self.workload.kind}/{self.config.label()}@{self.fork_time:g}s"
        return f"{base}+{self.patch}" if self.patch else base


def fork_cache_key(cell: ForkCell) -> str:
    """Content-addressed identity of one fork cell's result."""
    cfg = config_to_dict(cell.config)
    for name in _KEY_EXCLUDED_FIELDS:
        cfg.pop(name)
    doc = {
        "cache_version": CACHE_VERSION,
        "config": cfg,
        "workload": cell.workload.describe(),
        "fork_time": cell.fork_time,
        "patch": cell.patch,
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def run_fork_cells(
    cells: Iterable[ForkCell],
    cache: Union[ResultCache, str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    share_prefix: bool = True,
) -> List[CellOutcome]:
    """Run every fork cell, sharing simulated prefixes via checkpoints.

    Cells are grouped by (base config, workload, fork_time); each group's
    prefix is simulated once, snapshotted, and forked per cell.  Because a
    forked run is byte-identical to a cold run paused at the same time,
    the results are exactly those of ``share_prefix=False`` (the cold
    comparator, which re-simulates the prefix for every cell) — only the
    wall clock differs.  Runs serially: the fan-out worker pool would
    have to re-pickle the snapshot per cell, forfeiting the sharing.
    """
    import dataclasses

    from repro.checkpoint import parse_patch, snapshot
    from repro.experiments.runner import Simulation, make_tracer

    cells = list(cells)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)

    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    keys = [fork_cache_key(c) for c in cells]
    done = 0

    def finish(i: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[i] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total, 0.0)

    pending: List[int] = []
    for i, cell in enumerate(cells):
        if cache is not None:
            hit = cache.load(keys[i])
            if hit is not None:
                finish(i, CellOutcome(cell, hit, from_cache=True, key=keys[i]))
                continue
        pending.append(i)

    groups: Dict[Tuple[str, float], List[int]] = {}
    for i in pending:
        base = (cache_key(cells[i].config, cells[i].workload), cells[i].fork_time)
        groups.setdefault(base, []).append(i)

    memo: Dict[WorkloadSpec, Workload] = {}
    for (_, fork_time), idxs in groups.items():
        first = cells[idxs[0]]
        # the trace path is observability-only (and excluded from the key);
        # strip it so the shared prefix needs no trace plumbing
        config = dataclasses.replace(first.config, trace_path="")
        if first.workload not in memo:
            memo[first.workload] = first.workload.materialize()
        workload = memo[first.workload]

        snap = None
        prefix_s = 0.0
        if share_prefix:
            started = time.perf_counter()
            try:
                warm = Simulation(config, workload, tracer=make_tracer(config))
                warm.run(until=fork_time)
                snap = snapshot(warm)
                warm.close()
            except Exception:
                error = traceback.format_exc()
                for i in idxs:
                    finish(i, CellOutcome(cells[i], None, error=error, key=keys[i]))
                continue
            prefix_s = time.perf_counter() - started

        for n, i in enumerate(idxs):
            cell = cells[i]
            started = time.perf_counter()
            try:
                if snap is not None:
                    sim = snap.restore()
                else:
                    sim = Simulation(config, workload, tracer=make_tracer(config))
                    sim.run(until=fork_time)
                if cell.patch:
                    parse_patch(cell.patch).apply(sim)
                sim.run()
                result = sim.finalize()
                sim.close()
            except Exception:
                finish(i, CellOutcome(
                    cell, None, error=traceback.format_exc(), key=keys[i],
                    duration_s=time.perf_counter() - started,
                ))
                continue
            if cache is not None:
                cache.store(keys[i], result_to_dict(result))
            duration = time.perf_counter() - started
            if n == 0:
                duration += prefix_s  # charge the shared warm-up to the first fork
            finish(i, CellOutcome(cell, result, key=keys[i], duration_s=duration))
    return outcomes  # type: ignore[return-value]


# -- sharding -----------------------------------------------------------------


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``'K/M'`` (1-based) into ``(K, M)``."""
    try:
        k_text, m_text = spec.split("/")
        k, m = int(k_text), int(m_text)
    except ValueError:
        raise ValueError(f"bad shard spec {spec!r}; expected K/M, e.g. 2/4")
    if m < 1 or not 1 <= k <= m:
        raise ValueError(f"shard spec needs 1 <= K <= M, got {spec!r}")
    return k, m


def shard_cells(
    cells: Sequence[SweepCell], shard: Union[str, Tuple[int, int]]
) -> List[SweepCell]:
    """Round-robin shard ``K/M``: the M shards partition the cells exactly."""
    k, m = parse_shard(shard) if isinstance(shard, str) else shard
    return [c for i, c in enumerate(cells) if i % m == k - 1]


def dedupe_cells(cells: Iterable[SweepCell]) -> List[SweepCell]:
    """Drop cells whose cache key duplicates an earlier cell's."""
    seen = set()
    out = []
    for cell in cells:
        key = cache_key(cell.config, cell.workload)
        if key not in seen:
            seen.add(key)
            out.append(cell)
    return out


# -- named grids (the CLI's unit of work) -------------------------------------

#: grid names accepted by ``repro sweep --grid`` (besides ``all``)
GRID_NAMES = (
    "smoke", "fig7", "fig8", "fig9", "fig10", "fig11", "ablations", "policies",
)


def _smoke_cells(n_jobs: int, seed: int) -> List[SweepCell]:
    """Two tiny invariant-checked cells for the CI replay smoke test."""
    from repro.core.config import DareConfig

    workload = WorkloadSpec("wl1", n_jobs, seed)
    return [
        SweepCell(
            ExperimentConfig(dare=dare, seed=seed, check_invariants=True),
            workload,
            tag=f"smoke/{tag}",
        )
        for tag, dare in (
            ("lru", DareConfig.greedy_lru()),
            ("et", DareConfig.elephant_trap()),
        )
    ]


def build_grid(
    name: str, n_jobs: int = 200, seed: int = DEFAULT_SEED
) -> List[SweepCell]:
    """Cells of one named grid (``GRID_NAMES``) or the deduplicated union
    of every evaluation grid (``'all'``)."""
    from repro.experiments import ablations as A
    from repro.experiments import figures as F

    if name == "smoke":
        return _smoke_cells(n_jobs, seed)
    if name == "fig7":
        return F.fig7_cells(n_jobs=n_jobs, seed=seed)
    if name == "fig8":
        return (F.fig8a_cells(n_jobs=n_jobs, seed=seed)
                + F.fig8b_cells(n_jobs=n_jobs, seed=seed))
    if name == "fig9":
        return (F.fig9a_cells(n_jobs=n_jobs, seed=seed)
                + F.fig9b_cells(n_jobs=n_jobs, seed=seed))
    if name == "fig10":
        return F.fig10_cells(n_jobs=n_jobs, seed=seed)
    if name == "fig11":
        return F.fig11_cells(n_jobs=n_jobs, seed=seed)
    if name == "ablations":
        return A.ablation_cells(n_jobs=n_jobs, seed=seed)
    if name == "policies":
        from repro.policies.bench import policy_cells

        return policy_cells(n_jobs)
    if name == "all":
        cells: List[SweepCell] = []
        for grid in ("fig7", "fig8", "fig9", "fig10", "fig11", "ablations"):
            cells.extend(build_grid(grid, n_jobs=n_jobs, seed=seed))
        return dedupe_cells(cells)
    raise ValueError(
        f"unknown grid {name!r} (expected one of {', '.join(GRID_NAMES)}, or 'all')"
    )
