"""Distributed sweep service: the lease queue and the remote worker.

Every cell scheduler in the repo — local ``run_cells(jobs > 1)``,
``repro serve`` and ``repro sweep --serve`` — is a
:class:`~repro.experiments.jobs.JobManager` over this module's queue.
Remote workers let one grid scale across machines while sharing one
content-addressed :class:`~repro.experiments.sweep.ResultCache`:

* :class:`WorkQueue` — the lease state machine.  Every cell is
  tracked by its :func:`~repro.experiments.sweep.cache_key` through
  ``pending -> leased -> done | quarantined``: leases are time-bounded
  and reclaimed when they expire (a crashed or hung worker just loses
  its lease), failures retry with exponential backoff until a poison
  cell is quarantined after ``max_attempts``, and near the end of a grid
  idle workers *steal* a speculative second lease on the longest-running
  straggler (Wang/Joshi/Wornell-style task replication — whichever
  attempt finishes first wins).  Completions are idempotent: the first
  completion of a cell is canonical (the queue's owner caches it; the
  queue holds no result), and duplicate or late completions (lease
  expiry followed by a slow worker reporting anyway) are acknowledged
  but discarded deterministically.  The queue lives in
  memory: a restarted server rebuilds it from its job journal
  (:mod:`repro.server.jobstore`), and the result cache resolves the
  cells that already finished.
* :func:`run_worker` — the worker loop: lease a cell over HTTP
  (``POST /api/queue`` on a ``repro serve`` or ``repro sweep --serve``
  server, whose :class:`~repro.experiments.jobs.JobManager` owns the
  queue), execute it through the existing
  :func:`~repro.experiments.sweep.run_cells` machinery (jobs=1, with
  the worker's own cache), renew the lease from a background thread
  while the cell runs, and report the serialized result (or the failure
  traceback) back.  ``chaos`` specs inject deterministic faults —
  SIGKILL or a hang right after a lease, or a delayed completion — for
  the fault-injection tests and the CI smoke.

Because every cell is deterministic and content-addressed, the service
path is *byte-identical* to the serial ``run_cells`` path no matter how
many workers run, die, or race (``tests/test_sweep_service.py`` and the
CI ``sweep-service`` job assert exactly that).

``python -m repro sweep --serve/--worker/--status`` exposes all of this
on the command line; see ``docs/SWEEP_SERVICE.md`` for the protocol and
the failure matrix.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.experiments.serialize import (
    config_from_dict,
    config_to_dict,
    result_to_dict,
)
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    cache_key,
    run_cells,
)

#: queue status document format version
QUEUE_FORMAT = 1

#: cell states
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

_STATES = (PENDING, LEASED, DONE, QUARANTINED)

#: cumulative counters (served in the status)
_COUNTERS = ("leases_granted", "steals", "expirations", "completions",
             "duplicates", "late_completions", "failures", "releases")


class ServiceError(RuntimeError):
    """A worker or client could not talk to the server."""


class WorkerShutdown(Exception):
    """Raised inside :func:`run_worker` when SIGTERM/SIGINT arrives.

    The worker catches it, releases its in-flight lease back to the
    queue (``fail`` with ``requeue`` — no attempt is charged: shutdown
    is not the cell's fault), and exits cleanly instead of abandoning
    the lease until expiry.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"worker received signal {signum}")
        self.signum = signum


# -- wire helpers -------------------------------------------------------------

#: the server route that takes worker op documents
QUEUE_ROUTE = "/api/queue"


def parse_address(spec: str) -> Tuple[str, int]:
    """``'HOST:PORT'`` (or bare ``'PORT'``, meaning localhost) -> tuple."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad address {spec!r}; expected HOST:PORT")
    if not 0 <= port <= 65535:
        raise ValueError(f"bad address {spec!r}; port must be 0-65535")
    return host or "127.0.0.1", port


def http_json(
    address: Tuple[str, int],
    method: str,
    path: str,
    doc: Optional[Dict] = None,
    timeout: float = 30.0,
    client_id: str = "",
) -> Tuple[int, Dict, Dict[str, str]]:
    """One HTTP round-trip to a ``repro serve`` / ``sweep --serve`` server.

    Returns ``(status, reply document, headers)`` with lower-cased header
    names.  A broken exchange raises :class:`ServiceError` (or
    :class:`OSError` when the server cannot be reached at all).
    """
    import http.client  # lazy: the server side never needs the client

    headers = {"X-Client-Id": client_id} if client_id else {}
    body = None
    if doc is not None:
        body = json.dumps(doc).encode()
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        status = resp.status
        reply_headers = {name.lower(): value for name, value in resp.getheaders()}
    except http.client.HTTPException as exc:
        raise ServiceError(f"broken HTTP exchange: {exc!r}") from None
    finally:
        conn.close()
    try:
        reply = json.loads(data)
    except ValueError:
        raise ServiceError(f"server answered {status} without a JSON body") from None
    return status, reply, reply_headers


def cell_to_doc(cell: SweepCell) -> Dict:
    """A :class:`SweepCell` as wire/journal-safe plain data."""
    return {
        "config": config_to_dict(cell.config),
        "workload": list(cell.workload),
        "tag": cell.tag,
        "x": cell.x,
    }


def cell_from_doc(doc: Dict) -> SweepCell:
    """Inverse of :func:`cell_to_doc`."""
    return SweepCell(
        config=config_from_dict(doc["config"]),
        workload=WorkloadSpec(*doc["workload"]).validate(),
        tag=doc["tag"],
        x=doc["x"],
    )


# -- the durable work queue ---------------------------------------------------


@dataclass
class QueueEntry:
    """One cell's lifecycle record inside the :class:`WorkQueue`."""

    key: str
    cell: Dict  # cell_to_doc form (wire-safe)
    state: str = PENDING
    attempts: int = 0
    #: earliest wall-clock time the cell may be leased again (backoff)
    not_before: float = 0.0
    #: active leases: lease_id -> {"worker", "granted", "deadline"}
    leases: Dict[str, Dict] = field(default_factory=dict)
    error: str = ""
    from_cache: bool = False


class WorkQueue:
    """Lease-based work queue over content-addressed sweep cells.

    Single-threaded by design (its owner,
    :class:`~repro.experiments.jobs.JobManager`, serializes access with a
    lock); ``clock`` is injectable so tests and the hypothesis
    state machine can drive logical time.

    Transitions:

    * ``lease`` hands out the first ready pending cell; with none ready
      it *steals* — grants a speculative duplicate lease on the leased
      cell whose oldest lease has run longest, once that age exceeds
      ``steal_after_s`` (straggler re-execution; ``max_leases`` bounds
      the replication factor).  Keys in ``skip`` are neither leased nor
      stolen.
    * ``complete`` is first-writer-wins: the first completion of a cell
      is accepted, and its result is the one the owner caches (cells are
      deterministic, so any racing attempt computed identical bytes);
      later completions are counted as duplicates and discarded,
      whether their lease is still live, expired, or stolen-from.
    * ``fail`` and lease expiry charge an attempt *only when the cell's
      last active lease is gone* (a stolen sibling may still win);
      ``attempts >= max_attempts`` quarantines the cell as poison,
      otherwise it re-enters ``pending`` after an exponential backoff
      (``backoff_s * 2**(attempts-1)``, capped at ``backoff_cap_s``).
    """

    def __init__(
        self,
        lease_s: float = 60.0,
        max_attempts: int = 3,
        backoff_s: float = 1.0,
        backoff_cap_s: float = 60.0,
        steal_after_s: Optional[float] = None,
        max_leases: int = 2,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.steal_after_s = lease_s / 2.0 if steal_after_s is None else steal_after_s
        self.max_leases = max_leases
        self._clock = clock
        self.entries: Dict[str, QueueEntry] = {}
        self.order: List[str] = []
        self.draining = False
        self.lease_seq = 0
        # the _COUNTERS, served in the status
        self.leases_granted = 0
        self.steals = 0
        self.expirations = 0
        self.completions = 0
        self.duplicates = 0
        self.late_completions = 0
        self.failures = 0
        self.releases = 0

    # -- membership -----------------------------------------------------------

    def add_cells(self, cells: Iterable[SweepCell]) -> int:
        """Enqueue cells, deduplicated by cache key; returns how many were new.

        Re-adding cells already present (e.g. resuming a journal with the
        same grid) is a no-op per cell, so restart + re-submit is
        idempotent.
        """
        added = 0
        for cell in cells:
            key = cache_key(cell.config, cell.workload)
            if key in self.entries:
                continue
            self.entries[key] = QueueEntry(key=key, cell=cell_to_doc(cell))
            self.order.append(key)
            added += 1
        return added

    def mark_cached(self, key: str) -> None:
        """Resolve a pending cell from the result cache (no lease needed)."""
        entry = self.entries[key]
        if entry.state != PENDING:
            return
        entry.state = DONE
        entry.from_cache = True
        entry.error = ""

    # -- queries --------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every cell is done or quarantined."""
        return all(e.state in (DONE, QUARANTINED) for e in self.entries.values())

    def counts(self) -> Dict[str, int]:
        """Cells per state."""
        out = {state: 0 for state in _STATES}
        for entry in self.entries.values():
            out[entry.state] += 1
        return out

    def active_leases(self) -> int:
        """Number of live leases across all cells."""
        return sum(len(e.leases) for e in self.entries.values())

    def status_doc(self) -> Dict:
        """The status snapshot served over the wire."""
        doc = {
            "format": QUEUE_FORMAT,
            "total": len(self.entries),
            "finished": self.done,
            "draining": self.draining,
            "active_leases": self.active_leases(),
            **self._counters(),
        }
        doc.update(self.counts())
        return doc

    # -- transitions ----------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> int:
        """Reclaim every lease past its deadline; returns how many expired.

        Dropping a cell's *last* live lease charges a failed attempt
        (backoff, then quarantine after ``max_attempts``); dropping one of
        several leaves the surviving attempt in charge.
        """
        now = self._clock() if now is None else now
        expired = 0
        for entry in self.entries.values():
            if entry.state != LEASED:
                continue
            stale = [
                (lid, lease) for lid, lease in entry.leases.items()
                if lease["deadline"] <= now
            ]
            for lid, lease in stale:
                del entry.leases[lid]
                expired += 1
                self.expirations += 1
                if not entry.leases:
                    self._attempt_failed(
                        entry,
                        f"lease {lid} (worker {lease['worker']}) expired "
                        f"after {self.lease_s:g}s",
                        now,
                    )
        return expired

    def lease(self, worker: str, skip: Collection[str] = ()) -> Dict:
        """Hand one cell to ``worker``; the reply doc mirrors the wire form.

        Returns ``{"done": true}`` when the grid is finished (or the
        queue is draining), ``{"wait": true, "retry_s": s}`` when nothing
        is ready yet, else the leased cell with its ``lease_id``.
        """
        now = self._clock()
        self.expire(now)
        if self.done or self.draining:
            return {"ok": True, "done": True}
        entry = self._next_pending(now, skip)
        stolen = False
        if entry is None:
            entry = self._steal_candidate(now, skip)
            stolen = entry is not None
        if entry is None:
            return {"ok": True, "wait": True, "retry_s": self._retry_hint(now)}
        lease_id = f"L{self.lease_seq}"
        self.lease_seq += 1
        entry.leases[lease_id] = {
            "worker": worker,
            "granted": now,
            "deadline": now + self.lease_s,
        }
        entry.state = LEASED
        self.leases_granted += 1
        if stolen:
            self.steals += 1
        return {
            "ok": True,
            "cell": entry.cell,
            "key": entry.key,
            "lease_id": lease_id,
            "deadline_s": self.lease_s,
            "attempt": entry.attempts + 1,
            "stolen": stolen,
        }

    def renew(self, key: str, lease_id: str) -> bool:
        """Extend a live lease's deadline; False if it was lost/expired."""
        entry = self.entries.get(key)
        if entry is None or entry.state != LEASED or lease_id not in entry.leases:
            return False
        entry.leases[lease_id]["deadline"] = self._clock() + self.lease_s
        return True

    def complete(self, key: str, lease_id: str, cached: bool = False) -> Dict:
        """Record a finished cell; first completion wins, rest are duplicates.

        The queue keeps no result: its owner stores the accepted one.
        """
        entry = self.entries.get(key)
        if entry is None:
            return {"ok": False, "error": f"unknown cell key {key!r}"}
        if entry.state == DONE:
            self.duplicates += 1
            return {"ok": True, "accepted": False, "reason": "duplicate"}
        if lease_id not in entry.leases:
            # expired/stolen lease reporting late — the result is still the
            # deterministic result of this cell, so it wins iff it is first
            self.late_completions += 1
        entry.state = DONE
        entry.from_cache = cached
        entry.error = ""
        entry.leases = {}
        self.completions += 1
        return {"ok": True, "accepted": True}

    def fail(
        self,
        key: str,
        lease_id: str,
        error: str,
        now: Optional[float] = None,
        requeue: bool = False,
    ) -> Dict:
        """Record a failed attempt under a live lease (backoff/quarantine).

        ``requeue=True`` is a *voluntary release* — a gracefully shutting
        down worker handing its in-flight cell back.  The cell returns to
        ``pending`` immediately, with no attempt charged and no backoff:
        the shutdown was not the cell's fault.
        """
        now = self._clock() if now is None else now
        entry = self.entries.get(key)
        if entry is None:
            return {"ok": False, "error": f"unknown cell key {key!r}"}
        if entry.state == DONE:
            return {"ok": True, "accepted": False, "reason": "already-done"}
        if lease_id not in entry.leases:
            # the lease already expired; that expiry was charged as the attempt
            return {"ok": True, "accepted": False, "reason": "stale-lease"}
        del entry.leases[lease_id]
        if requeue:
            self.releases += 1
            if not entry.leases:
                entry.state = PENDING
                entry.not_before = now
            return {"ok": True, "accepted": True, "state": entry.state}
        self.failures += 1
        if entry.leases:
            return {"ok": True, "accepted": True, "state": entry.state}
        self._attempt_failed(entry, error, now)
        return {"ok": True, "accepted": True, "state": entry.state}

    def drain(self) -> None:
        """Stop granting leases; in-flight cells may still complete."""
        self.draining = True

    # -- internals ------------------------------------------------------------

    def _next_pending(self, now: float, skip: Collection[str]) -> Optional[QueueEntry]:
        for key in self.order:
            entry = self.entries[key]
            if entry.state == PENDING and entry.not_before <= now and key not in skip:
                return entry
        return None

    def _steal_candidate(
        self, now: float, skip: Collection[str]
    ) -> Optional[QueueEntry]:
        """The longest-running leased straggler eligible for re-execution."""
        best: Optional[QueueEntry] = None
        best_age = self.steal_after_s
        for key in self.order:
            entry = self.entries[key]
            if entry.state != LEASED or len(entry.leases) >= self.max_leases \
                    or key in skip:
                continue
            oldest = min(lease["granted"] for lease in entry.leases.values())
            age = now - oldest
            if age >= best_age:
                best, best_age = entry, age
        return best

    def _retry_hint(self, now: float) -> float:
        """Seconds until something could plausibly become available."""
        horizons = []
        for entry in self.entries.values():
            if entry.state == PENDING:
                horizons.append(max(0.0, entry.not_before - now))
            elif entry.state == LEASED:
                horizons.append(
                    max(0.0, min(l["deadline"] for l in entry.leases.values()) - now)
                )
        return min(horizons) if horizons else 1.0

    def _attempt_failed(self, entry: QueueEntry, error: str, now: float) -> None:
        entry.attempts += 1
        if entry.attempts >= self.max_attempts:
            entry.state = QUARANTINED
            entry.error = error
        else:
            entry.state = PENDING
            backoff = min(
                self.backoff_cap_s, self.backoff_s * 2 ** (entry.attempts - 1)
            )
            entry.not_before = now + backoff
            entry.error = ""

    def _counters(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}


def format_status_table(doc: Dict) -> str:
    """Render a queue status document as the human-readable table.

    The document is exactly :meth:`WorkQueue.status_doc` — the ``queue``
    block of the server's ``GET /api/cluster``, which ``repro sweep
    --status --json`` prints, so scripts parse one format and humans read
    this table.
    """
    lines = [
        f"cells: {doc['total']}  "
        f"({doc['pending']} pending / {doc['leased']} leased / "
        f"{doc['done']} done / {doc['quarantined']} quarantined)",
        f"  finished        {'yes' if doc['finished'] else 'no':<6s}"
        f"  draining        {'yes' if doc['draining'] else 'no'}",
        f"  active leases   {doc['active_leases']:<6d}"
        f"  leases granted  {doc['leases_granted']}",
        f"  completions     {doc['completions']:<6d}"
        f"  duplicates      {doc['duplicates']}",
        f"  expirations     {doc['expirations']:<6d}"
        f"  late            {doc['late_completions']}",
        f"  failures        {doc['failures']:<6d}"
        f"  steals          {doc['steals']}",
        f"  releases        {doc.get('releases', 0)}",
    ]
    return "\n".join(lines)


# -- the worker ---------------------------------------------------------------


class ChaosSpec(NamedTuple):
    """Deterministic fault injection for tests and the CI smoke.

    ``kind`` is one of ``kill-after-lease`` (SIGKILL self right after the
    Nth lease is granted — a worker crash mid-cell), ``hang-after-lease``
    (sleep forever holding the Nth lease — a frozen worker), or
    ``delay-complete`` (sleep ``delay_s`` before reporting the Nth
    completion — a straggler whose lease may expire under it).
    """

    kind: str = ""
    n: int = 1
    delay_s: float = 0.0


def parse_chaos(spec: str) -> ChaosSpec:
    """Parse ``kill-after-lease:N`` / ``hang-after-lease:N`` /
    ``delay-complete:SECONDS`` (empty = no chaos)."""
    if not spec:
        return ChaosSpec()
    kind, _, arg = spec.partition(":")
    if kind in ("kill-after-lease", "hang-after-lease"):
        return ChaosSpec(kind, n=int(arg) if arg else 1)
    if kind == "delay-complete":
        return ChaosSpec(kind, delay_s=float(arg) if arg else 1.0)
    raise ValueError(
        f"unknown chaos spec {spec!r}; expected kill-after-lease:N, "
        "hang-after-lease:N, or delay-complete:SECONDS"
    )


@dataclass
class WorkerStats:
    """What one worker loop did before the grid finished."""

    worker_id: str
    leases: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    rejected: int = 0  # completions the server discarded as duplicates
    released: int = 0  # in-flight leases handed back on SIGTERM/SIGINT
    #: signal number that stopped the loop early (0 = ran to completion)
    stopped_by_signal: int = 0


def run_worker(
    address: Tuple[str, int],
    worker_id: Optional[str] = None,
    cache: Union[ResultCache, str, None] = None,
    poll_s: float = 0.5,
    chaos: Union[str, ChaosSpec] = "",
    max_cells: Optional[int] = None,
    request_timeout: float = 30.0,
    handle_signals: bool = True,
) -> WorkerStats:
    """Pull cells from a server's queue until its grid is done.

    Every op is one ``POST /api/queue`` carrying ``X-Client-Id: <worker
    id>``.  Each leased cell executes through :func:`run_cells` (jobs=1,
    with the worker's own ``cache``) while a daemon thread renews the
    lease every third of its deadline; the serialized result (or the
    traceback) is then reported back.  A 429 is waited out for its
    ``Retry-After`` and retried — the server is pacing this worker, not
    failing it.  Transient connection errors retry; a server that
    disappears *after* this worker did real work is treated as a
    finished grid (it exits once everything is done).

    SIGTERM/SIGINT stop the loop gracefully (``handle_signals``, main
    thread only): the in-flight lease is *released* back to the queue —
    ``fail`` with ``requeue``, charging no attempt — and the function
    returns with ``stats.stopped_by_signal`` set, instead of abandoning
    the lease until its expiry reclaims the cell.
    """
    spec = parse_chaos(chaos) if isinstance(chaos, str) else chaos
    if isinstance(cache, str):
        cache = ResultCache(cache)
    stats = WorkerStats(worker_id or f"{socket.gethostname()}-{os.getpid()}")

    def _on_signal(signum, frame) -> None:
        raise WorkerShutdown(signum)

    def op(doc: Dict) -> Dict:
        while True:
            status, reply, headers = http_json(
                address, "POST", QUEUE_ROUTE, doc,
                timeout=request_timeout, client_id=stats.worker_id,
            )
            if status == 429:
                time.sleep(float(headers.get("retry-after") or poll_s))
                continue
            if status != 200:
                raise ServiceError(f"server answered {status}: {reply.get('error')}")
            return reply

    previous = {}
    if handle_signals and threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _on_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
    in_flight: Optional[Tuple[str, str]] = None
    connect_failures = 0
    try:
        while True:
            try:
                reply = op({"op": "lease", "worker": stats.worker_id})
            except (OSError, ServiceError) as exc:
                connect_failures += 1
                if stats.leases and connect_failures >= 3:
                    break  # grid finished and the server went away
                if connect_failures >= 20:
                    raise ServiceError(
                        f"cannot reach coordinator at {address[0]}:{address[1]}: {exc}"
                    )
                time.sleep(poll_s)
                continue
            connect_failures = 0
            if reply.get("done"):
                break
            if reply.get("wait"):
                time.sleep(max(0.05, min(poll_s, float(reply.get("retry_s", poll_s)))))
                continue
            stats.leases += 1
            key = reply["key"]
            lease_id = reply["lease_id"]
            in_flight = (key, lease_id)
            if spec.kind == "kill-after-lease" and stats.leases >= spec.n:
                os.kill(os.getpid(), signal.SIGKILL)  # mid-cell crash, no cleanup
            if spec.kind == "hang-after-lease" and stats.leases >= spec.n:
                while True:  # frozen worker: holds the lease forever
                    time.sleep(3600.0)
            cell = cell_from_doc(reply["cell"])
            stop = threading.Event()
            renew_every = max(0.05, float(reply["deadline_s"]) / 3.0)

            def _renew(key: str = key, lease_id: str = lease_id) -> None:
                while not stop.wait(renew_every):
                    try:
                        op({"op": "renew", "key": key, "lease_id": lease_id,
                            "worker": stats.worker_id})
                    except (OSError, ServiceError):
                        return
            renewer = threading.Thread(target=_renew, daemon=True)
            renewer.start()
            try:
                [outcome] = run_cells([cell], cache=cache)
            finally:
                stop.set()
                renewer.join(timeout=renew_every + 1.0)
            if spec.kind == "delay-complete" and stats.leases >= spec.n:
                time.sleep(spec.delay_s)  # straggler: lease may expire under us
            if outcome.ok:
                msg = {
                    "op": "complete", "worker": stats.worker_id, "key": key,
                    "lease_id": lease_id, "result": result_to_dict(outcome.result),
                    "cached": outcome.from_cache,
                }
            else:
                msg = {
                    "op": "fail", "worker": stats.worker_id, "key": key,
                    "lease_id": lease_id, "error": outcome.error,
                }
            try:
                ack = op(msg)
            except (OSError, ServiceError):
                in_flight = None
                continue  # the lease will expire and the cell be re-run
            in_flight = None
            if not outcome.ok:
                stats.failed += 1
            elif ack.get("accepted"):
                stats.completed += 1
                if outcome.from_cache:
                    stats.cached += 1
            else:
                stats.rejected += 1
            if max_cells is not None and stats.leases >= max_cells:
                break
    except WorkerShutdown as shutdown:
        stats.stopped_by_signal = shutdown.signum
        if in_flight is not None:
            key, lease_id = in_flight
            try:
                op({
                    "op": "fail", "worker": stats.worker_id, "key": key,
                    "lease_id": lease_id, "requeue": True,
                    "error": f"worker {stats.worker_id} shutting down "
                             f"(signal {shutdown.signum})",
                })
                stats.released += 1
            except (OSError, ServiceError):
                pass  # server gone too; the lease will expire
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return stats
