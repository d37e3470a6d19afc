"""Parallel fork scoring for the checkpoint-fork rollout engine.

The rollout driver's epoch loop is embarrassingly parallel: the no-op
branch and every candidate branch restore from the *same*
:class:`~repro.checkpoint.snapshot.Snapshot` and run to their
horizon independently.  :class:`ForkScorer` exploits that with a
persistent pool of worker processes (forked once, reused across epochs
to amortize spawn): each epoch the snapshot bytes are shipped to every
busy worker once, candidates are dealt round-robin, and the host scores
the no-op branch in-process while the workers run — so with ``jobs=N``
and ``N`` candidates the scoring phase costs roughly one fork instead of
``N + 1``.

Determinism contract: a fork's score is a pure function of (snapshot
bytes, action, rollout config) — every branch restores from identical
bytes and the simulator is deterministic — so scores are independent of
*where* they are computed.  :meth:`ForkScorer.score_epoch` returns them
in candidate order and the driver's reduction (strict ``>`` over that
order) is unchanged from serial, which makes decisions, traces, and
results byte-identical across ``jobs`` values.  The CI ``policy-bench``
job ``cmp``-gates exactly that.

Backends: a process pool (forked where :func:`os.fork` exists, else
spawned) for ``jobs > 1``, and serial in-process scoring for ``jobs=1``,
for an epoch without candidates, and wherever the pool cannot start.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import List, Optional, Tuple

from repro.checkpoint.snapshot import Snapshot, StaticPool
from repro.metrics.locality import mean_job_locality
from repro.observability.trace import NULL_TRACER
from repro.policies.rollout import Action, RolloutConfig, _unclamp, apply_action


def score_fork(
    snap: Snapshot,
    action: Optional[Action],
    rcfg: RolloutConfig,
    pool: Optional[StaticPool] = None,
) -> Tuple:
    """Run one branch ahead and reduce it to a comparable score tuple.

    Higher is better; ties prefer the no-op (the driver only replaces
    its baseline on a strict improvement).  Value-identical to scoring
    via ``Simulation.finalize()`` — ``job_locality`` is
    ``mean_job_locality(collector.job_records)`` and ``makespan_s`` is
    ``engine.now`` — but skips the heartbeat settling and the metrics
    the score never reads.

    Nothing subscribes to a fork's bus, so a fork runs on the null
    tracer, unless its run carries an invariant checker: restore
    re-attaches that only to an enabled bus.
    """
    tracer = None if snap.config["check_invariants"] else NULL_TRACER
    fork = snap.restore(tracer=tracer, pool=pool)
    if action is not None:
        apply_action(fork, action)
    if rcfg.horizon_s > 0:
        fork.run(until=fork.now + rcfg.horizon_s)
        _unclamp(fork)  # a fork that finished early scores its true end
        maps = fork.collector.map_records
        local = sum(1 for rec in maps if rec.locality == 0)
        locality = local / len(maps) if maps else 0.0
        return (locality, len(fork.collector.job_records), -fork.now)
    fork.run()
    return (mean_job_locality(fork.collector.job_records), 0, -fork.engine.now)


def _worker_main(conn) -> None:
    """Worker loop: score (index, action) chunks until told to stop.

    Each message is ``(snapshot, rollout_config, [(index, action), ...])``
    and is answered with ``("ok", [(index, score), ...])`` or
    ``("err", message)``.  The per-process :class:`StaticPool` means the
    static payload is unpickled once per *session*, not once per fork.
    """
    pool = StaticPool()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        snap, rcfg, tasks = msg
        try:
            out = [(idx, score_fork(snap, action, rcfg, pool=pool)) for idx, action in tasks]
            conn.send(("ok", out))
        except Exception as exc:  # ship the failure instead of hanging the host
            import traceback

            conn.send(("err", f"{exc}\n{traceback.format_exc()}"))
    conn.close()


class ForkScorer:
    """Persistent branch-scoring pool, reused across decision epochs.

    ``jobs`` is the worker-process count; ``jobs <= 1`` (or a pool that
    cannot start) scores everything in-process.  Pass the host
    :class:`SnapshotSession`'s pool so in-process restores share the
    live run's static objects.

    Use as a context manager (or call :meth:`close`) so worker processes
    don't outlive the experiment; they are daemonic as a backstop.
    """

    def __init__(self, jobs: int = 1, pool: Optional[StaticPool] = None) -> None:
        self.jobs = max(1, int(jobs))
        self._pool = pool if pool is not None else StaticPool()
        self._workers: List[Tuple[object, object]] = []  # (process, conn)

    # -- backends -------------------------------------------------------------

    def _start_workers(self) -> bool:
        """Spawn the worker processes once; False when unavailable."""
        if self._workers:
            return True
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            try:
                ctx = mp.get_context("spawn")
            except ValueError:
                return False
        try:
            for _ in range(self.jobs):
                host_conn, worker_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main, args=(worker_conn,), daemon=True
                )
                proc.start()
                worker_conn.close()  # the child holds its own copy
                self._workers.append((proc, host_conn))
        except OSError:
            self.close()
            return False
        return True

    # -- the epoch entry point -------------------------------------------------

    def score_epoch(
        self,
        snap: Snapshot,
        candidates: List[Action],
        rcfg: RolloutConfig,
    ) -> Tuple[Tuple, List[Tuple]]:
        """Score the no-op branch plus every candidate branch.

        Returns ``(base_score, candidate_scores)`` with
        ``candidate_scores`` in candidate order, so the driver's serial
        reduction applies unchanged regardless of backend or ``jobs``.
        """
        if self.jobs > 1 and candidates and self._start_workers():
            return self._score_process(snap, candidates, rcfg)
        return self._score_serial(snap, candidates, rcfg)

    def _score_serial(self, snap, candidates, rcfg):
        base = score_fork(snap, None, rcfg, pool=self._pool)
        scores = [score_fork(snap, a, rcfg, pool=self._pool) for a in candidates]
        return base, scores

    def _score_process(self, snap, candidates, rcfg):
        n = min(self.jobs, len(candidates))
        chunks: List[List[Tuple[int, Action]]] = [[] for _ in range(n)]
        for idx, action in enumerate(candidates):
            chunks[idx % n].append((idx, action))
        busy = self._workers[:n]
        for (_, conn), chunk in zip(busy, chunks):
            conn.send((snap, rcfg, chunk))
        # overlap the implicit no-op branch with the workers
        base = score_fork(snap, None, rcfg, pool=self._pool)
        scores: List[Optional[Tuple]] = [None] * len(candidates)
        for proc, conn in busy:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    f"fork-scorer worker pid={proc.pid} died mid-epoch"
                ) from None
            if status != "ok":
                raise RuntimeError(f"fork-scorer worker failed:\n{payload}")
            for idx, s in payload:
                scores[idx] = tuple(s)
        return base, scores

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        for proc, conn in self._workers:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc, _ in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        self._workers.clear()

    def __enter__(self) -> "ForkScorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
