"""The HTTP front door: routes, backpressure, SSE, graceful drain.

:class:`Server` owns the asyncio listener and delegates all execution to
a :class:`~repro.experiments.jobs.JobManager` (whose executor threads do
the blocking work — the event loop only parses requests, renders
documents, and pumps SSE frames).

Routes::

    POST /api/jobs              submit a grid/cells document → job id
    POST /api/queue             worker op: lease/renew/complete/fail
    GET  /api/jobs              one summary row per job
    GET  /api/jobs/{id}         status, progress, per-cell outcomes
    GET  /api/jobs/{id}/result  the outcome document (--out rendering)
    GET  /api/jobs/{id}/events  SSE: job/cell/progress/trace/done
    GET  /api/cluster           queue/worker/lease/cache/limiter state
    GET  /api/healthz           liveness (also reports draining)

Edge behavior (documented for clients in ``docs/SERVER.md``):

* every request is charged to a per-client token bucket
  (``X-Client-Id`` header, else peer address) — empty bucket → **429**
  with ``Retry-After``;
* the job backlog is bounded — full → **503**; draining → **503**;
* a submitted cell may not name a server path: a file to write (a
  non-empty ``trace_path``) or to read (a ``file`` workload) → **400**;
* request size/time limits from :mod:`repro.server.http` → 408/413/431;
* SIGTERM/SIGINT → drain: refuse new jobs and leases, close SSE
  streams, keep answering workers until every outstanding lease has
  landed (or the grace period ends), then close and exit.  With a job
  journal configured, unfinished jobs resume on restart
  (:mod:`repro.server.jobstore`).

Worker traffic (``repro sweep --worker``) is ordinary requests on
``POST /api/queue``, so it passes the same limiter, size and time
checks as job submissions.
"""

from __future__ import annotations

import asyncio
import signal
import traceback
from typing import Dict, Optional, Set

from repro.experiments.jobs import Job, JobManager, JobRejected
from repro.experiments.serialize import result_from_dict
from repro.experiments.service import QUEUE_ROUTE
from repro.server import sse
from repro.server.http import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    sse_preamble,
)
from repro.server.ratelimit import RateLimiter


class Server:
    """The asyncio HTTP server over one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 8750,
        rate: float = 20.0,
        burst: float = 40.0,
        max_body_bytes: int = 1_048_576,
        request_timeout_s: float = 10.0,
        keepalive_s: float = 15.0,
        shutdown_grace_s: float = 30.0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.max_body_bytes = max_body_bytes
        self.request_timeout_s = request_timeout_s
        self.keepalive_s = keepalive_s
        self.shutdown_grace_s = shutdown_grace_s
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._stop_requested: Optional[asyncio.Event] = None
        self._sse_wakeups: Set[asyncio.Event] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (resolves ``port=0`` to the real port)."""
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        if self._server is None:
            await self.start()
        assert self._stop_requested is not None
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix or non-main thread; request_stop instead
        try:
            await self._stop_requested.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            await self.shutdown()

    def request_stop(self) -> None:
        """Ask :meth:`serve` to exit (thread-unsafe; call on the loop)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def shutdown(self) -> None:
        """Drain: refuse new work, land in-flight cells, close streams."""
        if self._stopping:
            return
        self._stopping = True
        self.manager.drain()
        for wakeup in list(self._sse_wakeups):
            wakeup.set()
        # workers holding leases report back through the still-open listener
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.shutdown_grace_s
        while self.manager.busy() and loop.time() < deadline:
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(), timeout=self.shutdown_grace_s
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass  # a wedged client connection; the process is exiting
        await asyncio.to_thread(self.manager.stop, self.shutdown_grace_s)
        journal = getattr(self.manager, "journal", None)
        if journal is not None and hasattr(journal, "close"):
            journal.close()

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            try:
                request = await read_request(
                    reader, self.max_body_bytes, self.request_timeout_s,
                    peer=peer,
                )
            except HttpError as exc:
                writer.write(error_response(exc))
                await writer.drain()
                return
            if request is None:
                return
            self.requests += 1
            try:
                self._check_rate(request)
                body = await self._dispatch(request, writer)
            except HttpError as exc:
                body = error_response(exc)
            except JobRejected as exc:
                headers = {}
                if exc.retry_after_s:
                    headers["Retry-After"] = f"{exc.retry_after_s:g}"
                body = json_response(
                    exc.status,
                    {"error": exc.message, "status": exc.status},
                    headers=headers,
                )
            except Exception:
                body = json_response(
                    500,
                    {"error": traceback.format_exc(limit=1).strip()
                     .splitlines()[-1], "status": 500},
                )
            if body is not None:
                writer.write(body)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _check_rate(self, request: Request) -> None:
        client = request.headers.get("x-client-id") or request.peer or "anon"
        allowed, retry_after = self.limiter.check(client)
        if not allowed:
            raise HttpError(
                429,
                f"rate limit exceeded for client {client!r}",
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """Return the full response bytes, or None if already streamed."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/api/jobs":
            if method == "POST":
                return await self._submit(request)
            if method == "GET":
                return json_response(200, {"jobs": self.manager.jobs_doc()})
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == QUEUE_ROUTE:
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            # queue transitions touch the cache (disk) — off the event loop
            reply = await asyncio.to_thread(self._queue_op, request.json())
            return json_response(200, reply)
        if path == "/api/cluster":
            self._require_get(method, path)
            return json_response(200, self._cluster_doc())
        if path == "/api/healthz":
            self._require_get(method, path)
            return json_response(
                200, {"ok": True, "draining": self.manager.draining}
            )
        if path.startswith("/api/jobs/"):
            rest = path[len("/api/jobs/"):]
            job_id, _, sub = rest.partition("/")
            job = self._find_job(job_id)
            if not sub:
                self._require_get(method, path)
                return json_response(200, self.manager.job_status_doc(job))
            if sub == "result":
                self._require_get(method, path)
                # the result is read back from the cache (disk)
                return await asyncio.to_thread(self._result, job)
            if sub == "events":
                self._require_get(method, path)
                await self._stream_events(request, writer, job)
                return None
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require_get(method: str, path: str) -> None:
        if method != "GET":
            raise HttpError(405, f"{method} not allowed on {path}")

    def _find_job(self, job_id: str) -> Job:
        job = self.manager.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job {job_id!r}")
        return job

    # -- handlers --------------------------------------------------------------

    async def _submit(self, request: Request) -> bytes:
        doc = request.json()
        cells = doc.get("cells") if isinstance(doc, dict) else None
        if isinstance(cells, list) and any(map(names_server_path, cells)):
            # the server would write or read wherever the client says
            raise HttpError(400, "cells submitted over HTTP may not name a server "
                                 "path: no 'trace_path' (stream trace records "
                                 "instead) and no 'file' workload")
        # submission touches the cache (disk) — keep it off the event loop
        job, created = await asyncio.to_thread(self.manager.submit, doc)
        body = {
            "id": job.id,
            "state": job.state,
            "created": created,
            "idempotency_key": job.idempotency_key,
            "progress": self.manager.job_status_doc(job)["progress"],
        }
        return json_response(202 if created else 200, body)

    def _queue_op(self, doc: object) -> Dict:
        """Apply one worker op document to the manager's queue."""
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        op = doc.get("op")
        if op == "lease":
            return self.manager.lease(_text(doc, "worker"))
        key, lease_id = _text(doc, "key"), _text(doc, "lease_id")
        if op == "renew":
            return {"ok": self.manager.renew(key, lease_id)}
        if op == "complete":
            result = doc.get("result")
            if not isinstance(result, dict):
                raise HttpError(400, "'result' must be a JSON object")
            try:  # the result is cached and served as this cell's outcome
                result_from_dict(result)
            except Exception:
                raise HttpError(
                    400, "malformed result document: "
                    + traceback.format_exc(limit=0).strip().splitlines()[-1],
                )
            return self.manager.complete(
                key, lease_id, result, cached=bool(doc.get("cached", False))
            )
        if op == "fail":
            return self.manager.fail(
                key, lease_id, _text(doc, "error"),
                requeue=bool(doc.get("requeue", False)),
            )
        raise HttpError(
            400, f"unknown op {op!r}; expected lease, renew, complete or fail"
        )

    def _result(self, job: Job) -> bytes:
        doc = self.manager.job_result_doc(job)
        if doc is None:
            raise HttpError(
                409, f"job {job.id!r} is still {job.state}; result not ready"
            )
        return json_response(200, doc)

    def _cluster_doc(self) -> Dict:
        doc = self.manager.cluster_doc()
        doc["server"] = {
            "requests": self.requests,
            "stopping": self._stopping,
            "ratelimit": {
                "allowed": self.limiter.allowed,
                "limited": self.limiter.limited,
                "clients": len(self.limiter),
            },
        }
        return doc

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Pump the job's RecordStream as SSE until done (or shutdown)."""
        since = 0
        raw_since = request.query.get("since") \
            or request.headers.get("last-event-id", "")
        if raw_since:
            try:
                since = int(raw_since)
            except ValueError:
                raise HttpError(400, f"malformed event id {raw_since!r}")
        writer.write(sse_preamble(sse.HEADERS))
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()
        self._sse_wakeups.add(wakeup)

        def wake() -> None:
            loop.call_soon_threadsafe(wakeup.set)

        job.stream.add_waiter(wake)
        try:
            while True:
                events, dropped, closed = job.stream.read_since(since)
                if dropped:
                    writer.write(sse.format_event(
                        "dropped", {"count": dropped}
                    ))
                    since += dropped
                for event in events:
                    writer.write(sse.format_event(
                        event.kind, dict(event.data), seq=event.seq
                    ))
                    since = event.seq
                await writer.drain()
                if closed or self._stopping:
                    break
                wakeup.clear()
                try:
                    await asyncio.wait_for(
                        wakeup.wait(), timeout=self.keepalive_s
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    writer.write(sse.format_comment())
                    await writer.drain()
        finally:
            job.stream.remove_waiter(wake)
            self._sse_wakeups.discard(wakeup)


def names_server_path(cell: object) -> bool:
    """True when a submitted cell document names a path on the server: a
    trace to write (``trace_path``) or a ``file`` workload to read."""
    if not isinstance(cell, dict):
        return False
    config, workload = cell.get("config"), cell.get("workload")
    return (isinstance(config, dict) and bool(config.get("trace_path"))) or (
        isinstance(workload, list) and workload[:1] == ["file"]
    )


def _text(doc: Dict, name: str) -> str:
    value = doc.get(name, "")
    if not isinstance(value, str):
        raise HttpError(400, f"{name!r} must be a string")
    return value


async def run_server(server: Server) -> None:
    """CLI entry: start and serve until signalled."""
    await server.start()
    print(f"serving on http://{server.host}:{server.port}", flush=True)
    await server.serve()
