"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

Just enough protocol for the API in :mod:`repro.server.app`: parse one
request per connection (the server answers ``Connection: close``), with
the hardening the service edge needs —

* the request line and each header line are bounded by the stream
  reader's buffer limit (oversized → 431),
* header count is bounded (→ 431),
* the body is bounded by ``max_body_bytes`` (→ 413) and must carry an
  exact ``Content-Length`` (no chunked encoding — clients here are
  simple scripts and test harnesses),
* every read is wrapped in a timeout (a stalled client gets a 408 and
  its connection closed instead of pinning the handler).

These checks guard every route alike — job submissions and the
``POST /api/queue`` worker operations.

Responses are rendered by :func:`response` / :func:`json_response`.
JSON bodies use ``indent=2, sort_keys=True`` + trailing newline — the
exact ``doc_to_text`` rendering that ``repro sweep --out`` writes, which
is what makes the server's result documents byte-comparable to files
produced by the serial path.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

#: cap on header lines per request
MAX_HEADERS = 64

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server must refuse, with its status code."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    peer: str = ""

    def json(self) -> object:
        """The body as JSON; malformed (or non-finite floats) → 400."""
        try:
            return json.loads(
                self.body.decode("utf-8"),
                parse_constant=_reject_constant,
            )
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


def _reject_constant(name: str) -> object:
    # NaN/Infinity are not JSON; a submission carrying them would break
    # canonical cache keys, so refuse at the edge
    raise ValueError(f"non-finite float {name!r} is not allowed")


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
    timeout_s: float,
    peer: str = "",
) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF before a request line."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request line too long")
    except ValueError:
        raise HttpError(431, "request line too long")
    except (asyncio.TimeoutError, TimeoutError):
        raise HttpError(408, "timed out waiting for request line")
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(431, "header line too long")
        except (asyncio.TimeoutError, TimeoutError):
            raise HttpError(408, "timed out reading headers")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if not _:
            raise HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, f"more than {MAX_HEADERS} headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413, f"request body exceeds {max_body_bytes} bytes"
            )
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=timeout_s
            )
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length")
        except (asyncio.TimeoutError, TimeoutError):
            raise HttpError(408, "timed out reading request body")
    return Request(
        method=method,
        path=split.path,
        query=query,
        headers=headers,
        body=body,
        peer=peer,
    )


def response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json; charset=utf-8",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Render one full response (status line + headers + body)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(doc: object) -> bytes:
    """Render a JSON body exactly as ``doc_to_text`` does (``--out`` form)."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def json_response(status: int, doc: object,
                  headers: Optional[Dict[str, str]] = None) -> bytes:
    """A JSON response in the repo's canonical on-disk rendering."""
    return response(status, json_body(doc), headers=headers)


def error_response(exc: HttpError) -> bytes:
    """Render an :class:`HttpError` as a JSON error body."""
    return json_response(
        exc.status, {"error": exc.message, "status": exc.status},
        headers=exc.headers,
    )


def sse_preamble(headers: Dict[str, str]) -> bytes:
    """The status+header block that opens an SSE stream (no length)."""
    lines = ["HTTP/1.1 200 OK"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
