"""Journaled job store: submissions survive a server restart.

The journal is append-only JSON lines, one event per line:

* ``{"event": "submit", "job": {...}}`` — the full submission record
  (:meth:`repro.experiments.jobs.Job.to_doc`: id, idempotency key,
  normalized spec, cells in ``cell_to_doc`` form, cache keys).
* ``{"event": "state", "id": ..., "state": "done"|"failed", ...}`` —
  a job reaching a terminal state.

On restart, :func:`restore` replays the journal into a fresh
:class:`~repro.experiments.jobs.JobManager`: finished jobs keep their
terminal state and error (each cell reads as done when the
content-addressed cache holds its result, else as quarantined), and
unfinished jobs re-enqueue their cells — and because the cache
pre-resolution runs again at adoption, the prefix computed before the
crash is resolved instantly and only the genuinely unfinished cells
re-execute.  A torn final line (the process died mid-append) is
detected and ignored.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.jobs import Job, JobManager, RUNNING
from repro.experiments.serialize import canonical_json


class JobJournal:
    """Append-only JSONL journal of job submissions and state changes."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[object] = None

    def append(self, doc: Dict) -> None:
        """Append one event; flushed immediately (crash loses ≤ 1 line)."""
        line = canonical_json(doc) + "\n"
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @staticmethod
    def events(path: Union[str, Path]) -> List[Dict]:
        """Parse the journal, tolerating a torn (crash-truncated) tail."""
        path = Path(path)
        if not path.exists():
            return []
        events: List[Dict] = []
        lines = path.read_text(encoding="utf-8").splitlines()
        for n, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                if n == len(lines) - 1:
                    continue  # torn final append; everything before is good
                raise
        return events


def restore(manager: JobManager, path: Union[str, Path]) -> int:
    """Replay a journal into ``manager`` (call before serving traffic).

    Returns the number of jobs adopted.  Unfinished jobs re-enqueue
    (warm cells resolve from the cache at adoption); finished jobs are
    kept queryable with their terminal state and error.
    """
    submissions: List[Job] = []
    states: Dict[str, Dict] = {}
    for event in JobJournal.events(path):
        kind = event.get("event")
        if kind == "submit":
            submissions.append(Job.from_doc(event["job"]))
        elif kind == "state":
            states[event["id"]] = event
    for job in submissions:
        last = states.get(job.id, {})
        manager.adopt(job, last.get("state", RUNNING), last.get("error", ""))
    return len(submissions)
