"""Trace-driven replay: reconstruction, verification, and divergence.

A JSONL trace written by :class:`repro.observability.trace.JsonlSink` is a
first-class replayable artifact.  This package consumes it:

* :mod:`repro.replay.reader` — stream records back from disk, validate
  them against the published schema, and index them by time/type/node;
* :mod:`repro.replay.shadow` — rebuild the control-plane state (dynamic
  replica sets, budgets, slots, per-job locality) purely from records,
  with a ``snapshot(t)`` API and an exact cross-check against the live
  run's final counters;
* :mod:`repro.replay.divergence` — align two traces and pinpoint the
  first record where they disagree, with a shadow-state delta and a
  ring-buffer-style context tail.

See ``docs/REPLAY.md`` for format guarantees and diff semantics.
"""

from __future__ import annotations

from repro.replay.divergence import DivergenceReport, TraceDiff, diff_traces, first_divergence
from repro.replay.reader import (
    TraceFormatError,
    TraceIndex,
    load_trace,
    read_trace,
    validate_record,
)
from repro.replay.shadow import (
    ReconstructionError,
    ShadowState,
    VerifyReport,
    reconstruct,
)

__all__ = [
    "DivergenceReport",
    "ReconstructionError",
    "ShadowState",
    "TraceDiff",
    "TraceFormatError",
    "TraceIndex",
    "VerifyReport",
    "diff_traces",
    "first_divergence",
    "load_trace",
    "read_trace",
    "reconstruct",
    "validate_record",
]
