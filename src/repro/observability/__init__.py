"""Simulation observability: structured tracing + runtime invariant checks,
and a stack sampler for profiling a run from outside.

``trace`` is dependency-free and safe to import from any layer (components
take a :class:`~repro.observability.trace.Tracer` defaulting to the disabled
:data:`~repro.observability.trace.NULL_TRACER`).  ``invariants`` sits above
the component layers and is imported lazily here to avoid cycles.
``profiling`` imports nothing from the simulator.
"""

from __future__ import annotations

from repro.observability.profiling import StackSampler
from repro.observability.trace import (
    NULL_TRACER,
    JsonlSink,
    RingBufferSink,
    TraceRecord,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "JsonlSink",
    "RingBufferSink",
    "StackSampler",
    "TraceRecord",
    "Tracer",
    "InvariantChecker",
    "InvariantViolation",
]


def __getattr__(name: str):
    if name in ("InvariantChecker", "InvariantViolation"):
        from repro.observability import invariants

        return getattr(invariants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
