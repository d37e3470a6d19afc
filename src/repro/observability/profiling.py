"""Stack-sampling profiler: where a run's CPU time goes, by package.

:class:`StackSampler` wraps any stretch of work (``repro run --profile``
wraps :func:`~repro.experiments.runner.run_experiment`)::

    with StackSampler() as prof:
        run_experiment(config, workload)
    print(prof.format_report())

While armed, ``ITIMER_PROF`` sends ``SIGPROF`` per :data:`INTERVAL_S` of
the process's CPU time.  Each sample walks out from the interrupted
frame to the innermost frame whose module is ``repro.*`` and counts that
frame's package (``repro.mapreduce.jobtracker`` counts as
``mapreduce``) and its function.  A callback defined elsewhere counts
toward the ``repro`` frame that called it; a sample with no ``repro``
frame on the stack counts as outside.

The simulator knows nothing of the sampler: the handler reads frames
and touches no simulation state or RNG stream, so a sampled run's trace
and results are byte-identical to an unsampled one's (the determinism
suite asserts this).  Shares are statistical: the kernel delivers the
timer at its tick (about 4 ms on a 250 Hz kernel, whatever
:data:`INTERVAL_S` asks for), so the printed sample count says how rough
a short run's shares are.

Signals reach only the main thread, and ``SIGPROF`` exists only on
POSIX: anywhere else arming raises :class:`SamplerUnavailable`.  The
sampler never touches ``ITIMER_REAL``.
"""

from __future__ import annotations

import signal
import threading
from collections import Counter
from typing import List, Optional, Tuple

#: ITIMER_PROF period asked for; the kernel rounds it up to its tick
INTERVAL_S = 0.001


class SamplerUnavailable(RuntimeError):
    """The sampler cannot be armed here (not the main thread, or no SIGPROF)."""


class StackSampler:
    """A ``SIGPROF`` stack sampler, armed for the body of a ``with``."""

    def __init__(self) -> None:
        #: SIGPROF samples taken
        self.samples = 0
        #: samples per package, counting only samples inside ``repro``
        self.packages: Counter = Counter()
        #: samples per ``(package, function)``
        self.functions: Counter = Counter()
        self._previous: Optional[object] = None

    def __enter__(self) -> "StackSampler":
        if not hasattr(signal, "SIGPROF"):
            raise SamplerUnavailable("stack sampling needs SIGPROF, which this platform lacks")
        if threading.current_thread() is not threading.main_thread():
            raise SamplerUnavailable("stack sampling works only on the main thread")
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                package = module.split(".", 2)[1]
                code = frame.f_code
                self.packages[package] += 1
                # co_qualname is 3.11+; 3.10 names the bare function
                self.functions[package, getattr(code, "co_qualname", code.co_name)] += 1
                return
            frame = frame.f_back

    # -- reporting ----------------------------------------------------------

    @property
    def coverage(self) -> float:
        """Share of the samples that landed in a named ``repro`` package."""
        return sum(self.packages.values()) / self.samples if self.samples else 0.0

    def shares(self) -> List[Tuple[str, float]]:
        """``(package, self share of all samples)``, hottest first."""
        total = self.samples or 1
        return [(p, n / total) for p, n in _hottest(self.packages)]

    def top_functions(self, package: str, top: int) -> List[Tuple[str, float]]:
        """``package``'s ``top`` hottest functions and their shares of all
        samples."""
        total = self.samples or 1
        rows = _hottest({f: n for (p, f), n in self.functions.items() if p == package})
        return [(f, n / total) for f, n in rows[:top]]

    def format_report(self, top: int = 3) -> str:
        """The CLI table: coverage, then each package with its ``top``
        hottest functions."""
        if not self.samples:
            return "profile: no samples (the run took under one timer tick)"
        lines = [
            f"profile: {self.samples} samples, {self.coverage:.1%} in named repro packages",
            f"  {'package':<14s} {'share':>6s}  top functions",
        ]
        for package, share in self.shares():
            functions = ", ".join(
                f"{name} {s:.1%}" for name, s in self.top_functions(package, top)
            )
            lines.append(f"  {package:<14s} {share:>6.1%}  {functions}")
        return "\n".join(lines)


def _hottest(counts) -> List[Tuple[str, int]]:
    """``counts``' items by count, highest first, ties by name."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
