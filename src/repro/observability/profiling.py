"""Sampling wall-clock profiler for engine callbacks.

The simulator's cost is almost entirely "callbacks fired by
:meth:`Engine.run`", so the natural unit of profiling is the event label.
:class:`CallbackProfiler` times every ``sample_every``-th callback with
``time.perf_counter`` and aggregates the samples into per-bucket wall-time
histograms, where a *bucket* is the label prefix before the first ``:``
(``hb:node07`` and ``hb:node13`` both land in ``hb``).  Unsampled events
cost one integer decrement, so the profiler is cheap enough to leave on for
whole experiment sweeps (``repro run --profile``).

Sampling is counter-based, not random: it perturbs neither the simulation
RNG streams nor the event order, so a profiled run produces a byte-identical
trace to an unprofiled one (the determinism suite asserts this).

Histogram bins are powers of two in microseconds (bin ``i`` holds samples
in ``[2**(i-1), 2**i) µs``; bin 0 is sub-microsecond), giving usable
percentile estimates over five orders of magnitude with 24 ints per bucket.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional

#: sample period that is prime, so periodic event patterns do not alias
DEFAULT_SAMPLE_EVERY = 7

#: power-of-two µs histogram bins: last bin is >= ~8.4 s, plenty for one callback
N_BINS = 24

#: bucket assigned to events scheduled without a label
UNLABELED = "(unlabeled)"


class BucketStats(NamedTuple):
    """Aggregated samples for one label bucket."""

    bucket: str
    samples: int
    total_s: float          # wall time across *sampled* calls only
    mean_us: float
    p50_us: float           # histogram upper-bound estimate
    p95_us: float           # histogram upper-bound estimate
    max_us: float
    share: float            # fraction of all sampled wall time
    histogram: List[int]


def bucket_of(label: str) -> str:
    """Collapse an event label to its histogram bucket."""
    if not label:
        return UNLABELED
    colon = label.find(":")
    return label if colon < 0 else label[:colon]


def _bin_index(elapsed_us: float) -> int:
    idx = int(elapsed_us).bit_length()
    return idx if idx < N_BINS else N_BINS - 1


def _bin_upper_us(idx: int) -> float:
    """Upper bound (µs) of histogram bin ``idx``."""
    return float(1 << idx)


class CallbackProfiler:
    """Label-bucketed sampling profiler, attached via ``Engine.profiler``.

    The engine calls :meth:`observe` with each popped event; every
    ``sample_every``-th call is timed around ``event.action()`` and folded
    into its bucket's histogram.  ``enabled = False`` detaches the profiler
    without unhooking it (the engine re-checks per ``run()``).
    """

    __slots__ = (
        "enabled",
        "sample_every",
        "events_seen",
        "samples",
        "_countdown",
        "_clock",
        "_buckets",
    )

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = True
        self.sample_every = sample_every
        self.events_seen = 0
        self.samples = 0
        self._countdown = 1  # sample the first event, then every Nth
        self._clock = clock
        # bucket -> [samples, total_s, max_s, histogram]
        self._buckets: Dict[str, list] = {}

    # -- the hot hook -------------------------------------------------------

    def observe(self, event) -> None:
        """Run ``event.action``, timing it if this event is sampled."""
        self.events_seen += 1
        countdown = self._countdown - 1
        if countdown > 0:
            self._countdown = countdown
            event.action()
            return
        self._countdown = self.sample_every
        clock = self._clock
        start = clock()
        event.action()
        elapsed = clock() - start
        self.samples += 1
        stats = self._buckets.get(bucket_of(event.label))
        if stats is None:
            stats = [0, 0.0, 0.0, [0] * N_BINS]
            self._buckets[bucket_of(event.label)] = stats
        stats[0] += 1
        stats[1] += elapsed
        if elapsed > stats[2]:
            stats[2] = elapsed
        stats[3][_bin_index(elapsed * 1e6)] += 1

    # -- reporting ----------------------------------------------------------

    @staticmethod
    def _percentile_us(histogram: List[int], q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from a bin histogram."""
        total = sum(histogram)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for idx, count in enumerate(histogram):
            seen += count
            if seen >= rank:
                return _bin_upper_us(idx)
        return _bin_upper_us(N_BINS - 1)

    def report(self, top: Optional[int] = None) -> List[BucketStats]:
        """Bucket stats sorted by total sampled wall time, hottest first."""
        grand_total = sum(s[1] for s in self._buckets.values()) or 1.0
        rows = []
        for bucket, (n, total, max_s, hist) in self._buckets.items():
            rows.append(
                BucketStats(
                    bucket=bucket,
                    samples=n,
                    total_s=total,
                    mean_us=total / n * 1e6,
                    p50_us=self._percentile_us(hist, 0.50),
                    p95_us=self._percentile_us(hist, 0.95),
                    max_us=max_s * 1e6,
                    share=total / grand_total,
                    histogram=list(hist),
                )
            )
        rows.sort(key=lambda r: (-r.total_s, r.bucket))
        return rows if top is None else rows[:top]

    def format_report(self, top: int = 12) -> str:
        """Human-readable top-N table for the CLI."""
        rows = self.report(top)
        if not rows:
            return "profiler: no callbacks sampled"
        lines = [
            f"callback profile: {self.events_seen} events, "
            f"{self.samples} sampled (every {self.sample_every})",
            f"{'bucket':<22s} {'share':>6s} {'samples':>8s} {'mean':>9s} "
            f"{'p50':>8s} {'p95':>8s} {'max':>9s}",
        ]
        for r in rows:
            lines.append(
                f"{r.bucket:<22.22s} {r.share:>6.1%} {r.samples:>8d} "
                f"{r.mean_us:>7.1f}us {r.p50_us:>6.0f}us {r.p95_us:>6.0f}us "
                f"{r.max_us:>7.1f}us"
            )
        return "\n".join(lines)

    def to_dict(self, top: Optional[int] = None) -> dict:
        """JSON-serializable form of the report."""
        return {
            "sample_every": self.sample_every,
            "events_seen": self.events_seen,
            "samples": self.samples,
            "buckets": [
                {
                    "bucket": r.bucket,
                    "samples": r.samples,
                    "total_s": r.total_s,
                    "mean_us": r.mean_us,
                    "p50_us": r.p50_us,
                    "p95_us": r.p95_us,
                    "max_us": r.max_us,
                    "share": r.share,
                    "histogram": r.histogram,
                }
                for r in self.report(top)
            ],
        }
