"""Helpers shared by the benchmark's runner, tracer and comparison tool.

Nothing here imports :mod:`repro`, so :mod:`compare` can run anywhere the
result documents are.
"""

from __future__ import annotations

import array
import bisect
import hashlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_PATH = BENCH_DIR / "golden.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: the reproduction's default seed, and the benchmark's: ``golden.json``
#: holds the result digests of a run with this seed
CANONICAL_SEED = 20110926

#: a percentile is reported only when at least this many samples exist, so
#: that ten or more samples lie beyond the 90th percentile
P90_MIN_SAMPLES = 100

#: the CPU speed every reported time is scaled to: one on which a warm
#: round of :func:`_speed_loop` takes this many seconds, as on an
#: uncontended vCPU of the 2-vCPU Xeon the benchmark was tuned on
LOOP_REFERENCE_S = 3.3e-5

#: how often :class:`SpeedSampler` times the loop
SAMPLE_INTERVAL_S = 0.02

#: end-to-end metrics: name -> unit (BENCHMARK.json carries the bounds)
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def src_available() -> bool:
    """True when this checkout holds the simulator's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not src_available():
        raise SystemExit(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def result_digest(result_doc: Dict) -> str:
    """sha256 of a serialized ExperimentResult, minus its event count.

    ``events_processed`` counts engine callbacks, an execution detail a
    pure speed-up may change, not a simulated outcome.
    """
    doc = {k: v for k, v in result_doc.items() if k != "events_processed"}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_LOOP_TABLE = {i: i * 7919 for i in range(256)}


def _speed_loop() -> int:
    """About 35 us of pure-Python work: integer arithmetic and dict
    lookups on a table small enough to stay in the L1 cache.  It
    allocates no object the cyclic collector tracks, so it does not move
    the workload's garbage collections."""
    x = 1
    table = _LOOP_TABLE
    for i in range(256):
        x = (x * 1103515245 + table[i]) & 0x7FFFFFFF
    return x


class SpeedSampler:
    """How fast the CPU under this process's main thread runs, over time.

    The host the benchmark was tuned on is shared: its vCPUs toggle, often
    several times a second, between full speed and about 1.5x slower, and for
    seconds at a time run up to 3x slower.  Readings taken only between
    cells miss the toggles.  So, while the sampler is entered, a
    ``SIGALRM`` handler times a warm round of :func:`_speed_loop` every
    :data:`SAMPLE_INTERVAL_S`, in the main thread and so on the CPU the
    simulation itself runs on.  It takes about 0.5% of the CPU.  The round
    is timed after an untimed one, so that it reads the core's speed and
    not how much of the workload's data evicted the table from the cache.

    :meth:`scaled` turns an interval of work into the seconds it would
    take on the reference CPU (:data:`LOOP_REFERENCE_S`).  The loop
    shares no code with the simulator, so a change to the simulator moves
    scaled times as it moves wall times.

    A workload does not slow exactly as the loop does.  When the loop
    runs at speed ``s``, a workload of ``sensitivity`` ``k`` is taken to
    run at ``s ** k``: above 1 for one that a busy sibling hyperthread
    slows more than the loop (it also loses its share of the L1 and L2
    caches), below 1 for one bound by memory latency, which a sibling
    slows less.
    """

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        #: when each reading was taken, and the loop's speed (1.0 is the
        #: reference CPU)
        self.at = array.array("d")
        self.speed = array.array("d")
        #: seconds spent in the handler so far
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _speed_loop()
        t0 = time.perf_counter()
        _speed_loop()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.speed.append(LOOP_REFERENCE_S / (t1 - t0))
        self.spent += t1 - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[float, float]:
        """The start of an interval: for :meth:`scaled`."""
        return time.perf_counter(), self.spent

    def speed_between(self, t0: float, t1: float) -> float:
        """The workload's mean speed over ``[t0, t1]`` (1.0 on the
        reference CPU).

        An interval shorter than one sampling period takes the readings
        on either side of it.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        if hi <= lo:
            return 1.0
        k = self.sensitivity
        return statistics.fmean(s ** k for s in self.speed[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of the ``perf_counter`` interval ``[t0, t1]``."""
        return (t1 - t0) * self.speed_between(t0, t1)

    def scaled(self, mark: Tuple[float, float]) -> float:
        """Reference seconds of the work done in this thread since ``mark``.

        The handler's own time is left out.
        """
        t0, spent0 = mark
        t1 = time.perf_counter()
        return (t1 - t0 - (self.spent - spent0)) * self.speed_between(t0, t1)

    def slowdown(self) -> float:
        """The loop's median reading over its reference one (1.0 when
        unsampled)."""
        return 1.0 / median(self.speed) if self.speed else 1.0


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def quartiles(samples: Sequence[float]) -> List[float]:
    """First and third quartile (``statistics.quantiles``, n=4)."""
    if len(samples) < 2:
        return [float(samples[0])] * 2
    q = statistics.quantiles(samples, n=4)
    return [float(q[0]), float(q[2])]


def p90(samples: Sequence[float]) -> Optional[float]:
    """90th percentile, or None below :data:`P90_MIN_SAMPLES` samples."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return float(statistics.quantiles(samples, n=10)[-1])


def summarize(samples: Sequence[float]) -> Dict:
    """Median, quartiles and sample count of one metric."""
    q1, q3 = quartiles(samples)
    return {
        "median": median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": [float(x) for x in samples],
    }


def load_json(path: Path) -> Dict:
    with open(path) as fh:
        return json.load(fh)
