"""SWIM-style trace synthesis.

Generates 500-job workloads with the published shape of the two Facebook
segments used in the paper.  Jobs draw an input file (which fixes the map
count: one map per block), CPU demands, and reduce counts; arrivals are
bursty, as in the Facebook trace where jobs arrive in close succession.

Class-conditional popularity: a job first picks a *size class* (small /
medium / large) from the workload's mix, then a file within the class from
a Zipf distribution over the class's rank order.  The resulting overall
access distribution is heavy-tailed (Fig. 6) while the job-size mix stays
under control (wl1 small-job dominated, wl2 with periodic large jobs).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.mapreduce.job import JobSpec
from repro.workloads.catalog import FileCatalog, generate_catalog
from repro.workloads.popularity import zipf_weights


class SwimParams(NamedTuple):
    """Shape parameters of a synthesized workload."""

    name: str
    n_jobs: int
    #: probability a job is small / medium / large
    class_mix: tuple
    #: wl2-style periodic large jobs: every k-th job is large (0 = disabled)
    large_period: int
    #: Zipf exponent of within-class file popularity
    zipf_s: float
    #: mean jobs per arrival burst (geometric)
    burst_mean: float
    #: mean seconds between bursts (exponential)
    interburst_mean_s: float
    #: mean seconds between jobs inside a burst (exponential)
    intraburst_mean_s: float
    #: lognormal map CPU seconds: (mu, sigma) of log
    map_cpu: tuple
    #: lognormal reduce CPU seconds: (mu, sigma) of log
    reduce_cpu: tuple
    #: keyword arguments for :func:`~repro.workloads.catalog.generate_catalog`
    catalog_kwargs: dict = {}


#: wl1 — jobs 0-499 of the Facebook trace: "a long sequence of small jobs".
#: Nearly every job reads a 1-3 block file; arrivals come in deep bursts
#: (Facebook jobs arrive in close succession), which is what loads the
#: cluster enough for scheduling and locality effects to matter.
WL1_PARAMS = SwimParams(
    name="wl1",
    n_jobs=500,
    class_mix=(0.97, 0.029, 0.001),
    large_period=0,
    zipf_s=1.5,
    burst_mean=70.0,
    interburst_mean_s=40.0,
    intraburst_mean_s=0.12,
    map_cpu=(np.log(2.5), 0.55),
    reduce_cpu=(np.log(3.0), 0.5),
    catalog_kwargs={
        "n_small": 60,
        "n_medium": 24,
        "n_large": 6,
        "small_blocks": (1, 3),
        "medium_blocks": (8, 16),
        "large_blocks": (100, 250),
    },
)

#: wl2 — jobs 4800-5299: "a pattern of small jobs after large jobs".
#: Every 40th job reads a large (40-80 block) file; small jobs convoy
#: behind it under FIFO, which is why this segment favors Fair.
WL2_PARAMS = SwimParams(
    name="wl2",
    n_jobs=500,
    class_mix=(0.85, 0.13, 0.02),
    large_period=40,
    zipf_s=1.3,
    burst_mean=13.0,
    interburst_mean_s=42.0,
    intraburst_mean_s=0.3,
    map_cpu=(np.log(5.0), 0.55),
    reduce_cpu=(np.log(3.0), 0.5),
    catalog_kwargs={
        "n_small": 60,
        "n_medium": 24,
        "n_large": 6,
        "small_blocks": (2, 6),
        "medium_blocks": (12, 40),
        "large_blocks": (40, 80),
    },
)

_CLASSES = ("small", "medium", "large")


class Workload:
    """A synthesized trace: a file catalog plus a list of job specs.

    A workload has at least one job: an empty one has no makespan and no
    popularity distribution to measure, so it is refused here.
    """

    def __init__(self, name: str, catalog: FileCatalog, specs: List[JobSpec]) -> None:
        if not specs:
            raise ValueError(f"workload {name!r} has no jobs")
        self.name = name
        self.catalog = catalog
        self.specs = specs
        self.specs_by_id: Dict[int, JobSpec] = {s.job_id: s for s in specs}

    @property
    def n_jobs(self) -> int:
        """Job count."""
        return len(self.specs)

    def access_counts(self) -> Counter:
        """Accesses per file name (the popularity assignment of Fig. 11)."""
        return Counter(s.input_file for s in self.specs)

    def total_map_tasks(self) -> int:
        """Total map tasks implied by the trace."""
        blocks = {f.name: f.n_blocks for f in self.catalog.files}
        return sum(blocks[s.input_file] for s in self.specs)

    def empirical_access_cdf(self) -> np.ndarray:
        """CDF of accesses by file rank, most popular first (Fig. 6)."""
        counts = np.sort(np.asarray(list(self.access_counts().values())))[::-1]
        return np.cumsum(counts) / counts.sum()


def _arrival_times(params: SwimParams, rng: np.random.Generator) -> np.ndarray:
    """Bursty arrivals: geometric bursts with exponential gaps."""
    times: List[float] = []
    t = 0.0
    while len(times) < params.n_jobs:
        t += rng.exponential(params.interburst_mean_s)
        burst = 1 + rng.geometric(1.0 / params.burst_mean)
        for _ in range(int(burst)):
            if len(times) >= params.n_jobs:
                break
            t += rng.exponential(params.intraburst_mean_s)
            times.append(t)
    return np.asarray(times)


def _choice_cdf(p: np.ndarray) -> List[float]:
    """The normalised cumulative weights ``Generator.choice(len(p), p=p)``
    searches.

    For one draw, ``choice`` takes ``cdf = p.cumsum(); cdf /= cdf[-1]``,
    one ``random()`` and ``cdf.searchsorted(u, side="right")``, so
    ``bisect_right`` over this list with the next ``rng.random()`` picks
    the same index and leaves the generator in the same state, without
    ``choice``'s per-call argument checks.  ``tests/test_workloads.py``
    holds the equivalence against a per-job ``choice`` loop.
    """
    if not (p >= 0).all():
        raise ValueError("probabilities are not non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def synthesize_workload(
    params: SwimParams,
    rng: np.random.Generator,
    catalog: Optional[FileCatalog] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Workload:
    """Generate a workload from shape parameters."""
    if catalog is None:
        catalog = generate_catalog(rng, **params.catalog_kwargs)
    class_indices = {c: catalog.by_class(c) for c in _CLASSES}
    for c in _CLASSES:
        if not class_indices[c]:
            raise ValueError(f"catalog has no {c!r} files")
    class_cdf = {
        c: _choice_cdf(zipf_weights(len(class_indices[c]), params.zipf_s))
        for c in _CLASSES
    }
    mix_cdf = _choice_cdf(np.asarray(params.class_mix) / sum(params.class_mix))
    arrivals = _arrival_times(params, rng)
    specs: List[JobSpec] = []
    for i in range(params.n_jobs):
        if params.large_period and i % params.large_period == 0:
            size_class = "large"
        else:
            size_class = _CLASSES[bisect_right(mix_cdf, rng.random())]
        members = class_indices[size_class]
        fidx = members[bisect_right(class_cdf[size_class], rng.random())]
        fspec = catalog[fidx]
        n_reduces = max(1, min(20, fspec.n_blocks // 6))
        specs.append(
            JobSpec(
                job_id=i,
                submit_time=float(arrivals[i]),
                input_file=fspec.name,
                map_cpu_s=float(rng.lognormal(*params.map_cpu)),
                n_reduces=n_reduces,
                reduce_cpu_s=float(rng.lognormal(*params.reduce_cpu)),
                shuffle_ratio=float(rng.uniform(0.2, 0.7)),
                output_ratio=float(rng.uniform(0.1, 0.4)),
            ).validate()
        )
    return Workload(params.name, catalog, specs)


def synthesize_wl1(
    rng: np.random.Generator,
    n_jobs: int = 500,
    catalog: Optional[FileCatalog] = None,
) -> Workload:
    """The small-job workload (favors FIFO)."""
    return synthesize_workload(WL1_PARAMS._replace(n_jobs=n_jobs), rng, catalog)


def synthesize_wl2(
    rng: np.random.Generator,
    n_jobs: int = 500,
    catalog: Optional[FileCatalog] = None,
) -> Workload:
    """The small-after-large workload (favors Fair)."""
    return synthesize_workload(WL2_PARAMS._replace(n_jobs=n_jobs), rng, catalog)
