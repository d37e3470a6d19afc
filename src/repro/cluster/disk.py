"""Disk model: sequential read bandwidth per node.

Calibration targets (paper, Table II):

======================  ======  ======  ======  =========
quantity                 min     mean    max     std.dev.
======================  ======  ======  ======  =========
CCT disk bw (MB/s)       145.3   157.8   167.0   8.02
EC2 disk bw (MB/s)       67.1    141.5   357.9   74.2
======================  ======  ======  ======  =========

The EC2 distribution is wide and right-skewed: an m1.small instance "uses
all available disk bandwidth when no other VMs on the host are using it", so
probes see anything from a heavily shared spindle (~67 MB/s) to a whole
dedicated disk array burst (~358 MB/s).  We model it as a two-component
mixture (shared vs. alone-on-host).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DiskParams(NamedTuple):
    """Parameters of the per-node sequential-read bandwidth distribution."""

    #: 'normal' or 'mixture'
    kind: str
    mean: float
    sigma: float
    lo: float
    hi: float
    #: mixture only: probability the probe runs effectively alone on host
    burst_prob: float
    burst_mean: float
    burst_sigma: float


#: dedicated hardware: tight normal around 157.8 MB/s.
CCT_DISK = DiskParams(
    kind="normal", mean=157.8, sigma=7.0, lo=145.3, hi=167.0,
    burst_prob=0.0, burst_mean=0.0, burst_sigma=0.0,
)

#: virtualized, shared spindles with occasional full-disk bursts.
EC2_DISK = DiskParams(
    kind="mixture", mean=110.0, sigma=30.0, lo=67.1, hi=357.9,
    burst_prob=0.18, burst_mean=290.0, burst_sigma=45.0,
)


class DiskModel:
    """Samples per-node disk read bandwidths."""

    def __init__(self, params: DiskParams, rng: np.random.Generator) -> None:
        self.params = params
        self._rng = rng

    def sample(self) -> float:
        """One hdparm-style sequential-read bandwidth measurement (MB/s)."""
        p = self.params
        if p.kind == "mixture" and self._rng.random() < p.burst_prob:
            bw = self._rng.normal(p.burst_mean, p.burst_sigma)
        else:
            bw = self._rng.normal(p.mean, p.sigma)
        # min/max rather than np.clip: same float, without NumPy's
        # per-call dispatch (one call per node of a mixture cluster)
        return min(max(float(bw), p.lo), p.hi)

    def sample_nodes(self, n: int) -> np.ndarray:
        """Per-node steady bandwidths for an ``n``-node cluster.

        The ``normal`` kind draws all ``n`` in one call: the same floats as
        ``n`` :meth:`sample` calls, and the generator ends in the same
        state.  The ``mixture`` kind interleaves ``random()`` and
        ``normal()`` per node on one stream, so it stays scalar.
        """
        p = self.params
        if p.kind == "normal":
            return np.clip(self._rng.normal(p.mean, p.sigma, size=n), p.lo, p.hi)
        return np.asarray([self.sample() for _ in range(n)])
