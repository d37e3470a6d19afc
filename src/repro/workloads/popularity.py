"""File-popularity models.

The Yahoo! analysis (Fig. 2) and the experiment workloads (Fig. 6) both use
heavy-tailed, Zipf-like access distributions: "for a heavy-tailed
distribution of popularity, the more a file has been accessed, the more
future accesses it is likely to receive".
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n: int, s: float = 0.9) -> np.ndarray:
    """Normalized Zipf(s) probabilities over ranks 1..n."""
    if n < 1:
        raise ValueError("need at least one rank")
    if s < 0:
        raise ValueError("Zipf exponent must be nonnegative")
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


def access_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative access probability by file rank — the curve of Fig. 6."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("empty weights")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return np.cumsum(weights) / total


class PopularityModel:
    """Draws file ranks from a Zipf(s) distribution.

    Rank 1 is the most popular file.  The experiment workloads use ~120
    files (the x-axis extent of Fig. 6).
    """

    def __init__(self, n_files: int, s: float = 0.9, rng: np.random.Generator | None = None):
        self.n_files = n_files
        self.s = s
        self.weights = zipf_weights(n_files, s)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def sample_ranks(self, n: int) -> np.ndarray:
        """Draw ``n`` file ranks (0-based indices, 0 = most popular)."""
        return self._rng.choice(self.n_files, size=n, p=self.weights)

    def cdf(self) -> np.ndarray:
        """The access CDF by rank (Fig. 6)."""
        return access_cdf(self.weights)
