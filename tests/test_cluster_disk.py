"""Unit tests: disk bandwidth models (Table II calibration)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import CCT_DISK, EC2_DISK, DiskModel


def samples(params, n=2000, seed=5):
    model = DiskModel(params, np.random.default_rng(seed))
    return np.asarray([model.sample() for _ in range(n)])


class TestCctDisk:
    def test_mean_matches_table2(self):
        s = samples(CCT_DISK)
        assert 152 < s.mean() < 163  # paper: 157.8

    def test_clipped_to_observed_range(self):
        s = samples(CCT_DISK)
        assert s.min() >= CCT_DISK.lo
        assert s.max() <= CCT_DISK.hi

    def test_tight_dispersion(self):
        s = samples(CCT_DISK)
        assert s.std() < 10  # paper: 8.02


class TestEc2Disk:
    def test_mean_matches_table2(self):
        s = samples(EC2_DISK)
        assert 125 < s.mean() < 160  # paper: 141.5

    def test_wide_dispersion_from_sharing(self):
        s = samples(EC2_DISK)
        assert s.std() > 50  # paper: 74.2

    def test_burst_mode_reaches_high_bandwidth(self):
        s = samples(EC2_DISK)
        assert s.max() > 300  # whole-disk bursts (paper max: 357.9)

    def test_shared_mode_floors_low(self):
        s = samples(EC2_DISK)
        assert s.min() < 80  # heavily shared spindles (paper min: 67.1)

    def test_sample_nodes_shape(self):
        model = DiskModel(EC2_DISK, np.random.default_rng(1))
        arr = model.sample_nodes(12)
        assert arr.shape == (12,)
        assert (arr > 0).all()


class TestSampleNodes:
    """``sample_nodes(n)`` is ``n`` scalar :meth:`DiskModel.sample` draws."""

    @staticmethod
    def _pair(params, seed):
        return (
            DiskModel(params, np.random.default_rng(seed)),
            DiskModel(params, np.random.default_rng(seed)),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([CCT_DISK, EC2_DISK]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3000),
    )
    def test_bulk_draw_equals_scalar_draws(self, params, seed, n):
        bulk, scalar = self._pair(params, seed)
        drawn = bulk.sample_nodes(n)
        assert drawn.dtype == np.float64 and drawn.shape == (n,)
        # the same floats, bit for bit, and both generators end in one state
        assert drawn.tolist() == [scalar.sample() for _ in range(n)]
        assert bulk.sample() == scalar.sample()

    def test_bulk_draw_equals_scalar_draws_at_100k_nodes(self):
        for seed in (1, 2, 20110926):
            bulk, scalar = self._pair(CCT_DISK, seed)
            assert bulk.sample_nodes(100_000).tolist() == [
                scalar.sample() for _ in range(100_000)
            ]
            assert bulk.sample() == scalar.sample()
