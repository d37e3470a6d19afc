"""Unit tests: the default rack-aware placement policy."""

import random

import numpy as np
import pytest

from repro.cluster.topology import DEDICATED, VIRTUALIZED, Topology
from repro.hdfs.placement import DefaultPlacementPolicy


def make_policy(family=VIRTUALIZED, n=20, seed=3):
    topo = Topology(family, n, np.random.default_rng(seed))
    slaves = list(range(1, n))  # node 0 is the master
    rack_ids = {}
    for node in slaves:
        rack_ids.setdefault(int(topo.rack_of[node]), []).append(node)
    return DefaultPlacementPolicy(slaves, rack_ids, topo, random.Random(seed)), topo


class TestChooseTargets:
    def test_targets_distinct(self):
        policy, _ = make_policy()
        for _ in range(50):
            t = policy.choose_targets(3)
            assert len(t) == len(set(t)) == 3

    def test_targets_are_slaves(self):
        policy, _ = make_policy()
        for _ in range(50):
            assert all(n != 0 for n in policy.choose_targets(3))

    def test_writer_gets_first_replica(self):
        policy, _ = make_policy()
        t = policy.choose_targets(3, writer=5)
        assert t[0] == 5

    def test_non_slave_writer_ignored(self):
        policy, _ = make_policy()
        t = policy.choose_targets(3, writer=0)  # master can't store blocks
        assert t[0] != 0

    @pytest.mark.parametrize("rf", [1, 3])
    @pytest.mark.parametrize("writer", [0, 20, -1], ids=["master", "n_nodes", "negative"])
    def test_writer_outside_the_slaves_places_as_an_outside_load(self, writer, rf):
        """A writer that is no slave draws its first replica as a file
        loaded from outside the cluster does: the same targets, and the
        generator left in the same state."""
        policy, _ = make_policy()
        outside, _ = make_policy()
        for _ in range(20):
            assert policy.choose_targets(rf, writer=writer) == outside.choose_targets(rf)
        assert policy._rng.getstate() == outside._rng.getstate()

    def test_second_replica_off_rack_when_possible(self):
        policy, topo = make_policy()
        for _ in range(30):
            t = policy.choose_targets(3, writer=5)
            if len({int(topo.rack_of[n]) for n in range(1, 20)}) > 1:
                assert topo.rack_of[t[0]] != topo.rack_of[t[1]]

    def test_third_replica_shares_rack_with_second_when_possible(self):
        policy, topo = make_policy(n=40)
        hits = 0
        for _ in range(50):
            t = policy.choose_targets(3)
            if len(t) == 3 and topo.rack_of[t[1]] == topo.rack_of[t[2]]:
                hits += 1
        # same-rack third placement whenever the second's rack has room
        assert hits > 0

    def test_single_rack_degenerates_to_distinct_random(self):
        policy, _ = make_policy(family=DEDICATED)
        t = policy.choose_targets(3)
        assert len(set(t)) == 3

    def test_rf_larger_than_cluster_capped(self):
        policy, _ = make_policy(n=5)
        t = policy.choose_targets(10)
        assert len(t) == 4  # 4 slaves available

    def test_zero_replicas_rejected(self):
        policy, _ = make_policy()
        with pytest.raises(ValueError):
            policy.choose_targets(0)

    def test_empty_slave_list_rejected(self):
        topo = Topology(DEDICATED, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            DefaultPlacementPolicy([], {}, topo, random.Random(0))

    def test_spread_over_cluster(self):
        # over many placements every slave should receive some replicas
        policy, _ = make_policy()
        seen = set()
        for _ in range(200):
            seen.update(policy.choose_targets(3))
        assert seen == set(range(1, 20))
