"""Property tests (hypothesis) for the scale rework.

Each of the hot-path data structures introduced for 10k-100k-node runs is
checked against a straightforward dict/list reference on random small
inputs:

* ``_kth_excluding`` (the placement order statistic) against filtering
  the candidate list;
* the full :class:`DefaultPlacementPolicy` against a standalone
  candidate-list oracle driven by an identically seeded RNG, on the CCT,
  EC2 and scale topologies — the two must consume the same
  ``_randbelow`` stream draw for draw;
* ``NameNode.new_holders`` (Scarlett and repair targets) against
  ``rng.choice`` over the list of alive slaves without the block;
* the NameNode's rack-sharded replica indexes (``rack_counts``, the
  per-node reverse index, the incremental under-replicated set) against
  recomputation from the membership, across random mutation sequences
  and a pickle round-trip;
* the array-backed :class:`SlotStore` against per-node dict bookkeeping.
"""

import pickle
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import CCT_SPEC, EC2_SPEC, Cluster, scale_spec
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import DefaultPlacementPolicy, _kth_excluding
from repro.mapreduce.slots import SlotStore
from repro.simulation.rng import RandomStreams

# ---------------------------------------------------------------------------
# order-statistic selection
# ---------------------------------------------------------------------------


@given(st.data())
def test_kth_excluding_matches_list_filter(data):
    ids = sorted(data.draw(st.sets(st.integers(0, 300), min_size=1, max_size=80)))
    # skips drawn from members and non-members alike: callers only pass
    # members, but the helper must tolerate strangers (bisect miss)
    skip = sorted(
        data.draw(st.sets(st.integers(0, 300), max_size=len(ids) - 1))
    )
    remaining = [n for n in ids if n not in set(skip)]
    if not remaining:
        return
    k = data.draw(st.integers(0, len(remaining) - 1))
    assert _kth_excluding(ids, skip, k) == remaining[k]


class _CandidateListPlacement:
    """Oracle: Hadoop's default placement, each replica a ``choice`` over
    its materialised O(N) candidate list.

    Standalone on purpose: it shares no code with the policy under test,
    so the comparison holds the direct ``_randbelow`` draws against the
    lists they stand for, draw for draw.
    """

    def __init__(self, slave_ids, topology, rng):
        self.slave_ids = sorted(slave_ids)
        self.rack_of = topology.rack_of.tolist()
        self._rng = rng

    def _draw(self, chosen, keep=lambda n: True):
        candidates = [n for n in self.slave_ids if n not in chosen and keep(n)]
        return self._rng.choice(candidates) if candidates else None

    def choose_targets(self, n_replicas, writer=None):
        rack_of = self.rack_of
        n_replicas = min(n_replicas, len(self.slave_ids))
        first = writer if writer in self.slave_ids else self._draw([])
        chosen = [first]
        if n_replicas > 1:
            second = self._draw(chosen, lambda n: rack_of[n] != rack_of[first])
            if second is None:
                second = self._draw(chosen)
            chosen.append(second)
        if n_replicas > 2:
            third = self._draw(chosen, lambda n: rack_of[n] == rack_of[second])
            if third is None:
                third = self._draw(chosen)
            chosen.append(third)
        while len(chosen) < n_replicas:
            chosen.append(self._draw(chosen))
        return chosen


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.one_of(
        st.sampled_from([CCT_SPEC, EC2_SPEC]),
        st.integers(3, 1000).map(scale_spec),
    ),
    st.integers(1, 6),
)
def test_placement_fast_path_matches_candidate_list(seed, spec, rf):
    """Order-statistic draws == candidate-list draws, stream for stream:
    the same targets, and the generator left in the same state."""
    cluster = Cluster(spec, RandomStreams(seed))
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    fast = DefaultPlacementPolicy(
        cluster.slave_ids, cluster.slaves_by_rack, cluster.topology, fast_rng
    )
    ref = _CandidateListPlacement(cluster.slave_ids, cluster.topology, ref_rng)
    writers = random.Random(seed + 1)
    for i in range(24):
        # no writer (a load from outside), the master (not a DataNode),
        # a slave, or an id outside the cluster
        writer = (None, 0, writers.choice(cluster.slave_ids), spec.n_nodes, -1)[i % 5]
        assert fast.choose_targets(rf, writer) == ref.choose_targets(rf, writer)
    assert fast_rng.getstate() == ref_rng.getstate()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_new_holders_draw_as_choice_over_the_candidate_list(data):
    """A choice over ``new_holders`` draws what a choice over the list of
    alive non-holders draws, and leaves the generator in the same state."""
    seed = data.draw(st.integers(0, 2**31 - 1))
    cluster = Cluster(scale_spec(data.draw(st.integers(3, 40))), RandomStreams(seed))
    nn = NameNode(cluster)
    nn.create_file(
        "f",
        data.draw(st.integers(1, 4)) * DEFAULT_BLOCK_SIZE,
        replication=data.draw(st.integers(1, 3)),
    )
    for node_id in sorted(data.draw(st.sets(st.sampled_from(cluster.slave_ids)))):
        cluster.stop_node(node_id)
        if data.draw(st.booleans()):  # detected: pruned from the block map
            nn.fail_node(node_id)
    for bid in sorted(nn.blocks):
        locs = nn.locations(bid)
        oracle = [
            n.node_id for n in cluster.slaves if n.alive and n.node_id not in locs
        ]
        view = nn.new_holders(bid)
        assert [view[k] for k in range(len(view))] == oracle
        if oracle:
            drawn, expected = random.Random(seed + bid), random.Random(seed + bid)
            assert [drawn.choice(view) for _ in range(3)] == [
                expected.choice(oracle) for _ in range(3)
            ]
            assert drawn.getstate() == expected.getstate()


# ---------------------------------------------------------------------------
# rack-sharded replica indexes
# ---------------------------------------------------------------------------


def _assert_replica_indexes_consistent(nn: NameNode) -> None:
    """Every derived index equals its recomputation from the membership."""
    rack_of = nn._rack_of
    blocks_on: dict = {}
    for bid, locs in nn._locations.items():
        assert nn._locs_by_id[bid] is locs
        assert dict(locs.rack_counts) == dict(
            Counter(rack_of[n] for n in locs)
        )
        for n in locs:
            blocks_on.setdefault(n, set()).add(bid)
        assert nn.replica_count(bid) == len(locs)
    assert {n: s for n, s in nn._blocks_on.items() if s} == blocks_on


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_replica_indexes_survive_random_mutations(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    n_nodes = data.draw(st.integers(3, 24))
    cluster = Cluster(scale_spec(n_nodes), RandomStreams(seed))
    nn = NameNode(cluster)
    for f in range(data.draw(st.integers(1, 3))):
        nn.create_file(
            f"f{f}",
            data.draw(st.integers(1, 4)) * DEFAULT_BLOCK_SIZE,
            replication=data.draw(st.integers(1, 3)),
        )
    block_ids = sorted(nn.blocks)
    slave_ids = cluster.slave_ids
    # direct location pokes, the way landed copies and Scarlett's aging
    # mutate the map, plus the occasional whole-node failure
    for _ in range(data.draw(st.integers(0, 40))):
        op = data.draw(
            st.sampled_from(["add", "add", "discard", "fail"])
        )
        if op == "fail":
            nn.fail_node(data.draw(st.sampled_from(slave_ids)))
            continue
        locs = nn.locations(data.draw(st.sampled_from(block_ids)))
        node = data.draw(st.sampled_from(slave_ids))
        if op == "add":
            locs.add(node)
        else:
            locs.discard(node)
    _assert_replica_indexes_consistent(nn)

    # the pickle round-trip drops the derived indexes and rebuilds them
    restored = pickle.loads(pickle.dumps(nn))
    assert {
        bid: list(locs) for bid, locs in restored._locations.items()
    } == {bid: list(locs) for bid, locs in nn._locations.items()}
    _assert_replica_indexes_consistent(restored)


# ---------------------------------------------------------------------------
# array-backed slot store
# ---------------------------------------------------------------------------


@given(st.data())
def test_slot_store_matches_dict_reference(data):
    n_nodes = data.draw(st.integers(1, 40))
    caps = [
        (data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
        for _ in range(n_nodes)
    ]
    store = SlotStore([m for m, _ in caps], [r for _, r in caps])
    # free_map, free_reduce, cap_map, cap_reduce
    ref = {nid: [m, r, m, r] for nid, (m, r) in enumerate(caps)}
    for _ in range(data.draw(st.integers(0, 60))):
        nid = data.draw(st.integers(0, n_nodes - 1))
        kind = data.draw(st.sampled_from(["map", "reduce"]))
        idx = 0 if kind == "map" else 1
        free = ref[nid][idx]
        cap = ref[nid][idx + 2]
        if data.draw(st.booleans()) and free > 0:  # occupy
            ref[nid][idx] -= 1
            if kind == "map":
                store.free_map[nid] -= 1
            else:
                store.free_reduce[nid] -= 1
        elif free < cap:  # release
            ref[nid][idx] += 1
            if kind == "map":
                store.free_map[nid] += 1
            else:
                store.free_reduce[nid] += 1
    for nid in range(n_nodes):
        assert store.free_map[nid] == ref[nid][0]
        assert store.free_reduce[nid] == ref[nid][1]
        assert store.cap_map[nid] == ref[nid][2]
        assert store.cap_reduce[nid] == ref[nid][3]
        assert store.all_free(nid) == (
            ref[nid][0] == ref[nid][2] and ref[nid][1] == ref[nid][3]
        )
