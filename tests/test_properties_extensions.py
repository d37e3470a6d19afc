"""Property-based tests for the extension subsystems (hypothesis)."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.scarlett import ScarlettConfig, ScarlettService
from repro.cluster.cluster import Cluster
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.namenode import NameNode
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from tests.conftest import SMALL_SPEC


def make_namenode(file_blocks):
    cluster = Cluster(SMALL_SPEC, RandomStreams(42))
    nn = NameNode(cluster)
    for i, nb in enumerate(file_blocks):
        nn.create_file(f"f{i}", nb * DEFAULT_BLOCK_SIZE)
    return nn


def make_scarlett(nn, budget):
    return ScarlettService(
        ScarlettConfig(epoch_s=100.0, budget=budget),
        nn,
        Engine(),
        TrafficMeter(),
        random.Random(3),
    )


# ---------------------------------------------------------------------------
# Scarlett water-filling
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=10),
    st.lists(st.integers(0, 50), min_size=2, max_size=10),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_water_fill_respects_budget(file_blocks, counts, budget):
    nn = make_namenode(file_blocks)
    svc = make_scarlett(nn, budget)
    observed = Counter(
        {f"f{i}": c for i, c in enumerate(counts[: len(file_blocks)]) if c > 0}
    )
    extra = svc._water_fill(observed)
    spent = sum(nn.file(name).size_bytes * k for name, k in extra.items())
    assert spent <= svc.budget_bytes()
    # only observed files receive replicas, and never beyond the slave count
    for name, k in extra.items():
        assert observed[name] > 0
        assert nn.file(name).replication + k <= len(nn.cluster.slave_ids)
        assert k >= 1


@given(st.integers(1, 4), st.integers(3, 6), st.integers(1, 100))
@settings(max_examples=40, deadline=None)
def test_water_fill_prefers_hotter_files(blocks_each, n_files, hot_count):
    # equal file sizes: affordability can't override hotness ordering
    nn = make_namenode([blocks_each] * n_files)
    svc = make_scarlett(nn, budget=0.15)
    observed = Counter({"f0": hot_count + 10, "f1": 1})
    extra = svc._water_fill(observed)
    # whenever anything is allocated, the hottest file gets at least as much
    if extra:
        assert extra.get("f0", 0) >= extra.get("f1", 0)


# ---------------------------------------------------------------------------
# TrafficMeter
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(TrafficMeter.CATEGORIES),
            st.integers(0, 10**12),
        ),
        max_size=60,
    )
)
def test_traffic_total_is_sum_of_categories(records):
    m = TrafficMeter()
    for cat, nbytes in records:
        m.record(cat, nbytes)
    assert m.total_bytes == sum(n for _, n in records)
    per_cat = Counter()
    for cat, nbytes in records:
        per_cat[cat] += nbytes
    for cat in TrafficMeter.CATEGORIES:
        assert m.bytes(cat) == per_cat[cat]


# ---------------------------------------------------------------------------
# NameNode failure bookkeeping
# ---------------------------------------------------------------------------


@given(st.integers(1, 7), st.lists(st.integers(1, 5), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_fail_node_leaves_consistent_locations(victim, file_blocks):
    nn = make_namenode(file_blocks)
    lost = nn.fail_node(victim)
    # the victim appears in no location set afterwards
    for bid, locs in nn._locations.items():
        assert victim not in locs
    # reported remaining counts match the map
    for bid, remaining in lost.items():
        assert len(nn.locations(bid)) == remaining
