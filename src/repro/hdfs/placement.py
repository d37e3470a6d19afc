"""Initial (static) replica placement.

``DefaultPlacementPolicy`` mirrors Hadoop's rack-aware default: first replica
on the writer's node (or a random node for files loaded from outside the
cluster), second on a node in a different rack, third on a different node in
the same rack as the second, and any further replicas on random nodes.  On a
single-rack cluster (CCT) this degenerates to distinct random nodes, which is
Hadoop's actual behaviour there too.

Draws are order statistics over rack shards: instead of materialising an
O(N) candidate list per replica (ruinous at 10k-100k nodes), the policy
draws ``randrange(n_candidates)`` and resolves the k-th eligible node with
a bisect over per-rack sorted id arrays.  ``random.Random.choice(seq)`` and
``randrange(len(seq))`` consume the identical underlying ``_randbelow``
stream, so placements are byte-identical to the candidate-list
implementation — ``tests/test_properties_scale.py`` holds this property
against a candidate-list oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cluster.topology import Topology


def _kth_excluding(ids: List[int], skip_sorted: List[int], k: int) -> int:
    """The ``k``-th element of ascending ``ids`` after removing ``skip_sorted``.

    Each skip value at or before the running answer shifts it one slot
    right; skip values past it cannot affect the answer.  O(|skip| log N).
    """
    idx = k
    for s in skip_sorted:
        pos = bisect_left(ids, s)
        if pos < len(ids) and ids[pos] == s:
            if pos <= idx:
                idx += 1
            else:
                break
    return ids[idx]


class Excluding:
    """Ascending ``ids`` minus ``skip`` (a subset of them), built on demand.

    Item ``k`` is resolved by :func:`_kth_excluding`.  On CPython
    3.10-3.12 ``random.Random.choice(seq)`` is
    ``seq[self._randbelow(len(seq))]``, so a choice over this draws the
    same id, and leaves the generator in the same state, as a choice over
    the materialized list, without walking every id.  (The placement
    draws below, ~3 per block at set-up, skip the object and its calls.)
    """

    __slots__ = ("ids", "skip")

    def __init__(self, ids: Sequence[int], skip: Iterable[int]) -> None:
        self.ids = ids
        self.skip = sorted(skip)

    def __len__(self) -> int:
        return len(self.ids) - len(self.skip)

    def __getitem__(self, k: int) -> int:
        return _kth_excluding(self.ids, self.skip, k)


class DefaultPlacementPolicy:
    """Hadoop's default rack-aware placement."""

    def __init__(
        self,
        slave_ids: Sequence[int],
        rack_ids: Dict[int, List[int]],
        topology: Topology,
        rng: random.Random,
    ) -> None:
        """``rack_ids`` groups ``slave_ids`` by rack, each list ascending
        (:attr:`~repro.cluster.cluster.Cluster.slaves_by_rack`); it is
        kept by reference."""
        if not slave_ids:
            raise ValueError("no slave nodes to place replicas on")
        # the order-statistic draws index ascending id lists
        self.slave_ids = sorted(slave_ids)
        self.topology = topology
        self._rng = rng
        self._id_set = frozenset(self.slave_ids)
        self._rack_ids = rack_ids

    def _random_slave(self, exclude: set) -> Optional[int]:
        ex = [n for n in exclude if n in self._id_set]
        n_cand = len(self.slave_ids) - len(ex)
        if n_cand <= 0:
            return None
        k = self._rng.randrange(n_cand)
        return _kth_excluding(self.slave_ids, sorted(ex), k)

    def _random_slave_in_rack(self, rack: int, exclude: set) -> Optional[int]:
        rack_ids = self._rack_ids.get(rack, [])
        rack_of = self.topology.rack_of
        ex = [
            n for n in exclude if n in self._id_set and int(rack_of[n]) == rack
        ]
        n_cand = len(rack_ids) - len(ex)
        if n_cand <= 0:
            return None
        k = self._rng.randrange(n_cand)
        return _kth_excluding(rack_ids, sorted(ex), k)

    def _random_slave_off_rack(self, rack: int, exclude: set) -> Optional[int]:
        rack_ids = self._rack_ids.get(rack, [])
        skip = {n for n in exclude if n in self._id_set}
        skip.update(rack_ids)
        n_cand = len(self.slave_ids) - len(skip)
        if n_cand <= 0:
            return None
        k = self._rng.randrange(n_cand)
        return _kth_excluding(self.slave_ids, sorted(skip), k)

    def choose_targets(
        self,
        n_replicas: int,
        writer: Optional[int] = None,
    ) -> List[int]:
        """Pick replica target nodes per the default policy."""
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        n_replicas = min(n_replicas, len(self.slave_ids))
        chosen: List[int] = []
        used: set = set()

        # replica 1: writer node if it is a slave, else random
        first = writer if writer in self._id_set else self._random_slave(used)
        chosen.append(first)
        used.add(first)
        if len(chosen) == n_replicas:
            return chosen

        # replica 2: different rack if one exists
        rack1 = int(self.topology.rack_of[first])
        second = self._random_slave_off_rack(rack1, used)
        if second is None:
            second = self._random_slave(used)
        if second is not None:
            chosen.append(second)
            used.add(second)
        if len(chosen) >= n_replicas:
            return chosen[:n_replicas]

        # replica 3: same rack as replica 2
        rack2 = int(self.topology.rack_of[chosen[-1]])
        third = self._random_slave_in_rack(rack2, used)
        if third is None:
            third = self._random_slave(used)
        if third is not None:
            chosen.append(third)
            used.add(third)

        # replicas 4+: random remaining nodes
        while len(chosen) < n_replicas:
            nxt = self._random_slave(used)
            if nxt is None:
                break
            chosen.append(nxt)
            used.add(nxt)
        return chosen
