"""Initial (static) replica placement.

``DefaultPlacementPolicy`` mirrors Hadoop's rack-aware default: first replica
on the writer's node (or a random node for files loaded from outside the
cluster), second on a node in a different rack, third on a different node in
the same rack as the second, and any further replicas on random nodes.  On a
single-rack cluster (CCT) this degenerates to distinct random nodes, which is
Hadoop's actual behaviour there too.

Draws are order statistics over rack shards: instead of materialising an
O(N) candidate list per replica (ruinous at 10k-100k nodes), the policy
draws an index below the candidate count and resolves the k-th eligible
node with a bisect over ascending id lists: the slave list minus the
first replica's rack for the off-rack second replica, the second's rack
for the third.  Each index comes from the generator's ``_randbelow(n)``,
the call that both ``randrange(n)`` and ``choice(seq)`` (with
``n = len(seq)``) make on CPython 3.10-3.12, so placements, and the
generator's state after them, are identical to the candidate-list
implementation: ``tests/test_properties_scale.py`` holds this against a
standalone candidate-list oracle that calls ``choice`` over the
materialised lists.
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


def _holds(ids: List[int], node_id: int) -> bool:
    """True when ascending ``ids`` holds ``node_id`` (one bisect)."""
    pos = bisect_left(ids, node_id)
    return pos < len(ids) and ids[pos] == node_id


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
        self._rack_ids = rack_ids

    def choose_targets(
        self,
        n_replicas: int,
        writer: Optional[int] = None,
    ) -> List[int]:
        """Pick replica target nodes per the default policy."""
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        ids = self.slave_ids
        n = len(ids)
        if n_replicas > n:
            n_replicas = n
        # what randrange(k) calls for k > 0 (see the module docstring)
        randbelow = self._rng._randbelow

        # replica 1: writer node if it is a slave, else random
        if writer is not None and _holds(ids, writer):
            first = writer
        else:
            first = ids[randbelow(n)]
        if n_replicas == 1:
            return [first]

        # replica 2: a node off the first's rack if one exists, else any
        # other node (then every slave shares that rack)
        rack_of = self.topology.rack_of
        rack1 = self._rack_ids[rack_of.item(first)]
        n_off = n - len(rack1)
        if n_off:
            second = _kth_excluding(ids, rack1, randbelow(n_off))
        else:
            second = _kth_excluding(ids, [first], randbelow(n - 1))
        if n_replicas == 2:
            return [first, second]

        # replica 3: another node on the second's rack if one exists; when
        # that rack holds the first too, it holds every slave
        rack2 = self._rack_ids[rack_of.item(second)] if n_off else ()
        if len(rack2) > 1:
            third = _kth_excluding(rack2, [second], randbelow(len(rack2) - 1))
        else:
            pair = [first, second] if first < second else [second, first]
            third = _kth_excluding(ids, pair, randbelow(n - 2))
        chosen = [first, second, third]

        # replicas 4+: random remaining nodes
        while len(chosen) < n_replicas:
            chosen.append(
                _kth_excluding(ids, sorted(chosen), randbelow(n - len(chosen)))
            )
        return chosen
