"""Rack / switch topology and hop-count model.

Two topology families are modeled:

* ``DEDICATED`` — an in-house cluster where a user's nodes land on one or two
  adjacent racks; all node pairs are 1–2 hops apart (Section II-B: "in an
  in-house data center of that size all nodes would have been 1 or 2 hops
  apart").

* ``VIRTUALIZED`` — an IaaS allocation that scatters nodes over many racks
  under several aggregation switches.  Traceroute-style hop counts between
  two VMs are derived from the switch path (same rack < same aggregation <
  cross aggregation) plus an overlay detour that virtualization sometimes
  introduces.  With the default parameters the hop histogram for a 20-node
  allocation peaks at 4 hops, matching Figure 1.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: topology family tags
DEDICATED = "dedicated"
VIRTUALIZED = "virtualized"

# structural hop counts for the virtualized family
_HOPS_SAME_RACK = 2
_HOPS_SAME_AGG = 4
_HOPS_CROSS_AGG = 6


class Topology:
    """Maps nodes to racks and node pairs to hop counts.

    Parameters
    ----------
    family:
        ``DEDICATED`` or ``VIRTUALIZED``.
    n_nodes:
        Total number of machines (master included).
    rng:
        NumPy generator used for rack placement and overlay jitter.
    racks_per_agg:
        Virtualized only — racks attached to one aggregation switch.
    nodes_per_rack_mean:
        Virtualized only — mean VMs-per-rack for this tenant's allocation.
        Small values scatter the allocation widely (the EC2 behaviour the
        paper observed).
    """

    def __init__(
        self,
        family: str,
        n_nodes: int,
        rng: np.random.Generator,
        racks_per_agg: int = 4,
        nodes_per_rack_mean: float = 2.0,
        dedicated_racks: int = 1,
    ) -> None:
        if family not in (DEDICATED, VIRTUALIZED):
            raise ValueError(f"unknown topology family {family!r}")
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.family = family
        self.n_nodes = n_nodes
        self.racks_per_agg = racks_per_agg

        if family == DEDICATED:
            # the CCT testbed is single-rack; in-house multi-rack clusters
            # (for the oversubscription ablation) stripe nodes round-robin
            if dedicated_racks < 1:
                raise ValueError("need at least one rack")
            self.rack_of = np.arange(n_nodes, dtype=np.int64) % dedicated_racks
            self.agg_of_rack = {r: 0 for r in range(dedicated_racks)}
        else:
            self.rack_of = self._scatter_racks(n_nodes, rng, nodes_per_rack_mean)
            n_racks = int(self.rack_of.max()) + 1
            # racks are assigned to aggregation switches contiguously; the
            # provider's rack ids are effectively arbitrary w.r.t. the tenant
            self.agg_of_rack = {r: r // racks_per_agg for r in range(n_racks)}

        # per-pair overlay detour (virtualized only): some VM pairs route
        # through an extra overlay/virtual-switch hop or two, and a few pairs
        # take a shortcut.  Sampled once — paths are stable per allocation.
        if family == VIRTUALIZED:
            self._detour = rng.choice(
                [-1, 0, 1, 2], size=(n_nodes, n_nodes), p=[0.10, 0.55, 0.25, 0.10]
            )
            self._detour = np.triu(self._detour, 1)
            self._detour = self._detour + self._detour.T
        else:
            self._detour = None

        # lazily-built per-node rack-membership index (see rack_members):
        # rack_of is immutable after construction, so one build suffices
        self._rack_members: List[frozenset] = []

    @staticmethod
    def _scatter_racks(
        n_nodes: int, rng: np.random.Generator, nodes_per_rack_mean: float
    ) -> np.ndarray:
        """Assign nodes to racks with a small mean occupancy per rack."""
        racks: List[int] = []
        rack = 0
        placed = 0
        while placed < n_nodes:
            # occupancy >= 1, geometric-ish around the mean
            occ = 1 + rng.poisson(max(0.0, nodes_per_rack_mean - 1.0))
            for _ in range(int(occ)):
                if placed >= n_nodes:
                    break
                racks.append(rack)
                placed += 1
            rack += 1
        arr = np.asarray(racks, dtype=np.int64)
        # shuffle node->rack mapping so node ids carry no locality info
        rng.shuffle(arr)
        return arr

    # -- queries ----------------------------------------------------------

    @property
    def n_racks(self) -> int:
        """Number of distinct racks used by this allocation."""
        return int(self.rack_of.max()) + 1

    def hops(self, a: int, b: int) -> int:
        """Traceroute-style hop count between nodes ``a`` and ``b``."""
        if a == b:
            return 0
        if self.family == DEDICATED:
            return 1 if self.rack_of[a] == self.rack_of[b] else 2
        ra, rb = int(self.rack_of[a]), int(self.rack_of[b])
        if ra == rb:
            base = _HOPS_SAME_RACK
        elif self.agg_of_rack[ra] == self.agg_of_rack[rb]:
            base = _HOPS_SAME_AGG
        else:
            base = _HOPS_CROSS_AGG
        return max(1, base + int(self._detour[a, b]))

    def hop_matrix(self) -> np.ndarray:
        """Full symmetric matrix of hop counts (diagonal zero)."""
        n = self.n_nodes
        out = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(a + 1, n):
                h = self.hops(a, b)
                out[a, b] = h
                out[b, a] = h
        return out

    def hop_histogram(self, max_hops: int = 10) -> np.ndarray:
        """Proportion of node pairs at each hop count 0..max_hops (Fig. 1)."""
        mat = self.hop_matrix()
        iu = np.triu_indices(self.n_nodes, 1)
        vals = mat[iu]
        hist = np.bincount(np.clip(vals, 0, max_hops), minlength=max_hops + 1)
        return hist / max(1, vals.size)

    def rack_members(self, node_id: int) -> frozenset:
        """Nodes sharing ``node_id``'s rack, as a cached frozenset.

        This is the locality-scan index: schedulers test replica sets
        against it with ``set.isdisjoint``, which is much cheaper than
        comparing ``rack_of`` entries (NumPy scalars) per replica holder.
        """
        members = self._rack_members
        if not members:
            by_rack: Dict[int, List[int]] = {}
            for node, rack in enumerate(self.rack_of.tolist()):
                by_rack.setdefault(rack, []).append(node)
            sets = {rack: frozenset(nodes) for rack, nodes in by_rack.items()}
            members.extend(sets[rack] for rack in self.rack_of.tolist())
        return members[node_id]
