"""Replica-placement uniformity (Fig. 11).

Section V-A: "we assign a popularity value to each file based on its access
count for each workload.  We calculate the popularity index (PI) of data
node i as sum_j blockSize_j * blockPopularity_j, for every block j in i...
As a measure of the uniformity of this distribution, we use the coefficient
of variation (cv = sigma / |mu|)."
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable

import numpy as np

from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import JobSpec


def file_access_counts(specs: Iterable[JobSpec]) -> Counter:
    """Access count per file name for a workload trace."""
    return Counter(spec.input_file for spec in specs)


def popularity_indices(
    namenode: NameNode, access_counts: Dict[str, int]
) -> np.ndarray:
    """PI of every slave node, ordered by node id.

    Block popularity is the owning file's access count; blocks of files the
    workload never reads contribute zero, matching the paper's
    workload-specific popularity assignment.  A slave without a DataNode
    stores nothing: its PI is zero, and it still counts in the cv.
    """
    # each block's term, so the walk over stored replicas is one lookup each
    weight = {
        block.block_id: block.size_bytes * access_counts.get(name, 0)
        for name, inode in namenode.files.items()
        for block in inode.blocks
    }
    # slaves are nodes 1..n-1, so slave i's entry is index i - 1
    pis = np.zeros(namenode.cluster.n_slaves)
    for node_id, dn in namenode.datanodes.items():
        pi = 0.0
        for bid in dn.stored_block_ids():
            pi += weight[bid]
        pis[node_id - 1] = pi
    return pis


def coefficient_of_variation(values: np.ndarray) -> float:
    """cv = sigma / |mu|; smaller means more uniform."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty distribution")
    mu = values.mean()
    if mu == 0:
        raise ValueError("zero-mean distribution has undefined cv")
    return float(values.std() / abs(mu))
