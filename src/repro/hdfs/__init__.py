"""HDFS substrate: a metadata-faithful model of the Hadoop file system.

Modeled components (HDFS terminology, as the paper uses it):

* **blocks** — fixed-size units of file data (128 MB default), each
  replicated on a configurable number of DataNodes;
* **INodes / files** — a file is an ordered list of blocks; INodes carry a
  back-pointer from block to owning file (the paper's modification, needed
  so eviction never victimizes a block of the same file being inserted);
* **DataNode** — per-node block storage with dynamic-replica budget
  accounting and disk-write counters;
* **NameNode** — the metadata master: block -> locations map, file
  namespace, replica bookkeeping, and the heartbeat-carried control plane
  (including the ``DNA_DYNREPL`` analogue by which DARE-created replicas
  become visible to the scheduler);
* **placement** — the default Hadoop placement policy used for the initial
  (static) replicas;
* **BlockCopier** — the throttled replication stream through which
  Scarlett, CDRM and re-replication copy blocks over the network.
"""

from repro.hdfs.block import Block, DEFAULT_BLOCK_SIZE
from repro.hdfs.inode import INode
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import DefaultPlacementPolicy
from repro.hdfs.protocol import DatanodeCommand, DNA_DYNREPL, DNA_INVALIDATE

__all__ = [
    "Block",
    "DEFAULT_BLOCK_SIZE",
    "INode",
    "DataNode",
    "NameNode",
    "DefaultPlacementPolicy",
    "DatanodeCommand",
    "DNA_DYNREPL",
    "DNA_INVALIDATE",
]
