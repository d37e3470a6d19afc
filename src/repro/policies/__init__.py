"""Replication-policy protocol, learned policies, and the rollout engine.

This package formalizes the per-node replica-management protocol the DARE
baselines (:mod:`repro.core.greedy`, :mod:`repro.core.elephant_trap`)
implement implicitly, and adds two policies the paper does not have:

* :class:`~repro.policies.learned.LearnedPolicy` — an offline-trained
  logistic scorer over per-block access/locality/budget features, fit by
  ``repro train`` against the JSONL trace corpus the sweeps produce;
* rollout-greedy (:mod:`repro.policies.rollout`) — a one-step lookahead
  driver that forks the live simulation via :mod:`repro.checkpoint` at
  each decision epoch, scores candidate replications by downstream
  data-locality and makespan, and applies only strict improvements.

See ``docs/POLICIES.md`` for the policy protocol and the training loop.
"""

from repro.policies.base import ReplicationPolicy

__all__ = ["ReplicationPolicy"]
