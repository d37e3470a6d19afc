"""Named registries for replication policies and cluster services.

Two plugin kinds:

* **node policies** — per-node :class:`~repro.policies.base
  .ReplicationPolicy` instances built from a :class:`~repro.policies.base
  .PolicyContext`; the :class:`~repro.core.manager.DareReplicationService`
  resolves ``DareConfig.policy.value`` here (``greedy-lru``,
  ``greedy-lfu``, ``elephant-trap``, ``learned``);
* **services** — cluster-level replication baselines with their own event
  loops (``scarlett``, ``cdrm``), resolved by
  :class:`~repro.experiments.runner.Simulation`.

The built-in factories construct the legacy classes with byte-identical
arguments (same RNG stream names, same parameter order), which
``tests/test_policies.py`` pins down: a run through the registry path is
byte-identical to one through the old inline constructors.

Third-party plugins register with::

    from repro.policies import register_policy

    @register_policy("my-policy")
    def _build(ctx):
        return MyPolicy(ctx.config.budget, ctx.rng("my-policy"))
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.policies.base import PolicyContext, UnknownPolicyError

PolicyFactory = Callable[[PolicyContext], object]

_POLICIES: Dict[str, PolicyFactory] = {}
_SERVICES: Dict[str, Callable[..., object]] = {}


def register_policy(name: str, factory: PolicyFactory = None):
    """Register a node-policy factory under ``name`` (usable as decorator)."""
    def _register(fn: PolicyFactory) -> PolicyFactory:
        if name in _POLICIES:
            raise ValueError(f"policy {name!r} is already registered")
        _POLICIES[name] = fn
        return fn

    return _register if factory is None else _register(factory)


def register_service(name: str, factory: Callable[..., object] = None):
    """Register a cluster-service factory under ``name``."""
    def _register(fn):
        if name in _SERVICES:
            raise ValueError(f"service {name!r} is already registered")
        _SERVICES[name] = fn
        return fn

    return _register if factory is None else _register(factory)


def policy_names() -> Tuple[str, ...]:
    """Registered node-policy names, sorted."""
    return tuple(sorted(_POLICIES))


def service_names() -> Tuple[str, ...]:
    """Registered service names, sorted."""
    return tuple(sorted(_SERVICES))


def policy_factory(name: str) -> PolicyFactory:
    """The node-policy factory registered under ``name``."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown replication policy {name!r} "
            f"(registered: {', '.join(policy_names())})"
        ) from None


def create_policy(name: str, ctx: PolicyContext):
    """Build the node policy registered under ``name``."""
    return policy_factory(name)(ctx)


def create_service(name: str, config, **parts):
    """Build the cluster service registered under ``name``.

    ``parts`` carries the simulation components a service may wire into:
    ``namenode``, ``engine``, ``traffic``, ``rng``, ``stop_when``,
    ``tracer``.  Each factory picks the subset its constructor takes.
    """
    try:
        factory = _SERVICES[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown replication service {name!r} "
            f"(registered: {', '.join(service_names())})"
        ) from None
    return factory(config, **parts)


# -- built-in node policies ---------------------------------------------------


@register_policy("greedy-lru")
def _greedy_lru(ctx: PolicyContext):
    from repro.core.greedy import GreedyLRUPolicy

    return GreedyLRUPolicy()


@register_policy("greedy-lfu")
def _greedy_lfu(ctx: PolicyContext):
    from repro.core.greedy import GreedyLFUPolicy

    return GreedyLFUPolicy()


@register_policy("elephant-trap")
def _elephant_trap(ctx: PolicyContext):
    from repro.core.elephant_trap import ElephantTrapPolicy

    # the historical stream name, predating the registry: byte-parity
    # with the legacy inline constructor requires reusing it verbatim
    return ElephantTrapPolicy(
        ctx.config.p,
        ctx.config.threshold,
        ctx.streams.python(f"dare.coin.{ctx.node_id}"),
    )


@register_policy("learned")
def _learned(ctx: PolicyContext):
    from repro.policies.learned import AccessStats, LearnedPolicy

    stats = ctx.shared.setdefault("access_stats", AccessStats())
    return LearnedPolicy(ctx.config.model, ctx.node_id, ctx.namenode, stats)


# -- built-in services --------------------------------------------------------


@register_service("scarlett")
def _scarlett(config, *, namenode, engine, traffic, rng, stop_when, tracer):
    from repro.baselines.scarlett import ScarlettService

    return ScarlettService(
        config, namenode, engine, traffic, rng, stop_when=stop_when, tracer=tracer
    )


@register_service("cdrm")
def _cdrm(config, *, namenode, engine, traffic, rng, stop_when, tracer):
    from repro.baselines.cdrm import CdrmService

    return CdrmService(config, namenode, engine, traffic, rng, stop_when=stop_when)
