"""Insertion-ordered set with pickle-stable iteration order.

Builtin ``set`` iteration order depends on element hashes *and* on the
insertion/deletion history of the exact set object; it is not preserved
across a pickle round-trip.  That is fatal for checkpoint/restore
(:mod:`repro.checkpoint`): any ``rng.choice(list(s))`` or first-match scan
downstream of a restored set must see the same ordering a cold run saw,
or the restored run silently diverges.

``OrderedSet`` is a ``dict`` with ``None`` values wearing a set API.
Membership, length, and iteration run at C speed through the dict, and
iteration order is insertion order — which a pickle round-trip preserves
exactly (dict subclasses are restored item by item, in order).
"""

from __future__ import annotations

from typing import Dict, Iterable, TypeVar

T = TypeVar("T")


class OrderedSet(Dict[T, None]):
    """A set whose iteration order is insertion order, pickle-stable."""

    __slots__ = ()

    def __init__(self, iterable: Iterable[T] = ()) -> None:
        dict.__init__(self, dict.fromkeys(iterable))

    # -- set mutations -------------------------------------------------------

    def add(self, item: T) -> None:
        """Insert ``item`` (appends to the order when new)."""
        dict.__setitem__(self, item, None)

    def discard(self, item: T) -> None:
        """Remove ``item`` if present."""
        dict.pop(self, item, None)

    def remove(self, item: T) -> None:
        """Remove ``item``; KeyError when absent."""
        del self[item]

    # -- set queries ---------------------------------------------------------

    def isdisjoint(self, other: Iterable[T]) -> bool:
        """True when no element is shared with ``other``."""
        return self.keys().isdisjoint(other)

    def __sub__(self, other: Iterable[T]) -> "OrderedSet[T]":
        excluded = other if isinstance(other, (set, frozenset, dict)) else set(other)
        return OrderedSet(k for k in self if k not in excluded)

    def __rsub__(self, other: Iterable[T]) -> "OrderedSet[T]":
        return OrderedSet(k for k in other if k not in self)

    def __eq__(self, other: object) -> bool:
        # set semantics: equality ignores order, and compares equal to
        # builtin sets with the same elements
        if isinstance(other, (set, frozenset)):
            return len(self) == len(other) and all(k in other for k in self)
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"OrderedSet({list(self)!r})"
