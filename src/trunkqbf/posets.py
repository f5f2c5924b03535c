"""Dependency posets over QBF variables.

A dependency poset is a reflexive, antisymmetric, transitive relation
that is consistent with the quantifier prefix: ``u`` may precede ``v``
only if ``u == v`` or ``u`` is quantified in a strictly earlier block.
Its two builders, ``trivial_poset`` and ``poset_from_pairs``, produce
only such relations, checking each pair once, and record the prefix
they were given: a ``DependencyPoset`` is a poset for its ``prefix``,
and ``validate_input`` checks only that this is the instance's prefix.

The poset stores, for each variable ``v``, the set ``strict(v)`` of the
variables other than ``v`` that precede it; ``dep(v)`` adds ``v``
itself.  Leaving ``v`` out of its own set lets variables share one set:
both builders store equal sets once, so the trivial poset costs one
predecessor set per quantifier block, O(n) memory on a prefix with a
fixed number of blocks, not one O(n) set per variable.  The engine reads
only the stored sets, through membership tests and C-level set
operations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from .formulas import Prefix


class DependencyPoset:
    """Immutable dependence relation, queried through predecessor sets."""

    def __init__(self) -> None:
        raise TypeError("build a DependencyPoset with trivial_poset or poset_from_pairs")

    @classmethod
    def _of(cls, prefix: Prefix, strict: Dict[int, FrozenSet[int]]) -> "DependencyPoset":
        """Trusted constructor, called only by the builders below with the
        prefix they were given and one strict set per variable of it, kept
        as given: it lacks its own variable and may be shared."""
        poset = cls.__new__(cls)
        poset._prefix = prefix
        poset._strict = strict
        return poset

    @property
    def prefix(self) -> Prefix:
        return self._prefix

    def strict(self, v: int) -> FrozenSet[int]:
        """The stored set {v' | v' != v and v' precedes v}, not a copy."""
        try:
            return self._strict[v]
        except KeyError:
            raise KeyError(f"variable {v} is not in the poset universe") from None

    def dep(self, v: int) -> FrozenSet[int]:
        """The set {v' | v' precedes v}, v included.  Built per call."""
        return self.strict(v) | {v}

    def dependents_strict(self, u: int, within: Iterable[int]) -> FrozenSet[int]:
        """The w in ``within`` with w != u and u in dep(w).

        Costs O(|within|); members of ``within`` outside the universe are
        skipped.  Raises KeyError if u is outside the universe.
        """
        if u not in self._strict:
            raise KeyError(f"variable {u} is not in the poset universe")
        strict = self._strict
        return frozenset(w for w in within if u in strict.get(w, ()))

    def strict_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (u, v) with u != v and u preceding v, sorted."""
        return tuple(sorted((u, v) for v, preceding in self._strict.items() for u in preceding))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyPoset):
            return NotImplemented
        return self._prefix == other._prefix and self._strict == other._strict

    def __repr__(self) -> str:
        pairs = sum(map(len, self._strict.values()))
        return f"DependencyPoset(|universe|={len(self._strict)}, pairs={pairs})"


def trivial_poset(prefix: Prefix) -> DependencyPoset:
    """The full prefix order: u precedes v iff u's block is strictly earlier.

    Every variable of a block shares one stored set, the variables of
    the blocks before it.
    """
    strict: Dict[int, FrozenSet[int]] = {}
    earlier: FrozenSet[int] = frozenset()
    for _, block_vars in prefix.blocks:
        strict.update(dict.fromkeys(block_vars, earlier))
        earlier = earlier.union(block_vars)
    return DependencyPoset._of(prefix, strict)


def check_pair(prefix: Prefix, u: int, v: int) -> None:
    """Raise ValueError unless (u, v) may be a pair of a poset for the
    prefix: both are quantified and u == v or u's block is strictly
    earlier than v's."""
    for w in (u, v):
        if w not in prefix.variables:
            raise ValueError(f"variable {w} is not quantified")
    if u != v and prefix.block_index(u) >= prefix.block_index(v):
        raise ValueError(
            f"pair ({u}, {v}) is not prefix-consistent: "
            f"{u} is not quantified strictly left of {v}"
        )


def poset_from_pairs(prefix: Prefix, pairs: Iterable[Tuple[int, int]]) -> DependencyPoset:
    """The reflexive-transitive closure of generator pairs (u, v), each
    meaning u precedes v; every pair must pass ``check_pair``."""
    pairs = list(pairs)
    for u, v in pairs:
        check_pair(prefix, u, v)
    return _closure(prefix, pairs)


def _closure(prefix: Prefix, pairs: Iterable[Tuple[int, int]]) -> DependencyPoset:
    """The closure of pairs that passed ``check_pair`` for the prefix, in
    one pass over the prefix: strict(v) is the union of {u} | strict(u)
    over v's generators u.  Each u is quantified in an earlier block, so
    its set is final when v's is built, and the result is antisymmetric
    and consistent with the prefix.  Equal sets are stored once."""
    generators: Dict[int, Set[int]] = {}
    for u, v in pairs:
        if u != v:
            generators.setdefault(v, set()).add(u)
    strict: Dict[int, FrozenSet[int]] = {}
    stored: Dict[FrozenSet[int], FrozenSet[int]] = {}
    for v in prefix.variables_in_order():
        preceding: Set[int] = set()
        for u in generators.get(v, ()):
            preceding.add(u)
            preceding |= strict[u]
        closed = frozenset(preceding)
        strict[v] = stored.setdefault(closed, closed)
    return DependencyPoset._of(prefix, strict)
