"""Dependency posets over QBF variables.

A dependency poset is a reflexive, antisymmetric, transitive relation
that is consistent with the quantifier prefix: ``u`` may precede ``v``
only if ``u == v`` or ``u`` is quantified in a strictly earlier block.
The poset stores, for each variable ``v``, the set ``strict(v)`` of the
variables other than ``v`` that precede it; ``dep(v)`` adds ``v``
itself.  Leaving ``v`` out of its own set lets variables share one set:
the trivial poset stores one predecessor set per quantifier block, so it
costs O(n) memory on a prefix with a fixed number of blocks, not one
O(n) set per variable.  The engine reads only the stored sets, through
membership tests and C-level set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .formulas import Prefix


@dataclass(frozen=True)
class PosetViolation:
    rule: str  # reflexivity | antisymmetry | transitivity | prefix | universe
    subject: str
    message: str


@dataclass(frozen=True)
class PosetReport:
    violations: Tuple[PosetViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class DependencyPoset:
    """Immutable dependence relation, queried through predecessor sets."""

    def __init__(self, universe: Iterable[int], dep_map: Mapping[int, Iterable[int]]):
        # The relation is stored as given, split into the strict sets and
        # the variables whose set lacks them; factories produce valid
        # posets and validate_poset reports axiom violations of raw input.
        self._universe = frozenset(universe)
        strict: Dict[int, FrozenSet[int]] = {}
        irreflexive = set()
        for v in self._universe:
            preceding = frozenset(dep_map.get(v, ()))
            if v in preceding:
                preceding = preceding - {v}
            else:
                irreflexive.add(v)
            strict[v] = preceding
        self._strict = strict
        self._irreflexive = frozenset(irreflexive)

    @classmethod
    def _of(
        cls, universe: FrozenSet[int], strict: Dict[int, FrozenSet[int]]
    ) -> "DependencyPoset":
        """Trusted constructor for a reflexive relation: the strict sets,
        which lack their own variable, are kept as given and may be shared."""
        poset = cls.__new__(cls)
        poset._universe = universe
        poset._strict = strict
        poset._irreflexive = frozenset()
        return poset

    @property
    def universe(self) -> FrozenSet[int]:
        return self._universe

    def strict(self, v: int) -> FrozenSet[int]:
        """The stored set {v' | v' != v and v' precedes v}, not a copy."""
        try:
            return self._strict[v]
        except KeyError:
            raise KeyError(f"variable {v} is not in the poset universe") from None

    def dep(self, v: int) -> FrozenSet[int]:
        """The set {v' | v' precedes v}, containing v unless the relation
        given to the constructor lacked the pair (v, v).  Built per call."""
        strict = self.strict(v)
        return strict if v in self._irreflexive else strict | {v}

    def dependents_strict(self, u: int, within: Iterable[int]) -> FrozenSet[int]:
        """The w in ``within`` with w != u and u in dep(w).

        Costs O(|within|); members of ``within`` outside the universe are
        skipped.  Raises KeyError if u is outside the universe.
        """
        if u not in self._universe:
            raise KeyError(f"variable {u} is not in the poset universe")
        strict = self._strict
        return frozenset(w for w in within if u in strict.get(w, ()))

    def strict_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (u, v) with u != v and u preceding v, sorted."""
        return tuple(sorted((u, v) for v, preceding in self._strict.items() for u in preceding))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyPoset):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._irreflexive == other._irreflexive
            and self._strict == other._strict
        )

    def __repr__(self) -> str:
        pairs = sum(map(len, self._strict.values()))
        return f"DependencyPoset(|universe|={len(self._universe)}, pairs={pairs})"


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
    return DependencyPoset._of(prefix.variables, strict)


def poset_from_pairs(
    universe: Iterable[int], pairs: Iterable[Tuple[int, int]]
) -> DependencyPoset:
    """Reflexive-transitive closure of generator pairs (u, v) meaning u precedes v."""
    universe = frozenset(universe)
    dep: Dict[int, set] = {v: {v} for v in universe}
    for u, v in pairs:
        if u not in universe or v not in universe:
            raise KeyError(f"pair ({u}, {v}) mentions a variable outside the universe")
        dep[v].add(u)
    # Closure by iterating to a fixpoint; universes here are small.
    changed = True
    while changed:
        changed = False
        for v in universe:
            extra = set()
            for u in dep[v]:
                extra |= dep[u]
            if not extra <= dep[v]:
                dep[v] |= extra
                changed = True
    return DependencyPoset(universe, dep)


def validate_poset(poset: DependencyPoset, prefix: Prefix) -> PosetReport:
    """Check reflexivity, antisymmetry, transitivity and prefix-consistency.

    Violations are report entries, never exceptions.
    """
    violations: List[PosetViolation] = []
    universe = poset.universe
    if universe != prefix.variables:
        missing = sorted(prefix.variables - universe)
        extra = sorted(universe - prefix.variables)
        violations.append(
            PosetViolation(
                "universe",
                "-",
                f"universe mismatch with prefix (missing {missing}, extra {extra})",
            )
        )
    for v in sorted(poset._irreflexive):
        violations.append(
            PosetViolation("reflexivity", str(v), f"{v} does not precede itself")
        )
    for v in sorted(universe):
        before_v = poset.strict(v)
        for u in sorted(before_v):
            before_u = poset.strict(u)
            if v in before_u:
                if u < v:  # report each offending pair once
                    violations.append(
                        PosetViolation(
                            "antisymmetry", f"{u},{v}", f"{u} and {v} precede each other"
                        )
                    )
                continue
            if u in prefix.variables and v in prefix.variables:
                if prefix.block_index(u) >= prefix.block_index(v):
                    violations.append(
                        PosetViolation(
                            "prefix",
                            f"{u},{v}",
                            f"{u} precedes {v} but is not quantified strictly left of it",
                        )
                    )
            # u precedes v and v does not precede u, so dep(u) <= dep(v)
            # exactly when strict(u) <= strict(v).
            if not before_u <= before_v:
                witnesses = sorted(before_u - before_v)
                violations.append(
                    PosetViolation(
                        "transitivity",
                        f"{u},{v}",
                        f"dep({u}) not contained in dep({v}): missing {witnesses}",
                    )
                )
    return PosetReport(tuple(violations))
