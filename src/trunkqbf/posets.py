"""Dependency posets over QBF variables.

A dependency poset is a reflexive, antisymmetric, transitive relation
that is consistent with the quantifier prefix: ``u`` may precede ``v``
only if ``u == v`` or ``u`` is quantified in a strictly earlier block.
The poset stores, for each variable ``v``, the set ``dep(v)`` of
variables ``v`` depends on (always including ``v`` itself).
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
        # The relation is stored exactly as given; factories produce valid
        # posets and validate_poset reports axiom violations of raw input.
        # frozenset() returns a frozenset argument itself, without a copy.
        self._universe = frozenset(universe)
        dep: Dict[int, FrozenSet[int]] = {}
        for v in self._universe:
            dep[v] = frozenset(dep_map.get(v, ()))
        self._dep = dep

    @property
    def universe(self) -> FrozenSet[int]:
        return self._universe

    def dep(self, v: int) -> FrozenSet[int]:
        """The set {v' | v' precedes v}, always containing v."""
        try:
            return self._dep[v]
        except KeyError:
            raise KeyError(f"variable {v} is not in the poset universe") from None

    def dependents_strict(self, u: int, within: Iterable[int]) -> FrozenSet[int]:
        """The w in ``within`` with w != u and u in dep(w).

        Costs O(|within|); members of ``within`` outside the universe are
        skipped.  Raises KeyError if u is outside the universe.
        """
        if u not in self._universe:
            raise KeyError(f"variable {u} is not in the poset universe")
        dep = self._dep
        return frozenset(w for w in within if w != u and u in dep.get(w, ()))

    def strict_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (u, v) with u != v and u preceding v, sorted."""
        return tuple(
            sorted((u, v) for v in self._universe for u in self._dep[v] if u != v)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyPoset):
            return NotImplemented
        return self._universe == other._universe and self._dep == other._dep

    def __repr__(self) -> str:
        pairs = sum(len(d) - (v in d) for v, d in self._dep.items())
        return f"DependencyPoset(|universe|={len(self._universe)}, pairs={pairs})"


def trivial_poset(prefix: Prefix) -> DependencyPoset:
    """The full prefix order: u precedes v iff u's block is strictly earlier."""
    # One frozen copy per variable: the poset keeps these sets as given.
    dep: Dict[int, FrozenSet[int]] = {}
    earlier: FrozenSet[int] = frozenset()
    for _, block_vars in prefix.blocks:
        for v in block_vars:
            dep[v] = earlier | {v}
        earlier = earlier.union(block_vars)
    return DependencyPoset(prefix.variables, dep)


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
    for v in sorted(universe):
        if v not in poset.dep(v):
            violations.append(
                PosetViolation("reflexivity", str(v), f"{v} does not precede itself")
            )
    for v in sorted(universe):
        for u in sorted(poset.dep(v)):
            if u == v:
                continue
            if v in poset.dep(u):
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
            if not poset.dep(u) <= poset.dep(v):
                witnesses = sorted(poset.dep(u) - poset.dep(v))
                violations.append(
                    PosetViolation(
                        "transitivity",
                        f"{u},{v}",
                        f"dep({u}) not contained in dep({v}): missing {witnesses}",
                    )
                )
    return PosetReport(tuple(violations))
