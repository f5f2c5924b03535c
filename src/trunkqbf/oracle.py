"""Ground-truth brute-force QBF evaluation.

``evaluate`` is the one oracle: it plays the two-player game by
recursion over the prefix, value 0 before value 1 so runs are
reproducible (a prefix deeper than Python's recursion limit exceeds its
budget).  Rule soundness, the poset's property 2 and the engine's
verdicts are all checked against it; property 2 on each linear extension
of the poset, walked directly in lexicographic order.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    Frozen,
    Matrix,
    Prefix,
    QbfInstance,
    restrict,
)
from .posets import DependencyPoset


class BudgetExceededError(ValueError):
    """The input is too large for the oracle: a rejected input, like a
    parse error."""


class OracleBudget(Frozen):
    """The most variables an oracle call may enumerate; a positive ``int``."""

    __slots__ = ("max_variables",)
    max_variables: int

    def __init__(self, max_variables: int = 24) -> None:
        if type(max_variables) is not int:
            raise ValueError("budget must be an integer")
        if max_variables < 1:
            raise ValueError("budget must be positive")
        object.__setattr__(self, "max_variables", max_variables)

    def _key(self) -> Tuple[object, ...]:
        return (self.max_variables,)


def evaluate(instance: QbfInstance, budget: OracleBudget = OracleBudget()) -> bool:
    """Game-tree truth: OR over existential choices, AND over universal."""
    n = len(instance.prefix.variables)
    if n > budget.max_variables:
        raise BudgetExceededError(
            f"instance has {n} variables, budget allows {budget.max_variables}"
        )
    order = instance.prefix.variables_in_order()
    quantifiers = [instance.prefix.quantifier(v) for v in order]

    def rec(i: int, matrix: Matrix) -> bool:
        if not matrix:
            return True
        if frozenset() in matrix:
            return False
        v = order[i]
        low = rec(i + 1, restrict(matrix, {-v}, {v}))
        if quantifiers[i] == EXISTS:
            return low or rec(i + 1, restrict(matrix, {v}, {-v}))
        return low and rec(i + 1, restrict(matrix, {v}, {-v}))

    try:
        return rec(0, instance.matrix)
    except RecursionError:
        raise BudgetExceededError("the prefix is too deep for the oracle's recursion") from None


def verify_poset_property2(
    instance: QbfInstance,
    poset: DependencyPoset,
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """Check that every linear extension of the poset preserves truth.

    Rebuilds the prefix along each extension (quantifiers travel with
    their variables) and compares oracle verdicts.  Guarded to at most
    7 variables since all linear extensions are enumerated.  A poset for
    another prefix is a ValueError, with the engine's message.
    """
    if poset.prefix != instance.prefix:
        raise ValueError(
            f"poset is for {poset.prefix!r}, the instance's prefix is {instance.prefix!r}"
        )
    variables = tuple(sorted(instance.prefix.variables))
    if len(variables) > 7:
        raise BudgetExceededError(
            f"property-2 check enumerates linear extensions; {len(variables)} variables is too many"
        )
    reference = evaluate(instance, budget)
    quantifier = instance.prefix.quantifier
    for order in _linear_extensions(poset, variables):
        prefix = Prefix(tuple((quantifier(v), (v,)) for v in order))
        if evaluate(QbfInstance(prefix, instance.matrix), budget) != reference:
            return False
    return True


def _linear_extensions(poset: DependencyPoset, rest: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The orders of the ascending ``rest`` that extend the poset, in
    lexicographic order: each position takes, in ascending order, every
    variable of ``rest`` none of whose strict predecessors is left."""
    if not rest:
        yield ()
    for v in rest:
        if poset.strict(v).isdisjoint(rest):
            left = tuple([w for w in rest if w != v])
            yield from ((v, *tail) for tail in _linear_extensions(poset, left))


def random_instance(
    seed: int,
    n_vars: int,
    n_clauses: int,
    clause_width: int,
    alternations: int,
) -> QbfInstance:
    """Deterministic pseudo-random instance.

    Splits [1..n_vars] into up to ``alternations`` contiguous blocks of
    alternating quantifiers (first quantifier drawn from the seed) and
    samples clauses of ``clause_width`` distinct variables, so clauses
    are never tautological.
    """
    if n_vars < 1 or n_clauses < 0 or clause_width < 1 or alternations < 1:
        raise ValueError("generator parameters must be positive")
    rng = random.Random(seed)
    n_blocks = min(alternations, n_vars)
    cuts = sorted(rng.sample(range(1, n_vars), n_blocks - 1)) if n_blocks > 1 else []
    bounds = [0] + cuts + [n_vars]
    first = rng.choice((EXISTS, FORALL))
    blocks = []
    for i in range(n_blocks):
        quant = first if i % 2 == 0 else (FORALL if first == EXISTS else EXISTS)
        blocks.append((quant, tuple(range(bounds[i] + 1, bounds[i + 1] + 1))))
    width = min(clause_width, n_vars)
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, n_vars + 1), width)
        clauses.append(Clause([v if rng.random() < 0.5 else -v for v in chosen]))
    return QbfInstance(Prefix(tuple(blocks)), Matrix(clauses))
