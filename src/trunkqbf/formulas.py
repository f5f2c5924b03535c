"""Core value types for prenex-CNF quantified Boolean formulas.

Variables are 1-based integers (QDIMACS numbering) and a literal is a
signed integer: ``v`` for the positive literal of variable ``v`` and
``-v`` for its negation.  Clauses, matrices, prefixes and instances are
immutable values with deterministic canonical encodings.

A matrix stores its clauses as frozensets of literals, and its equality
and hash come from that set of sets, so matrices that are equal as sets
of clauses are one value.  ``restrict`` and ``remove_tautologies`` work
on those sets with C-level set operations and build no ``Clause``;
``Matrix.clauses`` gives ``Clause`` objects in canonical order, built
once per matrix when first read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple

Variable = int
Literal = int

# Assignments map variables to 0/1.
Assignment = Mapping[int, int]

EXISTS = "e"
FORALL = "a"


def _check_literal(lit: int) -> None:
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise ValueError(f"literal must be a non-zero integer, got {lit!r}")


def _canonical(lits: Iterable[int]) -> Tuple[int, ...]:
    """Canonical literal order: by variable id, negative polarity first.

    Sorting by value and then, stably, by variable id puts ``-v`` ahead
    of ``v``; both sorts run in C.
    """
    return tuple(sorted(sorted(set(lits)), key=abs))


@dataclass(frozen=True)
class Clause:
    """A duplicate-free set of literals in canonical order.

    Two clauses are equal iff their canonical literal tuples are equal.
    The variables and the matrix order key are computed once, on
    construction.
    """

    lits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for lit in self.lits:
            if lit.__class__ is not int or not lit:
                _check_literal(lit)
        _set_clause(self, _canonical(self.lits))

    @classmethod
    def _of(cls, lits: Tuple[int, ...]) -> "Clause":
        """Trusted constructor: ``lits`` is already canonical."""
        clause = object.__new__(cls)
        _set_clause(clause, lits)
        return clause

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    @property
    def is_empty(self) -> bool:
        return not self.lits

    def variables(self) -> FrozenSet[int]:
        return self._variables  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"Clause({list(self.lits)!r})"


def _set_clause(clause: Clause, lits: Tuple[int, ...]) -> None:
    # The order key maps -v to 2v and v to 2v + 1, so comparing keys
    # compares the (variable, polarity) pairs of the literals.
    clause.__dict__.update(
        lits=lits,
        _hash=hash(lits),
        _variables=frozenset(map(abs, lits)),
        _key=tuple([lit + lit + 1 if lit > 0 else -lit - lit for lit in lits]),
    )


_clause_key = operator.attrgetter("_key")
_neg = operator.neg


class Matrix:
    """A CNF formula: a set of clauses, each a set of literals.

    ``sets`` holds every clause as a frozenset of its literals, and
    equality and hash come from it.  ``clauses`` is the canonical view:
    the clauses as ``Clause`` objects in canonical order.  The public
    constructor validates and fills both; the engine builds matrices from
    literal sets with ``_of`` and the view is built on first use.
    Matrices are immutable.
    """

    sets: FrozenSet[FrozenSet[int]]

    def __init__(self, clauses: Tuple[Clause, ...] = ()) -> None:
        self.__dict__["clauses"] = clauses
        self.__post_init__()

    def __post_init__(self) -> None:
        unique = set(self.clauses)
        sets = frozenset([frozenset(c.lits) for c in unique])
        self.__dict__.update(
            clauses=tuple(sorted(unique, key=_clause_key)), sets=sets, _hash=hash(sets)
        )

    @classmethod
    def _of(cls, sets: FrozenSet[FrozenSet[int]]) -> "Matrix":
        """Trusted constructor: ``sets`` holds non-zero int literals."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(sets=sets, _hash=hash(sets))
        return matrix

    @cached_property
    def clauses(self) -> Tuple[Clause, ...]:
        built = [Clause._of(_canonical(lits)) for lits in self.sets]
        return tuple(sorted(built, key=_clause_key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Matrix:
            return NotImplemented
        return self.sets == other.sets  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, clause: Clause) -> bool:
        return frozenset(clause.lits) in self.sets

    @property
    def is_empty(self) -> bool:
        return not self.sets

    @property
    def has_empty_clause(self) -> bool:
        return frozenset() in self.sets

    def variables(self) -> FrozenSet[int]:
        return frozenset(map(abs, itertools.chain.from_iterable(self.sets)))

    def encoding(self) -> Tuple[Tuple[int, ...], ...]:
        """Canonical encoding: tuple of canonical literal tuples."""
        return tuple(c.lits for c in self.clauses)

    def __repr__(self) -> str:
        return f"Matrix({[list(c.lits) for c in self.clauses]!r})"


def matrix_of(*clauses: Iterable[int]) -> Matrix:
    """Build a matrix from raw literal collections."""
    return Matrix(tuple(Clause(tuple(c)) for c in clauses))


@dataclass(frozen=True)
class Prefix:
    """A quantifier prefix of strictly alternating blocks.

    Adjacent same-quantifier blocks are merged and empty blocks dropped
    on construction, so the alternation invariant always holds.  Block
    variable order is canonical (ascending id); block membership, not
    written order, carries the semantics.
    """

    blocks: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        merged: list[tuple[str, list[int]]] = []
        seen: Set[int] = set()
        for quant, variables in self.blocks:
            if quant not in (EXISTS, FORALL):
                raise ValueError(f"unknown quantifier {quant!r}")
            block_vars = list(variables)
            for v in block_vars:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise ValueError(f"variable ids must be positive integers, got {v!r}")
                if v in seen:
                    raise ValueError(f"variable {v} occurs in more than one block")
                seen.add(v)
            if not block_vars:
                continue
            if merged and merged[-1][0] == quant:
                merged[-1][1].extend(block_vars)
            else:
                merged.append((quant, block_vars))
        canonical = tuple((q, tuple(sorted(vs))) for q, vs in merged)
        object.__setattr__(self, "blocks", canonical)

    @cached_property
    def variables(self) -> FrozenSet[int]:
        return frozenset(v for _, vs in self.blocks for v in vs)

    @cached_property
    def existential(self) -> FrozenSet[int]:
        return frozenset(v for q, vs in self.blocks for v in vs if q == EXISTS)

    @cached_property
    def universal(self) -> FrozenSet[int]:
        return frozenset(v for q, vs in self.blocks for v in vs if q == FORALL)

    @cached_property
    def _block_index(self) -> Dict[int, int]:
        return {v: i for i, (_, vs) in enumerate(self.blocks) for v in vs}

    def block_index(self, v: int) -> int:
        try:
            return self._block_index[v]
        except KeyError:
            raise KeyError(f"variable {v} is not quantified") from None

    def quantifier(self, v: int) -> str:
        if v in self.existential:
            return EXISTS
        if v in self.universal:
            return FORALL
        raise KeyError(f"variable {v} is not quantified")

    def variables_in_order(self) -> Tuple[int, ...]:
        """All variables, block by block, ascending id inside each block."""
        return tuple(v for _, vs in self.blocks for v in vs)

    def remove(self, variables: Iterable[int]) -> "Prefix":
        """Prefix with the given variables dropped (blocks re-merged).

        Variables outside the prefix are ignored; if none is inside,
        the prefix itself is returned.  Only the blocks that lose a
        variable are rebuilt, and the result skips re-validation, since
        dropping variables keeps a valid prefix valid.  Its variable
        sets are carried over by set difference.
        """
        drop = self.variables.intersection(variables)
        if not drop:
            return self
        merged: list[tuple[str, Tuple[int, ...]]] = []
        for quant, vs in self.blocks:
            if not drop.isdisjoint(vs):
                vs = tuple(itertools.filterfalse(drop.__contains__, vs))
                if not vs:
                    continue
            if merged and merged[-1][0] == quant:
                vs = tuple(sorted(merged.pop()[1] + vs))
            merged.append((quant, vs))
        out = object.__new__(Prefix)
        object.__setattr__(out, "blocks", tuple(merged))
        # Pre-fill the cached properties of the same names.
        out.__dict__.update(
            variables=self.variables - drop,
            existential=self.existential - drop,
            universal=self.universal - drop,
        )
        return out

    def __repr__(self) -> str:
        inner = " ".join(f"{q}{list(vs)}" for q, vs in self.blocks)
        return f"Prefix({inner})"


@dataclass(frozen=True)
class QbfInstance:
    """A prenex QBF: quantifier prefix plus CNF matrix."""

    prefix: Prefix
    matrix: Matrix

    def __post_init__(self) -> None:
        free = self.matrix.variables() - self.prefix.variables
        if free:
            raise ValueError(f"matrix variables not quantified: {sorted(free)}")

    def variables(self) -> FrozenSet[int]:
        return self.prefix.variables


def is_tautological(clause: Clause) -> bool:
    """True iff some variable occurs in both polarities in the clause."""
    # Canonical literals are distinct, so only a variable that occurs
    # twice can make the clause shorter in variables than in literals.
    return len(clause.variables()) < len(clause.lits)


def remove_tautologies(matrix: Matrix) -> Matrix:
    """Drop every tautological clause."""
    kept = frozenset([c for c in matrix.sets if c.isdisjoint(map(_neg, c))])
    return matrix if len(kept) == len(matrix.sets) else Matrix._of(kept)


def restrict(matrix: Matrix, assignment: Assignment) -> Matrix:
    """Apply a partial assignment to the matrix.

    Clauses containing a satisfied literal are removed, falsified
    literals are deleted from the remaining clauses.  Variables outside
    the assignment's domain are untouched; the result may contain the
    empty clause.  Clauses that become equal merge.
    """
    true = [v if value else -v for v, value in assignment.items()]
    false = frozenset(map(_neg, true))
    return Matrix._of(
        frozenset([c.difference(false) for c in matrix.sets if c.isdisjoint(true)])
    )


def ground_truth(matrix: Matrix) -> bool:
    """Truth of a variable-free matrix: true iff it has no clauses.

    Raises ValueError if the matrix still contains a variable.
    """
    for lits in matrix.sets:
        if lits:
            raise ValueError(
                f"matrix is not variable-free: contains {Clause(tuple(lits))!r}"
            )
    return matrix.is_empty


def primal_graph(instance: QbfInstance) -> Dict[int, Set[int]]:
    """Adjacency sets of the primal graph on all quantified variables.

    Two variables are adjacent iff some clause contains both.
    """
    adjacency: Dict[int, Set[int]] = {v: set() for v in instance.prefix.variables}
    for clause in instance.matrix.clauses:
        variables = sorted(clause.variables())
        for i, u in enumerate(variables):
            for w in variables[i + 1 :]:
                adjacency[u].add(w)
                adjacency[w].add(u)
    return adjacency
