"""Core value types for prenex-CNF quantified Boolean formulas.

Variables are 1-based integers (QDIMACS numbering) and a literal is a
signed integer: ``v`` for the positive literal of variable ``v`` and
``-v`` for its negation.  Clauses, matrices, prefixes and instances are
immutable values with deterministic canonical encodings.

A clause is a set of literals and a matrix a set of clauses, as in the
rules: ``Clause`` is a ``frozenset`` of literals and ``Matrix`` a
``frozenset`` of clauses, each equal to and hashing like the plain
frozenset of its members.  The parser, which checks each literal as it
reads it, and the engine's kernels (``restrict``,
``remove_tautologies``, resolution and reduction) build plain frozensets
equal to the ``Clause`` of the same literals.  ``Clause.lits`` and
``Matrix.clauses`` give the canonical order, computed when read.

The package's other immutable values derive from ``Frozen`` or are
``typing.NamedTuple`` records; none is a dataclass, so defining them
generates no code when the package is imported.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import AbstractSet, Dict, FrozenSet, Iterable, Set, Tuple

EXISTS = "e"
FORALL = "a"

_neg = operator.neg


class Frozen:
    """Base of the immutable values that check their fields.

    A subclass sets its fields in its constructor, after its checks: a
    ``__slots__`` subclass with ``object.__setattr__``, and ``Prefix``,
    which declares no ``__slots__``, by writing ``blocks`` into its
    instance ``__dict__``, where its cached properties are kept too.  A
    later assignment or deletion raises ``AttributeError``.  Instances
    of one class compare and hash by ``_key()``, and the default repr
    names the public slots.
    """

    __slots__ = ()

    def _key(self) -> Tuple[object, ...]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        public = [name for name in self.__slots__ if not name.startswith("_")]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in public)
        return f"{self.__class__.__name__}({fields})"


def _check_literal(lit: int) -> None:
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise ValueError(f"literal must be a non-zero integer, got {lit!r}")


def _order_key(lits: AbstractSet[int]) -> Tuple[int, ...]:
    """Canonical clause order: by canonical literal tuple.

    Mapping ``-v`` to 2v and ``v`` to 2v + 1 keeps the canonical order of
    literals, so the sorted mapped literals are the key.
    """
    return tuple(sorted([lit + lit + 1 if lit > 0 else -lit - lit for lit in lits]))


class Clause(frozenset):
    """A clause: the frozenset of its literals.

    A clause equals, and hashes like, the plain frozenset of the same
    literals.  The literals are validated before the set is built, so a
    ``True`` or ``1.0`` cannot hide behind an equal ``1``.  ``lits`` is
    the canonical literal tuple.  Like any frozenset, ``<`` on clauses is
    the proper-subset test: ``sorted()`` without a key orders clauses by
    inclusion only and never raises; ``Matrix.clauses`` gives the
    canonical order.
    """

    __slots__ = ()

    def __new__(cls, lits: Iterable[int] = ()) -> "Clause":
        lits = tuple(lits)
        for lit in lits:
            if lit.__class__ is not int or not lit:
                _check_literal(lit)
        clause = super().__new__(cls, lits)
        clause.__post_init__()
        return clause

    def __post_init__(self) -> None:
        """Runs once per validated construction, after the checks."""

    @property
    def lits(self) -> Tuple[int, ...]:
        """The literals in canonical order: by variable id, ``-v`` first.

        Sorting by value and then, stably, by variable id puts ``-v``
        ahead of ``v``; both sorts run in C.
        """
        return tuple(sorted(sorted(self), key=abs))

    def variables(self) -> FrozenSet[int]:
        return frozenset(map(abs, self))

    def __repr__(self) -> str:
        return f"Clause({list(self.lits)!r})"


class Matrix(frozenset):
    """A CNF formula: the frozenset of its clauses.

    A matrix equals, and hashes like, the plain frozenset of its clauses,
    so ``Matrix(()) == frozenset()`` and, as for clauses, ``sorted()``
    without a key orders matrices by inclusion only.  The public
    constructor takes ``Clause`` objects; the parser and the engine build
    matrices from plain literal frozensets with ``_of``.  ``clauses`` is
    the canonical view: the clauses as ``Clause`` objects in canonical
    order, built on first read.  Matrices are immutable.
    """

    def __new__(cls, clauses: Iterable[Clause] = ()) -> "Matrix":
        matrix = super().__new__(cls, clauses)
        matrix.__post_init__()
        return matrix

    def __post_init__(self) -> None:
        for clause in self:
            if not isinstance(clause, Clause):
                raise TypeError(f"a matrix holds Clause objects, got {clause!r}")

    @classmethod
    def _of(cls, clauses: Iterable[FrozenSet[int]]) -> "Matrix":
        """Trusted constructor: the clauses hold non-zero int literals."""
        return frozenset.__new__(cls, clauses)

    @cached_property
    def clauses(self) -> Tuple[Clause, ...]:
        # The members are valid already: wrap them without re-validating.
        wrapped = [frozenset.__new__(Clause, lits) for lits in self]
        return tuple(sorted(wrapped, key=_order_key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def variables(self) -> FrozenSet[int]:
        return frozenset(map(abs, itertools.chain.from_iterable(self)))

    def encoding(self) -> Tuple[Tuple[int, ...], ...]:
        """Canonical encoding: tuple of canonical literal tuples."""
        return tuple(c.lits for c in self.clauses)

    def __repr__(self) -> str:
        return f"Matrix({[list(c.lits) for c in self.clauses]!r})"


def matrix_of(*clauses: Iterable[int]) -> Matrix:
    """Build a matrix from raw literal collections."""
    return Matrix(map(Clause, clauses))


class Prefix(Frozen):
    """A quantifier prefix of strictly alternating blocks.

    Adjacent same-quantifier blocks are merged and empty blocks dropped
    on construction, so the alternation invariant always holds.  Block
    variable order is canonical (ascending id); block membership, not
    written order, carries the semantics.  Prefixes are immutable and
    compare and hash by their blocks.  A run never shrinks its prefix:
    its plan records the variables each step removes.
    """

    blocks: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __init__(self, blocks: Iterable[Tuple[str, Iterable[int]]] = ()) -> None:
        merged: list[tuple[str, list[int]]] = []
        seen: Set[int] = set()
        for quant, variables in blocks:
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
        self.__dict__["blocks"] = tuple((q, tuple(sorted(vs))) for q, vs in merged)

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
        return self.blocks[self.block_index(v)][0]

    def variables_in_order(self) -> Tuple[int, ...]:
        """All variables, block by block, ascending id inside each block."""
        return tuple(v for _, vs in self.blocks for v in vs)

    def _key(self) -> Tuple[object, ...]:
        return (self.blocks,)

    def __repr__(self) -> str:
        inner = " ".join(f"{q}{list(vs)}" for q, vs in self.blocks)
        return f"Prefix({inner})"


class QbfInstance(Frozen):
    """A prenex QBF: quantifier prefix plus CNF matrix, every matrix
    variable quantified."""

    __slots__ = ("prefix", "matrix")
    prefix: Prefix
    matrix: Matrix

    def __init__(self, prefix: Prefix, matrix: Matrix) -> None:
        free = matrix.variables() - prefix.variables
        if free:
            raise ValueError(f"matrix variables not quantified: {sorted(free)}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _of(cls, prefix: Prefix, matrix: Matrix) -> "QbfInstance":
        """Trusted constructor: the caller ensures that every matrix
        variable is quantified (the parser binds the free ones, and
        removing clauses keeps it so)."""
        instance = cls.__new__(cls)
        object.__setattr__(instance, "prefix", prefix)
        object.__setattr__(instance, "matrix", matrix)
        return instance

    def _key(self) -> Tuple[object, ...]:
        return (self.prefix, self.matrix)


def is_tautological(lits: AbstractSet[int]) -> bool:
    """True iff some variable occurs in both polarities among the literals
    of a clause or any other literal set."""
    return not lits.isdisjoint(map(_neg, lits))


def remove_tautologies(matrix: Matrix) -> Matrix:
    """Drop every tautological clause."""
    kept = [c for c in matrix if not is_tautological(c)]
    return matrix if len(kept) == len(matrix) else Matrix._of(kept)


def restrict(matrix: Matrix, true: AbstractSet[int], false: AbstractSet[int]) -> Matrix:
    """Apply a partial assignment, given as the literals it makes true and
    the literals it makes false (sets of literals, as a clause is), to
    the matrix; ``false`` holds the negations of ``true``.

    Clauses containing a true literal are removed, and the false
    literals are deleted from the remaining clauses.  Variables outside
    the assignment's domain are untouched; the result may contain the
    empty clause.  Clauses that become equal merge.
    """
    return Matrix._of([c.difference(false) for c in matrix if c.isdisjoint(true)])


def ground_truth(matrix: Matrix) -> bool:
    """Truth of a variable-free matrix: true iff it has no clauses.

    Raises ValueError if the matrix still contains a variable.
    """
    for lits in matrix:
        if lits:
            raise ValueError(
                f"matrix is not variable-free: contains {Clause(lits)!r}"
            )
    return not matrix


def primal_graph(instance: QbfInstance) -> Dict[int, Set[int]]:
    """Adjacency sets of the primal graph on all quantified variables.

    Two variables are adjacent iff some clause contains both.
    """
    adjacency: Dict[int, Set[int]] = {v: set() for v in instance.prefix.variables}
    for lits in instance.matrix:
        variables = sorted(set(map(abs, lits)))
        for i, u in enumerate(variables):
            for w in variables[i + 1 :]:
                adjacency[u].add(w)
                adjacency[w].add(u)
    return adjacency
