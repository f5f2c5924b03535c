"""The clause kernel against reference definitions written out here.

The canonical literal and clause orders, ``restrict``, ``reduce``,
``resolve``, ``remove_tautologies`` and ``is_tautological`` are compared
on seeded random inputs with definitions that use the public
constructors only.
"""

import random

import pytest

from trunkqbf import (
    Clause,
    Matrix,
    Prefix,
    QbfInstance,
    is_tautological,
    matrix_of,
    qparity,
    random_instance,
    remove_tautologies,
    restrict,
    write_qdimacs,
)
from trunkqbf.derivation import reduce, resolve

from _util import literal_sets

N_VARS = 8


def old_lits(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))


def old_clause_key(clause):
    return tuple((abs(l), l > 0) for l in clause.lits)


def ref_tautological(clause):
    return any(-l in clause.lits for l in clause.lits)


def ref_remove_tautologies(matrix):
    return Matrix(tuple(c for c in matrix.clauses if not ref_tautological(c)))


def ref_restrict(matrix, assignment):
    out = []
    for c in matrix.clauses:
        if not any(abs(l) in assignment and (l > 0) == bool(assignment[abs(l)]) for l in c.lits):
            out.append(Clause(tuple(l for l in c.lits if abs(l) not in assignment)))
    return Matrix(tuple(out))


def ref_reduce(matrix, u):
    return Matrix(tuple(Clause(tuple(l for l in c.lits if abs(l) != u)) for c in matrix.clauses))


def ref_resolve(matrix, x):
    positive = [c for c in matrix.clauses if x in c.lits]
    negative = [c for c in matrix.clauses if -x in c.lits]
    kept = [c for c in matrix.clauses if x not in c.lits and -x not in c.lits]
    resolvents = [
        Clause(tuple(l for l in c1.lits if l != x) + tuple(l for l in c2.lits if l != -x))
        for c1 in positive
        for c2 in negative
    ]
    return Matrix(tuple(kept + [r for r in resolvents if not ref_tautological(r)]))


def random_lits(rng, max_len=6):
    return [rng.choice((-1, 1)) * rng.randint(1, N_VARS) for _ in range(rng.randint(0, max_len))]


def random_clauses(rng, n):
    """Clauses with both polarities of a variable at the same position and
    clauses that are prefixes of each other; some are tautological."""
    out = []
    for _ in range(n):
        clause = Clause(tuple(random_lits(rng)))
        out.append(clause)
        if clause.lits and rng.random() < 0.3:
            out.append(Clause(clause.lits[: rng.randrange(len(clause.lits))]))
        if rng.random() < 0.3:
            v = rng.randint(1, N_VARS)
            out.append(Clause(clause.lits + (v,)))
            out.append(Clause(clause.lits + (-v,)))
    return out


def random_matrix(rng):
    """A tautology-free matrix.  Each base clause may get siblings that add
    one more literal each; an assignment falsifying those literals makes
    the siblings restrict to the same clause."""
    clauses = []
    for _ in range(rng.randint(0, 7)):
        lits = random_lits(rng, 4)
        if ref_tautological(Clause(tuple(lits))):
            continue
        clauses.append(Clause(tuple(lits)))
        free = [v for v in range(1, N_VARS + 1) if v not in map(abs, lits)]
        for v in rng.sample(free, min(len(free), rng.randint(0, 2))):
            clauses.append(Clause(tuple(lits) + (rng.choice((-v, v)),)))
    return Matrix(tuple(clauses))


def random_assignment(rng, matrix):
    """A partial assignment that often falsifies the siblings' extra literals."""
    assignment = {}
    for clause in matrix.clauses:
        for lit in clause.lits:
            if abs(lit) not in assignment and rng.random() < 0.3:
                assignment[abs(lit)] = int(lit < 0) if rng.random() < 0.8 else int(lit > 0)
    return assignment


def assert_same_matrix(got, want):
    """Equal as values and in every canonical view."""
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert frozenset(got) == frozenset(want)
    assert got.clauses == want.clauses
    assert got.encoding() == want.encoding()
    assert repr(got) == repr(want)


def assert_canonical(matrix):
    assert_same_matrix(matrix, Matrix(matrix.clauses))
    for c in matrix.clauses:
        assert c.lits == Clause(c.lits).lits
        assert hash(c) == hash(Clause(c.lits))
        assert c.variables() == frozenset(abs(l) for l in c.lits)


class TestCanonicalOrder:
    def test_clause_literals_match_the_old_definition(self):
        rng = random.Random(1)
        for _ in range(3000):
            lits = random_lits(rng, 9)
            assert Clause(tuple(lits)).lits == old_lits(lits)

    def test_negative_literal_first(self):
        assert Clause((3, -3, 1, -1)).lits == (-1, 1, -3, 3)
        assert Matrix((Clause((1,)), Clause((-1,)))).clauses == (Clause((-1,)), Clause((1,)))
        assert Matrix((Clause((2, 3)), Clause((-2, 3)))).clauses == (
            Clause((-2, 3)),
            Clause((2, 3)),
        )

    def test_prefix_clause_first(self):
        assert Matrix((Clause((1, 2)), Clause((1,)), Clause(()))).clauses == (
            Clause(()),
            Clause((1,)),
            Clause((1, 2)),
        )

    def test_matrix_order_matches_the_old_definition(self):
        rng = random.Random(2)
        for _ in range(600):
            clauses = random_clauses(rng, rng.randint(0, 10))
            rng.shuffle(clauses)
            expected = tuple(sorted(set(clauses), key=old_clause_key))
            assert Matrix(tuple(clauses)).clauses == expected

    @pytest.mark.parametrize(
        "instance, text",
        [
            (
                qparity(2),
                "p cnf 5 8\ne 1 2 0\na 3 0\ne 4 5 0\n-1 4 0\n1 -4 0\n-2 -4 -5 0\n"
                "-2 4 5 0\n2 -4 5 0\n2 4 -5 0\n-3 5 0\n3 -5 0\n",
            ),
            (
                random_instance(7, 6, 8, 3, 3),
                "p cnf 6 7\na 1 2 0\ne 3 0\na 4 5 6 0\n-1 -5 6 0\n-1 5 -6 0\n1 2 5 0\n"
                "1 4 -5 0\n1 -5 -6 0\n2 3 -5 0\n3 -4 5 0\n",
            ),
            (
                QbfInstance(
                    Prefix((("a", (2,)), ("e", (1, 3)))),
                    matrix_of((3, -1), (-2, 1, 2), (1,), (-1,), (1, 3), (-1, 3, -3), (2, -3, 1), (-2,), ()),
                ),
                "p cnf 3 9\na 2 0\ne 1 3 0\n0\n-1 0\n-1 -3 3 0\n-1 3 0\n1 0\n1 -2 2 0\n"
                "1 2 -3 0\n1 3 0\n-2 0\n",
            ),
        ],
        ids=["qparity2", "random7", "both-polarities"],
    )
    def test_write_qdimacs_is_byte_identical(self, instance, text):
        assert write_qdimacs(instance) == text


class TestKernels:
    def test_is_tautological_and_remove_tautologies(self):
        rng = random.Random(3)
        for _ in range(400):
            clauses = random_clauses(rng, rng.randint(0, 8))
            for c in clauses:
                assert is_tautological(c) == ref_tautological(c)
            m = Matrix(tuple(clauses))
            got = remove_tautologies(m)
            assert got == ref_remove_tautologies(m)
            assert_canonical(got)

    def test_restrict(self):
        rng = random.Random(4)
        merged = 0
        for _ in range(1500):
            m = random_matrix(rng)
            assignment = random_assignment(rng, m)
            got = restrict(m, *literal_sets(assignment))
            expected = ref_restrict(m, assignment)
            assert got == expected and got.clauses == expected.clauses
            assert_canonical(got)
            kept = sum(
                1
                for c in m.clauses
                if not any(assignment.get(abs(l)) == int(l > 0) for l in c.lits)
            )
            merged += len(got) < kept
        assert merged > 100  # the dedup path ran

    def test_reduce(self):
        rng = random.Random(5)
        for _ in range(1500):
            m = random_matrix(rng)
            u = rng.randint(1, N_VARS)
            got = reduce(m, u)
            assert got == ref_reduce(m, u)
            assert_canonical(got)

    def test_resolve(self):
        rng = random.Random(6)
        for _ in range(1500):
            m = random_matrix(rng)
            x = rng.randint(1, N_VARS)
            got = resolve(m, x)
            assert got == ref_resolve(m, x)
            assert_canonical(got)
            assert x not in got.variables()

    def test_trusted_constructors_equal_the_public_ones(self):
        rng = random.Random(7)
        for _ in range(500):
            clauses = random_clauses(rng, rng.randint(0, 8))
            m = Matrix(tuple(clauses))
            sets = [frozenset(rng.sample(c.lits, len(c.lits))) for c in clauses]
            rng.shuffle(sets)
            assert_same_matrix(Matrix._of(sets), m)
            assert_same_matrix(Matrix._of(frozenset(sets)), m)

    def test_engine_built_matrices_equal_the_public_ones(self):
        # Each kernel result is built from literal sets; rebuilding it
        # through the public constructors must give the same value.
        rng = random.Random(8)
        for _ in range(500):
            m = random_matrix(rng)
            x = rng.randint(1, N_VARS)
            for got in (
                restrict(m, *literal_sets(random_assignment(rng, m))),
                resolve(m, x),
                reduce(m, x),
                remove_tautologies(Matrix(tuple(random_clauses(rng, 6)))),
            ):
                public = Matrix(tuple(Clause(tuple(sorted(s))) for s in got))
                assert_same_matrix(got, public)
                assert len({got, public}) == 1
