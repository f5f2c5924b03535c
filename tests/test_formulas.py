import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trunkqbf import (
    Clause,
    EngineLimits,
    Matrix,
    Prefix,
    QbfInstance,
    evaluate,
    ground_truth,
    is_tautological,
    matrix_of,
    primal_graph,
    qparity,
    remove_tautologies,
    restrict,
)

from _util import edge_set, literal_sets, prefix_without


def literals():
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    )


def clauses():
    return st.lists(literals(), max_size=5).map(lambda ls: Clause(tuple(ls)))


def matrices():
    return st.lists(clauses(), max_size=6).map(lambda cs: Matrix(tuple(cs)))


class TestClause:
    def test_canonical_order_puts_negative_first(self):
        assert Clause((2, -1, 1)).lits == (-1, 1, 2)

    def test_duplicates_collapse(self):
        assert Clause((3, 3, -2, -2)).lits == (-2, 3)

    def test_equality_is_canonical(self):
        assert Clause((1, 2)) == Clause((2, 1))
        assert hash(Clause((1, 2))) == hash(Clause((2, 1)))

    @pytest.mark.parametrize("lits", [(1, 0), (1, True), (1, 1.0)], ids=["zero", "bool", "float"])
    def test_rejects_zero_literal(self, lits):
        # A True or 1.0 would hide behind the equal 1 once in a set.
        with pytest.raises(ValueError, match="non-zero integer"):
            Clause(lits)

    def test_clause_is_the_set_of_its_literals(self):
        assert Clause((2, -1, 1)) == frozenset({-1, 1, 2})
        assert hash(Clause((2, -1, 1))) == hash(frozenset({-1, 1, 2}))


class TestMatrix:
    def test_public_constructor_rejects_plain_sets(self):
        with pytest.raises(TypeError):
            Matrix((frozenset({1}),))

    def test_matrix_is_the_set_of_its_clauses(self):
        m = matrix_of((1, -2), (2,), ())
        plain = frozenset({frozenset({1, -2}), frozenset({2}), frozenset()})
        assert m == plain and plain == m
        assert hash(m) == hash(plain)
        assert Matrix(()) == frozenset()
        assert frozenset() in m

    @pytest.mark.parametrize("name", ["clauses", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, name):
        m = matrix_of((1,))
        with pytest.raises(AttributeError):
            setattr(m, name, ())
        m.clauses  # fill the cache, then try to drop it
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert m.clauses == (Clause((1,)),)


@pytest.mark.parametrize(
    "value,field",
    [
        (Prefix((("e", (1,)),)), "blocks"),
        (QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,))), "prefix"),
        (EngineLimits(), "max_set_size"),
    ],
    ids=["Prefix", "QbfInstance", "EngineLimits"],
)
def test_frozen_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) == before


@pytest.mark.parametrize(
    "build",
    [
        lambda: EngineLimits(max_strategies=1e6),
        lambda: EngineLimits(max_set_size="9"),
        lambda: EngineLimits(max_family_size=True),
        lambda: EngineLimits(max_matrix_size=2.0**16),
        lambda: evaluate(qparity(2), 30.5),
        lambda: evaluate(qparity(2), True),
    ],
    ids=[
        "float-limit",
        "str-limit",
        "bool-limit",
        "float-matrix-limit",
        "float-budget",
        "bool-budget",
    ],
)
def test_limits_and_budgets_accept_only_integers(build):
    # A float limit would pass until R4's branch-limit check reads its
    # bit length; a bool is an int, but not a count.
    with pytest.raises(ValueError, match="integer"):
        build()


class TestTautologies:
    def test_both_polarities(self):
        assert is_tautological(Clause((1, -1, 2)))

    def test_plain_clause(self):
        assert not is_tautological(Clause((1, 2)))

    def test_empty_clause(self):
        assert not is_tautological(Clause(()))

    def test_remove_tautologies(self):
        m = matrix_of((1, -1), (2,))
        assert remove_tautologies(m) == matrix_of((2,))

    def test_remove_tautologies_empty(self):
        assert remove_tautologies(Matrix(())) == Matrix(())

    def test_remove_tautologies_no_change(self):
        m = matrix_of((1, 2), (-1, 2))
        assert remove_tautologies(m) == m


class TestRestrict:
    def test_satisfied_clause_removed_falsified_literal_deleted(self):
        m = matrix_of((1,), (-1, 2))
        assert restrict(m, {1}, {-1}) == matrix_of((2,))

    def test_falsified_unit_leaves_empty_clause(self):
        assert restrict(matrix_of((1,)), {-1}, {1}) == matrix_of(())

    def test_qparity2_branch(self):
        # Setting x1 = 0 keeps the unit (-z1) plus the u/z2 equality and
        # the xor block untouched.
        m = qparity(2).matrix
        expected = matrix_of(
            (-4,),
            (3, -5),
            (-3, 5),
            (-5, 2, 4),
            (5, -2, 4),
            (5, 2, -4),
            (-5, -2, -4),
        )
        assert restrict(m, {-1}, {1}) == expected

    @given(matrices(), st.dictionaries(st.integers(1, 3), st.integers(0, 1)),
           st.dictionaries(st.integers(4, 6), st.integers(0, 1)))
    def test_composition_on_disjoint_domains(self, m, a, b):
        (a_true, a_false), (b_true, b_false) = literal_sets(a), literal_sets(b)
        both = restrict(m, a_true | b_true, a_false | b_false)
        assert restrict(restrict(m, a_true, a_false), b_true, b_false) == both

    @given(matrices(), st.dictionaries(st.integers(1, 6), st.integers(0, 1)))
    def test_never_creates_tautologies(self, m, a):
        clean, a = remove_tautologies(m), literal_sets(a)
        assert remove_tautologies(restrict(clean, *a)) == restrict(clean, *a)


class TestGroundTruth:
    def test_empty_matrix_is_true(self):
        assert ground_truth(Matrix(())) is True

    def test_empty_clause_is_false(self):
        assert ground_truth(matrix_of(())) is False

    def test_variables_left_is_an_error(self):
        with pytest.raises(ValueError):
            ground_truth(matrix_of((1,)))


class TestPrimalGraph:
    def test_qparity5_matches_known_graph(self):
        q = qparity(5)
        adj = primal_graph(q)
        u, z = 6, {i: 6 + i for i in range(1, 6)}
        expected = {(i, z[i]) for i in range(1, 6)}
        expected |= {tuple(sorted((z[i], z[i + 1]))) for i in range(1, 5)}
        expected |= {tuple(sorted((i + 1, z[i]))) for i in range(1, 5)}
        expected.add(tuple(sorted((u, z[5]))))
        assert edge_set(adj) == {tuple(sorted(e)) for e in expected}
        assert u in adj[z[5]]
        assert 2 not in adj[1]

    def test_empty_matrix_is_edgeless_on_prefix_variables(self):
        q = QbfInstance(Prefix((("e", (1, 2, 3)),)), Matrix(()))
        adj = primal_graph(q)
        assert set(adj) == {1, 2, 3}
        assert all(not ns for ns in adj.values())

    def test_one_clause_forms_a_clique(self):
        q = QbfInstance(Prefix((("e", (1, 2, 3)),)), matrix_of((1, 2, 3)))
        assert edge_set(primal_graph(q)) == {(1, 2), (1, 3), (2, 3)}

    @given(matrices())
    def test_symmetric_and_bounded(self, m):
        q = QbfInstance(Prefix((("e", tuple(range(1, 7))),)), m)
        adj = primal_graph(q)
        for u, ns in adj.items():
            for v in ns:
                assert u in adj[v]
        assert 2 * len(edge_set(adj)) <= sum(len(c) ** 2 for c in m.clauses)


class TestCanonicalEncoding:
    @given(st.lists(st.lists(literals(), max_size=4), max_size=5))
    def test_construction_is_order_insensitive(self, raw):
        m1 = Matrix(tuple(Clause(tuple(c)) for c in raw))
        m2 = Matrix(tuple(Clause(tuple(reversed(c))) for c in reversed(raw)))
        assert m1 == m2
        assert m1.encoding() == m2.encoding()

    def test_reencoding_is_stable(self):
        m = matrix_of((2, 1), (1,), (-2, 1))
        again = Matrix(tuple(Clause(c.lits) for c in m.clauses))
        assert again.encoding() == m.encoding()


class TestPrefix:
    def test_adjacent_same_quantifier_blocks_merge(self):
        p = Prefix((("e", (1,)), ("e", (2,)), ("a", (3,))))
        assert p.blocks == (("e", (1, 2)), ("a", (3,)))

    def test_remove_collapses_blocks(self):
        p = Prefix((("e", (1,)), ("a", (2,)), ("e", (3,))))
        assert prefix_without(p, (2,)).blocks == (("e", (1, 3)),)

    def test_dropped_variables_leave_a_canonical_prefix(self):
        def assert_not_quantified(lookup, v):
            # A bare try: this runs 120,400 times, and as pytest.raises
            # blocks it took two thirds of the test's time.
            try:
                lookup(v)
            except KeyError as exc:
                assert exc.args == (f"variable {v} is not quantified",)
            else:
                pytest.fail(f"{lookup.__name__}({v}) did not raise KeyError")

        def assert_canonical(got, p, drop):
            kept = p.variables - drop
            assert all(vs and list(vs) == sorted(vs) for _, vs in got.blocks)
            assert all(a[0] != b[0] for a, b in zip(got.blocks, got.blocks[1:]))
            rebuilt = Prefix(got.blocks)
            assert got == rebuilt and hash(got) == hash(rebuilt)
            assert repr(got) == "Prefix(" + " ".join(f"{q}{list(vs)}" for q, vs in got.blocks) + ")"
            assert got.variables == kept
            assert got.existential == p.existential - drop
            assert got.universal == p.universal - drop
            assert got.variables_in_order() == tuple(v for _, vs in got.blocks for v in vs)
            for v in kept:
                assert got.quantifier(v) == p.quantifier(v)
                assert v in got.blocks[got.block_index(v)][1]
            # Blocks keep their order, so a block's neighbours merge.
            in_order = [got.block_index(v) for v in p.variables_in_order() if v in kept]
            assert in_order == sorted(in_order)
            for v in (0, 99, *(set(range(1, 13)) - kept)):
                assert_not_quantified(got.quantifier, v)
                assert_not_quantified(got.block_index, v)

        rng = random.Random(7)
        for _ in range(300):
            ids = rng.sample(range(1, 13), rng.randint(0, 12))
            blocks, quant = [], rng.choice("ea")
            while ids:
                size = rng.randint(1, len(ids))
                blocks.append((quant, tuple(ids[:size])))
                ids = ids[size:]
                quant = "a" if quant == "e" else "e"
            p = Prefix(tuple(blocks))
            inside = sorted(p.variables)
            drops = [set(), set(inside), {0, 99}, set(range(1, 13))]
            drops += [set(vs) for _, vs in p.blocks[1:-1]]  # neighbours merge
            for _ in range(4):
                drops.append(set(rng.sample(inside, rng.randint(0, len(inside)))) | {99})
            for drop in drops:
                once = prefix_without(p, drop)
                assert_canonical(once, p, drop)
                again = set(rng.sample(inside, rng.randint(0, len(inside))))
                assert_canonical(prefix_without(once, again), p, drop | again)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            Prefix((("e", (1,)), ("a", (1,))))
        with pytest.raises(ValueError, match="unknown quantifier 'x'"):
            Prefix((("x", (1,)),))
        for v in (0, -2, True, 1.0, "1"):
            with pytest.raises(ValueError, match=f"positive integers, got {v!r}"):
                Prefix((("e", (v,)),))

    def test_instance_requires_quantified_matrix(self):
        with pytest.raises(ValueError):
            QbfInstance(Prefix((("e", (1,)),)), matrix_of((2,)))
