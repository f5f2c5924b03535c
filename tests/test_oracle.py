import random

import pytest

from trunkqbf import (
    BudgetExceededError,
    Matrix,
    OracleBudget,
    Prefix,
    QbfInstance,
    ValidationError,
    evaluate,
    matrix_of,
    poset_from_pairs,
    qparity,
    random_instance,
    reduce,
    resolve,
    restrict,
    run_derivation,
    single_bag_td,
    trivial_poset,
    verify_poset_property2,
)
from trunkqbf.oracle import _linear_extensions

from _util import (
    linear_extensions_by_filter,
    literal_sets,
    prefix_without,
    random_prefix,
    sub_poset_cases,
)


class TestEvaluate:
    def test_qparity2_is_false(self):
        assert evaluate(qparity(2)) is False

    def test_satisfiable_unit(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,)))
        assert evaluate(q) is True

    def test_universal_unit_is_false(self):
        q = QbfInstance(Prefix((("a", (1,)),)), matrix_of((1,)))
        assert evaluate(q) is False

    def test_budget_guard(self):
        q = QbfInstance(Prefix((("e", tuple(range(1, 31))),)), Matrix(()))
        with pytest.raises(BudgetExceededError):
            evaluate(q)

    def test_a_prefix_deeper_than_the_recursion_limit_exceeds_the_budget(self):
        # A rejected input, as a parse error is: both are ValueErrors.
        q = QbfInstance(Prefix((("e", tuple(range(1, 1501))),)), matrix_of((1500,)))
        with pytest.raises(ValueError, match="too deep for the oracle's recursion") as info:
            evaluate(q, OracleBudget(2000))
        assert isinstance(info.value, BudgetExceededError)

    def test_fully_existential_matches_plain_sat(self):
        import itertools

        for seed in range(40):
            q = random_instance(seed, 2 + seed % 5, 1 + seed % 8, 1 + seed % 3, 1)
            q = QbfInstance(Prefix((("e", tuple(sorted(q.prefix.variables))),)), q.matrix)
            variables = sorted(q.prefix.variables)
            sat = any(
                not restrict(q.matrix, *literal_sets(dict(zip(variables, bits))))
                for bits in itertools.product((0, 1), repeat=len(variables))
            )
            assert evaluate(q) == sat

    def test_monotone_under_clause_deletion(self):
        for seed in range(30):
            q = random_instance(seed, 2 + seed % 5, 2 + seed % 6, 1 + seed % 3, 1 + seed % 3)
            base = evaluate(q)
            for drop in range(len(q.matrix.clauses)):
                smaller = Matrix(tuple(c for i, c in enumerate(q.matrix.clauses) if i != drop))
                if base:
                    assert evaluate(QbfInstance(q.prefix, smaller)) is True


class TestEquisatisfiable:
    def test_resolution_under_its_side_condition(self):
        # With the trivial poset the side condition reads: no clause pairs
        # the pivot with a universal from a later block.
        hits = 0
        for seed in range(120):
            q = random_instance(seed, 2 + seed % 6, 1 + seed % 9, 1 + seed % 3, 1 + seed % 4)
            prefix = q.prefix
            for x in sorted(prefix.existential):
                blocked = any(
                    x in c.variables()
                    and any(
                        w in prefix.universal and prefix.block_index(w) > prefix.block_index(x)
                        for w in c.variables()
                    )
                    for c in q.matrix.clauses
                )
                if blocked:
                    continue
                reduced = QbfInstance(prefix_without(prefix, (x,)), resolve(q.matrix, x))
                assert evaluate(q) == evaluate(reduced), (seed, x)
                hits += 1
        assert hits > 50


class TestPosetProperty2:
    def test_trivial_poset_always_passes(self):
        for seed in range(15):
            q = random_instance(seed, 2 + seed % 5, 2 + seed % 5, 1 + seed % 3, 1 + seed % 3)
            assert verify_poset_property2(q, trivial_poset(q.prefix))

    def test_reordering_existential_before_universal_fails(self):
        # forall u exists x . x = u is true, but x cannot be chosen first,
        # so the identity poset (which allows that reordering) fails.
        q = QbfInstance(
            Prefix((("a", (1,)), ("e", (2,)))), matrix_of((1, -2), (-1, 2))
        )
        identity = poset_from_pairs(q.prefix, [])
        assert verify_poset_property2(q, identity) is False
        assert verify_poset_property2(q, trivial_poset(q.prefix)) is True

    def test_a_poset_for_another_prefix_is_the_engines_value_error(self):
        # forall 1 exists 2 . 1 = 2, under posets for three other prefixes:
        # one lacks 2, one has an extra 3 and one swaps the blocks.
        q = QbfInstance(Prefix((("a", (1,)), ("e", (2,)))), matrix_of((1, -2), (-1, 2)))
        others = [
            Prefix((("a", (1,)),)),
            Prefix((("a", (1,)), ("e", (2, 3)))),
            Prefix((("e", (2,)), ("a", (1,)))),
        ]
        for other in others:
            poset = trivial_poset(other)
            message = f"poset is for {other!r}, the instance's prefix is {q.prefix!r}"
            with pytest.raises(ValueError) as oracle:
                verify_poset_property2(q, poset)
            with pytest.raises(ValidationError) as engine:
                run_derivation(q, single_bag_td(q), poset)
            assert str(oracle.value) == str(engine.value) == message
        assert message == (
            "poset is for Prefix(e[2] a[1]), the instance's prefix is Prefix(a[1] e[2])"
        )

    def test_variable_free_instance(self):
        q = QbfInstance(Prefix(()), Matrix(()))
        assert verify_poset_property2(q, trivial_poset(q.prefix))

    def test_size_guard(self):
        q = QbfInstance(Prefix((("e", tuple(range(1, 9))),)), Matrix(()))
        with pytest.raises(BudgetExceededError):
            verify_poset_property2(q, trivial_poset(q.prefix))


class TestLinearExtensions:
    """The walk ``verify_poset_property2`` runs yields the permutation
    filter's orders, in its order."""

    def test_the_walk_matches_the_filter_on_seeded_posets(self):
        rng = random.Random(11)
        for _ in range(300):
            prefix = random_prefix(rng, 6)
            kept = [pair for pair in trivial_poset(prefix).strict_pairs() if rng.random() < 0.5]
            poset = poset_from_pairs(prefix, kept)
            walked = list(_linear_extensions(poset, tuple(sorted(prefix.variables))))
            assert walked == linear_extensions_by_filter(poset), prefix

    def test_the_walk_matches_the_filter_on_the_sub_poset_corpus(self):
        for seed, q, _, poset in sub_poset_cases():
            walked = list(_linear_extensions(poset, tuple(sorted(q.prefix.variables))))
            assert walked == linear_extensions_by_filter(poset), seed


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(7, 6, 8, 3, 3)
        b = random_instance(7, 6, 8, 3, 3)
        assert a == b

    def test_no_clauses_means_true(self):
        q = random_instance(3, 5, 0, 2, 2)
        assert not q.matrix
        assert evaluate(q) is True

    def test_clauses_have_no_tautologies_or_duplicate_vars(self):
        for seed in range(50):
            q = random_instance(seed, 3 + seed % 6, 1 + seed % 10, 1 + seed % 4, 1 + seed % 4)
            for c in q.matrix.clauses:
                assert len(c.variables()) == len(c.lits)

    def test_unit_clause_instances_decided_by_universal_units(self):
        found = 0
        for seed in range(200):
            q = random_instance(seed, 4, 4, 1, 2)
            units = [c.lits[0] for c in q.matrix.clauses if len(c.lits) == 1]
            if len(q.matrix.clauses) != 4 or len({abs(l) for l in units}) != 4:
                continue  # want four units on all-distinct variables
            has_universal_unit = any(abs(l) in q.prefix.universal for l in units)
            assert evaluate(q) == (not has_universal_unit), seed
            found += 1
        assert found > 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_instance(0, 0, 1, 1, 1)


class TestReductionSoundness:
    def test_reduction_under_its_side_condition(self):
        hits = 0
        for seed in range(120):
            q = random_instance(seed, 2 + seed % 6, 1 + seed % 9, 1 + seed % 3, 1 + seed % 4)
            prefix = q.prefix
            for u in sorted(prefix.universal):
                blocked = any(
                    u in c.variables()
                    and any(
                        w in prefix.existential and prefix.block_index(w) > prefix.block_index(u)
                        for w in c.variables()
                    )
                    for c in q.matrix.clauses
                )
                if blocked:
                    continue
                reduced = QbfInstance(prefix_without(prefix, (u,)), reduce(q.matrix, u))
                assert evaluate(q) == evaluate(reduced), (seed, u)
                hits += 1
        assert hits > 30
