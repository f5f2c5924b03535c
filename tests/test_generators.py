import pytest

from trunkqbf import (
    Matrix,
    Prefix,
    QbfInstance,
    elimination_ordering,
    evaluate,
    is_tautological,
    matrix_of,
    qparity,
    qparity_td,
    run_derivation,
    single_bag_td,
    trivial_poset,
    validate_nice,
    validate_trunk_aligned,
    width,
    write_btd,
)
from trunkqbf.generators import forget_path_td

from _util import (
    introduce_then_forget_bags,
    path_td,
    reference_qparity_bags,
    shuffled_forget_orders,
)


class TestQParity:
    def test_n2_exact_matrix(self):
        q = qparity(2)
        assert q.prefix == Prefix((("e", (1, 2)), ("a", (3,)), ("e", (4, 5))))
        assert q.matrix == matrix_of(
            (1, -4), (-1, 4),        # x1 = z1
            (3, -5), (-3, 5),        # u = z2
            (-5, 2, 4), (5, -2, 4), (5, 2, -4), (-5, -2, -4),  # z2 = x2 xor z1
        )

    def test_variable_and_clause_counts(self):
        for n in range(2, 9):
            q = qparity(n)
            assert len(q.prefix.variables) == 2 * n + 1
            assert len(q.matrix.clauses) == 4 * n

    def test_no_tautologies(self):
        for n in range(2, 9):
            assert not any(is_tautological(c) for c in qparity(n).matrix.clauses)

    def test_false_for_small_n(self):
        for n in range(2, 9):
            assert evaluate(qparity(n)) is False

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            qparity(1)


class TestQParityTd:
    def test_n2_exact_bag_sequence(self):
        td = qparity_td(2)
        expected = [
            frozenset(),
            {1}, {1, 4}, {4},
            {4, 2}, {4, 2, 5}, {2, 5},
            {2, 5, 3}, {5, 3}, {3},
            frozenset(),
        ]
        assert [set(td.bag(t)) for t in td.nodes] == [set(b) for b in expected]
        assert td.trunk == td.nodes

    def test_btd_matches_the_bag_table_up_to_64(self):
        for n in range(2, 65):
            assert write_btd(qparity_td(n)) == write_btd(path_td(reference_qparity_bags(n))), n

    def test_width_two_up_to_64(self):
        for n in range(2, 65):
            assert width(qparity_td(n)) == 2

    def test_validators_accept_the_pair(self):
        for n in (2, 3, 7, 16, 64):
            q = qparity(n)
            td = qparity_td(n)
            assert validate_nice(td, q).ok
            assert validate_trunk_aligned(td, q, trivial_poset(q.prefix)).ok

    def test_elimination_ordering_n2(self):
        assert elimination_ordering(qparity_td(2)) == (1, 4, 2, 5, 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            qparity_td(1)


class TestForgetPathTd:
    def test_bags_match_introduce_then_forget_on_the_shuffled_corpus(self):
        for seed, q, forget in shuffled_forget_orders():
            td = forget_path_td(q, forget)
            assert [td.bag(t) for t in td.nodes] == introduce_then_forget_bags(q, forget), seed
            assert td.trunk == td.nodes and td.root == td.nodes[-1]


class TestSingleBagTd:
    def test_qparity2_width_and_forget_order(self):
        q = qparity(2)
        td = single_bag_td(q)
        assert width(td) == 4
        # reverse prefix order, descending ids inside blocks
        assert elimination_ordering(td) == (5, 4, 3, 2, 1)

    def test_one_variable_instance(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,)))
        assert width(single_bag_td(q)) == 0

    def test_never_uses_strategy_extension(self):
        from trunkqbf import random_instance

        for seed in range(60):
            q = random_instance(seed, 2 + seed % 8, 1 + seed % 10, 1 + seed % 3, 1 + seed % 4)
            result = run_derivation(q, single_bag_td(q), trivial_poset(q.prefix))
            assert all(e.rule != "R4" for e in result.trace)

    def test_zero_variable_instance_gets_one_empty_node(self):
        td = single_bag_td(QbfInstance(Prefix(()), Matrix(())))
        assert td.nodes == (1,) and td.trunk == (1,) and td.bag(1) == frozenset()
