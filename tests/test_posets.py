import random
import tracemalloc

import pytest

from trunkqbf import (
    DependencyPoset,
    Prefix,
    parse_poset,
    poset_from_pairs,
    qparity,
    random_instance,
    trivial_poset,
    write_poset,
)

from _util import fixpoint_closure, is_poset_for, random_prefix


@pytest.fixture
def qp2_prefix():
    return qparity(2).prefix  # exists {1,2} forall {3} exists {4,5}


class TestTrivialPoset:
    def test_last_block_depends_on_everything_earlier(self, qp2_prefix):
        d = trivial_poset(qp2_prefix)
        assert d.dep(4) == {1, 2, 3, 4}  # z1: both x's, u, itself

    def test_same_block_variables_are_incomparable(self):
        d = trivial_poset(Prefix((("e", (1, 2)),)))
        assert d.dep(1) == {1}
        assert d.dep(2) == {2}

    def test_outermost_variable_depends_only_on_itself(self, qp2_prefix):
        assert trivial_poset(qp2_prefix).dep(1) == {1}

    def test_universal_block(self, qp2_prefix):
        assert trivial_poset(qp2_prefix).dep(3) == {1, 2, 3}


    def test_matches_the_per_variable_definition(self):
        rng = random.Random(11)
        for _ in range(200):
            prefix = random_prefix(rng, 12)
            dep, earlier = {}, set()
            for _, block_vars in prefix.blocks:
                for v in block_vars:
                    dep[v] = set(earlier) | {v}
                earlier.update(block_vars)
            got = trivial_poset(prefix)
            assert got.prefix.variables == prefix.variables
            assert {v: got.dep(v) for v in prefix.variables} == dep
            assert all(type(got.dep(v)) is frozenset for v in prefix.variables)
            # The same order given as the pairs of the prefix order.
            order = prefix.variables_in_order()
            pairs = [
                (u, v)
                for i, u in enumerate(order)
                for v in order[i + 1 :]
                if prefix.block_index(u) < prefix.block_index(v)
            ]
            want = poset_from_pairs(prefix, pairs)
            assert got == want
            assert got.strict_pairs() == want.strict_pairs() == tuple(sorted(pairs))
            assert repr(got) == repr(want)
            within = range(14)  # 0 and 13 are in no prefix
            for v in prefix.variables:
                assert got.dep(v) == want.dep(v)
                assert got.strict(v) == want.strict(v) == got.dep(v) - {v}
                assert got.dependents_strict(v, within) == want.dependents_strict(v, within)
            # One stored set per block, shared by its variables.
            assert len({id(got.strict(v)) for v in prefix.variables}) <= len(prefix.blocks)
            for _, block_vars in prefix.blocks:
                assert len({id(got.strict(v)) for v in block_vars}) == 1

    def test_memory_is_linear_in_the_prefix(self):
        prefix = qparity(1024).prefix
        prefix.variables  # built before tracing starts
        tracemalloc.start()
        try:
            trivial_poset(prefix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


class TestDepQueries:
    def test_dep_always_contains_the_variable(self, qp2_prefix):
        d = trivial_poset(qp2_prefix)
        for v in qp2_prefix.variables:
            assert v in d.dep(v)

    def test_unknown_variable(self, qp2_prefix):
        with pytest.raises(KeyError):
            trivial_poset(qp2_prefix).dep(99)

    def test_single_pair_closure(self, qp2_prefix):
        d = poset_from_pairs(qp2_prefix, [(1, 3)])
        assert d.dep(3) == {1, 3}
        assert d.dep(4) == {4}

    def test_transitive_closure_chains(self, qp2_prefix):
        d = poset_from_pairs(qp2_prefix, [(1, 3), (3, 4)])
        assert d.dep(4) == {1, 3, 4}

    def test_closure_is_idempotent(self, qp2_prefix):
        d = poset_from_pairs(qp2_prefix, [(1, 3), (3, 5), (2, 3)])
        again = poset_from_pairs(qp2_prefix, d.strict_pairs())
        assert again == d

    def test_repr_counts_the_strict_pairs(self, qp2_prefix):
        for d in (
            trivial_poset(qp2_prefix),
            poset_from_pairs(qp2_prefix, [(1, 3), (3, 5)]),
        ):
            assert repr(d).endswith(f"pairs={len(d.strict_pairs())})")
        assert repr(trivial_poset(qp2_prefix)) == "DependencyPoset(|universe|=5, pairs=8)"


class TestValidatePoset:
    """Both builders give a poset for their prefix; a pair that would
    break one is rejected when the poset is built."""

    def test_trivial_poset_is_valid_for_generated_prefixes(self):
        for seed in range(25):
            q = random_instance(seed, 2 + seed % 6, 3, 2, 1 + seed % 3)
            assert is_poset_for(trivial_poset(q.prefix), q.prefix)

    def test_prefix_consistency_violation(self, qp2_prefix):
        # u = 3 may not precede x1 = 1, which is quantified first.
        with pytest.raises(ValueError, match="pair \\(3, 1\\) is not prefix-consistent"):
            poset_from_pairs(qp2_prefix, [(3, 1)])

    def test_antisymmetry_violation(self, qp2_prefix):
        with pytest.raises(ValueError, match="prefix-consistent"):
            poset_from_pairs(Prefix((("e", (1, 2)),)), [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="prefix-consistent"):
            poset_from_pairs(qp2_prefix, [(1, 3), (3, 1)])

    def test_unquantified_variable_is_rejected(self, qp2_prefix):
        for pair in ((1, 9), (0, 4)):
            with pytest.raises(ValueError, match="is not quantified"):
                poset_from_pairs(qp2_prefix, [pair])

    def test_reflexive_pairs_are_ignored(self, qp2_prefix):
        identity = poset_from_pairs(qp2_prefix, [])
        assert poset_from_pairs(qp2_prefix, [(v, v) for v in qp2_prefix.variables]) == identity
        assert all(identity.dep(v) == {v} for v in qp2_prefix.variables)

    def test_a_pair_against_the_prefix_never_reaches_the_engine(self, qp2_prefix):
        # Were it accepted, z1 = 4 preceding x1 = 1 would make the engine
        # call the false qparity(2) true on qparity_td(2).
        with pytest.raises(ValueError, match="prefix-consistent"):
            poset_from_pairs(qp2_prefix, [(4, 1)])

    def test_a_poset_records_the_prefix_it_was_built_for(self, qp2_prefix):
        text = write_poset(trivial_poset(qp2_prefix))
        for poset in (
            trivial_poset(qp2_prefix),
            poset_from_pairs(qp2_prefix, [(1, 3)]),
            parse_poset(text, qp2_prefix),
        ):
            assert poset.prefix is qp2_prefix
            assert poset.prefix.variables == qp2_prefix.variables

    def test_equal_pairs_for_other_prefixes_are_unequal_posets(self):
        # The same identity relation over {1, 2}, for two prefixes.
        one, other = Prefix((("e", (1, 2)),)), Prefix((("a", (1, 2)),))
        for_one, for_other = poset_from_pairs(one, []), poset_from_pairs(other, [])
        assert for_one.strict_pairs() == for_other.strict_pairs()
        assert for_one != for_other
        assert poset_from_pairs(one, []) == poset_from_pairs(Prefix((("e", (2, 1)),)), [])

    def test_no_relation_is_built_without_a_builder(self):
        for args in ((), ({1, 2}, {2: {1}})):
            with pytest.raises(TypeError):
                DependencyPoset(*args)

    def test_trivial_dep_matches_direct_enumeration(self):
        for seed in range(10):
            q = random_instance(seed, 2 + seed % 6, 2, 2, 1 + seed % 4)
            d = trivial_poset(q.prefix)
            for v in q.prefix.variables:
                earlier = {
                    w
                    for w in q.prefix.variables
                    if q.prefix.block_index(w) < q.prefix.block_index(v)
                }
                assert d.dep(v) == earlier | {v}


class TestClosure:
    def test_matches_the_fixpoint_closure_on_random_prefixes(self):
        rng = random.Random(13)
        for _ in range(300):
            prefix = random_prefix(rng, 12)
            order = prefix.variables_in_order()
            candidates = [
                (u, v)
                for i, u in enumerate(order)
                for v in order[i:]
                if u == v or prefix.block_index(u) < prefix.block_index(v)
            ]
            density = rng.random()
            pairs = [pair for pair in candidates if rng.random() < density]
            got = poset_from_pairs(prefix, pairs)
            want = fixpoint_closure(prefix.variables, pairs)
            assert {v: got.strict(v) for v in prefix.variables} == want
            assert is_poset_for(got, prefix)
            # Equal sets are stored once.
            stored = [got.strict(v) for v in prefix.variables]
            assert len({id(s) for s in stored}) == len(set(stored))

    def test_long_chain_numbered_against_the_prefix(self):
        # 400 one-variable blocks, 400 outermost, each preceding the next:
        # the fixpoint needs a round per link, one pass over the prefix
        # closes it.
        n = 400
        prefix = Prefix(tuple(("ea"[k % 2], (n - k,)) for k in range(n)))
        pairs = [(v + 1, v) for v in range(1, n)]
        got = poset_from_pairs(prefix, pairs)
        assert {v: got.strict(v) for v in prefix.variables} == fixpoint_closure(
            prefix.variables, pairs
        )
        assert all(got.strict(v) == set(range(v + 1, n + 1)) for v in prefix.variables)


class TestDependentsStrict:
    def test_matches_brute_force_within(self):
        q = qparity(3)
        # forall 1 2 exists 3 4 forall 5, where 3 sees only 1 and 4 only 2.
        five = Prefix((("a", (1, 2)), ("e", (3, 4)), ("a", (5,))))
        posets = [
            trivial_poset(q.prefix),
            poset_from_pairs(q.prefix, []),
            poset_from_pairs(five, [(1, 3), (2, 4), (3, 5), (4, 5)]),
        ]
        rng = random.Random(3)
        for d in posets:
            universe = sorted(d.prefix.variables)
            for u in universe:
                for _ in range(20):
                    within = set(rng.sample(universe, rng.randint(0, len(universe))))
                    within |= set(rng.sample(range(20, 30), rng.randint(0, 3)))  # foreign
                    want = {
                        w for w in within if w in d.prefix.variables and w != u and u in d.dep(w)
                    }
                    assert d.dependents_strict(u, within) == want
                assert d.dependents_strict(u, universe) == {
                    w for w in universe if w != u and u in d.dep(w)
                }
            with pytest.raises(KeyError, match="not in the poset universe"):
                d.dependents_strict(99, universe)
