import random
import tracemalloc

import pytest

from trunkqbf import (
    DependencyPoset,
    Prefix,
    poset_from_pairs,
    qparity,
    random_instance,
    trivial_poset,
    validate_poset,
)


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
            ids = list(range(1, rng.randint(0, 12) + 1))
            rng.shuffle(ids)
            blocks, quant = [], rng.choice("ea")
            while ids:
                size = rng.randint(0, min(4, len(ids)))
                blocks.append((quant, tuple(ids[:size])))
                ids, quant = ids[size:], "a" if quant == "e" else "e"
            prefix = Prefix(tuple(blocks))
            dep, earlier = {}, set()
            for _, block_vars in prefix.blocks:
                for v in block_vars:
                    dep[v] = set(earlier) | {v}
                earlier.update(block_vars)
            got = trivial_poset(prefix)
            assert got == DependencyPoset(prefix.variables, dep)
            assert got.universe == prefix.variables
            assert all(type(got.dep(v)) is frozenset for v in prefix.variables)
            # The same order given as the pairs of the prefix order.
            order = prefix.variables_in_order()
            pairs = [
                (u, v)
                for i, u in enumerate(order)
                for v in order[i + 1 :]
                if prefix.block_index(u) < prefix.block_index(v)
            ]
            want = poset_from_pairs(prefix.variables, pairs)
            assert got == want
            assert got.strict_pairs() == want.strict_pairs() == tuple(sorted(pairs))
            assert repr(got) == repr(want)
            assert validate_poset(got, prefix) == validate_poset(want, prefix)
            assert validate_poset(got, prefix).ok
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
        d = poset_from_pairs(qp2_prefix.variables, [(1, 3)])
        assert d.dep(3) == {1, 3}
        assert d.dep(4) == {4}

    def test_transitive_closure_chains(self, qp2_prefix):
        d = poset_from_pairs(qp2_prefix.variables, [(1, 3), (3, 4)])
        assert d.dep(4) == {1, 3, 4}

    def test_closure_is_idempotent(self, qp2_prefix):
        d = poset_from_pairs(qp2_prefix.variables, [(1, 3), (3, 5), (2, 3)])
        again = poset_from_pairs(d.universe, d.strict_pairs())
        assert again == d

    def test_repr_counts_the_strict_pairs(self, qp2_prefix):
        for d in (
            trivial_poset(qp2_prefix),
            poset_from_pairs(qp2_prefix.variables, [(1, 3), (3, 5)]),
            DependencyPoset({1, 2}, {2: {1}}),  # 1 is missing its reflexive pair
        ):
            assert repr(d).endswith(f"pairs={len(d.strict_pairs())})")
        assert repr(trivial_poset(qp2_prefix)) == "DependencyPoset(|universe|=5, pairs=8)"


class TestValidatePoset:
    def test_trivial_poset_is_valid_for_generated_prefixes(self):
        for seed in range(25):
            q = random_instance(seed, 2 + seed % 6, 3, 2, 1 + seed % 3)
            report = validate_poset(trivial_poset(q.prefix), q.prefix)
            assert report.ok, report

    def test_prefix_consistency_violation(self, qp2_prefix):
        # u = 3 precedes x1 = 1 although x1 is quantified first.
        d = poset_from_pairs(qp2_prefix.variables, [(3, 1)])
        report = validate_poset(d, qp2_prefix)
        assert not report.ok
        assert any(v.rule == "prefix" for v in report.violations)

    def test_missing_reflexive_pair(self, qp2_prefix):
        raw = DependencyPoset(qp2_prefix.variables, {v: {v} for v in (1, 2, 3, 4)})
        report = validate_poset(raw, qp2_prefix)
        assert any(v.rule == "reflexivity" and v.subject == "5" for v in report.violations)

    def test_antisymmetry_violation(self):
        prefix = Prefix((("e", (1, 2)),))
        d = poset_from_pairs({1, 2}, [(1, 2), (2, 1)])
        report = validate_poset(d, prefix)
        assert any(v.rule == "antisymmetry" for v in report.violations)

    def test_broken_transitivity_detected(self, qp2_prefix):
        raw = DependencyPoset(
            qp2_prefix.variables,
            {1: {1}, 2: {2}, 3: {1, 3}, 4: {3, 4}, 5: {5}},  # 1 <= 3 <= 4 but 1 !<= 4
        )
        report = validate_poset(raw, qp2_prefix)
        assert any(v.rule == "transitivity" for v in report.violations)

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


class TestDependentsStrict:
    def test_matches_brute_force_within(self):
        q = qparity(3)
        # forall 1 2 exists 3 4 forall 5, where 3 sees only 1 and 4 only 2.
        five = Prefix((("a", (1, 2)), ("e", (3, 4)), ("a", (5,))))
        posets = [
            trivial_poset(q.prefix),
            poset_from_pairs(q.prefix.variables, []),
            poset_from_pairs(five.variables, [(1, 3), (2, 4), (3, 5), (4, 5)]),
        ]
        rng = random.Random(3)
        for d in posets:
            universe = sorted(d.universe)
            for u in universe:
                for _ in range(20):
                    within = set(rng.sample(universe, rng.randint(0, len(universe))))
                    within |= set(rng.sample(range(20, 30), rng.randint(0, 3)))  # foreign
                    want = {w for w in within if w in d.universe and w != u and u in d.dep(w)}
                    assert d.dependents_strict(u, within) == want
                assert d.dependents_strict(u, universe) == {
                    w for w in universe if w != u and u in d.dep(w)
                }
            with pytest.raises(KeyError, match="not in the poset universe"):
                d.dependents_strict(99, universe)
