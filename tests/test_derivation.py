import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from trunkqbf import (
    DerivationState,
    EngineLimits,
    Matrix,
    Prefix,
    QbfInstance,
    ResourceLimitError,
    StrategyShape,
    TrunkTreeDecomposition,
    ValidationError,
    elimination_ordering,
    evaluate,
    initial_state,
    is_tautological,
    matrix_of,
    poset_from_pairs,
    qparity,
    qparity_td,
    random_instance,
    reduce,
    resolve,
    restrict,
    run_derivation,
    single_bag_td,
    step,
    strategy_extension,
    trivial_poset,
)
from trunkqbf import InvariantError, derivation
from trunkqbf.decomposition import ValidationReport
from trunkqbf.derivation import UntouchedStore, validate_input
from trunkqbf.posets import DependencyPoset

from _util import (
    R4_LIMITS,
    join_node_cases,
    path_td,
    reference_family,
    reference_plan,
    shuffled_path_cases,
    sub_poset_cases,
    literal_sets,
)


def family(*sets):
    return frozenset(frozenset(ms) for ms in sets)


def extend(pi, deps, d):
    """``strategy_extension`` of pi under the shape of the removed
    variables ``deps``."""
    return strategy_extension(frozenset(pi), *StrategyShape.of(deps, d).tables())


def at_step(setup, fam, index):
    """The state at the given step of the setup's plan whose family holds
    whole matrices and whose store holds no clause."""
    q, td, d = setup
    plan = initial_state(*validate_input(q, td, d), d).untouched.plan
    return DerivationState(fam, index, UntouchedStore(frozenset(), plan))


@pytest.fixture
def qp2():
    return qparity(2)


@pytest.fixture
def qp2_setup(qp2):
    return qp2, qparity_td(2), trivial_poset(qp2.prefix)


# Matrices of the QParity_2 run, ids x1=1, x2=2, u=3, z1=4, z2=5.
PSI_X1_0 = matrix_of((-4,), (3, -5), (-3, 5), (-5, 2, 4), (5, -2, 4), (5, 2, -4), (-5, -2, -4))
PSI_X1_1 = matrix_of((4,), (3, -5), (-3, 5), (-5, 2, 4), (5, -2, 4), (5, 2, -4), (-5, -2, -4))
RES_X1_0 = matrix_of((3, -5), (-3, 5), (-5, 2), (5, -2))
RES_X1_1 = matrix_of((3, -5), (-3, 5), (5, 2), (-5, -2))
PSI_Z2_NEG = matrix_of((3, -5), (-3, 5), (-5,))
PSI_Z2_POS = matrix_of((3, -5), (-3, 5), (5,))
UNIT_U_NEG = matrix_of((-3,))
UNIT_U_POS = matrix_of((3,))
EMPTY_CLAUSE_MATRIX = matrix_of(())

# exists x forall u exists z . (z=x) and (z=u), and a path that forgets u
# while x, which u depends on, is already gone: not trunk-aligned.
XUZ = QbfInstance(
    Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))),
    matrix_of((1, -3), (-1, 3), (2, -3), (-2, 3)),
)
UNALIGNED_TD = TrunkTreeDecomposition(
    {1: (), 2: (3,), 3: (3, 2), 4: (3,), 5: (3, 1), 6: (1,), 7: ()},
    {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7},
    7,
    (1, 2, 3, 4, 5, 6, 7),
)


class TestResolve:
    def test_qparity2_pivot_z1(self):
        assert resolve(PSI_X1_0, 4) == RES_X1_0

    def test_unit_resolution_yields_empty_clause(self):
        assert resolve(matrix_of((1,), (-1,)), 1) == EMPTY_CLAUSE_MATRIX

    def test_tautological_resolvents_are_dropped(self):
        assert resolve(matrix_of((1, 2), (-1, -2)), 1) == Matrix(())

    def test_result_is_pivot_free(self):
        m = resolve(PSI_X1_1, 4)
        assert 4 not in m.variables()

    def test_pivot_absent_is_identity(self):
        m = matrix_of((1, 2))
        assert resolve(m, 3) == m

    def test_matches_the_definition_on_random_matrices(self):
        # Every resolvent built, the tautological ones dropped afterwards.
        rng = random.Random(3)
        dropped = 0
        for _ in range(500):
            clauses = {
                frozenset(
                    rng.choice((1, -1)) * x for x in rng.sample(range(1, 6), rng.randint(1, 4))
                )
                for _ in range(rng.randint(1, 8))
            }
            m = matrix_of(*(c for c in clauses if not c & {-l for l in c}))
            positive = [c for c in m if 1 in c]
            negative = [c for c in m if -1 in c]
            resolvents = [(c1 | c2) - {1, -1} for c1 in positive for c2 in negative]
            kept = [r for r in resolvents if not r & {-l for l in r}]
            dropped += len(resolvents) - len(kept)
            want = [c for c in m if 1 not in c and -1 not in c] + kept
            assert resolve(m, 1) == matrix_of(*want)
        assert dropped >= 100


class TestReduce:
    def test_unit_universal_clause_becomes_empty(self):
        assert reduce(matrix_of((3,)), 3) == EMPTY_CLAUSE_MATRIX

    def test_final_qparity2_step(self):
        assert reduce(UNIT_U_NEG, 3) == EMPTY_CLAUSE_MATRIX
        assert reduce(UNIT_U_POS, 3) == EMPTY_CLAUSE_MATRIX

    def test_absent_variable_is_identity(self):
        m = matrix_of((1, 2))
        assert reduce(m, 5) == m


class TestStrategyExtension:
    def test_constant_strategies_for_independent_existential(self, qp2_setup):
        q, _, d = qp2_setup
        out = extend({q.matrix}, d.dep(1), d)
        assert out == family({PSI_X1_0}, {PSI_X1_1})

    def test_qparity2_x2_outputs_deduplicate(self, qp2_setup):
        q, _, d = qp2_setup
        deps = d.dep(2) - {1, 4}
        out1 = extend({RES_X1_0}, deps, d)
        out2 = extend({RES_X1_1}, deps, d)
        merged = out1 | out2
        assert merged == family({PSI_Z2_NEG}, {PSI_Z2_POS})
        assert {m for pi in merged for m in pi} == {PSI_Z2_NEG, PSI_Z2_POS}

    def test_empty_matrix_passes_through(self, qp2_setup):
        q, _, d = qp2_setup
        out = extend({Matrix(())}, d.dep(1), d)
        assert out == family({Matrix(())})

    def test_an_empty_set_gives_the_one_empty_set(self, qp2_setup):
        _, _, d = qp2_setup
        for tables in (StrategyShape.of(d.dep(1), d).tables(), ((), ())):
            assert strategy_extension(frozenset(), *tables) == family(set())
            outcomes = {}
            assert strategy_extension(frozenset(), *tables, outcomes) == family(set())
            assert outcomes == {}

    def test_a_passed_map_is_read_and_filled(self, qp2_setup, monkeypatch):
        # The first call restricts each matrix once per assignment and
        # keeps its outcome sets; a second call with the same map reads
        # them and restricts nothing.
        _, _, d = qp2_setup
        tables = StrategyShape.of(d.dep(2) - {1, 4}, d).tables()
        pi = frozenset({RES_X1_0, RES_X1_1})
        outcomes = {}
        first = strategy_extension(pi, *tables, outcomes)
        assert set(outcomes) == set(pi)
        assert first == strategy_extension(pi, *tables)

        def unreachable(*args):
            raise AssertionError("a matrix in the map was restricted again")

        monkeypatch.setattr(derivation, "restrict", unreachable)
        assert strategy_extension(pi, *tables, outcomes) == first

    def test_universal_plays_enter_the_sets(self):
        # exists x forall u: dep(u) = {x, u}; each constant x-strategy must
        # answer both u-plays, so every output set holds the falsified and
        # the satisfied branch, and the two strategies collapse to one set.
        prefix = Prefix((("e", (1,)), ("a", (2,))))
        d = trivial_poset(prefix)
        m = matrix_of((1, 2), (-1, -2))
        out = extend({m}, d.dep(2), d)
        assert out == family({matrix_of(()), Matrix(())})

    def test_strategy_budget_is_enforced(self):
        # R4 at 7 removes all seven variables: 2^4 plays and, per matrix,
        # three existentials of 2^3 table bits each.
        prefix = Prefix((("a", (1, 2, 3)), ("e", (4, 5, 6)), ("a", (7,))))
        q = QbfInstance(prefix, matrix_of((1, 4), (2, 5), (3, 6), (7,)))
        state = initial_state(q, tuple(range(7, 0, -1)), frozenset({7}), trivial_poset(prefix))
        with pytest.raises(ResourceLimitError, match=r"up to 7 needs 2\^28 branches"):
            step(state, EngineLimits(max_strategies=64))

    def test_a_step_over_40_dependencies_trips_the_branch_limit_at_once(self, monkeypatch):
        # forall 1..39 exists 40, forgetting 40 first: its R4 step removes
        # all 40 variables, so a table of its 2^40 full assignments could
        # not be built; the branch limit must trip before anything is.
        prefix = Prefix((("a", tuple(range(1, 40))), ("e", (40,))))
        q = QbfInstance(prefix, matrix_of(range(1, 41)))
        d = trivial_poset(prefix)
        state = initial_state(q, tuple(range(40, 0, -1)), frozenset({40}), d)
        assert state.untouched.plan[0][:3] == (40, "R4", frozenset(range(1, 41)))

        def unreachable(shape):
            raise AssertionError("tables built before the branch limit check")

        monkeypatch.setattr(derivation.StrategyShape, "tables", unreachable)
        with pytest.raises(ResourceLimitError, match=r"up to 40 needs 2\^\d+ branches"):
            step(state, EngineLimits(max_strategies=64))

    def test_an_empty_set_builds_no_tables(self, monkeypatch):
        # exists 1..40 forall 41: one universal, but 40 table bits per
        # matrix.  A family of only the empty set branches 2^1 ways, so the
        # limit passes and only skipping tables() for it keeps the step
        # from listing 2^41 assignments.
        prefix = Prefix((("e", tuple(range(1, 41))), ("a", (41,))))
        q = QbfInstance(prefix, matrix_of(range(1, 42)))
        order = (41, *range(40, 0, -1))
        plan = initial_state(q, order, frozenset({41}), trivial_poset(prefix)).untouched.plan
        shape = plan[0][3]
        assert (shape.n_universal, shape.own_bits) == (1, 40)

        def unreachable(shape):
            raise AssertionError("tables built for an empty set")

        monkeypatch.setattr(derivation.StrategyShape, "tables", unreachable)
        state = DerivationState(family(set()), 0, UntouchedStore(frozenset(), plan))
        after, event = step(state, EngineLimits(max_strategies=64))
        assert after.family == family(set()) and event.rule == "R4"

    def test_tables_read_each_existentials_own_universals(self):
        # forall 1 2 exists 3 4 forall 5 where 3 sees only 1 and 4 only 2:
        # a table entry read from the wrong universal changes the output.
        prefix = Prefix((("a", (1, 2)), ("e", (3, 4)), ("a", (5,))))
        d = poset_from_pairs(prefix, [(1, 3), (2, 4), (3, 5), (4, 5)])
        functions = list(itertools.product((0, 1), repeat=2))  # (f(0), f(1))

        def reference(pi):
            per_matrix = [
                [
                    frozenset(
                        restrict(m, *literal_sets({1: a, 2: b, 5: c, 3: f3[a], 4: f4[b]}))
                        for a, b, c in itertools.product((0, 1), repeat=3)
                    )
                    for f3 in functions
                    for f4 in functions
                ]
                for m in pi
            ]
            return {frozenset().union(*sets) for sets in itertools.product(*per_matrix)}

        # Every output matrix is variable-free; clauses of two or three
        # literals tie existentials to universals often enough that reading
        # a table with the wrong universal changes some outputs.
        rng = random.Random(0)
        for _ in range(200):
            pi = set()
            for _ in range(rng.randint(1, 2)):
                clauses = [
                    [rng.choice((1, -1)) * x for x in rng.sample(range(1, 6), rng.randint(2, 3))]
                    for _ in range(rng.randint(2, 6))
                ]
                pi.add(matrix_of(*clauses))
            assert extend(pi, d.dep(5), d) == reference(pi)


def reference_table(n_universal, owns):
    """The answers of strategy_extension's docstring, entry by entry: play
    b sets universal i to bit i of b; x_j's table answers b with its bit
    numbered by b's bits on x_j's own universals, and that answer is bit
    n_universal + j of the full assignment."""
    rows = []
    for tables in itertools.product(*(range(2 ** 2 ** len(own)) for own in owns)):
        row = []
        for b in range(2**n_universal):
            full = b
            for j, (own, table) in enumerate(zip(owns, tables)):
                k = sum(((b >> i) & 1) << pos for pos, i in enumerate(own))
                full |= ((table >> k) & 1) << (n_universal + j)
            row.append(full)
        rows.append(tuple(row))
    return tuple(rows)


def small_shapes():
    """Every (universal count, own sets) with at most 3 universal and 3
    existential dependencies and at most 2^12 table entries."""
    for n_universal in range(4):
        subsets = [
            own
            for size in range(n_universal + 1)
            for own in itertools.combinations(range(n_universal), size)
        ]
        for n_existential in range(4):
            for owns in itertools.product(subsets, repeat=n_existential):
                if n_universal + sum(2 ** len(own) for own in owns) <= 12:
                    yield n_universal, owns


class TestStrategyTable:
    def test_every_small_shape_matches_the_definition(self):
        shapes = list(small_shapes())
        assert len(shapes) == 398
        for n_universal, owns in shapes:
            assert derivation._cached_strategy_table(n_universal, owns) == reference_table(
                n_universal, owns
            )

    def test_assignment_n_sets_the_ith_dependency_to_bit_i_of_n(self):
        # Every shape of up to 4 dependencies; the universals take larger
        # ids than the existentials, so ``order`` is not ascending.
        shapes = 0
        for k in range(5):
            for n_universal in range(k + 1):
                subsets = [
                    own
                    for size in range(n_universal + 1)
                    for own in itertools.combinations(range(n_universal), size)
                ]
                order = tuple(range(11, 11 + n_universal)) + tuple(range(1, 1 + k - n_universal))
                for owns in itertools.product(subsets, repeat=k - n_universal):
                    bits = sum(2 ** len(own) for own in owns)
                    _, assignments = StrategyShape(n_universal, order, owns, bits).tables()
                    assert len(assignments) == 2**k
                    for n, pair in enumerate(assignments):
                        want = literal_sets({x: n >> i & 1 for i, x in enumerate(order)})
                        assert pair == want, (order, n)
                    shapes += 1
        assert shapes == 51

    def test_output_is_the_same_with_the_cache_cleared_and_warm(self):
        # Every shape with at most two universals before v and three
        # existentials; the ones of more than 2^12 entries are not cached.
        rng = random.Random(5)
        cache = derivation._cached_strategy_table
        for n_universal in range(3):
            subsets = [
                own
                for size in range(n_universal + 1)
                for own in itertools.combinations(range(n_universal), size)
            ]
            for n_existential in range(4):
                for owns in itertools.product(subsets, repeat=n_existential):
                    pi, v, d = shape_instance(n_universal, owns, rng)
                    # universal_dep holds v as well as the n_universal others.
                    cached = n_universal + 1 + sum(2 ** len(own) for own in owns) <= 12
                    cache.cache_clear()
                    cold = extend(pi, d.dep(v), d)
                    assert cache.cache_info().currsize == int(cached)
                    hits = cache.cache_info().hits
                    warm = extend(pi, d.dep(v), d)
                    assert cache.cache_info().hits == hits + int(cached)
                    assert cold == warm

    def test_large_tables_are_not_kept(self):
        # Ten distinct shapes of 2^13 entries (11 universals with v, one
        # existential seeing one of them), about 3 MB of tables together;
        # none may outlive its call.
        rng = random.Random(6)
        shapes = [(10, ((i,),)) for i in range(10)]
        instances = [shape_instance(n, owns, rng, n_matrices=1) for n, owns in shapes]
        tracemalloc.start()
        try:
            for pi, v, d in instances:
                extend(pi, d.dep(v), d)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000, kept


def shape_instance(n_universal, owns, rng, n_matrices=None):
    """(pi, v, poset) of forall U exists X forall v whose R4 step
    at v has the given shape: each x_j precedes v and sees the universals
    of its own set ``owns[j]``.  pi holds random 2-literal clauses.

    Without any x_j the existential block holds w = v + 1 alone, so that
    the universals are still quantified left of v; w precedes nothing and
    occurs in no clause."""
    universals = tuple(range(1, n_universal + 1))
    existentials = tuple(range(n_universal + 1, n_universal + len(owns) + 1))
    v = n_universal + len(owns) + 1
    prefix = Prefix(
        tuple(
            (q, block)
            for q, block in (("a", universals), ("e", existentials or (v + 1,)), ("a", (v,)))
            if block
        )
    )
    pairs = [(u, v) for u in universals + existentials]
    pairs += [(universals[i], x) for x, own in zip(existentials, owns) for i in own]
    d = poset_from_pairs(prefix, pairs)
    if n_matrices is None:
        n_matrices = 2 if sum(2 ** len(own) for own in owns) <= 6 else 1
    variables = range(1, v + 1)
    pi = frozenset(
        matrix_of(
            *(
                [rng.choice((1, -1)) * x for x in rng.sample(variables, min(2, v))]
                for _ in range(3)
            )
        )
        for _ in range(n_matrices)
    )
    return pi, v, d


class TestStepDispatch:
    def test_qparity2_rule_sequence(self, qp2_setup):
        q, td, d = qp2_setup
        state = initial_state(*validate_input(q, td, d), d)
        rules = []
        for _ in range(5):
            state, event = step(state)
            rules.append(event.rule)
        assert rules == ["R4", "R2", "R4", "R2", "R3"]

    def test_r4_fires_when_a_dependent_shares_the_forget_bag(self, qp2_setup):
        q, td, d = qp2_setup
        state, event = step(initial_state(*validate_input(q, td, d), d))
        assert (event.variable, event.rule) == (1, "R4")
        assert state.live == {2, 3, 4, 5}

    def test_r2_resolves_in_every_set(self, qp2_setup):
        q, td, d = qp2_setup
        state = at_step(qp2_setup, family({PSI_X1_0}, {PSI_X1_1}), 1)
        assert state.live == q.prefix.variables - {1}
        state, event = step(state)
        assert (event.variable, event.rule) == (4, "R2")
        assert state.family == family({RES_X1_0}, {RES_X1_1})

    def test_r3_reduces_to_empty_clauses(self, qp2_setup):
        q, td, d = qp2_setup
        state = at_step(qp2_setup, family({UNIT_U_NEG}, {UNIT_U_POS}), 4)
        assert state.live == {3}
        state, event = step(state)
        assert (event.variable, event.rule) == (3, "R3")
        assert state.family == family({EMPTY_CLAUSE_MATRIX})


class TestGoldenQParity2:
    def test_intermediate_families(self, qp2_setup):
        q, td, d = qp2_setup
        state = initial_state(*validate_input(q, td, d), d)
        seen = []
        for _ in range(5):
            state, _ = step(state)
            seen.append(state.whole_family())
        assert seen[0] == family({PSI_X1_0}, {PSI_X1_1})
        assert seen[1] == family({RES_X1_0}, {RES_X1_1})
        assert seen[2] == family({PSI_Z2_NEG}, {PSI_Z2_POS})
        assert seen[3] == family({UNIT_U_NEG}, {UNIT_U_POS})
        assert seen[4] == family({EMPTY_CLAUSE_MATRIX})

    def test_verdict_false(self, qp2_setup):
        q, td, d = qp2_setup
        assert run_derivation(q, td, d).verdict is False


class TestRunDerivation:
    def test_satisfiable_unit(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,)))
        assert run_derivation(q, single_bag_td(q), trivial_poset(q.prefix)).verdict

    def test_qparity_family_is_false(self):
        for n in (2, 3, 4):
            q = qparity(n)
            result = run_derivation(q, qparity_td(n), trivial_poset(q.prefix), checks=True)
            assert result.verdict is False

    def test_r1_after_strategy_extension_on_a_universal(self):
        # exists x forall u exists z . (z=x) and (z=u): forgetting u first
        # forces R4 with a real universal play set, removes x from the
        # prefix and leaves the x-step to R1.
        q = QbfInstance(
            Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))),
            matrix_of((1, -3), (-1, 3), (2, -3), (-2, 3)),
        )
        td = TrunkTreeDecomposition(
            {1: (), 2: (1,), 3: (1, 3), 4: (1, 3, 2), 5: (1, 3), 6: (1,), 7: ()},
            {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7},
            7,
            (1, 2, 3, 4, 5, 6, 7),
        )
        d = trivial_poset(q.prefix)
        result = run_derivation(q, td, d, checks=True)
        assert [e.rule for e in result.trace] == ["R4", "R2", "R1"]
        assert result.verdict is False
        assert evaluate(q) is False

    def test_tautologies_are_preprocessed_away(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,), (1, -1)))
        assert run_derivation(q, single_bag_td(q), trivial_poset(q.prefix)).verdict

    def test_validate_input_keeps_an_instance_without_tautologies(self):
        q = qparity(3)
        td, d = qparity_td(3), trivial_poset(q.prefix)
        assert derivation.validate_input(q, td, d)[0] is q
        tautology = frozenset({1, -1, 4})
        with_tautology = QbfInstance(q.prefix, Matrix._of(q.matrix | {tautology}))
        cleaned = derivation.validate_input(with_tautology, td, d)[0]
        assert cleaned is not with_tautology
        assert cleaned == q

    def test_validation_failure_raises(self):
        with pytest.raises(ValidationError) as info:
            run_derivation(XUZ, UNALIGNED_TD, trivial_poset(XUZ.prefix))
        assert "trunk-aligned" in str(info.value)

    def test_poset_over_other_variables_is_rejected(self):
        # Unchecked, a smaller prefix's poset fails deep in the run with a
        # KeyError and a larger one's reads as "not trunk-aligned".
        q = qparity(2)
        for other, shown in (
            (Prefix((("e", (1, 2)), ("a", (3,)))), "Prefix(e[1, 2] a[3])"),
            (qparity(3).prefix, "Prefix(e[1, 2, 3] a[4] e[5, 6, 7])"),
        ):
            with pytest.raises(ValidationError) as info:
                run_derivation(q, qparity_td(2), trivial_poset(other))
            assert str(info.value) == (
                f"poset is for {shown}, the instance's prefix is Prefix(e[1, 2] a[3] e[4, 5])"
            )

    def test_poset_for_another_prefix_is_rejected(self):
        # forall 1 exists 2 (1 | 2)(-1 | -2) is true; posets for exists 2
        # forall 1 let 2 depend on 1 and made the run answer false.
        q = QbfInstance(Prefix([("a", [1]), ("e", [2])]), matrix_of((1, 2), (-1, -2)))
        assert evaluate(q)
        other = Prefix([("e", [2]), ("a", [1])])
        message = "poset is for Prefix(e[2] a[1]), the instance's prefix is Prefix(a[1] e[2])"
        for poset in (poset_from_pairs(other, [(2, 1)]), trivial_poset(other)):
            with pytest.raises(ValidationError) as info:
                run_derivation(q, single_bag_td(q), poset)
            assert str(info.value) == message
            with pytest.raises(ValidationError) as info:
                validate_input(q, single_bag_td(q), poset)
            assert str(info.value) == message
        assert run_derivation(q, single_bag_td(q), trivial_poset(q.prefix)).verdict

    def test_family_limit_aborts(self, qp2_setup):
        q, td, d = qp2_setup
        with pytest.raises(ResourceLimitError):
            run_derivation(q, td, d, EngineLimits(max_family_size=1))

    def test_a_family_as_large_as_the_limit_completes(self, qp2_setup):
        # The limit bounds the family's size inclusively.
        q, td, d = qp2_setup
        trace = run_derivation(q, td, d).trace
        largest = max(e.family_after for e in trace)
        assert largest >= 2
        result = run_derivation(q, td, d, EngineLimits(max_family_size=largest))
        assert [e[:6] for e in result.trace] == [e[:6] for e in trace]
        with pytest.raises(ResourceLimitError, match=f"sets, limit is {largest - 1}$"):
            run_derivation(q, td, d, EngineLimits(max_family_size=largest - 1))

    def test_a_matrix_as_large_as_the_limit_completes(self, monkeypatch):
        # The limit bounds the clauses of every matrix R2 builds
        # inclusively; one clause more aborts the run at the first step
        # that built such a matrix, with the steps before it in the trace.
        q = random_instance(2, 6, 14, 3, 1)
        td, d = single_bag_td(q), trivial_poset(q.prefix)
        built = []  # per step, the clause counts of the matrices R2 built
        real_step, real_resolve = derivation.step, derivation.resolve

        def recorded_step(*args):
            built.append([0])
            return real_step(*args)

        def recorded_resolve(*args):
            matrix = real_resolve(*args)
            built[-1].append(len(matrix))
            return matrix

        with monkeypatch.context() as patch:
            patch.setattr(derivation, "step", recorded_step)
            patch.setattr(derivation, "resolve", recorded_resolve)
            trace = run_derivation(q, td, d).trace
        largest = max(map(max, built))
        assert largest >= 8 and [e.rule for e in trace] == ["R2"] * 6
        result = run_derivation(q, td, d, EngineLimits(max_matrix_size=largest))
        assert [e[:6] for e in result.trace] == [e[:6] for e in trace]
        first = next(i for i, sizes in enumerate(built) if max(sizes) == largest)
        v = trace[first].variable
        message = f"^step {first + 1}, variable {v}: a matrix has {largest} clauses, "
        with pytest.raises(ResourceLimitError, match=message + f"limit is {largest - 1}$") as info:
            run_derivation(q, td, d, EngineLimits(max_matrix_size=largest - 1))
        assert [e[:6] for e in info.value.trace] == [e[:6] for e in trace[:first]]

    def test_set_limit_aborts(self):
        # Strategy extension at u answers two universal plays, so the
        # produced sets hold two matrices each.
        q = QbfInstance(
            Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))),
            matrix_of((1, -3), (-1, 3), (2, -3), (-2, 3)),
        )
        td = TrunkTreeDecomposition(
            {1: (), 2: (1,), 3: (1, 3), 4: (1, 3, 2), 5: (1, 3), 6: (1,), 7: ()},
            {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7},
            7,
            (1, 2, 3, 4, 5, 6, 7),
        )
        with pytest.raises(ResourceLimitError):
            run_derivation(q, td, trivial_poset(q.prefix), EngineLimits(max_set_size=1))

    def test_set_limit_names_the_largest_set(self, qp2_setup):
        # An R1 step keeps the family, so the limit check sees both sets.
        q, _, d = qp2_setup
        r1_plan = ((1, "R1", frozenset(), None),)
        seen_first = set()
        for k in range(2, 8):
            small = {matrix_of((2, 4)), matrix_of((k + 1,))}
            large = small | {matrix_of((-2,)), matrix_of((3, 5))}
            fam = family(small, large)
            seen_first.add(len(next(iter(fam))))
            state = DerivationState(fam, 0, UntouchedStore(frozenset(), r1_plan))
            with pytest.raises(ResourceLimitError, match="set has 4 matrices, limit is 1"):
                step(state, EngineLimits(max_set_size=1))
        assert seen_first == {2, 4}  # both hash orders were tried

    def test_branch_limit_names_the_largest_set(self, qp2_setup):
        # R4 at x1 branches 2^|set| ways; both sets exceed the limit,
        # and the message names the larger count whatever the hash order.
        q, td, d = qp2_setup
        seen_first = set()
        for k in range(1, 6):
            small = {matrix_of((k,))}
            large = small | {matrix_of((1, 4))}
            fam = family(small, large)
            seen_first.add(len(next(iter(fam))))
            with pytest.raises(ResourceLimitError, match=r"needs 2\^2 branches, limit is 1$"):
                step(at_step(qp2_setup, fam, 0), EngineLimits(max_strategies=1))
        assert seen_first == {1, 2}

    def test_a_larger_set_trips_the_branch_limit_before_any_extension(
        self, qp2_setup, monkeypatch
    ):
        # R4 at x1 branches 2^|set| ways: the one-matrix set passes a limit
        # of 2 and the two-matrix set trips it, whatever the hash order,
        # before strategy_extension sees any set.
        calls = []
        monkeypatch.setattr(derivation, "strategy_extension", lambda *args: calls.append(args))
        seen_first = set()
        for k in range(1, 6):
            small = {matrix_of((k,))}
            fam = family(small, small | {matrix_of((1, 4))})
            seen_first.add(len(next(iter(fam))))
            with pytest.raises(ResourceLimitError, match=r"needs 2\^2 branches, limit is 2$"):
                step(at_step(qp2_setup, fam, 0), EngineLimits(max_strategies=2))
        assert seen_first == {1, 2}
        assert calls == []

    def test_branch_limit_names_the_r4_variable_not_its_largest_dependency(self):
        # exists 5 forall 4 exists 1 2: 4 depends on the larger id 5, and
        # its forget bag holds its dependent 1, so R4 fires on 4 first.
        q = QbfInstance(
            Prefix((("e", (5,)), ("a", (4,)), ("e", (1, 2)))),
            matrix_of((5, 4, 1), (-1, 2)),
        )
        td = path_td([(), (5,), (5, 4), (5, 4, 1), (5, 1), (1,), (1, 2), (2,), ()])
        d = trivial_poset(q.prefix)
        assert [e.rule for e in run_derivation(q, td, d).trace] == ["R4", "R1", "R2", "R2"]
        limit = EngineLimits(max_strategies=1)
        with pytest.raises(ResourceLimitError) as info:
            run_derivation(q, td, d, limit)
        assert str(info.value) == (
            "step 1, variable 4: strategy extension up to 4 needs 2^2 branches, limit is 1"
        )

    def test_deterministic_traces_and_verdicts(self, qp2_setup):
        q, td, d = qp2_setup
        a = run_derivation(q, td, d)
        b = run_derivation(q, td, d)
        strip = lambda t: [(e.step, e.variable, e.rule, e.family_before, e.family_after, e.max_set_size) for e in t]
        assert strip(a.trace) == strip(b.trace)
        assert a.final == b.final


def with_a_tautology(q, seed):
    """The instance with one tautological clause (x or -x or y) added."""
    rng = random.Random(seed)
    variables = sorted(q.prefix.variables)
    x, y = rng.choice(variables), rng.choice(variables)
    tautology = frozenset({x, -x, rng.choice((1, -1)) * y})
    return QbfInstance(q.prefix, Matrix._of(q.matrix | {tautology}))


class TestKernelPrecondition:
    """The kernels trust their input to be tautology-free; every call a
    run makes must meet that, on inputs that hold tautologies too."""

    def test_every_kernel_call_of_a_run_gets_tautology_free_matrices(self, monkeypatch):
        calls = dict.fromkeys(("resolve", "reduce", "strategy_extension"), 0)
        broken = []

        def checked(name, matrices_of):
            kernel = getattr(derivation, name)

            def wrapper(first, *args):
                calls[name] += 1
                if any(is_tautological(c) for m in matrices_of(first) for c in m):
                    broken.append(name)
                return kernel(first, *args)

            monkeypatch.setattr(derivation, name, wrapper)

        checked("resolve", lambda m: (m,))
        checked("reduce", lambda m: (m,))
        checked("strategy_extension", lambda pi: pi)

        cases = []
        for seed in range(60):
            q = random_instance(seed, 2 + seed % 6, 1 + seed % 8, 1 + seed % 3, 1 + seed % 4)
            cases.append((seed, q, single_bag_td(q)))
        cases += shuffled_path_cases()
        cases += join_node_cases()
        cases += [(n, qparity(n), qparity_td(n)) for n in range(2, 9)]
        runs = 0
        for seed, q, td in cases:
            d = trivial_poset(q.prefix)
            tautological = with_a_tautology(q, seed)
            try:
                result = run_derivation(tautological, td, d, R4_LIMITS)
            except (ResourceLimitError, ValidationError):
                continue
            assert result.verdict == evaluate(tautological) == evaluate(q), seed
            runs += 1
        assert broken == []
        assert runs >= 600 and min(calls.values()) >= 500, (runs, calls)


class TestOneStrategyExtensionPerSet:
    """``step`` calls the module's ``strategy_extension`` once per set of
    an R4 step, so a wrapper of it (the benchmark's hooks, the test above)
    sees every set."""

    @staticmethod
    def counted_runs(monkeypatch, cases):
        """(seed, calls, sum of family_before over R4 events) per finished run."""
        calls = []
        real = derivation.strategy_extension

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(derivation, "strategy_extension", counted)
        for seed, q, td in cases:
            calls.clear()
            try:
                result = run_derivation(q, td, trivial_poset(q.prefix), R4_LIMITS)
            except ResourceLimitError:
                continue
            yield seed, len(calls), sum(e.family_before for e in result.trace if e.rule == "R4")

    def test_qparity_calls_it_2n_minus_1_times(self, monkeypatch):
        cases = [(n, qparity(n), qparity_td(n)) for n in range(2, 17)]
        runs = list(self.counted_runs(monkeypatch, cases))
        assert [(n, calls, sets) for n, calls, sets in runs] == [
            (n, 2 * n - 1, 2 * n - 1) for n in range(2, 17)
        ]

    def test_qparity_builds_one_shape_per_r4_step(self, monkeypatch):
        # qparity(n) has n R4 steps and 2n - 1 sets over them: initial_state
        # plans the n shapes, the steps build none, and each step builds
        # its tables once and shares them among its sets.
        built = {"shapes": 0, "planned": 0, "tables": 0}
        real_of, real_tables = derivation.StrategyShape.of, derivation.StrategyShape.tables
        real_plan = derivation.initial_state

        def of(cls, *args):
            built["shapes"] += 1
            return real_of(*args)

        def tables(shape):
            built["tables"] += 1
            return real_tables(shape)

        def plan(*args):
            state = real_plan(*args)
            built["planned"] = built["shapes"]
            return state

        monkeypatch.setattr(derivation.StrategyShape, "of", classmethod(of))
        monkeypatch.setattr(derivation.StrategyShape, "tables", tables)
        monkeypatch.setattr(derivation, "initial_state", plan)
        cases = [(n, qparity(n), qparity_td(n)) for n in range(2, 17)]
        runs = []
        for n, calls, sets in self.counted_runs(monkeypatch, cases):
            runs.append((n, built["planned"], built["shapes"], built["tables"], calls, sets))
            built.update(shapes=0, tables=0)
        assert runs == [(n, n, n, n, 2 * n - 1, 2 * n - 1) for n in range(2, 17)]

    def test_shuffled_paths_call_it_once_per_set(self, monkeypatch):
        runs = list(self.counted_runs(monkeypatch, shuffled_path_cases()))
        assert [(seed, calls) for seed, calls, _ in runs] == [
            (seed, sets) for seed, _, sets in runs
        ]
        assert len(runs) >= 200 and sum(calls for _, calls, _ in runs) >= 500


CORPORA = ("shuffled paths", "join nodes", "sub-posets")


def aligned_cases(corpus):
    """(seed, instance, td, poset) of a corpus, with the trivial poset
    where the corpus gives none."""
    if corpus == "sub-posets":
        return sub_poset_cases()
    cases = shuffled_path_cases() if corpus == "shuffled paths" else join_node_cases()
    return [(seed, q, td, trivial_poset(q.prefix)) for seed, q, td in cases]


def steps_of(cases):
    """(seed, state before, its rule) for every step that completes under
    ``R4_LIMITS`` on a valid case, and the state after it."""
    for seed, q, td, d in cases:
        try:
            state = initial_state(*validate_input(q, td, d), d)
        except ValidationError:
            continue
        for _ in state.untouched.plan:
            try:
                after, event = step(state, R4_LIMITS)
            except ResourceLimitError:
                break
            yield seed, state, event.rule, after
            state = after


class TestOneKernelCallPerDistinctMatrix:
    """``step`` calls each kernel once per distinct matrix of its family,
    and shares the result among the sets that hold the matrix."""

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_steps_match_the_per_occurrence_reference(self, corpus):
        steps, shared = Counter(), 0
        for seed, state, rule, after in steps_of(aligned_cases(corpus)):
            assert after.family == reference_family(state), (seed, state.step_index)
            matrices = [m for pi in state.family for m in pi]
            shared += rule != "R1" and len(matrices) > len(set(matrices))
            steps[rule] += 1
        assert min(steps["R2"], steps["R3"], steps["R4"], shared) >= 50, (steps, shared)

    def test_an_r4_step_restricts_each_distinct_matrix_once_per_assignment(self, monkeypatch):
        calls = 0
        real = derivation.restrict

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(derivation, "restrict", counted)
        r4 = shared = 0
        cases = [case for corpus in CORPORA for case in aligned_cases(corpus)]
        for seed, q, td, d in cases:
            try:
                state = initial_state(*validate_input(q, td, d), d)
            except ValidationError:
                continue
            for _, rule, _, shape in state.untouched.plan:
                calls = 0
                try:
                    after, _ = step(state, R4_LIMITS)
                except ResourceLimitError:
                    break
                if rule == "R4":
                    distinct = {m for pi in state.family for m in pi}
                    assert calls == len(distinct) * 2 ** len(shape.order), (seed, state.step_index)
                    r4 += 1
                    shared += sum(map(len, state.family)) > len(distinct)
                state = after
        assert r4 >= 1000 and shared >= 40, (r4, shared)


class TestRuleDecidedInValidation:
    """P1 is computed once per variable, by ``validate_trunk_aligned`` from
    the stored strict sets (it builds a dependents set only to name the
    offenders of a failing variable), and R4's shapes once per run, by
    ``initial_state``; without checks, no step reads the decomposition, a
    dependents set or a strict dependency set."""

    def test_the_step_path_reads_no_decomposition_fact(self, monkeypatch):
        forget_calls = []
        dependents = {"validation": 0, "steps": 0}
        strict = {"planning": 0, "steps": 0}
        planning = []
        real_forget = derivation.forget_node
        real_dependents = DependencyPoset.dependents_strict
        real_strict = DependencyPoset.strict

        def counted_forget(*args):
            forget_calls.append(args)
            return real_forget(*args)

        def counted_dependents(poset, u, within):
            dependents["validation" if planning else "steps"] += 1
            return real_dependents(poset, u, within)

        def counted_strict(poset, v):
            strict["planning" if planning else "steps"] += 1
            return real_strict(poset, v)

        def planned(real):
            def wrapper(*args):
                planning.append(True)
                try:
                    return real(*args)
                finally:
                    planning.pop()

            return wrapper

        monkeypatch.setattr(derivation, "forget_node", counted_forget)
        monkeypatch.setattr(DependencyPoset, "dependents_strict", counted_dependents)
        monkeypatch.setattr(DependencyPoset, "strict", counted_strict)
        for name in ("validate_input", "initial_state"):
            monkeypatch.setattr(derivation, name, planned(getattr(derivation, name)))
        rules = []
        for seed, q, td in [(16, qparity(16), qparity_td(16)), *shuffled_path_cases()]:
            dependents.update(validation=0, steps=0)
            strict.update(planning=0, steps=0)
            try:
                trace = run_derivation(q, td, trivial_poset(q.prefix), R4_LIMITS).trace
            except ResourceLimitError as exc:
                trace = exc.trace
            rules += [e.rule for e in trace]
            assert dependents == {"validation": 0, "steps": 0}, seed
            assert strict["planning"] > 0 and strict["steps"] == 0, seed
        assert forget_calls == []
        assert set(rules) == {"R1", "R2", "R3", "R4"} and rules.count("R4") >= 200

    def test_the_plan_matches_a_live_set_reference(self):
        # The reference applies the side condition to a live set step by
        # step; the engine plans from the variables validation found.
        trivial = lambda cases: [(seed, q, td, trivial_poset(q.prefix)) for seed, q, td in cases]
        cases = trivial(shuffled_path_cases()) + trivial(join_node_cases())
        rules = []
        for seed, q, td, d in cases + list(sub_poset_cases()):
            try:
                cleaned, ordering, branching = validate_input(q, td, d)
            except ValidationError:
                continue  # a join-node decomposition that is not trunk-aligned
            plan = initial_state(cleaned, ordering, branching, d).untouched.plan
            expected = reference_plan(cleaned, td, d, ordering)
            assert list(plan) == expected, seed
            rules += [rule for _, rule, _, _ in expected]
        assert set(rules) == {"R1", "R2", "R3", "R4"} and rules.count("R4") >= 500


class TestInvariantChecks:
    @staticmethod
    def check(state, td, d):
        """Apply the state's next step, check it and return the result."""
        after, event = step(state)
        derivation._check_step(state, after, event, td, d, set(state.live))
        return after

    def test_neighborhood_holds_along_qparity2(self, qp2_setup):
        q, td, d = qp2_setup
        state = initial_state(*validate_input(q, td, d), d)
        for _ in range(5):
            state = self.check(state, td, d)

    def test_neighborhood_size_bounded_by_width(self, qp2_setup):
        from trunkqbf import width

        q, td, d = qp2_setup
        bound = width(td)
        _, ordering, branching = validate_input(q, td, d)
        state = initial_state(q, ordering, branching, d)
        for v in ordering:
            for pi in state.whole_family():
                for m in pi:
                    neighbors = set()
                    for c in m.clauses:
                        if v in c.variables():
                            neighbors |= c.variables() - {v}
                    assert len(neighbors) <= bound
            state, _ = step(state)

    def test_neighborhood_violation_detected(self, qp2_setup):
        q, td, d = qp2_setup
        # x1's forget bag is {x1, z1}; a clause pairing x1 with u breaks it.
        poisoned = at_step(qp2_setup, frozenset({frozenset({matrix_of((1, 3))})}), 0)
        with pytest.raises(InvariantError, match="step 1, variable 1: a matrix neighbor"):
            self.check(poisoned, td, d)

    def test_empty_family_is_vacuously_fine(self, qp2_setup):
        _, td, d = qp2_setup
        self.check(at_step(qp2_setup, frozenset(), 0), td, d)

    def test_r4_assertion_on_qparity2(self, qp2_setup):
        q, td, d = qp2_setup
        state = initial_state(*validate_input(q, td, d), d)
        branched = []
        for _ in range(3):
            v, rule, _, _ = state.untouched.plan[state.step_index]
            if rule == "R4":
                branched.append((v, state.live))
            state = self.check(state, td, d)
        # step 3 fires R4 on x2 with x1 and z1 already gone
        assert branched == [(1, q.prefix.variables), (2, q.prefix.variables - {1, 4})]

    def test_r4_assertion_violation(self):
        # dep(u) contains x but x is not in u's forget bag.
        d = trivial_poset(XUZ.prefix)
        ordering = elimination_ordering(UNALIGNED_TD)
        state = initial_state(XUZ, ordering, frozenset({2}), d)
        with pytest.raises(InvariantError, match="step 1, variable 2: a dependency of R4"):
            self.check(state, UNALIGNED_TD, d)


class TestChecksInRunDerivation:
    """Each invariant behind ``checks`` fires through ``run_derivation``
    on an input that breaks it, and only when checks are on."""

    EDGE = QbfInstance(Prefix((("e", (1, 2)),)), matrix_of((1, 2)))

    @staticmethod
    def run(q, td, checks):
        return run_derivation(q, td, trivial_poset(q.prefix), checks=checks)

    @staticmethod
    def plan(monkeypatch, property_held):
        """Stub trunk alignment with a report that holds the given
        properties, so validation plans R4 on the "P2" variables."""
        report = ValidationReport((), property_held)
        monkeypatch.setattr(derivation, "validate_trunk_aligned", lambda *_: report)

    @pytest.mark.parametrize("checks", [True, False])
    def test_r4_dependency_outside_the_forget_bag(self, monkeypatch, checks):
        # u (2) depends on x (1), which its forget bag {u, z} lacks.
        self.plan(monkeypatch, {2: "P2"})
        if checks:
            with pytest.raises(InvariantError, match="step 1, variable 2: a dependency of R4"):
                self.run(XUZ, UNALIGNED_TD, checks)
        else:
            assert self.run(XUZ, UNALIGNED_TD, checks).trace[0].rule == "R4"

    def test_r2_planned_where_a_live_dependent_shares_the_forget_bag(self, monkeypatch):
        # qparity(2)'s x1 (1) fails P1: z1 (4) depends on it and sits in
        # its forget bag.  A report that plans R2 for x1 is caught at step 1.
        q = qparity(2)
        self.plan(monkeypatch, {1: "P1", 2: "P2", 3: "P1P2", 4: "P1", 5: "P1P2"})
        with pytest.raises(InvariantError, match="step 1, variable 1: R2 fired with a live"):
            run_derivation(q, qparity_td(2), trivial_poset(q.prefix), checks=True)

    @pytest.mark.parametrize("checks", [True, False])
    def test_neighbor_outside_the_forget_bag(self, monkeypatch, checks):
        # No bag holds both 1 and 2, yet the clause (1 2) joins them.
        monkeypatch.setattr(derivation, "validate_nice", lambda *_: ValidationReport())
        td = path_td([(), (1,), (), (2,), ()])
        if checks:
            with pytest.raises(InvariantError, match="variable 1: a matrix neighbor"):
                self.run(self.EDGE, td, checks)
        else:
            assert self.run(self.EDGE, td, checks).verdict is True

    @pytest.mark.parametrize("checks", [True, False])
    def test_resolve_that_leaves_the_pivot_behind(self, monkeypatch, checks):
        # The faulty resolve keeps the bucket's clause (1 2) with the pivot.
        # Resolving 2 later drops the pure clause (1 2), pivot 1 and all,
        # so only the check after step 1 can see the leftover.
        real = derivation.resolve
        monkeypatch.setattr(
            derivation,
            "resolve",
            lambda m, x, bucket=None: (
                Matrix._of(m.union(bucket[0])) if x == 1 else real(m, x, bucket)
            ),
        )
        td = path_td([(), (1,), (1, 2), (2,), ()])
        if checks:
            with pytest.raises(InvariantError, match=r"eliminated variables \[1\]"):
                self.run(self.EDGE, td, checks)
        else:
            assert self.run(self.EDGE, td, checks).verdict is True

    @pytest.mark.parametrize("checks", [True, False])
    def test_resolve_that_derives_a_tautology(self, monkeypatch, checks):
        # The kernels trust their input, so only the check after step 1
        # sees the tautology (2 -2) a faulty resolve adds.
        real = derivation.resolve
        tautology = frozenset({2, -2})
        monkeypatch.setattr(
            derivation,
            "resolve",
            lambda m, x, bucket=None: (
                Matrix._of(real(m, x, bucket) | {tautology}) if x == 1 else real(m, x, bucket)
            ),
        )
        td = path_td([(), (1,), (1, 2), (2,), ()])
        if checks:
            with pytest.raises(InvariantError, match=r"tautologies \[Clause\(\[-2, 2\]\)\]"):
                self.run(self.EDGE, td, checks)
        else:
            assert self.run(self.EDGE, td, checks).verdict is True

    @pytest.mark.parametrize("checks", [True, False])
    def test_touched_part_that_keeps_an_untouched_clause(self, monkeypatch, checks):
        # Step 1 resolves (1 2) and (-1 2) into (2), which is also the
        # stored clause (2) that step 2 pulls in; a touched part that
        # keeps it overlaps the untouched part.
        monkeypatch.setattr(UntouchedStore, "touched_part", lambda self, m, done: m)
        q = QbfInstance(Prefix((("e", (1, 2)),)), matrix_of((1, 2), (-1, 2), (2,)))
        td = path_td([(), (1,), (1, 2), (2,), ()])
        if checks:
            match = r"step 1, variable 1: the untouched clause Clause\(\[2\]\) is in a touched"
            with pytest.raises(InvariantError, match=match):
                self.run(q, td, checks)
        else:
            assert self.run(q, td, checks).verdict is True


class TestRuleBehaviour:
    def test_r2_r3_never_grow_the_family(self):
        for seed in range(30):
            q = random_instance(seed, 2 + seed % 7, 1 + seed % 10, 1 + seed % 3, 1 + seed % 4)
            result = run_derivation(q, single_bag_td(q), trivial_poset(q.prefix))
            for event in result.trace:
                if event.rule in ("R2", "R3"):
                    assert event.family_after <= event.family_before
                if event.rule == "R1":
                    assert event.family_after == event.family_before

    def test_exhaustive_elimination(self, qp2_setup):
        q, td, d = qp2_setup
        _, order, branching = validate_input(q, td, d)
        state = initial_state(q, order, branching, d)
        for i in range(1, len(order) + 1):
            state, _ = step(state)
            gone = set(order[:i])
            for pi in state.whole_family():
                for m in pi:
                    assert not (m.variables() & gone)

    def test_tautology_freeness_along_runs(self):
        for seed in range(20):
            q = random_instance(seed, 2 + seed % 6, 1 + seed % 8, 2, 1 + seed % 3)
            td = single_bag_td(q)
            d = trivial_poset(q.prefix)
            state = initial_state(*validate_input(q, td, d), d)
            for _ in state.untouched.plan:
                state, _ = step(state)
                for pi in state.whole_family():
                    for m in pi:
                        for c in m.clauses:
                            assert not any(-l in c.lits for l in c.lits)
