"""The untouched store of the derivation engine.

Every run keeps the input clauses no step has touched yet once per run,
outside the family.  The reference ``stepwise`` runs ``step`` on whole
matrices from a store that holds no clause; the two must give the same
whole matrices, traces and verdicts, and the oracle must agree on every
rule path and on decompositions with join nodes.
"""

import random
from collections import Counter

import pytest

from trunkqbf import (
    DerivationState,
    Matrix,
    Prefix,
    QbfInstance,
    ResourceLimitError,
    TrunkTreeDecomposition,
    evaluate,
    initial_state,
    is_tautological,
    matrix_of,
    parse_qdimacs,
    qparity,
    qparity_td,
    resolve,
    run_derivation,
    single_bag_td,
    step,
    trivial_poset,
    validate_trunk_aligned,
    write_btd,
)
from trunkqbf import InvariantError, derivation, formulas
from trunkqbf.cli import main
from trunkqbf.derivation import UntouchedStore, validate_input

from _util import (
    R4_LIMITS,
    join_node_cases,
    limit_kind,
    reference_r2,
    reference_r3,
    shuffled_path_cases,
    stepwise,
    sub_poset_cases,
)


def counts(trace):
    return [(e.rule, e.family_before, e.family_after, e.max_set_size) for e in trace]


def stored(q, td, d):
    result = run_derivation(q, td, d, R4_LIMITS, checks=True)
    return result.verdict, result.trace


def whole(q, td, d):
    verdict, trace, _ = stepwise(q, td, d, R4_LIMITS)
    return verdict, trace


def outcome(solve, q, td, d):
    """(verdict, step counts) of a solve, or the kind of limit it hit."""
    try:
        verdict, trace = solve(q, td, d)
    except ResourceLimitError as exc:
        return limit_kind(exc)
    return verdict, counts(trace)


def test_store_run_matches_stepwise_run_on_qparity():
    for n in range(2, 13):
        q = qparity(n)
        td, d = qparity_td(n), trivial_poset(q.prefix)
        verdict, trace, reference = stepwise(q, td, d)
        state = initial_state(*validate_input(q, td, d), d)
        for expected in reference:
            state, event = step(state)
            assert state.whole_family() == expected.family, (n, event.variable)
        result = run_derivation(q, td, d)
        assert result.verdict is verdict is False, n
        assert counts(result.trace) == counts(trace), n


def test_a_derived_copy_of_an_untouched_clause_is_dropped():
    # exists x forall u exists a . (x or a) and (a): strategy extension at x
    # derives (a) for x = 0 and satisfies (x or a) for x = 1.  Both whole
    # matrices are {(a)}, so the two branches must merge into one set.
    q = QbfInstance(
        Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))), matrix_of((1, 3), (3,))
    )
    td = TrunkTreeDecomposition(
        {1: (), 2: (1,), 3: (1, 3), 4: (3,), 5: (2, 3), 6: (2,), 7: ()},
        {t: t + 1 for t in range(1, 7)},
        7,
        tuple(range(1, 8)),
    )
    d = trivial_poset(q.prefix)
    result = run_derivation(q, td, d, checks=True)
    verdict, trace, _ = stepwise(q, td, d)
    assert counts(result.trace) == counts(trace) == [
        ("R4", 1, 1, 1), ("R2", 1, 1, 1), ("R3", 1, 1, 1)
    ]
    assert result.verdict is verdict is evaluate(q) is True


def bucket_states(rule):
    """Seeded states whose next step is ``rule``, R2 or R3, on a non-empty
    bucket, with two to four sets of two or three matrices.  The plan
    removes the variables 1..n one per step in a shuffled order.  In
    every other state the first bucket holds every stored clause, so it
    holds clauses without the step's variable too.  Yields (seed, state)."""
    for seed in range(240):
        rng = random.Random(seed)
        n = rng.randint(2, 5)

        def clause():
            width = rng.randint(1, min(3, n))
            return frozenset(x * rng.choice((1, -1)) for x in rng.sample(range(1, n + 1), width))

        plan = tuple((x, rule, frozenset({x}), None) for x in rng.sample(range(1, n + 1), n))
        store = UntouchedStore(frozenset(clause() for _ in range(rng.randint(2, 8))), plan)
        if seed % 2:
            object.__setattr__(store, "pulls", (store.clauses, *store.pulls[1:]))
        # Before the first step every stored clause is untouched, so no
        # touched part holds one.
        touched = sorted({clause() for _ in range(30)} - store.clauses, key=sorted)
        if not store.pulls[0] or len(touched) < 3:
            continue
        family = set()
        for _ in range(rng.randint(2, 4)):
            pi, size = set(), rng.randint(2, 3)
            while len(pi) < size:
                pi.add(Matrix._of(rng.sample(touched, rng.randint(0, min(4, len(touched))))))
            family.add(frozenset(pi))
        if len(family) >= 2:
            yield seed, DerivationState(frozenset(family), 0, store)


def recorded_calls(monkeypatch, name):
    """The (first argument, result) of every call ``step`` makes to the
    derivation module's function ``name``, recorded into a list."""
    calls = []
    real = getattr(derivation, name)

    def recorded(m, *args):
        calls.append((m, real(m, *args)))
        return calls[-1][1]

    monkeypatch.setattr(derivation, name, recorded)
    return calls


def test_r2_matches_the_reference_matrix_by_matrix(monkeypatch):
    # ``step`` splits the bucket and resolves its own pairs once per step;
    # every matrix must still become what resolving it with the whole
    # bucket pulled in and dropping the untouched clauses makes of it.
    results = recorded_calls(monkeypatch, "resolve")
    cases = lacking = own = cross = 0
    for seed, state in bucket_states("R2"):
        store, v = state.untouched, state.untouched.plan[0][0]
        pulled, pivot = store.pulls[0], (v, -v)
        results.clear()
        after, event = step(state)
        assert event.rule == "R2"
        matrices = [m for pi in state.family for m in pi]
        assert Counter(m for m, _ in results) == Counter(matrices), seed
        for m, result in results:
            assert store.touched_part(result, 1) == reference_r2(state, m), seed
        want = frozenset(frozenset([reference_r2(state, m) for m in pi]) for pi in state.family)
        assert after.family == want, seed
        cases += 1
        lacking += any(c.isdisjoint(pivot) for c in pulled)
        own += bool(resolve(Matrix._of(pulled), v) - pulled)
        negative = [c for m in matrices for c in m if -v in c]
        cross += any(
            not is_tautological((c1 | c2) - set(pivot))
            for c1 in pulled if v in c1
            for c2 in negative
        )
    assert cases >= 200 and min(lacking, own, cross) >= 50, (cases, lacking, own, cross)


def test_r3_matches_the_reference_matrix_by_matrix(monkeypatch):
    # ``step`` reduces each matrix with its bucket pulled in, in one
    # ``reduce`` call per matrix; every matrix must become what reducing
    # it with the whole bucket pulled in and dropping the untouched
    # clauses makes of it.
    results = recorded_calls(monkeypatch, "reduce")
    cases = lacking = 0
    for seed, state in bucket_states("R3"):
        store, u = state.untouched, state.untouched.plan[0][0]
        results.clear()
        after, event = step(state)
        assert event.rule == "R3"
        matrices = [m for pi in state.family for m in pi]
        assert Counter(m - store.pulls[0] for m, _ in results) == Counter(matrices), seed
        for m, result in results:
            assert m >= store.pulls[0], seed
            assert store.touched_part(result, 1) == reference_r3(state, m - store.pulls[0]), seed
        want = frozenset(frozenset([reference_r3(state, m) for m in pi]) for pi in state.family)
        assert after.family == want, seed
        cases += 1
        lacking += any(c.isdisjoint((u, -u)) for c in store.pulls[0])
    assert cases >= 200 and lacking >= 50, (cases, lacking)


def test_shuffled_paths_fire_r4_and_agree_with_the_oracle():
    rules = set()
    aborts = 0
    for seed, q, td in shuffled_path_cases():
        d = trivial_poset(q.prefix)
        got = outcome(stored, q, td, d)
        assert got == outcome(whole, q, td, d), seed
        if isinstance(got, str):
            aborts += 1
            continue
        assert got[0] == evaluate(q), seed
        rules |= {rule for rule, *_ in got[1]}
    assert rules == {"R1", "R2", "R3", "R4"}
    assert aborts < 24


def test_shuffled_paths_under_sparser_posets_agree_with_the_oracle():
    runs = runs_with_r4 = aborts = 0
    for seed, q, td, d in sub_poset_cases():
        runs += 1
        got = outcome(stored, q, td, d)
        assert got == outcome(whole, q, td, d), seed
        if isinstance(got, str):
            aborts += 1
            continue
        assert got[0] == evaluate(q), seed
        runs_with_r4 += any(rule == "R4" for rule, *_ in got[1])
    assert runs_with_r4 >= 150 and aborts <= 10, (runs, runs_with_r4, aborts)


def test_join_node_decompositions_agree_with_the_oracle():
    # Several quantifier blocks make some min-degree decompositions
    # unaligned (skipped) and make strategy extension fire on others.
    joins = joins_with_r4 = 0
    for seed, q, td in join_node_cases():
        d = trivial_poset(q.prefix)
        if not validate_trunk_aligned(td, q, d).ok:
            continue
        got = outcome(stored, q, td, d)
        assert got == outcome(whole, q, td, d), seed
        if isinstance(got, str):
            continue
        assert got[0] == evaluate(q), seed
        if any(len(td.children(t)) == 2 for t in td.nodes):
            joins += 1
            joins_with_r4 += any(rule == "R4" for rule, *_ in got[1])
    assert joins >= 250 and joins_with_r4 >= 40, (joins, joins_with_r4)


DEGENERATE = (
    # (QDIMACS text, expected verdict): an empty clause, an empty matrix,
    # and zero-variable instances with and without the empty clause.
    ("p cnf 2 2\n1 2 0\n0\n", False),
    ("p cnf 1 0\ne 1 0\n", True),
    ("p cnf 0 0\n", True),
    ("p cnf 0 1\n0\n", False),
)


@pytest.mark.parametrize("text, expected", DEGENERATE)
def test_degenerate_inputs(tmp_path, capsys, text, expected):
    q = parse_qdimacs(text)
    assert evaluate(q) is expected
    td = single_bag_td(q)
    assert run_derivation(q, td, trivial_poset(q.prefix), checks=True).verdict is expected

    (tmp_path / "q.qdimacs").write_text(text, encoding="utf-8")
    (tmp_path / "q.btd").write_text(write_btd(td), encoding="utf-8")
    code = main(
        ["solve", str(tmp_path / "q.qdimacs"), "--td", str(tmp_path / "q.btd"),
         "--trivial-poset", "--checks"]
    )
    assert code == (10 if expected else 20)
    assert capsys.readouterr().out == f"s cnf {int(expected)}\n"


def clauses_built_per_step(monkeypatch, n, pull_everything=False):
    """Clauses in the matrices the engine builds, per step of a qparity(n)
    run.  With ``pull_everything`` every step pulls in every untouched
    clause, not just its own bucket."""
    built = 0
    original = formulas.Matrix._of.__func__

    def counting(cls, clauses):
        nonlocal built
        matrix = original(cls, clauses)
        built += len(matrix)
        return matrix

    q = qparity(n)
    td, d = qparity_td(n), trivial_poset(q.prefix)
    with monkeypatch.context() as patch:
        patch.setattr(formulas.Matrix, "_of", classmethod(counting))
        if pull_everything:
            plan_run = derivation.initial_state

            def pulling_everything(*args):
                state = plan_run(*args)
                pulls = state.untouched.pulls
                later = [frozenset().union(*pulls[i:]) for i in range(len(pulls))]
                object.__setattr__(state.untouched, "pulls", tuple(later))
                return state

            patch.setattr(derivation, "initial_state", pulling_everything)
        run_derivation(q, td, d)
    return built / (2 * n + 1)


def test_clauses_built_per_step_do_not_grow_with_n(monkeypatch):
    # qparity has width 2 at every n, so an elimination step should build
    # matrices of a bounded number of clauses however long the formula is.
    for n in (16, 32, 64):
        assert clauses_built_per_step(monkeypatch, n) <= 16, n


def test_the_clause_count_catches_a_step_that_pulls_in_every_clause(monkeypatch):
    assert clauses_built_per_step(monkeypatch, 16, pull_everything=True) > 16


def test_the_engine_builds_no_clause_object(monkeypatch):
    # Inside the engine a clause is a plain frozenset of literals; a Clause
    # is constructed (and validated) only by parsers and other callers.
    q = qparity(64)
    td, d = qparity_td(64), trivial_poset(q.prefix)
    built = 0
    original = formulas.Clause.__post_init__

    def counting(clause):
        nonlocal built
        built += 1
        original(clause)

    monkeypatch.setattr(formulas.Clause, "__post_init__", counting)
    run_derivation(q, td, d, checks=True)
    assert built == 0


def test_checked_runs_never_rebuild_whole_matrices(monkeypatch):
    # The checks read the touched parts and the untouched clauses over the
    # step's variable, so a checked run costs about what an unchecked one does.
    def whole_family(self):
        raise AssertionError("a checked run called whole_family")

    monkeypatch.setattr(DerivationState, "whole_family", whole_family)
    for n in (2, 16):
        q = qparity(n)
        result = run_derivation(q, qparity_td(n), trivial_poset(q.prefix), checks=True)
        assert result.verdict is False


@pytest.mark.parametrize("lits", [frozenset(), frozenset({1, -1, 2})], ids=["empty", "tautology"])
def test_the_store_rejects_clauses_that_cannot_be_untouched(monkeypatch, lits):
    # Validation removes tautologies and the start keeps variable-free
    # clauses out of the store, so a bad clause is slipped in after it;
    # a checked run rejects it once, before the first step.
    q = qparity(2)
    plan_run = derivation.initial_state

    def slipped_in(*args):
        state = plan_run(*args)
        store = UntouchedStore(state.untouched.clauses | {lits}, state.untouched.plan)
        return state._replace(untouched=store)

    monkeypatch.setattr(derivation, "initial_state", slipped_in)
    with pytest.raises(InvariantError, match="cannot be untouched") as info:
        run_derivation(q, qparity_td(2), trivial_poset(q.prefix), checks=True)
    assert "step" not in str(info.value)


def test_a_run_builds_no_prefix(monkeypatch):
    # The plan records the variables each step removes, so no prefix is
    # cut or built.
    built = 0
    original = Prefix.__init__

    def counting(self, blocks=()):
        nonlocal built
        built += 1
        original(self, blocks)

    for n in (16, 32, 64):
        q = qparity(n)
        td, d = qparity_td(n), trivial_poset(q.prefix)
        built = 0
        with monkeypatch.context() as patch:
            patch.setattr(Prefix, "__init__", counting)
            result = run_derivation(q, td, d, checks=True)
        assert built == 0, n
        assert result.final.live == frozenset()


def test_a_solve_validates_no_clause_or_matrix(monkeypatch, tmp_path, capsys):
    # The parser checks every literal as it reads it and builds plain
    # literal sets, as the engine does, so no public constructor checks
    # them a second time.
    assert main(["gen", "qparity", "16", str(tmp_path / "qp16")]) == 0
    built = {"Clause": 0, "Matrix": 0}
    for name in built:
        cls = getattr(formulas, name)

        def counting(self, name=name, original=cls.__post_init__):
            built[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    files = [str(tmp_path / "qp16.qdimacs"), "--td", str(tmp_path / "qp16.btd")]
    assert main(["solve", *files, "--trivial-poset"]) == 20
    assert capsys.readouterr().out == "s cnf 0\n"
    assert built == {"Clause": 0, "Matrix": 0}


def test_half_a_run_leaves_the_expected_live_set():
    n = 64
    q = qparity(n)
    td, d = qparity_td(n), trivial_poset(q.prefix)
    state = initial_state(*validate_input(q, td, d), d)
    for _ in range(len(state.untouched.plan) // 2):
        state, _ = step(state)
    # The first half of the steps removes x_1..x_32 and z_1..z_32.
    assert state.live == {
        *range(n // 2 + 1, n + 1),
        n + 1,
        *range(n + 2 + n // 2, 2 * n + 2),
    }
