"""The untouched store of the derivation engine.

``run_derivation`` keeps the input clauses no step has touched yet once
per run, outside the family; ``step`` from ``initial_state`` has an
empty store and rewrites whole matrices.  Both must give the same
traces and verdicts, and the oracle must agree on every rule path and
on decompositions with join nodes.
"""

import random

import pytest

from trunkqbf import (
    EngineLimits,
    QbfInstance,
    Prefix,
    ResourceLimitError,
    TrunkTreeDecomposition,
    elimination_ordering,
    evaluate,
    ground_truth,
    initial_state,
    matrix_of,
    parse_qdimacs,
    qparity,
    qparity_td,
    random_instance,
    remove_tautologies,
    run_derivation,
    single_bag_td,
    step,
    trivial_poset,
    write_btd,
)
from trunkqbf import formulas
from trunkqbf.cli import main

from _util import forget_path_td, min_degree_td

R4_LIMITS = EngineLimits(max_strategies=4096, max_family_size=64)
LIMIT_KINDS = (
    ("branches, limit is", "branches"),
    ("sets, limit is", "family"),
    ("matrices, limit is", "set"),
)


def counts(trace):
    return [(e.rule, e.family_before, e.family_after, e.max_set_size) for e in trace]


def stepwise(instance, td, poset, limits=EngineLimits()):
    """The derivation by ``step`` from ``initial_state``: whole matrices,
    no untouched store.  Returns (verdict, trace, final state)."""
    cleaned = QbfInstance(instance.prefix, remove_tautologies(instance.matrix))
    state = initial_state(cleaned)
    trace = []
    for v in elimination_ordering(td):
        state, event = step(state, v, td, poset, limits, checks=True)
        trace.append(event)
    verdict = any(all(ground_truth(m) for m in pi) for pi in state.family)
    return verdict, trace, state


def outcome(solve):
    """(verdict, step counts) of a solve, or the kind of limit it hit."""
    try:
        verdict, trace = solve()
    except ResourceLimitError as exc:
        return next(kind for fragment, kind in LIMIT_KINDS if fragment in str(exc))
    return verdict, counts(trace)


def shuffled_path_td(instance, rng):
    """Introduce every variable in prefix order, forget in a shuffled order."""
    forget = list(instance.prefix.variables_in_order())
    rng.shuffle(forget)
    return forget_path_td(instance, forget)


def test_store_run_matches_stepwise_run_on_qparity():
    for n in range(2, 13):
        q = qparity(n)
        td, d = qparity_td(n), trivial_poset(q.prefix)
        result = run_derivation(q, td, d)
        verdict, trace, final = stepwise(q, td, d)
        assert result.verdict is verdict is False, n
        assert counts(result.trace) == counts(trace), n
        # With the prefix empty no clause is untouched: whole matrices remain.
        assert result.final.family == final.family, n


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


def test_shuffled_paths_fire_r4_and_agree_with_the_oracle():
    rules = set()
    aborts = 0
    for seed in range(240):
        rng = random.Random(seed)
        q = random_instance(
            seed, rng.randint(3, 7), rng.randint(1, 10), rng.randint(1, 3), rng.randint(2, 4)
        )
        td = shuffled_path_td(q, rng)
        d = trivial_poset(q.prefix)

        def stored():
            result = run_derivation(q, td, d, R4_LIMITS, checks=True)
            return result.verdict, result.trace

        def whole():
            verdict, trace, _ = stepwise(q, td, d, R4_LIMITS)
            return verdict, trace

        got = outcome(stored)
        assert got == outcome(whole), seed
        if isinstance(got, str):
            aborts += 1
            continue
        assert got[0] == evaluate(q), seed
        rules |= {rule for rule, *_ in got[1]}
    assert rules == {"R1", "R2", "R3", "R4"}
    assert aborts < 24


def test_join_node_decompositions_agree_with_the_oracle():
    joins = 0
    for seed in range(300):
        rng = random.Random(seed)
        # One quantifier block: under the trivial poset nothing depends on
        # anything else, so every variable meets P1 and any nice
        # decomposition is trunk-aligned.
        q = random_instance(seed, rng.randint(1, 7), rng.randint(0, 9), rng.randint(1, 3), 1)
        td = min_degree_td(q)
        joins += any(len(td.children(t)) == 2 for t in td.nodes)
        d = trivial_poset(q.prefix)
        result = run_derivation(q, td, d, checks=True)
        assert result.verdict == evaluate(q), seed
        verdict, trace, _ = stepwise(q, td, d)
        assert (result.verdict, counts(result.trace)) == (verdict, counts(trace)), seed
    assert joins >= 100


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


def test_clauses_built_per_step_do_not_grow_with_n(monkeypatch):
    # qparity has width 2 at every n, so an elimination step should build
    # a bounded number of clauses however long the formula is.  Both the
    # validating and the trusted clause constructor go through _set_clause.
    built = 0
    original = formulas._set_clause

    def counting(clause, lits):
        nonlocal built
        built += 1
        original(clause, lits)

    for n in (16, 32, 64):
        q = qparity(n)
        td, d = qparity_td(n), trivial_poset(q.prefix)
        built = 0
        with monkeypatch.context() as patch:
            patch.setattr(formulas, "_set_clause", counting)
            run_derivation(q, td, d)
        assert built / (2 * n + 1) <= 16, n


def test_prefix_validations_do_not_grow_with_n(monkeypatch):
    # Removing variables from a valid prefix keeps it valid, so the steps
    # build their prefixes without re-validating every kept variable.
    validated = 0
    original = Prefix.__post_init__

    def counting(self):
        nonlocal validated
        validated += 1
        original(self)

    counts = []
    for n in (16, 32, 64):
        q = qparity(n)
        td, d = qparity_td(n), trivial_poset(q.prefix)
        validated = 0
        with monkeypatch.context() as patch:
            patch.setattr(Prefix, "__post_init__", counting)
            run_derivation(q, td, d)
        counts.append(validated)
    assert counts[0] == counts[1] == counts[2], counts
