"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after
its assertions; a failure surfaces as a normal pytest failure.  All
expected values are frozen from independent computations: the oracle
module for truth values, exhaustive permutation search for widths, and
hand-checked small runs for the step-by-step derivation states.
"""

import time

import pytest

from trunkqbf import (
    EngineLimits,
    Prefix,
    QbfInstance,
    ResourceLimitError,
    StrategyShape,
    TrunkTreeDecomposition,
    evaluate,
    initial_state,
    matrix_of,
    parse_btd,
    parse_poset,
    parse_qdimacs,
    qparity,
    qparity_td,
    random_instance,
    reduce,
    resolve,
    run_derivation,
    single_bag_td,
    step,
    strategy_extension,
    trivial_poset,
    validate_trunk_aligned,
    width,
    write_btd,
    write_poset,
    write_qdimacs,
)
from trunkqbf.derivation import validate_input

from _util import min_width_by_enumeration, prefix_without


def report(number, description, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def family(*sets):
    return frozenset(frozenset(ms) for ms in sets)


def test_criterion_1_qparity2_golden_trace():
    started = time.perf_counter()
    q = qparity(2)
    td = qparity_td(2)
    d = trivial_poset(q.prefix)

    psi_0 = matrix_of((-4,), (3, -5), (-3, 5), (-5, 2, 4), (5, -2, 4), (5, 2, -4), (-5, -2, -4))
    psi_1 = matrix_of((4,), (3, -5), (-3, 5), (-5, 2, 4), (5, -2, 4), (5, 2, -4), (-5, -2, -4))
    res_0 = matrix_of((3, -5), (-3, 5), (-5, 2), (5, -2))
    res_1 = matrix_of((3, -5), (-3, 5), (5, 2), (-5, -2))
    z2_neg = matrix_of((3, -5), (-3, 5), (-5,))
    z2_pos = matrix_of((3, -5), (-3, 5), (5,))
    u_neg = matrix_of((-3,))
    u_pos = matrix_of((3,))
    bottom = matrix_of(())

    # The engine's own start and steps; whole_family() puts the untouched
    # input clauses back into the stored touched parts; validation picks
    # the variables R4 branches on, and the start plans every step.
    state = initial_state(*validate_input(q, td, d), d)
    families = []
    for _ in state.untouched.plan:
        state, event = step(state)
        families.append((event.rule, state.whole_family()))

    # Step 1, x1: both constant strategies, one singleton set each.
    assert families[0] == ("R4", family({psi_0}, {psi_1}))
    # Step 2, z1: resolution inside every set.
    assert families[1] == ("R2", family({res_0}, {res_1}))
    # Step 3, x2: four strategy branches deduplicate to two; exactly the
    # two published matrices remain.
    rule3, f3 = families[2]
    assert rule3 == "R4"
    assert {m for pi in f3 for m in pi} == {z2_neg, z2_pos}
    assert len(f3) == 2 < 4
    assert f3 == family({z2_neg}, {z2_pos})
    # Step 4, z2: unit matrices over u only.
    assert families[3] == ("R2", family({u_neg}, {u_pos}))
    # Step 5, u: reduction leaves the empty clause everywhere.
    assert families[4] == ("R3", family({bottom}))

    result = run_derivation(q, td, d, checks=True)
    assert result.verdict is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "qparity(2) derivation reproduces the worked run, verdict FALSE", started)


def test_criterion_2_qparity_family_false_and_oracle_agreement():
    started = time.perf_counter()
    for n in range(2, 9):
        q = qparity(n)
        result = run_derivation(q, qparity_td(n), trivial_poset(q.prefix))
        assert result.verdict is False, n
        if n <= 5:
            assert evaluate(q) is False, n
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "qparity(2..8) engine FALSE, oracle agrees for n <= 5", started)


def test_criterion_3_width_claims():
    started = time.perf_counter()
    for n in range(2, 65):
        q = qparity(n)
        td = qparity_td(n)
        assert width(td) == 2, n
        assert validate_trunk_aligned(td, q, trivial_poset(q.prefix)).ok, n
    for n, expected in ((2, 3), (3, 4)):
        q = qparity(n)
        got = min_width_by_enumeration(q, trivial_poset(q.prefix))
        assert got == expected
        assert got >= n + 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, "width 2 for n in [2,64]; poset-respecting width >= n+1 for n in {2,3}", started)


def _elimination_side_condition_holds(q, v, universal_side):
    prefix = q.prefix
    other = prefix.existential if universal_side else prefix.universal
    for clause in q.matrix.clauses:
        variables = clause.variables()
        if v in variables and any(
            w in other and prefix.block_index(w) > prefix.block_index(v)
            for w in variables
        ):
            return False
    return True


def test_criterion_4_rule_soundness_suite():
    started = time.perf_counter()
    resolution_checks = reduction_checks = 0
    for seed in range(500):
        q = random_instance(
            seed,
            n_vars=2 + seed % 7,
            n_clauses=1 + seed % 12,
            clause_width=1 + seed % 3,
            alternations=1 + seed % 4,
        )
        for x in sorted(q.prefix.existential):
            if _elimination_side_condition_holds(q, x, universal_side=False):
                stripped = QbfInstance(prefix_without(q.prefix, (x,)), resolve(q.matrix, x))
                assert evaluate(q) == evaluate(stripped), (seed, x)
                resolution_checks += 1
        for u in sorted(q.prefix.universal):
            if _elimination_side_condition_holds(q, u, universal_side=True):
                stripped = QbfInstance(prefix_without(q.prefix, (u,)), reduce(q.matrix, u))
                assert evaluate(q) == evaluate(stripped), (seed, u)
                reduction_checks += 1
    assert resolution_checks > 200 and reduction_checks > 100

    extension_cases = 0
    seed = 0
    while extension_cases < 200:
        seed += 1
        q = random_instance(
            seed,
            n_vars=2 + seed % 6,
            n_clauses=1 + seed % 8,
            clause_width=1 + seed % 3,
            alternations=1 + seed % 4,
        )
        d = trivial_poset(q.prefix)
        variables = sorted(q.prefix.variables)
        v = variables[seed % len(variables)]
        dep_v = d.dep(v)
        if len(dep_v & q.prefix.universal) > 2 or len(dep_v & q.prefix.existential) > 3:
            continue
        matrices = {q.matrix}
        if seed % 3 == 0:  # exercise two-matrix sets as well
            extra = random_instance(seed + 10_000, len(variables), 3, min(2, len(variables)), 1)
            matrices.add(extra.matrix)
        pi = frozenset(matrices)
        shape = StrategyShape.of(dep_v, d)
        # The branch count 2^exponent stays within 2^14.
        if len(pi) * shape.own_bits + shape.n_universal > 14:
            continue
        out = strategy_extension(pi, *shape.tables())
        q_after = prefix_without(q.prefix, dep_v)
        all_true = all(evaluate(QbfInstance(q.prefix, m)) for m in pi)
        some_set_true = any(
            all(evaluate(QbfInstance(q_after, m)) for m in s) for s in out
        )
        assert all_true == some_set_true, (seed, v)
        for out_set in out:
            for m in out_set:
                assert not (m.variables() & dep_v), (seed, v)
        extension_cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        4,
        f"500 instances: {resolution_checks} resolution + {reduction_checks} reduction "
        f"equisatisfiability checks; 200 strategy-extension equivalences",
        started,
    )


def test_criterion_5_end_to_end_differential():
    started = time.perf_counter()
    for seed in range(300):
        q = random_instance(
            seed,
            n_vars=2 + seed % 8,
            n_clauses=1 + seed % 12,
            clause_width=1 + seed % 3,
            alternations=1 + seed % 4,
        )
        result = run_derivation(q, single_bag_td(q), trivial_poset(q.prefix))
        assert result.verdict == evaluate(q), seed
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, "300 random instances agree with the oracle via the fallback decomposition", started)


def test_criterion_6_invariants_under_checks():
    started = time.perf_counter()
    # The engine raises InvariantError from any per-step violation when
    # checks are on; completing these runs IS the assertion.
    for n in range(2, 7):
        q = qparity(n)
        run_derivation(q, qparity_td(n), trivial_poset(q.prefix), checks=True)
    for seed in range(150):
        q = random_instance(
            seed,
            n_vars=2 + seed % 8,
            n_clauses=1 + seed % 12,
            clause_width=1 + seed % 3,
            alternations=1 + seed % 4,
        )
        run_derivation(q, single_bag_td(q), trivial_poset(q.prefix), checks=True)
    # One run that exercises R4 with universal plays plus a trailing R1.
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
    result = run_derivation(q, td, trivial_poset(q.prefix), checks=True)
    assert result.verdict is False
    report(6, "neighborhood/tautology/elimination invariants hold on every checked run", started)


def test_criterion_7_format_round_trips():
    started = time.perf_counter()
    instances = [qparity(n) for n in range(2, 9)]
    for seed in range(1000):
        instances.append(
            random_instance(
                seed,
                n_vars=2 + seed % 11,
                n_clauses=seed % 14,
                clause_width=1 + seed % 3,
                alternations=1 + seed % 5,
            )
        )
    for q in instances:
        text = write_qdimacs(q)
        assert parse_qdimacs(text) == q
        assert write_qdimacs(parse_qdimacs(text)) == text
        td = single_bag_td(q)
        td_text = write_btd(td)
        assert parse_btd(td_text) == td
        assert write_btd(parse_btd(td_text)) == td_text
        d = trivial_poset(q.prefix)
        poset_text = write_poset(d)
        assert parse_poset(poset_text, q.prefix) == d
        assert write_poset(parse_poset(poset_text, q.prefix)) == poset_text
    for n in range(2, 17):
        td = qparity_td(n)
        assert parse_btd(write_btd(td)) == td
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(7, "QDIMACS/BTD/poset round-trips over generators plus 1000 random instances", started)


def test_criterion_8_resource_limits_instead_of_worst_case_bound():
    started = time.perf_counter()
    q = qparity(2)
    td = qparity_td(2)
    d = trivial_poset(q.prefix)
    with pytest.raises(ResourceLimitError):
        run_derivation(q, td, d, EngineLimits(max_family_size=1))
    prefix = Prefix((("a", (1, 2, 3)), ("e", (4, 5, 6)), ("a", (7,))))
    wide = QbfInstance(prefix, matrix_of((1, 4), (2, 5), (3, 6), (7,)))
    state = initial_state(wide, tuple(range(7, 0, -1)), frozenset({7}), trivial_poset(prefix))
    with pytest.raises(ResourceLimitError):
        step(state, EngineLimits(max_strategies=64))
    result = run_derivation(q, td, d)
    assert [e.family_after for e in result.trace] == [2, 2, 2, 2, 1]
    assert all(e.max_set_size >= 1 for e in result.trace)
    report(
        8,
        "worst-case family bound not benchmarked; limits abort loudly and traces "
        "record observed family sizes",
        started,
    )
