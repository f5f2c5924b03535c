import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunkqbf import (
    DecompositionError,
    Matrix,
    Prefix,
    QbfInstance,
    TrunkTreeDecomposition,
    elimination_ordering,
    forget_node,
    matrix_of,
    poset_from_pairs,
    qparity,
    qparity_td,
    random_instance,
    single_bag_td,
    subtree_vars,
    trivial_poset,
    validate_nice,
    validate_trunk_aligned,
    width,
)
from trunkqbf.decomposition import ValidationReport, Violation

from _util import (
    join_node_cases,
    min_degree_td,
    min_width_by_enumeration,
    normalize,
    path_td,
    reference_children,
    reference_forget_nodes,
    reference_nice,
    reference_postorder,
    reference_t1,
    reference_tops,
    shuffled_path_cases,
)


@pytest.fixture
def qp2():
    return qparity(2)


@pytest.fixture
def qp2_td():
    return qparity_td(2)


class TestConstruction:
    def test_trunk_must_be_leaf_to_root(self):
        with pytest.raises(DecompositionError):
            TrunkTreeDecomposition({1: (), 2: ()}, {1: 2}, 2, (2,))
        with pytest.raises(DecompositionError, match="trunk must not be empty") as info:
            TrunkTreeDecomposition({1: ()}, {}, 1, ())
        assert info.value.subject == ("trunk",)

    def test_cycle_detected(self):
        with pytest.raises(DecompositionError):
            TrunkTreeDecomposition({1: (), 2: (), 3: ()}, {1: 2, 2: 1}, 3, (3,))
        # A cycle behind a path into it, next to a node that reaches the root.
        with pytest.raises(DecompositionError, match="cycle"):
            TrunkTreeDecomposition(
                {6: (), 1: (), 2: (), 3: (), 4: (), 5: ()},
                {6: 4, 5: 1, 1: 2, 2: 3, 3: 2},
                4,
                (6, 4),
            )

    def test_disconnected_node(self):
        with pytest.raises(DecompositionError):
            TrunkTreeDecomposition({1: (), 2: ()}, {}, 1, (1,))


class TestValidateNice:
    def test_generated_decomposition_is_nice(self, qp2, qp2_td):
        assert validate_nice(qp2_td, qp2).ok

    def test_nonempty_root_bag_is_t3(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,)))
        td = path_td([(), (1,)])
        report = validate_nice(td, q)
        assert any(v.rule == "T3" for v in report.violations)

    def test_uncovered_edge_is_t1(self):
        q = QbfInstance(Prefix((("e", (1, 2)),)), matrix_of((1, 2)))
        td = path_td([(), (1,), (), (2,), ()])
        report = validate_nice(td, q)
        assert any(v.rule == "T1" for v in report.violations)

    def test_variable_in_no_bag_is_t2(self):
        q = QbfInstance(Prefix((("e", (1, 2)),)), matrix_of((1,)))
        td = path_td([(), (1,), ()])
        report = validate_nice(td, q)
        assert any(v.rule == "T2" and v.subject == "2" for v in report.violations)

    def test_disconnected_occurrences_are_t2(self):
        q = QbfInstance(Prefix((("e", (1, 2)),)), Matrix(()))
        td = path_td([(), (1,), (), (1, 2), (2,), ()])
        report = validate_nice(td, q)
        assert any(v.rule == "T2" and v.subject == "1" for v in report.violations)

    def test_bag_jump_is_t4(self):
        q = QbfInstance(Prefix((("e", (1, 2)),)), Matrix(()))
        td = path_td([(), (1, 2), ()])
        report = validate_nice(td, q)
        assert any(v.rule == "T4" for v in report.violations)


class TestForgetNode:
    def test_qparity2_forget_nodes(self, qp2_td):
        # z1 = 4 is last seen in the bag {z1, x2, z2}; u = 3 in {u}.
        assert qp2_td.bag(forget_node(qp2_td, 4)) == {4, 2, 5}
        assert qp2_td.bag(forget_node(qp2_td, 3)) == {3}

    def test_single_path(self):
        td = path_td([(), (1,), ()])
        assert forget_node(td, 1) == 2

    def test_unknown_variable(self, qp2_td):
        with pytest.raises(DecompositionError):
            forget_node(qp2_td, 77)


class TestTrunkAlignment:
    def test_qparity_family(self):
        for n in (2, 3, 5, 8):
            q = qparity(n)
            td = qparity_td(n)
            report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
            assert report.ok
            u = n + 1
            for i in range(1, n + 1):
                assert "P2" in report.property_held[i]  # x_i
                assert "P1" in report.property_held[n + 1 + i]  # z_i
            assert report.property_held[u] == "P1P2"

    def test_single_bag_satisfies_p1_everywhere(self):
        for seed in range(40):
            q = random_instance(seed, 2 + seed % 7, 1 + seed % 9, 1 + seed % 3, 1 + seed % 4)
            td = single_bag_td(q)
            report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
            assert report.ok
            assert all("P1" in held for held in report.property_held.values())

    def test_p1_and_p2_both_failing_is_reported(self):
        # u is forgotten while z (which depends on it) is still in the bag,
        # and x (which u depends on) never enters u's subtree.
        q = QbfInstance(
            Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))),
            matrix_of((1, -3), (-1, 3), (2, -3), (-2, 3)),
        )
        td = path_td([(), (3,), (3, 2), (3,), (3, 1), (1,), ()])
        assert validate_nice(td, q).ok
        report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
        assert not report.ok
        assert any(v.subject == "2" for v in report.violations)

    def test_a_split_variable_is_a_violation_not_an_error(self):
        q = QbfInstance(Prefix((("e", (1,)), ("a", (2,)))), matrix_of((1, 2)))
        td = path_td([(), (1,), (), (1,), (1, 2), (2,), ()])
        report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
        assert report.violations == (
            Violation("P1P2", "1", "has 2 topmost occurrences [2, 5]"),
        )
        assert dict(report.property_held) == {2: "P1P2"}

    def test_a_shared_forget_node_is_a_violation_not_an_error(self):
        q = QbfInstance(Prefix((("e", (1,)), ("a", (2,)))), matrix_of((1, 2)))
        td = path_td([(), (1,), (1, 2), ()])
        report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
        assert report.violations == (
            Violation("P1P2", "1", "shares forget node 3 with [2]"),
            Violation("P1P2", "2", "shares forget node 3 with [1]"),
        )
        with pytest.raises(DecompositionError, match="variable 1 shares forget node 3"):
            elimination_ordering(td)

    def test_p2_through_join_nodes_matches_brute_force(self):
        # across_joins counts variables whose P2 needs an off-trunk subtree.
        across_joins = 0
        for seed in range(150):
            rng = random.Random(seed)
            q = random_instance(seed, rng.randint(3, 8), rng.randint(1, 9), rng.randint(1, 3), 3)
            td = min_degree_td(q)
            if not any(len(td.children(t)) == 2 for t in td.nodes):
                continue
            trunk_bags = {}
            seen = set()
            for t in td.trunk:
                seen |= td.bag(t)
                trunk_bags[t] = frozenset(seen)
            for d in (trivial_poset(q.prefix), poset_from_pairs(q.prefix, [])):
                report = validate_trunk_aligned(td, q, d)
                held, failed = {}, []
                for u in sorted(q.prefix.variables):
                    node = forget_node(td, u)
                    p1 = not d.dependents_strict(u, td.bag(node))
                    p2 = node in td.trunk and d.dep(u) <= subtree_vars(td, node)
                    if p2 and not d.dep(u) <= trunk_bags[node]:
                        across_joins += 1
                    if p1 or p2:
                        held[u] = "P1P2" if p1 and p2 else ("P1" if p1 else "P2")
                    else:
                        failed.append(str(u))
                assert dict(report.property_held) == held, seed
                assert [v.subject for v in report.violations] == failed, seed
        assert across_joins >= 20


class TestWidth:
    def test_qparity_width_is_two(self):
        for n in range(2, 65):
            assert width(qparity_td(n)) == 2

    def test_single_empty_node(self):
        td = TrunkTreeDecomposition({1: ()}, {}, 1, (1,))
        assert width(td) == -1

    def test_single_bag_width(self, qp2):
        assert width(single_bag_td(qp2)) == len(qp2.prefix.variables) - 1


class TestEliminationOrdering:
    def test_qparity2_order_is_forced(self, qp2_td):
        assert elimination_ordering(qp2_td) == (1, 4, 2, 5, 3)

    def test_single_path_order_is_path_order(self):
        td = path_td([(), (1,), (1, 2), (2,), ()])
        assert elimination_ordering(td) == (1, 2)

    def test_sibling_branches_tie_break_by_node_id(self):
        # Branch with nodes 1-3 forgets variable 1, branch 4-6 forgets 2;
        # the trunk runs through the second branch, so the first (smaller
        # ids, not on the trunk) is visited first.
        bags = {1: (), 2: (1,), 3: (), 4: (), 5: (2,), 6: (), 7: ()}
        parent = {1: 2, 2: 3, 3: 7, 4: 5, 5: 6, 6: 7}
        td = TrunkTreeDecomposition(bags, parent, 7, (4, 5, 6, 7))
        assert elimination_ordering(td) == (1, 2)

    def test_respects_node_order(self):
        for n in (2, 3, 4):
            td = qparity_td(n)
            order = elimination_ordering(td)
            position = {v: i for i, v in enumerate(order)}
            for u in td.bag_variables():
                for v in td.bag_variables():
                    fu, fv = forget_node(td, u), forget_node(td, v)
                    if fu != fv and _is_ancestor(td, fu, fv):
                        # forget(v) below forget(u) => v eliminated first
                        assert position[v] < position[u]

    def test_deterministic(self, qp2_td):
        assert elimination_ordering(qp2_td) == elimination_ordering(qparity_td(2))

    def test_bijection_onto_variables(self):
        for seed in range(20):
            q = random_instance(seed, 2 + seed % 7, 1 + seed % 6, 2, 1 + seed % 3)
            td = single_bag_td(q)
            order = elimination_ordering(td)
            assert sorted(order) == sorted(q.prefix.variables)

    def test_all_p1_decompositions_give_poset_respecting_orderings(self):
        # When every variable satisfies P1 under the trivial poset, the
        # ordering must run against the prefix: dependents go first.
        for seed in range(25):
            q = random_instance(seed, 2 + seed % 7, 1 + seed % 8, 2, 1 + seed % 4)
            td = single_bag_td(q)
            d = trivial_poset(q.prefix)
            report = validate_trunk_aligned(td, q, d)
            assert all("P1" in held for held in report.property_held.values())
            order = elimination_ordering(td)
            position = {v: i for i, v in enumerate(order)}
            for u, v in d.strict_pairs():
                assert position[v] < position[u]


def _is_ancestor(td, upper, lower):
    cur = lower
    while cur is not None:
        cur = td.parent_of(cur)
        if cur == upper:
            return True
    return False


class TestSubtreeVars:
    def test_root_collects_everything(self, qp2_td):
        assert subtree_vars(qp2_td, qp2_td.root) == {1, 2, 3, 4, 5}

    def test_leaf_is_empty(self, qp2_td):
        assert subtree_vars(qp2_td, 1) == frozenset()

    def test_middle_of_qparity2(self, qp2_td):
        node = forget_node(qp2_td, 4)  # bag {z1, x2, z2}
        assert subtree_vars(qp2_td, node) == {1, 4, 2, 5}

    def test_unknown_node_rejected(self, qp2_td):
        with pytest.raises(DecompositionError, match="unknown node 99"):
            subtree_vars(qp2_td, 99)


def canonical_shape(td, node=None):
    if node is None:
        node = td.root
    kids = sorted(canonical_shape(td, c) for c in td.children(node))
    return (tuple(sorted(td.bag(node))), tuple(kids))


class TestNormalize:
    def test_nice_input_is_a_fixpoint(self, qp2_td):
        again = normalize(qp2_td)
        assert canonical_shape(again) == canonical_shape(qp2_td)

    def test_two_node_rough_input(self):
        rough = TrunkTreeDecomposition({1: (1, 2), 2: ()}, {1: 2}, 2, (1, 2))
        q = QbfInstance(Prefix((("e", (1, 2)),)), matrix_of((1, 2)))
        nice = normalize(rough)
        assert validate_nice(nice, q).ok
        assert width(nice) == 1

    def test_branching_rough_input(self):
        # Star: center bag {1,2} with leaves {1,3} and {2,4}; root {1,2}.
        rough = TrunkTreeDecomposition(
            {1: (1, 3), 2: (2, 4), 3: (1, 2), 4: ()},
            {1: 3, 2: 3, 3: 4},
            4,
            (1, 3, 4),
        )
        q = QbfInstance(
            Prefix((("e", (1, 2, 3, 4)),)), matrix_of((1, 3), (2, 4), (1, 2))
        )
        nice = normalize(rough)
        report = validate_nice(nice, q)
        assert report.ok, report.summary()
        assert width(nice) == width(rough)
        trunk = nice.trunk
        assert nice.children(trunk[0]) == ()
        assert trunk[-1] == nice.root

    def test_t2_violation_is_an_error(self):
        rough = TrunkTreeDecomposition(
            {1: (1,), 2: (), 3: (1,)}, {1: 2, 2: 3}, 3, (1, 2, 3)
        )
        with pytest.raises(DecompositionError):
            normalize(rough)

    def test_output_passes_alignment_after_revalidation(self):
        for seed in range(10):
            q = random_instance(seed, 3 + seed % 4, 4, 2, 1 + seed % 3)
            rough = single_bag_td(q)
            nice = normalize(rough)
            assert validate_nice(nice, q).ok
            assert validate_trunk_aligned(nice, q, trivial_poset(q.prefix)).ok


class TestMinDependencyEliminationWidth:
    def test_qparity2_exact(self):
        q = qparity(2)
        assert min_width_by_enumeration(q, trivial_poset(q.prefix)) == 3

    def test_qparity3_exact(self):
        q = qparity(3)
        assert min_width_by_enumeration(q, trivial_poset(q.prefix)) == 4

    def test_a_sparser_poset_is_no_wider(self):
        # The identity relation allows every ordering, so its minimum is the
        # treewidth: at most the trivial poset's and at most any one
        # decomposition's width.
        for seed in range(12):
            q = random_instance(seed, 3 + seed % 4, 3 + seed % 5, 2, 1 + seed % 3)
            free = min_width_by_enumeration(q, poset_from_pairs(q.prefix, []))
            assert free <= min_width_by_enumeration(q, trivial_poset(q.prefix))
            assert free <= width(min_degree_td(q))

    def test_edgeless_instance(self):
        q = QbfInstance(Prefix((("e", (1, 2, 3)),)), Matrix(()))
        assert min_width_by_enumeration(q, trivial_poset(q.prefix)) == 0


def mutated_tds(td, instance, rng):
    """Broken copies of a decomposition: a variable dropped from one bag,
    a clause's variable dropped from every bag holding the whole clause,
    a variable's occurrences split by adding it to a far bag, and a
    variable foreign to the instance put into a bag."""
    bags = {node: set(td.bag(node)) for node in td.nodes}
    parent = {node: td.parent_of(node) for node in td.nodes if node != td.root}
    filled = [node for node in td.nodes if bags[node]]
    if not filled:
        return
    drop = {node: set(bag) for node, bag in bags.items()}
    node = rng.choice(filled)
    drop[node].discard(rng.choice(sorted(drop[node])))
    wide = [sorted(set(map(abs, c))) for c in instance.matrix if len(set(map(abs, c))) > 1]
    if wide:
        over = rng.choice(sorted(wide))
        x = rng.choice(over)
        uncover = {node: bag - {x} if bag >= set(over) else set(bag) for node, bag in bags.items()}
        yield TrunkTreeDecomposition(uncover, parent, td.root, td.trunk)
    split = {node: set(bag) for node, bag in bags.items()}
    split[td.trunk[0]].add(rng.choice(sorted(instance.prefix.variables)))
    foreign = {node: set(bag) for node, bag in bags.items()}
    foreign[rng.choice(filled)].add(max(instance.prefix.variables) + 1)
    for changed in (drop, split, foreign):
        yield TrunkTreeDecomposition(changed, parent, td.root, td.trunk)


class TestT1PerClause:
    """T1 read per clause reports exactly what enumerating every bag pair
    and every primal edge reports, in the same order."""

    def check(self, td, q):
        got = validate_nice(td, q).violations
        t1 = [v for v in got if v.rule == "T1"]
        assert t1 == reference_t1(td, q)
        if t1:
            first = got.index(t1[0])
            assert got[first : first + len(t1)] == tuple(t1)
            assert all(v.rule == "T2" for v in got[:first])

    def test_valid_and_mutated_decompositions(self):
        rng = random.Random(11)
        broken = 0
        for seed in range(300):
            q = random_instance(
                seed, rng.randint(2, 9), rng.randint(1, 14), rng.randint(1, 4), rng.randint(1, 3)
            )
            td = min_degree_td(q)
            assert reference_t1(td, q) == []
            self.check(td, q)
            for bad in mutated_tds(td, q, rng):
                broken += bool(reference_t1(bad, q))
                self.check(bad, q)
        assert broken >= 150

    def test_shuffled_paths_and_qparity(self):
        for _, q, td in shuffled_path_cases():
            self.check(td, q)
        for n in (2, 5, 16):
            self.check(qparity_td(n), qparity(n))


def reference_trunk_aligned(td, instance, poset):
    """``validate_trunk_aligned`` with P2 tested by ``strict(u) <= below``
    at every trunk forget node, the direct definition."""
    violations, held = [], {}
    fmap = {v: forget_node(td, v) for v in td.bag_variables()}
    forgotten = {node: u for u, node in fmap.items() if u in instance.prefix.variables}
    p2_holds, below = set(), set()
    for lower, node in zip((None,) + td.trunk, td.trunk):
        below |= td.bag(node)
        for child in td.children(node):
            if child != lower:
                below |= subtree_vars(td, child)
        u = forgotten.get(node)
        if u is not None and u in below and poset.strict(u) <= below:
            p2_holds.add(u)
    for u in sorted(instance.prefix.variables):
        node = fmap.get(u)
        if node is None:
            violations.append(Violation("P1P2", str(u), "variable occurs in no bag"))
            continue
        offenders = poset.dependents_strict(u, td.bag(node))
        p1, p2 = not offenders, u in p2_holds
        if p1 or p2:
            held[u] = "P1P2" if p1 and p2 else "P1" if p1 else "P2"
        else:
            violations.append(
                Violation(
                    "P1P2",
                    str(u),
                    f"P1 fails (dependents {sorted(offenders)} in forget bag {node}) and P2 fails",
                )
            )
    return ValidationReport(tuple(violations), held)


class TestLinearP2:
    """P2 by popping each stored set's members once gives the report of
    the direct subset test."""

    def check(self, td, q, d):
        got = validate_trunk_aligned(td, q, d)
        want = reference_trunk_aligned(td, q, d)
        assert got.violations == want.violations
        assert got.property_held == want.property_held
        return got

    def test_qparity(self):
        for n in (2, 3, 8, 33):
            q = qparity(n)
            assert self.check(qparity_td(n), q, trivial_poset(q.prefix)).ok

    def test_shuffled_paths_under_the_trivial_poset_and_sub_posets(self):
        p2_only = 0
        for seed, q, td in shuffled_path_cases():
            full = trivial_poset(q.prefix)
            report = self.check(td, q, full)
            p2_only += list(report.property_held.values()).count("P2")
            rng = random.Random(seed)
            kept = [pair for pair in full.strict_pairs() if rng.random() < 0.5]
            self.check(td, q, poset_from_pairs(q.prefix, kept))
        assert p2_only >= 100

    def test_join_nodes(self):
        held = failing = 0
        for _, q, td in join_node_cases():
            report = self.check(td, q, trivial_poset(q.prefix))
            held += "P2" in report.property_held.values()
            failing += not report.ok
            self.check(td, q, poset_from_pairs(q.prefix, ()))
        assert held >= 200 and failing >= 50


@st.composite
def random_trees(draw):
    """A tree of 1-12 nodes with shuffled ids and random bags over the
    variables 1-4, its trunk from a random leaf up to the root.  Most
    fail niceness: split variables, nodes with 3 or more children,
    non-empty leaves and roots, bags that jump."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(1, n + 1)))
    parent = {ids[i]: ids[draw(st.integers(0, i - 1))] for i in range(1, n)}
    bags = {node: draw(st.frozensets(st.integers(1, 4), max_size=3)) for node in ids}
    leaves = sorted(set(ids) - set(parent.values()))
    trunk = [draw(st.sampled_from(leaves))]
    while trunk[-1] in parent:
        trunk.append(parent[trunk[-1]])
    return TrunkTreeDecomposition(bags, parent, ids[0], trunk)


def broken_shapes(td, rng):
    """Copies of a nice decomposition with one fault each, by name: a
    variable split by adding it to a far bag, a non-empty leaf and a node
    with a third child."""
    bags = {node: set(td.bag(node)) for node in td.nodes}
    parent = {node: td.parent_of(node) for node in td.nodes if node != td.root}
    variables = sorted(td.bag_variables())
    if variables:
        split = {node: set(bag) for node, bag in bags.items()}
        split[td.trunk[0]].add(rng.choice(variables))
        yield "split", TrunkTreeDecomposition(split, parent, td.root, td.trunk)
        leafy = {node: set(bag) for node, bag in bags.items()}
        leaf = rng.choice([node for node in td.nodes if not td.children(node)])
        leafy[leaf].add(rng.choice(variables))
        yield "leaf", TrunkTreeDecomposition(leafy, parent, td.root, td.trunk)
    joins = [node for node in td.nodes if len(td.children(node)) == 2]
    if joins:
        extra = max(td.nodes) + 1
        wide = {**parent, extra: rng.choice(joins)}
        yield "wide", TrunkTreeDecomposition({**bags, extra: ()}, wide, td.root, td.trunk)


class TestOneWalk:
    """The constructor's one walk and the one pass over the nodes against
    brute force: the post-order, the children, each variable's forget
    node, the elimination ordering and ``validate_nice``'s violations."""

    def check(self, td, q):
        assert list(td.postorder()) == reference_postorder(td)
        for node in td.nodes:
            assert td.children(node) == reference_children(td, node)
        tops = reference_tops(td)
        for v in range(1, 6):
            if len(tops.get(v, ())) == 1:
                assert forget_node(td, v) == tops[v][0]
            else:
                with pytest.raises(DecompositionError):
                    forget_node(td, v)
        forget = reference_forget_nodes(td)
        if len(forget) == len(tops):
            by_node = {node: v for v, node in forget.items()}
            want = [by_node[node] for node in reference_postorder(td) if node in by_node]
            assert list(elimination_ordering(td)) == want
        else:
            with pytest.raises(DecompositionError):
                elimination_ordering(td)
        assert validate_nice(td, q).violations == reference_nice(td, q)
        # A variable without a forget node is a violation, not an error.
        report = validate_trunk_aligned(td, q, trivial_poset(q.prefix))
        faulty = {str(v) for v in q.prefix.variables if v not in forget}
        assert faulty <= {v.subject for v in report.violations if v.rule == "P1P2"}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        random_trees(),
        st.lists(st.frozensets(st.integers(-3, 3).filter(bool), max_size=3), max_size=4),
    )
    def test_random_trees(self, td, clauses):
        # Variable 4 occurs in bags only: foreign to the instance.
        q = QbfInstance(Prefix((("e", (1,)), ("a", (2,)), ("e", (3,)))), matrix_of(*clauses))
        self.check(td, q)

    def test_join_nodes_and_their_broken_shapes(self):
        rng = random.Random(27)
        shapes = {"nice": 0, "split": 0, "leaf": 0, "wide": 0}
        for _, q, td in join_node_cases():
            if max(q.prefix.variables) > 5:
                continue
            self.check(td, q)
            shapes["nice"] += 1
            for name, bad in broken_shapes(td, rng):
                self.check(bad, q)
                shapes[name] += not validate_nice(bad, q).ok
        assert min(shapes.values()) >= 50, shapes
