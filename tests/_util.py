"""Shared helpers for the test suite: seeded corpora and independent
reference implementations used as oracles."""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from trunkqbf import (
    DependencyPoset,
    DerivationState,
    EngineLimits,
    Matrix,
    Prefix,
    QbfInstance,
    ResourceLimitError,
    StrategyShape,
    TrunkTreeDecomposition,
    forget_node,
    ground_truth,
    initial_state,
    poset_from_pairs,
    primal_graph,
    random_instance,
    reduce,
    resolve,
    step,
    trivial_poset,
    validate_trunk_aligned,
    verify_poset_property2,
)
from trunkqbf.decomposition import Violation
from trunkqbf.derivation import UntouchedStore, validate_input
from trunkqbf.generators import forget_path_td

R4_LIMITS = EngineLimits(max_strategies=4096, max_family_size=64)
LIMIT_KINDS = (
    ("branches, limit is", "branches"),
    ("sets, limit is", "family"),
    ("matrices, limit is", "set"),
)


def path_td(bags: Sequence[Iterable[int]]) -> TrunkTreeDecomposition:
    """The path through the bags from the first, a leaf, to the last, the
    root; the whole path is the trunk.  The bags need not make it nice."""
    nodes = range(1, len(bags) + 1)
    parent = {t: t + 1 for t in nodes[:-1]}
    return TrunkTreeDecomposition(dict(zip(nodes, bags)), parent, nodes[-1], tuple(nodes))


def reference_qparity_bags(n: int) -> List[FrozenSet[int]]:
    """The bags of ``qparity_td(n)`` written out, leaf to root: empty, {x1},
    {x1,z1}, {z1}, then for each middle index {z_{i-1},x_i},
    {z_{i-1},x_i,z_i}, {x_i,z_i}, {z_i}, then {z_{n-1},x_n},
    {z_{n-1},x_n,z_n}, {x_n,z_n}, {x_n,z_n,u}, {z_n,u}, {u}, empty."""
    u = n + 1
    z = {i: n + 1 + i for i in range(1, n + 1)}
    bags = [frozenset(), frozenset({1}), frozenset({1, z[1]}), frozenset({z[1]})]
    for i in range(2, n):
        bags += [
            frozenset({z[i - 1], i}),
            frozenset({z[i - 1], i, z[i]}),
            frozenset({i, z[i]}),
            frozenset({z[i]}),
        ]
    bags += [
        frozenset({z[n - 1], n}),
        frozenset({z[n - 1], n, z[n]}),
        frozenset({n, z[n]}),
        frozenset({n, z[n], u}),
        frozenset({z[n], u}),
        frozenset({u}),
        frozenset(),
    ]
    return bags


def introduce_then_forget_bags(
    instance: QbfInstance, forget: Iterable[int]
) -> List[FrozenSet[int]]:
    """The bags of the path that introduces every variable in prefix order,
    then forgets them in the given order, by updating one live set."""
    bags: List[FrozenSet[int]] = [frozenset()]
    current: Set[int] = set()
    for v in instance.prefix.variables_in_order():
        current.add(v)
        bags.append(frozenset(current))
    for v in forget:
        current.discard(v)
        bags.append(frozenset(current))
    return bags


def linear_extensions_by_filter(poset: DependencyPoset) -> List[Tuple[int, ...]]:
    """Reference for the oracle's walk: every permutation of the sorted
    variables, in ``itertools`` order, that puts each strict pair of the
    poset in order."""
    pairs = poset.strict_pairs()
    out = []
    for perm in itertools.permutations(sorted(poset.prefix.variables)):
        position = {v: i for i, v in enumerate(perm)}
        if all(position[u] < position[v] for u, v in pairs):
            out.append(perm)
    return out


def literal_sets(assignment: Dict[int, int]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """The literals a partial assignment makes true and those it makes
    false, as ``restrict`` takes them: ``v`` is true where it maps v to 1,
    ``-v`` where it maps v to 0."""
    true = frozenset([v if value else -v for v, value in assignment.items()])
    return true, frozenset([-lit for lit in true])


def prefix_without(prefix: Prefix, variables: Iterable[int]) -> Prefix:
    """The prefix rebuilt without the given variables: the constructor drops
    the blocks this empties and merges their neighbours.  Variables outside
    the prefix are ignored."""
    drop = set(variables)
    return Prefix(tuple((q, tuple(v for v in vs if v not in drop)) for q, vs in prefix.blocks))


def corpus(n_instances: int, max_vars: int = 8, max_clauses: int = 12) -> List[QbfInstance]:
    """Deterministic instance corpus; seed i yields the i-th instance."""
    out = []
    for seed in range(n_instances):
        n_vars = 2 + seed % (max_vars - 1)
        out.append(
            random_instance(
                seed,
                n_vars=n_vars,
                n_clauses=1 + seed % max_clauses,
                clause_width=1 + seed % 3,
                alternations=1 + seed % 4,
            )
        )
    return out


def fill_in_width(adjacency: Dict[int, Set[int]], order: Sequence[int]) -> int:
    """Width of one elimination ordering, by direct simulation."""
    adj = {v: set(ns) for v, ns in adjacency.items()}
    width = 0
    for v in order:
        neighbors = sorted(adj[v])
        width = max(width, len(neighbors))
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for a in neighbors:
            adj[a].discard(v)
        del adj[v]
    return width


def min_width_by_enumeration(instance: QbfInstance, poset: DependencyPoset) -> int:
    """Reference minimum width: try every permutation that is a linear
    extension of the reverse of the poset.  Exponential; tiny inputs only."""
    variables = sorted(instance.prefix.variables)
    adjacency = primal_graph(instance)
    pairs = poset.strict_pairs()
    best = None
    for perm in itertools.permutations(variables):
        position = {v: i for i, v in enumerate(perm)}
        # u precedes v in the poset => v must be eliminated before u.
        if any(position[v] > position[u] for u, v in pairs):
            continue
        w = fill_in_width(adjacency, perm)
        if best is None or w < best:
            best = w
    assert best is not None
    return best


def fixpoint_closure(
    universe: Iterable[int], pairs: Iterable[Tuple[int, int]]
) -> Dict[int, FrozenSet[int]]:
    """Reference for ``poset_from_pairs``: the strict predecessor sets of
    the reflexive-transitive closure of the pairs, by iterating to a
    fixpoint in no particular order.  Cubic; small universes only."""
    dep: Dict[int, Set[int]] = {v: {v} for v in universe}
    for u, v in pairs:
        dep[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in dep:
            extra = set()
            for u in dep[v]:
                extra |= dep[u]
            if not extra <= dep[v]:
                dep[v] |= extra
                changed = True
    return {v: frozenset(preceding - {v}) for v, preceding in dep.items()}


def is_poset_for(poset: DependencyPoset, prefix: Prefix) -> bool:
    """The poset axioms, checked pair by pair through ``dep``: the
    relation is over the prefix's variables, reflexive, transitive and
    consistent with the prefix, which makes it antisymmetric."""
    if poset.prefix.variables != prefix.variables:
        return False
    for v in prefix.variables:
        dep_v = poset.dep(v)
        if v not in dep_v:
            return False
        for u in dep_v - {v}:
            if prefix.block_index(u) >= prefix.block_index(v) or not poset.dep(u) <= dep_v:
                return False
    return True


def random_prefix(rng: random.Random, max_vars: int) -> Prefix:
    """A prefix of 0 to ``max_vars`` shuffled ids in random blocks."""
    ids = list(range(1, rng.randint(0, max_vars) + 1))
    rng.shuffle(ids)
    blocks, quant = [], rng.choice("ea")
    while ids:
        size = rng.randint(0, min(4, len(ids)))
        blocks.append((quant, tuple(ids[:size])))
        ids, quant = ids[size:], "a" if quant == "e" else "e"
    return Prefix(tuple(blocks))


def edge_set(adjacency: Dict[int, Set[int]]) -> Set[Tuple[int, int]]:
    return {(u, v) for u, ns in adjacency.items() for v in ns if u < v}


def reference_children(td: TrunkTreeDecomposition, node: int) -> Tuple[int, ...]:
    """The nodes whose parent is the node, ascending, by scanning every node."""
    return tuple(c for c in sorted(td.nodes) if td.parent_of(c) == node)


def reference_postorder(td: TrunkTreeDecomposition) -> List[int]:
    """The post-order by recursion: the children ascending by id, but a
    trunk child last."""
    on_trunk = set(td.trunk)

    def visit(node: int) -> List[int]:
        kids = sorted(reference_children(td, node), key=lambda c: (c in on_trunk, c))
        return [x for c in kids for x in visit(c)] + [node]

    return visit(td.root)


def reference_tops(td: TrunkTreeDecomposition) -> Dict[int, List[int]]:
    """Variable -> the nodes holding it whose parent does not, ascending,
    by scanning every node."""
    tops: Dict[int, List[int]] = {}
    for node in sorted(td.nodes):
        above = td.parent_of(node)
        for v in td.bag(node):
            if above is None or v not in td.bag(above):
                tops.setdefault(v, []).append(node)
    return tops


def reference_forget_nodes(td: TrunkTreeDecomposition) -> Dict[int, int]:
    """Variable -> its forget node, for the variables with one topmost node
    that tops no other variable."""
    tops = reference_tops(td)
    single = [nodes[0] for nodes in tops.values() if len(nodes) == 1]
    return {
        v: nodes[0]
        for v, nodes in tops.items()
        if len(nodes) == 1 and single.count(nodes[0]) == 1
    }


def reference_t1(td, instance):
    """T1 violations by the direct definition: every pair of every bag is
    covered, and every primal edge must be among them."""
    covered = set()
    for node in td.nodes:
        bag = sorted(td.bag(node))
        for i, u in enumerate(bag):
            for w in bag[i + 1 :]:
                covered.add((u, w))
    adjacency = primal_graph(instance)
    return [
        Violation("T1", f"{u},{w}", "primal edge not contained in any bag")
        for u in sorted(adjacency)
        for w in sorted(adjacency[u])
        if u < w and (u, w) not in covered
    ]


def reference_nice(td: TrunkTreeDecomposition, instance: QbfInstance) -> Tuple[Violation, ...]:
    """``validate_nice``'s violations by the definitions, node by node:
    the foreign variables, T1, T2 from ``reference_tops``, then T3 and T4
    by comparing each node's bag with its children's."""
    variables = instance.prefix.variables
    tops = reference_tops(td)
    out = [
        Violation("T2", str(v), "appears in bags but is not a variable of the instance")
        for v in sorted(set(tops) - variables)
    ]
    out += reference_t1(td, instance)
    for v in sorted(variables):
        if v not in tops:
            out.append(Violation("T2", str(v), "variable occurs in no bag"))
        elif len(tops[v]) > 1:
            message = f"occurrences split into {len(tops[v])} components (tops {tops[v]})"
            out.append(Violation("T2", str(v), message))
    t3, t4 = [], []
    for node in sorted(td.nodes):
        bag, kids = td.bag(node), reference_children(td, node)
        if bag and (not kids or node == td.root):
            t3.append(Violation("T3", str(node), f"leaf/root bag is not empty: {sorted(bag)}"))
        if len(kids) == 1:
            below = td.bag(kids[0])
            if not (below < bag and len(bag - below) == 1 or bag < below and len(below - bag) == 1):
                message = "single-child node is neither introduce nor forget"
                t4.append(Violation("T4", str(node), message))
        elif len(kids) == 2 and not bag == td.bag(kids[0]) == td.bag(kids[1]):
            t4.append(Violation("T4", str(node), "join node bags differ from children"))
        elif len(kids) > 2:
            t4.append(Violation("T4", str(node), f"node has {len(kids)} children"))
    return tuple(out + t3 + t4)


def normalize(rough: TrunkTreeDecomposition) -> TrunkTreeDecomposition:
    """Turn a rough decomposition into a nice one with the same bags.

    Inserts introduce/forget chains below leaves, between bag changes
    and above the root, and splits multi-way branches into binary join
    spines.  The rough trunk maps onto a leaf-to-root trunk path of the
    output.  The input must be a tree with connected variable
    occurrences (T2); T1 and P1/P2 are the caller's concern, so the
    output must be re-validated.
    """
    for v in rough.bag_variables():
        forget_node(rough, v)  # raises on split occurrences (T2)
    bags: Dict[int, FrozenSet[int]] = {}
    parent: Dict[int, int] = {}
    counter = itertools.count(1)

    def new_node(bag: Set[int], child: Optional[int] = None) -> int:
        nid = next(counter)
        bags[nid] = frozenset(bag)
        if child is not None:
            parent[child] = nid
        return nid

    def chain(top: int, from_bag: FrozenSet[int], to_bag: FrozenSet[int]) -> int:
        cur = top
        cur_bag = set(from_bag)
        for v in sorted(from_bag - to_bag):
            cur_bag.discard(v)
            cur = new_node(cur_bag, cur)
        for v in sorted(to_bag - from_bag):
            cur_bag.add(v)
            cur = new_node(cur_bag, cur)
        return cur

    image: Dict[int, int] = {}
    leaf_image: Dict[int, int] = {}
    for node in rough.postorder():
        kids = rough.children(node)
        if not kids:
            leaf = new_node(set())
            leaf_image[node] = leaf
            image[node] = chain(leaf, frozenset(), rough.bag(node))
        elif len(kids) == 1:
            image[node] = chain(image[kids[0]], rough.bag(kids[0]), rough.bag(node))
        else:
            tops = [chain(image[c], rough.bag(c), rough.bag(node)) for c in kids]
            cur = tops[0]
            for other in tops[1:]:
                join = new_node(set(rough.bag(node)))
                parent[cur] = join
                parent[other] = join
                cur = join
            image[node] = cur
    new_root = chain(image[rough.root], rough.bag(rough.root), frozenset())

    trunk: List[int] = [leaf_image[rough.trunk[0]]]
    while trunk[-1] != new_root:
        trunk.append(parent[trunk[-1]])
    return TrunkTreeDecomposition(bags, parent, new_root, trunk)


def min_degree_td(instance):
    """``normalize`` of the tree decomposition of a min-degree elimination
    ordering: variable v's node holds v and its neighbours when it is
    eliminated, under the node of the first of them eliminated next."""
    adjacency = {v: set(ns) for v, ns in primal_graph(instance).items()}
    bags, order = {}, []
    while adjacency:
        v = min(adjacency, key=lambda x: (len(adjacency[x]), x))
        neighbours = adjacency.pop(v)
        for a in neighbours:
            adjacency[a] |= neighbours - {a}
            adjacency[a].discard(v)
        bags[v] = frozenset(neighbours | {v})
        order.append(v)
    position = {v: i for i, v in enumerate(order)}
    root = max(order) + 1
    bags[root] = frozenset()
    parent = {v: min(bags[v] - {v}, key=position.__getitem__, default=root) for v in order}
    leaf = min(v for v in order if v not in parent.values())
    trunk = [leaf]
    while trunk[-1] != root:
        trunk.append(parent[trunk[-1]])
    return normalize(TrunkTreeDecomposition(bags, parent, root, trunk))


def stepwise(instance, td, poset, limits=EngineLimits()):
    """Reference derivation on whole matrices: ``step`` along the run's
    plan from a state whose store holds no clause, so every clause is
    touched from the start, on ``validate_input``'s instance.
    Returns (verdict, trace, the state after every step)."""
    cleaned, ordering, branching = validate_input(instance, td, poset)
    plan = initial_state(cleaned, ordering, branching, poset).untouched.plan
    whole = frozenset({frozenset({cleaned.matrix})})
    state = DerivationState(whole, 0, UntouchedStore(frozenset(), plan))
    trace, states = [], []
    for _ in plan:
        state, event = step(state, limits)
        trace.append(event)
        states.append(state)
    verdict = any(all(ground_truth(m) for m in pi) for pi in state.family)
    return verdict, trace, states


def reference_r2(state: DerivationState, m: Matrix) -> Matrix:
    """The touched part R2 makes of one matrix of the state's family at
    its next step, by the definition: the step's whole bucket pulled in,
    the pivot resolved by the two-argument ``resolve`` and the clauses
    still untouched after the step dropped."""
    store, index = state.untouched, state.step_index
    pivot, pulled = store.plan[index][0], store.pulls[index]
    return store.touched_part(resolve(Matrix._of(m | pulled), pivot), index + 1)


def reference_r3(state: DerivationState, m: Matrix) -> Matrix:
    """The touched part R3 makes of one matrix of the state's family at
    its next step, by the definition: the step's whole bucket pulled in,
    the universal reduced and the clauses still untouched after the step
    dropped."""
    store, index = state.untouched, state.step_index
    u, pulled = store.plan[index][0], store.pulls[index]
    return store.touched_part(reduce(Matrix._of(m | pulled), u), index + 1)


def reference_plan(instance, td, poset, ordering):
    """(variable, rule, removed variables, strategy shape) per step, by
    the side condition on a live set: a dead v is R1 and removes nothing;
    a live v is R4 iff its forget bag holds a live strict dependent of v,
    and then removes v and its live strict dependencies; any other v is
    R2 or R3 by its quantifier and removes v alone.  Only R4 has a shape:
    the removed universals ascending, then the removed existentials, each
    existential with the positions of the universals it strictly depends
    on, and one table bit per play of those."""
    prefix = instance.prefix
    live = set(prefix.variables)
    plan = []
    for v in ordering:
        if v not in live:
            plan.append((v, "R1", frozenset(), None))
            continue
        bag = td.bag(forget_node(td, v))
        if any(w in live and v in poset.strict(w) for w in bag):
            removes = frozenset({v} | {w for w in live if w in poset.strict(v)})
            universal = sorted(removes & prefix.universal)
            existential = sorted(removes - prefix.universal)
            owns = tuple(
                tuple(i for i, u in enumerate(universal) if u in poset.strict(x))
                for x in existential
            )
            bits = sum(2 ** len(own) for own in owns)
            shape = StrategyShape(len(universal), tuple(universal + existential), owns, bits)
            plan.append((v, "R4", removes, shape))
        else:
            removes = frozenset({v})
            plan.append((v, "R2" if v in prefix.existential else "R3", removes, None))
        live -= removes
    return plan


def limit_kind(exc: ResourceLimitError) -> str:
    """Which engine limit a ``ResourceLimitError`` reports."""
    return next(kind for fragment, kind in LIMIT_KINDS if fragment in str(exc))


def shuffled_forget_orders():
    """Seeded 3-7 variable instances of 2-4 blocks, each with its variables
    in a shuffled order.  Yields (seed, instance, forget order)."""
    for seed in range(240):
        rng = random.Random(seed)
        q = random_instance(
            seed, rng.randint(3, 7), rng.randint(1, 10), rng.randint(1, 3), rng.randint(2, 4)
        )
        forget = list(q.prefix.variables_in_order())
        rng.shuffle(forget)
        yield seed, q, forget


def shuffled_path_cases():
    """The R4-heavy corpus: ``shuffled_forget_orders`` on the paths that
    forget in the shuffled order.  Yields (seed, instance, td)."""
    for seed, q, forget in shuffled_forget_orders():
        yield seed, q, forget_path_td(q, forget)


def join_node_cases():
    """Seeded 2-7 variable instances of 1-4 blocks on their min-degree
    decompositions, many with join nodes and many not trunk-aligned.
    Yields (seed, instance, td)."""
    for seed in range(600):
        rng = random.Random(seed)
        q = random_instance(
            seed, rng.randint(2, 7), rng.randint(1, 9), rng.randint(1, 3), rng.randint(1, 4)
        )
        yield seed, q, min_degree_td(q)


def sub_poset_cases():
    """Each shuffled path again, under a random sound sub-poset of the
    trivial one: its strict pairs each kept with probability 1/2,
    closed, and used only if it preserves truth and the path is
    trunk-aligned.  Yields (seed, instance, td, poset)."""
    for seed, q, td in shuffled_path_cases():
        full = trivial_poset(q.prefix)
        rng = random.Random(seed)
        kept = [pair for pair in full.strict_pairs() if rng.random() < 0.5]
        d = poset_from_pairs(q.prefix, kept)
        if d == full or not verify_poset_property2(q, d):
            continue
        if validate_trunk_aligned(td, q, d).ok:
            yield seed, q, td, d
