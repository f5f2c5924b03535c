"""Rooted nice tree decompositions with a designated trunk path.

The decomposition's constructor is the one check of its structural shape
(a tree rooted at ``root`` whose trunk is a leaf-to-root path); its
errors name the edge, node, root or trunk at fault.  Niceness (T1-T4) and
trunk alignment (P1/P2) are checked by the validators below, which
report violations instead of raising.

The constructor walks the tree once, from the root: the walk checks
that the edges form a tree and gives the post-order.  One pass over the
nodes, made when first needed and then kept, records each
variable's topmost nodes (those whose parent's bag lacks it), the nodes
failing T3 or T4 and the forget nodes: a variable's one topmost node, if
that node tops no other.  The functions below read the post-order and
these records and walk no node again, but for P2's subtrees off the trunk.
T1 and P1 build no set per clause or variable: a clause is tested as a
subset of a top bag kept with both signs, P1 reads stored strict sets.

Trunk alignment is evaluated with strict dependence for P1: the
reflexive pair (u, u) is ignored, otherwise no variable could ever
satisfy P1 since every variable sits in its own forget bag.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .formulas import QbfInstance, _neg
from .posets import DependencyPoset


class DecompositionError(ValueError):
    """Structurally broken decomposition (not a tree, bad trunk, ...).

    ``subject`` is the part of the input that a structural error is
    about: ``("edge", child)`` for the edge into ``child``, ``("node", n)``,
    ``("root",)`` or ``("trunk",)``.  It is empty for the errors raised
    outside the constructor.
    """

    def __init__(self, message: str, *subject: object):
        super().__init__(message)
        self.subject = subject


class Violation(NamedTuple):
    rule: str  # T1 | T2 | T3 | T4 | P1P2
    subject: str  # node id or variable id as text
    message: str


class ValidationReport(NamedTuple):
    violations: Tuple[Violation, ...] = ()
    #: For trunk-alignment checks: variable -> "P1" | "P2" | "P1P2".
    #: The default is a read-only empty mapping, so no report shares a
    #: mutable one.
    property_held: Mapping[int, str] = MappingProxyType({})

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"[{v.rule}] {v.subject}: {v.message}" for v in self.violations)


class TrunkTreeDecomposition:
    """A rooted tree of bags with a leaf-to-root trunk path.

    ``bags`` maps node ids to variable sets, ``parent`` maps every
    non-root node to its parent, ``trunk`` lists the trunk nodes from
    the designated leaf up to the root.
    """

    def __init__(
        self,
        bags: Mapping[int, Iterable[int]],
        parent: Mapping[int, int],
        root: int,
        trunk: Sequence[int],
    ):
        self._bags: Dict[int, FrozenSet[int]] = {
            node: frozenset(variables) for node, variables in bags.items()
        }
        self._parent: Dict[int, int] = dict(parent)
        self._root = root
        self._trunk: Tuple[int, ...] = tuple(trunk)
        _check_edges(self._bags, self._parent)
        if root not in self._bags:
            raise DecompositionError(f"unknown root node {root}", "root")
        if root in self._parent:
            raise DecompositionError(f"root {root} has a parent (multiple roots)", "root")
        for node in self._trunk:
            if node not in self._bags:
                raise DecompositionError(f"trunk mentions unknown node {node}", "trunk")
        # Each node's children; the walk sorts those of a node with several.
        self._children: Dict[int, List[int]] = {node: [] for node in self._bags}
        for child, par in self._parent.items():
            self._children[par].append(child)
        self._nodes: Tuple[int, ...] = tuple(sorted(self._bags))
        self._postorder: Tuple[int, ...] = self._walk()
        self._check_trunk()

    def _walk(self) -> Tuple[int, ...]:
        """The post-order (see ``postorder``) of the one walk from the root;
        raises unless the walk reaches every node, i.e. unless the edges
        form a tree.  A node is visited before its children and the trunk
        child first among them, so the visits reversed are the post-order."""
        children, on_trunk = self._children, set(self._trunk)
        visits: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            visits.append(node)
            kids = children[node]
            if len(kids) > 1:
                kids.sort()
                # A stable sort puts the trunk child, the one child of a
                # trunk node on the trunk, last.
                stack += sorted(kids, key=on_trunk.__contains__)
            else:
                stack += kids
        if len(visits) != len(self._bags):
            raise self._not_a_tree(set(visits))
        visits.reverse()
        return tuple(visits)

    @cached_property
    def _records(self) -> tuple:
        """The one pass over the nodes (see the module docstring): variable
        -> a topmost node, variable -> its topmost nodes if several, node
        -> the one variable new at it, the nodes failing T3 and those
        failing T4 with the message, each list ascending.  The variables
        new at a child, those its parent's bag lacks, are found at the
        parent; those at the root are its bag."""
        bags, children, root = self._bags, self._children, self._root
        top = dict.fromkeys(bags[root], root)
        split: Dict[int, List[int]] = {}
        forgotten: Dict[int, int] = {}
        if len(top) == 1:
            (forgotten[root],) = top
        # A root without children is checked with the leaves.
        t3 = [root] if top and children[root] else []
        t4: List[Tuple[int, str]] = []
        for node in self._nodes:
            bag, kids = bags[node], children[node]
            for kid in kids:
                below = bags[kid]
                new = below - bag
                if new:
                    for v in new:
                        if top.setdefault(v, kid) != kid:
                            split.setdefault(v, [top[v]]).append(kid)
                    if len(new) == 1:
                        forgotten[kid] = v
            if not kids:
                if bag:
                    t3.append(node)
            elif len(kids) == 1:
                # Introduce: no variable new below and one fewer.  Forget:
                # one new and one more.  With more new ones, sizes differ.
                if len(below) != len(bag) + 2 * len(new) - 1:
                    t4.append((node, "single-child node is neither introduce nor forget"))
            elif len(kids) == 2:
                if not bag == bags[kids[0]] == bags[kids[1]]:
                    t4.append((node, "join node bags differ from children"))
            else:
                t4.append((node, f"node has {len(kids)} children"))
        for tops in split.values():
            tops.sort()
        t3.sort()
        return top, split, forgotten, t3, t4

    def _not_a_tree(self, reached: Set[int]) -> DecompositionError:
        """The error for a walk from the root that missed some nodes: the
        first node without a parent, else the cycle that the parent walk
        from the first missed node runs into."""
        for node in self._bags:
            if node != self._root and node not in self._parent:
                return DecompositionError(f"node {node} is disconnected (no parent)", "node", node)
        # Every node has a parent, and no parent walk from a missed node
        # reaches the root, so the walk repeats a node.
        cur = next(node for node in self._bags if node not in reached)
        walked: Set[int] = set()
        while cur not in walked:
            walked.add(cur)
            cur = self._parent[cur]
        return DecompositionError(f"cycle through node {cur}", "edge", cur)

    def _check_trunk(self) -> None:
        trunk = self._trunk
        if not trunk:
            raise DecompositionError("trunk must not be empty", "trunk")
        if trunk[-1] != self._root:
            raise DecompositionError("trunk must end at the root", "trunk")
        if self._children[trunk[0]]:
            raise DecompositionError(f"trunk start {trunk[0]} is not a leaf", "trunk")
        for lower, upper in zip(trunk, trunk[1:]):
            if self._parent.get(lower) != upper:
                raise DecompositionError(
                    f"trunk nodes {lower} and {upper} are not child and parent", "trunk"
                )

    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def root(self) -> int:
        return self._root

    @property
    def trunk(self) -> Tuple[int, ...]:
        return self._trunk

    def bag(self, node: int) -> FrozenSet[int]:
        return self._bags[node]

    def parent_of(self, node: int) -> Optional[int]:
        return self._parent.get(node)

    def children(self, node: int) -> Tuple[int, ...]:
        return tuple(self._children[node])

    def bag_variables(self) -> FrozenSet[int]:
        """The variables of all bags: each has a topmost node."""
        return frozenset(self._records[0])

    def postorder(self) -> Tuple[int, ...]:
        """Deterministic post-order: the trunk child of a trunk node last
        among its siblings, the other children ascending by id.  It is
        the constructor's one walk, reversed."""
        return self._postorder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrunkTreeDecomposition):
            return NotImplemented
        return (
            self._bags == other._bags
            and self._parent == other._parent
            and self._root == other._root
            and self._trunk == other._trunk
        )

    def __repr__(self) -> str:
        return (
            f"TrunkTreeDecomposition(nodes={len(self._bags)}, "
            f"width={width(self)}, trunk_len={len(self._trunk)})"
        )


def width(td: TrunkTreeDecomposition) -> int:
    """Size of the largest bag minus one."""
    return max(len(td.bag(t)) for t in td.nodes) - 1


def _check_edges(bags: Mapping[int, object], parent: Mapping[int, int]) -> None:
    """Raise at the first edge, in ``parent``'s order, that mentions a
    node without a bag."""
    for child, par in parent.items():
        if par not in bags or child not in bags:
            unknown = child if par in bags else par
            raise DecompositionError(f"edge mentions unknown node {unknown}", "edge", child)


def forget_node(td: TrunkTreeDecomposition, v: int) -> int:
    """The unique highest node whose bag contains v."""
    top, split = td._records[:2]
    node = top.get(v)
    if node is None:
        raise DecompositionError(f"variable {v} is never introduced")
    if v in split:
        raise DecompositionError(f"variable {v} {_forget_fault(td, v)}")
    return node


def _forget_fault(td: TrunkTreeDecomposition, v: int) -> str:
    """Why a variable of some bag has no forget node: it has several
    topmost nodes (a T2 violation), or its one topmost node tops another
    variable too (impossible in a nice decomposition)."""
    top, split = td._records[:2]
    tops = split.get(v)
    if tops:
        return f"has {len(tops)} topmost occurrences {tops}"
    node = top[v]
    above = td._bags.get(td._parent.get(node), frozenset())
    return f"shares forget node {node} with {sorted(td._bags[node] - above - {v})}"


def subtree_vars(td: TrunkTreeDecomposition, node: int) -> FrozenSet[int]:
    """Union of the bags in the subtree rooted at the node."""
    bags, children = td._bags, td._children
    if node not in bags:
        raise DecompositionError(f"unknown node {node}")
    out: Set[int] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        out |= bags[cur]
        stack.extend(children[cur])
    return frozenset(out)


# The top bag or strict set of a literal or variable that has none.
_NOWHERE: FrozenSet[int] = frozenset()


def validate_nice(td: TrunkTreeDecomposition, instance: QbfInstance) -> ValidationReport:
    """Check T1-T4, listing every violation.

    T1 is checked clause by clause, so on a valid decomposition its cost
    is linear in the matrix and never enumerates the pairs of a bag.
    T2, T3 and T4 read what the one pass over the nodes recorded: each
    variable's topmost nodes and the nodes failing T3 or T4.
    """
    violations: List[Violation] = []
    variables = instance.prefix.variables
    bags = td._bags
    top, split, _, t3, t4 = td._records

    for v in sorted(top.keys() - variables):
        violations.append(
            Violation("T2", str(v), "appears in bags but is not a variable of the instance")
        )

    # T1: every primal edge inside some bag, read per clause.  A clause
    # is covered when the top node of one of its variables has a bag
    # holding the whole clause.  On a valid decomposition every clause
    # is: its variables' subtrees meet pairwise, so they share a node
    # (Helly), and the top of that common part is the top of one of
    # them.  Each literal maps to its variable's top bag with both signs
    # of every variable, so a clause is tested by subset alone, with no
    # set built per clause.  Only the pairs of the other clauses are
    # tested against the bags.
    cover: Dict[int, FrozenSet[int]] = {}
    for v, node in top.items():
        bag = bags[node]
        cover[v] = cover[-v] = bag.union(map(_neg, bag))
    uncovered = []
    for lits in instance.matrix:
        for lit in lits:
            if lits <= cover.get(lit, _NOWHERE):
                break
        else:
            over = sorted(set(map(abs, lits)))
            if len(over) > 1:  # else it has no primal edge
                uncovered.append(over)
    if uncovered:
        nodes_of: Dict[int, Set[int]] = {}
        for node, bag in bags.items():
            for x in bag:
                nodes_of.setdefault(x, set()).add(node)
        missing = {
            (u, w)
            for over in uncovered
            for i, u in enumerate(over)
            for w in over[i + 1 :]
            if nodes_of.get(u, frozenset()).isdisjoint(nodes_of.get(w, ()))
        }
        for u, w in sorted(missing):
            violations.append(
                Violation("T1", f"{u},{w}", "primal edge not contained in any bag")
            )

    # T2: occurrences of each variable form a nonempty connected subtree,
    # so it has exactly one topmost node.
    for v in sorted(variables - top.keys() | variables & split.keys()):
        tops = split.get(v)
        if tops is None:
            violations.append(Violation("T2", str(v), "variable occurs in no bag"))
        else:
            message = f"occurrences split into {len(tops)} components (tops {tops})"
            violations.append(Violation("T2", str(v), message))

    # T3: leaf and root bags are empty.  T4: every non-leaf node is
    # introduce, forget, or join.  Every T3 is listed first.
    for node in t3:
        violations.append(
            Violation("T3", str(node), f"leaf/root bag is not empty: {sorted(bags[node])}")
        )
    violations += [Violation("T4", str(node), message) for node, message in t4]

    return ValidationReport(tuple(violations))


def validate_trunk_aligned(
    td: TrunkTreeDecomposition, instance: QbfInstance, poset: DependencyPoset
) -> ValidationReport:
    """Check that every variable satisfies P1 or P2.

    P1 (strict): no distinct variable depending on u sits in u's forget
    bag.  P2: u is forgotten on the trunk and everything u depends on
    occurs in the subtree at or below u's forget node.  The report
    records which property held for each variable.
    """
    violations: List[Violation] = []
    held: Dict[int, str] = {}
    variables = instance.prefix.variables
    bags, children = td._bags, td._children
    top, split, forgotten = td._records[:3]
    strict = poset._strict  # P1 reads the stored sets; outside the poset, none
    # P2 in one walk up the trunk: ``below`` grows to the variables of
    # the subtree at each trunk node.  Each distinct stored predecessor
    # set keeps the list of its members not yet seen below; a test pops
    # the members that are below by now and fails at the first that is
    # not.  Every member is popped once, so the walk is linear in the
    # bags and the distinct sets, not O(|set|) per trunk forget node.
    p2_holds: Set[int] = set()
    below: Set[int] = set()
    outside: Dict[FrozenSet[int], List[int]] = {}
    for lower, node in zip((None,) + td.trunk, td.trunk):
        below |= bags[node]
        for child in children[node]:
            if child != lower:
                below |= subtree_vars(td, child)
        u = forgotten.get(node)
        # ``poset.strict`` raises on a variable outside the instance.
        if u is not None and u in variables:
            preceding = poset.strict(u)
            rest = outside.get(preceding)
            if rest is None:
                rest = outside[preceding] = list(preceding)
            while rest and rest[-1] in below:
                rest.pop()
            if not rest:
                p2_holds.add(u)
    for u in sorted(variables):
        node = top.get(u)
        if node is None:
            violations.append(Violation("P1P2", str(u), "variable occurs in no bag"))
            continue
        if forgotten.get(node) != u or u in split:
            violations.append(Violation("P1P2", str(u), _forget_fault(td, u)))
            continue
        if u not in strict:
            raise KeyError(f"variable {u} is not in the poset universe")
        # P1: no member of the forget bag has u in its strict set.
        for w in bags[node]:
            if u in strict.get(w, _NOWHERE):
                p1 = False
                break
        else:
            p1 = True
        p2 = u in p2_holds
        if p1 and p2:
            held[u] = "P1P2"
        elif p1:
            held[u] = "P1"
        elif p2:
            held[u] = "P2"
        else:
            offenders = sorted(poset.dependents_strict(u, bags[node]))
            violations.append(
                Violation(
                    "P1P2",
                    str(u),
                    f"P1 fails (dependents {offenders} in forget bag {node}) and P2 fails",
                )
            )
    return ValidationReport(tuple(violations), held)


def elimination_ordering(td: TrunkTreeDecomposition) -> Tuple[int, ...]:
    """Variables in the order of their forget nodes in ``td.postorder()``,
    a fixed total extension of the node order; raises DecompositionError
    if a variable has no forget node (see ``_forget_fault``)."""
    top, split, forgotten = td._records[:3]
    # Every variable of a bag has a topmost node, so each has a forget
    # node iff none has several and each of them tops one variable.
    if split or len(forgotten) != len(top):
        v = min(top.keys() - set(forgotten.values()) | split.keys())
        raise DecompositionError(f"variable {v} {_forget_fault(td, v)}")
    return tuple([forgotten[node] for node in td._postorder if node in forgotten])
