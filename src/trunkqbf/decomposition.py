"""Rooted nice tree decompositions with a designated trunk path.

The decomposition's constructor is the one check of its structural shape
(a tree rooted at ``root`` whose trunk is a leaf-to-root path); its
errors name the edge, node, root or trunk at fault.  Niceness (T1-T4) and
trunk alignment (P1/P2) are checked by the validators below, which
report violations instead of raising.

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

from .formulas import QbfInstance
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
        self._children: Dict[int, List[int]] = {node: [] for node in self._bags}
        for child, par in self._parent.items():
            self._children[par].append(child)
        # The edges form a tree iff one walk down from the root reaches
        # every node; the list grows while it is walked.
        reached = [root]
        for node in reached:
            reached.extend(self._children[node])
        if len(reached) != len(self._bags):
            raise self._not_a_tree(set(reached))
        for kids in self._children.values():
            kids.sort()
        self._nodes: Tuple[int, ...] = tuple(sorted(self._bags))
        self._check_trunk()

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

    @cached_property
    def _tops(self) -> Dict[int, Tuple[int, ...]]:
        """Variable -> the nodes holding it whose parent does not, ascending.

        A variable whose occurrences form one subtree has exactly one
        such node, its forget node.
        """
        tops: Dict[int, List[int]] = {}
        for node in self._nodes:
            above = self._bags.get(self._parent.get(node), frozenset())
            for v in self._bags[node] - above:
                tops.setdefault(v, []).append(node)
        return {v: tuple(nodes) for v, nodes in tops.items()}

    @cached_property
    def _forgotten(self) -> Dict[int, int]:
        """Forget node -> the variable it forgets, built once.

        Raises DecompositionError when a variable has several topmost
        occurrences (a T2 violation) or shares its forget node with
        another variable (impossible in a nice decomposition).
        """
        forgotten: Dict[int, int] = {}
        for v in self._tops:
            node = forget_node(self, v)
            if forgotten.setdefault(node, v) != v:
                raise DecompositionError(
                    f"variables {forgotten[node]} and {v} share forget node {node}"
                )
        return forgotten

    def bag_variables(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for bag in self._bags.values():
            out |= bag
        return frozenset(out)

    def postorder(self) -> Tuple[int, ...]:
        """Deterministic post-order: the trunk child of a trunk node last
        among its siblings, the other children ascending by id."""
        trunk_child = dict(zip(self._trunk[1:], self._trunk))
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(self._root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            tc = trunk_child.get(node)
            if tc is not None:
                stack.append((tc, False))
            for child in reversed(self._children[node]):
                if child != tc:
                    stack.append((child, False))
        return tuple(order)

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
    tops = td._tops.get(v)
    if not tops:
        raise DecompositionError(f"variable {v} is never introduced")
    if len(tops) != 1:
        raise DecompositionError(
            f"variable {v} has {len(tops)} topmost occurrences {list(tops)}"
        )
    return tops[0]


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


def validate_nice(td: TrunkTreeDecomposition, instance: QbfInstance) -> ValidationReport:
    """Check T1-T4, listing every violation.

    T1 is checked clause by clause, so on a valid decomposition its cost
    is linear in the matrix and never enumerates the pairs of a bag.
    """
    violations: List[Violation] = []
    variables = instance.prefix.variables

    foreign = td.bag_variables() - variables
    for v in sorted(foreign):
        violations.append(
            Violation("T2", str(v), "appears in bags but is not a variable of the instance")
        )

    # T1: every primal edge inside some bag, read per clause.  A clause
    # is covered when the top node of one of its variables has a bag
    # holding the whole clause.  On a valid decomposition every clause
    # is: its variables' subtrees meet pairwise, so they share a node
    # (Helly), and the top of that common part is the top of one of
    # them.  Only the pairs of the other clauses are tested against the
    # bags.
    bags = td._bags
    tops = td._tops
    uncovered = []
    for lits in instance.matrix:
        over = frozenset(map(abs, lits))
        if len(over) < 2:
            continue
        for x in over:
            top = tops.get(x)
            if top and over <= bags[top[0]]:
                break
        else:
            uncovered.append(sorted(over))
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

    # T2: occurrences of each variable form a nonempty connected subtree.
    for v in sorted(variables):
        tops = td._tops.get(v)
        if not tops:
            violations.append(Violation("T2", str(v), "variable occurs in no bag"))
            continue
        if len(tops) != 1:
            violations.append(
                Violation(
                    "T2",
                    str(v),
                    f"occurrences split into {len(tops)} components (tops {list(tops)})",
                )
            )

    # T3: leaf and root bags are empty.  T4: every non-leaf node is
    # introduce, forget, or join.  One walk; every T3 is listed first.
    t4: List[Violation] = []
    for node in td.nodes:
        bag, kids = bags[node], td._children[node]
        if (not kids or node == td._root) and bag:
            violations.append(
                Violation("T3", str(node), f"leaf/root bag is not empty: {sorted(bag)}")
            )
        if len(kids) == 1:
            child_bag = bags[kids[0]]
            if len(bag) == len(child_bag) + 1 and child_bag < bag:
                continue  # introduce
            if len(bag) == len(child_bag) - 1 and bag < child_bag:
                continue  # forget
            t4.append(
                Violation("T4", str(node), "single-child node is neither introduce nor forget")
            )
        elif len(kids) == 2:
            if not (bag == bags[kids[0]] == bags[kids[1]]):
                t4.append(Violation("T4", str(node), "join node bags differ from children"))
        elif kids:
            t4.append(Violation("T4", str(node), f"node has {len(kids)} children"))

    return ValidationReport(tuple(violations + t4))


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
    forgotten = td._forgotten
    forget = {u: node for node, u in forgotten.items()}
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
        below |= td._bags[node]
        for child in td._children[node]:
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
        node = forget.get(u)
        if node is None:
            violations.append(Violation("P1P2", str(u), "variable occurs in no bag"))
            continue
        offenders = poset.dependents_strict(u, td.bag(node))
        p1 = not offenders
        p2 = u in p2_holds
        if p1 and p2:
            held[u] = "P1P2"
        elif p1:
            held[u] = "P1"
        elif p2:
            held[u] = "P2"
        else:
            violations.append(
                Violation(
                    "P1P2",
                    str(u),
                    f"P1 fails (dependents {sorted(offenders)} in forget bag {node}) and P2 fails",
                )
            )
    return ValidationReport(tuple(violations), held)


def elimination_ordering(td: TrunkTreeDecomposition) -> Tuple[int, ...]:
    """Variables in the order of their forget nodes in ``td.postorder()``,
    a fixed total extension of the node order."""
    forgotten = td._forgotten
    return tuple(forgotten[node] for node in td.postorder() if node in forgotten)
