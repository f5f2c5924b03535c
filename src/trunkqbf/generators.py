"""Instance and decomposition generators.

The parity family pairs an n-ary XOR constraint chain with a width-2
trunk decomposition; ``single_bag_td`` is the generic fallback that
introduces every variable in prefix order and forgets in reverse, so it
exists for every instance (at width n-1), and ``forget_path_td`` the
same path with any forget order.  Each is built from one list of
events: from an empty leaf bag, ``+v`` introduces v and ``-v`` forgets
it, one node per event.

Variable numbering of ``qparity(n)``: ``x_i -> i``, ``u -> n+1``,
``z_i -> n+1+i``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

from .decomposition import TrunkTreeDecomposition
from .formulas import EXISTS, FORALL, Clause, Matrix, Prefix, QbfInstance


def _event_path(events: Iterable[int]) -> TrunkTreeDecomposition:
    """The path from an empty leaf bag through one node per event, ``+v``
    introducing v and ``-v`` forgetting it, to the last node, the root;
    the whole path is the trunk."""
    bags: List[FrozenSet[int]] = [frozenset()]
    for event in events:
        bag = bags[-1]
        bags.append(bag | {event} if event > 0 else bag - {-event})
    nodes = range(1, len(bags) + 1)
    parent = {t: t + 1 for t in nodes[:-1]}
    return TrunkTreeDecomposition(dict(zip(nodes, bags)), parent, nodes[-1], tuple(nodes))


def _eq(a: int, b: int) -> List[Clause]:
    return [Clause((a, -b)), Clause((-a, b))]


def _xor(a: int, b: int, c: int) -> List[Clause]:
    # a = b xor c, as the four sign-combination clauses
    return [
        Clause((-a, b, c)),
        Clause((a, -b, c)),
        Clause((a, b, -c)),
        Clause((-a, -b, -c)),
    ]


def qparity(n: int) -> QbfInstance:
    """The n-th parity instance: 2n+1 variables, 4n clauses, false for all n."""
    if n < 2:
        raise ValueError(f"qparity requires n >= 2, got {n}")
    x = {i: i for i in range(1, n + 1)}
    u = n + 1
    z = {i: n + 1 + i for i in range(1, n + 1)}
    clauses = _eq(x[1], z[1]) + _eq(u, z[n])
    for i in range(1, n):
        clauses += _xor(z[i + 1], x[i + 1], z[i])
    prefix = Prefix(
        (
            (EXISTS, tuple(x[i] for i in range(1, n + 1))),
            (FORALL, (u,)),
            (EXISTS, tuple(z[i] for i in range(n, 0, -1))),
        )
    )
    return QbfInstance(prefix, Matrix(clauses))


def qparity_td(n: int) -> TrunkTreeDecomposition:
    """The width-2 single-path trunk decomposition of qparity(n), by its
    events: x1, z1, -x1; then for i = 2..n: x_i, z_i, -z_{i-1}, and -x_i
    below n; then u, -x_n, -z_n, -u.  The trunk is the whole path."""
    if n < 2:
        raise ValueError(f"qparity_td requires n >= 2, got {n}")
    u = n + 1
    z = {i: n + 1 + i for i in range(1, n + 1)}
    events = [1, z[1], -1]
    for i in range(2, n):
        events += [i, z[i], -z[i - 1], -i]
    return _event_path(events + [n, z[n], -z[n - 1], u, -n, -z[n], -u])


def forget_path_td(instance: QbfInstance, forget: Iterable[int]) -> TrunkTreeDecomposition:
    """The path that introduces every variable in prefix order, then
    forgets them in the given order; the whole path is the trunk."""
    return _event_path([*instance.prefix.variables_in_order(), *(-v for v in forget)])


def single_bag_td(instance: QbfInstance) -> TrunkTreeDecomposition:
    """Path decomposition introducing all variables in prefix order and
    forgetting them in reverse prefix order (in-block ties: descending id).

    Width is |var| - 1; with the trivial poset every variable satisfies
    P1, so the derivation engine only ever resolves and reduces on it.
    An instance without variables gets one node with an empty bag.
    """
    return forget_path_td(instance, reversed(instance.prefix.variables_in_order()))
