"""The derivation-sequence engine.

Variables are eliminated along an elimination ordering that agrees with
a trunk-aligned tree decomposition, one rule per step:

* R1 - the variable was already removed by an earlier strategy
  extension: copy the state.
* R2 - existential, and no still-quantified variable depending on it
  sits in its forget bag: resolve it away in every matrix.
* R3 - universal under the same side condition: reduce it everywhere.
* R4 - otherwise: branch over all partial existential strategies and
  universal plays up to the variable (strategy extension).

The R2/R3 side condition uses strict dependence; under the reflexive
relation the tested set would always contain the variable itself (it is
in its own forget bag) and the rules could never fire.

The rule is decided once, in validation.  ``validate_trunk_aligned``
tests P1 for every variable: no strict dependent of it lies in its
forget bag.  ``validate_input`` returns the variables that fail P1 (so
meet P2 only) as ``branching``, and the plan fires R4 on a live
variable iff it is in that set; no step reads the decomposition.  This
equals the side condition above, which asks only for *live* dependents: let v
be live at its step and w a strict dependent of v in v's forget bag.
w's forget node is a proper ancestor of v's (its parent forgets v and
keeps w), so w's own step comes later.  An earlier R4 on some v'
removed w only if w is in strict(v'); then v is in strict(v') by
transitivity, and that step would have removed v too.  So w is still
live, and the live test equals P1.

The run is planned once: a step's rule, the variables it removes and,
for R4, its strategy shape depend on the ordering and the poset, with the
prefix it records, only.  ``initial_state`` walks the ordering once with a mutable
live set and records per step the variable, the rule, the removed
variables (none for R1, {v} for R2 and R3, and v with its live strict
dependencies for R4) and the ``StrategyShape`` of an R4 step.  A state is
the family, the step index and the store, which holds the plan; a step
reads its plan entry, its bucket of the store and the limits, never the
poset or the prefix.  Every variable is removed by exactly one step, so
the live variables are those the steps not yet done remove.

Families are sets of sets of matrices; both levels deduplicate eagerly
after every rule application.  A clause is the frozenset of its
literals, a plain frozenset from the parser or a kernel or a ``Clause``
from another caller, equal when their literals are: a resolvent is a
union minus the pivot's two literals, reduction and restriction are set
differences, and a clause is tautological when it meets its own
negation.  A matrix is the frozenset of its clauses, built by the
kernels with ``Matrix._of``, so both levels of a family deduplicate by
C-level set hashing.  No ``Clause`` is constructed and no literal is
sorted during a run.  What R4's strategy extensions share, the strategy
table and the full assignments of the step's shape, is built once per
step, and a small table once per shape; R2 tests resolvents for
tautologies with one clash set per negative clause, built once per step
for the clauses of its bucket.

A step makes one kernel call per distinct matrix of its family, however
many sets hold the matrix, and every set that holds it shares the
result.  R4 calls ``strategy_extension`` once per set, but every call
of a step reads and fills one map from a matrix to the sets its
strategies produce, so a matrix is restricted once per full assignment
per step.  R2 and R3 map each distinct matrix once, through a per-step
map, to its resolved or reduced touched part, and so does R4's drop for
each distinct matrix of its output.  Each new family is built in plain
loops, without generator frames.

A matrix is stored in two parts.  Its *untouched* part is every input
clause whose variables are all still quantified: no rule has acted on
such a clause yet, so it is the same in every matrix of the family and
is kept once per run, in the state's ``UntouchedStore``, bucketed by the
first step that removes one of its variables.  ``state.family`` holds
only the *touched* parts, the clauses an earlier step pulled in or
derived, and ``state.whole_family()`` gives the whole matrices.  A rule
acts on touched parts only, with its step's bucket pulled in, since no
other clause mentions a variable it assigns or removes; any clause of a
later bucket is dropped again, and a matrix without a stored clause is
kept as it is.  R3 pulls, reduces the union and drops in one pass per
distinct matrix.  R2 handles its bucket once per step: it splits it by
the pivot's sign, builds its clash sets and resolves its own pairs;
then one ``resolve`` call per distinct matrix tests only the pairs with
a parent in the matrix, the matrix limit is checked on its result, and
the drop follows.  R4 checks the branch limit once, for its largest
set, builds its shape's table and assignments once, pulls a non-empty
bucket into one set at a time and drops afterwards.  After the rule,
``step`` checks the family and set size limits itself, so every limit
of a run is checked in that one function.  The untouched
part is shared and disjoint from the touched one, so deduplicating
touched parts gives the same families, sizes and strategy counts as
deduplicating whole matrices, while the work per step is set by the
forget bag and not by the formula.

``validate_input`` is the one path from an instance to the engine's
input, for ``run_derivation`` and the ``validate`` command alike; it
removes the input's tautologies.  The kernels trust every matrix to be
tautology-free, and a run keeps it so: the store holds input clauses
only, ``resolve`` drops tautological resolvents, and ``reduce`` and
``restrict`` only delete literals.  With ``checks`` on, and only then,
``run_derivation`` asserts once that every stored clause can be
untouched and every other invariant after each step.
"""

from __future__ import annotations

import functools
import itertools
from itertools import repeat
from time import perf_counter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .decomposition import (
    TrunkTreeDecomposition,
    elimination_ordering,
    forget_node,
    validate_nice,
    validate_trunk_aligned,
)
from .formulas import (
    Clause,
    Frozen,
    Matrix,
    QbfInstance,
    _neg,
    ground_truth,
    is_tautological,
    remove_tautologies,
    restrict,
)
from .posets import DependencyPoset

MatrixSet = FrozenSet[Matrix]
Family = FrozenSet[MatrixSet]
# A clause inside the engine: the frozenset of its literals.
Lits = FrozenSet[int]
# Builds a NamedTuple from its fields in order, without the keyword
# handling of its generated ``__new__``; ``step`` and ``StrategyShape.of``
# run once per step.
_tuple_new = tuple.__new__
# A step of a run's plan: its variable, its rule, the variables it removes
# and, for R4 only, its strategy shape.
PlanEntry = Tuple[int, str, FrozenSet[int], Optional["StrategyShape"]]


class DerivationError(Exception):
    pass


class ValidationError(DerivationError):
    """Input failed decomposition or instance validation."""


class ResourceLimitError(DerivationError):
    """An engine limit was exceeded.

    Raised out of ``run_derivation``, its message names the step and the
    variable, and ``trace`` holds the events of the steps completed
    before it.
    """

    def __init__(self, message: str, trace: Tuple["TraceEvent", ...] = ()):
        super().__init__(message)
        self.trace = trace


class InvariantError(DerivationError):
    """A runtime invariant of the engine was violated (internal error)."""


# The default limits, shared by ``EngineLimits`` and the command line.
MAX_FAMILY_SIZE = 2**16
MAX_SET_SIZE = 2**14
MAX_STRATEGIES = 2**20
MAX_MATRIX_SIZE = 2**16


class EngineLimits(Frozen):
    """Bounds on a run: sets per family, matrices per set, branches per
    strategy extension and clauses per matrix that R2 builds, each a
    positive ``int``."""

    __slots__ = ("max_family_size", "max_set_size", "max_strategies", "max_matrix_size")
    max_family_size: int
    max_set_size: int
    max_strategies: int
    max_matrix_size: int

    def __init__(
        self,
        max_family_size: int = MAX_FAMILY_SIZE,
        max_set_size: int = MAX_SET_SIZE,
        max_strategies: int = MAX_STRATEGIES,
        max_matrix_size: int = MAX_MATRIX_SIZE,
    ) -> None:
        values = (max_family_size, max_set_size, max_strategies, max_matrix_size)
        if any(type(n) is not int for n in values):
            raise ValueError("limits must be integers")
        if min(values) < 1:
            raise ValueError("limits must be positive")
        object.__setattr__(self, "max_family_size", max_family_size)
        object.__setattr__(self, "max_set_size", max_set_size)
        object.__setattr__(self, "max_strategies", max_strategies)
        object.__setattr__(self, "max_matrix_size", max_matrix_size)

    def _key(self) -> Tuple[object, ...]:
        return (
            self.max_family_size,
            self.max_set_size,
            self.max_strategies,
            self.max_matrix_size,
        )


class UntouchedStore(Frozen):
    """A run's plan and its input clauses with a variable, stored once:
    ``plan[i]`` is step i + 1, and a clause (a literal set) is untouched
    until the first step that removes one of its variables pulls it in.
    ``pulls[i]`` holds the clauses step i + 1 pulls in, the last bucket
    those no step pulls in.  Stores compare by clauses and plan."""

    __slots__ = ("clauses", "plan", "pulls", "_pulled_at")
    clauses: FrozenSet[Lits]
    plan: Tuple[PlanEntry, ...]
    pulls: Tuple[FrozenSet[Lits], ...]
    _pulled_at: Dict[Lits, int]

    def __init__(self, clauses: FrozenSet[Lits], plan: Tuple[PlanEntry, ...]) -> None:
        end = len(plan)
        # Keyed by signed literal, so a clause's bucket is one C-level min
        # over its literals; ``never`` yields the bucket of a literal whose
        # variable no step removes.  ``min`` gets no ``default``, which
        # costs more than the empty-clause test.
        first: Dict[int, int] = {}
        for i, (_, _, removes, _) in enumerate(plan):
            for x in removes:
                first[x] = first[-x] = i
        get, never = first.get, itertools.repeat(end)
        pulled_at = {c: min(map(get, c, never)) if c else end for c in clauses}
        pulls: List[List[Lits]] = [[] for _ in range(end + 1)]
        for lits, i in pulled_at.items():
            pulls[i].append(lits)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "pulls", tuple(map(frozenset, pulls)))
        object.__setattr__(self, "_pulled_at", pulled_at)

    def _key(self) -> Tuple[object, ...]:
        return (self.clauses, self.plan)

    def touched_part(self, m: Matrix, done: int) -> Matrix:
        """The matrix without the stored clauses still untouched after
        ``done`` steps; a matrix without a stored clause is returned as it
        is, without building their intersection."""
        if self.clauses.isdisjoint(m):
            return m
        drop = [c for c in m.intersection(self.clauses) if self._pulled_at[c] >= done]
        return Matrix._of(m.difference(drop)) if drop else m


class DerivationState(NamedTuple):
    """A family of matrices after ``step_index`` steps of the run's plan.
    Every matrix of the family is the touched part only; its untouched
    part is the clauses of ``untouched`` that no step done has pulled in."""

    family: Family
    step_index: int
    untouched: UntouchedStore

    @property
    def live(self) -> FrozenSet[int]:
        """The variables still quantified: those the steps not yet done
        remove, as every variable is removed by exactly one step."""
        to_do = self.untouched.plan[self.step_index :]
        return frozenset().union(*[removes for _, _, removes, _ in to_do])

    def whole_family(self) -> Family:
        """The family with the untouched part put back into every matrix."""
        untouched = frozenset().union(*self.untouched.pulls[self.step_index :])
        return frozenset(frozenset([Matrix._of(m | untouched) for m in pi]) for pi in self.family)


class TraceEvent(NamedTuple):
    step: int
    variable: int
    rule: str
    family_before: int
    family_after: int
    max_set_size: int
    micros: int


class DerivationResult(NamedTuple):
    verdict: bool
    trace: Tuple[TraceEvent, ...]
    final: DerivationState


# A clause set resolved on a pivot: its clauses with the pivot, a
# (clause, clash set) pair per clause with the pivot's negation, and the
# resolved clauses, those with neither literal and every non-tautological
# resolvent.  ``step`` builds it once per R2 step for the step's bucket.
Resolution = Tuple[Sequence[Lits], Sequence[Tuple[Lits, Lits]], Sequence[Lits]]


def _resolvents(
    out: List[Lits],
    positive: Sequence[Lits],
    clashes: Sequence[Tuple[Lits, Lits]],
    pivot: Tuple[int, int],
) -> None:
    """Append the non-tautological resolvents of every positive clause
    with every (clause, clash set) pair to ``out``."""
    for c1 in positive:
        for c2, clash in clashes:
            if c1.isdisjoint(clash):
                out.append(c1.union(c2).difference(pivot))


def _resolution(clauses: FrozenSet[Lits], x: int) -> Resolution:
    """The ``Resolution`` of a tautology-free clause set on the pivot x."""
    pivot = (x, -x)
    positive = []
    clashes = []
    out = []
    # Both parents are tautology-free, so a clashing pair in a resolvent
    # has one literal from each: the resolvent of c1 and c2 is
    # tautological exactly when c1 meets the negation of c2 without the
    # pivot's literals.  That clash set is built once per negative clause.
    for c in clauses:
        if x in c:
            positive.append(c)
        elif -x in c:
            clashes.append((c, frozenset(map(_neg, c)).difference(pivot)))
        else:
            out.append(c)
    _resolvents(out, positive, clashes, pivot)
    return positive, clashes, out


def resolve(matrix: Matrix, x: int, bucket: Resolution = ((), (), ())) -> Matrix:
    """Exhaustively resolve the pivot away.

    Replaces all clauses mentioning x by every non-tautological
    resolvent of a positive and a negative occurrence; the result
    contains neither a literal of x nor a tautology.  The matrix must be
    tautology-free (see the module docstring), else the result is unspecified.

    ``bucket`` is the ``_resolution(B, x)`` of a clause set B, by default
    of the empty set, and the result is ``resolve(matrix | B, x)`` for a
    tautology-free union.  B's own pairs were resolved when the bucket
    was built, so only the pairs with a parent in the matrix are tested.
    """
    positive, clashes, out = _resolution(matrix, x)
    bucket_positive, bucket_clashes, bucket_out = bucket
    out += bucket_out
    pivot = (x, -x)
    _resolvents(out, bucket_positive, clashes, pivot)
    _resolvents(out, positive, bucket_clashes, pivot)
    return Matrix._of(out)


def reduce(matrix: FrozenSet[Lits], u: int) -> Matrix:
    """Delete every occurrence of the universal variable from every clause
    of a tautology-free matrix, else unspecified (see the module docstring)."""
    drop = (u, -u)
    return Matrix._of([c if c.isdisjoint(drop) else c.difference(drop) for c in matrix])


class StrategyShape(NamedTuple):
    """What every strategy extension of one R4 step shares: all that
    depends on the variables ``deps`` the step removes and not on a set;
    ``initial_state`` plans one per R4 step, with the quantifiers of
    ``poset.prefix``, which ``validate_input`` checks is the instance's.

    ``order`` lists the universal dependencies, then the existential
    ones, each ascending by id.  ``owns[j]`` holds the positions, among
    the first ``n_universal`` entries of ``order``, of the universals the
    j-th existential dependency depends on (its own universals), and
    ``own_bits`` is the number of strategy-table bits per matrix.  ``step``
    calls ``tables()`` once, after the branch-limit check, which bounds
    2^|deps|, and only for a family with a non-empty set.
    """

    n_universal: int
    order: Tuple[int, ...]
    owns: Tuple[Tuple[int, ...], ...]
    own_bits: int

    @classmethod
    def of(cls, deps: FrozenSet[int], poset: DependencyPoset) -> StrategyShape:
        universal, universal_dep, existential_dep = poset.prefix.universal, [], []
        for w in deps:
            (universal_dep if w in universal else existential_dep).append(w)
        universal_dep.sort()
        existential_dep.sort()
        owns, own_bits = [], 0
        for x in existential_dep:
            own = ()  # with no universal dependency, x owns none
            if universal_dep:
                preceding = poset.strict(x)
                own = tuple([i for i, u in enumerate(universal_dep) if u in preceding])
            owns.append(own)
            own_bits += 2 ** len(own)
        order = (*universal_dep, *existential_dep)
        return _tuple_new(cls, (len(universal_dep), order, tuple(owns), own_bits))

    def tables(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[Lits, Lits], ...]]:
        """The shape's ``_strategy_table`` and, for every n, full assignment
        n (it sets the i-th variable of ``order`` to bit i of n) as its
        true and its false literals, built by one ``itertools.product``."""
        # Only small tables are cached, so the cache holds a few MB at
        # most, whatever max_strategies allows.
        table_bits = self.n_universal + self.own_bits
        build = _cached_strategy_table if table_bits <= _CACHED_TABLE_BITS else _strategy_table
        # The last factor varies fastest, so with ``order`` reversed the
        # n-th product sets order[i] to bit i of n.  Assignment 2^k - 1 - n
        # flips every bit of n, so its true literals are n's false ones,
        # and each literal set is built once.
        true = list(map(frozenset, itertools.product(*[(-x, x) for x in reversed(self.order)])))
        return build(self.n_universal, self.owns), tuple(zip(true, true[::-1]))


# The family of the one empty set: what an empty set branches into.
_NO_MATRIX: Family = frozenset({frozenset()})


def strategy_extension(
    pi: MatrixSet,
    answers: Tuple[Tuple[int, ...], ...],
    assignments: Tuple[Tuple[Lits, Lits], ...],
    outcomes: Optional[Dict[Matrix, Family]] = None,
) -> Family:
    """Branch over all partial existential strategies up to v.

    ``answers`` and ``assignments`` are ``tables()`` of the shape of deps,
    v with the live part of strict(v), the variables R4 removes.  With B
    the universal plays on deps and A the partial existential strategies
    on its existential part, the output contains, for every tuple of
    per-matrix strategies, the set of all matrices the tuple can produce
    against plays from B; an empty pi gives the one empty set.  The matrices of pi must
    be tautology-free (see the module docstring), else the result is
    unspecified; every output matrix is then free of tautologies and of
    all variables in deps.

    ``outcomes`` maps a matrix to the sets its strategies produce under
    these tables; a matrix found there is not restricted again, and one
    that is not is added.  ``step`` passes one map to every call of a
    step, so a matrix that recurs across the family's sets is restricted
    once per step; without a map the call uses a fresh one.

    Plays and strategies are bit tables.  Play b sets the i-th universal
    dependency (ascending ids) to bit i of b.  A strategy holds one table
    per existential dependency x: bit k of x's table answers every play
    whose bits on x's own universal dependencies form the number k.
    Which full assignment each strategy gives each play depends only on
    the shape: the number of universal dependencies and, per existential
    one, the positions of its own universals.  ``_strategy_table`` builds
    that table; a table of at most 2^12 entries is built once per shape
    and the 32 most recent ones are kept.  ``step`` checks the branch
    limit and builds the tables once per step, before any call.
    """
    if outcomes is None:
        outcomes = {}
    out = None
    # Per matrix, the distinct sets its strategies produce, each full
    # assignment restricted once; an output set is the union of one per
    # matrix, folded in matrix by matrix from the first matrix's sets, so
    # equal partial unions merge early.
    for m in pi:
        sets = outcomes.get(m)
        if sets is None:
            outcome = [restrict(m, true, false) for true, false in assignments]
            sets = frozenset(map(frozenset, map(map, repeat(outcome.__getitem__), answers)))
            outcomes[m] = sets
        out = sets if out is None else {partial | choice for partial in out for choice in sets}
    # A set of one matrix returns its outcome sets as they are stored.
    return _NO_MATRIX if out is None else frozenset(out)


def _strategy_table(
    n_universal: int, owns: Tuple[Tuple[int, ...], ...]
) -> Tuple[Tuple[int, ...], ...]:
    """The full assignment every strategy gives every play, for one shape.

    ``answers[s][b]`` is play b answered by strategy s: bits 0 to
    n_universal - 1 are b, and bit n_universal + j is x_j's answer, the
    bit of x_j's table numbered by b's bits on x_j's own universal
    dependencies ``owns[j]``.  It depends on nothing but the shape, so
    one table serves every call with that shape.
    """
    plays = range(2**n_universal)
    # entries[j][b]: the bit of x_j's table that answers play b.
    entries = [
        [sum((b >> i & 1) << k for k, i in enumerate(own)) for b in plays] for own in owns
    ]
    n_tables = [2 ** 2 ** len(own) for own in owns]
    return tuple(
        tuple(
            b
            | sum(
                (table >> entries[j][b] & 1) << (n_universal + j)
                for j, table in enumerate(tables)
            )
            for b in plays
        )
        for tables in itertools.product(*map(range, n_tables))
    )


# Tables of at most 2^12 entries, about 150 KB each, are cached: 32 of
# them hold about 5 MB.  Every shape of the benchmark corpora is that
# small; a larger table is built per call and freed after it.
_CACHED_TABLE_BITS = 12
_cached_strategy_table = functools.lru_cache(maxsize=32)(_strategy_table)


def step(
    state: DerivationState, limits: EngineLimits = EngineLimits()
) -> Tuple[DerivationState, TraceEvent]:
    """Apply the next step of the run's plan, with its bucket of untouched
    clauses pulled in (see the module docstring)."""
    started = perf_counter()
    family, index, store = state
    v, rule, _, shape = store.plan[index]
    done = index + 1
    if rule == "R1":
        new_family = family
    else:
        pulled, touched = store.pulls[index], store.touched_part
        sets = family
        if rule == "R4":
            # The branch count is 2^exponent: the plays times, per matrix,
            # the 2^(2^|own|) tables of every existential dependency.  It
            # grows with the set, so the largest set decides the limit, and
            # it is compared by exponent, as it can have thousands of digits.
            most = max(map(len, family), default=0)
            exponent = most * shape.own_bits + shape.n_universal
            if exponent >= limits.max_strategies.bit_length():
                raise ResourceLimitError(
                    f"strategy extension up to {v} needs 2^{exponent} branches, "
                    f"limit is {limits.max_strategies}"
                )
            tables = shape.tables() if most else ((), ())
            outcomes: Dict[Matrix, Family] = {}
            sets = set()
            for pi in family:
                # Nearly every R4 bucket of a ladder is empty; rebuilding
                # the set for nothing slows the ladder measurably.  Unlike
                # R3's union, a pulled matrix is built as a ``Matrix``: the
                # benchmark's traced ``restrict`` reads its ``clauses``.
                if pulled:
                    pi = frozenset([Matrix._of(m | pulled) for m in pi])
                sets |= strategy_extension(pi, *tables, outcomes)
        elif rule == "R2":
            # The bucket is the same in every matrix: split it and resolve
            # its own pairs once, then resolve matrix by matrix.
            bucket = _resolution(pulled, v)
        # Every distinct matrix of the sets is mapped once, R2 resolving
        # and R3 pulling and reducing it before the drop, and the result
        # is shared by every set that holds it.  ``resolve`` and
        # ``reduce`` are looked up per call, not bound once, so a wrapper
        # of the module's function sees every call.
        image: Dict[Matrix, Matrix] = {}
        new_sets = []
        for pi in sets:
            out = []
            for m in pi:
                mapped = image.get(m)
                if mapped is None:
                    mapped = m
                    if rule == "R2":
                        mapped = resolve(m, v, bucket)
                        if len(mapped) > limits.max_matrix_size:
                            raise ResourceLimitError(
                                f"a matrix has {len(mapped)} clauses, "
                                f"limit is {limits.max_matrix_size}"
                            )
                    elif rule == "R3":
                        mapped = reduce(m | pulled, v)
                    mapped = image[m] = touched(mapped, done)
                out.append(mapped)
            new_sets.append(frozenset(out))
        new_family = frozenset(new_sets)
    if len(new_family) > limits.max_family_size:
        raise ResourceLimitError(
            f"family has {len(new_family)} sets, limit is {limits.max_family_size}"
        )
    largest = max(map(len, new_family), default=0)
    if largest > limits.max_set_size:
        raise ResourceLimitError(
            f"a matrix set has {largest} matrices, limit is {limits.max_set_size}"
        )
    micros = int((perf_counter() - started) * 1_000_000)
    # Both tuples are built without their generated ``__new__`` frames.
    event = _tuple_new(TraceEvent, (done, v, rule, len(family), len(new_family), largest, micros))
    return _tuple_new(DerivationState, (new_family, done, store)), event


def initial_state(
    instance: QbfInstance,
    ordering: Tuple[int, ...],
    branching: FrozenSet[int],
    poset: DependencyPoset,
) -> DerivationState:
    """The start of a run, planned along ``validate_input``'s ordering and
    branching set (see the module docstring) with the quantifiers of the
    poset's prefix; the input clauses with a variable go into the untouched
    store, the others start touched."""
    prefix, matrix = poset.prefix, instance.matrix
    live = set(prefix.variables)
    plan: List[PlanEntry] = []
    for v in ordering:
        shape = None
        if v not in live:
            rule, removes = "R1", frozenset()
        elif v in branching:
            rule, removes = "R4", frozenset([v, *live.intersection(poset.strict(v))])
            shape = StrategyShape.of(removes, poset)
        else:
            rule, removes = "R3" if v in prefix.universal else "R2", frozenset({v})
        live -= removes
        plan.append((v, rule, removes, shape))
    stored = UntouchedStore(frozenset([lits for lits in matrix if lits]), tuple(plan))
    touched = Matrix._of(matrix - stored.clauses)
    return DerivationState(frozenset({frozenset({touched})}), 0, stored)


def validate_input(
    instance: QbfInstance, td: TrunkTreeDecomposition, poset: DependencyPoset
) -> Tuple[QbfInstance, Tuple[int, ...], FrozenSet[int]]:
    """The instance with its tautologies removed, the decomposition's
    elimination ordering and the variables that fail P1, on which the
    plan fires R4, once the poset was built for the instance's prefix (its
    builder checked its pairs) and the decomposition is nice and
    trunk-aligned for that instance; a failure raises ``ValidationError``;
    an instance without tautologies is kept."""
    if poset.prefix != instance.prefix:
        raise ValidationError(
            f"poset is for {poset.prefix!r}, the instance's prefix is {instance.prefix!r}"
        )
    matrix = remove_tautologies(instance.matrix)
    # Removing clauses leaves every variable quantified.
    cleaned = instance if matrix is instance.matrix else QbfInstance._of(instance.prefix, matrix)
    nice_report = validate_nice(td, cleaned)
    if not nice_report.ok:
        raise ValidationError(f"decomposition is not nice: {nice_report.summary()}")
    trunk_report = validate_trunk_aligned(td, cleaned, poset)
    if not trunk_report.ok:
        raise ValidationError(f"decomposition is not trunk-aligned: {trunk_report.summary()}")
    branching = frozenset([u for u, held in trunk_report.property_held.items() if held == "P2"])
    return cleaned, elimination_ordering(td), branching


def _check_step(
    before: DerivationState,
    after: DerivationState,
    event: TraceEvent,
    td: TrunkTreeDecomposition,
    poset: DependencyPoset,
    live: Set[int],
) -> None:
    """Assert the engine invariants of one step: v's matrix neighbors and,
    under R4, its still-quantified dependencies lie in its forget bag, a
    live v's rule is R4 iff a live strict dependent of v lies in its
    forget bag, and the result's touched parts are tautology-free, over
    the live variables only and disjoint from the untouched part.
    ``live``, the variables still quantified, is updated in place:
    deriving ``before.live`` would cost O(n) per step.

    The untouched clauses that mention v are the same in every matrix
    and all in this step's bucket, as this step removes v or an earlier
    one did; they are read once, the touched parts one by one.  The
    result's untouched part is tautology-free and over the live
    variables by construction (the stored clauses are checked once, and
    an untouched clause is over the live variables), so only its touched
    parts are read.  The kernels trust their input, so this is the one
    runtime check of tautology-freeness.
    """
    v, where = event.variable, f"step {event.step}, variable {event.variable}"
    store = before.untouched
    bag = td.bag(forget_node(td, v))  # holds v itself
    touched = itertools.chain.from_iterable(m for pi in before.family for m in pi)
    for lits in itertools.chain(store.pulls[before.step_index], touched):
        if (v in lits or -v in lits) and not bag.issuperset(map(abs, lits)):
            raise InvariantError(f"{where}: a matrix neighbor lies outside the forget bag")
    if event.rule == "R4" and not live.intersection(poset.strict(v)) <= bag:
        raise InvariantError(f"{where}: a dependency of R4 lies outside the forget bag")
    if event.rule != "R1":
        blocked = not live.isdisjoint(poset.dependents_strict(v, bag))
        if blocked != (event.rule == "R4"):
            raise InvariantError(
                f"{where}: {event.rule} fired with {'a' if blocked else 'no'} "
                "live dependent in the forget bag"
            )
    live.difference_update(store.plan[before.step_index][2])
    for matrix in itertools.chain.from_iterable(after.family):
        tautologies = [Clause(lits) for lits in matrix if is_tautological(lits)]
        leftover = matrix.variables() - live
        if tautologies or leftover:
            raise InvariantError(
                f"{where}: tautologies {tautologies} or eliminated variables "
                f"{sorted(leftover)} remain in a matrix"
            )
        # Touched parts hold no clause still untouched, so deduplicating
        # them is deduplicating whole matrices.
        for lits in matrix.intersection(store.clauses):
            if store._pulled_at[lits] >= after.step_index:
                raise InvariantError(
                    f"{where}: the untouched clause {Clause(lits)!r} is in a touched part"
                )


def run_derivation(
    instance: QbfInstance,
    td: TrunkTreeDecomposition,
    poset: DependencyPoset,
    limits: EngineLimits = EngineLimits(),
    checks: bool = False,
) -> DerivationResult:
    """Decide the instance along the decomposition's elimination ordering.

    ``validate_input`` removes the tautologies, validates the
    decomposition and picks the variables R4 branches on; then the steps
    of ``initial_state``'s plan are applied in turn.  The verdict is true
    iff some final set consists of empty matrices only.  With ``checks``
    enabled the stored clauses are checked once and every step by
    ``_check_step``.
    """
    cleaned, ordering, branching = validate_input(instance, td, poset)
    state = initial_state(cleaned, ordering, branching, poset)
    if checks:
        live = set(state.live)
        # The store is fixed for the run, so its clauses are checked once.
        for lits in state.untouched.clauses:
            if not lits or is_tautological(lits):
                raise InvariantError(f"the stored clause {Clause(lits)!r} cannot be untouched")
    trace: List[TraceEvent] = []
    for i, v in enumerate(ordering, start=1):
        try:
            after, event = step(state, limits)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"step {i}, variable {v}: {exc}", tuple(trace)) from exc
        if checks:
            _check_step(state, after, event, td, poset, live)
        state = after
        trace.append(event)

    try:
        verdict = any(all(ground_truth(m) for m in pi) for pi in state.family)
    except ValueError as exc:
        raise InvariantError(f"final matrix is not variable-free: {exc}") from exc
    return DerivationResult(verdict, tuple(trace), state)
