"""QBF evaluation on trunk-aligned tree decompositions."""

from .decomposition import (
    DecompositionError,
    TrunkTreeDecomposition,
    ValidationReport,
    elimination_ordering,
    forget_node,
    subtree_vars,
    validate_nice,
    validate_trunk_aligned,
    width,
)
from .derivation import (
    DerivationError,
    DerivationState,
    EngineLimits,
    InvariantError,
    ResourceLimitError,
    TraceEvent,
    ValidationError,
    check_neighborhood_invariant,
    check_r4_assertion,
    initial_state,
    reduce,
    resolve,
    run_derivation,
    step,
    strategy_extension,
)
from .formats import (
    ParseError,
    parse_btd,
    parse_poset,
    parse_qdimacs,
    write_btd,
    write_poset,
    write_qdimacs,
    write_trace,
)
from .formulas import (
    Clause,
    Matrix,
    Prefix,
    QbfInstance,
    ground_truth,
    is_tautological,
    matrix_of,
    primal_graph,
    remove_tautologies,
    restrict,
)
from .generators import qparity, qparity_td, single_bag_td
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    equisatisfiable,
    evaluate,
    evaluate_by_strategy_enumeration,
    random_instance,
    verify_poset_property2,
)
from .posets import (
    DependencyPoset,
    poset_from_pairs,
    trivial_poset,
)

__version__ = "0.1.0"
