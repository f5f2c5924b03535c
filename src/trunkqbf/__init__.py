"""QBF evaluation on trunk-aligned tree decompositions.

Each public name is imported from its module on first use, so that
``import trunkqbf.cli`` loads only the modules the command line needs.
"""

from importlib import import_module

_EXPORTS = {
    "decomposition": (
        "DecompositionError",
        "TrunkTreeDecomposition",
        "ValidationReport",
        "elimination_ordering",
        "forget_node",
        "subtree_vars",
        "validate_nice",
        "validate_trunk_aligned",
        "width",
    ),
    "derivation": (
        "DerivationError",
        "DerivationState",
        "EngineLimits",
        "InvariantError",
        "ResourceLimitError",
        "StrategyShape",
        "TraceEvent",
        "ValidationError",
        "initial_state",
        "reduce",
        "resolve",
        "run_derivation",
        "step",
        "strategy_extension",
    ),
    "formats": (
        "ParseError",
        "parse_btd",
        "parse_poset",
        "parse_qdimacs",
        "write_btd",
        "write_poset",
        "write_qdimacs",
        "write_trace",
    ),
    "formulas": (
        "Clause",
        "Matrix",
        "Prefix",
        "QbfInstance",
        "ground_truth",
        "is_tautological",
        "matrix_of",
        "primal_graph",
        "remove_tautologies",
        "restrict",
    ),
    "generators": ("qparity", "qparity_td", "single_bag_td"),
    "oracle": (
        "BudgetExceededError",
        "OracleBudget",
        "evaluate",
        "random_instance",
        "verify_poset_property2",
    ),
    "posets": ("DependencyPoset", "poset_from_pairs", "trivial_poset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
