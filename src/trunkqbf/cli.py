"""Command-line entry point.

Verdict commands follow the SAT-solver convention: ``s cnf 1`` and exit
code 10 when the instance is true, ``s cnf 0`` and exit code 20 when it
is false.  Parse, validation and resource errors exit 1 with the
diagnostic on standard error, running out of memory included.  Standard
output carries only the verdict line plus, behind ``--stats``,
``c``-prefixed statistics lines.

``main`` pauses the cyclic garbage collector while a command runs and
restores its previous state afterwards.  The engine's values are
frozensets and tuples of integers, which cannot form reference cycles,
so reference counting frees them all and a collection during a solve
would only scan them.  The one cyclic garbage a command makes is its
argument parser (220 objects on Python 3.11), the same whatever the
instance and however many steps the run takes; the collector frees it
once it runs again.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import List, Optional

from .decomposition import width
from .derivation import (
    MAX_FAMILY_SIZE,
    MAX_SET_SIZE,
    MAX_STRATEGIES,
    DerivationError,
    EngineLimits,
    ResourceLimitError,
    run_derivation,
    validate_input,
)
from .formats import (
    parse_btd,
    parse_poset,
    parse_qdimacs,
    write_btd,
    write_qdimacs,
    write_trace,
)
from .formulas import QbfInstance
from .posets import trivial_poset

EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_ERROR = 1


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_ERROR


def _write_trace(events, path: str) -> bool:
    """Write the trace file; on failure report it and return False."""
    try:
        write_trace(events, path)
    except OSError as exc:
        _fail(f"error: cannot write trace: {exc}")
        return False
    return True


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_instance(path: str) -> QbfInstance:
    return parse_qdimacs(_read(path))


def _load_inputs(args):
    """The instance, decomposition and poset that ``args`` names."""
    instance = _load_instance(args.instance)
    td = parse_btd(_read(args.td))
    if args.trivial_poset:
        poset = trivial_poset(instance.prefix)
    else:
        poset = parse_poset(_read(args.poset), instance.prefix)
    return instance, td, poset


def cmd_solve(args) -> int:
    try:
        instance, td, poset = _load_inputs(args)
        limits = EngineLimits(
            max_family_size=args.max_family_size,
            max_set_size=args.max_set_size,
            max_strategies=args.max_strategies,
        )
        result = run_derivation(instance, td, poset, limits, checks=args.checks)
    except ResourceLimitError as exc:
        # The steps before the limit tripped still go to the trace file.
        if args.trace:
            _write_trace(exc.trace, args.trace)
        return _fail(f"error: {exc}")
    except (OSError, DerivationError, ValueError) as exc:
        return _fail(f"error: {exc}")
    if args.trace and not _write_trace(result.trace, args.trace):
        return EXIT_ERROR
    if args.stats:
        peak_family = max((e.family_after for e in result.trace), default=1)
        peak_set = max((e.max_set_size for e in result.trace), default=1)
        total = sum(e.micros for e in result.trace)
        print(f"c steps {len(result.trace)}")
        print(f"c peak_family_size {peak_family}")
        print(f"c peak_set_size {peak_set}")
        print(f"c engine_micros {total}")
    print(f"s cnf {1 if result.verdict else 0}")
    return EXIT_TRUE if result.verdict else EXIT_FALSE


def cmd_validate(args) -> int:
    try:
        instance, td, poset = _load_inputs(args)
        _, _, branching = validate_input(instance, td, poset)
    except (OSError, DerivationError, ValueError) as exc:
        return _fail(f"error: {exc}")
    if args.stats:
        print(f"c width {width(td)}")
        print(f"c nodes {len(td.nodes)}")
        print(f"c r4_variables {len(branching)}")
    return 0


def cmd_oracle(args) -> int:
    # Imported here, not at the top, so that ``import trunkqbf.cli`` and
    # ``solve`` do not load the oracle; likewise the generators in ``gen``.
    from .oracle import BudgetExceededError, OracleBudget, evaluate

    try:
        instance = _load_instance(args.instance)
        budget = OracleBudget() if args.budget is None else OracleBudget(args.budget)
        verdict = evaluate(instance, budget)
    except (OSError, BudgetExceededError, ValueError) as exc:
        return _fail(f"error: {exc}")
    except RecursionError:
        return _fail("error: the prefix is too deep for the oracle's recursion")
    print(f"s cnf {1 if verdict else 0}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_gen(args) -> int:
    from .generators import qparity, qparity_td

    if args.family != "qparity":
        return _fail(f"error: unknown family {args.family!r}")
    try:
        instance = qparity(args.n)
        td = qparity_td(args.n)
    except ValueError as exc:
        return _fail(f"error: {exc}")
    try:
        _write(f"{args.out_prefix}.qdimacs", write_qdimacs(instance))
        _write(f"{args.out_prefix}.btd", write_btd(td))
    except OSError as exc:
        return _fail(f"error: {exc}")
    return 0


def _add_poset_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--trivial-poset",
        action="store_true",
        help="use the full prefix-order dependency poset",
    )
    group.add_argument("--poset", metavar="FILE", help="load a poset file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunkqbf",
        description="QBF evaluation on trunk-aligned tree decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance with the derivation engine")
    solve.add_argument("instance", help="QDIMACS file")
    solve.add_argument("--td", required=True, metavar="FILE", help="BTD decomposition file")
    _add_poset_flags(solve)
    solve.add_argument("--trace", metavar="FILE", help="write a JSON-lines trace")
    solve.add_argument(
        "--checks",
        action="store_true",
        help="assert per-step engine invariants (slower)",
    )
    solve.add_argument("--stats", action="store_true", help="print statistics lines")
    solve.add_argument("--max-family-size", type=int, default=MAX_FAMILY_SIZE)
    solve.add_argument("--max-set-size", type=int, default=MAX_SET_SIZE)
    solve.add_argument("--max-strategies", type=int, default=MAX_STRATEGIES)
    solve.set_defaults(func=cmd_solve)

    validate = sub.add_parser("validate", help="validate a decomposition for an instance")
    validate.add_argument("instance", help="QDIMACS file")
    validate.add_argument("--td", required=True, metavar="FILE", help="BTD file")
    _add_poset_flags(validate)
    validate.add_argument("--stats", action="store_true", help="print statistics lines")
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", help="decide an instance by brute force")
    oracle.add_argument("instance", help="QDIMACS file")
    oracle.add_argument(
        "--budget",
        type=int,
        help="maximum number of variables",
    )
    oracle.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="write a generated instance and decomposition")
    gen.add_argument("family", help="instance family (qparity)")
    gen.add_argument("n", type=int, help="family index")
    gen.add_argument("out_prefix", help="output path prefix")
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except MemoryError:
        return _fail("error: out of memory")
    finally:
        if enabled:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
