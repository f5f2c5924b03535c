"""Command-line entry point.

Verdict commands follow the SAT-solver convention: ``s cnf 1`` and exit
code 10 when the instance is true, ``s cnf 0`` and exit code 20 when it
is false.  Standard output carries only the verdict line plus, behind
``--stats``, ``c``-prefixed statistics lines.

``main`` is the one place that reports errors: the commands raise, and
it prints an ``OSError``, ``ValueError``, ``DerivationError`` or
``MemoryError`` as the one line ``error: <message>`` on standard error
and exits 1.  A limit abort of ``solve --trace`` still writes the steps
done before it; if that write fails too, the line names both failures.
A usage error is argparse's: it prints the usage and exits 2.

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
from .posets import trivial_poset

EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_ERROR = 1


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_trace(path: str, events, prior: str) -> None:
    """Write the trace file.  A failure raises an OSError whose message is
    ``prior``, the error that ended the run and its separator or "", then
    ``cannot write trace: ...``."""
    try:
        _write(path, write_trace(events))
    except OSError as exc:
        raise OSError(f"{prior}cannot write trace: {exc}") from exc


def _load_inputs(args):
    """The instance, decomposition and poset that ``args`` names."""
    instance = parse_qdimacs(_read(args.instance))
    td = parse_btd(_read(args.td))
    if args.trivial_poset:
        poset = trivial_poset(instance.prefix)
    else:
        poset = parse_poset(_read(args.poset), instance.prefix)
    return instance, td, poset


def cmd_solve(args) -> int:
    instance, td, poset = _load_inputs(args)
    limits = EngineLimits(
        max_family_size=args.max_family_size,
        max_set_size=args.max_set_size,
        max_strategies=args.max_strategies,
    )
    try:
        result = run_derivation(instance, td, poset, limits, checks=args.checks)
    except ResourceLimitError as exc:
        # The steps before the limit tripped still go to the trace file;
        # if that write fails, its error names the abort too.
        if args.trace:
            _write_trace(args.trace, exc.trace, f"{exc}; ")
        raise
    if args.trace:
        _write_trace(args.trace, result.trace, "")
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
    instance, td, poset = _load_inputs(args)
    _, _, branching = validate_input(instance, td, poset)
    if args.stats:
        print(f"c width {width(td)}")
        print(f"c nodes {len(td.nodes)}")
        print(f"c r4_variables {len(branching)}")
    return 0


def cmd_oracle(args) -> int:
    # Imported here, not at the top, so that ``import trunkqbf.cli`` and
    # ``solve`` do not load the oracle; likewise the generators in ``gen``.
    from .oracle import OracleBudget, evaluate

    instance = parse_qdimacs(_read(args.instance))
    budget = OracleBudget() if args.budget is None else OracleBudget(args.budget)
    verdict = evaluate(instance, budget)
    print(f"s cnf {1 if verdict else 0}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_gen(args) -> int:
    from .generators import qparity, qparity_td

    if args.family != "qparity":
        raise ValueError(f"unknown family {args.family!r}")
    instance, td = qparity(args.n), qparity_td(args.n)
    _write(f"{args.out_prefix}.qdimacs", write_qdimacs(instance))
    _write(f"{args.out_prefix}.btd", write_btd(td))
    return 0


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    """Declare the inputs ``_load_inputs`` reads and ``--stats``, the
    options that ``solve`` and ``validate`` share."""
    parser.add_argument("instance", help="QDIMACS file")
    parser.add_argument("--td", required=True, metavar="FILE", help="BTD decomposition file")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--trivial-poset",
        action="store_true",
        help="use the full prefix-order dependency poset",
    )
    group.add_argument("--poset", metavar="FILE", help="load a poset file")
    parser.add_argument("--stats", action="store_true", help="print statistics lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunkqbf",
        description="QBF evaluation on trunk-aligned tree decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance with the derivation engine")
    _add_inputs(solve)
    solve.add_argument("--trace", metavar="FILE", help="write a JSON-lines trace")
    solve.add_argument(
        "--checks",
        action="store_true",
        help="assert per-step engine invariants (slower)",
    )
    solve.add_argument("--max-family-size", type=int, default=MAX_FAMILY_SIZE)
    solve.add_argument("--max-set-size", type=int, default=MAX_SET_SIZE)
    solve.add_argument("--max-strategies", type=int, default=MAX_STRATEGIES)
    solve.set_defaults(func=cmd_solve)

    validate = sub.add_parser("validate", help="validate a decomposition for an instance")
    _add_inputs(validate)
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
    except (OSError, ValueError, DerivationError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    finally:
        if enabled:
            gc.enable()
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
