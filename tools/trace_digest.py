"""Equal-trace check: one SHA-256 digest per benchmark workload corpus.

    PYTHONPATH=src python3 tools/trace_digest.py --seed N

Builds every corpus of ``bench/workloads.py`` for the seed, loads each
instance's inputs as ``trunkqbf solve`` does and runs the engine with
the limits its command line asks for and its invariant checks on
(``run_derivation(..., checks=True)``), so a step that breaks one, such
as a touched part holding an untouched clause or a tautology, stops the
script with ``InvariantError``.  The digest of a corpus covers,
per instance in order: the verdict or the abort message, the (rule,
family_before, family_after, max_set_size) of every completed step, the
encodings of the final family and the sorted final live variables.  A
change to the engine that keeps its semantics prints the same digests;
run the script on both commits and compare.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402

from trunkqbf import (  # noqa: E402
    EngineLimits,
    ResourceLimitError,
    ValidationError,
    run_derivation,
)
from trunkqbf.cli import _load_inputs, build_parser  # noqa: E402


def record(argv) -> str:
    """The canonical text of one solve: outcome, steps, final state."""
    args = build_parser().parse_args(list(argv))
    instance, td, poset = _load_inputs(args)
    limits = EngineLimits(args.max_family_size, args.max_set_size, args.max_strategies)
    final = None
    try:
        result = run_derivation(instance, td, poset, limits, checks=True)
    except ResourceLimitError as exc:
        outcome, trace = f"abort: {exc}", exc.trace
    except ValidationError as exc:
        outcome, trace = f"invalid: {exc}", ()
    else:
        outcome, trace, final = result.verdict, result.trace, result.final
    steps = [(e.rule, e.family_before, e.family_after, e.max_set_size) for e in trace]
    if final is None:
        return repr((outcome, steps))
    family = sorted(sorted(m.encoding() for m in pi) for pi in final.whole_family())
    return repr((outcome, steps, family, tuple(sorted(final.live))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for name, workload in WORKLOADS.items():
            digest = hashlib.sha256()
            instances = workload.build(args.seed, Path(work))
            aborts = 0
            for inst in instances:
                text = record(inst.argv)
                aborts += text.startswith("('abort")
                digest.update(f"{inst.ident} {text}\n".encode())
            print(f"{name} {digest.hexdigest()} {len(instances)} instances, {aborts} aborted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
