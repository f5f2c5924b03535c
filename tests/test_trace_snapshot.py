"""The engine's traces on three corpora, against committed records.

For every instance of ``qparity(2..32)``, of the shuffled-path corpus
and of the join-node corpus, ``trace_snapshot.json`` holds the outcome
of ``run_derivation`` (the verdict, the kind of limit it hit, or
``"invalid"`` when the decomposition is rejected) and, per completed
step, the rule, the family sizes before and after and the largest set.
A change to the engine that keeps its semantics keeps every record.

The records are rewritten only on purpose, from a commit whose engine
is trusted::

    PYTHONPATH=src python tests/test_trace_snapshot.py
"""

import json
from pathlib import Path

from trunkqbf import (
    EngineLimits,
    ResourceLimitError,
    ValidationError,
    qparity,
    qparity_td,
    run_derivation,
    trivial_poset,
)

from _util import R4_LIMITS, join_node_cases, limit_kind, shuffled_path_cases

SNAPSHOT = Path(__file__).with_name("trace_snapshot.json")


def cases():
    """(name, instance, td, limits) of every recorded run."""
    for n in range(2, 33):
        yield f"qparity-{n}", qparity(n), qparity_td(n), EngineLimits()
    for seed, q, td in shuffled_path_cases():
        yield f"shuffled-{seed}", q, td, R4_LIMITS
    for seed, q, td in join_node_cases():
        yield f"join-{seed}", q, td, R4_LIMITS


def record(q, td, limits):
    try:
        result = run_derivation(q, td, trivial_poset(q.prefix), limits)
    except ResourceLimitError as exc:
        outcome, trace = limit_kind(exc), exc.trace
    except ValidationError:
        outcome, trace = "invalid", ()
    else:
        outcome, trace = result.verdict, result.trace
    steps = [[e.rule, e.family_before, e.family_after, e.max_set_size] for e in trace]
    return {"outcome": outcome, "steps": steps}


def test_traces_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    seen = set()
    for name, q, td, limits in cases():
        assert record(q, td, limits) == expected[name], name
        seen.add(name)
    assert seen == set(expected)


if __name__ == "__main__":
    lines = [
        f"{json.dumps(name)}: {json.dumps(record(q, td, limits))}"
        for name, q, td, limits in cases()
    ]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
