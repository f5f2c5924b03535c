"""The front end against the steps: where a ``qparity(n)`` solve's time goes.

    PYTHONPATH=src python3 tools/front_end.py [N ...]

For each N (by default 128 and 1024) ``qparity(N)`` and its width-2
decomposition are written to text once.  Each of ``ROUNDS`` solves
then runs in this process, from the two texts to the last step, and
times its layers: ``parse_qdimacs``, ``parse_btd``, ``trivial_poset``,
``validate_input`` and ``initial_state``, whose sum is the time before
the first step, then every ``step`` of the plan.  Every ``functools``
cache of the package is cleared before each solve, so no solve reuses a
strategy table an earlier one built, and the cyclic collector is off
while the solves run, as ``trunkqbf solve`` keeps it.  The first solve
is untimed.

Prints one JSON line per N: the median over the solves of each layer,
of the time before the first step and of the steps, in ms, and whether
the front end took at most the steps' time.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
from time import perf_counter

from ab_solve import clear_caches
from trunkqbf import formats, posets
from trunkqbf.derivation import initial_state, step, validate_input
from trunkqbf.generators import qparity, qparity_td

SIZES = (128, 1024)
ROUNDS = 21
LAYERS = ("parse_qdimacs", "parse_btd", "trivial_poset", "validate_input", "initial_state")


def solve(qdimacs: str, btd: str) -> dict:
    """One solve's layer times in ms, from the texts to the last step."""
    clear_caches("trunkqbf")
    t = [perf_counter()]
    instance = formats.parse_qdimacs(qdimacs)
    t.append(perf_counter())
    td = formats.parse_btd(btd)
    t.append(perf_counter())
    poset = posets.trivial_poset(instance.prefix)
    t.append(perf_counter())
    cleaned, ordering, branching = validate_input(instance, td, poset)
    t.append(perf_counter())
    state = initial_state(cleaned, ordering, branching, poset)
    t.append(perf_counter())
    for _ in ordering:
        state, _ = step(state)
    t.append(perf_counter())
    times = {name: (b - a) * 1000 for name, a, b in zip(LAYERS + ("steps",), t, t[1:])}
    times["before_first_step"] = (t[-2] - t[0]) * 1000
    return times


def measure(n: int, rounds: int = ROUNDS) -> dict:
    qdimacs, btd = formats.write_qdimacs(qparity(n)), formats.write_btd(qparity_td(n))
    enabled = gc.isenabled()
    gc.disable()
    try:
        solve(qdimacs, btd)
        solves = [solve(qdimacs, btd) for _ in range(rounds)]
    finally:
        if enabled:
            gc.enable()
    keys = LAYERS + ("before_first_step", "steps")
    medians = {key: statistics.median(s[key] for s in solves) for key in keys}
    out = {"n": n, "rounds": rounds}
    out.update({f"{key}_ms": round(value, 3) for key, value in medians.items()})
    out["target_met"] = medians["before_first_step"] <= medians["steps"]
    return out


def main(argv=None) -> int:
    sizes = [int(arg) for arg in (sys.argv[1:] if argv is None else argv)] or SIZES
    for n in sizes:
        print(json.dumps(measure(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
