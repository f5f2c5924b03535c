"""In-process A/B of two checkouts, end to end and layer by layer.

    python3 tools/ab_solve.py BASE CHANGE [N ...] [--clear-caches]
    python3 tools/ab_solve.py BASE CHANGE --workload NAME [--seed S] [--clear-caches]

BASE and CHANGE are checkout roots, and may be the same one; each one's
``src/trunkqbf`` is loaded into this interpreter under its own package
name, so both run in one process on the same inputs.  The inputs are
``qparity(N)`` and its width-2 decomposition for each N (by default 32
and 128), written with BASE's ``trunkqbf gen`` and compared one N at a
time over ``ROUNDS`` rounds, or with ``--workload`` the corpus that
``bench/workloads.py`` builds for NAME and the seed (with BASE's
package), compared as a whole over ``WORKLOAD_ROUNDS`` rounds.

Each input is solved two ways, in two passes of the same rounds.  The
first pass goes from file to verdict through ``bench/run.py``'s
``solve``, with standard output captured, as the benchmark runs it.  The
second starts from the input's two texts, read once beforehand, and
times its layers: ``parse_qdimacs``, ``parse_btd``, ``trivial_poset``,
``validate_input`` and ``initial_state``, whose sum is the time before
the first step, then the steps, under the limits that the side's command
line reads from the input's argv; it pauses the cyclic collector, as
``trunkqbf solve`` does.  In each round every side solves every input
once; the side that runs first alternates from round to round, and on a
corpus from instance to instance too.  Each pass starts with one
untimed solve of the first input per side.  With ``--clear-caches``
every ``functools`` cache of the side's package is cleared before each
solve, so a gain cannot come from work kept from an earlier solve.

A wrong verdict exits 1.  A limit abort is a failed instance whose time
still counts; in the layered solve it ends the steps, which keep their
time.  Prints one JSON line per N or per corpus: per side, for the
solve, each layer and the time before the first step, the median over
the inputs of each input's median time in ms, and whether that time
before the first step is at most the steps' (``target_met``); per key
the median ratio CHANGE / BASE of the two sides' times paired by input
and round, and in how many pairs the change was faster.  For a corpus
each side also gets the number of failed instances and, over the
per-instance median solve times, their sum (``sum_ms``, the in-process
analogue of the benchmark's ``wall_s``), the p50, the tail by
``bench/run.py``'s ``tail`` rule and ``scaling_exponent`` by its
``slope``; ``sum_ratio`` is CHANGE's sum over BASE's.  Times are raw
wall times.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import tempfile
from importlib import import_module
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

SIZES = (32, 128)
ROUNDS = 41
WORKLOAD_ROUNDS = 3
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("parse_qdimacs", "parse_btd", "trivial_poset", "validate_input", "initial_state")
KEYS = ("solve", *LAYERS, "before_first_step", "steps")

sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402


def load(root: Path, alias: str) -> SimpleNamespace:
    """The modules of the checkout's package, imported under ``alias``."""
    package = root / "src" / "trunkqbf"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no trunkqbf package under {root}")
    sys.modules[alias] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[alias])
    modules = ("cli", "derivation", "formats", "formulas", "posets")
    return SimpleNamespace(alias=alias, **{m: import_module(f"{alias}.{m}") for m in modules})


def clear_caches(alias: str) -> None:
    """Clear every ``functools`` cache defined in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == alias or name.startswith(alias + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def layered_solve(side, qdimacs: str, btd: str, args):
    """(layer times in ms, the verdict or "limit") of one solve from the texts."""
    formats, derivation = side.formats, side.derivation
    # Every ``--max-*`` option the side's parser has, so either side may
    # have a limit the other lacks.
    limits = derivation.EngineLimits(
        **{name: value for name, value in vars(args).items() if name.startswith("max_")}
    )
    verdict = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = [perf_counter()]
        instance = formats.parse_qdimacs(qdimacs)
        t.append(perf_counter())
        td = formats.parse_btd(btd)
        t.append(perf_counter())
        poset = side.posets.trivial_poset(instance.prefix)
        t.append(perf_counter())
        cleaned, ordering, branching = derivation.validate_input(instance, td, poset)
        t.append(perf_counter())
        state = derivation.initial_state(cleaned, ordering, branching, poset)
        t.append(perf_counter())
        try:
            for _ in ordering:
                state, _ = derivation.step(state, limits)
        except derivation.ResourceLimitError:
            verdict = "limit"
        t.append(perf_counter())
    finally:
        if enabled:
            gc.enable()
    if verdict is None:
        truth = side.formulas.ground_truth
        verdict = any(all(truth(m) for m in pi) for pi in state.family)
    times = {key: (b - a) * 1000 for key, a, b in zip((*LAYERS, "steps"), t, t[1:])}
    times["before_first_step"] = (t[-2] - t[0]) * 1000
    return times, verdict


def compare(sides, instances, rounds: int, clear: bool):
    """Per side, the times of every key by instance, in round order, and
    the ids of the failed instances."""
    texts = [[Path(i.argv[k]).read_text(encoding="utf-8") for k in (1, 3)] for i in instances]
    argvs = {s.alias: [s.cli.build_parser().parse_args(i.argv) for i in instances] for s in sides}
    times = {s.alias: {key: [[] for _ in instances] for key in KEYS} for s in sides}
    failed = {s.alias: set() for s in sides}

    def file_to_verdict(side, i: int):
        elapsed, outcome = run.solve(side.cli, instances[i].argv)
        return {"solve": elapsed * 1000}, outcome

    def layer_by_layer(side, i: int):
        return layered_solve(side, *texts[i], argvs[side.alias][i])

    # One kind of solve at a time: at qparity(1024) a layered solve run
    # right after a file-to-verdict one read its front end about 4%
    # slower against its steps than one run after another layered solve
    # (Python 3.11, 2 shared CPUs).
    for solve in (file_to_verdict, layer_by_layer):
        for side in sides:
            solve(side, 0)
        for r in range(rounds):
            for i, inst in enumerate(instances):
                for side in sides if (r + i) % 2 == 0 else sides[::-1]:
                    if clear:
                        clear_caches(side.alias)
                    ms, outcome = solve(side, i)
                    if outcome == run.MISMATCH or (
                        isinstance(outcome, bool) and outcome != inst.expected
                    ):
                        raise SystemExit(f"{side.alias}: wrong verdict on instance {inst.ident}")
                    if not isinstance(outcome, bool):
                        failed[side.alias].add(inst.ident)
                    for key, value in ms.items():
                        times[side.alias][key][i].append(value)
    return times, failed


def summarise(sides, instances, times, failed, corpus: bool) -> dict:
    out = {}
    for side, name in zip(sides, ("base", "change")):
        medians = {key: [statistics.median(ts) for ts in times[side.alias][key]] for key in KEYS}
        middle = {key: statistics.median(ms) for key, ms in medians.items()}
        out[name] = {f"{key}_ms": round(ms, 3) for key, ms in middle.items()}
        out[name]["target_met"] = middle["before_first_step"] <= middle["steps"]
        if corpus:
            tail_ms, percentile = run.tail(medians["solve"])
            out[name].update(
                failed=len(failed[side.alias]),
                sum_ms=round(sum(medians["solve"]), 3),
                p50_ms=round(middle["solve"], 3),
                tail_ms=round(tail_ms, 3),
                tail_percentile=percentile,
                scaling_exponent=round(run.slope([i.size for i in instances], medians["solve"]), 4),
            )
    if corpus:
        out["sum_ratio"] = round(out["change"]["sum_ms"] / out["base"]["sum_ms"], 3)
    base, change = (times[side.alias] for side in sides)
    for key in KEYS:
        pairs = [(x, y) for xs, ys in zip(base[key], change[key]) for x, y in zip(xs, ys)]
        out[f"{key}_ratio"] = round(statistics.median(y / x for x, y in pairs), 3)
        out[f"{key}_change_faster_in"] = f"{sum(y < x for x, y in pairs)}/{len(pairs)}"
    return out


def inputs(args, base_cli, work: Path):
    """(the head of a JSON line, its instances, its rounds) per line."""
    from workloads import WORKLOADS, Instance

    if args.workload:
        if args.workload not in WORKLOADS:
            choices = sorted(WORKLOADS)
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {choices}")
        instances = WORKLOADS[args.workload].build(args.seed, work)
        yield {"workload": args.workload, "seed": args.seed}, instances, WORKLOAD_ROUNDS
        return
    for n in args.sizes or SIZES:
        stem = str(work / f"qparity-{n}")
        if base_cli.main(["gen", "qparity", str(n), stem]) != 0:
            raise SystemExit(f"could not write qparity({n})")
        argv = ("solve", f"{stem}.qdimacs", "--td", f"{stem}.btd", "--trivial-poset")
        yield {"n": n}, [Instance(n, argv, False, n)], ROUNDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("sizes", nargs="*", type=int, metavar="N", help="qparity sizes")
    parser.add_argument("--clear-caches", action="store_true")
    parser.add_argument("--workload", help="A/B over this benchmark corpus instead of qparity")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (with --workload)")
    args = parser.parse_intermixed_args(argv)
    if args.workload and args.sizes:
        parser.error("give sizes or --workload, not both")
    # ``bench/workloads.py`` writes the inputs with BASE's package.
    sys.path.insert(0, str(args.base / "src"))
    sides = (load(args.base, "ab_base"), load(args.change, "ab_change"))
    with tempfile.TemporaryDirectory() as work:
        for head, instances, rounds in inputs(args, sides[0].cli, Path(work)):
            times, failed = compare(sides, instances, rounds, args.clear_caches)
            head.update(rounds=rounds, instances=len(instances), clear_caches=args.clear_caches)
            summary = summarise(sides, instances, times, failed, bool(args.workload))
            print(json.dumps({**head, **summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
