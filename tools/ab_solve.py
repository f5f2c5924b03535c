"""In-process A/B of two checkouts: interleaved file-to-verdict solves.

    python3 tools/ab_solve.py BASE CHANGE [--clear-caches]
    python3 tools/ab_solve.py BASE CHANGE --workload NAME [--seed N]

BASE and CHANGE are checkout roots; each one's ``src/trunkqbf`` is loaded
into this interpreter under its own package name, so both run in one
process on the same inputs.  For every n in ``SIZES``, ``qparity(n)``
and its width-2 decomposition are written once with BASE's ``trunkqbf
gen``, each side solves them once untimed, and then each of the
``ROUNDS`` rounds times one
``cli.main(["solve", F.qdimacs, "--td", F.btd, "--trivial-poset"])`` per
side with standard output captured, as ``bench/run.py`` does.  The side
that runs first alternates from round to round.  No collection is
forced between solves, as in ``bench/run.py``, so the cyclic
collector's work during a solve counts in its time.  With
``--clear-caches`` every
``functools.lru_cache`` of both packages is cleared before every solve,
so a gain cannot come from work kept from an earlier solve.

Every solve must return the known verdict, FALSE; otherwise the script
exits 1.  It prints one JSON line per n: both medians in ms, the ratio
CHANGE / BASE of the medians, the median of the per-round ratios (the
two solves of a round run back to back, so this one is least moved by
the host's speed changing between rounds), the number of rounds CHANGE
was faster and every solve time.  Times are raw wall times.

With ``--workload``, the inputs are instead the corpus that
``bench/workloads.py`` builds for NAME and the seed (written with BASE's
package).  After one untimed solve of the first instance per side, each
of the ``WORKLOAD_ROUNDS`` rounds solves every instance once per side, the
first side alternating from instance to instance, through
``bench/run.py``'s ``solve``.  A wrong verdict exits 1; a limit abort
is a failed instance and its time still counts, as in the benchmark.
It prints one JSON line: per side the number of failed instances and,
over the per-instance median times, the p50, the tail by
``bench/run.py``'s ``tail`` rule and ``scaling_exponent`` by its
``slope``; then the change's p50 and tail ratios and on how many
instances the change was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIZES = (32, 128)
ROUNDS = 41
WORKLOAD_ROUNDS = 3
TOOLS = Path(__file__).resolve().parent


def load(root: Path, alias: str, submodule: str):
    """A submodule of the checkout's package, imported as ``alias``."""
    package = root / "src" / "trunkqbf"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no trunkqbf package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.{submodule}")


def clear_caches(alias: str) -> None:
    """Clear every ``functools`` cache defined in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == alias or name.startswith(alias + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed_solve(cli, argv, alias: str, clear: bool) -> float:
    if clear:
        clear_caches(alias)
    started = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = (perf_counter() - started) * 1000
    if code != cli.EXIT_FALSE:
        raise SystemExit(f"{alias} exited {code}, expected {cli.EXIT_FALSE}")
    return elapsed


def compare(sides, n: int, rounds: int, clear: bool) -> dict:
    base = sides[0][1]
    with tempfile.TemporaryDirectory() as work:
        stem = str(Path(work) / f"qparity-{n}")
        if base.main(["gen", "qparity", str(n), stem]) != 0:
            raise SystemExit(f"could not write qparity({n})")
        argv = ["solve", f"{stem}.qdimacs", "--td", f"{stem}.btd", "--trivial-poset"]
        times = {alias: [] for alias, _ in sides}
        for alias, cli in sides:
            timed_solve(cli, argv, alias, clear)
        for r in range(rounds):
            for alias, cli in sides if r % 2 == 0 else sides[::-1]:
                times[alias].append(timed_solve(cli, argv, alias, clear))
    a_ms, b_ms = times.values()
    a_med, b_med = statistics.median(a_ms), statistics.median(b_ms)
    return {
        "n": n,
        "rounds": rounds,
        "clear_caches": clear,
        "base_median_ms": round(a_med, 2),
        "change_median_ms": round(b_med, 2),
        "ratio": round(b_med / a_med, 3),
        "median_round_ratio": round(statistics.median(y / x for x, y in zip(a_ms, b_ms)), 3),
        "change_faster_in": f"{sum(y < x for x, y in zip(a_ms, b_ms))}/{rounds}",
        "base_ms": [round(t, 2) for t in a_ms],
        "change_ms": [round(t, 2) for t in b_ms],
    }


def compare_workload(sides, base_root: Path, name: str, seed: int, clear: bool):
    """The A/B summary of one benchmark corpus."""
    sys.path[:0] = [str(base_root / "src"), str(TOOLS.parent / "bench")]
    import run
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as work:
        instances = WORKLOADS[name].build(seed, Path(work))
        times = {alias: [[] for _ in instances] for alias, _ in sides}
        failed = {alias: set() for alias, _ in sides}
        for _, cli in sides:
            run.solve(cli, instances[0].argv)
        for r in range(WORKLOAD_ROUNDS):
            for i, inst in enumerate(instances):
                for alias, cli in sides if (r + i) % 2 == 0 else sides[::-1]:
                    if clear:
                        clear_caches(alias)
                    elapsed, outcome = run.solve(cli, inst.argv)
                    if outcome == run.MISMATCH or (
                        isinstance(outcome, bool) and outcome != inst.expected
                    ):
                        raise SystemExit(f"{alias}: wrong verdict on instance {inst.ident}")
                    if not isinstance(outcome, bool):
                        failed[alias].add(inst.ident)
                    times[alias][i].append(elapsed * 1000)
    sizes = [inst.size for inst in instances]
    out = {"workload": name, "seed": seed, "rounds": WORKLOAD_ROUNDS, "instances": len(instances)}
    medians = []
    for (alias, _), side in zip(sides, ("base", "change")):
        medians.append([statistics.median(ts) for ts in times[alias]])
        tail_ms, percentile = run.tail(medians[-1])
        out[side] = {
            "failed": len(failed[alias]),
            "p50_ms": round(statistics.median(medians[-1]), 3),
            "tail_ms": round(tail_ms, 3),
            "tail_percentile": percentile,
            "scaling_exponent": round(run.slope(sizes, medians[-1]), 4),
        }
    for metric in ("p50_ms", "tail_ms"):
        out[f"{metric[:-3]}_ratio"] = round(out["change"][metric] / out["base"][metric], 3)
    a, b = medians
    out["change_faster_in"] = f"{sum(y < x for x, y in zip(a, b))}/{len(a)}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--clear-caches", action="store_true")
    parser.add_argument("--workload", help="A/B over this benchmark corpus instead of qparity")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (with --workload)")
    args = parser.parse_args(argv)
    sides = (
        ("ab_base", load(args.base, "ab_base", "cli")),
        ("ab_change", load(args.change, "ab_change", "cli")),
    )
    if args.workload:
        summary = compare_workload(sides, args.base, args.workload, args.seed, args.clear_caches)
        print(json.dumps(summary), flush=True)
        return 0
    for n in SIZES:
        print(json.dumps(compare(sides, n, ROUNDS, args.clear_caches)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
