"""trunkqbf benchmark: file -> verdict solves through the command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout; without it the benchmark exits 1 and prints no result.

Inputs (QDIMACS and BTD files, expected verdicts) are generated before
timing from ``--seed`` (``qparity-ladder`` ignores it).  Each solve calls
``trunkqbf.cli.main(["solve", FILE, "--td", BTD, "--trivial-poset", ...])``
in this process, in a closed loop from one client, with standard output
captured: interpreter start and ``import trunkqbf.cli`` cost more than
most single solves, so they are reported once, as ``setup_s``.

A pass solves every instance of the workload once (``qparity-ladder``
solves its small rungs several times); passes repeat for ``--seconds``
and the last one ends at most half a pass late.  Times are reported at
reference speed: between solves a fixed reference loop is timed (see
``speed.py``), and each solve's time is divided by the host's slowdown
measured just before and just after it, so a slow phase of the shared
host does not read as a slower program.  With ``--trace 0``
nothing is instrumented and the end-to-end metrics are reported.  With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics and their spans are written to
``bench/_out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those ``BENCHMARK.json`` lists.  ``attempted`` counts
instances and ``failed`` those that got no verdict (a limit abort or an
error exit).  A wrong verdict makes the run exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Tuple

import tracing
from speed import Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
# Not 10: the corpora's slowest instances differ from seed to seed, and
# with 10 to 40 instances beyond it the tail moved by 30% between seeds.
TAIL_BEYOND = 50

# The parse, validate and ordering layers that precede the first step.
FRONT_END_LAYERS = (
    "formats.parse_qdimacs",
    "formats.parse_btd",
    "decomposition.validate_nice",
    "decomposition.validate_trunk_aligned",
    "decomposition.elimination_ordering",
)

MISMATCH = "mismatch"

# stderr fragments of ResourceLimitError messages, by abort kind.
LIMIT_KINDS = (
    ("branches, limit is", "branch_limit"),
    ("sets, limit is", "family_limit"),
    ("matrices, limit is", "set_limit"),
)


def load_program():
    """Import ``trunkqbf.cli`` from this checkout's ``src/`` only."""
    sys.path.insert(0, str(SRC))
    try:
        import trunkqbf.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import trunkqbf from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: trunkqbf was imported from {cli.__file__}, not {SRC}")
    return cli


@contextlib.contextmanager
def one_cpu():
    """Run this process and the children it starts on one CPU meanwhile, so
    that the reference loop measures the core the children run on."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_setup():
    """Median time of a fresh interpreter running ``import trunkqbf.cli``.

    Returns (seconds at reference speed, raw seconds).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scaled = [], []
    with one_cpu():
        probe = Probe()
        probe.sample()
        probe.sample()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import trunkqbf.cli"], cwd=ROOT, env=env, check=True
            )
            times.append(perf_counter() - start)
            after = len(probe.samples)
            probe.sample()
            probe.sample()
            scaled.append(times[-1] / probe.slowdown_around(after))
    return statistics.median(scaled), statistics.median(times)


def _outcome(code, out: str, err: str):
    """The verdict (bool) one solve printed, or what went wrong (str).

    ``MISMATCH`` means the exit code contradicts the printed verdict.
    """
    printed = {"s cnf 1\n": True, "s cnf 0\n": False}.get(out)
    if printed is not None:
        return printed if code == (10 if printed else 20) else MISMATCH
    if code == 1:
        for fragment, kind in LIMIT_KINDS:
            if fragment in err:
                return kind
    return "error"


def solve(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed solve, not a failed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
    return elapsed, _outcome(code, out.getvalue(), err.getvalue())


class Pass(NamedTuple):
    wall: float  # raw seconds, reference samples taken out
    # (instance index, raw seconds, outcome, the host's slowdown around the solve)
    samples: List[Tuple[int, float, object, float]]
    slowdown: float  # the host's over the pass, weighted by solve time


def run_pass(cli, instances, probe: Probe, tracer=None) -> Pass:
    """Solve every instance ``repeats`` times, in rounds, taking reference
    samples between solves."""
    rounds = max(inst.repeats for inst in instances)
    order = [i for r in range(rounds) for i, inst in enumerate(instances) if r < inst.repeats]
    solves = []
    spent = probe.spent
    start = perf_counter()
    for i in order:
        probe.maybe_sample()
        if tracer is not None:
            tracer.instance = instances[i].ident
        elapsed, outcome = solve(cli, instances[i].argv)
        solves.append((i, elapsed, outcome, len(probe.samples)))
    probe.sample()
    probe.sample()
    wall = perf_counter() - start - (probe.spent - spent)
    samples = [(i, t, o, probe.slowdown_around(after)) for i, t, o, after in solves]
    solving = sum(t for _, t, _, _ in samples)
    slowdown = solving / sum(t / x for _, t, _, x in samples)
    return Pass(wall, samples, slowdown)


def keep_going(deadline: float, passes) -> bool:
    """Start another pass if it would end less than half a pass after the deadline."""
    mean = statistics.fmean(p.wall for p in passes)
    return perf_counter() + mean / 2 < deadline


def by_instance(instances, passes):
    """The (seconds at reference speed, outcome) samples of every instance."""
    out = [[] for _ in instances]
    for p in passes:
        for i, elapsed, outcome, slowdown in p.samples:
            out[i].append((elapsed / slowdown, outcome))
    return out


def check_outcomes(instances, passes):
    """(wrong verdicts, failure kind per failed instance id)."""
    wrong, failures = 0, {}
    for inst, samples in zip(instances, by_instance(instances, passes)):
        seen = [outcome for _, outcome in samples]
        if any(o == MISMATCH or (isinstance(o, bool) and o != inst.expected) for o in seen):
            wrong += 1
        kinds = [o for o in seen if not isinstance(o, bool)]
        if kinds:
            failures[inst.ident] = kinds[0]
    return wrong, failures


def tail(values):
    """(value, percentile) of the highest of p99, p95 and p90 that has at
    least ``TAIL_BEYOND`` values beyond it (nearest rank).

    Without one it is the maximum, reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(round(percentile * n / 100, 9))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile
    return ordered[-1], 100.0


def slope(sizes, times):
    """Least-squares slope of log median time against log size, over the
    median time of every size."""
    by_size = {}
    for size, t in zip(sizes, times):
        by_size.setdefault(size, []).append(t)
    lx = [math.log(size) for size in by_size]
    ly = [math.log(statistics.median(ts)) for ts in by_size.values()]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(instances, passes, setup_s):
    """The end-to-end metrics, at reference speed."""
    per_instance = [
        statistics.median(t for t, _ in samples) for samples in by_instance(instances, passes)
    ]
    tail_s, percentile = tail(per_instance)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall / p.slowdown for p in passes),
        "solve_p50_ms": statistics.median(per_instance) * 1e3,
        "solve_tail_ms": tail_s * 1e3,
        "scaling_exponent": slope([inst.size for inst in instances], per_instance),
        "peak_rss_mb": peak_rss_mb(),
    }
    note = f"solve_tail_ms is p{percentile:g} of {len(per_instance)} per-instance medians"
    return metrics, per_instance, note


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0].start if spans else 0.0
    with path.open("w", encoding="utf-8") as sink:
        sink.write("id\tname\tstart_us\tend_us\tparent\tinstance\tdetail\n")
        for i, s in enumerate(spans):
            detail = getattr(s.detail, "rule", s.detail)
            sink.write(
                f"{i}\t{s.name}\t{(s.start - origin) * 1e6:.1f}\t{(s.end - origin) * 1e6:.1f}"
                f"\t{s.parent}\t{s.instance}\t{'' if detail is None else detail}\n"
            )


def traced_window(cli, workload, instances, seconds, probe):
    """Alternate untraced and traced passes; return the per-layer report."""
    tracer = tracing.Tracer()
    untraced, traced, layer_passes = [], [], []
    first_spans = None
    counts_match = True
    deadline = perf_counter() + seconds
    while not traced or keep_going(deadline, untraced + traced):
        if len(untraced) == len(traced):
            untraced.append(run_pass(cli, instances, probe))
            continue
        tracer.install()
        try:
            traced.append(run_pass(cli, instances, probe, tracer))
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        times, tallies, self_ms = tracing.pass_metrics(spans, counts)
        if first_spans is None:
            first_spans, first_tallies = spans, tallies
        counts_match &= tallies == first_tallies
        layer_passes.append((times, self_ms))
    metrics = {**tracing.median_times([t for t, _ in layer_passes]), **first_tallies}
    metrics["trace.overhead_ratio"] = statistics.median(
        p.wall / p.slowdown for p in traced
    ) / statistics.median(p.wall / p.slowdown for p in untraced)
    write_spans(BENCH / "_out" / f"spans-{workload.name}.tsv", first_spans)
    return {
        "metrics": metrics,
        "self_ms": tracing.median_times([s for _, s in layer_passes]),
        "rules": tracing.rule_counts(first_spans),
        "absent": tracer.absent,
        "counts_match": counts_match,
        "untraced": untraced,
        "traced": traced,
    }


def declared(kind: str):
    """Metric name -> unit, as ``BENCHMARK.json`` lists them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_metrics(metrics, units) -> None:
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")


def print_layer_report(workload, instances, report) -> bool:
    """Print the traced run's findings; False if a guard or a count check failed."""
    metrics = report["metrics"]
    problems = workload.guard(instances, report["rules"])
    mix = Counter()
    for counts in report["rules"].values():
        mix.update(counts)
    print(f"# rule mix: {dict(sorted(mix.items()))}")
    for problem in problems:
        print(f"# GUARD FAILED: {problem}")
    if not report["counts_match"]:
        print("# COUNTS DIFFER between traced passes")
    if report["absent"]:
        print(f"# hooks absent: {', '.join(report['absent'])}")
    solve_ms = metrics["cli.main_ms"]
    front = sum(metrics[f"{name}_ms"] for name in FRONT_END_LAYERS)
    print(f"# {len(report['traced'])} traced passes; shares of traced solve time ({solve_ms:.1f} ms):")
    print(f"#   strategy_extension with children  {metrics['derivation.strategy_extension_ms'] / solve_ms:.3f}")
    print(f"#   parse + validate + ordering       {front / solve_ms:.3f}")
    ranked = sorted(report["self_ms"].items(), key=lambda kv: -kv[1])
    print("#   self time: " + ", ".join(f"{k} {v / solve_ms:.3f}" for k, v in ranked[:6]))
    return not problems and report["counts_match"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_s, setup_raw = measure_setup()
    probe = Probe()
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        instances = workload.build(args.seed, work)
        solve(cli, instances[0].argv)  # warm-up: lazy imports and first-call costs
        if args.trace:
            report = traced_window(cli, workload, instances, args.seconds, probe)
            untraced = report["untraced"]
        else:
            untraced = []
            deadline = perf_counter() + args.seconds
            while not untraced or keep_going(deadline, untraced):
                untraced.append(run_pass(cli, instances, probe))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + (report["traced"] if args.trace else [])
    wrong, failures = check_outcomes(instances, passes)
    verdicts = Counter(inst.expected for inst in instances if inst.ident not in failures)
    print(f"# workload {workload.name}: {workload.why}")
    print(
        f"# seed {args.seed}, python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{len(instances)} instances, {len(untraced)} untraced passes"
    )
    print(
        f"# verdicts: {verdicts[True]} true, {verdicts[False]} false; failed "
        f"{len(failures)} {dict(Counter(failures.values()))}; wrong {wrong}"
    )
    metrics, per_instance, note = end_to_end(instances, untraced, setup_s)
    if len(instances) <= 10:
        print("# per-instance median ms: " + ", ".join(
            f"{inst.size}: {t * 1e3:.1f}" for inst, t in zip(instances, per_instance)
        ))
    print(f"# {note}")
    slowdowns = [p.slowdown for p in untraced]
    print(
        f"# host slowdown per pass against the baseline machine: "
        f"{', '.join(f'{x:.3f}' for x in slowdowns)}; raw (unscaled) "
        f"wall_s {statistics.median(p.wall for p in untraced):.6g} s, "
        f"setup_s {setup_raw:.6g} s"
    )
    print(f"{'failed_ratio':<44} {len(failures) / len(instances):>14.6g} ratio")
    print(f"{'wrong_verdicts':<44} {wrong:>14d} count")
    units = declared("end_to_end")
    print_metrics(metrics, units)
    correct = wrong == 0
    if args.trace:
        correct = print_layer_report(workload, instances, report) and correct
        metrics, units = report["metrics"], declared("per_layer")
        print_metrics(metrics, units)
    result = {
        "correct": correct,
        "attempted": len(instances),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
