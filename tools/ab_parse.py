"""In-process A/B of two checkouts' parsers on the benchmark's input files.

    PYTHONPATH=src python3 tools/ab_parse.py BASE CHANGE [--seed N] [--rounds R]

BASE and CHANGE are checkout roots; each one's ``src/trunkqbf`` is loaded
into this interpreter under its own package name by ``tools/ab_solve.py``'s
``load``.  The r4-shuffled corpus of the seed and the qparity ladder are
written once by ``bench/workloads.py`` with the package on ``PYTHONPATH``
and read into memory.  Each of the ROUNDS rounds then times, per side, one
pass of ``parse_qdimacs`` (and, separately, of ``parse_btd``) over every
file of a corpus; the ladder's five files are passed over 20 times per
round.  The side that runs first alternates from round to round.  No
collection is forced between passes, as in ``bench/run.py``, so the
cyclic collector's work during a pass counts in its time.

Prints one JSON line per corpus and parser: both medians in ms, the median
of the per-round ratios CHANGE / BASE (the two passes of a round run back
to back, so this one is least moved by the host's speed changing between
rounds), its quartiles and the number of rounds CHANGE was faster.  Times
are raw wall times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from ab_solve import load  # noqa: E402
from workloads import build_ladder, build_r4_shuffled  # noqa: E402

LADDER_PASSES = 20


def corpora(seed: int):
    """(name, QDIMACS texts, BTD texts) per corpus."""
    out = []
    with tempfile.TemporaryDirectory() as work:
        for name, build, passes in (
            ("r4-shuffled", build_r4_shuffled, 1),
            ("qparity-ladder", build_ladder, LADDER_PASSES),
        ):
            directory = Path(work) / name
            directory.mkdir()
            instances = build(seed, directory)
            qdimacs = [Path(i.argv[1]).read_text(encoding="utf-8") for i in instances]
            btd = [Path(i.argv[3]).read_text(encoding="utf-8") for i in instances]
            out.append((name, qdimacs * passes, btd * passes))
    return out


def timed_pass(parse, texts) -> float:
    started = perf_counter()
    for text in texts:
        parse(text)
    return (perf_counter() - started) * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    sides = (load(args.base, "ab_base", "formats"), load(args.change, "ab_change", "formats"))
    for name, qdimacs, btd in corpora(args.seed):
        for parse_name, texts in (("parse_qdimacs", qdimacs), ("parse_btd", btd)):
            parses = [getattr(side, parse_name) for side in sides]
            for parse in parses:
                timed_pass(parse, texts)
            times = ([], [])
            for r in range(args.rounds):
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    times[i].append(timed_pass(parses[i], texts))
            ratios = [y / x for x, y in zip(*times)]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            record = {
                "corpus": name,
                "parser": parse_name,
                "files": len(texts),
                "base_median_ms": round(statistics.median(times[0]), 2),
                "change_median_ms": round(statistics.median(times[1]), 2),
                "median_round_ratio": round(statistics.median(ratios), 3),
                "round_ratio_quartiles": [round(q1, 3), round(q3, 3)],
                "change_faster_in": f"{sum(r < 1 for r in ratios)}/{args.rounds}",
            }
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
