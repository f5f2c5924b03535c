"""The in-process tools that size and attribute engine changes; a rename
in the package or the benchmark that breaks ``tools/ab_solve.py``,
``tools/ab_parse.py`` or ``tools/front_end.py`` must fail here."""

import sys
from pathlib import Path

from trunkqbf import qparity, qparity_td, write_btd, write_qdimacs

ROOT = Path(__file__).resolve().parent.parent
ALIASES = ("ab_smoke_base", "ab_smoke_change")


def test_both_tools_run_this_checkout_against_itself(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab_parse
    import ab_solve
    import run

    try:
        sides = tuple((alias, ab_solve.load(ROOT, alias, "cli")) for alias in ALIASES)
        summary = ab_solve.compare(sides, 2, 2, clear=True)
        assert summary["n"] == 2 and summary["clear_caches"] is True
        assert len(summary["base_ms"]) == len(summary["change_ms"]) == 2
        assert all(t > 0 for t in summary["base_ms"] + summary["change_ms"])

        texts = {
            "parse_qdimacs": [write_qdimacs(qparity(2))],
            "parse_btd": [write_btd(qparity_td(2))],
        }
        for alias in ALIASES:
            formats = sys.modules[f"{alias}.formats"]
            for parser, files in texts.items():
                assert ab_parse.timed_pass(getattr(formats, parser), files) > 0
        # What ``ab_solve.compare_workload`` reads of the benchmark runner.
        assert all(callable(getattr(run, name)) for name in ("solve", "tail", "slope"))
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in ALIASES:
                del sys.modules[name]


def test_front_end_runs_on_qparity2(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import front_end

    record = front_end.measure(2, rounds=3)
    layers = [f"{name}_ms" for name in (*front_end.LAYERS, "before_first_step", "steps")]
    assert record["n"] == 2 and record["rounds"] == 3
    assert all(record[key] >= 0 for key in layers)
    assert isinstance(record["target_met"], bool)
