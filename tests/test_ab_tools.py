"""The in-process A/B tool, ``tools/ab_solve.py``, on this checkout
against itself; a rename in the package or the benchmark that breaks it
must fail here."""

import json
import sys
from pathlib import Path

import pytest

from trunkqbf import qparity, qparity_td, write_btd, write_qdimacs

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ab_solve(monkeypatch):
    # Prepending saves sys.path, which the tool extends, for the teardown.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab_solve

    yield ab_solve
    for name in list(sys.modules):
        if name.split(".")[0] in ("ab_base", "ab_change"):
            del sys.modules[name]


def run_tool(ab_solve, capsys, *argv):
    assert ab_solve.main([str(ROOT), str(ROOT), *argv]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def hand_made(monkeypatch, work: Path, *cases):
    """The ``hand-made`` workload: ``(n, expected, extra argv)`` cases on ``qparity(n)``."""
    import workloads

    instances = []
    for ident, (n, expected, extra) in enumerate(cases):
        stem = work / f"{ident}"
        Path(f"{stem}.qdimacs").write_text(write_qdimacs(qparity(n)), encoding="utf-8")
        Path(f"{stem}.btd").write_text(write_btd(qparity_td(n)), encoding="utf-8")
        argv = ("solve", f"{stem}.qdimacs", "--td", f"{stem}.btd", "--trivial-poset", *extra)
        instances.append(workloads.Instance(ident, argv, expected, n))
    corpus = workloads.Workload("hand-made", "", lambda seed, work: instances, lambda *_: [])
    monkeypatch.setitem(workloads.WORKLOADS, "hand-made", corpus)
    return instances


def test_both_tools_run_this_checkout_against_itself(ab_solve, monkeypatch, capsys):
    monkeypatch.setattr(ab_solve, "ROUNDS", 3)
    (record,) = run_tool(ab_solve, capsys, "--clear-caches", "2")  # a size after an option
    assert record["n"] == 2 and record["rounds"] == 3 and record["clear_caches"] is True
    for key in ab_solve.KEYS:
        assert record[f"{key}_ratio"] > 0
        assert record[f"{key}_change_faster_in"].endswith("/3")


def test_front_end_runs_on_qparity2(ab_solve, monkeypatch, capsys):
    monkeypatch.setattr(ab_solve, "ROUNDS", 3)
    (record,) = run_tool(ab_solve, capsys, "2")
    for side in (record["base"], record["change"]):
        assert side["solve_ms"] > 0 and isinstance(side["target_met"], bool)
        assert all(side[f"{key}_ms"] >= 0 for key in ab_solve.KEYS)


def test_a_limit_abort_is_a_failed_instance_that_keeps_its_time(
    ab_solve, monkeypatch, capsys, tmp_path
):
    instances = hand_made(
        monkeypatch, tmp_path, (2, False, ()), (3, False, ("--max-family-size", "1"))
    )
    (record,) = run_tool(ab_solve, capsys, "--workload", "hand-made")
    assert record["workload"] == "hand-made" and record["instances"] == 2
    for side in ("base", "change"):
        assert record[side]["failed"] == 1
        assert record[side]["p50_ms"] > 0 and record[side]["tail_ms"] > 0
        assert isinstance(record[side]["scaling_exponent"], float)
        # Two instances: the sum of their medians is at least the p50.
        assert record[side]["sum_ms"] >= record[side]["p50_ms"]
    sums = record["change"]["sum_ms"], record["base"]["sum_ms"]
    assert record["sum_ratio"] == round(sums[0] / sums[1], 3)

    times, failed = ab_solve.compare([ab_solve.load(ROOT, "ab_base")], instances, 2, True)
    assert failed == {"ab_base": {1}}
    for key in ("solve", "before_first_step", "steps"):
        assert len(times["ab_base"][key][1]) == 2
        assert all(ms > 0 for ms in times["ab_base"][key][1])


def test_a_wrong_verdict_exits_1(ab_solve, monkeypatch, capsys, tmp_path):
    hand_made(monkeypatch, tmp_path, (2, False, ()), (3, True, ()))
    with pytest.raises(SystemExit, match="wrong verdict on instance 1"):
        run_tool(ab_solve, capsys, "--workload", "hand-made")


def test_the_layered_solve_reads_every_limit_option(ab_solve):
    side = ab_solve.load(ROOT, "ab_base")
    qdimacs, btd = write_qdimacs(qparity(2)), write_btd(qparity_td(2))
    parser = side.cli.build_parser()
    for option in ("--max-family-size", "--max-strategies", "--max-matrix-size"):
        args = parser.parse_args(["solve", "q", "--td", "t", "--trivial-poset", option, "1"])
        _, verdict = ab_solve.layered_solve(side, qdimacs, btd, args)
        assert verdict == "limit", option
    args = parser.parse_args(["solve", "q", "--td", "t", "--trivial-poset"])
    assert ab_solve.layered_solve(side, qdimacs, btd, args)[1] is False
