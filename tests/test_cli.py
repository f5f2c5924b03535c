import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trunkqbf import (
    parse_btd,
    parse_qdimacs,
    qparity,
    qparity_td,
    single_bag_td,
    trivial_poset,
    write_btd,
    write_poset,
    write_qdimacs,
)
from trunkqbf import cli, generators
from trunkqbf.cli import main
from trunkqbf.generators import forget_path_td


@pytest.fixture
def qparity2_files(tmp_path):
    assert main(["gen", "qparity", "2", str(tmp_path / "qp2")]) == 0
    return str(tmp_path / "qp2.qdimacs"), str(tmp_path / "qp2.btd")


def write_unit_sat(tmp_path):
    q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 0\n")
    qd = tmp_path / "unit.qdimacs"
    td = tmp_path / "unit.btd"
    qd.write_text(write_qdimacs(q))
    td.write_text(write_btd(single_bag_td(q)))
    return str(qd), str(td)


def write_forget_path(tmp_path, qdimacs, forget):
    """Write the instance and its ``forget_path_td`` for the forget order."""
    q = parse_qdimacs(qdimacs)
    qd, btd = tmp_path / "path.qdimacs", tmp_path / "path.btd"
    qd.write_text(write_qdimacs(q))
    btd.write_text(write_btd(forget_path_td(q, forget)))
    return str(qd), str(btd)


class TestGen:
    def test_generated_files_parse_back(self, qparity2_files):
        qd, td = qparity2_files
        with open(qd) as f:
            assert parse_qdimacs(f.read()) == qparity(2)
        with open(td) as f:
            assert parse_btd(f.read()) == qparity_td(2)

    def test_generated_pair_validates(self, qparity2_files):
        qd, td = qparity2_files
        assert main(["validate", qd, "--td", td, "--trivial-poset"]) == 0


class TestSolve:
    def test_qparity2_is_false(self, qparity2_files, capsys):
        qd, td = qparity2_files
        code = main(["solve", qd, "--td", td, "--trivial-poset"])
        out = capsys.readouterr()
        assert code == 20
        assert out.out == "s cnf 0\n"
        assert out.err == ""

    def test_unit_sat_is_true(self, tmp_path, capsys):
        qd, td = write_unit_sat(tmp_path)
        code = main(["solve", qd, "--td", td, "--trivial-poset"])
        assert code == 10
        assert capsys.readouterr().out == "s cnf 1\n"

    def test_misaligned_decomposition_names_the_variable(self, tmp_path, capsys):
        qd = tmp_path / "q.qdimacs"
        qd.write_text("p cnf 3 4\ne 1 0\na 2 0\ne 3 0\n1 -3 0\n-1 3 0\n2 -3 0\n-2 3 0\n")
        bad = tmp_path / "bad.btd"
        bad.write_text(
            "s btd 7 2 3\nb 1\nb 2 3\nb 3 3 2\nb 4 3\nb 5 3 1\nb 6 1\nb 7\n"
            "e 2 1\ne 3 2\ne 4 3\ne 5 4\ne 6 5\ne 7 6\nr 7\nt 1 2 3 4 5 6 7\n"
        )
        code = main(["solve", str(qd), "--td", str(bad), "--trivial-poset"])
        err = capsys.readouterr().err
        assert code == 1
        assert "[P1P2] 2" in err

    def test_stats_and_trace(self, qparity2_files, tmp_path, capsys):
        qd, td = qparity2_files
        trace = tmp_path / "run.jsonl"
        code = main([
            "solve", qd, "--td", td, "--trivial-poset",
            "--checks", "--stats", "--trace", str(trace),
        ])
        out = capsys.readouterr().out
        assert code == 20
        assert out.endswith("s cnf 0\n")
        stats = [l for l in out.splitlines() if l.startswith("c ")]
        assert any(l.startswith("c peak_family_size") for l in stats)
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert [r["rule"] for r in records] == ["R4", "R2", "R4", "R2", "R3"]
        assert all(r["family_after"] >= 1 for r in records)

    def test_poset_file_flag(self, qparity2_files, tmp_path):
        qd, td = qparity2_files
        poset_path = tmp_path / "trv.poset"
        poset_path.write_text(write_poset(trivial_poset(qparity(2).prefix)))
        assert main(["solve", qd, "--td", td, "--poset", str(poset_path)]) == 20

    def test_huge_branch_count_is_a_branch_limit(self, tmp_path, capsys):
        # forall 1..14 exists 15 forall 16, forgetting 15 first: 15 has 14
        # universal dependencies, so 2^(2^14 + 14) branches, a number too
        # long to print in decimal.
        qd, td = write_forget_path(
            tmp_path,
            "p cnf 16 1\na " + " ".join(map(str, range(1, 15))) + " 0\ne 15 0\na 16 0\n1 15 16 0\n",
            [15, 16, *range(14, 0, -1)],
        )
        started = time.perf_counter()
        code = main(["solve", qd, "--td", td, "--trivial-poset"])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 1
        assert "needs 2^16398 branches, limit is" in err
        assert "integer string conversion" not in err
        assert elapsed < 1.0

    def test_limit_abort_keeps_the_partial_trace(self, tmp_path, capsys):
        # Step 1 forgets 1 by strategy extension over 2 branches; step 2
        # forgets 5, whose three universal dependencies make 2^11 branches.
        qd, td = write_forget_path(
            tmp_path,
            "p cnf 6 2\ne 1 0\na 2 3 4 0\ne 5 0\na 6 0\n1 2 5 6 0\n-1 3 -5 0\n",
            [1, 5, 6, 4, 3, 2],
        )
        trace = tmp_path / "partial.jsonl"
        code = main([
            "solve", qd, "--td", td, "--trivial-poset",
            "--max-strategies", "1024", "--trace", str(trace),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "step 2, variable 5:" in err
        assert "branches, limit is 1024" in err
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert [(r["step"], r["variable"], r["rule"]) for r in records] == [(1, 1, "R4")]


def _exhaust_memory(monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(generators, "qparity", exhausted)


# Per command and failure: the argument tokens and a fragment of the one
# error line, both with {name} standing for a path of the ``error_inputs``
# fixture, and what to patch first, if anything.
ERRORS = {
    "solve missing file": ("solve {missing} --td {td} --trivial-poset", "No such file", None),
    "validate missing file": ("validate {qd} --td {missing} --trivial-poset", "No such file", None),
    "oracle missing file": ("oracle {missing}", "No such file", None),
    "gen missing directory": ("gen qparity 2 {missing}/q", "No such file", None),
    "solve parse error": ("solve {bad} --td {td} --trivial-poset", "line 3: expected", None),
    "validate parse error": ("validate {qd} --td {qd} --trivial-poset", "line 1: content", None),
    "oracle parse error": ("oracle {bad}", "line 3: expected an integer literal", None),
    "solve poset parse error": (
        "solve {qd} --td {td} --poset {qd}",
        "line 1: malformed header",
        None,
    ),
    "solve validation error": ("solve {unit} --td {t3} --trivial-poset", "T3", None),
    "validate validation error": ("validate {unit} --td {t3} --trivial-poset", "T3", None),
    "solve limit abort": (
        "solve {qd} --td {td} --trivial-poset --max-family-size 1",
        "sets, limit is 1",
        None,
    ),
    "solve limit abort, unwritable trace": (
        "solve {qd} --td {td} --trivial-poset --max-strategies 1 --trace {dir}",
        "error: step 1, variable 1: strategy extension up to 1 needs 2^1 branches, "
        "limit is 1; cannot write trace: [Errno 21] Is a directory: '{dir}'\n",
        None,
    ),
    "solve unwritable trace": (
        "solve {qd} --td {td} --trivial-poset --trace {dir}",
        "error: cannot write trace: [Errno 21] Is a directory: '{dir}'\n",
        None,
    ),
    "solve non-positive family limit": (
        "solve {qd} --td {td} --trivial-poset --max-family-size 0",
        "limits must be positive",
        None,
    ),
    "solve non-positive set limit": (
        "solve {qd} --td {td} --trivial-poset --max-set-size -1",
        "limits must be positive",
        None,
    ),
    "solve non-positive branch limit": (
        "solve {qd} --td {td} --trivial-poset --max-strategies 0",
        "limits must be positive",
        None,
    ),
    "oracle non-positive budget": ("oracle {qd} --budget 0", "budget must be positive", None),
    "oracle budget exceeded": ("oracle {qd} --budget 4", "5 variables, budget allows 4", None),
    "oracle default budget exceeded": (
        "oracle {big}",
        "instance has 30 variables, budget allows 24",
        None,
    ),
    "oracle prefix too deep": (
        "oracle {deep} --budget 2000",
        "error: the prefix is too deep for the oracle's recursion",
        None,
    ),
    "oracle header count too long": (
        "oracle {long_qd}",
        "error: line 1: variable count has more than 4300 digits\n",
        None,
    ),
    "solve node id too long": (
        "solve {qd} --td {long_td} --trivial-poset",
        "error: line 2: node id has more than 4300 digits\n",
        None,
    ),
    "solve poset header count too long": (
        "solve {qd} --td {td} --poset {long_dep}",
        "error: line 1: variable count has more than 4300 digits\n",
        None,
    ),
    "gen unknown family": ("gen mystery 3 {out}", "error: unknown family 'mystery'", None),
    "gen n below two": ("gen qparity 1 {out}", "error: qparity requires n >= 2, got 1", None),
    "gen out of memory": (
        "gen qparity 100000000000 {out}",
        "error: out of memory\n",
        _exhaust_memory,
    ),
}


@pytest.fixture
def error_inputs(tmp_path, qparity2_files):
    qd, td = qparity2_files
    unit, _ = write_unit_sat(tmp_path)
    bad, t3, deep = tmp_path / "bad.qdimacs", tmp_path / "t3.btd", tmp_path / "deep.qdimacs"
    big = tmp_path / "big.qdimacs"
    bad.write_text("p cnf 1 1\ne 1 0\n1 x 0\n")
    t3.write_text("s btd 2 1 1\nb 1\nb 2 1\ne 2 1\nr 2\nt 1 2\n")
    deep.write_text("p cnf 1500 1\ne " + " ".join(map(str, range(1, 1501))) + " 0\n1500 0\n")
    big.write_text("p cnf 30 1\ne " + " ".join(map(str, range(1, 31))) + " 0\n1 0\n")
    # More digits than int() converts by default (4300).
    many = "1" * 5000
    long_qd, long_td = tmp_path / "long.qdimacs", tmp_path / "long.btd"
    long_dep = tmp_path / "long.dep"
    long_qd.write_text(f"p cnf {many} 1\ne 1 0\n1 0\n")
    long_td.write_text(f"s btd 1 1 1\nb {many} 1\nr 1\nt 1\n")
    long_dep.write_text(f"p dep {many}\n")
    return {
        "qd": qd, "td": td, "unit": unit, "bad": str(bad), "t3": str(t3), "deep": str(deep),
        "big": str(big), "long_qd": str(long_qd), "long_td": str(long_td),
        "long_dep": str(long_dep),
        "missing": str(tmp_path / "missing"), "dir": str(tmp_path), "out": str(tmp_path / "x"),
    }


class TestOneErrorLine:
    """Every failure of every command is one ``error: ...`` line on
    standard error, nothing on standard output, and exit code 1."""

    @pytest.mark.parametrize("case", ERRORS)
    def test_a_failure_is_one_line(self, case, error_inputs, monkeypatch, capsys):
        argv, fragment, patch = ERRORS[case]
        if patch:
            patch(monkeypatch)
        capsys.readouterr()
        assert main([token.format(**error_inputs) for token in argv.split()]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert fragment.format(**error_inputs) in err


class TestUsageErrors:
    def test_argparse_reports_a_malformed_option_itself(self, qparity2_files, capsys):
        # argparse rejects the option before main runs a command, with its
        # usage text and exit code 2.
        qd, td = qparity2_files
        with pytest.raises(SystemExit) as info:
            main(["solve", qd, "--td", td, "--trivial-poset", "--max-strategies", "abc"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "trunkqbf solve: error: argument --max-strategies: invalid int value: 'abc'"
        )


class TestCollectorPause:
    """``main`` pauses the cyclic collector while a command runs and then
    leaves it as it found it, whatever the command's outcome."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_state_is_restored(
        self, enabled, qparity2_files, tmp_path, capsys, monkeypatch
    ):
        qd, td = qparity2_files
        bad = tmp_path / "bad.qdimacs"
        bad.write_text("p cnf 1 1\ne 1 0\n1 x 0\n")
        during = []
        real = cli.run_derivation

        def observed(*args, **kwargs):
            during.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_derivation", observed)
        commands = [
            (["solve", qd, "--td", td, "--trivial-poset"], 20),
            (["solve", qd, "--td", td, "--trivial-poset", "--max-family-size", "1"], 1),
            (["solve", str(bad), "--td", td, "--trivial-poset"], 1),
        ]
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for argv, code in commands:
                assert main(argv) == code
                assert gc.isenabled() == enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert "limit" in capsys.readouterr().err
        assert during == [False, False]

    def test_the_cyclic_garbage_of_a_solve_does_not_grow_with_the_run(self, tmp_path):
        # The engine's values cannot form cycles, so what the paused
        # collector leaves behind (the argument parser) is the same for
        # a run of 5 steps and one of 65.
        left = []
        before = gc.isenabled()
        gc.disable()
        try:
            for n in (2, 32):
                prefix = str(tmp_path / f"q{n}")
                assert main(["gen", "qparity", str(n), prefix]) == 0
                argv = ["solve", f"{prefix}.qdimacs", "--td", f"{prefix}.btd", "--trivial-poset"]
                gc.collect()
                assert main(argv) == 20
                left.append(gc.collect())
        finally:
            (gc.enable if before else gc.disable)()
        assert left[0] == left[1]


class TestValidate:
    def test_ok_pair(self, qparity2_files):
        qd, td = qparity2_files
        assert main(["validate", qd, "--td", td, "--trivial-poset"]) == 0

    def test_stats_show_the_width_nodes_and_r4_variables(self, qparity2_files, capsys):
        # qparity(2)'s x1 and x2 fail P1, so R4 branches on both.
        qd, td = qparity2_files
        assert main(["validate", qd, "--td", td, "--trivial-poset", "--stats"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "c width 2",
            "c nodes 11",
            "c r4_variables 2",
        ]

    def test_qparity4_files_validate(self, tmp_path):
        assert main(["gen", "qparity", "4", str(tmp_path / "qp4")]) == 0
        assert main([
            "validate", str(tmp_path / "qp4.qdimacs"),
            "--td", str(tmp_path / "qp4.btd"), "--trivial-poset",
        ]) == 0

    def test_nonempty_root_bag_names_t3(self, tmp_path, capsys):
        qd = tmp_path / "q.qdimacs"
        qd.write_text("p cnf 1 1\ne 1 0\n1 0\n")
        bad = tmp_path / "bad.btd"
        bad.write_text("s btd 2 1 1\nb 1\nb 2 1\ne 2 1\nr 2\nt 1 2\n")
        assert main(["validate", str(qd), "--td", str(bad), "--trivial-poset"]) == 1
        assert "T3" in capsys.readouterr().err

    def test_missing_trunk_line_is_a_grammar_error(self, tmp_path, capsys):
        qd = tmp_path / "q.qdimacs"
        qd.write_text("p cnf 1 1\ne 1 0\n1 0\n")
        bad = tmp_path / "bad.btd"
        bad.write_text("s btd 3 1 1\nb 1\nb 2 1\nb 3\ne 2 1\ne 3 2\nr 3\n")
        assert main(["validate", str(qd), "--td", str(bad), "--trivial-poset"]) == 1
        assert "missing trunk" in capsys.readouterr().err

    def test_judges_the_instance_without_tautologies(self, tmp_path, capsys):
        # The path {} {1} {} {2} {} covers no edge between 1 and 2, but
        # the only clause joining them is a tautology, so the instance
        # solve runs on has no such edge.
        qd, btd = tmp_path / "q.qdimacs", tmp_path / "q.btd"
        qd.write_text("p cnf 2 1\ne 1 2 0\n1 -1 2 0\n")
        btd.write_text(
            "s btd 5 1 2\nb 1\nb 2 1\nb 3\nb 4 2\nb 5\n"
            "e 2 1\ne 3 2\ne 4 3\ne 5 4\nr 5\nt 1 2 3 4 5\n"
        )
        assert main(["validate", str(qd), "--td", str(btd), "--trivial-poset"]) == 0
        assert main(["solve", str(qd), "--td", str(btd), "--trivial-poset"]) == 10
        assert capsys.readouterr().err == ""


class TestOracle:
    def test_qparity3_false(self, tmp_path, capsys):
        qd = tmp_path / "qp3.qdimacs"
        qd.write_text(write_qdimacs(qparity(3)))
        assert main(["oracle", str(qd)]) == 20
        assert capsys.readouterr().out == "s cnf 0\n"

    def test_empty_matrix_true(self, tmp_path, capsys):
        qd = tmp_path / "t.qdimacs"
        qd.write_text("p cnf 2 0\ne 1 2 0\n")
        assert main(["oracle", str(qd)]) == 10
        assert capsys.readouterr().out == "s cnf 1\n"

    def test_budget_flag(self, tmp_path):
        variables = " ".join(str(i) for i in range(1, 26))
        qd = tmp_path / "mid.qdimacs"
        qd.write_text(f"p cnf 25 1\ne {variables} 0\n1 0\n")
        assert main(["oracle", str(qd), "--budget", "25"]) == 10


class TestAgreement:
    def test_solver_and_oracle_exit_codes_match(self, tmp_path):
        from trunkqbf import random_instance

        for seed in range(25):
            q = random_instance(seed, 2 + seed % 6, 1 + seed % 8, 1 + seed % 3, 1 + seed % 4)
            qd = tmp_path / f"i{seed}.qdimacs"
            td = tmp_path / f"i{seed}.btd"
            qd.write_text(write_qdimacs(q))
            td.write_text(write_btd(single_bag_td(q)))
            solve_code = main(["solve", str(qd), "--td", str(td), "--trivial-poset"])
            oracle_code = main(["oracle", str(qd)])
            assert solve_code == oracle_code


class TestModuleEntryPoint:
    def test_python_m_runs_gen_and_solve(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "trunkqbf.cli", *args],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )

        assert run("gen", "qparity", "3", "q").returncode == 0
        assert (tmp_path / "q.qdimacs").is_file() and (tmp_path / "q.btd").is_file()
        solved = run("solve", "q.qdimacs", "--td", "q.btd", "--trivial-poset")
        assert solved.returncode == 20
        assert solved.stdout == "s cnf 0\n"


# Runs in a fresh interpreter: imports the CLI, writes qparity(3) with
# ``gen``, solves it without and with a trace, and prints the exit codes
# and three space-separated module lists.  ``gen`` runs first because the
# first parser build imports ``locale`` (argparse's messages go through
# gettext), whatever the command.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import trunkqbf.cli as cli
imported = set(sys.modules)
gen_code = cli.main(["gen", "qparity", "3", "q"])
generated = set(sys.modules)
argv = ["solve", "q.qdimacs", "--td", "q.btd", "--trivial-poset"]
code = cli.main(argv)
solved = set(sys.modules)
traced_code = cli.main(argv + ["--trace", "t.jsonl"])
traced = set(sys.modules)
print(gen_code, code, traced_code)
unwanted = {"dataclasses", "inspect", "json", "pathlib", "trunkqbf.generators", "trunkqbf.oracle"}
print(" ".join(sorted((imported - before) & unwanted)))
print(" ".join(sorted(solved - generated)))
print(" ".join(sorted(traced - solved)))
"""


class TestImportCost:
    def test_solving_loads_nothing_beyond_the_import(self, tmp_path):
        """``import trunkqbf.cli`` loads none of ``dataclasses``,
        ``inspect``, ``json``, ``pathlib``, the generators and the oracle;
        a solve loads no further module, and a traced one only ``json``."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        codes, heavy, by_solve, by_trace = done.stdout.splitlines()[-4:]
        assert codes == "0 20 20"
        assert heavy == ""
        assert by_solve == ""
        assert by_trace.split() and all(
            name.lstrip("_").split(".")[0] == "json" for name in by_trace.split()
        )
