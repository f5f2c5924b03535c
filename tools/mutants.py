"""The mutation table: each entry breaks one rule of the engine on purpose
and names the tests that must fail on it.

    python3 tools/mutants.py

An entry is (name, file under ``src/trunkqbf``, exact source text,
replacement, test ids).  For every entry the script copies ``src`` into
a temporary directory, replaces the text there (it must occur exactly
once in the file) and runs pytest once per test id of the entry, with
the copy first on the import path.  A mutant is killed when every one of
its tests fails on it by itself (pytest exit status 1 for each run); a
run that passes makes it a survivor, and any other status, such as a
test id that is not found, is an error.  Prints one line per mutant and
exits 1 if a source text does not occur exactly once, a mutant survives
or a run errs or takes more than ``TIMEOUT`` seconds."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# Seconds one test of a mutant may take; a mutant that makes it hang is an
# error, not a kill.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    file: str
    original: str
    replacement: str
    tests: Tuple[str, ...]


BTD_LINES = "tests/test_formats.py::TestBtd::test_structural_errors_name_their_line"
DIAGNOSTICS = "tests/test_formats.py::test_line_diagnostics"
DERIVATION = "tests/test_derivation.py::"
STORE = "tests/test_untouched_store.py::"
ALIGNMENT = "tests/test_decomposition.py::"
ORACLE = STORE + "test_shuffled_paths_fire_r4_and_agree_with_the_oracle"
SNAPSHOT = "tests/test_trace_snapshot.py::test_traces_match_the_snapshot"
DISTINCT = DERIVATION + "TestOneKernelCallPerDistinctMatrix::"
R2_REFERENCE = STORE + "test_r2_matches_the_reference_matrix_by_matrix"
R3_REFERENCE = STORE + "test_r3_matches_the_reference_matrix_by_matrix"
MUTANTS = (
    # The BTD reader's error lines.
    Mutant(
        "btd-root-error-at-trunk-row",
        "formats.py",
        '"root": ("r", 0)',
        '"root": ("t", 0)',
        (BTD_LINES,),
    ),
    Mutant(
        "btd-edge-error-at-parent-token",
        "formats.py",
        '"edge": ("e", 2)',
        '"edge": ("e", 1)',
        (BTD_LINES,),
    ),
    # The readers' checks.
    Mutant(
        "clause-bound-admits-no-variable-at-the-count",
        "formats.py",
        "if max(used, default=0) > n_vars:",
        "if max(used, default=0) >= n_vars:",
        ("tests/test_formats.py::TestQdimacsParsing::test_minimal_instance",),
    ),
    Mutant(
        "clause-bound-below-minus-the-count-off-by-one",
        "formats.py",
        "if l > n_vars or -l > n_vars:",
        "if l > n_vars or -l > n_vars + 1:",
        (DIAGNOSTICS + "[literal below minus the count]",),
    ),
    Mutant(
        "clause-without-the-inner-zero-check",
        "formats.py",
        "if 0 in lits:",
        "if False:",
        (DIAGNOSTICS + "[0 inside a clause]",),
    ),
    Mutant(
        "leading-zero-at-a-line-start-unflagged",
        "formats.py",
        '_LEADING_ZERO = re.compile("0[0-9](?<![^ \\n-]0[0-9])")',
        '_LEADING_ZERO = re.compile("0[0-9](?<![^ -]0[0-9])")',
        (DIAGNOSTICS + "[leading zero at the start of a line]",),
    ),
    Mutant(
        "t1-covers-every-clause",
        "decomposition.py",
        "if lits <= cover.get(lit, _NOWHERE):",
        "if True:",
        (
            ALIGNMENT + "TestValidateNice::test_uncovered_edge_is_t1",
            ALIGNMENT + "TestT1PerClause::test_valid_and_mutated_decompositions",
        ),
    ),
    # The rules.
    Mutant(
        "r2-wrong-pivot",
        "derivation.py",
        "resolve(m, v, bucket)",
        "resolve(m, v + 1, _resolution(pulled, v + 1))",
        (
            DERIVATION + "TestStepDispatch::test_r2_resolves_in_every_set",
            DERIVATION + "TestGoldenQParity2::test_intermediate_families",
        ),
    ),
    Mutant(
        "r2-without-the-buckets-own-resolvents",
        "derivation.py",
        "bucket = _resolution(pulled, v)",
        "bucket = (*_resolution(pulled, v)[:2], [c for c in pulled if c.isdisjoint((v, -v))])",
        (R2_REFERENCE, SNAPSHOT),
    ),
    Mutant(
        "r2-without-bucket-positive-touched-negative-pairs",
        "derivation.py",
        "    _resolvents(out, bucket_positive, clashes, pivot)\n",
        "",
        (R2_REFERENCE, DERIVATION + "TestGoldenQParity2::test_intermediate_families"),
    ),
    Mutant(
        "r3-without-its-pull",
        "derivation.py",
        "reduce(m | pulled, v)",
        "reduce(m, v)",
        (R3_REFERENCE, ORACLE),
    ),
    Mutant(
        "r3-reduces-an-existential",
        "derivation.py",
        '"R3" if v in prefix.universal else "R2"',
        '"R3" if v in prefix.variables else "R2"',
        (DERIVATION + "TestStepDispatch::test_r2_resolves_in_every_set", ORACLE),
    ),
    Mutant(
        "r4-without-its-pull",
        "derivation.py",
        "                if pulled:\n"
        "                    pi = frozenset([Matrix._of(m | pulled) for m in pi])\n",
        "",
        (DERIVATION + "TestGoldenQParity2::test_verdict_false", ORACLE),
    ),
    Mutant(
        "r4-removes-dead-dependencies",
        "derivation.py",
        "frozenset([v, *live.intersection(poset.strict(v))])",
        "frozenset([v, *poset.strict(v)])",
        (DERIVATION + "TestRuleDecidedInValidation::test_the_plan_matches_a_live_set_reference",),
    ),
    Mutant(
        "r4-limit-names-its-largest-dependency",
        "derivation.py",
        'f"strategy extension up to {v} needs',
        'f"strategy extension up to {max(shape.order)} needs',
        (
            DERIVATION + "TestRunDerivation::"
            "test_branch_limit_names_the_r4_variable_not_its_largest_dependency",
        ),
    ),
    # One kernel call per distinct matrix per step.
    Mutant(
        "outcome-map-kept-across-steps",
        "derivation.py",
        "outcomes: Dict[Matrix, Family] = {}",
        "outcomes: Dict[Matrix, Family] = step.__dict__.setdefault('outcomes', {})",
        (
            DISTINCT + "test_an_r4_step_restricts_each_distinct_matrix_once_per_assignment",
            DISTINCT + "test_steps_match_the_per_occurrence_reference[shuffled paths]",
        ),
    ),
    Mutant(
        "empty-set-branches-into-nothing",
        "derivation.py",
        "return _NO_MATRIX if out is None else frozenset(out)",
        "return frozenset() if out is None else frozenset(out)",
        (
            DERIVATION + "TestStrategyExtension::test_an_empty_set_gives_the_one_empty_set",
            DERIVATION + "TestStrategyExtension::test_an_empty_set_builds_no_tables",
        ),
    ),
    # The limits.
    Mutant(
        "matrix-limit-off-by-one",
        "derivation.py",
        "if len(mapped) > limits.max_matrix_size:",
        "if len(mapped) >= limits.max_matrix_size:",
        (DERIVATION + "TestRunDerivation::test_a_matrix_as_large_as_the_limit_completes",),
    ),
    Mutant(
        "family-limit-off-by-one",
        "derivation.py",
        "if len(new_family) > limits.max_family_size:",
        "if len(new_family) >= limits.max_family_size:",
        (DERIVATION + "TestRunDerivation::test_a_family_as_large_as_the_limit_completes",),
    ),
    Mutant(
        "limits-without-the-integer-check",
        "derivation.py",
        "if any(type(n) is not int for n in values):",
        "if False:",
        ("tests/test_formulas.py::test_limits_and_budgets_accept_only_integers",),
    ),
    Mutant(
        "budget-without-the-integer-check",
        "oracle.py",
        "if type(max_variables) is not int:",
        "if False:",
        ("tests/test_formulas.py::test_limits_and_budgets_accept_only_integers",),
    ),
    Mutant(
        "budget-off-by-one",
        "oracle.py",
        "if n > max_variables:",
        "if n >= max_variables:",
        ("tests/test_cli.py::TestOracle::test_budget_flag",),
    ),
    Mutant(
        "tables-built-for-an-empty-set",
        "derivation.py",
        "tables = shape.tables() if most else ((), ())",
        "tables = shape.tables()",
        (DERIVATION + "TestStrategyExtension::test_an_empty_set_builds_no_tables",),
    ),
    Mutant(
        "assignments-without-reversed-order",
        "derivation.py",
        "for x in reversed(self.order)",
        "for x in self.order",
        (
            DERIVATION + "TestStrategyTable::"
            "test_assignment_n_sets_the_ith_dependency_to_bit_i_of_n",
            DERIVATION + "TestStrategyExtension::test_tables_read_each_existentials_own_universals",
        ),
    ),
    Mutant(
        "strategy-table-answer-bit-off-by-one",
        "derivation.py",
        "<< (n_universal + j)",
        "<< (n_universal + j + 1)",
        (
            DERIVATION + "TestStrategyTable::test_every_small_shape_matches_the_definition",
            DERIVATION + "TestStrategyExtension::test_tables_read_each_existentials_own_universals",
        ),
    ),
    Mutant(
        "no-family-deduplication",
        "derivation.py",
        "new_family = frozenset(new_sets)",
        "new_family = tuple(new_sets)",
        (DERIVATION + "TestStepDispatch::test_r2_resolves_in_every_set", SNAPSHOT),
    ),
    Mutant(
        "verdict-any-as-all",
        "derivation.py",
        "verdict = any(all(ground_truth(m) for m in pi)",
        "verdict = all(all(ground_truth(m) for m in pi)",
        (ORACLE, SNAPSHOT),
    ),
    Mutant(
        "store-check-without-tautology-test",
        "derivation.py",
        "if not lits or is_tautological(lits):",
        "if not lits:",
        (STORE + "test_the_store_rejects_clauses_that_cannot_be_untouched",),
    ),
    Mutant(
        "touched-part-early-return-inverted",
        "derivation.py",
        "if self.clauses.isdisjoint(m):",
        "if not self.clauses.isdisjoint(m):",
        (STORE + "test_a_derived_copy_of_an_untouched_clause_is_dropped", ORACLE),
    ),
    Mutant(
        "every-clause-in-bucket-0",
        "derivation.py",
        "pulled_at = {c: min(map(get, c, never)) if c else end for c in clauses}",
        "pulled_at = {c: 0 for c in clauses}",
        (STORE + "test_clauses_built_per_step_do_not_grow_with_n",),
    ),
    # The oracle.
    Mutant(
        "oracle-forall-as-exists",
        "oracle.py",
        "return low and rec(i + 1, restrict(matrix, {v}, {-v}))",
        "return low or rec(i + 1, restrict(matrix, {v}, {-v}))",
        (
            "tests/test_oracle.py::TestEvaluate::test_universal_unit_is_false",
            "tests/test_cli.py::TestAgreement::test_solver_and_oracle_exit_codes_match",
        ),
    ),
    Mutant(
        "extension-walk-ignores-the-poset",
        "oracle.py",
        "if poset.strict(v).isdisjoint(rest):",
        "if True:",
        (
            "tests/test_oracle.py::TestPosetProperty2::"
            "test_reordering_existential_before_universal_fails",
            "tests/test_oracle.py::TestLinearExtensions::"
            "test_the_walk_matches_the_filter_on_seeded_posets",
        ),
    ),
    # The generators.
    Mutant(
        "forget-event-keeps-its-variable",
        "generators.py",
        "else bag - {-event}",
        "else bag",
        (
            "tests/test_generators.py::TestQParityTd::test_n2_exact_bag_sequence",
            "tests/test_generators.py::TestQParityTd::test_btd_matches_the_bag_table_up_to_64",
        ),
    ),
    # Trunk alignment.
    Mutant(
        "reflexive-p1",
        "decomposition.py",
        "if u in strict.get(w, _NOWHERE):",
        "if u in strict.get(w, _NOWHERE) | {u}:",
        (
            ALIGNMENT + "TestTrunkAlignment::test_single_bag_satisfies_p1_everywhere",
            ALIGNMENT + "TestLinearP2::test_qparity",
        ),
    ),
)


def source_text(mutant: Mutant) -> str:
    """The file's text; raises ValueError unless the entry's source text
    occurs in it exactly once."""
    text = (ROOT / "src" / "trunkqbf" / mutant.file).read_text()
    count = text.count(mutant.original)
    if count != 1:
        raise ValueError(f"source text occurs {count} times in {mutant.file}")
    return text


def run(mutant: Mutant) -> str:
    """"killed", "survived by <test id>" or, for a run that errs, what
    went wrong."""
    try:
        text = source_text(mutant)
    except ValueError as exc:
        return str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutated = text.replace(mutant.original, mutant.replacement)
        (src / "trunkqbf" / mutant.file).write_text(mutated)
        # pyproject.toml puts the checkout's src on the path; -o points
        # pytest at the copy, and PYTHONPATH any subprocess a test starts.
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        command += ["-o", f"pythonpath={src}"]
        env = dict(os.environ, PYTHONPATH=str(src))
        for test in mutant.tests:
            try:
                result = subprocess.run(
                    [*command, test],
                    cwd=ROOT,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                return f"{test} timed out after {TIMEOUT} s"
            if result.returncode == 0:
                return f"survived by {test}"
            if result.returncode != 1:
                last = (result.stdout + result.stderr).strip().splitlines()[-1:]
                return f"{test}: pytest exited {result.returncode}: {' '.join(last)}"
    return "killed"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome}", flush=True)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
