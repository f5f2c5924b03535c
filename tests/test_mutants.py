"""The mutation table in ``tools/mutants.py``: every entry still names
source text that occurs once, and one mutant runs as the full table runs
each; the whole table is its own CI job."""

from pathlib import Path

import pytest


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import mutants

    return mutants


def test_every_source_text_occurs_once(mutants):
    for mutant in mutants.MUTANTS:
        mutants.source_text(mutant)
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_one_mutant_is_killed(mutants):
    (mutant,) = [m for m in mutants.MUTANTS if m.name == "btd-edge-error-at-parent-token"]
    assert mutants.run(mutant) == "killed"
