"""The equal-trace check that engine changes run on both commits; a
signature change that breaks ``tools/trace_digest.py`` must fail here."""

import ast
from pathlib import Path

from trunkqbf import qparity, qparity_td, write_btd, write_qdimacs


def test_record_of_qparity2(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import trace_digest

    qdimacs, btd = tmp_path / "qparity-2.qdimacs", tmp_path / "qparity-2.btd"
    qdimacs.write_text(write_qdimacs(qparity(2)), encoding="utf-8")
    btd.write_text(write_btd(qparity_td(2)), encoding="utf-8")
    text = trace_digest.record(["solve", str(qdimacs), "--td", str(btd), "--trivial-poset"])
    outcome, steps, _, live = ast.literal_eval(text)
    assert outcome is False
    assert [rule for rule, *_ in steps] == ["R4", "R2", "R4", "R2", "R3"]
    assert live == ()
