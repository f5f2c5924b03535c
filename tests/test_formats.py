import hashlib
import json
import random
from pathlib import Path

import pytest

from trunkqbf import formats, posets
from trunkqbf import (
    Matrix,
    ParseError,
    Prefix,
    QbfInstance,
    TraceEvent,
    is_tautological,
    matrix_of,
    parse_btd,
    parse_poset,
    parse_qdimacs,
    poset_from_pairs,
    qparity,
    qparity_td,
    random_instance,
    run_derivation,
    single_bag_td,
    trivial_poset,
    write_btd,
    write_poset,
    write_qdimacs,
    write_trace,
)
from trunkqbf.cli import main


class TestQdimacsParsing:
    def test_minimal_instance(self):
        q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 0\n")
        assert q == QbfInstance(Prefix((("e", (1,)),)), matrix_of((1,)))

    def test_comments_and_blank_lines(self):
        q = parse_qdimacs("c hello\n\np cnf 2 1\nc mid\na 1 2 0\n1 -2 0\n")
        assert q.prefix.blocks == (("a", (1, 2)),)

    def test_adjacent_same_quantifier_lines_merge(self):
        q = parse_qdimacs("p cnf 3 0\ne 1 0\ne 2 0\na 3 0\n")
        assert q.prefix.blocks == (("e", (1, 2)), ("a", (3,)))

    def test_free_variables_become_outermost_existentials(self):
        q = parse_qdimacs("p cnf 2 1\na 1 0\n1 2 0\n")
        assert q.prefix.blocks == (("e", (2,)), ("a", (1,)))

    def test_duplicate_literals_collapse(self):
        q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 1 0\n")
        assert q.matrix == matrix_of((1,))

    def test_tautological_clause_retained(self):
        q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 -1 0\n")
        assert len(q.matrix.clauses) == 1
        assert is_tautological(q.matrix.clauses[0])

    def test_one_parse_scans_the_matrix_variables_once(self, monkeypatch):
        # The parser binds the free variables from one scan and builds the
        # instance through the trusted constructor, which does not scan again.
        calls = []
        real = Matrix.variables

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(Matrix, "variables", counted)
        for text in (write_qdimacs(qparity(5)), "p cnf 3 2\na 1 0\n1 2 0\n-3 0\n"):
            calls.clear()
            q = parse_qdimacs(text)
            assert len(calls) == 1
            assert q == QbfInstance(q.prefix, q.matrix)

    def test_the_public_constructor_still_rejects_free_variables(self):
        with pytest.raises(ValueError, match="not quantified"):
            QbfInstance(Prefix((("e", (1,)),)), matrix_of((1, 2)))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p cnf x 1\ne 1 0\n1 0\n", 1),               # malformed header
            ("p cnf 1 1\ne 1 0\n2 0\n", 3),               # variable out of range
            ("p cnf 1 1\ne 1 0\n1\n", 3),                 # missing clause terminator
            ("p cnf 2 0\ne 1 2\n", 2),                    # missing quantifier terminator
            ("p cnf 2 0\ne 1 0\na 1 0\n", 3),             # quantified twice
            ("e 1 0\n", 1),                               # content before header
            ("p cnf 1 2\ne 1 0\n1 0\n", 1),               # clause count mismatch
            ("p cnf 2 0\ne 3 0\n", 2),                    # quantified var out of range
            ("p cnf -1 0\n", 1),                          # negative header count
        ],
    )
    def test_rejections_name_the_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_qdimacs(text)
        assert info.value.line == line
        assert f"line {line}:" in str(info.value)


class TestQdimacsWriting:
    def test_round_trip_of_generated_instances(self):
        for n in range(2, 6):
            q = qparity(n)
            assert parse_qdimacs(write_qdimacs(q)) == q

    def test_round_trip_of_random_instances(self):
        for seed in range(60):
            q = random_instance(seed, 2 + seed % 9, seed % 12, 1 + seed % 3, 1 + seed % 4)
            assert parse_qdimacs(write_qdimacs(q)) == q

    def test_empty_matrix(self):
        q = QbfInstance(Prefix((("e", (1, 2)),)), Matrix(()))
        text = write_qdimacs(q)
        assert text.startswith("p cnf 2 0\n")
        assert parse_qdimacs(text) == q

    def test_empty_clause_round_trips(self):
        q = QbfInstance(Prefix((("e", (1,)),)), matrix_of(()))
        assert parse_qdimacs(write_qdimacs(q)) == q

    def test_byte_deterministic(self):
        a = write_qdimacs(qparity(3))
        b = write_qdimacs(qparity(3))
        assert a == b
        assert a == write_qdimacs(parse_qdimacs(a))
        assert a.endswith("\n") and "\r" not in a


class TestBtd:
    def test_round_trip(self):
        for make in (lambda: qparity_td(2), lambda: qparity_td(5), lambda: single_bag_td(qparity(3))):
            td = make()
            assert parse_btd(write_btd(td)) == td

    def test_byte_deterministic(self):
        text = write_btd(qparity_td(4))
        assert text == write_btd(parse_btd(text))

    def test_single_node(self):
        from trunkqbf import TrunkTreeDecomposition

        td = TrunkTreeDecomposition({1: ()}, {}, 1, (1,))
        assert parse_btd(write_btd(td)) == td

    def test_a_repeated_bag_variable_counts_once(self):
        td = parse_btd("s btd 3 1 1\nb 1\nb 2 1 1\nb 3\ne 2 1\ne 3 2\nr 3\nt 1 2 3\n")
        assert td.bag(2) == frozenset({1})

    def test_sparse_node_ids_round_trip(self):
        from trunkqbf import TrunkTreeDecomposition

        td = TrunkTreeDecomposition({2: (), 5: (1,), 9: ()}, {2: 5, 5: 9}, 9, (2, 5, 9))
        assert parse_btd(write_btd(td)) == td

    @pytest.mark.parametrize(
        "text,fragment",
        [
            # trunk t 3 1 skips node 2 on the path
            ("s btd 3 0 0\nb 1\nb 2\nb 3\ne 2 1\ne 3 2\nr 3\nt 3 1\n", "trunk"),
            ("s btd 2 0 0\nb 1\nb 1\ne 2 1\nr 2\nt 1 2\n", "duplicate node"),
            ("s btd 3 0 0\nb 1\nb 2\nb 3\ne 1 2\ne 2 1\nr 3\nt 3\n", "cycle"),
            ("s btd 2 1 2\nb 1\nb 2 1 2\ne 2 1\nr 2\nt 1 2\n", "header allows"),
            ("s btd 2 0 0\nb 1\nb 2\ne 2 1\nr 2\n", "missing trunk"),
            ("s btd 3 0 0\nb 1\nb 2\nb 3\ne 3 1\ne 2 1\nr 3\nt 2 3\n", "two parents"),
            ("b 1\n", "before 's btd' header"),
            ("s btd 2 0 0\nb 1\nb 2\nr 2\nt 1 2\n", "no parent"),
            ("s btd 1 -1 2\nb 1\nr 1\nt 1\n", "header counts must be non-negative"),
            ("s btd -1 0 0\n", "header counts must be non-negative"),
            ("s btd 1 0 -2\nb 1\nr 1\nt 1\n", "header counts must be non-negative"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError) as info:
            parse_btd(text)
        assert fragment in str(info.value)

    def test_self_edge_fails_at_its_line(self):
        text = "s btd 3 0 0\nb 1\nb 2\nb 3\ne 2 1\ne 3 3\nr 3\nt 1 2 3\n"
        with pytest.raises(ParseError) as info:
            parse_btd(text)
        assert info.value.line == 6
        assert str(info.value) == "line 6: node 3 is its own parent"

    def test_multiple_roots_rejected(self):
        text = "s btd 3 0 0\nb 1\nb 2\nb 3\ne 3 1\ne 3 2\nr 1\nt 2 3\n"
        with pytest.raises(ParseError) as info:
            parse_btd(text)
        assert "root" in str(info.value)

    # The lines after the header and three bag lines: a text's edge,
    # root and trunk lines, which start at line 5.
    @pytest.mark.parametrize(
        "rest,line,message",
        [
            ("e 1 2\ne 2 1\nr 3\nt 3", 6, "cycle through node 1"),
            ("e 3 2\nr 3\nt 2 3", 2, "node 1 is disconnected (no parent)"),
            ("e 2 1\ne 9 2\nr 3\nt 1 2 3", 6, "edge mentions unknown node 9"),
            ("e 2 1\ne 3 2\nr 9\nt 1 2 3", 7, "unknown root node 9"),
            ("e 2 1\ne 3 2\nr 2\nt 1 2", 7, "root 2 has a parent (multiple roots)"),
            ("e 2 1\ne 3 2\nr 3\nt 1 9 3", 8, "trunk mentions unknown node 9"),
            ("e 2 1\ne 3 2\nr 3\nt 1 2", 8, "trunk must end at the root"),
            ("e 2 1\ne 3 2\nr 3\nt 2 3", 8, "trunk start 2 is not a leaf"),
            ("e 2 1\ne 3 2\nr 3\nt 1 3", 8, "trunk nodes 1 and 3 are not child and parent"),
            # An unknown node on or before an edge that gives its child a
            # second parent is named first.
            ("e 2 1\ne 9 1\nr 3\nt 1 2 3", 6, "edge mentions unknown node 9"),
            ("e 9 3\ne 2 1\ne 3 1\nr 3\nt 1 2 3", 5, "edge mentions unknown node 9"),
            ("e 2 1\ne 3 1\ne 9 3\nr 3\nt 1 2 3", 6, "node 1 has two parents"),
            # A second bag of a node names the line of the first.
            ("b 2\ne 2 1\ne 3 2\nr 3\nt 1 2 3", 5, "duplicate node 2 (bag already on line 3)"),
        ],
    )
    def test_structural_errors_name_their_line(self, rest, line, message):
        with pytest.raises(ParseError) as info:
            parse_btd(f"s btd 3 0 0\nb 1\nb 2\nb 3\n{rest}\n")
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"


# "s btd 1 0 0\nb 1\nr 1\nt 1" is a valid one-node decomposition; each
# text below breaks one line of it or of a QDIMACS instance.
@pytest.mark.parametrize(
    "parse,text,message",
    [
        (
            parse_qdimacs,
            "p cnf 2 1\n1 2 0\ne 1 0",
            "line 3: quantifier line after the first clause",
        ),
        (parse_qdimacs, "p cnf 2 1\ne 0\n1 2 0", "line 2: empty quantifier line"),
        (parse_btd, "s btd 1 0 0\nb\nr 1\nt 1", "line 2: bag line needs a node id"),
        (
            parse_btd,
            "s btd 1 0 0\nb 1\ne 1\nr 1\nt 1",
            "line 3: edge line must be 'e <parent> <child>'",
        ),
        (parse_btd, "s btd 1 0 0\nb 1\nr 1\nr 1\nt 1", "line 4: duplicate root line"),
        (parse_btd, "s btd 1 0 0\nb 1\nr 1 2\nt 1", "line 3: root line must be 'r <node>'"),
        (parse_btd, "s btd 1 0 0\nb 1\nr 1\nt 1\nt 1", "line 5: duplicate trunk line"),
        (parse_btd, "s btd 1 0 0\nb 1\nr 1\nt", "line 4: empty trunk line"),
        (parse_btd, "s btd 1 0 0\nb 1\nt 1", "line 1: missing root line"),
        (parse_btd, "s btd 1 0 0\nb 1\nr 1", "line 1: missing trunk line"),
        # The "+" in the comment puts the text on the checked path of `_checked`.
        pytest.param(
            parse_qdimacs,
            "c a+b\np cnf 2 1\ne 1 0\n-" + "1" * 5000 + " 2 0",
            "line 4: literal has more than 4300 digits",
            id="literal of 5000 digits",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 0\np cnf 2 1\n1 2 0",
            "line 3: duplicate header",
            id="qdimacs duplicate header",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 0 0\nb 1\ns btd 1 0 0\nr 1\nt 1",
            "line 3: duplicate header",
            id="btd duplicate header",
        ),
        pytest.param(
            lambda text: parse_poset(text, Prefix((("e", (1,)), ("a", (2,))))),
            "p dep 2\nd 1 2\np dep 2",
            "line 3: duplicate header",
            id="poset duplicate header",
        ),
        pytest.param(
            parse_qdimacs,
            "c only\n\nc comments",
            "line 1: missing 'p cnf' header",
            id="comments only",
        ),
        pytest.param(
            parse_btd,
            "b 1\ns btd 1 0 0\nr 1\nt 1",
            "line 1: content before 's btd' header",
            id="btd content before header",
        ),
        # A tab puts the text on the checked path of `_checked`.
        pytest.param(
            parse_btd,
            "s btd 1 0 0\nb 1\nr\t1\nt 1",
            "line 3: '\\t' is neither a space nor printable",
            id="tab in a btd row",
        ),
        pytest.param(
            lambda text: parse_poset(text, Prefix((("e", (1,)), ("a", (2,))))),
            "p dep 2\nd 1\t2",
            "line 2: '\\t' is neither a space nor printable",
            id="tab in a poset row",
        ),
        # Each check of a clause, quantifier or bag line, on a text where
        # it is the first to fail.  The clause literals are bounded once,
        # after the last line, so an earlier line out of range must still
        # be reported before a later line's error and the clause count.
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 2 0\n1 3 0",
            "line 3: variable 3 out of range 1..2",
            id="literal above the count",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 2 0\n1 -3 0",
            "line 3: variable 3 out of range 1..2",
            id="literal below minus the count",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 3 1\ne 1 2 3 0\n1 -5 4 0",
            "line 3: variable 5 out of range 1..3",
            id="first literal out of range on its line",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 2\ne 1 2 0\n-3 1 0\n1 x 0",
            "line 3: variable 3 out of range 1..2",
            id="literal out of range before a later bad line",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 2\ne 1 2 0\n1 3 0",
            "line 3: variable 3 out of range 1..2",
            id="literal out of range before the clause count",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 2 0\n3 0 1 0",
            "line 3: literal 0 inside a clause",
            id="0 inside a clause",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 2 0\n1 3",
            "line 3: clause line must end with 0",
            id="clause without its final 0",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 1\ne 1 2 0\n1 x 0",
            "line 3: expected an integer literal, got 'x'",
            id="clause token that is no integer",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 10 1\ne 10 0\n010 0",
            "line 3: expected an integer literal, got '010'",
            id="leading zero at the start of a line",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf x 1",
            "line 1: expected an integer variable count, got 'x'",
            id="header count that is no integer",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 0\ne 3 0",
            "line 2: variable 3 out of range 1..2",
            id="quantified above the count",
        ),
        pytest.param(
            parse_qdimacs,
            "p cnf 2 0\ne 1 0\na 1 0",
            "line 3: variable 1 already quantified on line 2",
            id="quantified twice",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 1 1\nb 1 x\nr 1\nt 1",
            "line 2: expected an integer variable, got 'x'",
            id="bag variable that is no integer",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 0 0\nb x\nr 1\nt 1",
            "line 2: expected an integer node id, got 'x'",
            id="node id that is no integer",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 0 0\nb 1\nb 1\nr 1\nt 1",
            "line 3: duplicate node 1 (bag already on line 2)",
            id="duplicate node",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 1 2\nb 1 1 2\nr 1\nt 1",
            "line 2: bag of node 1 has 2 variables, header allows 1",
            id="oversized bag",
        ),
        pytest.param(
            parse_btd,
            "s btd 1 1 2\nb 1 3 1\nr 1\nt 1",
            "line 2: variable 3 out of range 1..2",
            id="bag variable out of range before its size",
        ),
    ],
)
def test_line_diagnostics(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    assert message.startswith(f"line {info.value.line}: ")


# SHA-256, per benchmark corpus, over write_qdimacs(parse_qdimacs(text))
# and write_btd(parse_btd(text)) of every seed-0 input file in corpus
# order, as the line-by-line readers of commit 7c6b8dd returned them.
CORPUS_DIGESTS = {
    "qparity-ladder": "ad65bbddc630a207705557c55ee9d8651e849238a7e6b71471b489506ef506ef",
    "random-single-bag": "b942488b9f4475b95dc8f5a3be3d1a114b350ce5c7d36e6fa52c61d29ddb45ad",
    "r4-shuffled": "59bd0f4f858679cf31ecd32e2ba1701e4328143c0e11768bf9371c2772aa2b3c",
}


def test_the_benchmark_corpora_parse_to_the_recorded_bytes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    # The builders' texts are kept in memory as ``workloads._write`` would
    # write them, and their oracle verdicts are skipped: writing about
    # 7800 files and judging every instance took most of the test's time.
    texts = []

    def keep(work, ident, instance, td, extra=()):
        texts.append((write_qdimacs(instance), write_btd(td)))
        return ()

    monkeypatch.setattr(workloads, "_write", keep)
    monkeypatch.setattr(workloads, "evaluate", lambda instance: None)
    assert set(workloads.WORKLOADS) == set(CORPUS_DIGESTS)
    for name, workload in workloads.WORKLOADS.items():
        texts.clear()
        workload.build(0, tmp_path)
        digest = hashlib.sha256()
        for qdimacs, btd in texts:
            digest.update(write_qdimacs(parse_qdimacs(qdimacs)).encode())
            digest.update(write_btd(parse_btd(btd)).encode())
        assert digest.hexdigest() == CORPUS_DIGESTS[name], name


class TestPosetFiles:
    def test_zero_generators_is_the_identity_relation(self):
        prefix = qparity(2).prefix
        d = parse_poset("p dep 5\n", prefix)
        assert all(d.dep(v) == {v} for v in prefix.variables)
        assert d != trivial_poset(prefix)

    def test_single_pair(self):
        prefix = qparity(2).prefix
        d = parse_poset("p dep 5\nd 1 3\n", prefix)
        assert d.dep(3) == {1, 3}

    def test_prefix_inconsistent_pair_names_the_line(self):
        prefix = qparity(2).prefix
        with pytest.raises(ParseError) as info:
            parse_poset("p dep 5\nd 3 1\n", prefix)
        assert info.value.line == 2
        assert "prefix-consistent" in str(info.value)

    def test_round_trip_trivial_posets(self):
        for n in (2, 3, 4):
            prefix = qparity(n).prefix
            d = trivial_poset(prefix)
            got = parse_poset(write_poset(d), prefix)
            assert got == d
            # Like the trivial poset, one stored set per block.
            assert len({id(got.strict(v)) for v in prefix.variables}) <= len(prefix.blocks)

    def test_round_trip_sparse_poset(self):
        prefix = qparity(2).prefix
        d = poset_from_pairs(prefix, [(1, 3), (3, 4)])
        assert parse_poset(write_poset(d), prefix) == d

    def test_closure_then_write_is_idempotent(self):
        prefix = qparity(3).prefix
        d = poset_from_pairs(prefix, [(1, 4), (4, 5), (2, 4)])
        text = write_poset(d)
        assert write_poset(parse_poset(text, prefix)) == text

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p dep -3\n", 1),
            ("c negative count\np dep -1\nd 1 2\n", 2),
        ],
    )
    def test_negative_header_count_rejected(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_poset(text, qparity(2).prefix)
        assert info.value.line == line
        assert "header counts must be non-negative" in str(info.value)

    def test_unquantified_variable_rejected(self):
        prefix = Prefix((("e", (1, 2)),))
        with pytest.raises(ParseError):
            parse_poset("p dep 9\nd 1 9\n", prefix)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p dep 1\nd 1 5\n", 1),
            ("c short count\np dep 4\n", 2),
            ("p dep 0\n", 1),
        ],
    )
    def test_header_count_below_the_largest_variable_rejected(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_poset(text, qparity(2).prefix)
        assert info.value.line == line
        assert "header count" in str(info.value) and "below variable 5" in str(info.value)

    @pytest.mark.parametrize("pair", ["0 3", "-1 3", "1 6", "1 99"])
    def test_pair_outside_the_prefix_names_the_variable(self, pair):
        with pytest.raises(ParseError) as info:
            parse_poset(f"p dep 99\nd {pair}\n", qparity(2).prefix)
        assert info.value.line == 2
        assert "is not quantified" in str(info.value)

    def test_each_pair_is_checked_once(self, monkeypatch):
        # The loader checks each pair at its line and closes the checked
        # pairs directly, without poset_from_pairs checking them again.
        prefix = qparity(4).prefix
        text = write_poset(trivial_poset(prefix))
        assert text.count("\nd ") == 24
        calls = []
        real = posets.check_pair

        def counted(*args):
            calls.append(args[1:])
            real(*args)

        monkeypatch.setattr(formats, "check_pair", counted)
        monkeypatch.setattr(posets, "check_pair", counted)
        assert parse_poset(text, prefix) == trivial_poset(prefix)
        assert sorted(calls) == list(trivial_poset(prefix).strict_pairs())

    def test_header_count_above_the_largest_variable_is_accepted(self):
        prefix = qparity(2).prefix
        assert parse_poset("p dep 9\nd 1 3\n", prefix) == parse_poset("p dep 5\nd 1 3\n", prefix)


def mutate_token(text, index, replacement):
    tokens_seen = 0
    out_lines = []
    for line in text.splitlines():
        if line.startswith("c"):
            out_lines.append(line)
            continue
        tokens = line.split()
        for i in range(len(tokens)):
            if tokens_seen == index:
                tokens[i] = replacement
            tokens_seen += 1
        out_lines.append(" ".join(tokens))
    return "\n".join(out_lines) + "\n", tokens_seen


class TestSingleTokenCorruptions:
    """Replacing any one token with junk must be rejected with a
    diagnostic that names a line."""

    def _count_tokens(self, text):
        return sum(len(l.split()) for l in text.splitlines() if not l.startswith("c"))

    def test_qdimacs_rejects_junk_in_every_position(self):
        text = write_qdimacs(qparity(2))
        total = self._count_tokens(text)
        for index in range(total):
            corrupted, _ = mutate_token(text, index, "x")
            with pytest.raises(ParseError) as info:
                parse_qdimacs(corrupted)
            assert info.value.line >= 1

    def test_btd_rejects_junk_in_every_position(self):
        text = write_btd(qparity_td(2))
        total = self._count_tokens(text)
        for index in range(total):
            corrupted, _ = mutate_token(text, index, "x")
            with pytest.raises(ParseError) as info:
                parse_btd(corrupted)
            assert info.value.line >= 1

    def test_poset_rejects_junk_in_every_position(self):
        prefix = qparity(2).prefix
        text = write_poset(trivial_poset(prefix))
        total = self._count_tokens(text)
        for index in range(total):
            corrupted, _ = mutate_token(text, index, "x")
            with pytest.raises(ParseError) as info:
                parse_poset(corrupted, prefix)
            assert info.value.line >= 1

    def test_numeric_corruptions_are_caught(self):
        text = write_qdimacs(qparity(2))
        header_nvars_down, _ = mutate_token(text, 2, "1")
        with pytest.raises(ParseError):
            parse_qdimacs(header_nvars_down)
        header_count_up, _ = mutate_token(text, 3, "9")
        with pytest.raises(ParseError):
            parse_qdimacs(header_count_up)
        td_text = write_btd(qparity_td(2))
        bad_node, _ = mutate_token(td_text, 2, "999")
        with pytest.raises(ParseError):
            parse_btd(bad_node)


# Spellings that int() reads as 10 but the grammar's integers exclude.
NOT_INTEGERS = {
    "underscore": "1_0",
    "fullwidth": "\uff11\uff10",
    "plus": "+10",
    "leading zero": "010",
}


def _with_token(token):
    """(parse, text, line of the token) for each format, the token standing
    for variable 10 at a place where 10 is valid."""
    prefix = Prefix((("e", tuple(range(1, 10))), ("a", (10,))))
    return [
        (parse_qdimacs, f"c \uff11 +3 007\np cnf 10 1\ne 10 0\n{token} 0\n", 4),
        (parse_btd, f"s btd 1 1 10\nb 1 {token}\nr 1\nt 1\n", 2),
        (lambda text: parse_poset(text, prefix), f"p dep 10\nd 1 {token}\n", 2),
    ]


class TestIntegerTokens:
    def test_canonical_spelling_parses(self):
        for parse, text, _ in _with_token("10"):
            parse(text)

    @pytest.mark.parametrize("token", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_other_spellings_are_rejected_at_their_line(self, token):
        for parse, text, line in _with_token(token):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.line == line
            assert "expected an integer" in str(info.value)
            assert str(info.value).endswith(f"got {token!r}")

    @pytest.mark.parametrize(
        "text", ["p cnf 007 0\n", "p cnf 1 1\n1 -0\n", "p cnf 2 1\ne 1 2 0\n1_0 0\n"]
    )
    def test_qdimacs_header_and_terminator_spellings(self, text):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_qdimacs(text)


# One valid text per format, as its content lines; the last line has at
# least two tokens.
_PREFIX = Prefix((("e", (1, 2)), ("a", (3,))))
FORMATS = {
    "qdimacs": (parse_qdimacs, ["p cnf 3 2", "e 1 2 0", "a 3 0", "2 0", "1 -3 0"]),
    "btd": (
        parse_btd,
        ["s btd 3 1 1", "b 1", "b 2 1", "b 3", "e 2 1", "e 3 2", "r 3", "t 1 2 3"],
    ),
    "poset": (lambda text: parse_poset(text, _PREFIX), ["p dep 3", "d 1 3", "d 2 3"]),
}
# Whitespace that str.split() and int() accept but the grammar does not.
NOT_SPACES = {
    "tab": "\t",
    "no-break space": "\u00a0",
    "ideographic space": "\u3000",
    "file separator": "\x1c",
}
# Line breaks of str.splitlines() that do not end a line of the grammar.
NOT_LINE_BREAKS = {"line separator": "\u2028", "form feed": "\x0c", "next line": "\x85"}


class TestWhitespace:
    @pytest.mark.parametrize("space", NOT_SPACES.values(), ids=NOT_SPACES.keys())
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_other_whitespace_between_tokens_is_rejected(self, fmt, space):
        parse, lines = FORMATS[fmt]
        bad = lines[:-1] + [lines[-1].replace(" ", space, 1)]
        with pytest.raises(ParseError) as info:
            parse("\n".join(bad) + "\n")
        assert info.value.line == len(lines)
        assert repr(space) in str(info.value)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_line_numbers_count_newlines_only(self, fmt):
        parse, lines = FORMATS[fmt]
        bad = ["c one\u2028two\x0cthree\x85four"] + lines[:-1] + [lines[-1].replace(" ", "\t")]
        with pytest.raises(ParseError) as info:
            parse("\n".join(bad) + "\n")
        assert info.value.line == len(lines) + 1

    @pytest.mark.parametrize("brk", NOT_LINE_BREAKS.values(), ids=NOT_LINE_BREAKS.keys())
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_comment_with_a_line_break_is_skipped_whole(self, fmt, brk):
        parse, lines = FORMATS[fmt]
        expected = parse("\n".join(lines) + "\n")
        commented = lines[:2] + [f"c note{brk}more {brk}1 2 0"] + lines[2:]
        assert parse("\n".join(commented) + "\n") == expected

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_crlf_and_spaces_at_either_end_parse(self, fmt):
        parse, lines = FORMATS[fmt]
        expected = parse("\n".join(lines) + "\n")
        assert parse("\r\n".join(lines) + "\r\n") == expected
        assert parse("\n".join(f"  {line} " for line in lines)) == expected

    # Each format's second line is wrong on its own; a tab line or a
    # second header after it is reported only once the reader reaches it.
    @pytest.mark.parametrize(
        "fmt,wrong,message",
        [
            pytest.param("qdimacs", "e 9 0", "variable 9 out of range 1..3", id="qdimacs"),
            pytest.param("btd", "b 0", "node ids are 1-based, got 0", id="btd"),
            pytest.param(
                "poset",
                "d 3 1",
                "pair (3, 1) is not prefix-consistent: 3 is not quantified strictly left of 1",
                id="poset",
            ),
        ],
    )
    def test_a_later_bad_line_does_not_hide_an_earlier_error(self, fmt, wrong, message):
        parse, lines = FORMATS[fmt]
        for later in (lines[-1].replace(" ", "\t"), lines[0]):
            with pytest.raises(ParseError) as info:
                parse("\n".join([lines[0], wrong, later]) + "\n")
            assert str(info.value) == f"line 2: {message}"


# Integer spellings, valid and not, and separators, valid and not, from
# which the differential test builds its texts.
DIFF_TOKENS = ["1", "10", "-3", "0", "007", "+3", "1_0", "-0", "\uff11"]
DIFF_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x1c", "\u3000"]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.line, str(exc))


def _mutated(rng, lines):
    """The lines with each number token, with probability 1/8, and each
    separator, with probability 1/16, drawn from the lists above."""
    out = []
    for line in lines:
        tokens = [
            rng.choice(DIFF_TOKENS) if t.lstrip("-").isdigit() and rng.random() < 0.125 else t
            for t in line.split(" ")
        ]
        seps = [rng.choice(DIFF_SEPARATORS) if rng.random() < 0.0625 else " " for _ in tokens]
        out.append("".join(t + s for t, s in zip(tokens, seps)).rstrip(" "))
    return "\n".join(out) + "\n"


class TestFastPath:
    """Reading a text with ``int()`` and ``str.split()`` alone, when the
    whole-text test allows it, gives what the checked path gives."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_fast_path_agrees_with_the_checked_path(self, fmt, monkeypatch):
        parse, lines = FORMATS[fmt]
        rng = random.Random(fmt)
        texts = [_mutated(rng, lines) for _ in range(400)]
        fast = [_outcome(parse, text) for text in texts]
        monkeypatch.setattr(formats, "_checked", lambda text: True)
        checked = [_outcome(parse, text) for text in texts]
        for text, a, b in zip(texts, fast, checked):
            assert a == b, text
        assert sum(not isinstance(o, tuple) for o in fast) >= 20  # some parse


class TestTrace:
    def test_json_lines(self):
        events = [
            TraceEvent(1, 4, "R2", 2, 2, 1, 17),
            TraceEvent(2, 3, "R3", 2, 1, 1, 9),
        ]
        text = write_trace(events)
        lines = text.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "step": 1, "variable": 4, "rule": "R2",
            "family_before": 2, "family_after": 2, "max_set": 1, "micros": 17,
        }
        assert text.endswith('"max_set": 1, "micros": 9}\n')
        assert write_trace([]) == ""

    def test_writes_to_path(self, tmp_path):
        # The command line writes the text to the --trace file as it is.
        prefix = str(tmp_path / "q")
        assert main(["gen", "qparity", "2", prefix]) == 0
        path = tmp_path / "trace.jsonl"
        argv = ["solve", f"{prefix}.qdimacs", "--td", f"{prefix}.btd", "--trivial-poset"]
        assert main(argv + ["--trace", str(path)]) == 20
        text = path.read_text()
        assert json.loads(text.splitlines()[0])["rule"] == "R4"
        events = run_derivation(qparity(2), qparity_td(2), trivial_poset(qparity(2).prefix)).trace
        micros = [json.loads(line)["micros"] for line in text.splitlines()]
        assert text == write_trace([e._replace(micros=m) for e, m in zip(events, micros)])
