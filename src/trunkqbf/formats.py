"""Bit-exact parsing and serialization.

Four text formats:

* QDIMACS instances (``p cnf``, ``e``/``a`` quantifier lines, clauses).
* BTD decomposition files (``s btd`` header, ``b`` bag lines, ``e``
  parent-child edges, ``r`` root, ``t`` trunk path, all ids 1-based).
* Poset files (``p dep`` header, ``d u v`` generator pairs meaning u
  precedes v; the loader checks each pair against the prefix and takes
  the reflexive-transitive closure, which is a poset by construction).
* Trace output (one JSON object per line).

Writers emit canonical, byte-deterministic output with LF endings.
Each parser reads its text in one loop of its own once ``_read`` has
read the header: one ``split()`` and one ``map(int, ...)`` per line,
and ``_bad_token`` looks for the token to name only once that failed.
Parsers reject malformed input with a diagnostic naming the line.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, FrozenSet, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from .decomposition import DecompositionError, TrunkTreeDecomposition, _check_edges
from .formulas import EXISTS, FORALL, Matrix, Prefix, QbfInstance
from .posets import DependencyPoset, _closure, check_pair


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# An integer token as docs/formats.md spells it: ASCII digits without a
# leading zero, after an optional minus sign.
_INT_TOKEN = re.compile("-?[1-9][0-9]*|0")
# A "0" that starts a number of two or more digits: one after a space, a
# "-" or a line start.  The digit after it is matched first, so the "0"
# that ends each clause is passed over without a look back.
_LEADING_ZERO = re.compile("0[0-9](?<![^ \n-]0[0-9])")
# Printable ASCII and "\n", but for "+" and "_".
_PLAIN = bytes(b for b in range(32, 127) if b not in b"+_") + b"\n"


def _checked(text: str) -> bool:
    """Whether the text's lines and tokens must be checked one by one.

    ``str.split()`` also splits at tabs, "\\x1c" and all other whitespace,
    and ``int()`` also reads "+3", "1_0", "007", "-0" and non-ASCII
    digits.  A text, comments included, of printable ASCII and "\\n"
    alone, without "+", "_", "-0" or a leading zero, holds none of them,
    so ``str.split()`` and ``int()`` alone read it as the grammar does.
    The test is a few C-level passes over the whole text.
    """
    return not (
        text.isascii()
        and not text.encode().translate(None, _PLAIN)
        and "-0" not in text
        and _LEADING_ZERO.search(text) is None
    )


def _strict_int(token: str) -> int:
    """``int()`` for the tokens of a text that ``_checked`` flags: it
    raises ValueError unless the grammar spells the token as an integer."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(token)
    return int(token)


def _bad_token(line: int, tokens: List[str], what: Union[str, Tuple[str, ...]]) -> NoReturn:
    """Raise, while the ValueError of reading a line's tokens as integers
    is handled, the ParseError that names the first token the grammar
    does not spell as an integer or ``int()`` cannot convert.  ``what``
    names the tokens: one name for all, or one per token, the last one
    standing for the rest."""
    for i, token in enumerate(tokens):
        name = what if isinstance(what, str) else what[min(i, len(what) - 1)]
        if _INT_TOKEN.fullmatch(token) is None:
            raise ParseError(line, f"expected an integer {name}, got {token!r}") from None
        try:
            int(token)
        except ValueError:  # more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise ParseError(line, f"{name} has more than {limit} digits") from None
    raise


def _ints(line: int, tokens: List[str], what, to_int) -> List[int]:
    """The tokens of a line read by ``to_int``, else ``_bad_token``'s
    error; the clause, bag and edge lines read theirs inline."""
    try:
        return list(map(to_int, tokens))
    except ValueError:
        _bad_token(line, tokens, what)


def _plain_rows(rows: Iterable[Tuple[int, str]]) -> Iterator[Tuple[int, str]]:
    """The rows of a text that ``_checked`` flags; a content line with any
    character but printable ones and spaces raises when it is reached, so
    an earlier line's error is reported first."""
    for line_no, line in rows:
        row = line.strip()
        if row and row[0] != "c" and not row.isprintable():
            bad = next(ch for ch in row if not ch.isprintable())
            raise ParseError(line_no, f"{bad!r} is neither a space nor printable")
        yield line_no, line


def _read(text: str, header: str, counts: Tuple[str, ...]):
    """Read a text's first content line, its header: ``header`` and one
    count per name in ``counts``.

    Lines end at "\\n" only and are split at whitespace; blank lines and
    lines that start with "c" are skipped, here and by the parsers.
    Returns the counts, the header's line, the integer reader for the
    text's tokens (``int`` unless ``_checked`` flags the text) and the
    (number, line) pairs after the header, which the parser reads on.
    """
    checked = _checked(text)
    kind, word = header.split()
    rows = enumerate(text.split("\n"), 1)
    if checked:
        rows = _plain_rows(rows)
    for line_no, line in rows:
        tokens = line.split()
        if tokens and tokens[0][0] != "c":
            break
    else:
        raise ParseError(1, f"missing '{header}' header")
    if tokens[0] != kind:
        raise ParseError(line_no, f"content before '{header}' header")
    if len(tokens) != 2 + len(counts) or tokens[1] != word:
        raise ParseError(line_no, f"malformed header {line.strip()!r}")
    to_int = _strict_int if checked else int
    values = _ints(line_no, tokens[2:], counts, to_int)
    if min(values) < 0:
        raise ParseError(line_no, "header counts must be non-negative")
    return values, line_no, to_int, rows


def parse_qdimacs(text: str) -> QbfInstance:
    """Parse a QDIMACS instance.

    Adjacent same-quantifier lines merge into one block, duplicate
    literals inside a clause collapse and tautological clauses are kept
    (removing them is the engine's preprocessing step).  Variables that
    occur in clauses but in no quantifier line are bound existentially
    in a new outermost block.  Each literal is checked once, here: a
    clause line must end with 0 and hold no other, and one ``max`` over
    the matrix's variables bounds them all by the variable count.
    """
    (n_vars, n_clauses), header_line, to_int, rows = _read(
        text, "p cnf", ("variable count", "clause count")
    )
    blocks: List[Tuple[str, List[int]]] = []  # one per quantifier line
    quantified: Dict[int, int] = {}  # variable -> declaring line
    clauses: List[FrozenSet[int]] = []
    try:
        for line_no, line in rows:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] in (EXISTS, FORALL):
                if clauses:
                    raise ParseError(line_no, "quantifier line after the first clause")
                variables = _ints(line_no, tokens[1:], "variable", to_int)
                if not variables or variables.pop() != 0:
                    raise ParseError(line_no, "quantifier line must end with 0")
                if not variables:
                    raise ParseError(line_no, "empty quantifier line")
                for v in variables:
                    if v < 1 or v > n_vars:
                        raise ParseError(line_no, f"variable {v} out of range 1..{n_vars}")
                    if v in quantified:
                        message = f"variable {v} already quantified on line {quantified[v]}"
                        raise ParseError(line_no, message)
                    quantified[v] = line_no
                blocks.append((tokens[0], variables))
                continue
            try:
                *lits, end = map(to_int, tokens)
            except ValueError:
                if tokens[0][0] == "c":  # a comment line
                    continue
                if tokens[0] == "p":
                    raise ParseError(line_no, "duplicate header") from None
                _bad_token(line_no, tokens, "literal")
            if end != 0:
                raise ParseError(line_no, "clause line must end with 0")
            if 0 in lits:
                raise ParseError(line_no, "literal 0 inside a clause")
            clauses.append(frozenset(lits))
    except ParseError as exc:
        # A variable out of range on an earlier clause line comes first.
        raise _out_of_range(text, n_vars, exc.line) or exc
    matrix = Matrix._of(clauses)
    used = matrix.variables()
    if max(used, default=0) > n_vars:
        raise _out_of_range(text, n_vars)
    if len(clauses) != n_clauses:
        found = len(clauses)
        raise ParseError(header_line, f"header declares {n_clauses} clauses, file has {found}")
    # Prefix merges adjacent same-quantifier blocks and drops empty ones.
    free = used - quantified.keys()
    return QbfInstance._of(Prefix([(EXISTS, free), *blocks]), matrix)


def _out_of_range(text: str, n_vars: int, before: int = 0) -> Optional[ParseError]:
    """The error for the first clause line, before line ``before`` if it
    is given, with a variable above ``n_vars``, or None.  The lines before
    it were read without error, so a clause line is integers only."""
    lines = text.split("\n")[: before - 1] if before else text.split("\n")
    for line_no, tokens in enumerate(map(str.split, lines), 1):
        if tokens and tokens[0][0] in "-123456789":
            for l in map(int, tokens[:-1]):
                if l > n_vars or -l > n_vars:
                    return ParseError(line_no, f"variable {abs(l)} out of range 1..{n_vars}")
    return None


def write_qdimacs(instance: QbfInstance) -> str:
    """Canonical QDIMACS: header, quantifier lines in block order,
    clauses in canonical order, LF endings."""
    prefix, matrix = instance.prefix, instance.matrix
    lines = [f"p cnf {max(prefix.variables, default=0)} {len(matrix)}"]
    lines += (" ".join(map(str, [q, *block, 0])) for q, block in prefix.blocks)
    lines += (" ".join(map(str, [*clause.lits, 0])) for clause in matrix.clauses)
    return "\n".join(lines) + "\n"


def parse_btd(text: str) -> TrunkTreeDecomposition:
    """Parse a BTD decomposition file.

    Structural validation (tree shape, root consistency, trunk being a
    leaf-to-root path) is the ``TrunkTreeDecomposition`` constructor's,
    reported at the first row of the kind it names (``_line_of``); the
    niceness and alignment properties are separate validators.
    """
    (num_nodes, max_bag, num_vars), header_line, to_int, rows = _read(
        text, "s btd", ("node count", "max bag size", "variable count")
    )
    bags: Dict[int, FrozenSet[int]] = {}
    edges: List[Tuple[int, int, int]] = []  # (line, parent, child)
    root: Optional[int] = None
    trunk: Optional[Tuple[int, ...]] = None
    for line_no, line in rows:
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "b":
            if len(tokens) < 2:
                raise ParseError(line_no, "bag line needs a node id")
            try:
                node, *variables = map(to_int, tokens[1:])
            except ValueError:
                _bad_token(line_no, tokens[1:], ("node id", "variable"))
            if node < 1:
                raise ParseError(line_no, f"node ids are 1-based, got {node}")
            if node in bags:
                first = _line_of(text, "node", node)
                raise ParseError(line_no, f"duplicate node {node} (bag already on line {first})")
            for v in variables:
                if v < 1 or v > num_vars:
                    raise ParseError(line_no, f"variable {v} out of range 1..{num_vars}")
            bag = bags[node] = frozenset(variables)
            if len(bag) > max_bag:
                message = f"bag of node {node} has {len(bag)} variables, header allows {max_bag}"
                raise ParseError(line_no, message)
        elif kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "edge line must be 'e <parent> <child>'")
            try:
                parent, child = to_int(tokens[1]), to_int(tokens[2])
            except ValueError:
                _bad_token(line_no, tokens[1:], "node id")
            if parent == child:
                raise ParseError(line_no, f"node {child} is its own parent")
            edges.append((line_no, parent, child))
        elif kind == "r":
            if root is not None:
                raise ParseError(line_no, "duplicate root line")
            if len(tokens) != 2:
                raise ParseError(line_no, "root line must be 'r <node>'")
            (root,) = _ints(line_no, tokens[1:], "node id", to_int)
        elif kind == "t":
            if trunk is not None:
                raise ParseError(line_no, "duplicate trunk line")
            trunk = tuple(_ints(line_no, tokens[1:], "node id", to_int))
            if not trunk:
                raise ParseError(line_no, "empty trunk line")
        elif kind == "s":
            raise ParseError(line_no, "duplicate header")
        elif kind[0] != "c":  # not a comment line
            raise ParseError(line_no, f"unknown line kind {kind!r}")

    if len(bags) != num_nodes:
        found = f"file has {len(bags)} bag lines"
        raise ParseError(header_line, f"header declares {num_nodes} nodes, {found}")
    if root is None:
        raise ParseError(header_line, "missing root line")
    if trunk is None:
        raise ParseError(header_line, "missing trunk line")
    parent_map: Dict[int, int] = {}
    at = 0  # the line of an error on the edge being read, else 0
    try:
        for line_no, parent, child in edges:
            if child in parent_map:
                # An unknown node on an earlier edge, then on this one,
                # is reported before the second parent.
                _check_edges(bags, parent_map)
                at = line_no
                _check_edges(bags, {child: parent})
                raise ParseError(line_no, f"node {child} has two parents")
            parent_map[child] = parent
        return TrunkTreeDecomposition(bags, parent_map, root, trunk)
    except DecompositionError as exc:
        raise ParseError(at or _line_of(text, *exc.subject), str(exc)) from exc


# The row kind of each ``DecompositionError`` subject and the position of
# the node's token in such a row, 0 for a subject without a node.
_SUBJECT_ROWS = {"node": ("b", 1), "edge": ("e", 2), "root": ("r", 0), "trunk": ("t", 0)}


def _line_of(text: str, subject: str, node: int = 0) -> int:
    """The line of a BTD text's first row about the subject: a node's bag,
    the edge into a node, the root or the trunk.  Only error paths call
    it, so no line is recorded while the text is read."""
    kind, at = _SUBJECT_ROWS[subject]
    rows = enumerate(map(str.split, text.split("\n")), 1)
    return next(n for n, t in rows if t and t[0] == kind and (not at or int(t[at]) == node))


def write_btd(td: TrunkTreeDecomposition) -> str:
    nodes = td.nodes
    max_bag = max(len(td.bag(t)) for t in nodes)
    lines = [f"s btd {len(nodes)} {max_bag} {max(td.bag_variables(), default=0)}"]
    lines += (" ".join(map(str, ["b", t, *sorted(td.bag(t))])) for t in nodes)
    lines += (f"e {td.parent_of(t)} {t}" for t in nodes if td.parent_of(t) is not None)
    lines += (f"r {td.root}", " ".join(map(str, ["t", *td.trunk])))
    return "\n".join(lines) + "\n"


def parse_poset(text: str, prefix: Prefix) -> DependencyPoset:
    """Parse generator pairs, check each once, at its line, against the
    prefix (``posets.check_pair``) and close them reflexively-transitively.

    A file with zero ``d`` lines yields the identity relation, which is
    not the trivial (full prefix order) poset.
    """
    (header_vars,), header_line, to_int, rows = _read(text, "p dep", ("variable count",))
    largest = max(prefix.variables, default=0)
    if header_vars < largest:
        raise ParseError(header_line, f"header count {header_vars} is below variable {largest}")
    pairs: List[Tuple[int, int]] = []
    for line_no, line in rows:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "d" or len(tokens) != 3:
            if tokens[0][0] == "c":  # a comment line
                continue
            if tokens[0] == "p":
                raise ParseError(line_no, "duplicate header")
            raise ParseError(line_no, f"expected 'd <u> <v>', got {line.strip()!r}")
        u, v = _ints(line_no, tokens[1:], "variable", to_int)
        try:
            check_pair(prefix, u, v)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        pairs.append((u, v))
    return _closure(prefix, pairs)


def write_poset(poset: DependencyPoset) -> str:
    lines = [f"p dep {max(poset.prefix.variables, default=0)}"]
    lines += (f"d {u} {v}" for u, v in poset.strict_pairs())
    return "\n".join(lines) + "\n"


# The JSON key of each ``TraceEvent`` field, in field order.
_TRACE_KEYS = ("step", "variable", "rule", "family_before", "family_after", "max_set", "micros")


def write_trace(events: Iterable) -> str:
    """One JSON record per trace event, in step order, LF endings."""
    # Only traced runs write JSON, so only they import the encoder.
    import json

    return "".join([json.dumps(dict(zip(_TRACE_KEYS, event))) + "\n" for event in events])
