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
Parsers reject malformed input with a diagnostic naming the line.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from .decomposition import DecompositionError, TrunkTreeDecomposition
from .formulas import EXISTS, FORALL, Clause, Matrix, Prefix, QbfInstance
from .posets import DependencyPoset, check_pair, poset_from_pairs


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# An integer token as docs/formats.md spells it: ASCII digits without a
# leading zero, after an optional minus sign.
_INT_TOKEN = re.compile("-?[1-9][0-9]*|0")
# A "0" that starts a number of two or more digits.
_LEADING_ZERO = re.compile("0(?<![0-9]0)[0-9]")


def _checked(text: str) -> bool:
    """Whether the text's integer tokens must be matched to the grammar.

    ``int()`` also reads "+3", "1_0", "007", "-0" and non-ASCII digits.
    A text, comments included, without a non-ASCII character, "+", "_",
    "-0" or a leading zero holds none of them, so ``int()`` alone reads
    its tokens as the grammar does.  The test is a few C-level searches
    over the whole text.
    """
    return not (
        text.isascii()
        and "+" not in text
        and "_" not in text
        and "-0" not in text
        and _LEADING_ZERO.search(text) is None
    )


def _int_tokens(tokens: List[str], line: int, what: str, checked: bool) -> List[int]:
    """The integer tokens of one line; ``checked`` is ``_checked(text)``."""
    try:
        if checked and not all(map(_INT_TOKEN.fullmatch, tokens)):
            raise ValueError
        return list(map(int, tokens))
    except ValueError:
        bad = next(t for t in tokens if _INT_TOKEN.fullmatch(t) is None)
        raise ParseError(line, f"expected an integer {what}, got {bad!r}") from None


def _int_token(token: str, line: int, what: str, checked: bool) -> int:
    """One integer token, as ``_int_tokens`` reads it."""
    try:
        if checked and _INT_TOKEN.fullmatch(token) is None:
            raise ValueError
        return int(token)
    except ValueError:
        raise ParseError(line, f"expected an integer {what}, got {token!r}") from None


def parse_qdimacs(text: str) -> QbfInstance:
    """Parse a QDIMACS instance.

    Adjacent same-quantifier lines merge into one block, duplicate
    literals inside a clause collapse and tautological clauses are kept
    (removing them is the engine's preprocessing step).  Variables that
    occur in clauses but in no quantifier line are bound existentially
    in a new outermost block.
    """
    n_vars: Optional[int] = None
    n_clauses: Optional[int] = None
    header_line = 0
    blocks: List[Tuple[str, List[int]]] = []
    quantified: Dict[int, int] = {}  # variable -> declaring line
    clauses: List[Clause] = []
    clause_section = False
    checked = _checked(text)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n_vars is not None:
                raise ParseError(line_no, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(line_no, f"malformed header {line!r}")
            n_vars = _int_token(tokens[2], line_no, "variable count", checked)
            n_clauses = _int_token(tokens[3], line_no, "clause count", checked)
            if n_vars < 0 or n_clauses < 0:
                raise ParseError(line_no, "header counts must be non-negative")
            header_line = line_no
            continue
        if n_vars is None:
            raise ParseError(line_no, "content before 'p cnf' header")
        if tokens[0] in (EXISTS, FORALL):
            if clause_section:
                raise ParseError(line_no, "quantifier line after the first clause")
            values = _int_tokens(tokens[1:], line_no, "variable", checked)
            if not values or values[-1] != 0:
                raise ParseError(line_no, "quantifier line must end with 0")
            variables = values[:-1]
            if not variables:
                raise ParseError(line_no, "empty quantifier line")
            for v in variables:
                if v < 1 or v > n_vars:
                    raise ParseError(line_no, f"variable {v} out of range 1..{n_vars}")
                if v in quantified:
                    raise ParseError(
                        line_no,
                        f"variable {v} already quantified on line {quantified[v]}",
                    )
                quantified[v] = line_no
            if blocks and blocks[-1][0] == tokens[0]:
                blocks[-1][1].extend(variables)
            else:
                blocks.append((tokens[0], list(variables)))
            continue
        # Clause line.
        clause_section = True
        values = _int_tokens(tokens, line_no, "literal", checked)
        if values[-1] != 0:
            raise ParseError(line_no, "clause line must end with 0")
        lits = values[:-1]
        if any(l == 0 for l in lits):
            raise ParseError(line_no, "literal 0 inside a clause")
        for l in lits:
            if abs(l) > n_vars:
                raise ParseError(line_no, f"variable {abs(l)} out of range 1..{n_vars}")
        clauses.append(Clause(lits))

    if n_vars is None:
        raise ParseError(1, "missing 'p cnf' header")
    if len(clauses) != n_clauses:
        raise ParseError(
            header_line,
            f"header declares {n_clauses} clauses, file has {len(clauses)}",
        )
    matrix = Matrix(clauses)
    free = sorted(matrix.variables() - set(quantified))
    prefix_blocks: List[Tuple[str, Tuple[int, ...]]] = []
    if free:
        prefix_blocks.append((EXISTS, tuple(free)))
    prefix_blocks.extend((q, tuple(vs)) for q, vs in blocks)
    return QbfInstance(Prefix(tuple(prefix_blocks)), matrix)


def write_qdimacs(instance: QbfInstance) -> str:
    """Canonical QDIMACS: header, quantifier lines in block order,
    clauses in canonical order, LF endings."""
    variables = instance.prefix.variables
    n_vars = max(variables) if variables else 0
    lines = [f"p cnf {n_vars} {len(instance.matrix.clauses)}"]
    for quant, block in instance.prefix.blocks:
        lines.append(f"{quant} {' '.join(str(v) for v in block)} 0")
    for clause in instance.matrix.clauses:
        lines.append(f"{' '.join(str(l) for l in clause.lits)} 0".lstrip())
    return "\n".join(lines) + "\n"


def parse_btd(text: str) -> TrunkTreeDecomposition:
    """Parse a BTD decomposition file.

    Structural validation (tree shape, root consistency, trunk being a
    leaf-to-root path) happens here; the niceness and alignment
    properties are separate validators.
    """
    header: Optional[Tuple[int, int, int]] = None
    header_line = 0
    bags: Dict[int, Tuple[int, ...]] = {}
    bag_lines: Dict[int, int] = {}
    edges: List[Tuple[int, int, int]] = []  # (line, parent, child)
    root: Optional[int] = None
    trunk: Optional[Tuple[int, ...]] = None
    trunk_line = root_line = 0
    checked = _checked(text)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "s":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(tokens) != 5 or tokens[1] != "btd":
                raise ParseError(line_no, f"malformed header {line!r}")
            header = (
                _int_token(tokens[2], line_no, "node count", checked),
                _int_token(tokens[3], line_no, "max bag size", checked),
                _int_token(tokens[4], line_no, "variable count", checked),
            )
            if min(header) < 0:
                raise ParseError(line_no, "header counts must be non-negative")
            header_line = line_no
            continue
        if header is None:
            raise ParseError(line_no, "content before 's btd' header")
        _, max_bag, num_vars = header
        if kind == "b":
            if len(tokens) < 2:
                raise ParseError(line_no, "bag line needs a node id")
            node = _int_token(tokens[1], line_no, "node id", checked)
            if node < 1:
                raise ParseError(line_no, f"node ids are 1-based, got {node}")
            if node in bags:
                raise ParseError(
                    line_no, f"duplicate node {node} (bag already on line {bag_lines[node]})"
                )
            variables = tuple(_int_tokens(tokens[2:], line_no, "variable", checked))
            for v in variables:
                if v < 1 or v > num_vars:
                    raise ParseError(line_no, f"variable {v} out of range 1..{num_vars}")
            if len(set(variables)) > max_bag:
                raise ParseError(
                    line_no,
                    f"bag of node {node} has {len(set(variables))} variables, "
                    f"header allows {max_bag}",
                )
            bags[node] = variables
            bag_lines[node] = line_no
        elif kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "edge line must be 'e <parent> <child>'")
            parent, child = _int_tokens(tokens[1:], line_no, "node id", checked)
            edges.append((line_no, parent, child))
        elif kind == "r":
            if root is not None:
                raise ParseError(line_no, "duplicate root line")
            if len(tokens) != 2:
                raise ParseError(line_no, "root line must be 'r <node>'")
            root = _int_token(tokens[1], line_no, "node id", checked)
            root_line = line_no
        elif kind == "t":
            if trunk is not None:
                raise ParseError(line_no, "duplicate trunk line")
            trunk = tuple(_int_tokens(tokens[1:], line_no, "node id", checked))
            if not trunk:
                raise ParseError(line_no, "empty trunk line")
            trunk_line = line_no
        else:
            raise ParseError(line_no, f"unknown line kind {kind!r}")

    if header is None:
        raise ParseError(1, "missing 's btd' header")
    num_nodes = header[0]
    if len(bags) != num_nodes:
        raise ParseError(
            header_line, f"header declares {num_nodes} nodes, file has {len(bags)} bag lines"
        )
    if root is None:
        raise ParseError(header_line, "missing root line")
    if trunk is None:
        raise ParseError(header_line, "missing trunk line")
    parent_map: Dict[int, int] = {}
    for line_no, parent, child in edges:
        for node in (parent, child):
            if node not in bags:
                raise ParseError(line_no, f"edge mentions unknown node {node}")
        if child in parent_map:
            raise ParseError(line_no, f"node {child} has two parents")
        parent_map[child] = parent
    if root not in bags:
        raise ParseError(root_line, f"unknown root node {root}")
    if root in parent_map:
        raise ParseError(root_line, f"root {root} has a parent (multiple roots)")
    for node in trunk:
        if node not in bags:
            raise ParseError(trunk_line, f"trunk mentions unknown node {node}")
    try:
        return TrunkTreeDecomposition(bags, parent_map, root, trunk)
    except DecompositionError as exc:
        raise ParseError(header_line, str(exc)) from exc


def write_btd(td: TrunkTreeDecomposition) -> str:
    nodes = td.nodes
    bag_vars = td.bag_variables()
    num_vars = max(bag_vars) if bag_vars else 0
    max_bag = max(len(td.bag(t)) for t in nodes)
    lines = [f"s btd {len(nodes)} {max_bag} {num_vars}"]
    for node in nodes:
        bag = " ".join(str(v) for v in sorted(td.bag(node)))
        lines.append(f"b {node} {bag}".rstrip())
    for node in nodes:
        parent = td.parent_of(node)
        if parent is not None:
            lines.append(f"e {parent} {node}")
    lines.append(f"r {td.root}")
    lines.append(f"t {' '.join(str(t) for t in td.trunk)}")
    return "\n".join(lines) + "\n"


def parse_poset(text: str, prefix: Prefix) -> DependencyPoset:
    """Parse generator pairs, check each against the prefix
    (``posets.check_pair``) and close them reflexively-transitively.

    A file with zero ``d`` lines yields the identity relation, which is
    not the trivial (full prefix order) poset.
    """
    header_vars: Optional[int] = None
    pairs: List[Tuple[int, int]] = []
    checked = _checked(text)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header_vars is not None:
                raise ParseError(line_no, "duplicate header")
            if len(tokens) != 3 or tokens[1] != "dep":
                raise ParseError(line_no, f"malformed header {line!r}")
            header_vars = _int_token(tokens[2], line_no, "variable count", checked)
            if header_vars < 0:
                raise ParseError(line_no, "header counts must be non-negative")
            largest = max(prefix.variables, default=0)
            if header_vars < largest:
                raise ParseError(
                    line_no, f"header count {header_vars} is below variable {largest}"
                )
            continue
        if header_vars is None:
            raise ParseError(line_no, "content before 'p dep' header")
        if tokens[0] != "d" or len(tokens) != 3:
            raise ParseError(line_no, f"expected 'd <u> <v>', got {line!r}")
        u, v = _int_tokens(tokens[1:], line_no, "variable", checked)
        try:
            check_pair(prefix, u, v)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        pairs.append((u, v))
    if header_vars is None:
        raise ParseError(1, "missing 'p dep' header")
    return poset_from_pairs(prefix, pairs)


def write_poset(poset: DependencyPoset) -> str:
    universe = poset.universe
    n_vars = max(universe) if universe else 0
    lines = [f"p dep {n_vars}"]
    for u, v in poset.strict_pairs():
        lines.append(f"d {u} {v}")
    return "\n".join(lines) + "\n"


def write_trace(events: Iterable, sink: Union[str, TextIO]) -> None:
    """Write one JSON record per trace event, in step order."""
    # Only traced runs write JSON, so only they import the encoder.
    import json

    own = isinstance(sink, (str, bytes))
    handle: TextIO = open(sink, "w", encoding="utf-8") if own else sink  # type: ignore[arg-type]
    try:
        for event in events:
            record = {
                "step": event.step,
                "variable": event.variable,
                "rule": event.rule,
                "family_before": event.family_before,
                "family_after": event.family_after,
                "max_set": event.max_set_size,
                "micros": event.micros,
            }
            handle.write(json.dumps(record, sort_keys=False) + "\n")
    finally:
        if own:
            handle.close()
