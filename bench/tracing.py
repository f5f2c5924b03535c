"""Span tracing for the benchmark's traced run.

The program is not edited.  ``Tracer.install`` replaces the names the
engine looks up at call time (module globals of ``trunkqbf.derivation``
and ``trunkqbf.cli``, one method of ``DependencyPoset``) by wrappers
that record one span per call, and the ``__post_init__`` of ``Clause``
and ``Matrix`` by counters.  ``uninstall`` restores the originals, so
untraced passes run the program as shipped.

A span is (name, start, end, parent index, instance id, detail).  Spans
stay in memory; the caller writes them out at the end.  A layer's self
time is its span time minus the time of its child spans.  A hook whose
target no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    instance: int
    detail: Any


def _clauses_in(args, result):
    return len(args[0].clauses)


def _sets_out(args, result):
    return len(result) if result is not None else 0


def _event(args, result):
    return result[1] if result is not None else None


# (module, attribute path, span name, detail extractor)
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("trunkqbf.cli", "main", "cli.main", None),
    ("trunkqbf.cli", "parse_qdimacs", "formats.parse_qdimacs", None),
    ("trunkqbf.cli", "parse_btd", "formats.parse_btd", None),
    ("trunkqbf.cli", "trivial_poset", "posets.trivial_poset", None),
    ("trunkqbf.derivation", "remove_tautologies", "formulas.remove_tautologies", None),
    ("trunkqbf.derivation", "validate_nice", "decomposition.validate_nice", None),
    ("trunkqbf.derivation", "validate_trunk_aligned", "decomposition.validate_trunk_aligned", None),
    ("trunkqbf.derivation", "elimination_ordering", "decomposition.elimination_ordering", None),
    ("trunkqbf.derivation", "step", "derivation.step", _event),
    ("trunkqbf.derivation", "forget_node", "decomposition.forget_node", None),
    ("trunkqbf.posets", "DependencyPoset.dependents_strict", "posets.dependents_strict", None),
    ("trunkqbf.derivation", "strategy_extension", "derivation.strategy_extension", _sets_out),
    ("trunkqbf.derivation", "restrict", "formulas.restrict", _clauses_in),
    ("trunkqbf.derivation", "resolve", "derivation.resolve", None),
    ("trunkqbf.derivation", "reduce", "derivation.reduce", None),
    # ground_truth is only called for the final verdict check.
    ("trunkqbf.derivation", "ground_truth", "derivation.verdict", None),
)

# (module, attribute path, counter name): counted, not timed.
COUNTERS = (
    ("trunkqbf.formulas", "Clause.__post_init__", "formulas.clauses_built"),
    ("trunkqbf.formulas", "Matrix.__post_init__", "formulas.matrices_built"),
)

RULES = ("R1", "R2", "R3", "R4")

# Spans whose number of calls is reported as ``<name>_calls``.
CALL_COUNTED = (
    "formulas.restrict",
    "derivation.strategy_extension",
    "derivation.resolve",
    "derivation.reduce",
    "decomposition.forget_node",
    "posets.dependents_strict",
)


def _target(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        for module, path, _, _ in HOOKS:
            if _target(module, path) is None:
                self.absent.append(f"{module}.{path}")
        for module, path, _ in COUNTERS:
            if _target(module, path) is None:
                self.absent.append(f"{module}.{path}")

    def _span_wrapper(self, name: str, fn: Callable, detail: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = detail(args, result) if detail else None
                spans[index] = Span(name, start, end, parent, self.instance, info)

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(obj):
            counts[name] += 1
            return fn(obj)

        return counted

    def install(self) -> None:
        for module, path, name, detail in HOOKS:
            target = _target(module, path)
            if target is not None:
                self._replace(target, self._span_wrapper(name, getattr(*target), detail))
        for module, path, name in COUNTERS:
            target = _target(module, path)
            if target is not None:
                self._replace(target, self._count_wrapper(name, getattr(*target)))

    def _replace(self, target, wrapper) -> None:
        owner, attr = target
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Tuple[List[Span], Counter]:
        """The spans and counts recorded since the last call."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def rule_counts(spans: List[Span]) -> Dict[int, Dict[str, int]]:
    """Rules fired per instance, from the step events."""
    out: Dict[int, Dict[str, int]] = defaultdict(dict)
    for span in spans:
        if span.name == "derivation.step" and span.detail is not None:
            rules = out[span.instance]
            rules[span.detail.rule] = rules.get(span.detail.rule, 0) + 1
    return dict(out)


def pass_metrics(
    spans: List[Span], counts: Counter
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per-layer times (ms) and counts of one traced pass.

    Returns (times, counts, self times by span name).  Every ``*_ms``
    time includes the time of child spans, except ``cli.self_ms``: what
    remains of the solves once every traced layer is taken out.  Times
    of layers a pass never reaches read 0.
    """
    total: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    self_ms: Dict[str, float] = defaultdict(float)
    step_ms: Dict[str, float] = defaultdict(float)
    events = []
    restrict_clauses = sets_out = 0
    for index, span in enumerate(spans):
        ms = (span.end - span.start) * 1e3
        total[span.name] += ms
        calls[span.name] += 1
        self_ms[span.name] += ms - child[index] * 1e3
        if span.name == "derivation.step":
            event = span.detail
            step_ms[event.rule if event is not None else "abort"] += ms
            if event is not None:
                events.append(event)
        elif span.name == "formulas.restrict":
            restrict_clauses += span.detail
        elif span.name == "derivation.strategy_extension":
            sets_out += span.detail
    r4_family = sum(e.family_after for e in events if e.rule == "R4")
    times = {f"{name}_ms": total[name] for _, _, name, _ in HOOKS if name != "derivation.step"}
    times["cli.self_ms"] = self_ms["cli.main"]
    times.update({f"derivation.step_ms.{rule}": step_ms[rule] for rule in RULES})
    tallies = {f"{name}_calls": calls[name] for name in CALL_COUNTED}
    tallies.update({name: counts[name] for _, _, name in COUNTERS})
    tallies.update({
        "formulas.restrict_clauses_in": restrict_clauses,
        "derivation.r4_sets_out": sets_out,
        # With no R4 step nothing is produced, so nothing is merged away.
        "derivation.family_dedup_ratio": r4_family / sets_out if sets_out else 1.0,
        "derivation.peak_family_sets": max((e.family_after for e in events), default=0),
        "derivation.peak_set_matrices": max((e.max_set_size for e in events), default=0),
    })
    tallies.update(
        {f"derivation.steps.{rule}": sum(e.rule == rule for e in events) for rule in RULES}
    )
    return times, tallies, dict(self_ms)


def median_times(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
