"""Spans around the analyzer's public calls, and the arithmetic over them.

A :class:`Tracer` replaces a public function or method with a wrapper
that records one span per call: name, start, end, parent span and
request id.  Spans stay in memory until :meth:`Tracer.dump`.  Each name
is patched where its caller looks it up (``repro.core.pata.explore_entries``,
not ``repro.core.parallel.explore_entries``), and methods are wrapped on
their class, never the class itself, so ``isinstance`` checks against
the class keep working.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "counts")

    def __init__(self, sid: int, name: str, parent: Optional[int], rid: int):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}

    def to_dict(self) -> dict:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "counts": self.counts}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["sid"], data["name"], data["parent"], data["rid"])
        span.start, span.end, span.counts = data["start"], data["end"], data["counts"]
        return span


class Tracer:
    """Records nested spans per thread.  ``request_id`` tags every span;
    a wrapper made with ``begins_request=True`` advances it first, so
    each daemon request's spans share one id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, begins_request: bool = False) -> Span:
        stack = self._stack()
        with self._lock:
            if begins_request:
                self.request_id += 1
            self._next_sid += 1
            span = Span(self._next_sid, name, stack[-1].sid if stack else None,
                        self.request_id)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None,
             consume: bool = False, begins_request: bool = False) -> Callable:
        """``fn`` timed as span ``name``.  ``consume`` drains a returned
        iterator inside the span (for generators such as
        ``Lexer.tokens``); ``counter`` maps (args, kwargs, result) to
        counts stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, begins_request)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return iter(result) if consume else result

        return wrapper

    def install(self, table: Iterable["Patch"]) -> List[Tuple[object, str, Callable]]:
        """Apply every patch in ``table``; return ``(owner, attribute,
        original)`` triples, in order, to undo them."""
        undo = []
        for patch in table:
            owner = importlib.import_module(patch.module)
            *path, attr = patch.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(patch.span, original, patch.counter,
                                           patch.consume, patch.begins_request))
            undo.append((owner, attr, original))
        return undo

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([s.to_dict() for s in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span.from_dict(d) for d in json.load(handle)]


class Patch(NamedTuple):
    module: str
    attr: str
    span: str
    counter: Optional[Counter] = None
    consume: bool = False
    begins_request: bool = False


def _tokens(args, kwargs, result):
    return {"tokens": len(result)}


def _skips(args, kwargs, result):
    analyzed, skipped = result
    return {"analyzed": len(analyzed), "skipped": len(skipped)}


def _singletons(args, kwargs, result):
    return {"singletons": len(result.singletons)}


def _strong_updates(args, kwargs, result):
    return {"strong_updates": result.strong_updates}


def _paths(args, kwargs, result):
    return {"paths": sum(outcome.stats.paths for outcome in result)}


def _filtered(args, kwargs, result):
    return {"in": len(args[1]), "out": len(result.reports)}


def _call(args, kwargs, result):
    return {"calls": 1}


#: every traced public call, patched where its caller looks it up
PATCHES: Tuple[Patch, ...] = (
    Patch("repro.cli", "cmd_check", "cli.render"),
    Patch("repro.cli", "check_output_text", "cli.render"),
    Patch("repro.core.pata", "compile_program", "lang.link"),
    Patch("repro.lang.lexer", "Lexer.tokens", "lang.lex", _tokens, consume=True),
    Patch("repro.lang.lower", "parse", "lang.parse"),
    Patch("repro.lang.lower", "lower_unit", "lang.lower"),
    Patch("repro.serve.session", "Session.analyze", "serve.session",
          begins_request=True),
    Patch("repro.incremental", "compile_with_cache", "incremental.load"),
    Patch("repro.incremental", "open_incremental", "incremental.open"),
    Patch("repro.incremental.engine", "IncrementalContext.plan", "incremental.plan"),
    Patch("repro.incremental.engine", "IncrementalContext.commit", "incremental.commit"),
    Patch("repro.core.pata", "PATA.analyze", "core.analyze"),
    Patch("repro.core.collector", "InformationCollector.__init__", "core.collect"),
    Patch("repro.core.collector", "InformationCollector.entry_functions", "core.collect"),
    Patch("repro.presolve.prune", "RelevancePreAnalysis.__init__", "presolve"),
    Patch("repro.presolve.prune", "RelevancePreAnalysis.partition_entries", "presolve",
          _skips),
    Patch("repro.pointsto.steensgaard", "build_partition", "pointsto.unify", _singletons),
    Patch("repro.pointsto.flow_tier", "compute_flow_facts", "pointsto.flow",
          _strong_updates),
    Patch("repro.core.pata", "explore_entries", "core.explore", _paths),
    Patch("repro.core.pata", "run_parallel", "core.explore"),
    Patch("repro.core.pata", "merge_outcomes", "core.merge"),
    Patch("repro.races", "match_races", "core.match"),
    Patch("repro.xtaint", "build_summaries", "core.match"),
    Patch("repro.xtaint", "match_cross_module", "core.match"),
    Patch("repro.core.filter", "BugFilter.run", "core.filter", _filtered),
    Patch("repro.smt.solver", "Solver.solve", "smt.solve", _call),
)

#: per-layer time metric <- span name whose self time it sums
LAYER_TIMES: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "cli.import"),
    ("cli.render_s", "cli.render"),
    ("lang.lex_s", "lang.lex"),
    ("lang.parse_s", "lang.parse"),
    ("lang.lower_s", "lang.lower"),
    ("lang.link_s", "lang.link"),
    ("incremental.load_s", "incremental.load"),
    ("incremental.open_s", "incremental.open"),
    ("incremental.plan_s", "incremental.plan"),
    ("incremental.commit_s", "incremental.commit"),
    ("serve.session_s", "serve.session"),
    ("core.analyze_s", "core.analyze"),
    ("collect_s", "core.collect"),
    ("presolve_s", "presolve"),
    ("pointsto.unify_s", "pointsto.unify"),
    ("pointsto.flow_s", "pointsto.flow"),
    ("explore_s", "core.explore"),
    ("merge_s", "core.merge"),
    ("match_s", "core.match"),
    ("filter_s", "core.filter"),
    ("smt.solve_s", "smt.solve"),
)


# -- arithmetic ----------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its child spans
    cover (children clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        inner = [(max(lo, span.start), min(hi, span.end))
                 for lo, hi in children.get(span.sid, ())]
        inner = [(lo, hi) for lo, hi in inner if hi > lo]
        out[span.sid] = (span.end - span.start) - _covered(inner)
    return out


def top_level_seconds(spans: Sequence[Span]) -> float:
    """Wall time covered by spans without a parent."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])


def layer_totals(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(self seconds by span name, summed counts by count name)."""
    selfs = self_times(spans)
    seconds: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for span in spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + selfs[span.sid]
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    return seconds, counts


def layer_metrics(spans: Sequence[Span], ops: int) -> Dict[str, float]:
    """The per-layer metrics over ``spans``, per operation (``ops`` CLI
    runs or daemon requests).  A layer that did not run reads 0."""
    seconds, counts = layer_totals(spans)
    ops = max(ops, 1)
    out = {metric: seconds.get(name, 0.0) / ops for metric, name in LAYER_TIMES}
    lex = seconds.get("lang.lex", 0.0)
    explore = seconds.get("core.explore", 0.0)
    examined = counts.get("analyzed", 0.0) + counts.get("skipped", 0.0)
    out.update({
        "lang.tokens": counts.get("tokens", 0.0) / ops,
        "lang.tokens_per_s": counts.get("tokens", 0.0) / lex if lex else 0.0,
        "presolve.skip_ratio": counts.get("skipped", 0.0) / examined if examined else 0.0,
        "pointsto.singletons": counts.get("singletons", 0.0) / ops,
        "pointsto.strong_updates": counts.get("strong_updates", 0.0) / ops,
        "explore.paths": counts.get("paths", 0.0) / ops,
        "explore.paths_per_s": counts.get("paths", 0.0) / explore if explore else 0.0,
        "smt.calls": counts.get("calls", 0.0) / ops,
        "filter.drop_ratio": (1.0 - counts.get("out", 0.0) / counts["in"]
                              if counts.get("in") else 0.0),
    })
    return out


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` at the highest percentile with at least
    ``beyond`` samples above it, or ``None`` with too few samples."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]
