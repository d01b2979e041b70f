"""Per-layer spans recorded from the benchmark's side of each layer boundary.

The program under test is never edited: :class:`Recorder` rebinds public
methods on live instances (``router.shortest_path``, the wire client's
``shortest_path``, ``PathService.shortest_path`` / ``plan`` / ``add_graph``
/ ``build_segtable`` and every GraphStore statement method) to wrappers
that record ``[name, label, parent, start, end]`` and then call the
original.  :meth:`Recorder.uninstall` restores the bindings exactly, the
way :func:`repro.faults.uninstall_faults` does, so a traced object goes
back to shipped behaviour after the traced run.

Each thread keeps its own span stack, so the server's handler threads
nest spans correctly.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.store.base import GraphStore
from repro.faults import STORE_STATEMENT_METHODS
from repro.obs.schema import METRIC_QUERY_QUEUE

SEG_METHODS = tuple(sorted(name for name in vars(GraphStore)
                           if name.startswith("seg_")))
"""The SegTable construction statements (``seg_init`` ... ``seg_rows``)."""

LABELS = ("F", "E", "M", "SC", "FPR", "SEG")

STATEMENT_LABELS: Dict[str, str] = {
    # Written to TVisited outside the fused E+M statement: the reset and the
    # seed rows a query starts from.  Drivers run both under phase PE with no
    # operator; they are the M-operator's relation, so they count as M.
    "reset_visited": "M",
    "insert_visited": "M",
    # Drivers run these under stats.phase(PHASE_STATISTICS).
    "top1_min_unfinalized": "SC",
    "min_unfinalized_distance": "SC",
    "count_unfinalized": "SC",
    "min_total_cost": "SC",
    "meeting_node": "SC",
    "is_finalized": "SC",
    "visited_count": "SC",
    "visited_rows": "SC",
    "get_distance": "SC",
    # Stores run these under stats.operator(OPERATOR_F).
    "finalize_node": "F",
    "select_frontier_set": "F",
    "finalize_frontier": "F",
    # The fused E+M statement.  sqlite and dbapi charge all of it to E;
    # minidb splits it inside the call, which a method-level span cannot.
    # expand(use_segtable=True) joins TOutSegs/TInSegs and counts as SEG.
    "expand": "E",
    "expand_hops": "E",
    # Drivers run path recovery under stats.phase(PHASE_PATH_RECOVERY).
    "get_link": "FPR",
    **{name: "SEG" for name in SEG_METHODS},
}
"""GraphStore statement method -> F/E/M/SC/FPR/SEG, one label per method."""


def check_mapping() -> None:
    """Fail loudly when a store statement method has no label, so a new
    GraphStore method cannot go unattributed."""
    missing = [name for name in (*STORE_STATEMENT_METHODS, *SEG_METHODS)
               if name not in STATEMENT_LABELS]
    if missing:
        raise RuntimeError(f"store methods without an F/E/M/SC/FPR/SEG "
                           f"label: {missing}")


def _statement_label(method: str, kwargs: Dict[str, Any]) -> str:
    if method == "expand" and kwargs.get("use_segtable"):
        return "SEG"
    return STATEMENT_LABELS[method]


class Recorder:
    """Collects spans and the per-query objects the wrappers observe."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.query_stats: List[Any] = []
        self.methods: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, label: str, original: Callable,
              args: tuple, kwargs: Dict[str, Any]) -> Any:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            span = [name, label, stack[-1] if stack else -1, 0.0, 0.0]
            self.spans.append(span)
        stack.append(index)
        span[3] = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            stack.pop()

    def _rebind(self, target: object, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(target, attr)
        self._saved.append((target, attr, attr in vars(target), original))
        wrapped = make(original)
        functools.update_wrapper(wrapped, original)
        setattr(target, attr, wrapped)

    def wrap(self, target: object, attr: str, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Record a span named ``name`` around ``target.attr``."""
        def make(original: Callable) -> Callable:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                result = self._call(name, "", original, args, kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapped
        self._rebind(target, attr, make)

    def trace_service(self, service: object) -> None:
        """Wrap the PathService entry points of one service instance."""
        def note_plan(plan: Any) -> None:
            with self._lock:
                self.methods[plan.method] += 1
        self.wrap(service, "shortest_path", "service")
        self.wrap(service, "plan", "plan", on_result=note_plan)
        self.wrap(service, "add_graph", "add_graph")
        self.wrap(service, "build_segtable", "build_segtable")

    def trace_store(self, store: object) -> None:
        """Wrap every labelled statement method of one GraphStore, and
        capture the QueryStats each query hands to ``begin_query``."""
        check_mapping()
        for method in STATEMENT_LABELS:
            def make(original: Callable, method: str = method) -> Callable:
                def wrapped(*args: Any, **kwargs: Any) -> Any:
                    return self._call("store", _statement_label(method, kwargs),
                                      original, args, kwargs)
                return wrapped
            self._rebind(store, method, make)

        def make_begin(original: Callable) -> Callable:
            def begin_query(stats: Any, *args: Any, **kwargs: Any) -> Any:
                with self._lock:
                    self.query_stats.append(stats)
                return original(stats, *args, **kwargs)
            return begin_query
        self._rebind(store, "begin_query", make_begin)

    def uninstall(self) -> None:
        """Restore every rebound method, newest first, and fail if any
        binding still differs from the one found at install time."""
        saved, self._saved = self._saved, []
        for target, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        left = [attr for target, attr, _, original in saved
                if getattr(target, attr) != original]
        if left:
            raise RuntimeError(f"span wrappers not removed: {left}")


def _children(spans: List[List[Any]]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[2], []).append(index)
    return children


def service_totals(recorder: Recorder) -> Dict[str, float]:
    """Sum the service-side spans: one ``service`` span per query, its
    ``plan`` child, and the top-level store statements beneath it (a store
    span nested in another store span is part of its parent's time).

    The FEM driver span of a query runs from its first store call to its
    last; self time is a span minus the time its child spans cover.
    Durations are in milliseconds; everything is a sum over queries.
    """
    spans = recorder.spans
    children = _children(spans)
    totals: Dict[str, float] = {"queries": 0, "service_ms": 0.0,
                                "plan_ms": 0.0, "driver_ms": 0.0,
                                "driver_self_ms": 0.0, "statements": 0}
    for label in LABELS:
        totals[f"{label}.ms"] = 0.0
        totals[f"{label}.calls"] = 0
    for index, span in enumerate(spans):
        if span[0] != "service":
            continue
        totals["queries"] += 1
        totals["service_ms"] += (span[4] - span[3]) * 1e3
        first, last, store_ms = None, None, 0.0
        for child in children.get(index, ()):
            name, label, _, start, end = spans[child]
            if name == "plan":
                totals["plan_ms"] += (end - start) * 1e3
            elif name == "store":
                totals[f"{label}.ms"] += (end - start) * 1e3
                totals[f"{label}.calls"] += 1
                totals["statements"] += 1
                store_ms += (end - start) * 1e3
                first = start if first is None else min(first, start)
                last = end if last is None else max(last, end)
        if first is not None:
            driver_ms = (last - first) * 1e3
            totals["driver_ms"] += driver_ms
            totals["driver_self_ms"] += driver_ms - store_ms
    stats = recorder.query_stats
    totals["iterations"] = sum(s.expansions for s in stats)
    totals["qstats_statements"] = sum(s.statements for s in stats)
    totals["rows"] = sum(s.affected_rows for s in stats)
    totals["visited"] = sum(s.visited_nodes for s in stats)
    totals["qstats_buffer_hits"] = sum(s.buffer_hits for s in stats)
    for operator in ("F", "E", "M"):
        totals[f"qstats_{operator}.ms"] = sum(
            s.time_by_operator.get(operator, 0.0) for s in stats) * 1e3
    return totals


def span_seconds(recorder: Recorder, name: str) -> float:
    """Total seconds of every span called ``name``."""
    return sum(span[4] - span[3] for span in recorder.spans
               if span[0] == name)


def router_totals(recorder: Recorder) -> Dict[str, float]:
    """Sum the caller-side spans of routed queries: the ``router`` span and
    its wire ``client`` children, in milliseconds."""
    spans = recorder.spans
    children = _children(spans)
    router_ms = client_ms = 0.0
    for index, span in enumerate(spans):
        if span[0] != "router":
            continue
        router_ms += (span[4] - span[3]) * 1e3
        client_ms += sum((spans[c][4] - spans[c][3]) * 1e3
                         for c in children.get(index, ())
                         if spans[c][0] == "client")
    return {"router_ms": router_ms, "client_ms": client_ms}


def service_counters(service: Any, queries: int) -> Dict[str, float]:
    """Cache and pool-wait counters the service itself keeps.  The cache
    hit ratio's base is lookups (hits + misses); a negative-cache hit
    follows a positive miss and counts as a hit."""
    cache = service.cache_info()
    lookups = cache.hits + cache.misses
    hits = cache.hits + cache.negative_hits
    wait_s = service.registry.summary(METRIC_QUERY_QUEUE)["sum"]
    return {
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.cache_hits": hits,
        "service.pool_wait_ms": wait_s * 1e3 / queries,
    }
