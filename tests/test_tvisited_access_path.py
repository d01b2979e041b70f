"""TVisited's (flag, distance) access path in the SQL stores.

Three guarantees:

* **Plan guard** -- with any index mode but ``NONE``, the frontier-driven
  statements (set-mode E+M over ``TEdges`` and the SegTable, pruned and
  unpruned, in both SQL styles; the hop expansion; the top-1 selection)
  never fully scan ``TEdges``, ``TOutSegs``, ``TInSegs`` or ``TVisited``.
  ``EXPLAIN QUERY PLAN`` is taken for every statement at the moment it
  runs, on the SQLite store and on the DB-API store through the stdlib
  fallback server, so an SQL edit that flips a plan back to a scan fails
  here.
* **Index mode** -- ``NONE`` keeps TVisited at its ``nid`` key only;
  clones and ``reset_visited`` follow the mode the store holds.
* **Plan independence** -- every method and query kind returns the same
  ``(distance, path)`` after the same number of FEM iterations with and
  without the indexes.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Sequence, Tuple

import pytest

from repro.core.directions import BACKWARD_DIRECTION, FORWARD_DIRECTION, INFINITY
from repro.core.segtable import build_segtable
from repro.core.sqlstyle import NSQL, TSQL
from repro.core.stats import QueryStats
from repro.core.store.base import VISITED_INDEXES, IndexMode
from repro.core.store.sqlite import SQLiteGraphStore
from repro.errors import PathNotFoundError
from repro.graph.generators import grid_graph, power_law_graph
from repro.service import PathService

INDEXED_MODES = (IndexMode.CLUSTERED, IndexMode.NONCLUSTERED)
STYLES = (NSQL, TSQL)
LTHD = 12.0

# Statement shapes the guard covers: (label, store call).  Set-mode expand
# is every combination of relation and pruning.
GuardedCall = Tuple[str, Callable[[object, object], object]]


def _guarded_calls() -> List[GuardedCall]:
    calls: List[GuardedCall] = [
        ("top1", lambda store, d: store.top1_min_unfinalized(d)),
    ]
    for segtable in (False, True):
        for pruned in (False, True):
            label = (f"expand[{'segtable' if segtable else 'edges'}"
                     f"{', pruned' if pruned else ''}]")
            bounds = {"prune_lb": 1.0, "prune_min_cost": 1e6} if pruned else {}
            calls.append((label, lambda store, d, s=segtable, b=bounds:
                          store.expand(d, use_segtable=s, **b)))
    return calls


class PlanRecorder:
    """Wraps a store's logged ``_execute`` to take each statement's plan
    just before it runs (so TSQL's scratch table exists when explained)."""

    def __init__(self, store, explain: Callable[[str, Sequence[object]],
                                                List[Sequence[object]]]):
        self.label = None
        self.plans: List[Tuple[str, str, List[str]]] = []
        original = store._execute

        def execute(sql, parameters=()):
            if self.label is not None:
                rows = explain("EXPLAIN QUERY PLAN " + sql, tuple(parameters))
                self.plans.append((self.label, sql, [str(row[-1]) for row in rows]))
            return original(sql, parameters)

        store._execute = execute

    def run(self, label: str, call: Callable[[], object]) -> None:
        self.label = label
        try:
            call()
        finally:
            self.label = None


def full_scans(sql: str, details: Sequence[str],
               tables: Sequence[str]) -> List[str]:
    """Plan lines that fully scan one of ``tables`` (by name or alias)."""
    names = set()
    for table in tables:
        names.add(table.lower())
        for match in re.finditer(rf"\b{table}\s+(?:AS\s+)?(\w+)", sql,
                                 re.IGNORECASE):
            names.add(match.group(1).lower())
    scans = []
    for detail in details:
        match = re.match(r"SCAN (\w+)", detail)
        if match and match.group(1).lower() in names:
            scans.append(detail)
    return scans


def drive_frontier_statements(store, recorder: PlanRecorder,
                              source: int = 0, target: int = 299) -> None:
    """Run a few bidirectional set-mode rounds plus hop layers, recording
    the plan of every guarded statement on a TVisited of realistic size."""
    calls = _guarded_calls()
    store.begin_query(QueryStats(), store.sql_style)
    store.reset_visited()
    store.insert_visited([
        {"nid": source, "d2s": 0.0, "p2s": source, "f": 0},
        {"nid": target, "d2t": 0.0, "p2t": target, "b": 0},
    ])
    for _round in range(3):
        for direction in (FORWARD_DIRECTION, BACKWARD_DIRECTION):
            for label, call in calls:
                store.select_frontier_set(direction, INFINITY)
                recorder.run(f"{label}/{direction.name}",
                             lambda c=call, d=direction: c(store, d))
                store.finalize_frontier(direction)
    store.reset_visited()
    store.insert_visited([{"nid": source, "d2s": 0.0, "p2s": source, "f": 0}])
    for _layer in range(3):
        store.select_frontier_set(FORWARD_DIRECTION, INFINITY)
        recorder.run("expand_hops",
                     lambda: store.expand_hops(FORWARD_DIRECTION))
        store.finalize_frontier(FORWARD_DIRECTION)


def assert_no_full_scans(recorder: PlanRecorder,
                         tables: Sequence[str]) -> None:
    labels = {label.split("/")[0] for label, _sql, _plan in recorder.plans}
    expected = {label for label, _call in _guarded_calls()} | {"expand_hops"}
    assert labels == expected, "a guarded statement shape was never explained"
    offenders = []
    for label, sql, details in recorder.plans:
        scans = full_scans(sql, details, tables)
        if scans:
            offenders.append((label, " ".join(sql.split())[:160], scans))
    assert not offenders, offenders


def sqlite_store(tmp_path, index_mode: str, style: str) -> SQLiteGraphStore:
    store = SQLiteGraphStore(str(tmp_path / "graph.db"))
    store.load_graph(power_law_graph(300, edges_per_node=3, seed=11),
                     index_mode=index_mode)
    build_segtable(store, LTHD, sql_style=style, index_mode=index_mode)
    store.sql_style = style
    return store


def sqlite_recorder(store: SQLiteGraphStore) -> PlanRecorder:
    return PlanRecorder(store, lambda sql, params:
                        store.connection.execute(sql, params).fetchall())


SQLITE_TABLES = ("TEdges", "TOutSegs", "TInSegs", "TVisited")


class TestPlanGuardSQLite:
    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("index_mode", INDEXED_MODES)
    def test_frontier_statements_never_scan(self, tmp_path, index_mode, style):
        store = sqlite_store(tmp_path, index_mode, style)
        try:
            recorder = sqlite_recorder(store)
            drive_frontier_statements(store, recorder)
            assert_no_full_scans(recorder, SQLITE_TABLES)
        finally:
            store.close()

    def test_expansion_is_driven_from_the_frontier_index(self, tmp_path):
        store = sqlite_store(tmp_path, IndexMode.CLUSTERED, NSQL)
        try:
            recorder = sqlite_recorder(store)
            drive_frontier_statements(store, recorder)
            details = [line for label, _sql, plan in recorder.plans
                       if label == "expand[edges]/forward" for line in plan]
            assert any(line.startswith("SEARCH q USING")
                       and "ix_tvisited_f (f=? AND d2s<?)" in line
                       for line in details), details
            assert any("SEARCH e USING INDEX ix_tedges_fid" in line
                       for line in details), details
        finally:
            store.close()

    def test_guard_detects_scans_without_indexes(self, tmp_path):
        # The detector is not vacuous: the NONE baseline does scan.
        store = sqlite_store(tmp_path, IndexMode.NONE, NSQL)
        try:
            recorder = sqlite_recorder(store)
            drive_frontier_statements(store, recorder)
            top1 = [plan for label, _sql, plan in recorder.plans
                    if label.startswith("top1")]
            assert top1 and all("SCAN TVisited" in plan for plan in top1)
            with pytest.raises(AssertionError):
                assert_no_full_scans(recorder, SQLITE_TABLES)
        finally:
            store.close()


class TestPlanGuardDBAPI:
    @pytest.mark.parametrize("style", STYLES)
    def test_frontier_statements_never_scan(self, fresh_dsn, style):
        from repro.store.dbapi import DBAPIGraphStore
        store = DBAPIGraphStore(fresh_dsn())
        try:
            store.load_graph(power_law_graph(300, edges_per_node=3, seed=5))
            build_segtable(store, LTHD, sql_style=style)
            store.sql_style = style
            recorder = PlanRecorder(store, lambda sql, params:
                                    store._run(sql, params).fetchall())
            drive_frontier_statements(store, recorder)
            assert_no_full_scans(recorder, (store._tedges, store._toutsegs,
                                            store._tinsegs, "tvisited"))
        finally:
            store.destroy()


def visited_indexes(store: SQLiteGraphStore) -> List[str]:
    return sorted(row[0] for row in store.connection.execute(
        "SELECT name FROM sqlite_temp_master "
        "WHERE type = 'index' AND tbl_name = 'TVisited'"))


INDEX_NAMES = sorted(name for name, _columns in VISITED_INDEXES)


class TestIndexModeFollowsStore:
    def test_none_keeps_only_the_key(self, tmp_path):
        store = SQLiteGraphStore(str(tmp_path / "g.db"))
        store.load_graph(grid_graph(3, 3), index_mode=IndexMode.NONE)
        assert visited_indexes(store) == []
        store.index_mode = IndexMode.CLUSTERED
        store.reset_visited()
        assert visited_indexes(store) == INDEX_NAMES
        store.close()

    @pytest.mark.parametrize("index_mode", IndexMode.ALL)
    def test_clone_inherits_the_mode(self, tmp_path, index_mode):
        store = SQLiteGraphStore(str(tmp_path / "g.db"))
        store.load_graph(grid_graph(3, 3), index_mode=index_mode)
        replica = store.clone()
        expected = [] if index_mode == IndexMode.NONE else INDEX_NAMES
        assert visited_indexes(replica) == expected
        replica.reset_visited()
        assert visited_indexes(replica) == expected
        replica.close()
        store.close()

    def test_reset_follows_a_mode_set_after_load(self, tmp_path):
        # Catalog attach assigns index_mode on an already-open store.
        store = SQLiteGraphStore(str(tmp_path / "g.db"))
        store.load_graph(grid_graph(3, 3))
        store.index_mode = IndexMode.NONE
        store.reset_visited()
        assert visited_indexes(store) == []
        store.close()


# -------------------------------------------------------- plan independence

METHODS = ("DJ", "BDJ", "BSDJ", "BSEG")
# Weights of 1 or 2 make equal-cost candidates and equal-distance frontier
# nodes common on the power-law graph, so a plan-dependent tie-break would
# show; on the grid, BSEG's threshold frontier pulls in non-minimal nodes,
# which is where a plan-dependent frontier selection would show.
GRAPHS = {
    "power_law": lambda: power_law_graph(300, edges_per_node=3,
                                         weight_range=(1, 2), seed=7),
    "grid": lambda: grid_graph(10, 10, seed=3),
}
INDEPENDENCE_LTHD = 3.0


def _pairs(graph, count: int = 8) -> List[Tuple[int, int]]:
    nodes = sorted(graph.nodes())
    rng = random.Random(2011)
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


def _answers(graph, index_mode: str) -> Dict[tuple, object]:
    answers: Dict[tuple, object] = {}
    with PathService(cache_size=0) as service:
        service.add_graph("g", graph, backend="sqlite", index_mode=index_mode)
        service.build_segtable("g", lthd=INDEPENDENCE_LTHD)
        for style in STYLES:
            for source, target in _pairs(graph):
                asks = [(method, "path", None) for method in METHODS]
                asks += [("auto", "bounded_hop", 6), ("auto", "reachability", None)]
                for method, kind, max_hops in asks:
                    try:
                        result = service.shortest_path(
                            source, target, graph="g", method=method,
                            sql_style=style, kind=kind, max_hops=max_hops,
                            use_cache=False)
                        answer = (result.distance, tuple(result.path),
                                  result.stats.expansions)
                    except PathNotFoundError:
                        answer = None
                    answers[(style, method, kind, source, target)] = answer
    return answers


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_answers_do_not_depend_on_the_visited_indexes(graph_name):
    graph = GRAPHS[graph_name]()
    indexed = _answers(graph, IndexMode.CLUSTERED)
    unindexed = _answers(graph, IndexMode.NONE)
    assert sum(answer is not None for answer in indexed.values()) > 0
    differing = {key: (indexed[key], unindexed[key]) for key in indexed
                 if indexed[key] != unindexed[key]}
    assert not differing, differing
