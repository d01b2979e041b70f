"""Unit tests for the graph stores (minidb and SQLite backends).

These exercise the store-level statements in isolation: loading, the F/E/M
statement methods, statistics statements, and the SegTable tables.
"""

import pytest

from repro.core.directions import BACKWARD_DIRECTION, FORWARD_DIRECTION, INFINITY
from repro.core.stats import QueryStats
from repro.core.store.base import IndexMode
from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore
from repro.errors import InvalidQueryError
from repro.graph.model import Graph


def small_graph() -> Graph:
    graph = Graph()
    graph.add_edge(1, 2, 4.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(3, 2, 1.0)
    graph.add_edge(2, 4, 2.0)
    graph.add_edge(3, 4, 6.0)
    return graph


def make_store(backend: str):
    store = MiniDBGraphStore(buffer_capacity=32) if backend == "minidb" else SQLiteGraphStore()
    store.load_graph(small_graph())
    store.begin_query(QueryStats(), "nsql")
    return store


BACKENDS = ["minidb", "sqlite"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreBasics:
    def test_initial_visited_empty(self, backend):
        store = make_store(backend)
        store.reset_visited()
        assert store.visited_count() == 0
        store.close()

    def test_insert_visited_defaults(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        rows = store.visited_rows()
        assert len(rows) == 1
        assert rows[0]["nid"] == 1
        assert rows[0]["d2s"] == 0.0
        assert rows[0]["d2t"] == INFINITY or rows[0]["d2t"] > 1e17
        store.close()

    def test_top1_and_min_distance(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 1, "d2s": 5.0, "f": 0},
                {"nid": 2, "d2s": 2.0, "f": 0},
                {"nid": 3, "d2s": 1.0, "f": 1},
            ]
        )
        assert store.top1_min_unfinalized(FORWARD_DIRECTION) == 2
        assert store.min_unfinalized_distance(FORWARD_DIRECTION) == 2.0
        assert store.count_unfinalized(FORWARD_DIRECTION) == 2
        store.close()

    def test_no_candidates_returns_none(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 5.0, "f": 1}])
        assert store.top1_min_unfinalized(FORWARD_DIRECTION) is None
        assert store.min_unfinalized_distance(FORWARD_DIRECTION) is None
        store.close()

    def test_finalize_node_and_is_finalized(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        assert not store.is_finalized(1, FORWARD_DIRECTION)
        store.finalize_node(1, FORWARD_DIRECTION)
        assert store.is_finalized(1, FORWARD_DIRECTION)
        store.close()

    def test_min_total_cost_and_meeting_node(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 1, "d2s": 1.0, "d2t": 9.0, "f": 0, "b": 0},
                {"nid": 2, "d2s": 3.0, "d2t": 2.0, "f": 0, "b": 0},
            ]
        )
        assert store.min_total_cost() == 5.0
        assert store.meeting_node(5.0) == 2
        store.close()

    def test_min_total_cost_without_meeting(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 1.0, "f": 0}])
        assert store.min_total_cost() == INFINITY
        store.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("index_mode", IndexMode.ALL)
def test_frontier_set_is_threshold_or_minimum(backend, index_mode):
    """Listing 4(1) selects candidates within the threshold, or at the
    minimal distance when none is -- never the next minimum as well, in
    whatever order the rows are visited."""
    store = MiniDBGraphStore(buffer_capacity=32) if backend == "minidb" else SQLiteGraphStore()
    store.load_graph(small_graph(), index_mode=index_mode)
    store.begin_query(QueryStats(), "nsql")
    store.reset_visited()
    store.insert_visited([
        {"nid": 1, "d2s": 2.0, "p2s": 1, "f": 0},
        {"nid": 2, "d2s": 36.0, "p2s": 1, "f": 0},
        {"nid": 3, "d2s": 41.0, "p2s": 1, "f": 0},
        {"nid": 4, "f": 0},
    ])
    assert store.select_frontier_set(FORWARD_DIRECTION, 6.0) == 1
    flags = {row["nid"]: row["f"] for row in store.visited_rows()}
    assert flags == {1: 2, 2: 0, 3: 0, 4: 0}
    store.finalize_frontier(FORWARD_DIRECTION)
    # No candidate within the threshold: the minimal one alone.
    assert store.select_frontier_set(FORWARD_DIRECTION, 6.0) == 1
    assert {row["nid"] for row in store.visited_rows() if row["f"] == 2} == {2}
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql_style", ["nsql", "tsql"])
class TestStoreExpansion:
    def test_forward_expand_single_node(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        affected = store.expand(FORWARD_DIRECTION, mid=1)
        assert affected == 2  # nodes 2 and 3 discovered
        rows = {row["nid"]: row for row in store.visited_rows()}
        assert rows[2]["d2s"] == 4.0
        assert rows[3]["d2s"] == 1.0
        store.close()

    def test_expand_improves_existing_distance(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 3, "d2s": 1.0, "p2s": 1, "f": 0},
                {"nid": 2, "d2s": 4.0, "p2s": 1, "f": 0},
            ]
        )
        affected = store.expand(FORWARD_DIRECTION, mid=3)
        assert affected >= 1
        rows = {row["nid"]: row for row in store.visited_rows()}
        assert rows[2]["d2s"] == 2.0
        assert rows[2]["p2s"] == 3
        store.close()

    def test_set_expansion_with_flags(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        selected = store.select_frontier_set(FORWARD_DIRECTION, float("-inf"))
        assert selected == 1
        affected = store.expand(FORWARD_DIRECTION)
        assert affected == 2
        finalized = store.finalize_frontier(FORWARD_DIRECTION)
        assert finalized == 1
        store.close()

    def test_backward_expansion_uses_incoming_edges(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 4, "d2t": 0.0, "p2t": 4, "b": 0}])
        affected = store.expand(BACKWARD_DIRECTION, mid=4)
        assert affected == 2  # nodes 2 and 3 reach node 4
        rows = {row["nid"]: row for row in store.visited_rows()}
        assert rows[2]["d2t"] == 2.0
        assert rows[2]["p2t"] == 4
        assert rows[3]["d2t"] == 6.0
        store.close()

    def test_pruning_skips_expensive_candidates(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        # With minCost = 2 and lb = 0 only candidates of cost <= 2 survive.
        affected = store.expand(FORWARD_DIRECTION, mid=1, prune_lb=0.0,
                                prune_min_cost=2.0)
        rows = {row["nid"] for row in store.visited_rows()}
        assert affected == 1
        assert rows == {1, 3}
        store.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreSegTable:
    def test_segtable_expand_requires_load(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        with pytest.raises(InvalidQueryError):
            store.expand(FORWARD_DIRECTION, mid=1, use_segtable=True)
        store.close()

    def test_load_segtable_and_counts(self, backend):
        store = make_store(backend)
        out_segments = [{"fid": 1, "tid": 2, "pid": 3, "cost": 2.0}]
        in_segments = [{"fid": 2, "tid": 1, "pid": 3, "cost": 2.0}]
        store.load_segtable(out_segments, in_segments, lthd=3.0)
        assert store.segment_counts() == {"out": 1, "in": 1}
        assert store.has_segtable
        assert store.segtable_lthd == 3.0
        store.close()

    def test_expand_over_segments_uses_pid_as_predecessor(self, backend):
        store = make_store(backend)
        store.load_segtable(
            [{"fid": 1, "tid": 4, "pid": 2, "cost": 6.0}],
            [{"fid": 4, "tid": 1, "pid": 2, "cost": 6.0}],
            lthd=6.0,
        )
        store.begin_query(QueryStats(), "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        store.expand(FORWARD_DIRECTION, mid=1, use_segtable=True)
        rows = {row["nid"]: row for row in store.visited_rows()}
        assert rows[4]["d2s"] == 6.0
        assert rows[4]["p2s"] == 2
        store.close()

    def test_statement_counting(self, backend):
        store = make_store(backend)
        stats = QueryStats()
        store.begin_query(stats, "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        store.top1_min_unfinalized(FORWARD_DIRECTION)
        store.expand(FORWARD_DIRECTION, mid=1)
        assert stats.statements >= 3
        store.close()


class TestIndexModes:
    @pytest.mark.parametrize("mode", [IndexMode.CLUSTERED, IndexMode.NONCLUSTERED,
                                      IndexMode.NONE])
    def test_minidb_all_index_modes_answer_lookups(self, mode):
        store = MiniDBGraphStore(buffer_capacity=32)
        store.load_graph(small_graph(), index_mode=mode)
        store.begin_query(QueryStats(), "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        affected = store.expand(FORWARD_DIRECTION, mid=1)
        assert affected == 2
        store.close()

    def test_invalid_index_mode(self):
        store = MiniDBGraphStore()
        with pytest.raises(ValueError):
            store.load_graph(small_graph(), index_mode="bitmap")
        store.close()
