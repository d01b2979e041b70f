"""Graph store over SQLite — the paper's "second database platform".

The paper validates its approach on PostgreSQL in addition to the commercial
DBMS-x.  Here SQLite plays that role: every statement is literal SQL text,
the window function is available (SQLite >= 3.25), and — like PostgreSQL 9.0
in the paper — there is no MERGE statement, so the M-operator uses the
closest native equivalent (``INSERT ... ON CONFLICT DO UPDATE``) in NSQL
mode and a separate UPDATE + INSERT pair in TSQL mode.

The SQL strings below mirror Listings 2–4 of the paper.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.directions import Direction, INFINITY
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import OPERATOR_E, OPERATOR_F, OPERATOR_M
from repro.core.store.base import VISITED_INDEXES, GraphStore, IndexMode
from repro.core.store.registry import register_backend
from repro.errors import (
    InvalidQueryError,
    PersistenceUnsupportedError,
    StoreCloneUnsupportedError,
)
from repro.graph.fingerprint import fingerprint_content
from repro.graph.model import Graph

# SQLite cannot index an expression with parameters, and +inf round-trips
# fine as a REAL, so infinity is stored directly.
_INF = INFINITY

# A memoized statement shape: one SQL text, or the TSQL triple
# (fill-candidates, update, insert).
_SQLText = TypeVar("_SQLText", str, Tuple[str, str, str])


class SQLiteGraphStore(GraphStore):
    """Graph store backed by a SQLite database (in-memory by default).

    Per-query state (``TVisited`` and the TSQL scratch tables) lives in the
    connection-private ``temp`` schema, so any number of connections over the
    same database file can answer queries concurrently: the shared file is
    only ever *read* during a query, and each connection scribbles in its own
    temp space.  That is what makes :meth:`clone` (and therefore pooled
    parallel execution) safe for ``db_path``-backed stores.
    """

    backend_name = "sqlite"
    supports_concurrent_readers = True

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self.path = path
        # check_same_thread=False: the store pool hands a connection to one
        # worker thread at a time; serialized handoff is safe, sqlite's
        # same-thread assertion is stricter than we need.
        # cached_statements: the FEM hot loop re-executes a handful of
        # statement shapes thousands of times; a roomy prepared-statement
        # cache keeps sqlite from ever re-compiling them.
        self.connection = sqlite3.connect(path, check_same_thread=False,
                                          cached_statements=256)
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA temp_store = MEMORY")
        self.index_mode = IndexMode.CLUSTERED
        # SQL-text memo for the per-query hot loop: the F/E/M statement
        # texts depend only on (direction, frontier mode, relation,
        # pruning, sql style), so each shape is composed once per
        # connection and reused across every FEM iteration — sqlite's
        # prepared-statement cache then hits on the identical text instead
        # of parsing a freshly formatted string each iteration.
        self._sql_cache: Dict[Tuple[Hashable, ...], "_SQLText"] = {}
        # Whether this connection's TVisited currently carries
        # VISITED_INDEXES (None: not yet synchronized with index_mode).
        self._visited_indexed: Optional[bool] = None
        # Every connection gets its private TVisited up front, so reader
        # clones can answer queries without a load_graph() call.
        self._create_visited_table()

    def _cached_sql(self, key: Tuple[Hashable, ...],
                    build: Callable[[], "_SQLText"]) -> "_SQLText":
        """Memoize one statement shape's SQL text (or tuple of texts)."""
        cached = self._sql_cache.get(key)
        if cached is None:
            cached = build()
            self._sql_cache[key] = cached
        return cached

    def supports_clone(self) -> bool:
        """File-backed stores clone cheaply; in-memory ones cannot."""
        return self.path != ":memory:"

    def quiesce(self) -> None:
        """End the implicit transaction left open by per-query temp-table
        DML, releasing this connection's shared lock on the shared file so
        an idle pool member never blocks a writer (SegTable build)."""
        self.connection.commit()

    def clone(self) -> "SQLiteGraphStore":
        """Open a fresh reader connection over the same database file.

        The clone sees ``TNodes`` / ``TEdges`` / the SegTable relations that
        are already in the file and gets its own private ``TVisited``; no
        bulk load happens.  In-memory stores have nothing shareable to point
        a second connection at, so they refuse and the pool rehydrates.
        """
        if self.path == ":memory:":
            raise StoreCloneUnsupportedError(
                "an in-memory SQLite store cannot share its database with a "
                "second connection; the pool will rehydrate a replica"
            )
        replica = SQLiteGraphStore(path=self.path)
        replica.index_mode = self.index_mode
        replica._create_visited_table()  # re-sync TVisited's indexes
        replica.has_segtable = self.has_segtable
        replica.segtable_lthd = self.segtable_lthd
        return replica

    # -------------------------------------------------- persistence (catalog)

    def supports_persistence(self) -> bool:
        """A file-backed store's tables survive in the file; an in-memory
        store's do not."""
        return self.path != ":memory:"

    def _table_exists(self, name: str) -> bool:
        row = self.connection.execute(
            "SELECT count(*) FROM sqlite_master WHERE type='table' AND name=?",
            (name,),
        ).fetchone()
        return bool(row[0])

    def has_persistent_tables(self) -> bool:
        """Whether ``TNodes`` and ``TEdges`` exist in the database file."""
        return self._table_exists("TNodes") and self._table_exists("TEdges")

    def has_persistent_segtable(self) -> bool:
        """Whether ``TOutSegs`` and ``TInSegs`` exist in the database file."""
        return self._table_exists("TOutSegs") and self._table_exists("TInSegs")

    def adopt_segtable(self, lthd: float) -> None:
        """Point this store at the segment tables already in the file."""
        if not self.has_persistent_segtable():
            raise PersistenceUnsupportedError(
                f"{self.path!r} holds no TOutSegs/TInSegs tables to adopt; "
                f"build the SegTable before cataloging it"
            )
        self.has_segtable = True
        self.segtable_lthd = lthd

    def export_graph(self) -> Graph:
        """Read ``TNodes`` / ``TEdges`` back into a directed graph."""
        self._require_persistent_tables()
        graph = Graph(directed=True)
        for (nid,) in self.connection.execute("SELECT nid FROM TNodes"):
            graph.add_node(int(nid))
        for fid, tid, cost in self.connection.execute(
                "SELECT fid, tid, cost FROM TEdges"):
            graph.add_edge(int(fid), int(tid), float(cost))
        return graph

    def content_fingerprint(self) -> str:
        """Digest of the stored node set and edge multiset."""
        self._require_persistent_tables()
        nodes = [int(row[0]) for row in
                 self.connection.execute("SELECT nid FROM TNodes")]
        edges = self.connection.execute(
            "SELECT fid, tid, cost FROM TEdges").fetchall()
        return fingerprint_content(nodes, edges)

    def supports_relocation(self) -> bool:
        """A file-backed database can be snapshotted to a new file."""
        return self.path != ":memory:"

    def export_database(self, dest_path: str) -> None:
        """Snapshot the whole database file to ``dest_path`` with SQLite's
        online backup API — consistent even while other connections hold
        the source file open, and it carries every relation (graph tables,
        indexes, SegTable) so the copy warm-attaches without any rebuild."""
        if not self.supports_relocation():
            raise PersistenceUnsupportedError(
                "an in-memory SQLite store has no database file to "
                "relocate; only db_path-backed stores can export_database"
            )
        self._require_persistent_tables()
        # Flush this connection's implicit transaction first: backup()
        # copies committed state.
        self.connection.commit()
        dest = sqlite3.connect(dest_path)
        try:
            self.connection.backup(dest)
            dest.commit()
        finally:
            dest.close()

    def _require_persistent_tables(self) -> None:
        if not self.has_persistent_tables():
            raise PersistenceUnsupportedError(
                f"{self.path!r} holds no TNodes/TEdges tables; it is not a "
                f"loaded graph database"
            )

    # ------------------------------------------------------------------ helpers

    def _execute(self, sql: str, parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        self.stats.record_statement()
        return self.connection.execute(sql, tuple(parameters))

    def _execute_unlogged(self, sql: str,
                          parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        return self.connection.execute(sql, tuple(parameters))

    def _changes(self) -> int:
        return self.connection.execute("SELECT changes()").fetchone()[0]

    # ------------------------------------------------------------- graph loading

    def load_graph(self, graph: Graph, index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create and populate ``TNodes`` and ``TEdges``."""
        self.index_mode = IndexMode.validate(index_mode)
        cursor = self.connection
        cursor.execute("DROP TABLE IF EXISTS TNodes")
        cursor.execute("DROP TABLE IF EXISTS TEdges")
        cursor.execute("CREATE TABLE TNodes (nid INTEGER PRIMARY KEY)")
        cursor.execute(
            "CREATE TABLE TEdges (fid INTEGER, tid INTEGER, cost REAL)"
        )
        cursor.executemany(
            "INSERT INTO TNodes (nid) VALUES (?)",
            [(nid,) for nid in sorted(graph.nodes())],
        )
        cursor.executemany(
            "INSERT INTO TEdges (fid, tid, cost) VALUES (?, ?, ?)",
            [(edge.fid, edge.tid, edge.cost) for edge in graph.edges()],
        )
        if self.index_mode != IndexMode.NONE:
            cursor.execute("CREATE INDEX ix_tedges_fid ON TEdges (fid)")
            cursor.execute("CREATE INDEX ix_tedges_tid ON TEdges (tid)")
        self._create_visited_table()
        self.connection.commit()

    def _create_visited_table(self) -> None:
        # TVisited is connection-private (temp schema): concurrent reader
        # clones over one database file must not clobber each other's
        # per-query search state, and temp tables shadow any same-named
        # table in the shared file.
        self.connection.execute(
            """
            CREATE TEMP TABLE IF NOT EXISTS TVisited (
                nid INTEGER PRIMARY KEY,
                d2s REAL, p2s INTEGER, f INTEGER,
                d2t REAL, p2t INTEGER, b INTEGER
            )
            """
        )
        # The access path follows index_mode like TEdges' indexes do, so
        # the NONE baseline keeps TVisited at its nid key only.  The mode
        # can change after construction (load_graph, clone, catalog
        # attach), hence the check on every call.
        indexed = self.index_mode != IndexMode.NONE
        if indexed != self._visited_indexed:
            for name, columns in VISITED_INDEXES:
                self.connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {name} ON TVisited ({columns})"
                    if indexed else f"DROP INDEX IF EXISTS {name}"
                )
            self._visited_indexed = indexed

    def load_segtable(self, out_segments: Sequence[Dict[str, object]],
                      in_segments: Sequence[Dict[str, object]],
                      lthd: float,
                      index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create ``TOutSegs`` / ``TInSegs`` from precomputed segment rows."""
        index_mode = IndexMode.validate(index_mode)
        for name, rows in (("TOutSegs", out_segments), ("TInSegs", in_segments)):
            self.connection.execute(f"DROP TABLE IF EXISTS {name}")
            self.connection.execute(
                f"CREATE TABLE {name} (fid INTEGER, tid INTEGER, pid INTEGER, cost REAL)"
            )
            self.connection.executemany(
                f"INSERT INTO {name} (fid, tid, pid, cost) VALUES (?, ?, ?, ?)",
                [(row["fid"], row["tid"], row["pid"], row["cost"]) for row in rows],
            )
            if index_mode != IndexMode.NONE:
                self.connection.execute(
                    f"CREATE INDEX ix_{name.lower()}_fid ON {name} (fid)"
                )
        self.connection.commit()
        self.has_segtable = True
        self.segtable_lthd = lthd

    def segment_counts(self) -> Dict[str, int]:
        """Segment counts of the loaded SegTable."""
        counts = {"out": 0, "in": 0}
        for key, name in (("out", "TOutSegs"), ("in", "TInSegs")):
            row = self.connection.execute(
                "SELECT count(*) FROM sqlite_master WHERE type='table' AND name=?",
                (name,),
            ).fetchone()
            if row[0]:
                counts[key] = self.connection.execute(
                    f"SELECT count(*) FROM {name}"
                ).fetchone()[0]
        return counts

    def close(self) -> None:
        """Close the SQLite connection."""
        self.connection.close()

    # ---------------------------------------------------------------- TVisited setup

    def reset_visited(self) -> None:
        """Empty ``TVisited`` for a fresh query."""
        self._create_visited_table()
        self._execute_unlogged("DELETE FROM TVisited")

    def insert_visited(self, rows: Sequence[Dict[str, object]]) -> None:
        """Insert the initial visited rows (Listing 2(1))."""
        self.stats.record_statement()
        self.connection.executemany(
            "INSERT INTO TVisited (nid, d2s, p2s, f, d2t, p2t, b) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    row["nid"],
                    row.get("d2s", _INF),
                    row.get("p2s"),
                    row.get("f", 0),
                    row.get("d2t", _INF),
                    row.get("p2t"),
                    row.get("b", 0),
                )
                for row in rows
            ],
        )

    # ------------------------------------------------------------ statistics statements

    def top1_min_unfinalized(self, direction: Direction) -> Optional[int]:
        """Listing 2(2); distance ties break to the smallest ``nid``, so the
        answer does not depend on whether the index or a sort ordered it."""
        sql = self._cached_sql(("top1", direction.is_forward), lambda: (
            f"SELECT nid FROM TVisited WHERE {direction.flag_col} = 0 AND "
            f"{direction.dist_col} < ? ORDER BY {direction.dist_col}, nid "
            f"LIMIT 1"
        ))
        row = self._execute(sql, (_INF,)).fetchone()
        return None if row is None else int(row[0])

    def min_unfinalized_distance(self, direction: Direction) -> Optional[float]:
        """Listing 4(4)."""
        sql = self._cached_sql(("min_unfin", direction.is_forward), lambda: (
            f"SELECT min({direction.dist_col}) FROM TVisited "
            f"WHERE {direction.flag_col} = 0"
        ))
        row = self._execute(sql).fetchone()
        value = row[0]
        if value is None or value >= _INF:
            return None
        return float(value)

    def count_unfinalized(self, direction: Direction) -> int:
        """Candidate frontier size."""
        sql = self._cached_sql(("count_unfin", direction.is_forward), lambda: (
            f"SELECT count(*) FROM TVisited WHERE {direction.flag_col} = 0 "
            f"AND {direction.dist_col} < ?"
        ))
        row = self._execute(sql, (_INF,)).fetchone()
        return int(row[0])

    def min_total_cost(self) -> float:
        """Listing 4(5)."""
        row = self._execute("SELECT min(d2s + d2t) FROM TVisited").fetchone()
        value = row[0]
        return INFINITY if value is None else float(value)

    def meeting_node(self, min_cost: float) -> Optional[int]:
        """Listing 4(6)."""
        row = self._execute(
            "SELECT nid FROM TVisited WHERE abs(d2s + d2t - ?) < 1e-9 LIMIT 1",
            (min_cost,),
        ).fetchone()
        return None if row is None else int(row[0])

    def is_finalized(self, nid: int, direction: Direction) -> bool:
        """Listing 3(1)."""
        sql = self._cached_sql(("is_final", direction.is_forward), lambda: (
            f"SELECT 1 FROM TVisited WHERE nid = ? AND "
            f"{direction.flag_col} = 1"
        ))
        row = self._execute(sql, (nid,)).fetchone()
        return row is not None

    def visited_count(self) -> int:
        """Number of visited nodes."""
        return int(
            self._execute_unlogged("SELECT count(*) FROM TVisited").fetchone()[0]
        )

    def visited_rows(self) -> List[Dict[str, object]]:
        """Materialize ``TVisited``."""
        columns = ["nid", "d2s", "p2s", "f", "d2t", "p2t", "b"]
        rows = self._execute_unlogged(
            "SELECT nid, d2s, p2s, f, d2t, p2t, b FROM TVisited"
        ).fetchall()
        return [dict(zip(columns, row)) for row in rows]

    # ---------------------------------------------------------------- F-operator statements

    def finalize_node(self, nid: int, direction: Direction) -> None:
        """Listing 3(2)."""
        sql = self._cached_sql(("final_node", direction.is_forward), lambda: (
            f"UPDATE TVisited SET {direction.flag_col} = 1 WHERE nid = ?"
        ))
        with self.stats.operator(OPERATOR_F):
            self._execute(sql, (nid,))

    def select_frontier_set(self, direction: Direction, max_distance: float) -> int:
        """Listing 4(1).

        ``dist <= ? OR dist = min`` is written as ``dist <= max(?, min)``
        (equal, since no candidate lies below the minimum).  sqlite
        evaluates the uncorrelated subquery once, when first reached, and a
        one-pass UPDATE (no flag index) applies each row's change as it
        goes: an OR that short-circuits on the first rows would reach the
        subquery only after flagging them, and read the *next* minimum."""
        def build() -> str:
            dist, flag = direction.dist_col, direction.flag_col
            return f"""
                UPDATE TVisited SET {flag} = 2
                WHERE {flag} = 0 AND {dist} < ?
                  AND {dist} <= max(?, (
                        SELECT min({dist}) FROM TVisited WHERE {flag} = 0))
            """
        sql = self._cached_sql(("sel_frontier", direction.is_forward), build)
        with self.stats.operator(OPERATOR_F):
            self._execute(sql, (_INF, max_distance))
            return self._changes()

    def finalize_frontier(self, direction: Direction) -> int:
        """Listing 4(3)."""
        sql = self._cached_sql(("final_frontier", direction.is_forward),
                               lambda: (f"UPDATE TVisited SET "
                                        f"{direction.flag_col} = 1 WHERE "
                                        f"{direction.flag_col} = 2"))
        with self.stats.operator(OPERATOR_F):
            self._execute(sql)
            return self._changes()

    # ------------------------------------------------------------------- E + M operators

    def expand(self, direction: Direction, mid: Optional[int] = None,
               use_segtable: bool = False,
               prune_lb: Optional[float] = None,
               prune_min_cost: Optional[float] = None) -> int:
        """The combined E- and M-operator (Listing 2(3)+(4) / Listing 4(2)).

        The statement text depends only on the expansion *shape* —
        direction, node- vs. set-frontier, relation, pruning, SQL style —
        so it is composed once per shape and cached; every FEM iteration
        after the first re-executes the identical text with fresh
        parameters (and sqlite reuses the prepared statement).
        """
        if use_segtable and not self.has_segtable:
            raise InvalidQueryError("SegTable expansion requested but no SegTable loaded")
        node_mode = mid is not None
        pruned = prune_lb is not None and prune_min_cost is not None
        parameters: List[object] = []
        if node_mode:
            parameters.append(mid)
        parameters.append(_INF)
        if pruned:
            parameters.extend([prune_lb, prune_min_cost])
        style = validate_sql_style(self.sql_style)
        shape = (direction.is_forward, node_mode, use_segtable, pruned)
        if style == NSQL:
            affected = self._expand_nsql(direction, shape, parameters)
        else:
            affected = self._expand_tsql(direction, shape, parameters)
        self.stats.affected_rows += affected
        return affected

    def _candidate_sql_text(self, direction: Direction, node_mode: bool,
                            use_segtable: bool, pruned: bool) -> str:
        """Compose the inner SELECT producing (nid, cost, pred) candidates.

        Parameter slots, in order: ``[mid?] [inf] [prune_lb prune_min]?``.
        """
        dist, flag = direction.dist_col, direction.flag_col
        if use_segtable:
            relation, key_col, other_col = direction.seg_table, "fid", "tid"
            pred_expr = "e.pid"
        else:
            relation = "TEdges"
            key_col, other_col = direction.edge_key, direction.edge_other
            pred_expr = "q.nid"
        frontier_clause = "q.nid = ?" if node_mode else f"q.{flag} = 2"
        prune_clause = (f"AND q.{dist} + e.cost + ? <= ?" if pruned else "")
        return f"""
            SELECT e.{other_col} AS nid, q.{dist} + e.cost AS cost, {pred_expr} AS pred
            FROM TVisited q JOIN {relation} e ON q.nid = e.{key_col}
            WHERE {frontier_clause} AND q.{dist} < ? {prune_clause}
        """

    def _expand_nsql(self, direction: Direction,
                     shape: Tuple[Hashable, ...],
                     parameters: List[object]) -> int:
        """Window-function dedup + UPSERT (the MERGE equivalent).

        Cost ties break to the smallest predecessor — the same rule as
        TSQL's ``min(pred)`` — so the witness path does not depend on the
        order the join plan produces candidates in."""
        def build() -> str:
            candidate_sql = self._candidate_sql_text(direction, *shape[1:])
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            return f"""
                INSERT INTO TVisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT nid, cost, pred, 0, ?, NULL, 0 FROM (
                    SELECT nid, cost, pred,
                           row_number() OVER (PARTITION BY nid
                                              ORDER BY cost, pred) AS rownum
                    FROM ({candidate_sql})
                ) WHERE rownum = 1
                ON CONFLICT(nid) DO UPDATE SET
                    {dist} = excluded.{dist},
                    {pred} = excluded.{pred},
                    {flag} = 0
                WHERE TVisited.{dist} > excluded.{dist}
            """

        sql = self._cached_sql(("expand", NSQL) + shape, build)
        # The window-function join (E) and the upsert (M) run as one combined
        # statement; its time is attributed to the E-operator, which dominates.
        with self.stats.operator(OPERATOR_E):
            self._execute(sql, [_INF] + parameters)
            return self._changes()

    def _expand_tsql(self, direction: Direction,
                     shape: Tuple[Hashable, ...],
                     parameters: List[object]) -> int:
        """GROUP BY + join dedup, then UPDATE followed by INSERT ... NOT EXISTS.

        The deduplicated candidates land in a scratch table keyed on
        ``nid``, and the UPDATE is driven from that set, so neither M
        statement scans ``TVisited``."""
        def build() -> Tuple[str, str, str]:
            candidate_sql = self._candidate_sql_text(direction, *shape[1:])
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            fill = f"""
                INSERT INTO tmp_expanded (nid, cost, pred)
                SELECT cand.nid, cand.cost, min(cand.pred)
                FROM ({candidate_sql}) cand
                JOIN (
                    SELECT nid, min(cost) AS mincost
                    FROM ({candidate_sql})
                    GROUP BY nid
                ) agg ON cand.nid = agg.nid AND cand.cost = agg.mincost
                GROUP BY cand.nid, cand.cost
            """
            update = f"""
                UPDATE TVisited SET
                    {dist} = (SELECT cost FROM tmp_expanded t WHERE t.nid = TVisited.nid),
                    {pred} = (SELECT pred FROM tmp_expanded t WHERE t.nid = TVisited.nid),
                    {flag} = 0
                WHERE nid IN (SELECT nid FROM tmp_expanded)
                  AND {dist} > (SELECT cost FROM tmp_expanded t
                                WHERE t.nid = TVisited.nid)
            """
            insert = f"""
                INSERT INTO TVisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT nid, cost, pred, 0, ?, NULL, 0 FROM tmp_expanded t
                WHERE NOT EXISTS (SELECT 1 FROM TVisited v WHERE v.nid = t.nid)
            """
            return fill, update, insert

        fill, update, insert = self._cached_sql(("expand", "tsql") + shape,
                                                build)
        with self.stats.operator(OPERATOR_E):
            # The scratch outlives the iteration and is emptied instead of
            # dropped: re-creating it would change the temp schema and make
            # sqlite re-prepare every cached statement on the connection.
            self._execute_unlogged(
                "CREATE TEMP TABLE IF NOT EXISTS tmp_expanded ("
                "nid INTEGER PRIMARY KEY, cost REAL, pred INTEGER)")
            self._execute_unlogged("DELETE FROM tmp_expanded")
            self._execute(fill, parameters + parameters)
        with self.stats.operator(OPERATOR_M):
            self._execute(update)
            updated = self._changes()
            self._execute(insert, (_INF,))
            inserted = self._changes()
        return updated + inserted

    def expand_hops(self, direction: Direction) -> int:
        """Hop-counting E/M: insert-only frontier expansion (weights ignored).

        One statement in either SQL style — ``GROUP BY`` dedup is plain
        SQL-92, so NSQL and TSQL share the text.  Ties on the predecessor
        break to ``min(frontier nid)``, keeping the witness path
        deterministic across backends.
        """
        def build() -> str:
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            key_col, other_col = direction.edge_key, direction.edge_other
            return f"""
                INSERT INTO TVisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT e.{other_col}, min(q.{dist}) + 1, min(q.nid), 0,
                       ?, NULL, 0
                FROM TVisited q JOIN TEdges e ON q.nid = e.{key_col}
                WHERE q.{flag} = 2
                  AND NOT EXISTS (SELECT 1 FROM TVisited v
                                  WHERE v.nid = e.{other_col})
                GROUP BY e.{other_col}
            """

        sql = self._cached_sql(("expand_hops", direction.is_forward), build)
        with self.stats.operator(OPERATOR_E):
            self._execute(sql, (_INF,))
            affected = self._changes()
        self.stats.affected_rows += affected
        return affected

    # ----------------------------------------------------------------------- path recovery

    def get_link(self, nid: int, direction: Direction) -> Optional[int]:
        """Listing 3(3)."""
        sql = self._cached_sql(("get_link", direction.is_forward), lambda: (
            f"SELECT {direction.pred_col} FROM TVisited WHERE nid = ?"
        ))
        row = self._execute(sql, (nid,)).fetchone()
        if row is None or row[0] is None:
            return None
        return int(row[0])

    def get_distance(self, nid: int, direction: Direction) -> Optional[float]:
        """Distance of ``nid`` in ``direction`` or ``None``."""
        sql = self._cached_sql(("get_dist", direction.is_forward), lambda: (
            f"SELECT {direction.dist_col} FROM TVisited WHERE nid = ?"
        ))
        row = self._execute(sql, (nid,)).fetchone()
        if row is None or row[0] is None or row[0] >= _INF:
            return None
        return float(row[0])

    # -------------------------------------------------------------- SegTable construction

    def _work_table_name(self, direction: Direction) -> str:
        return "TOutSegsWork" if direction.is_forward else "TInSegsWork"

    def seg_init(self, direction: Direction) -> int:
        """Seed the working table with deduplicated (possibly reversed) edges."""
        name = self._work_table_name(direction)
        fid_col, tid_col = (
            ("fid", "tid") if direction.is_forward else ("tid", "fid")
        )
        self._execute_unlogged(f"DROP TABLE IF EXISTS {name}")
        self._execute(
            f"""
            CREATE TABLE {name} AS
            SELECT {fid_col} AS fid, {tid_col} AS tid, {fid_col} AS pid,
                   min(cost) AS cost, 0 AS f
            FROM TEdges
            WHERE {fid_col} != {tid_col}
            GROUP BY {fid_col}, {tid_col}
            """
        )
        self._execute_unlogged(
            f"CREATE UNIQUE INDEX ix_{name.lower()}_pair ON {name} (fid, tid)"
        )
        return int(
            self._execute_unlogged(f"SELECT count(*) FROM {name}").fetchone()[0]
        )

    def seg_min_unexpanded(self, direction: Direction) -> Optional[float]:
        """Minimal cost among unexpanded working segments."""
        name = self._work_table_name(direction)
        row = self._execute(f"SELECT min(cost) FROM {name} WHERE f = 0").fetchone()
        return None if row[0] is None else float(row[0])

    def seg_select_frontier(self, direction: Direction, max_cost: float) -> int:
        """Mark unexpanded working segments up to ``max_cost`` as frontier."""
        name = self._work_table_name(direction)
        self._execute(
            f"""
            UPDATE {name} SET f = 2
            WHERE f = 0 AND (cost <= ? OR cost = (SELECT min(cost) FROM {name} WHERE f = 0))
            """,
            (max_cost,),
        )
        return self._changes()

    def seg_expand(self, direction: Direction, lthd: float) -> int:
        """One construction expansion over the frontier segments."""
        name = self._work_table_name(direction)
        key_col, other_col = direction.edge_key, direction.edge_other
        candidate_sql = f"""
            SELECT s.fid AS fid, e.{other_col} AS tid, s.tid AS pid,
                   s.cost + e.cost AS cost
            FROM {name} s JOIN TEdges e ON s.tid = e.{key_col}
            WHERE s.f = 2 AND s.cost + e.cost <= ? AND e.{other_col} != s.fid
        """
        if validate_sql_style(self.sql_style) == NSQL:
            self._execute(
                f"""
                INSERT INTO {name} (fid, tid, pid, cost, f)
                SELECT fid, tid, pid, cost, 0 FROM (
                    SELECT fid, tid, pid, cost,
                           row_number() OVER (PARTITION BY fid, tid ORDER BY cost) AS rownum
                    FROM ({candidate_sql})
                ) WHERE rownum = 1
                ON CONFLICT(fid, tid) DO UPDATE SET
                    cost = excluded.cost, pid = excluded.pid, f = 0
                WHERE {name}.cost > excluded.cost
                """,
                (lthd,),
            )
            return self._changes()
        self._execute_unlogged("DROP TABLE IF EXISTS tmp_segcand")
        self._execute(
            f"""
            CREATE TEMP TABLE tmp_segcand AS
            SELECT cand.fid, cand.tid, min(cand.pid) AS pid, cand.cost
            FROM ({candidate_sql}) cand
            JOIN (SELECT fid, tid, min(cost) AS mincost FROM ({candidate_sql})
                  GROUP BY fid, tid) agg
              ON cand.fid = agg.fid AND cand.tid = agg.tid AND cand.cost = agg.mincost
            GROUP BY cand.fid, cand.tid, cand.cost
            """,
            (lthd, lthd),
        )
        self._execute(
            f"""
            UPDATE {name} SET
                cost = (SELECT cost FROM tmp_segcand t
                        WHERE t.fid = {name}.fid AND t.tid = {name}.tid),
                pid = (SELECT pid FROM tmp_segcand t
                       WHERE t.fid = {name}.fid AND t.tid = {name}.tid),
                f = 0
            WHERE EXISTS (SELECT 1 FROM tmp_segcand t
                          WHERE t.fid = {name}.fid AND t.tid = {name}.tid
                            AND t.cost < {name}.cost)
            """
        )
        updated = self._changes()
        self._execute(
            f"""
            INSERT INTO {name} (fid, tid, pid, cost, f)
            SELECT fid, tid, pid, cost, 0 FROM tmp_segcand t
            WHERE NOT EXISTS (SELECT 1 FROM {name} w
                              WHERE w.fid = t.fid AND w.tid = t.tid)
            """
        )
        inserted = self._changes()
        self._execute_unlogged("DROP TABLE IF EXISTS tmp_segcand")
        return updated + inserted

    def seg_finalize_frontier(self, direction: Direction) -> int:
        """Mark the last construction frontier as expanded."""
        name = self._work_table_name(direction)
        self._execute(f"UPDATE {name} SET f = 1 WHERE f = 2")
        return self._changes()

    def seg_finish(self, direction: Direction, lthd: float,
                   index_mode: str = IndexMode.CLUSTERED) -> int:
        """Materialize ``TOutSegs`` / ``TInSegs`` from the working table."""
        index_mode = IndexMode.validate(index_mode)
        work = self._work_table_name(direction)
        name = direction.seg_table
        self._execute_unlogged(f"DROP TABLE IF EXISTS {name}")
        self._execute(
            f"CREATE TABLE {name} AS SELECT fid, tid, pid, cost FROM {work}"
        )
        if index_mode != IndexMode.NONE:
            self._execute_unlogged(
                f"CREATE INDEX ix_{name.lower()}_fid ON {name} (fid)"
            )
        self._execute_unlogged(f"DROP TABLE IF EXISTS {work}")
        # Publish the finished SegTable: pooled reader clones are separate
        # connections and only see committed data.
        self.connection.commit()
        self.has_segtable = True
        self.segtable_lthd = lthd
        return int(
            self._execute_unlogged(f"SELECT count(*) FROM {name}").fetchone()[0]
        )

    def seg_rows(self, direction: Direction) -> List[Dict[str, object]]:
        """Return the stored segments for ``direction``."""
        exists = self.connection.execute(
            "SELECT count(*) FROM sqlite_master WHERE type='table' AND name=?",
            (direction.seg_table,),
        ).fetchone()[0]
        if not exists:
            return []
        rows = self._execute_unlogged(
            f"SELECT fid, tid, pid, cost FROM {direction.seg_table}"
        ).fetchall()
        return [dict(zip(["fid", "tid", "pid", "cost"], row)) for row in rows]


def _create_sqlite_store(path: Optional[str] = None,
                         buffer_capacity: int = 256) -> SQLiteGraphStore:
    """Backend-registry factory; SQLite manages its own page cache, so the
    ``buffer_capacity`` lifecycle argument is accepted but unused."""
    del buffer_capacity
    return SQLiteGraphStore(path=path or ":memory:")


# replace=True keeps re-imports (importlib.reload, notebook autoreload)
# from tripping the duplicate-name guard.
register_backend(SQLiteGraphStore.backend_name, _create_sqlite_store,
                 replace=True)
