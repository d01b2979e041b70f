"""The benchmark's three workloads and the measurements taken on them.

Every workload is a closed loop with one client.  Inputs (graphs, query
lists and their order) come from constants and ``--seed`` only; the
program sees nothing but them.

* ``social-sqlite`` -- an embedded PathService on the ``sqlite`` backend,
  result and negative caches off, ``method="BSDJ"``, on a power-law graph.
  The queries are a stratified sample of uniform random distinct pairs
  drawn from the seed (see :func:`_social_pairs`).  The paper's
  set-at-a-time method: about 125 store statements per query scan and
  join TVisited, so the store does nearly all the work.
* ``road-minidb`` -- an embedded PathService on ``minidb`` (the default
  backend), caches off, a fixed set of pairs on a grid in an order drawn
  from the seed, run in 2 passes on one engine, ``method="DJ"`` (BSDJ
  degenerates on grids).  Node-at-a-time search with ~175 tiny statements
  per query over a buffer pool smaller than the engine's page count.  The
  second pass runs on the same engine as the first, so the engine's
  TVisited page growth stays visible.
* ``served-zipf`` -- a ShardRouter in this process talking to
  ``python -m repro.serve`` in a subprocess, warm-started from a catalog
  of two file-backed sqlite graphs with SegTables; the server's default
  result cache is on.  A fixed multiset of Zipf traffic from
  :class:`repro.workload.TrafficGenerator` (70% path pinned to BSEG, 20%
  reachability, 10% bounded_hop) in an order drawn from the seed.

Timed runs (``--trace 0``) keep every wrapper off.  A timed run is a
sequence of replay rounds.  Each round sets the workload up from empty and
runs the workload's queries on it: the same queries from the same state
every round, on the embedded workloads in a new order each round.  Every
call and set-up is preceded by a calibration loop
(:func:`calibration_loop`), and reported times are scaled by it to one
reference machine speed: the machine's speed drifts by up to 2x over
seconds and by a third over minutes (see README.md).

Traced runs (``--trace 1``) run the same list twice on fresh set-ups --
untraced, then traced -- so counts repeat exactly across runs of one seed
and ``trace.overhead_pct`` compares like with like.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.store.base import GraphStore
from repro.errors import PathNotFoundError
from repro.graph.generators import grid_graph, power_law_graph
from repro.graph.model import Graph
from repro.service.session import PathService
from repro.shard.router import ShardRouter
from repro.workload.generator import TrafficConfig, TrafficGenerator, TrafficQuery
from repro.workload.harness import _ReferenceOracle, percentile

from calibration import (REFERENCE_LOOP_S, Peer, calibration_loop,
                         setup_loop_s)
from tracing import (LABELS, Recorder, router_totals, service_counters,
                     service_totals, span_seconds)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_ROUNDS = 2
"""A timed run starts replay rounds until ``--seconds`` have passed, and
always completes at least this many."""
EMBEDDED_SPARE_SETUPS = 5
"""Spare set-ups timed before each embedded round, beside the round's own:
an embedded set-up (one ``add_graph``) takes only tens of milliseconds."""

GRAPH_SEED = 20110901
"""Each workload's graphs are fixed data sets generated from this seed, and
so are road-minidb's and served-zipf's queries; ``--seed`` draws
social-sqlite's queries and the order of every workload's queries."""

SOCIAL_NODES = 600
SOCIAL_QUERIES = 256
SOCIAL_POOL = 16
"""Candidate pairs drawn per query of social-sqlite's list (one stratum)."""

ROAD_SIDE = 9
ROAD_PAIRS = 64
ROAD_BUFFER_PAGES = 3
"""Buffer-pool pages for road-minidb; a 9x9 grid loads into 4 engine pages,
so even the first query cannot keep the whole engine resident."""
ROAD_PASSES = 2
"""Passes over the pair set per round.  The engine never reclaims TVisited
pages, so the second pass is slower than the first; a round of fixed
length makes each run see the same growth."""

SERVED_SOCIAL_NODES = 2000
SERVED_GRID_SIDE = 20
SERVED_LTHD = 3.0
SERVED_QUERIES = 1000
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------------- answers


@dataclass
class Outcome:
    query: TrafficQuery
    seconds: float
    loop_s: float
    """The calibration loop's time, taken just before the call."""
    distance: Optional[float] = None
    error: Optional[str] = None

    @property
    def scaled_s(self) -> float:
        """The call's time at the reference machine speed."""
        return self.seconds * REFERENCE_LOOP_S / self.loop_s


def ask(call: Callable[[TrafficQuery], object], query: TrafficQuery,
        calibrate: Callable[[], float] = calibration_loop) -> Outcome:
    """Time the calibration loop, then one query from call to return as
    the caller sees it."""
    loop_s = calibrate()
    start = perf_counter()
    try:
        result = call(query)
    except PathNotFoundError:
        return Outcome(query, perf_counter() - start, loop_s)
    except Exception as exc:  # any raised error is a counted failure
        return Outcome(query, perf_counter() - start, loop_s,
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(query, perf_counter() - start, loop_s,
                   distance=result.distance)  # type: ignore[attr-defined]


class Verifier:
    """Checks answers against the in-memory reference of
    :mod:`repro.workload.harness` (binary-heap Dijkstra for paths, BFS
    layers for the hop kinds), memoized per distinct query."""

    def __init__(self, graphs: Dict[str, Graph]) -> None:
        self._oracle = _ReferenceOracle(graphs)
        self._expected: Dict[TrafficQuery, Optional[float]] = {}

    def failures(self, outcomes: List[Outcome]) -> List[str]:
        """One description per failed query: a raised error or a wrong
        answer fails it; PathNotFoundError the oracle agrees with does
        not."""
        failures = []
        for outcome in outcomes:
            if outcome.error is not None:
                failures.append(outcome.error)
                continue
            query = outcome.query
            if query not in self._expected:
                self._expected[query] = self._oracle.expected(query)
            if self._expected[query] != outcome.distance:
                failures.append(f"wrong answer {query}: expected "
                                f"{self._expected[query]}, got "
                                f"{outcome.distance}")
        return failures


def latency_ms(outcomes: List[Outcome], q: float) -> float:
    return percentile(sorted(o.seconds for o in outcomes), q) * 1e3


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


@dataclass
class Run:
    """What one run reports: counts, metrics by name, and info lines."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)
    failure_samples: List[str] = field(default_factory=list)

    def add(self, outcomes: List[Outcome], verifier: Verifier) -> None:
        failures = verifier.failures(outcomes)
        self.attempted += len(outcomes)
        self.failed += len(failures)
        self.failure_samples.extend(failures[:5 - len(self.failure_samples)])


@dataclass
class Timed:
    """What a timed run measured: the calls of all rounds, and the
    set-ups, each as (seconds, calibration loop seconds)."""

    outcomes: List[Outcome] = field(default_factory=list)
    rounds: int = 0
    setups: List[Tuple[float, float]] = field(default_factory=list)


def end_to_end(run: Run, timed: Timed, rss_mb: float, store_bytes: float,
               edges: int) -> None:
    """The end-to-end metrics of a timed run, every time scaled to the
    reference machine speed (see :attr:`Outcome.scaled_s`).  Throughput is
    the one closed-loop client's calls over the sum of their times."""
    outcomes = timed.outcomes
    scaled = sorted(o.scaled_s for o in outcomes)
    raw = sorted(o.seconds for o in outcomes)
    setups = [seconds * REFERENCE_LOOP_S / loop_s
              for seconds, loop_s in timed.setups]
    run.metrics.update({
        "latency_p50_ms": percentile(scaled, 50.0) * 1e3,
        "latency_p95_ms": percentile(scaled, 95.0) * 1e3,
        "throughput_qps": len(scaled) / sum(scaled),
        "success_ratio": 1.0 - run.failed / run.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "store_bytes_per_edge": store_bytes / edges,
    })
    loops = sorted(o.loop_s for o in outcomes)
    run.info.append(
        f"timed phase: {timed.rounds} replay rounds, {len(outcomes)} calls "
        f"from 1 closed-loop client; error_rate "
        f"{run.failed / run.attempted:.6f}; setup_s = median of "
        f"{len(setups)} set-ups")
    run.info.append(
        f"calibration loop before each call: median "
        f"{percentile(loops, 50.0) * 1e3:.3f} ms, from {loops[0] * 1e3:.3f} "
        f"to {loops[-1] * 1e3:.3f} ms; unscaled p50 "
        f"{percentile(raw, 50.0) * 1e3:.3f} ms, p95 "
        f"{percentile(raw, 95.0) * 1e3:.3f} ms, set-up median "
        f"{statistics.median(t for t, _ in timed.setups):.5f} s")


def layer_metrics(totals: Dict[str, float], queries: int) -> Dict[str, float]:
    """Per-query service / core / store metrics from :func:`service_totals`
    sums; the base of every ``*_per_query`` value is ``queries``, the
    queries answered in the traced pass (cache hits included)."""
    per = 1.0 / queries
    metrics = {
        "service.self_ms": (totals["service_ms"] - totals["plan_ms"]
                            - totals["driver_ms"]) * per,
        "service.plan_ms": totals["plan_ms"] * per,
        "core.driver_self_ms": totals["driver_self_ms"] * per,
        "core.iterations_per_query": totals["iterations"] * per,
        "core.statements_per_query": totals["statements"] * per,
        "core.rows_per_query": totals["rows"] * per,
        "core.visited_per_query": totals["visited"] * per,
        "qstats.statements_per_query": totals["qstats_statements"] * per,
        "qstats.buffer_hits_per_query": totals["qstats_buffer_hits"] * per,
    }
    store_ms = 0.0
    for label in LABELS:
        metrics[f"store.{label}.ms_per_query"] = totals[f"{label}.ms"] * per
        metrics[f"store.{label}.calls_per_query"] = (
            totals[f"{label}.calls"] * per)
        store_ms += totals[f"{label}.ms"]
    metrics["store.ms_per_statement"] = (
        store_ms / totals["statements"] if totals["statements"] else 0.0)
    for operator in ("F", "E", "M"):
        metrics[f"qstats.{operator}.ms_per_query"] = (
            totals[f"qstats_{operator}.ms"] * per)
    return metrics


def resolved_methods(methods: Dict[str, int]) -> Dict[str, float]:
    return {f"service.resolved_{name}": methods.get(name, 0)
            for name in ("BSDJ", "DJ", "BSEG", "HOPS", "REACH")}


def split_info(metrics: Dict[str, float], totals: Dict[str, float],
               queries: int) -> str:
    """The benchmark's F/E/M split beside QueryStats.time_by_operator, and
    its statement count beside QueryStats.statements."""
    ours = ", ".join(f"{label} {metrics[f'store.{label}.ms_per_query']:.3f}"
                     for label in LABELS)
    theirs = ", ".join(f"{op} {metrics[f'qstats.{op}.ms_per_query']:.3f}"
                       for op in ("F", "E", "M"))
    return (f"ms/query over {queries} queries -- benchmark spans: {ours}; "
            f"QueryStats.time_by_operator: {theirs}; statements/query -- "
            f"benchmark {metrics['core.statements_per_query']:.2f}, "
            f"QueryStats {metrics['qstats.statements_per_query']:.2f}")


def zero_metrics(names: List[str]) -> Dict[str, float]:
    return {name: 0.0 for name in names}


SHARD_METRICS = ["shard.router_self_ms", "serve.client_ms", "serve.wire_ms"]
STORAGE_METRICS = [
    "storage.buffer_hit_ratio", "storage.fetches_per_query",
    "storage.evictions_per_query", "storage.disk_reads_per_query",
    "storage.disk_writes_per_query", "storage.pages_allocated_per_query",
    "storage.pass_slowdown"]
SEGTABLE_METRICS = ["segtable.build_s", "segtable.rows_per_edge",
                    "catalog.warm_start_s"]


# ----------------------------------------------------------------------------- embedded


@dataclass
class Embedded:
    """One embedded workload: a PathService in this process, caches off."""

    name: str
    graph_name: str
    backend: str
    method: str
    make_graph: Callable[[], Graph]
    make_pairs: Callable[[int, Graph], List[Tuple[int, int]]]
    """``(seed, graph) ->`` the query pairs of one pass, in any order."""
    buffer_capacity: int = 256
    passes: int = 1
    """Passes over the pairs in one round, all on the round's store."""

    def open(self, graph: Graph, recorder: Optional[Recorder] = None
             ) -> Tuple[PathService, float]:
        """A fresh service with the graph loaded; returns the load time."""
        service = PathService(default_backend=self.backend, cache_size=0,
                              negative_cache_size=0)
        if recorder is not None:
            recorder.trace_service(service)
        start = perf_counter()
        service.add_graph(self.graph_name, graph, backend=self.backend,
                          buffer_capacity=self.buffer_capacity)
        load_s = perf_counter() - start
        if recorder is not None:
            recorder.trace_store(service.store(self.graph_name))
        return service, load_s

    def call(self, service: PathService) -> Callable[[TrafficQuery], object]:
        return lambda q: service.shortest_path(
            q.source, q.target, graph=q.graph, method=self.method)

    def queries(self, pairs: List[Tuple[int, int]], seed: int,
                index: int) -> List[TrafficQuery]:
        """Round ``index``'s query list: the pairs in an order drawn from
        the seed and the round's number, run ``passes`` times.

        Each round draws a new order so that a run averages over orders.
        On road-minidb the order decides which pages the 3-page pool holds
        when: with one order per run, unscaled p50 differed by 22% between
        two seeds at the same machine speed, and p50 spread 0.12 over ten
        seeds."""
        order = list(pairs)
        random.Random(f"{seed}/{index}").shuffle(order)
        return [TrafficQuery(self.graph_name, source, target)
                for source, target in order] * self.passes


def _store_bytes(store: GraphStore) -> float:
    """Bytes the store holds: engine pages x page size on minidb; SQLite's
    page_count x page_size on sqlite (asked through the store's own
    connection, since an in-memory database has no file)."""
    database = getattr(store, "database", None)
    if database is not None:
        return database.disk.num_pages * database.disk.page_size
    connection = store.connection  # type: ignore[attr-defined]
    pages = connection.execute("PRAGMA page_count").fetchone()[0]
    size = connection.execute("PRAGMA page_size").fetchone()[0]
    return float(pages * size)


def _engine_counters(store: GraphStore) -> Optional[Tuple[int, ...]]:
    database = getattr(store, "database", None)
    if database is None:
        return None
    buffers = database.buffer_stats
    return (buffers.hits, buffers.misses, buffers.evictions,
            database.io_reads, database.io_writes, database.disk.num_pages)


def _grid_distance(source: int, target: int) -> int:
    return (abs(source // ROAD_SIDE - target // ROAD_SIDE)
            + abs(source % ROAD_SIDE - target % ROAD_SIDE))


def _bidirectional_settled(graph: Graph, source: int, target: int) -> int:
    """Nodes a bidirectional Dijkstra settles before it can stop: the
    difficulty measure social-sqlite's pairs are stratified by.  BSDJ is
    bidirectional too; its time tracks this count (correlation 0.85 over
    300 random pairs of the workload's graph) far better than distance or
    hop count (0.32, 0.49)."""
    dist: List[Dict[int, float]] = [{source: 0.0}, {target: 0.0}]
    heaps: List[List[Tuple[float, int]]] = [[(0.0, source)], [(0.0, target)]]
    done: List[set] = [set(), set()]
    edges = (graph.out_edges, graph.in_edges)
    best = float("inf")
    while heaps[0] and heaps[1]:
        if heaps[0][0][0] + heaps[1][0][0] >= best:
            break
        side = 0 if len(heaps[0]) <= len(heaps[1]) else 1
        distance, node = heapq.heappop(heaps[side])
        if node in done[side]:
            continue
        done[side].add(node)
        for neighbor, cost in edges[side](node):
            reached = distance + cost
            if reached < dist[side].get(neighbor, float("inf")):
                dist[side][neighbor] = reached
                heapq.heappush(heaps[side], (reached, neighbor))
                if neighbor in dist[1 - side]:
                    best = min(best, reached + dist[1 - side][neighbor])
    return len(done[0]) + len(done[1])


def _social_pairs(seed: int, graph: Graph) -> List[Tuple[int, int]]:
    """A stratified sample of uniform random distinct pairs.

    SOCIAL_QUERIES x SOCIAL_POOL uniform pairs are drawn, sorted by
    :func:`_bidirectional_settled`, and cut into SOCIAL_QUERIES equal
    strata; one pair is drawn from each.  The sample keeps the uniform
    pairs' distribution of difficulty, but its median varies far less
    between seeds than that of SOCIAL_QUERIES plain draws."""
    rng = random.Random(seed)
    pool = []
    for _ in range(SOCIAL_QUERIES * SOCIAL_POOL):
        source, target = rng.sample(range(graph.num_nodes), 2)
        pool.append((_bidirectional_settled(graph, source, target),
                     source, target))
    pool.sort()
    return [pool[i * SOCIAL_POOL + rng.randrange(SOCIAL_POOL)][1:]
            for i in range(SOCIAL_QUERIES)]


def _road_pairs(seed: int, graph: Graph) -> List[Tuple[int, int]]:
    """A fixed set of ROAD_PAIRS stratified uniform pairs.

    All ordered pairs sorted by grid distance are cut into ROAD_PAIRS
    equal strata and one pair is drawn from each.  The set is part of the
    workload, like the grid; the seed only orders it, in each round.  (Drawing the set
    from the seed changed the engine's page growth per 120 queries from
    15 to 28 pages between seeds.)"""
    nodes = graph.num_nodes
    everything = sorted(
        ((s, t) for s in range(nodes) for t in range(nodes) if s != t),
        key=lambda pair: _grid_distance(*pair))
    width = len(everything) / ROAD_PAIRS
    draw = random.Random(GRAPH_SEED)
    return [everything[int(i * width) + draw.randrange(int(width))]
            for i in range(ROAD_PAIRS)]


SOCIAL = Embedded(
    "social-sqlite", "social", "sqlite", "BSDJ",
    lambda: power_law_graph(SOCIAL_NODES, seed=GRAPH_SEED), _social_pairs)
ROAD = Embedded(
    "road-minidb", "road", "minidb", "DJ",
    lambda: grid_graph(ROAD_SIDE, ROAD_SIDE, seed=GRAPH_SEED), _road_pairs,
    buffer_capacity=ROAD_BUFFER_PAGES, passes=ROAD_PASSES)


def run_embedded(workload: Embedded, seed: int, seconds: float,
                 trace: bool) -> Run:
    graph = workload.make_graph()
    verifier = Verifier({workload.graph_name: graph})
    pairs = workload.make_pairs(seed, graph)
    run = Run()
    if trace:
        _trace_embedded(workload, graph, workload.queries(pairs, seed, 0),
                        verifier, run)
        return run
    timed = Timed()
    deadline = perf_counter() + seconds
    while timed.rounds < MIN_ROUNDS or perf_counter() < deadline:
        # Spare set-ups first, then the one the round runs on.
        for spare in range(EMBEDDED_SPARE_SETUPS, -1, -1):
            loop_s = setup_loop_s()
            service, load_s = workload.open(graph)
            timed.setups.append((load_s, loop_s))
            if spare:
                service.close()
        try:
            store = service.store(workload.graph_name)
            if not timed.rounds:
                _check_buffer(workload, store, run)
            call = workload.call(service)
            outcomes = [ask(call, query) for query in
                        workload.queries(pairs, seed, timed.rounds)]
            store_bytes = _store_bytes(store)
        finally:
            service.close()
        run.add(outcomes, verifier)
        timed.outcomes.extend(outcomes)
        timed.rounds += 1
    end_to_end(run, timed, peak_rss_mb(), store_bytes, graph.num_edges)
    return run


def _check_buffer(workload: Embedded, store: GraphStore, run: Run) -> None:
    """road-minidb's buffer pool must be smaller than the engine."""
    counters = _engine_counters(store)
    if counters is None:
        return
    pages = counters[-1]
    if pages <= workload.buffer_capacity:
        raise RuntimeError(
            f"{workload.name}: engine holds {pages} pages, not more than "
            f"the {workload.buffer_capacity}-page buffer pool")
    run.info.append(f"engine pages at start of timed phase: {pages}; "
                    f"buffer_capacity: {workload.buffer_capacity}")


def _trace_embedded(workload: Embedded, graph: Graph,
                    fixed: List[TrafficQuery], verifier: Verifier,
                    run: Run) -> None:
    count = len(fixed)

    # Untraced pass: the overhead baseline, engine counters, pass times.
    service, _ = workload.open(graph)
    try:
        store = service.store(workload.graph_name)
        call = workload.call(service)
        plain: List[Outcome] = []
        deltas = [0] * 6
        for query in fixed:
            before = _engine_counters(store)
            plain.append(ask(call, query))
            after = _engine_counters(store)
            if before is not None and after is not None:
                deltas = [d + a - b for d, a, b in zip(deltas, after, before)]
    finally:
        service.close()
    run.add(plain, verifier)

    recorder = Recorder()
    service, _ = workload.open(graph, recorder)
    try:
        traced = [ask(workload.call(service), query) for query in fixed]
        counters = service_counters(service, count)
        recorder.uninstall()
    finally:
        service.close()
    run.add(traced, verifier)

    totals = service_totals(recorder)
    metrics = layer_metrics(totals, count)
    metrics.update(counters)
    metrics.update(resolved_methods(recorder.methods))
    metrics.update(zero_metrics(SHARD_METRICS + SEGTABLE_METRICS))
    metrics["graph.load_s"] = span_seconds(recorder, "add_graph")
    metrics["trace.overhead_pct"] = (
        latency_ms(traced, 50.0) / latency_ms(plain, 50.0) - 1.0) * 100.0
    hits, misses, evictions, reads, writes, pages = deltas
    fetches = hits + misses
    metrics.update({
        "storage.buffer_hit_ratio": hits / fetches if fetches else 0.0,
        "storage.fetches_per_query": fetches / count,
        "storage.evictions_per_query": evictions / count,
        "storage.disk_reads_per_query": reads / count,
        "storage.disk_writes_per_query": writes / count,
        "storage.pages_allocated_per_query": pages / count,
        "storage.pass_slowdown": 0.0,
    })
    if workload.passes > 1:
        length = count // workload.passes
        passes = [sum(o.scaled_s for o in plain[i:i + length])
                  for i in range(0, count, length)]
        metrics["storage.pass_slowdown"] = passes[-1] / passes[0]
        run.info.append("replay pass seconds (untraced, scaled): "
                        + ", ".join(f"{p:.3f}" for p in passes)
                        + f"; engine pages allocated over the round: {pages}")
    run.metrics.update(metrics)
    run.info.append(split_info(metrics, totals, count))


# ----------------------------------------------------------------------------- served


def _served_graphs() -> Dict[str, Graph]:
    rng = random.Random(GRAPH_SEED)
    return {
        "social": power_law_graph(SERVED_SOCIAL_NODES,
                                  seed=rng.randrange(2 ** 31)),
        "roads": grid_graph(SERVED_GRID_SIDE, SERVED_GRID_SIDE,
                            seed=rng.randrange(2 ** 31)),
    }


def build_catalog(path: str, graphs: Dict[str, Graph],
                  recorder: Optional[Recorder] = None) -> int:
    """Load each graph into a file-backed sqlite store, build its SegTable
    and record both in the catalog at ``path``.  Returns the number of
    SegTable rows built."""
    rows = 0
    with PathService(catalog_path=path, default_backend="sqlite") as service:
        if recorder is not None:
            recorder.trace_service(service)
        for name, graph in graphs.items():
            service.add_graph(name, graph, backend="sqlite",
                              db_path=os.path.join(path, f"{name}.db"))
            if recorder is not None:
                recorder.trace_store(service.store(name))
            rows += service.build_segtable(
                name, lthd=SERVED_LTHD).encoding_number
        if recorder is not None:
            recorder.uninstall()
    return rows


class Server:
    """A shard server subprocess, started from a catalog."""

    def __init__(self, catalog: str, spans_out: Optional[str] = None) -> None:
        if spans_out is None:
            command = [sys.executable, "-m", "repro.serve",
                       "--catalog", catalog, "--port", "0"]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       "--catalog", catalog, "--spans-out", spans_out]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        env=env, text=True)
        self.url = self._read_url()

    def _read_url(self) -> str:
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    SERVER_START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if " at http" not in line:
            self.stop()
            raise RuntimeError(f"shard server did not start: {line!r}")
        return line.rsplit(" at ", 1)[1].strip()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.process.pid))

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly on SIGINT) and wait
        until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Served:
    """A catalog, a server warm-started from it, and a router over it."""

    def __init__(self, path: str, graphs: Dict[str, Graph],
                 recorder: Optional[Recorder] = None,
                 spans_out: Optional[str] = None) -> None:
        os.makedirs(path)
        self.path = path
        self.segtable_rows = build_catalog(path, graphs, recorder)
        self.server = Server(path, spans_out)
        try:
            self.router = ShardRouter.open([self.server.url])
        except BaseException:
            self.server.stop()
            raise

    def close(self) -> None:
        self.router.close()
        self.server.stop()

    def store_bytes(self) -> float:
        return float(sum(os.path.getsize(os.path.join(self.path, name))
                         for name in os.listdir(self.path)
                         if ".db" in name))

    def call(self, query: TrafficQuery) -> object:
        method = "BSEG" if query.kind == "path" else "auto"
        return self.router.shortest_path(
            query.source, query.target, graph=query.graph, method=method,
            kind=query.kind, max_hops=query.max_hops)


def _served_queries(seed: int, graphs: Dict[str, Graph]
                    ) -> List[TrafficQuery]:
    """SERVED_QUERIES queries of Zipf traffic, in an order drawn from the
    seed.

    The queries are drawn once, by ``TrafficGenerator`` seeded with
    GRAPH_SEED, and are part of the workload, like the graphs; the seed
    shuffles them.  The generator draws every query independently, so any
    order of them is as likely a stream as the one drawn, and every order
    has the same cache misses.  (Drawing the queries from the seed spread
    p95 by 0.27 and throughput by 0.30 between five seeds: the ~220 misses
    in 1,000 queries cost from 8 to 160 ms each, and which ones a stream
    holds decided both.)"""
    nodes_of = {name: list(graph.nodes()) for name, graph in graphs.items()}
    queries = list(TrafficGenerator(TrafficConfig(seed=GRAPH_SEED),
                                    nodes_of).queries(SERVED_QUERIES))
    random.Random(seed).shuffle(queries)
    return queries


def run_served(seed: int, seconds: float, trace: bool, work: str) -> Run:
    graphs = _served_graphs()
    verifier = Verifier(graphs)
    edges = sum(graph.num_edges for graph in graphs.values())
    fixed = _served_queries(seed, graphs)
    run = Run()
    if trace:
        _trace_served(fixed, graphs, edges, verifier, work, run)
        return run
    timed = Timed()
    rss_mb = 0.0
    # A call crosses to the server's process, so it is scaled by the loop
    # timed in this process and in a peer process (see calibration.py).
    peer = Peer()
    try:
        deadline = perf_counter() + seconds
        while timed.rounds < MIN_ROUNDS or perf_counter() < deadline:
            # A spare set-up, then the one the round runs on.  Each starts
            # from an empty catalog, so the round's server's result cache
            # starts cold and every round sees the same hits.
            for spare in (True, False):
                loop_s = setup_loop_s()
                start = perf_counter()
                served = Served(os.path.join(
                    work, f"round{timed.rounds}{'-spare' if spare else ''}"),
                    graphs)
                timed.setups.append((perf_counter() - start, loop_s))
                if spare:
                    served.close()
                    shutil.rmtree(served.path)
            try:
                outcomes = [ask(served.call, query, peer.loop_s)
                            for query in fixed]
                rss_mb = max(rss_mb, served.server.peak_rss_mb())
                store_bytes = served.store_bytes()
            finally:
                served.close()
            shutil.rmtree(served.path)
            run.add(outcomes, verifier)
            timed.outcomes.extend(outcomes)
            timed.rounds += 1
    finally:
        peer.close()
    end_to_end(run, timed, rss_mb, store_bytes, edges)
    return run


def _trace_served(fixed: List[TrafficQuery], graphs: Dict[str, Graph],
                  edges: int, verifier: Verifier, work: str, run: Run) -> None:
    count = len(fixed)
    served = Served(os.path.join(work, "plain"), graphs)
    try:
        plain = [ask(served.call, query) for query in fixed]
    finally:
        served.close()
    run.add(plain, verifier)

    setup = Recorder()
    spans_out = os.path.join(work, "server-spans.json")
    served = Served(os.path.join(work, "traced"), graphs, recorder=setup,
                    spans_out=spans_out)
    recorder = Recorder()
    try:
        recorder.wrap(served.router, "shortest_path", "router")
        for shard in served.router.shards():
            client = served.router.transport(shard).client
            recorder.wrap(client, "shortest_path", "client")
        traced = [ask(served.call, query) for query in fixed]
        recorder.uninstall()
    finally:
        served.close()
    run.add(traced, verifier)
    with open(spans_out) as handle:
        server = json.load(handle)

    totals = server["totals"]
    caller = router_totals(recorder)
    metrics = layer_metrics(totals, count)
    metrics.update(server["counters"])
    metrics.update(resolved_methods(server["methods"]))
    metrics.update(zero_metrics(STORAGE_METRICS))
    metrics.update({
        "shard.router_self_ms": (caller["router_ms"] - caller["client_ms"])
        / count,
        "serve.client_ms": caller["client_ms"] / count,
        "serve.wire_ms": (caller["client_ms"] - totals["service_ms"]) / count,
        "graph.load_s": span_seconds(setup, "add_graph"),
        "segtable.build_s": span_seconds(setup, "build_segtable"),
        "segtable.rows_per_edge": served.segtable_rows / edges,
        "catalog.warm_start_s": server["warm_start_s"],
        "trace.overhead_pct": (latency_ms(traced, 50.0)
                               / latency_ms(plain, 50.0) - 1.0) * 100.0,
    })
    run.metrics.update(metrics)
    run.info.append(split_info(metrics, totals, count))
