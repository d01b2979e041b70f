"""Run ``python -m repro.serve`` with the benchmark's span wrappers installed.

Same defaults as the shipped server (its own argument parser supplies
them); additionally times the catalog warm start, wraps the service and
every store, and on SIGINT writes the service-side span sums and counters
to ``--spans-out`` before shutting down::

    python perfbench/serve_traced.py --catalog DIR --spans-out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    from repro.serve.__main__ import build_parser
    from repro.serve.server import ShardServer
    from repro.service.session import PathService
    from repro.shard.spec import default_shard_name

    from tracing import Recorder, service_counters, service_totals

    ours = argparse.ArgumentParser()
    ours.add_argument("--catalog", required=True)
    ours.add_argument("--spans-out", required=True)
    mine = ours.parse_args()
    args = build_parser().parse_args(["--catalog", mine.catalog,
                                      "--port", "0"])
    shard_id = args.shard_id or default_shard_name(args.catalog)

    start = perf_counter()
    service = PathService.open(args.catalog, strict=not args.no_strict,
                               shard_id=shard_id, cache_size=args.cache_size)
    warm_start_s = perf_counter() - start
    recorder = Recorder()
    recorder.trace_service(service)
    for graph in service.graphs():
        recorder.trace_store(service.store(graph))
    server = ShardServer(service, host=args.host, port=args.port,
                         own_service=True, quiet=not args.verbose)
    server.start()
    print(f"serving shard {shard_id!r} traced at {server.url}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        totals = service_totals(recorder)
        report = {
            "totals": totals,
            "counters": service_counters(service, max(1, totals["queries"])),
            "methods": dict(recorder.methods),
            "warm_start_s": warm_start_s,
        }
        recorder.uninstall()
        server.close()
        with open(mine.spans_out, "w") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
