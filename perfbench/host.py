"""The program under test, hosted in its own process for one benchmark run.

``host.py http``  reads the graph files, hosts them in a default
``GraphDirectory`` with two replicas, prepares every shard engine and its
BCindex, serves the gateway on a loopback port and prints ``{"port": N}``.

``host.py batch`` serves ``BCCEngine.search_many`` batches over the same
files: the default batch backend, two workers, ``on_error="return"``.

Both then read one JSON command per line on stdin and answer one JSON line
on stdout: ``trace`` (install or remove the layer wrappers), ``report``
(layer summary, peak RSS, program counters) and ``stop``; the batch host
also takes ``setup`` and ``batch``.  Run by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from layers import BATCH_SITES, HTTP_SITES, SETUP_SITES, LayerTracer

from repro.api.config import SearchConfig
from repro.api.engine import BCCEngine
from repro.api.query import Query
from repro.graph import io as graph_io
from repro.server.app import Gateway
from repro.server.protocol import encode_response
from repro.serving.directory import GraphDirectory

GRAPH_NAME = "g"
REPLICAS = 2


def _maxrss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _reply(payload: object) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _engine_counters(engines) -> dict:
    totals: dict = {}
    for engine in engines:
        for name, value in engine.counters_snapshot().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _query(row) -> Query:
    method, pair, deadline_ms = row
    config = None if deadline_ms is None else SearchConfig(deadline_ms=deadline_ms)
    return Query(method, tuple(pair), config=config)


class HttpHost:
    def __init__(self, args) -> None:
        graph = graph_io.read_labeled_graph(args.edges, args.labels)
        self.directory = GraphDirectory()
        self.replicas = self.directory.add(GRAPH_NAME, graph, replicas=REPLICAS)
        for replica in range(self.replicas.replica_count()):
            sharded = self.replicas.replica_engine(replica)
            for shard in range(sharded.shard_count()):
                sharded.shard_engine(shard).ensure_index()
        self.gateway = Gateway(self.directory, port=0).start()
        _reply({"port": self.gateway.port})

    def shard_engines(self):
        for replica in range(self.replicas.replica_count()):
            sharded = self.replicas.replica_engine(replica)
            for shard in sharded.shards_built():
                yield sharded.shard_engine(shard)

    def report(self) -> dict:
        return {
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
            "gateway": self.gateway.counters_snapshot(),
            "engines": _engine_counters(self.shard_engines()),
        }

    def close(self) -> None:
        self.gateway.stop()


class BatchHost:
    def __init__(self, args) -> None:
        self.args = args
        self.engine = None

    def setup(self, command) -> dict:
        if self.engine is not None:
            self.engine.close_process_pool()
        start = time.perf_counter()
        graph = graph_io.read_labeled_graph(self.args.edges, self.args.labels)
        engine = BCCEngine(graph).prepare()
        engine.search_many(
            [_query(row) for row in command["rows"]],
            max_workers=self.args.workers,
            on_error="return",
        )
        setup_s = time.perf_counter() - start
        self.engine = engine
        return {"setup_s": setup_s, **self._transport()}

    def _transport(self) -> dict:
        return {
            "fallbacks": self.engine.counters_snapshot()["process_fallbacks"],
            "pool": self.engine.process_pool_stats(),
        }

    def batch(self, command) -> dict:
        queries = [_query(row) for row in command["rows"]]
        start = time.perf_counter()
        responses = self.engine.search_many(
            queries, max_workers=self.args.workers, on_error="return"
        )
        wall_s = time.perf_counter() - start
        return {
            "wall_s": wall_s,
            "responses": [encode_response(r) for r in responses],
            **self._transport(),
        }

    def report(self) -> dict:
        transport = self._transport()
        workers = [block["engine"] for block in transport["pool"]["workers"]]
        engines = _engine_counters([self.engine])
        for block in workers:
            for name, value in block.items():
                engines[name] = engines.get(name, 0) + value
        # Workers are waited for on close; RUSAGE_CHILDREN then holds the
        # peak RSS of the largest one.
        self.engine.close_process_pool()
        return {
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
            "worker_peak_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
            "engines": engines,
            **transport,
        }

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close_process_pool()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("http", "batch"))
    parser.add_argument("--edges", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sites = HTTP_SITES if args.mode == "http" else BATCH_SITES
    tracer = None
    if args.trace:
        # Installed before set-up so its layers are timed too.
        tracer = LayerTracer()
        tracer.install(SETUP_SITES + sites)
    host = (HttpHost if args.mode == "http" else BatchHost)(args)
    setup_summary = None
    setup_spans: list = []
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "stop":
                break
            if op == "setup":
                _reply(host.setup(command))
            elif op == "batch":
                _reply(host.batch(command))
            elif op == "trace":
                if tracer is None:
                    _reply({"ok": False})
                    continue
                if command["on"]:
                    tracer.reset()
                    tracer.install(sites)
                else:
                    setup_summary = tracer.summary()
                    setup_spans = tracer.spans
                    tracer.uninstall()
                    tracer.reset()
                _reply({"ok": True})
            elif op == "report":
                payload = host.report()
                if tracer is not None:
                    tracer.uninstall()
                    payload["setup_trace"] = setup_summary
                    payload["trace"] = tracer.summary()
                    if command.get("spans_path"):
                        tracer.write_spans(command["spans_path"], setup_spans)
                _reply(payload)
            else:
                raise ValueError(f"unknown op {op!r}")
    finally:
        host.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
