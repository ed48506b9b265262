"""Benchmark of the butterfly-core community search system, one workload per run.

    python3 perfbench/run.py --workload cold-http --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``hot-http``       open loop: seeded Poisson arrivals at a fixed rate over
                     32 repeated (method, pair) queries with Zipf-like
                     frequencies, all warmed first -- almost every request
                     is a result-cache hit.  Runnable, but not in
                     BENCHMARK.json: its millisecond latencies moved by half
                     from run to run whenever the hypervisor took CPU.
* ``cold-http``      closed loop, one client: one query per cross-label
                     pair, methods rotating online-bcc -> lp-bcc -> l2p-bcc,
                     so the result cache never hits.
* ``batch-deadline`` in-process ``BCCEngine.search_many`` on the default
                     (process) transport: every pair by all five methods, a
                     quarter of the pairs under a budget below any query's
                     cost.

The graph is ``load_dataset("dblp", <graph seed>, communities=12,
community_size=32)``, written to edge and label files before timing and read
by the program with ``repro.graph.io.read_labeled_graph``.  ``--seed`` drives
every trace (pair order, Zipf ranks, arrivals, budgeted pairs); the graph
seed stays 2021 unless ``--graph-seed`` names another, because graph-to-graph
cost differences across dblp seeds are wider than any bound the benchmark
could keep.  The program runs in its own process (``perfbench/host.py``);
the HTTP clients run here, so client-side Python does not share the
server's interpreter lock.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
run that measures half its time untraced and half with the layer wrappers of
``perfbench/layers.py`` installed, and prints the per-layer metrics, the
per-layer table, the unaccounted remainder and the tracing overhead.

Every run checks the program's outputs (``validate_bcc`` on each BCC answer,
connectivity of baseline answers, wire-payload equality with an in-process
``BCCEngine`` on a sample, an answer digest stable across runs of one seed).
A failed check prints a failure, not numbers, and exits 1.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

GRAPH_SEED = 2021
GRAPH_KWARGS = {"communities": 12, "community_size": 32}
GRAPH_NAME = "g"
WORKERS = 2                  # nproc of the reference host: clients, workers
SETUP_REPEATS = 5            # set-ups per run; setup_s is their median
BCC_METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")
ALL_METHODS = ("psa", "ctc") + BCC_METHODS

# A third of the ~1,000 q/s closed-loop capacity: at half of it, queueing for
# the two client connections doubled the p99 whenever the host ran slow.
HOT_RATE_QPS = 300.0
HOT_KEYS = 32
# Zipf exponent of the hot keys' frequencies.  With s = 1 the top key takes
# a quarter of the traffic, and its answer size alone moved the median by a
# quarter from seed to seed; s = 0.5 spreads the traffic over more keys.
HOT_ZIPF_S = 0.5
HOT_SLO_MS = 10.0
# One closed-loop client.  The server answers on one interpreter lock, so a
# second client only interleaves two queries on it: that doubled every
# latency, and over ten seeds its p50 spread 12-30% against 8-11% with one.
COLD_CLIENTS = 1
COLD_SLO_MS = 100.0          # about the p99 of one query with one client
COLD_WARM_PAIRS = 6
BATCH_PAIRS = 12             # pairs per batch; x5 methods = rows per batch
BATCH_BUDGETED = 3           # pairs per batch under the budget
BATCH_BUDGET_MS = 1.0        # below any query's cost
BATCH_SLO_MS = 1000.0
BATCH_WARM_PAIRS = 2
DIGEST_PREFIX = 120          # answers covered by the cross-run digest
REFERENCE_SAMPLE = 24        # answers compared with an in-process engine
WINDOWS = 6                  # sub-windows of a run's measured phase

WORKLOADS = ("hot-http", "cold-http", "batch-deadline")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("goodput_qps", "1/s"),
    ("slo_attainment", "share"),
    ("answered_share", "share"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("server.client_roundtrip_ms", "ms"),
    ("server.handler_ms", "ms"),
    ("server.outside_handler_ms", "ms"),
    ("server.codec_ms", "ms"),
    ("server.replicas_ms", "ms"),
    ("server.rejections", "count"),
    ("serving.directory_ms", "ms"),
    ("serving.sharded_ms", "ms"),
    ("api.engine_ms", "ms"),
    ("api.cache_hit_rate", "share"),
    ("core.kernel_ms.online-bcc", "ms"),
    ("core.kernel_ms.lp-bcc", "ms"),
    ("core.kernel_ms.l2p-bcc", "ms"),
    ("core.find_g0_ms", "ms"),
    ("core.find_g0_calls", "count"),
    ("core.kcore_ms", "ms"),
    ("core.butterfly_ms", "ms"),
    ("core.butterfly_counting_calls", "count"),
    ("core.query_distance_ms", "ms"),
    ("core.leader_update_ms", "ms"),
    ("core.iterations", "count"),
    ("core.vertices_deleted", "count"),
    ("core.g0_vertices_per_answer_vertex", "ratio"),
    ("graph.induced_subgraph_ms", "ms"),
    ("graph.induced_subgraph_calls", "count"),
    ("graph.union_graphs_ms", "ms"),
    ("baselines.ctc_ms", "ms"),
    ("baselines.psa_ms", "ms"),
    ("api.deadline_rows", "count"),
    ("parallel.deadline_kills", "count"),
    ("parallel.tasks", "count"),
    ("parallel.crashes", "count"),
    ("parallel.respawns", "count"),
    ("parallel.fallbacks", "count"),
    ("parallel.worker_busy_share", "share"),
    ("graph.read_ms", "ms"),
    ("graph.freeze_ms", "ms"),
    ("core.bc_index_build_ms", "ms"),
    ("parallel.spawn_ms", "ms"),
    ("api.index_builds", "count"),
    ("api.group_builds", "count"),
    ("api.csr_freezes", "count"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_share", "share"),
)


class CheckFailed(Exception):
    """An output check failed: the run reports a failure, not numbers."""


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def write_graph(graph_seed: int) -> Tuple[Path, Path]:
    from repro.datasets import load_dataset
    from repro.graph.io import write_edge_list, write_label_file

    folder = OUT / f"graph-dblp-{graph_seed}"
    folder.mkdir(parents=True, exist_ok=True)
    graph = load_dataset("dblp", graph_seed, **GRAPH_KWARGS).graph
    edges, labels = folder / "edges.txt", folder / "labels.txt"
    write_edge_list(graph, edges)
    write_label_file(graph, labels)
    return edges, labels


def cross_pairs(graph) -> List[Tuple[int, int]]:
    """Every cross-label edge as a (left, right) query pair, sorted."""
    pairs = []
    for u, v in graph.edges():
        if graph.label(u) != graph.label(v):
            if str(graph.label(u)) > str(graph.label(v)):
                u, v = v, u
            pairs.append((u, v))
    return sorted(pairs)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def canonical(payload: Dict[str, object]) -> str:
    """A wire payload without its timings, as a stable string."""
    return json.dumps(
        {k: v for k, v in payload.items() if k != "timings"}, sort_keys=True
    )


# ----------------------------------------------------------------------
# the program's process
# ----------------------------------------------------------------------
class Host:
    """One ``host.py`` process; stopped and waited for on every path."""

    def __init__(
        self, mode: str, files: Tuple[Path, Path], trace: bool,
        cpu: Optional[int] = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, str(BENCH / "host.py"), mode,
            "--edges", str(files[0]), "--labels", str(files[1]),
            "--workers", str(WORKERS),
        ] + (["--trace"] if trace else [])
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if cpu is not None:
            # Still importing: nothing has run yet on the wrong CPU.
            os.sched_setaffinity(self.process.pid, {cpu})

    def read(self) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"host exited with code {self.process.wait()}")
        return json.loads(line)

    def call(self, **command: object) -> Dict[str, object]:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.read()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write('{"op": "stop"}\n')
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Checker:
    """Validates answers against the graph and an in-process engine."""

    def __init__(self, files: Tuple[Path, Path]) -> None:
        from repro import BCCEngine
        from repro.graph.io import read_labeled_graph

        self.graph = read_labeled_graph(*files)
        self.engine = BCCEngine(self.graph).prepare()
        self.failures: List[str] = []
        self.validated = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def parameters(self, method: str, pair, vertices):
        from repro import Query
        from repro.core import BCCParameters

        if method == "l2p-bcc":
            # L2P-BCC resolves unset k inside its local candidate graph,
            # which only exists during the search; check the answer against
            # the largest k1/k2 it claims (its minimum same-label degree).
            community = self.graph.induced_subgraph(vertices)
            sides = {}
            for v in community.vertices():
                same = sum(
                    1 for w in community.neighbors(v)
                    if community.label(w) == community.label(v)
                )
                label = community.label(v)
                sides[label] = min(sides.get(label, same), same)
            k1 = sides.get(self.graph.label(pair[0]), 0)
            k2 = sides.get(self.graph.label(pair[1]), 0)
            if k1 < 1 or k2 < 1:
                self.fail(f"{method} {pair}: answer has a side without a core")
            return BCCParameters(k1=max(k1, 1), k2=max(k2, 1), b=1)
        resolved = self.engine.explain(Query(method, pair))["resolved"]
        return BCCParameters(k1=resolved["k1"], k2=resolved["k2"], b=resolved["b"])

    def answer(self, method: str, pair, payload: Dict[str, object]) -> None:
        """Validate one wire answer (status ok) for ``pair`` by ``method``."""
        from repro.core import validate_bcc
        from repro.graph.traversal import are_connected

        vertices = payload["vertices"]
        if list(payload["query"]) != list(pair):
            self.fail(f"{method} {pair}: answer is for query {payload['query']}")
            return
        self.validated += 1
        if method in BCC_METHODS:
            community = self.graph.induced_subgraph(vertices)
            violations = validate_bcc(
                community, self.parameters(method, pair, vertices), list(pair)
            )
            if violations:
                self.fail(f"{method} {pair}: {violations[:2]}")
        else:
            community = self.graph.induced_subgraph(vertices)
            if not all(q in community for q in pair) or not are_connected(
                community, list(pair)
            ):
                self.fail(f"{method} {pair}: baseline answer misses or splits Q")

    def reference(self, method: str, pair, payload: Dict[str, object]) -> None:
        """The wire payload must equal the in-process engine's, timings aside."""
        from repro import Query
        from repro.server.protocol import encode_response

        expected = encode_response(self.engine.search(Query(method, pair)))
        if canonical(expected) != canonical(payload):
            self.fail(f"{method} {pair}: HTTP/process answer differs in-process")


def check_digest(key: str, items: Sequence[str]) -> str:
    """Record or compare the answer digest of this workload and seed."""
    digest = hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digest:
        raise CheckFailed(
            f"answer digest {digest[:12]} differs from an earlier run's "
            f"{known[key][:12]} for {key}"
        )
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return digest


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
def split_cpus() -> Optional[int]:
    """Pin this client process to the first CPU it may use and return the
    last one for the server, so the load generator never takes the server's
    core (the scheduler otherwise co-locates them in some runs and not in
    others, which moved the hot-http median by half).  ``None`` on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def start_http_host(files, trace: bool) -> Tuple[List[float], Host]:
    """Launch the gateway SETUP_REPEATS times; keep the last one running."""
    from repro.server.client import GatewayClient

    server_cpu = split_cpus()
    setups: List[float] = []
    host: Optional[Host] = None
    for _ in range(SETUP_REPEATS):
        if host is not None:
            host.stop()
        start = time.perf_counter()
        host = Host("http", files, trace, cpu=server_cpu)
        try:
            port = host.read()["port"]
            client = GatewayClient(f"http://127.0.0.1:{port}")
            while client.healthz().get("status") != "ok":
                time.sleep(0.005)
            client.close()
        except BaseException:
            host.stop()
            raise
        setups.append(time.perf_counter() - start)
    host.url = f"http://127.0.0.1:{port}"
    return setups, host


class Recorder:
    """Per-request records of one measured phase, shared by client threads."""

    def __init__(self, start: float = 0.0) -> None:
        self.start = start
        self.lock = threading.Lock()
        # (index, due, sent, done, payload or None, method, pair)
        self.rows: List[tuple] = []
        self.errors: List[str] = []

    def add(self, row: tuple) -> None:
        with self.lock:
            self.rows.append(row)


def send(client, recorder: Recorder, index, due, method, pair, keep: bool) -> None:
    from repro import Query
    from repro.server.protocol import encode_response

    sent = time.perf_counter()
    try:
        response = client.search(GRAPH_NAME, Query(method, pair))
        payload = encode_response(response) if keep else answer_signature(
            response.status, response.vertices
        )
    except Exception as exc:  # a failed request is recorded, not fatal
        payload = None
        with recorder.lock:
            recorder.errors.append(repr(exc))
    recorder.add((index, due, sent, time.perf_counter(), payload, method, pair))


def answer_signature(status: str, vertices) -> int:
    """A compact stand-in for an answer, for comparing repeated requests."""
    return hash((status, frozenset(vertices)))


def run_threads(target, count: int = WORKERS) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def hot_phase(client, keys, weights, rng, seconds: float) -> Recorder:
    """Open loop: Poisson arrivals at HOT_RATE_QPS, timed from due time."""
    schedule = []
    offset = rng.expovariate(HOT_RATE_QPS)
    while offset < seconds:
        schedule.append((offset, rng.choices(range(len(keys)), weights)[0]))
        offset += rng.expovariate(HOT_RATE_QPS)
    cursor = iter(range(len(schedule)))
    cursor_lock = threading.Lock()
    start = time.perf_counter() + 0.02
    recorder = Recorder(start)

    def loop(_):
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + schedule[index][0]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            method, pair = keys[schedule[index][1]]
            send(client, recorder, index, due, method, pair, keep=False)

    run_threads(loop)
    return recorder


def cold_phase(client, trace, position: List[int], seconds: float) -> Recorder:
    """Closed loop: each client sends its next query when the last returns."""
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + seconds
    recorder = Recorder(start)

    def loop(_):
        while time.perf_counter() < end:
            with lock:
                index = position[0]
                position[0] += 1
            if index >= len(trace):
                return
            method, pair = trace[index]
            send(client, recorder, index, time.perf_counter(), method, pair, keep=True)

    run_threads(loop, COLD_CLIENTS)
    return recorder


def http_metrics(recorder: Recorder, slo_ms: float) -> Dict[str, float]:
    rows = recorder.rows
    answered = [r for r in rows if r[4] is not None]
    latencies = [(r[3] - r[1]) * 1000.0 for r in answered]
    within = sum(1 for lat in latencies if lat <= slo_ms)
    span = max(r[3] for r in rows) - recorder.start
    return {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "throughput_qps": len(answered) / span,
        "goodput_qps": within / span,
        "slo_attainment": within / len(rows),
        "answered_share": len(answered) / len(rows),
    }


def tail_percentiles(recorder: Recorder) -> Dict[str, float]:
    """The p99 and p99.9, reported but not bounded: host stalls of tens of
    milliseconds hit a few requests in a hundred, clustered in time, so from
    run to run they swing the p99 by a third while the p90 stays put."""
    latencies = [(r[3] - r[1]) * 1000.0 for r in recorder.rows if r[4] is not None]
    return {"p99": percentile(latencies, 99), "p99.9": percentile(latencies, 99.9)}


def http_windows(recorder: Recorder, slo_ms: float) -> List[Dict[str, float]]:
    """Metrics of WINDOWS consecutive equal-count slices of the phase."""
    rows = sorted(recorder.rows, key=lambda r: r[1])
    size = max(1, len(rows) // WINDOWS)
    windows = []
    for w in range(min(WINDOWS, len(rows))):
        chunk = rows[w * size:(w + 1) * size if w < WINDOWS - 1 else len(rows)]
        part = Recorder(start=chunk[0][1])
        part.rows = chunk
        windows.append(http_metrics(part, slo_ms))
    return windows


def window_spread(windows: List[Dict[str, float]]) -> Dict[str, List[float]]:
    """The quartiles of each metric over a phase's windows."""
    return {name: list(quartiles([w[name] for w in windows])) for name in windows[0]}


def robust(windows: List[Dict[str, float]], report: Dict) -> Dict[str, float]:
    """Each metric is its median over the phase's windows, so a host stall
    shorter than half the run does not move it; the quartiles over windows
    go to the report as the within-run spread."""
    report["window_spread"] = window_spread(windows)
    return {name: statistics.median(w[name] for w in windows) for name in windows[0]}


def run_hot(args, files, pairs, checker: Checker, report: Dict) -> Dict:
    from repro.server.client import GatewayClient

    rng = random.Random(args.seed)
    keys = [
        (BCC_METHODS[i % len(BCC_METHODS)], pair)
        for i, pair in enumerate(rng.sample(pairs, HOT_KEYS))
    ]
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(HOT_KEYS)]
    setups, host = start_http_host(files, args.trace)
    client = GatewayClient(host.url)
    try:
        # Warm all 32 keys on both replicas: concurrent clients spread the
        # requests over the least-loaded replicas.
        warm = Recorder()

        def warm_loop(i):
            local = random.Random(args.seed * 7 + i)
            order = list(range(HOT_KEYS))
            for _ in range(4):
                local.shuffle(order)
                for k in order:
                    send(client, warm, k, time.perf_counter(), *keys[k], keep=True)

        run_threads(warm_loop)
        phases = measure_phases(
            args, host,
            lambda seconds: hot_phase(client, keys, weights, rng, seconds),
        )
        final = host.call(op="report", spans_path=spans_path(args))
    finally:
        client.close()
        host.stop()

    # Checks: every answer of a key equals its first; each key is a valid
    # BCC equal to the in-process engine's answer.
    first: Dict[int, Dict] = {}
    for row in warm.rows:
        if row[4] is None:
            raise CheckFailed(f"warm-up request failed: {warm.errors[:1]}")
        first.setdefault(row[0], row[4])
    for k, (method, pair) in enumerate(keys):
        if first[k]["status"] == "ok":
            checker.answer(method, pair, first[k])
        checker.reference(method, pair, first[k])
    expected = {
        keys[k]: answer_signature(first[k]["status"], first[k]["vertices"])
        for k in range(HOT_KEYS)
    }
    failed = 0
    for recorder in phases:
        for _, _, _, _, signature, method, pair in recorder.rows:
            if signature is None:
                failed += 1
            elif signature != expected[(method, pair)]:
                checker.fail(f"{method} {pair}: answer changed between requests")
    digest = check_digest(
        f"hot-http:{args.seed}:{args.graph_seed}",
        [canonical(first[k]) for k in range(HOT_KEYS)],
    )
    main = phases[0]
    metrics = robust(http_windows(main, HOT_SLO_MS), report)
    lags = [(r[2] - r[1]) * 1000.0 for r in main.rows]
    report["tail_ms"] = tail_percentiles(main)
    report["generator_lag_ms"] = {
        "p50": percentile(lags, 50), "p99": percentile(lags, 99), "max": max(lags)
    }
    report["params"] = {
        "rate_qps": HOT_RATE_QPS, "keys": HOT_KEYS, "zipf_s": HOT_ZIPF_S,
        "clients": WORKERS, "slo_ms": HOT_SLO_MS, "replicas": 2,
        "result_cache": "default (128 entries)",
    }
    return finish_http(args, metrics, setups, final, phases, failed, digest, report)


def run_cold(args, files, pairs, checker: Checker, report: Dict) -> Dict:
    from repro.server.client import GatewayClient

    rng = random.Random(args.seed)
    order = list(pairs)
    rng.shuffle(order)
    warm_pairs, order = order[-COLD_WARM_PAIRS:], order[:-COLD_WARM_PAIRS]
    # One query per pair; a program fast enough to finish the pairs goes on
    # with the methods rotated by one, so no (method, pair) ever repeats.
    trace = [
        (BCC_METHODS[(i + rotation) % len(BCC_METHODS)], p)
        for rotation in range(len(BCC_METHODS))
        for i, p in enumerate(order)
    ]
    setups, host = start_http_host(files, args.trace)
    client = GatewayClient(host.url)
    position = [0]
    try:
        warm = Recorder()
        for i, pair in enumerate(warm_pairs):
            send(client, warm, i, time.perf_counter(),
                 BCC_METHODS[i % len(BCC_METHODS)], pair, keep=True)
        phases = measure_phases(
            args, host, lambda seconds: cold_phase(client, trace, position, seconds)
        )
        final = host.call(op="report", spans_path=spans_path(args))
    finally:
        client.close()
        host.stop()

    failed = 0
    answers: Dict[int, Dict] = {}
    for recorder in phases:
        for index, _, _, _, payload, method, pair in recorder.rows:
            if payload is None:
                failed += 1
                continue
            answers[index] = payload
            if payload["status"] == "ok":
                checker.answer(method, pair, payload)
    if any(i not in answers for i in range(DIGEST_PREFIX)):
        raise CheckFailed(f"fewer than {DIGEST_PREFIX} leading queries answered")
    sample = random.Random(args.seed + 1).sample(
        sorted(answers), min(REFERENCE_SAMPLE, len(answers))
    )
    for index in sample:
        checker.reference(*trace[index], answers[index])
    digest = check_digest(
        f"cold-http:{args.seed}:{args.graph_seed}",
        [canonical(answers[i]) for i in range(DIGEST_PREFIX)],
    )
    main = phases[0]
    metrics = robust(http_windows(main, COLD_SLO_MS), report)
    report["tail_ms"] = tail_percentiles(main)
    report["params"] = {
        "clients": COLD_CLIENTS, "slo_ms": COLD_SLO_MS, "replicas": 2,
        "distinct_queries": len(trace), "methods": list(BCC_METHODS),
        "result_cache": "default (128 entries)",
    }
    return finish_http(args, metrics, setups, final, phases, failed, digest, report)


@contextlib.contextmanager
def steady_client():
    """Keep the load generator on time.  Client threads hand over the
    interpreter lock every 0.5 ms instead of 5 ms, so a thread due to send
    does not wait behind another's response parsing, and the collector does
    not pause the client mid-phase.  The program's processes are untouched."""
    interval = sys.getswitchinterval()
    gc.collect()
    gc.disable()
    sys.setswitchinterval(0.0005)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


def measure_phases(args, host: Host, phase) -> List[Recorder]:
    """Untraced: one phase of --seconds.  Traced: half untraced, half traced."""
    if not args.trace:
        with steady_client():
            return [phase(args.seconds)]
    host.call(op="trace", on=False)
    with steady_client():
        untraced = phase(args.seconds / 2.0)
    from layers import CLIENT_SITES, LayerTracer

    client_tracer = LayerTracer()
    host.call(op="trace", on=True)
    client_tracer.install(CLIENT_SITES)
    try:
        with steady_client():
            traced = phase(args.seconds / 2.0)
    finally:
        client_tracer.uninstall()
    traced.client_trace = client_tracer.summary()
    return [untraced, traced]


def spans_path(args) -> Optional[str]:
    if not args.trace:
        return None
    return str(OUT / f"spans-{args.workload}-seed{args.seed}.json")


def finish_http(args, metrics, setups, final, phases, failed, digest, report):
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = final["peak_rss_mb"]
    report["setup_runs_s"] = setups
    report["digest"] = digest
    report["program"] = {"gateway": final["gateway"], "engines": final["engines"]}
    report["attempted"] = sum(len(p.rows) for p in phases)
    report["failed"] = failed
    report["metrics"] = metrics
    if args.trace:
        report["layers"] = http_layers(final, phases)
    return report


# ----------------------------------------------------------------------
# batch workload
# ----------------------------------------------------------------------
def batch_rows(pairs, budgeted) -> List[list]:
    return [
        [method, list(pair), BATCH_BUDGET_MS if i in budgeted else None]
        for i, pair in enumerate(pairs)
        for method in ALL_METHODS
    ]


def run_batch(args, files, pairs, checker: Checker, report: Dict) -> Dict:
    rng = random.Random(args.seed)
    order = list(pairs)
    rng.shuffle(order)
    warm_pairs, order = order[-BATCH_WARM_PAIRS:], order[:-BATCH_WARM_PAIRS]
    warm = [[m, list(p), None] for p in warm_pairs for m in ("online-bcc", "l2p-bcc")]
    host = Host("batch", files, args.trace)
    batches: List[Dict] = []
    setups: List[float] = []
    phase_bounds = []
    try:
        for _ in range(SETUP_REPEATS):
            reply = host.call(op="setup", rows=warm)
            transport_guard(reply)
            setups.append(reply["setup_s"])
        cursor = 0
        phase_seconds = [args.seconds] if not args.trace else [args.seconds / 2.0] * 2
        for phase, seconds in enumerate(phase_seconds):
            if args.trace:
                host.call(op="trace", on=phase == 1)
            start = time.perf_counter()
            first_batch = len(batches)
            # Stop before a batch that would overrun the phase by more than
            # half its expected length.
            while (
                len(batches) == first_batch
                or time.perf_counter() - start
                + 0.5 * statistics.fmean(b["client_s"] for b in batches) < seconds
            ):
                chunk = order[cursor:cursor + BATCH_PAIRS]
                cursor += BATCH_PAIRS
                if len(chunk) < BATCH_PAIRS:
                    raise CheckFailed("ran out of distinct pairs for batches")
                budgeted = set(rng.sample(range(BATCH_PAIRS), BATCH_BUDGETED))
                rows = batch_rows(chunk, budgeted)
                sent = time.perf_counter()
                reply = host.call(op="batch", rows=rows)
                reply["client_s"] = time.perf_counter() - sent
                transport_guard(reply)
                reply["rows"] = rows
                batches.append(reply)
            phase_bounds.append((first_batch, len(batches)))
        final = host.call(op="report", spans_path=spans_path(args))
    finally:
        host.stop()

    failed = 0
    deadline_rows = 0
    for reply in batches:
        for (method, pair, budget), payload in zip(reply["rows"], reply["responses"]):
            pair = tuple(pair)
            if payload["status"] == "error":
                if budget is not None and payload["reason"] == "deadline-exceeded":
                    deadline_rows += 1
                else:
                    failed += 1
            elif payload["status"] == "ok":
                checker.answer(method, pair, payload)
    sample_rng = random.Random(args.seed + 1)
    first_rows = [
        (row, payload)
        for row, payload in zip(batches[0]["rows"], batches[0]["responses"])
        if row[2] is None
    ]
    for row, payload in sample_rng.sample(first_rows, min(8, len(first_rows))):
        checker.reference(row[0], tuple(row[1]), payload)
    digest = check_digest(
        f"batch-deadline:{args.seed}:{args.graph_seed}",
        [canonical(payload) for _, payload in first_rows],
    )

    main = batches[phase_bounds[0][0]:phase_bounds[0][1]]
    # Pooled over the phase, not a median over batches: a batch holds only 12
    # pairs and a pair's cost carries over all five methods, so one batch's
    # percentiles and rate hang on a handful of pairs (per-batch p50 quartiles
    # 40-65 ms within one run), while the pooled figures rest on ~100 pairs.
    report["window_spread"] = window_spread([batch_metrics([b]) for b in main])
    metrics = batch_metrics(main)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = final["peak_rss_mb"] + final["worker_peak_rss_mb"]
    report["setup_runs_s"] = setups
    report["digest"] = digest
    report["batches"] = [
        {"rows": len(b["rows"]), "wall_s": b["wall_s"]} for b in batches
    ]
    report["program"] = {
        "engines": final["engines"], "pool": final["pool"]["counters"],
        "parent_peak_rss_mb": final["peak_rss_mb"],
        "worker_peak_rss_mb": final["worker_peak_rss_mb"],
    }
    report["transport"] = "process" if final["pool"] else "thread"
    report["params"] = {
        "pairs_per_batch": BATCH_PAIRS, "rows_per_batch": BATCH_PAIRS * 5,
        "budgeted_pairs_per_batch": BATCH_BUDGETED,
        "budget_ms": BATCH_BUDGET_MS, "methods": list(ALL_METHODS),
        "max_workers": WORKERS, "on_error": "return", "backend": "auto",
        "slo_ms": BATCH_SLO_MS,
    }
    report["attempted"] = sum(len(b["rows"]) for b in batches)
    report["failed"] = failed
    report["deadline_rows"] = deadline_rows
    report["metrics"] = metrics
    if args.trace:
        report["layers"] = batch_layers(final, batches, phase_bounds)
    return report


def transport_guard(reply: Dict) -> None:
    """A thread-transport number must never pass for a process one."""
    if reply["fallbacks"] != 0 or not reply["pool"]:
        raise CheckFailed(
            f"batch fell back from the process transport "
            f"(process_fallbacks={reply['fallbacks']}, pool={bool(reply['pool'])})"
        )


def row_seconds(payload: Dict) -> float:
    from repro.server.protocol import decode_float

    return decode_float(payload["timings"].get("query_seconds", 0.0))


def batch_metrics(batches: Sequence[Dict]) -> Dict[str, float]:
    wall = sum(b["wall_s"] for b in batches)
    rows = [(row, payload) for b in batches for row, payload in zip(b["rows"], b["responses"])]
    answered = [(r, p) for r, p in rows if p["status"] != "error"]
    free = [(r, p) for r, p in answered if r[2] is None]
    latencies = [row_seconds(p) * 1000.0 for _, p in free]
    within = sum(1 for _, p in answered if row_seconds(p) * 1000.0 <= BATCH_SLO_MS)
    return {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "throughput_qps": len(answered) / wall,
        "goodput_qps": len(free) / wall,
        "slo_attainment": within / len(rows),
        "answered_share": len(answered) / len(rows),
    }


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _layer(summary: Dict, name: str, key: str) -> float:
    return summary["layers"].get(name, {}).get(key, 0.0)


def core_layers(trace: Dict, per: float) -> Dict[str, float]:
    """Kernel-side layers per request (or row) from one process's spans."""
    counts = trace["counts"]
    metrics = {}
    for method in BCC_METHODS:
        calls = _layer(trace, f"core.kernel.{method}", "calls")
        metrics[f"core.kernel_ms.{method}"] = (
            _layer(trace, f"core.kernel.{method}", "incl_s") * 1000.0 / calls
            if calls else 0.0
        )
    answer_vertices = counts.get("core.answer_vertices", 0)
    metrics.update({
        "core.find_g0_ms": _layer(trace, "core.find_g0", "self_s") * 1000.0 / per,
        "core.find_g0_calls": _layer(trace, "core.find_g0", "calls") / per,
        "core.kcore_ms": _layer(trace, "core.kcore", "self_s") * 1000.0 / per,
        "core.butterfly_ms": _layer(trace, "core.butterfly", "self_s") * 1000.0 / per,
        "core.butterfly_counting_calls": _layer(trace, "core.butterfly", "calls") / per,
        "core.query_distance_ms": counts.get("core.query_distance_s", 0.0) * 1000.0 / per,
        "core.leader_update_ms": counts.get("core.leader_update_s", 0.0) * 1000.0 / per,
        "core.iterations": counts.get("core.iterations", 0) / per,
        "core.vertices_deleted": counts.get("core.vertices_deleted", 0) / per,
        "core.g0_vertices_per_answer_vertex": (
            counts.get("core.g0_vertices", 0) / answer_vertices
            if answer_vertices else 0.0
        ),
        "graph.induced_subgraph_ms":
            _layer(trace, "graph.induced_subgraph", "self_s") * 1000.0 / per,
        "graph.induced_subgraph_calls":
            _layer(trace, "graph.induced_subgraph", "calls") / per,
        "graph.union_graphs_ms":
            _layer(trace, "graph.union_graphs", "self_s") * 1000.0 / per,
    })
    return metrics


def setup_layers(setup: Dict, setups: int, engines: Dict) -> Dict[str, float]:
    return {
        "graph.read_ms": _layer(setup, "graph.read", "incl_s") * 1000.0 / setups,
        "graph.freeze_ms": _layer(setup, "graph.freeze", "incl_s") * 1000.0 / setups,
        "core.bc_index_build_ms":
            _layer(setup, "core.bc_index_build", "incl_s") * 1000.0 / setups,
        "parallel.spawn_ms": _layer(setup, "parallel.spawn", "incl_s") * 1000.0 / setups,
        "api.index_builds": engines.get("index_builds", 0),
        "api.group_builds": engines.get("group_builds", 0),
        "api.csr_freezes": engines.get("csr_freezes", 0),
    }


def overhead(untraced: float, traced: float) -> float:
    return traced / untraced - 1.0 if untraced else 0.0


def http_layers(final, phases) -> Dict[str, object]:
    from layers import merge_summaries

    untraced, traced = phases
    server = final["trace"]
    client = traced.client_trace
    requests = max(1, len([r for r in traced.rows if r[4] is not None]))
    roundtrip = statistics.fmean((r[3] - r[2]) * 1000.0 for r in traced.rows)
    before = statistics.fmean((r[3] - r[2]) * 1000.0 for r in untraced.rows)
    handler = _layer(server, "server.handler", "incl_s") * 1000.0 / requests
    client_codec = _layer(client, "server.codec", "self_s") * 1000.0 / requests
    server_codec = _layer(server, "server.codec", "self_s") * 1000.0 / requests
    counts = server["counts"]
    hits = counts.get("api.cache_hits", 0)
    misses = counts.get("api.cache_misses", 0)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({
        "server.client_roundtrip_ms": roundtrip,
        "server.handler_ms": handler,
        "server.outside_handler_ms": roundtrip - handler,
        "server.codec_ms": client_codec + server_codec,
        "server.replicas_ms": _layer(server, "server.replicas", "self_s") * 1000.0 / requests,
        "server.rejections": final["gateway"].get("rejections", 0),
        "serving.directory_ms":
            _layer(server, "serving.directory", "self_s") * 1000.0 / requests,
        "serving.sharded_ms":
            _layer(server, "serving.sharded", "self_s") * 1000.0 / requests,
        "api.engine_ms": _layer(server, "api.engine", "self_s") * 1000.0 / requests,
        "api.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace.unaccounted_ms": roundtrip - client_codec - handler,
        "trace.overhead_share": overhead(before, roundtrip),
    })
    metrics.update(core_layers(server, requests))
    metrics.update(setup_layers(final["setup_trace"], 1, final["engines"]))
    table = merge_summaries(server, client)
    return {"metrics": metrics, "table": table, "per": requests,
            "wall_ms": roundtrip, "unit": "request"}


def batch_layers(final, batches, phase_bounds) -> Dict[str, object]:
    untraced = batches[phase_bounds[0][0]:phase_bounds[0][1]]
    traced = batches[phase_bounds[1][0]:phase_bounds[1][1]]
    trace = final["trace"]
    rows = [(r, p) for b in traced for r, p in zip(b["rows"], b["responses"])]
    per = max(1, len(rows))
    wall = sum(b["wall_s"] for b in traced)
    client_wall = sum(b["client_s"] for b in traced)

    def mean_ms(method):
        values = [row_seconds(p) * 1000.0 for r, p in rows
                  if r[0] == method and p["status"] != "error"]
        return statistics.fmean(values) if values else 0.0

    pool = final["pool"]["counters"]
    busy = sum(row_seconds(p) for _, p in rows)
    worker_ms = {m: mean_ms(m) for m in ALL_METHODS}
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({f"core.kernel_ms.{m}": worker_ms[m] for m in BCC_METHODS})
    metrics.update({
        "baselines.ctc_ms": worker_ms["ctc"],
        "baselines.psa_ms": worker_ms["psa"],
        "core.iterations": sum(p.get("iterations", 0) for _, p in rows) / per,
        "api.cache_hit_rate": cache_rate(final["engines"]),
        "api.deadline_rows": sum(
            1 for r, p in rows
            if r[2] is not None and p.get("reason") == "deadline-exceeded"
        ),
        "parallel.deadline_kills": pool.get("deadline_kills", 0),
        "parallel.tasks": pool.get("tasks", 0),
        "parallel.crashes": pool.get("crashes", 0),
        "parallel.respawns": pool.get("respawns", 0),
        "parallel.fallbacks": final["fallbacks"],
        "parallel.worker_busy_share": busy / (WORKERS * wall) if wall else 0.0,
        "trace.unaccounted_ms":
            (client_wall - _layer(trace, "api.batch", "incl_s")) * 1000.0 / per,
        "trace.overhead_share": overhead(
            sum(b["wall_s"] for b in untraced) / sum(len(b["rows"]) for b in untraced),
            wall / per,
        ),
    })
    metrics.update(setup_layers(final["setup_trace"], SETUP_REPEATS, final["engines"]))
    return {"metrics": metrics, "table": trace, "per": per, "worker_ms": worker_ms,
            "wall_ms": client_wall * 1000.0 / per, "unit": "row"}


def cache_rate(engines: Dict) -> float:
    hits = engines.get("result_cache_hits", 0)
    misses = engines.get("result_cache_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def provenance(args, graph, pairs) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git unavailable)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "graph": {
            "dataset": "dblp", "graph_seed": args.graph_seed, **GRAPH_KWARGS,
            "vertices": graph.num_vertices(), "edges": graph.num_edges(),
            "cross_pairs": len(pairs),
        },
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pinning": "client on the first CPU, server on the last"
        if args.workload != "batch-deadline" and len(os.sched_getaffinity(0)) > 1
        else "none",
        "git_sha": sha,
        "transport": "http keep-alive, thread replicas"
        if args.workload != "batch-deadline" else "process (checked)",
        "obs_tracer": "off",
    }


def print_layer_table(layers: Dict[str, object]) -> None:
    """Self time per layer; with the unaccounted rest it sums to the wall."""
    per, unit, wall = layers["per"], layers["unit"], layers["wall_ms"]
    print(f"per-layer self time, ms per {unit} "
          f"(client wall {wall:.3f} ms over {per} {unit}s):")
    entries = sorted(layers["table"]["layers"].items(), key=lambda i: -i[1]["self_s"])
    rows = [
        (name, entry["self_s"] * 1000.0 / per, entry["calls"] / per)
        for name, entry in entries
        # The client's root span contains the server's time; the server's
        # layers and the unaccounted rest split it instead.
        if name != "server.client"
    ]
    rows.append(("(unaccounted)", layers["metrics"]["trace.unaccounted_ms"], 0.0))
    for name, self_ms, calls in rows:
        print(f"  {name:28s} {self_ms:10.4f} ms  {calls:8.3f} calls/{unit}  "
              f"{self_ms / wall if wall else 0:7.2%}")
    for name, value in layers.get("worker_ms", {}).items():
        print(f"  worker {name:21s} {value:10.4f} ms per {name} row "
              f"(in parallel, from row timings)")
    print(f"  tracing overhead vs untraced half: "
          f"{layers['metrics']['trace.overhead_share']:+.2%}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph-seed", type=int, default=GRAPH_SEED,
                        help="dataset seed of the graph (default 2021)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    files = write_graph(args.graph_seed)
    checker = Checker(files)
    pairs = cross_pairs(checker.graph)
    report: Dict[str, object] = {"provenance": provenance(args, checker.graph, pairs)}
    runner = {"hot-http": run_hot, "cold-http": run_cold,
              "batch-deadline": run_batch}[args.workload]
    try:
        runner(args, files, pairs, checker, report)
        if checker.failures:
            raise CheckFailed("; ".join(checker.failures))
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": int(report.get("attempted", 1)) or 1,
                          "failed": int(report.get("failed", 0)), "metrics": {}}))
        return 1

    report["checks"] = {"answers_validated": checker.validated, "passed": True}
    print(json.dumps(report["provenance"], sort_keys=True))
    spread = report.get("window_spread", {})
    for name, unit in END_TO_END:
        value = report["metrics"][name]
        extra = ""
        if name == "setup_s":
            extra = f"  (runs {', '.join(f'{s:.3f}' for s in report['setup_runs_s'])})"
        elif name in spread:
            q1, _, q3 = spread[name]
            extra = f"  (within-run window quartiles {q1:.4g} .. {q3:.4g})"
        print(f"{name:16s} {value:12.4f} {unit}{extra}")
    if "tail_ms" in report:
        tail = report["tail_ms"]
        print(f"latency tail     p99 {tail['p99']:.3f} ms, p99.9 {tail['p99.9']:.3f} ms "
              f"(not bounded)")
    if "generator_lag_ms" in report:
        lag = report["generator_lag_ms"]
        print(f"generator lag    p50 {lag['p50']:.3f} ms, p99 {lag['p99']:.3f} ms, "
              f"max {lag['max']:.3f} ms")
    if args.workload == "batch-deadline":
        print(f"parallel.fallbacks = {report['program']['engines'].get('process_fallbacks', 0)}"
              f", transport = {report['transport']}, deadline rows = {report['deadline_rows']}")
    if args.trace:
        print_layer_table(report["layers"])
        metrics = {name: {"value": report["layers"]["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": report["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": True, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
