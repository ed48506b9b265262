"""Per-layer timing for the traced benchmark run.

The traced run wraps public functions of the program at the sites where
their callers look them up (a module attribute, or a method on a class),
records one span per call -- layer, start, end, parent span, request id --
and folds the spans into per-layer self time and exact call counts.  Spans
stay in memory; ``write_spans`` puts them on disk when the run ends.

Only the benchmark installs these wrappers, and only in a traced run; the
program's own ``repro.obs`` tracer stays off in every run.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute or "Class.method", layer).  Each entry names the place
# a caller resolves the function, so the wrapper sits on the real call path.
KERNEL_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.methods", "run_online_bcc", "core.kernel.online-bcc"),
    ("repro.api.methods", "run_lp_bcc", "core.kernel.lp-bcc"),
    ("repro.api.methods", "run_l2p_bcc", "core.kernel.l2p-bcc"),
    ("repro.api.methods", "run_psa", "baselines.psa"),
    ("repro.api.methods", "run_ctc", "baselines.ctc"),
    ("repro.core.online_bcc", "find_g0", "core.find_g0"),
    ("repro.core.lp_bcc", "find_g0", "core.find_g0"),
    ("repro.core.find_g0", "k_core_containing", "core.kcore"),
    ("repro.core.local_search", "core_decomposition", "core.kcore"),
    ("repro.core.bc_index", "core_decomposition", "core.kcore"),
    ("repro.baselines.psa", "core_decomposition", "core.kcore"),
    ("repro.baselines.psa", "k_core_vertices", "core.kcore"),
    ("repro.core.find_g0", "butterfly_degrees", "core.butterfly"),
    ("repro.core.maintenance", "butterfly_degrees", "core.butterfly"),
    ("repro.core.bc_index", "butterfly_degrees", "core.butterfly"),
    ("repro.graph.labeled_graph", "LabeledGraph.induced_subgraph",
     "graph.induced_subgraph"),
    ("repro.core.find_g0", "union_graphs", "graph.union_graphs"),
)

SETUP_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.io", "read_labeled_graph", "graph.read"),
    ("repro.graph.labeled_graph", "LabeledGraph.freeze", "graph.freeze"),
    ("repro.core.bc_index", "BCIndex.build", "core.bc_index_build"),
    ("repro.parallel.pool", "ProcessWorkerPool.start", "parallel.spawn"),
)

# The gateway process: one do_POST span is the root of each request.
HTTP_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.server.app", "_GatewayRequestHandler.do_POST", "server.handler"),
    ("repro.server.app", "json_loads", "server.codec"),
    ("repro.server.app", "json_dumps", "server.codec"),
    ("repro.server.app", "decode_query", "server.codec"),
    ("repro.server.app", "decode_config", "server.codec"),
    ("repro.server.app", "encode_response", "server.codec"),
    ("repro.serving.directory", "GraphDirectory.serve", "serving.directory"),
    ("repro.server.replicas", "ReplicaSet.search", "server.replicas"),
    ("repro.serving.sharded", "ShardedBCCEngine.search", "serving.sharded"),
    ("repro.api.engine", "BCCEngine.search", "api.engine"),
) + KERNEL_SITES

# The batch host: one search_many span is the root of each batch; kernels
# run in worker processes and are timed from each row's returned timings.
BATCH_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.engine", "BCCEngine.search_many", "api.batch"),
    ("repro.parallel.pool", "ProcessWorkerPool.run_batch", "parallel.run_batch"),
) + KERNEL_SITES

# The client process of the HTTP workloads.
CLIENT_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.server.client", "GatewayClient.search", "server.client"),
    ("repro.server.client", "json_dumps", "server.codec"),
    ("repro.server.client", "json_loads", "server.codec"),
    ("repro.server.client", "encode_query", "server.codec"),
    ("repro.server.client", "encode_config", "server.codec"),
    ("repro.server.client", "decode_response", "server.codec"),
)

Hook = Callable[["LayerTracer", object], None]


def _engine_search_hook(tracer: "LayerTracer", response: object) -> None:
    """Cache outcome and the kernel's own counters of one engine search."""
    timings = getattr(response, "timings", {}) or {}
    if timings.get("cache_hit"):
        tracer.count("api.cache_hits")
        return
    tracer.count("api.cache_misses")
    inst = getattr(response, "instrumentation", None)
    if inst is not None:
        tracer.count("core.iterations", inst.iterations)
        tracer.count("core.vertices_deleted", inst.vertices_deleted)
        tracer.count("core.query_distance_s", inst.query_distance_seconds)
        tracer.count("core.leader_update_s", inst.leader_update_seconds)
    if getattr(response, "status", None) == "ok":
        tracer.count("core.answer_vertices", len(response.vertices))


def _find_g0_hook(tracer: "LayerTracer", g0: object) -> None:
    if g0 is not None:
        tracer.count("core.g0_vertices", g0.community.num_vertices())


HOOKS: Dict[str, Hook] = {
    "api.engine": _engine_search_hook,
    "core.find_g0": _find_g0_hook,
}


class LayerTracer:
    """Wraps call sites, records spans in memory, and folds them by layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []
        self._requests = 0
        # [layer, start, end, parent index, request id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()

    # -- installation ---------------------------------------------------
    def install(self, sites: Sequence[Tuple[str, str, str]]) -> None:
        for module_name, path, layer in sites:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            if any(o is owner and a == attr for o, a, _ in self._installed):
                continue
            # The raw class attribute, so a wrapped method still binds.
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            setattr(owner, attr, self._wrap(original, layer))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        """Drop recorded spans and counts (installed wrappers stay)."""
        with self._lock:
            self.spans = []
            self.counts = Counter()
            self._requests = 0

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        hook = HOOKS.get(layer)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                spans = self.spans
                if stack and stack[-1][0] is spans:
                    parent = stack[-1][1]
                    request = spans[parent][4]
                else:
                    parent = -1
                    request = self._requests
                    self._requests += 1
                index = len(spans)
                span = [layer, time.perf_counter(), None, parent, request]
                spans.append(span)
            stack.append((spans, index))
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- folding --------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Per-layer self/inclusive seconds and calls, roots, and counts."""
        with self._lock:
            spans = list(self.spans)
            counts = dict(self.counts)
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
        )
        roots: Counter = Counter()
        for i, (layer, start, end, parent, _) in enumerate(spans):
            if end is None:
                continue
            entry = layers[layer]
            entry["self_s"] += (end - start) - child_time[i]
            entry["incl_s"] += end - start
            entry["calls"] += 1
            if parent < 0:
                roots[layer] += 1
        return {"layers": dict(layers), "roots": dict(roots), "counts": counts}

    def write_spans(self, path: str, setup_spans: Sequence[list] = ()) -> None:
        """Write the set-up spans and the recorded spans as one JSON file."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["layer", "start", "end", "parent", "request"],
                 "setup_spans": list(setup_spans), "spans": spans},
                handle,
            )


def merge_summaries(*summaries: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Sum several processes' summaries into one."""
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
    )
    roots: Counter = Counter()
    counts: Counter = Counter()
    for summary in summaries:
        if not summary:
            continue
        for layer, entry in summary["layers"].items():
            for key, value in entry.items():
                layers[layer][key] += value
        roots.update(summary["roots"])
        counts.update(summary["counts"])
    return {"layers": dict(layers), "roots": dict(roots), "counts": dict(counts)}
