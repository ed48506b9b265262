"""Old-vs-new kernel timings: object-graph vs CSR fast-path backend.

Times the three hot kernels of the BCC pipeline — butterfly-degree counting
(Algorithm 3), k-core extraction (Algorithm 2's peeling primitive, swept
over k as Fig. 8 does) and the BFS distance sweep (Algorithm 1/5) — on the
seven Table-3 synthetic networks, comparing the pre-existing object-graph
implementations against the CSR fast path of :mod:`repro.graph.csr`.
Every timed pair is also checked for exact value equality, so the benchmark
doubles as an end-to-end parity test.

No caller picks a kernel's substrate, so the benchmark reaches each twin
the way the parity suite does: the object side runs under
:func:`object_kernels` (every ``CSR_*_MIN_EDGES`` threshold out of reach,
on a graph that holds no CSR snapshot) and the CSR side calls the
:mod:`repro.graph.csr` kernels directly.

Results are written to ``benchmarks/results/BENCH_backend.json`` (the
results directory is git-ignored) and echoed as a table.  Usage::

    PYTHONPATH=src python benchmarks/bench_backend_speed.py          # full
    PYTHONPATH=src python benchmarks/bench_backend_speed.py --smoke  # CI

``--smoke`` runs every network at a reduced scale with a single repetition:
it asserts parity and writes the JSON but does not enforce the speed-up
floors (CI runners are too noisy for timing assertions).  The full mode
records, for the largest network, whether the PR's acceptance floors
(butterfly >= 3x, k-core and BFS >= 2x) were met.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

from repro.core import butterfly, kcore  # noqa: E402
from repro.core.butterfly import butterfly_degrees  # noqa: E402
from repro.core.kcore import core_decomposition, k_core_vertices  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.graph.bipartite import extract_label_bipartite  # noqa: E402
from repro.graph.csr import (  # noqa: E402
    CSRBipartiteView,
    CSRGraph,
    csr_bfs_distances,
    csr_butterfly_degrees,
    csr_k_core_alive,
)
from repro.graph.traversal import bfs_distances  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_backend.json"

# The seven evaluation networks of Table 3 at benchmark scale.  The full
# mode is larger than the figure-sweep scale of benchmarks/conftest.py so
# the kernels dominate interpreter noise; --smoke shrinks everything.
FULL_SCALES: Dict[str, Dict] = {
    "baidu-1": {},
    "baidu-2": {},
    "amazon": {"communities": 14, "community_size": 24},
    "dblp": {"communities": 12, "community_size": 32},
    "youtube": {"communities": 10, "community_size": 40},
    "livejournal": {"communities": 10, "community_size": 64},
    "orkut": {"communities": 8, "community_size": 128},
}
SMOKE_SCALES: Dict[str, Dict] = {
    "baidu-1": {},
    "baidu-2": {},
    "amazon": {"communities": 6, "community_size": 10},
    "dblp": {"communities": 6, "community_size": 12},
    "youtube": {"communities": 5, "community_size": 14},
    "livejournal": {"communities": 5, "community_size": 16},
    "orkut": {"communities": 4, "community_size": 20},
}
#: The largest (densest) Table-3 synthetic network; acceptance floors are
#: evaluated on it.
LARGEST = "orkut"
FLOORS = {"butterfly": 3.0, "kcore_sweep": 2.0, "bfs_sweep": 2.0}
SEED = 2021
MAX_SWEEP_KS = 24
MAX_BFS_SOURCES = 100

#: The size thresholds that send the timed object-facing kernels to CSR.
CSR_THRESHOLDS = (
    (butterfly, "CSR_BUTTERFLY_MIN_EDGES"),
    (kcore, "CSR_CORE_MIN_EDGES"),
    (kcore, "CSR_PEEL_MIN_EDGES"),
)


@contextmanager
def object_kernels():
    """Keep the size-picked kernels on their object code for the block."""
    saved = [(module, name, getattr(module, name)) for module, name in CSR_THRESHOLDS]
    for module, name, _ in saved:
        setattr(module, name, 1 << 62)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Return the best wall time of ``repeats`` runs of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_network(name: str, kwargs: Dict, repeats: int) -> Dict:
    """Time old-vs-new kernels on one Table-3 network; assert exact parity."""
    bundle = load_dataset(name, seed=SEED, **kwargs)
    graph = bundle.graph
    label_a, label_b = sorted(graph.labels(), key=str)[:2]
    view = extract_label_bipartite(graph, label_a, label_b)
    row: Dict = {
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "bipartite_edges": view.num_edges(),
    }

    # -- butterfly counting (Algorithm 3) -------------------------------
    def butterfly_old():
        with object_kernels():
            return butterfly_degrees(view)

    def butterfly_new():
        frozen = CSRBipartiteView.freeze(view)  # freeze included
        vertex_of = frozen.vertex_of
        return {vertex_of(i): c for i, c in enumerate(csr_butterfly_degrees(frozen))}

    assert butterfly_new() == butterfly_old(), f"butterfly parity broke on {name}"
    row["butterfly"] = {
        "old_s": best_of(butterfly_old, repeats),
        "new_s": best_of(butterfly_new, repeats),
    }

    # -- k-core extraction sweep (Algorithm 2 / Fig. 8) -----------------
    # The object sides below need a graph with no warm snapshot: the CSR
    # sides freeze uncached copies (CSRGraph.freeze), never the graph.
    assert not graph.has_frozen()
    with object_kernels():
        coreness_values = sorted(set(core_decomposition(graph).values()))
    if len(coreness_values) > MAX_SWEEP_KS:
        step = len(coreness_values) / MAX_SWEEP_KS
        coreness_values = [
            coreness_values[int(i * step)] for i in range(MAX_SWEEP_KS)
        ]
    ks = [k for k in coreness_values if k > 0] or [1]

    def kcore_old():
        with object_kernels():
            return [k_core_vertices(graph, k) for k in ks]

    def kcore_new():
        frozen = CSRGraph.freeze(graph)  # cold snapshot every run
        frozen.coreness()
        vertices = frozen.interner.vertices()
        return [
            set(compress(vertices, csr_k_core_alive(frozen, k))) for k in ks
        ]

    assert kcore_new() == kcore_old(), f"k-core parity broke on {name}"
    row["kcore_sweep"] = {
        "k_values": ks,
        "old_s": best_of(kcore_old, repeats),
        "new_s": best_of(kcore_new, repeats),
    }

    # -- single coreness decomposition (BCindex build step) -------------
    def coreness_old():
        with object_kernels():
            return core_decomposition(graph)

    def coreness_new():
        frozen = CSRGraph.freeze(graph)
        vertex_of = frozen.vertex_of
        return {vertex_of(i): c for i, c in enumerate(frozen.coreness())}

    assert coreness_new() == coreness_old(), f"coreness parity broke on {name}"
    row["coreness"] = {
        "old_s": best_of(coreness_old, repeats),
        "new_s": best_of(coreness_new, repeats),
    }

    # -- BFS distance sweep (Algorithms 1 and 5) ------------------------
    vertices = list(graph.vertices())
    stride = max(1, len(vertices) // MAX_BFS_SOURCES)
    sources = vertices[::stride][:MAX_BFS_SOURCES]

    def bfs_old():
        return [bfs_distances(graph, s) for s in sources]  # no snapshot: object

    def bfs_new():
        frozen = CSRGraph.freeze(graph)  # freeze amortized over the sweep
        vertex_of = frozen.vertex_of
        out = []
        for s in sources:
            dist = csr_bfs_distances(frozen, frozen.id_of(s))
            out.append({vertex_of(i): d for i, d in enumerate(dist) if d >= 0})
        return out

    assert bfs_new() == bfs_old(), f"BFS parity broke on {name}"
    assert not graph.has_frozen()
    row["bfs_sweep"] = {
        "sources": len(sources),
        "old_s": best_of(bfs_old, repeats),
        "new_s": best_of(bfs_new, repeats),
    }

    for metric in ("butterfly", "kcore_sweep", "coreness", "bfs_sweep"):
        cell = row[metric]
        cell["speedup"] = round(cell["old_s"] / cell["new_s"], 2) if cell["new_s"] else 0.0
    return row


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale, one repetition, parity-only (for CI)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repetitions (best-of)"
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else FULL_SCALES
    repeats = args.repeats or (1 if args.smoke else 3)

    networks: Dict[str, Dict] = {}
    for name, kwargs in scales.items():
        started = time.perf_counter()
        networks[name] = bench_network(name, kwargs, repeats)
        print(
            f"[{name}] |V|={networks[name]['num_vertices']} "
            f"|E|={networks[name]['num_edges']} "
            f"({time.perf_counter() - started:.1f}s)"
        )

    largest = networks[LARGEST]
    floor_check = {
        metric: {
            "floor": floor,
            "speedup": largest[metric]["speedup"],
            "met": largest[metric]["speedup"] >= floor,
        }
        for metric, floor in FLOORS.items()
    }
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "repeats": repeats,
        "largest_network": LARGEST,
        "networks": networks,
        "floor_check_on_largest": floor_check,
    }
    write_results(payload, RESULTS_PATH)

    header = f"{'network':<12} {'kernel':<12} {'old (ms)':>10} {'new (ms)':>10} {'speedup':>8}"
    print("\n" + header)
    print("-" * len(header))
    for name, row in networks.items():
        for metric in ("butterfly", "kcore_sweep", "coreness", "bfs_sweep"):
            cell = row[metric]
            print(
                f"{name:<12} {metric:<12} {cell['old_s'] * 1000:>10.2f} "
                f"{cell['new_s'] * 1000:>10.2f} {cell['speedup']:>7.2f}x"
            )
    print(f"\n[written to {RESULTS_PATH}]")

    if not args.smoke:
        for metric, check in floor_check.items():
            status = "OK" if check["met"] else "BELOW FLOOR"
            print(
                f"floor {metric} on {LARGEST}: {check['speedup']:.2f}x "
                f"(>= {check['floor']}x required) {status}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
