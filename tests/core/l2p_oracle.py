"""Object-graph oracles for L2P-BCC (Algorithm 8).

The library runs L2P-BCC's seed-path search (Def. 6) and candidate
expansion on the ids of a frozen CSR.  These are the same two steps on the
object graph, driven by :class:`~repro.core.bc_index.BCIndex` lookups per
vertex and by :meth:`LabeledGraph.neighbors` order; the tests assert that
both substrates agree exactly.  :func:`object_l2p` composes them with the
object-graph LP-BCC loop into a complete object-only L2P-BCC, and
:func:`query_pairs` picks the query pairs both suites run.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.bc_index import BCIndex
from repro.core.bcc_model import BCCResult, resolve_query_labels
from repro.core.kcore import core_decomposition
from repro.core.local_search import DEFAULT_CANDIDATE_SIZE
from repro.core.lp_bcc import run_lp_bcc
from repro.core.path_weight import PathWeightConfig
from repro.exceptions import REASON_QUERY_DISCONNECTED, EmptyCommunityError
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex, ordered_induced_subgraph
from repro.graph.traversal import bfs_distances, shortest_path


def object_shortest_path(
    graph: LabeledGraph,
    source: Vertex,
    target: Vertex,
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    config: PathWeightConfig = PathWeightConfig(),
    max_labels_per_vertex: int = 16,
    max_expansions: int = 50000,
) -> Optional[List[Vertex]]:
    """The label-correcting Def. 6 search over the object graph.

    States ``(weight, push order, vertex, min coreness, min χ, path)`` are
    popped in heap order; the first pop at ``target`` ends the search.  A
    tripped ``max_expansions`` cap, or a heap emptied by the per-vertex
    state cap, returns the hop-count shortest path instead.
    """
    if source not in graph or target not in graph:
        return None
    delta_max = index.max_coreness()
    chi_max = index.max_butterfly_degree(left_label, right_label)

    def chi(v: Vertex) -> int:
        return index.butterfly_degree(v, left_label, right_label)

    def weight(hops: int, min_core: int, min_chi: int) -> float:
        return (
            hops
            + config.gamma1 * (delta_max - min_core)
            + config.gamma2 * (chi_max - min_chi)
        )

    counter = itertools.count()
    core, butterfly = index.coreness(source), chi(source)
    heap: List[Tuple[float, int, Vertex, int, int, Tuple[Vertex, ...]]] = [
        (weight(0, core, butterfly), next(counter), source, core, butterfly, (source,))
    ]
    labels: Dict[Vertex, List[Tuple[int, int, int]]] = {}

    def dominated(vertex: Vertex, hops: int, min_core: int, min_chi: int) -> bool:
        return any(
            other_hops <= hops and other_core >= min_core and other_chi >= min_chi
            for other_hops, other_core, other_chi in labels.get(vertex, [])
        )

    expansions = 0
    while heap:
        expansions += 1
        if expansions > max_expansions:
            return shortest_path(graph, source, target)
        _, _, vertex, min_core, min_chi, path = heapq.heappop(heap)
        if vertex == target:
            return list(path)
        hops = len(path) - 1
        if dominated(vertex, hops, min_core, min_chi):
            continue
        entry = labels.setdefault(vertex, [])
        if len(entry) >= max_labels_per_vertex:
            continue
        entry.append((hops, min_core, min_chi))
        for neighbor in graph.neighbors(vertex):
            if neighbor in path:
                continue
            new_core = min(min_core, index.coreness(neighbor))
            new_chi = min(min_chi, chi(neighbor))
            if dominated(neighbor, hops + 1, new_core, new_chi):
                continue
            heapq.heappush(
                heap,
                (
                    weight(hops + 1, new_core, new_chi),
                    next(counter),
                    neighbor,
                    new_core,
                    new_chi,
                    path + (neighbor,),
                ),
            )
    return shortest_path(graph, source, target)


def object_expand(
    graph: LabeledGraph,
    seed_path,
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    k_left: int,
    k_right: int,
    eta: int,
) -> Tuple[Set[Vertex], bool]:
    """Algorithm 8's BFS expansion over the object graph, and whether it closed."""
    admitted: Set[Vertex] = set()
    queue = deque()
    for vertex in seed_path:
        if vertex in graph and vertex not in admitted:
            admitted.add(vertex)
            queue.append(vertex)
    while queue and len(admitted) <= eta:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor in admitted:
                continue
            label = graph.label(neighbor)
            if label == left_label:
                if index.coreness(neighbor) < k_left:
                    continue
            elif label == right_label:
                if index.coreness(neighbor) < k_right:
                    continue
            else:
                continue
            admitted.add(neighbor)
            queue.append(neighbor)
    return admitted, not queue


def object_l2p(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
) -> BCCResult:
    """Algorithm 8 on object graphs only (raises :class:`EmptyCommunityError`)."""
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    index = BCIndex(graph)
    seed_path = object_shortest_path(
        graph, q_left, q_right, index, left_label, right_label, path_config
    )
    if seed_path is None:
        raise EmptyCommunityError("disconnected", reason=REASON_QUERY_DISCONNECTED)
    k_left = min(index.coreness(v) for v in seed_path if graph.label(v) == left_label)
    k_right = min(index.coreness(v) for v in seed_path if graph.label(v) == right_label)
    admitted, _ = object_expand(
        graph, seed_path, index, left_label, right_label, k_left, k_right, eta
    )
    candidate = ordered_induced_subgraph(graph, admitted)

    def auto_k(label: Label, query: Vertex) -> int:
        group = candidate.label_induced_subgraph(label)
        return core_decomposition(group).get(query, 0) if query in group else 0

    k1 = auto_k(left_label, q_left) if k1 is None else k1
    k2 = auto_k(right_label, q_right) if k2 is None else k2
    try:
        return run_lp_bcc(candidate, q_left, q_right, k1=k1, k2=k2, b=b, bulk_deletion=True)
    except EmptyCommunityError:
        if candidate.num_vertices() >= graph.num_vertices():
            raise
        return run_lp_bcc(
            graph,
            q_left,
            q_right,
            k1=None if k1 == 0 else k1,
            k2=None if k2 == 0 else k2,
            b=b,
            bulk_deletion=True,
        )


def query_pairs(graph: LabeledGraph, far_per_distance: int = 25, seed: int = 0):
    """Every cross edge, plus different-label pairs at distance 2, 3 and 4."""
    pairs = sorted(graph.cross_edges(), key=repr)
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    by_distance = {2: [], 3: [], 4: []}
    for source in vertices:
        for target, hops in sorted(bfs_distances(graph, source).items(), key=repr):
            if hops in by_distance and graph.label(target) != graph.label(source):
                by_distance[hops].append((source, target))
    for hops, candidates in sorted(by_distance.items()):
        rng.shuffle(candidates)
        pairs.extend(candidates[:far_per_distance])
    return pairs
