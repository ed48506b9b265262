"""Def. 6: the butterfly-core path weight and its shortest-path search.

The local search (Algorithm 8) seeds its candidate graph with a path between
the two query vertices.  A plain hop-count shortest path may run through
low-coreness, low-butterfly vertices; Def. 6 therefore scores a path ``P``
from ``s`` to ``t`` as::

    weight(P) = hops(P)
              + gamma1 * (delta_max - min_{v in P} delta(v))
              + gamma2 * (chi_max   - min_{v in P} chi(v))

where δ(v) is the (label-group) coreness and χ(v) the butterfly degree of
vertex ``v`` — both served in O(1) by the :class:`~repro.core.bc_index.BCIndex`
— and δ_max / χ_max are the corresponding maxima over the graph.  Smaller
shortfalls give smaller weights, so the search prefers paths through
well-connected liaison vertices.

The weight is *not* edge-additive (the two penalty terms depend on the
minimum over the whole path), so Dijkstra on edges does not apply directly.
:func:`butterfly_core_shortest_path` runs an exact label-correcting search
over states ``(vertex, min_coreness_so_far, min_butterfly_so_far)`` with
dominance pruning; the number of distinct (coreness, butterfly) minima per
vertex is small in practice.  Two caps bound the worst case: a per-vertex
cap on kept states (past it a state is dropped, so the search may miss the
optimum) and a cap on heap pops (past it the search stops and returns the
plain hop-count shortest path instead).

**Adjacent endpoints.**  Every path contains both endpoints, so its
minimum coreness and minimum χ are never above the endpoints' own, and
every path has at least one hop.  When ``t`` is a neighbour of ``s`` the
edge ``[s, t]`` therefore attains the least possible value of all three
terms, and any other path has two or more hops: ``[s, t]`` is the unique
minimum-weight path.  The search returns it without exploring.

**Ids.**  The search runs on the ids of the graph's frozen CSR with δ and
χ from :meth:`~repro.core.bc_index.BCIndex.id_arrays`.  Its neighbour
lists keep the :meth:`LabeledGraph.neighbors` order of the graph it was
frozen from, so states are pushed, and equal weights broken, exactly as a
search over that object graph would.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bc_index import BCIndex, IdArrays
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex


@dataclass(frozen=True)
class PathWeightConfig:
    """Weights of the coreness and butterfly penalties (paper default 0.5/0.5)."""

    gamma1: float = 0.5
    gamma2: float = 0.5

    def __post_init__(self) -> None:
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("gamma1 and gamma2 must be non-negative")


def path_weight(
    path: List[Vertex],
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    config: PathWeightConfig = PathWeightConfig(),
    delta_max: Optional[int] = None,
    chi_max: Optional[int] = None,
) -> float:
    """Return the butterfly-core weight of an explicit path (Def. 6)."""
    if not path:
        return float("inf")
    if delta_max is None:
        delta_max = index.max_coreness()
    if chi_max is None:
        chi_max = index.max_butterfly_degree(left_label, right_label)
    hops = len(path) - 1
    min_core = min(index.coreness(v) for v in path)
    min_chi = min(index.butterfly_degree(v, left_label, right_label) for v in path)
    return (
        hops
        + config.gamma1 * (delta_max - min_core)
        + config.gamma2 * (chi_max - min_chi)
    )


def butterfly_core_shortest_path(
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
    """Return a minimum butterfly-core-weight path from ``source`` to ``target``.

    Parameters
    ----------
    graph:
        The graph to search (typically the full input graph).
    source, target:
        Endpoints; ``None`` is returned when they are disconnected or
        either is not in ``graph``.
    index:
        A built :class:`BCIndex` providing δ(v) and χ(v) lookups.
    left_label, right_label:
        The label pair defining which butterfly degrees to use.
    config:
        Penalty weights γ1 and γ2.
    max_labels_per_vertex:
        Dominance-pruning cap: at most this many non-dominated states are
        expanded per vertex; further states reaching the vertex are
        dropped, so past the cap the returned path may not be of minimum
        weight.  The default is ample for the candidate sizes used in the
        evaluation.
    max_expansions:
        Hard cap on the number of heap pops; when reached the search stops
        and returns the plain hop-count shortest path, so the caller always
        gets *some* connecting path when one exists.  The same fallback
        applies if the caps leave no state reaching ``target``.
    """
    from repro.graph.traversal import shortest_path as plain_shortest_path

    if source not in graph or target not in graph:
        return None
    csr = graph.freeze()
    arrays = index.id_arrays(left_label, right_label, csr)
    if target in graph.neighbors(source):
        # The adjacency lemma (module docstring): the edge is the optimum.
        return [source, target]
    ids = _search_ids(
        csr.adjacency_slices(),
        arrays,
        config,
        csr.id_of(source),
        csr.id_of(target),
        max_labels_per_vertex,
        max_expansions,
    )
    if ids is None:
        return plain_shortest_path(graph, source, target)
    return [csr.vertex_of(v) for v in ids]


def _search_ids(
    slices,
    arrays: IdArrays,
    config: PathWeightConfig,
    source: int,
    target: int,
    max_labels_per_vertex: int,
    max_expansions: int,
) -> Optional[Tuple[int, ...]]:
    """The label-correcting search on ids; ``None`` when a cap ends it.

    Pops states in ``(weight, push order)`` order; the first state popped
    at ``target`` is a minimum-weight path, because weights never decrease
    along a path.
    """
    delta, chi = arrays.delta, arrays.chi
    delta_max, chi_max = arrays.delta_max, arrays.chi_max

    def weight(hops: int, min_core: int, min_chi: int) -> float:
        return (
            hops
            + config.gamma1 * (delta_max - min_core)
            + config.gamma2 * (chi_max - min_chi)
        )

    counter = itertools.count()
    heap: List[Tuple[float, int, int, int, int, Tuple[int, ...]]] = [
        (
            weight(0, delta[source], chi[source]),
            next(counter),
            source,
            delta[source],
            chi[source],
            (source,),
        )
    ]
    # Non-dominated (hops, min_core, min_chi) states per vertex.
    labels: Dict[int, List[Tuple[int, int, int]]] = {}

    def dominated(vertex: int, hops: int, min_core: int, min_chi: int) -> bool:
        for other_hops, other_core, other_chi in labels.get(vertex, ()):
            if (
                other_hops <= hops
                and other_core >= min_core
                and other_chi >= min_chi
            ):
                return True
        return False

    expansions = 0
    while heap:
        expansions += 1
        if expansions > max_expansions:
            return None
        _, _, vertex, min_core, min_chi, path = heapq.heappop(heap)
        if vertex == target:
            return path
        hops = len(path) - 1
        if dominated(vertex, hops, min_core, min_chi):
            continue
        entry = labels.setdefault(vertex, [])
        if len(entry) >= max_labels_per_vertex:
            continue
        entry.append((hops, min_core, min_chi))
        new_hops = hops + 1
        for neighbor in slices[vertex]:
            if neighbor in path:
                continue
            new_core = min(min_core, delta[neighbor])
            new_chi = min(min_chi, chi[neighbor])
            if dominated(neighbor, new_hops, new_core, new_chi):
                continue
            heapq.heappush(
                heap,
                (
                    weight(new_hops, new_core, new_chi),
                    next(counter),
                    neighbor,
                    new_core,
                    new_chi,
                    path + (neighbor,),
                ),
            )
    return None
