"""Algorithm 1: the greedy Online-BCC search (2-approximation).

The search first builds the maximal candidate community ``G0`` containing the
query vertices (Algorithm 2), then repeatedly deletes the vertex (or, with
bulk deletion, all vertices) farthest from the query pair and restores the
BCC structure (Algorithm 4).  Every intermediate graph that is a valid BCC
containing the query is a candidate answer; the one with the smallest query
distance is returned, which Theorem 3 shows has diameter at most twice the
optimum.

The implementation keeps a single working graph and records only the vertex
set of the best candidate seen so far: every intermediate graph is an induced
subgraph of ``G0`` (the search deletes vertices, never individual edges), so
the winning community can be re-induced from ``G0`` at the end.  On a
prepared engine the working graph is not a graph at all: ``G0`` is a cached
view (:mod:`repro.core.g0_view`) and the loop shrinks a set of live ids over
the engine's frozen CSR.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Set

from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.find_g0 import find_g0
from repro.core.g0_view import G0ViewTable, community_result, no_candidate
from repro.core.maintenance import MaskedCommunity, maintain_bcc
from repro.core.query_distance import masked_distance_sweep
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_COMMUNITY,
    EmptyCommunityError,
)
from repro.graph.csr import masked_bfs
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import (
    farthest_vertices,
    graph_query_distance,
    query_distances,
)


def online_bcc_search(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[BCCResult]:
    """Run the Online-BCC greedy search (Algorithm 1).

    This is the legacy one-shot entry point; it delegates to a throwaway
    :class:`repro.api.BCCEngine` so every search flows through the same
    prepared-engine front door.  Long-lived callers should construct the
    engine directly and reuse it across queries.

    Parameters
    ----------
    graph:
        The labeled input graph.
    q_left, q_right:
        Query vertices with different labels.
    k1, k2:
        Core parameters; default to the coreness of the query vertices within
        their own label groups (Section 3.5).
    b:
        Butterfly-degree requirement of the leader pair.
    bulk_deletion:
        When True (the setting used in the paper's experiments), all vertices
        attaining the maximum query distance are removed each iteration;
        otherwise a single vertex is removed, exactly as Algorithm 1 states.
    max_iterations:
        Optional safety cap on the number of peeling iterations.
    instrumentation:
        Optional counters (butterfly-counting calls, timings).

    ``G0`` comes from the engine's component-keyed view table and the
    greedy loop peels an id mask over the engine's frozen CSR (the loop
    only ever deletes vertices, so the snapshot stays valid for the whole
    search).  :func:`run_online_bcc` without ``views`` runs the same loop on
    an object-graph copy of ``G0`` and returns the identical community,
    query distance and iteration count.

    Returns
    -------
    BCCResult or None
        ``None`` when no (k1, k2, b)-BCC containing the query exists.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k1=k1,
        k2=k2,
        b=b,
        bulk_deletion=bulk_deletion,
        max_iterations=max_iterations,
    )
    return one_shot_search(
        "online-bcc", graph, (q_left, q_right), config, instrumentation
    )


def run_online_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    groups=None,
    views: Optional[G0ViewTable] = None,
) -> BCCResult:
    """Algorithm 1 implementation registered as method ``"online-bcc"``.

    Parameters match :func:`online_bcc_search` plus the engine plumbing:
    ``groups`` optionally supplies cached label-induced subgraphs.  Raises
    :class:`EmptyCommunityError` (with a machine-readable ``reason``) when no
    community exists instead of returning ``None``.

    ``views`` is a prepared engine's :class:`~repro.core.g0_view.
    G0ViewTable`.  With it ``G0`` comes from the table and the peel runs on
    id masks over the engine's frozen CSR; only the returned community is
    built as a graph.  Without it the search runs on object-graph copies of
    ``G0`` — the parity oracle of the view path.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    if views is not None:
        return _online_bcc_on_view(
            graph,
            views,
            q_left,
            q_right,
            BCCParameters(
                k1=k1 if k1 is not None else views.coreness(q_left),
                k2=k2 if k2 is not None else views.coreness(q_right),
                b=b,
            ),
            bulk_deletion,
            max_iterations,
            inst,
        )
    parameters = BCCParameters.from_query(
        graph, q_left, q_right, k1=k1, k2=k2, b=b, groups=groups
    )

    g0 = find_g0(
        graph,
        q_left,
        q_right,
        parameters,
        instrumentation=inst,
        groups=groups,
    )
    if g0 is None:
        raise no_candidate(parameters)

    community = g0.community.copy()
    original = g0.community
    query = [q_left, q_right]

    best_vertices: Optional[Set[Vertex]] = None
    best_distance = math.inf
    iterations = 0

    while True:
        with inst.time_query_distance():
            distance_maps = query_distances(community, query)
            current_distance = graph_query_distance(community, query, distance_maps)
        candidates, max_distance = farthest_vertices(community, query, distance_maps)
        if current_distance < best_distance:
            best_distance = current_distance
            best_vertices = set(community.vertices())
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        to_delete = candidates if bulk_deletion else [candidates[0]]
        outcome = maintain_bcc(
            community,
            to_delete,
            parameters,
            left_label,
            right_label,
            query_vertices=query,
            check_butterfly=True,
            instrumentation=inst,
        )
        iterations += 1
        inst.record_iteration(deleted=len(outcome.removed))
        if not outcome.valid:
            break

    if best_vertices is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)

    final_community = original.induced_subgraph(best_vertices)
    result = BCCResult(
        community=final_community,
        left_vertices=final_community.vertices_with_label(left_label),
        right_vertices=final_community.vertices_with_label(right_label),
        left_label=left_label,
        right_label=right_label,
        parameters=parameters,
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )
    return result


def _online_bcc_on_view(
    graph: LabeledGraph,
    views: G0ViewTable,
    q_left: Vertex,
    q_right: Vertex,
    parameters: BCCParameters,
    bulk_deletion: bool,
    max_iterations: Optional[int],
    inst: SearchInstrumentation,
) -> BCCResult:
    """Algorithm 1 over a cached G0 view, peeling an id mask.

    Mirrors :func:`run_online_bcc`'s object loop step for step: the same
    farthest set in the same (canonical) order, the same Algorithm 4
    checks, the same iteration count and best community.
    """
    view = views.view(q_left, q_right, parameters.k1, parameters.k2, inst)
    if view is None or not view.admits(parameters.b):
        raise no_candidate(parameters)
    csr = views.csr()
    slices = csr.adjacency_slices()
    query_ids = (csr.id_of(q_left), csr.id_of(q_right))
    community = MaskedCommunity(slices, view, parameters)
    alive = community.alive
    order = view.ids

    best_ids: Optional[Set[int]] = None
    best_distance = math.inf
    iterations = 0
    with inst.time_query_distance():
        dist_left = masked_bfs(slices, query_ids[0], alive)
        dist_right = masked_bfs(slices, query_ids[1], alive)
    while True:
        with inst.time_query_distance():
            current_distance, candidates, max_distance = masked_distance_sweep(
                order, alive, dist_left, dist_right, query_ids
            )
        if current_distance < best_distance:
            best_distance = current_distance
            best_ids = set(alive)
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        valid, removed = community.maintain(
            candidates if bulk_deletion else candidates[:1],
            query_ids,
            check_butterfly=True,
            instrumentation=inst,
        )
        iterations += 1
        inst.record_iteration(deleted=len(removed))
        if not valid:
            break
        with inst.time_query_distance():
            dist_left = masked_bfs(slices, query_ids[0], alive)
            if query_ids[1] not in dist_left:
                break  # Algorithm 4's last check: the query pair disconnected
            dist_right = masked_bfs(slices, query_ids[1], alive)

    if best_ids is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    return community_result(
        graph, csr, best_ids, parameters, q_left, q_right,
        query_distance=best_distance, iterations=iterations, statistics=inst.as_dict(),
    )
