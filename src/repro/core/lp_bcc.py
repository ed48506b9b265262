"""LP-BCC: Online-BCC accelerated with the paper's fast strategies.

LP-BCC is the Online-BCC greedy framework (Algorithm 1) equipped with:

* **fast query-distance computation** (Algorithm 5) — after each deletion
  batch only the affected distances are recomputed
  (:class:`~repro.core.query_distance.QueryDistanceTracker`);
* **leader-pair identification and maintenance** (Algorithms 6 and 7) — the
  butterfly constraint is certified through a tracked leader pair whose
  degrees are updated locally per deletion, and the full butterfly counting
  of Algorithm 3 is re-run only when a tracked leader is lost
  (:class:`~repro.core.leader_pair.LeaderPairTracker`);
* **bulk deletion** — all vertices at the maximum query distance are removed
  per iteration (the setting used throughout Section 8).

The returned community is identical in spirit to Online-BCC (same greedy
framework and same candidate selection rule); the accelerations only change
how the intermediate quantities are computed.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.find_g0 import find_g0
from repro.core.g0_view import G0View, G0ViewTable, community_result, no_candidate
from repro.core.leader_pair import (
    LeaderPairTracker,
    MaskedLeaderTracker,
    identify_leader_masked,
    identify_leader_pair,
)
from repro.core.maintenance import MaskedCommunity, maintain_bcc
from repro.core.query_distance import MaskedDistanceTracker, QueryDistanceTracker
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_COMMUNITY,
    REASON_NO_LEADER_PAIR,
    EmptyCommunityError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex

#: Default leader search radius of Algorithm 6 (shared with SearchConfig).
DEFAULT_RHO = 2


def lp_bcc_search(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[BCCResult]:
    """Run the LP-BCC search (Algorithm 1 + Algorithms 5, 6 and 7).

    Parameters match :func:`repro.core.online_bcc.online_bcc_search`; ``rho``
    is the leader search radius of Algorithm 6.  This legacy one-shot entry
    point delegates to a throwaway :class:`repro.api.BCCEngine`.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k1=k1,
        k2=k2,
        b=b,
        bulk_deletion=bulk_deletion,
        rho=rho,
        max_iterations=max_iterations,
    )
    return one_shot_search(
        "lp-bcc", graph, (q_left, q_right), config, instrumentation
    )


def run_lp_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    groups=None,
    views: Optional[G0ViewTable] = None,
) -> BCCResult:
    """LP-BCC implementation registered as method ``"lp-bcc"``.

    Raises :class:`EmptyCommunityError` with a machine-readable ``reason``
    instead of returning ``None``; ``groups`` optionally supplies cached
    label-induced subgraphs from a prepared engine.  With ``views`` (a
    prepared engine's :class:`~repro.core.g0_view.G0ViewTable`) ``G0``
    comes from the table and :func:`lp_peel` runs on id masks; without it
    the object-graph loop below runs — the view path's parity oracle.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    if views is not None:
        parameters = BCCParameters(
            k1=k1 if k1 is not None else views.coreness(q_left),
            k2=k2 if k2 is not None else views.coreness(q_right),
            b=b,
        )
        view = views.view(q_left, q_right, parameters.k1, parameters.k2, inst)
        return lp_peel(
            graph, views.csr(), view, q_left, q_right, parameters,
            bulk_deletion=bulk_deletion, rho=rho, max_iterations=max_iterations,
            instrumentation=inst,
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

    # Leader pair: identified once on G0 (Algorithm 6), then maintained
    # incrementally (Algorithm 7) by the tracker.
    left_leader, right_leader = identify_leader_pair(
        g0.left,
        g0.right,
        q_left,
        q_right,
        g0.butterfly_degrees,
        parameters.b,
        rho=rho,
    )
    leader_tracker = LeaderPairTracker(
        g0.bipartite.copy(),
        g0.butterfly_degrees,
        q_left,
        q_right,
        parameters.b,
        rho=rho,
        instrumentation=inst,
    )
    leader_tracker.set_leaders(left_leader, right_leader)
    if not leader_tracker.revalidate():
        raise EmptyCommunityError(
            f"no leader pair with butterfly degree >= {parameters.b} exists in G0",
            reason=REASON_NO_LEADER_PAIR,
        )

    with inst.time_query_distance():
        distance_tracker = QueryDistanceTracker(community, query)

    best_vertices: Optional[Set[Vertex]] = None
    best_distance = math.inf
    best_leader_pair = leader_tracker.leader_pair()
    iterations = 0

    while True:
        with inst.time_query_distance():
            current_distance = distance_tracker.graph_query_distance()
        if current_distance < best_distance:
            best_distance = current_distance
            best_vertices = set(community.vertices())
            best_leader_pair = leader_tracker.leader_pair()
        with inst.time_query_distance():
            candidates, max_distance = distance_tracker.farthest_vertices()
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
            check_butterfly=False,
            instrumentation=inst,
        )
        iterations += 1
        inst.record_iteration(deleted=len(outcome.removed))
        if not outcome.valid:
            break

        # Keep the auxiliary structures consistent with the shrunken graph.
        leader_tracker.remove_vertices(outcome.removed)
        with inst.time_query_distance():
            distance_tracker.remove_vertices(outcome.removed)
        if not leader_tracker.revalidate():
            break

    if best_vertices is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)

    final_community = original.induced_subgraph(best_vertices)
    inst.add("leader_full_recounts", float(leader_tracker.full_recounts))
    inst.add("distance_partial_updates", float(distance_tracker.partial_updates))
    inst.add("distance_full_recomputations", float(distance_tracker.full_recomputations))
    return BCCResult(
        community=final_community,
        left_vertices=final_community.vertices_with_label(left_label),
        right_vertices=final_community.vertices_with_label(right_label),
        left_label=left_label,
        right_label=right_label,
        parameters=parameters,
        leader_pair=best_leader_pair,
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )


def lp_peel(
    graph: LabeledGraph,
    csr,
    view: Optional[G0View],
    q_left: Vertex,
    q_right: Vertex,
    parameters: BCCParameters,
    *,
    bulk_deletion: bool,
    rho: int,
    max_iterations: Optional[int],
    instrumentation: SearchInstrumentation,
) -> BCCResult:
    """The LP-BCC loop on id masks over ``csr``, starting from ``view``.

    The engine path of :func:`run_lp_bcc` and of L2P-BCC's refinement (its
    candidate's ``G0`` is an uncached view).  Mirrors the object loop step
    for step: Algorithm 6 on the view's butterfly degrees, Algorithm 5 on
    a :class:`MaskedDistanceTracker`, Algorithm 7 on a
    :class:`MaskedLeaderTracker`, Algorithm 4 on a :class:`MaskedCommunity`.
    ``view`` of ``None`` means Algorithm 2 found no candidate.
    """
    inst = instrumentation
    if view is None or not view.admits(parameters.b):
        raise no_candidate(parameters)
    slices = csr.adjacency_slices()
    query_ids = (csr.id_of(q_left), csr.id_of(q_right))
    community = MaskedCommunity(slices, view, parameters)
    chi = dict(zip(view.ids, view.chi))
    leader_tracker = MaskedLeaderTracker(
        slices, view.left, view.right, query_ids, parameters.b, csr.vertex_of, inst
    )
    leader_tracker.set_leaders(
        identify_leader_masked(
            slices, view.left, community.left, query_ids[0], chi,
            view.max_left, parameters.b, rho,
        ),
        identify_leader_masked(
            slices, view.right, community.right, query_ids[1], chi,
            view.max_right, parameters.b, rho,
        ),
    )
    if not leader_tracker.revalidate():
        raise EmptyCommunityError(
            f"no leader pair with butterfly degree >= {parameters.b} exists in G0",
            reason=REASON_NO_LEADER_PAIR,
        )
    with inst.time_query_distance():
        distance_tracker = MaskedDistanceTracker(slices, community.alive, query_ids)

    order = view.ids
    best_ids: Optional[Set[int]] = None
    best_distance = math.inf
    best_leader_pair = leader_tracker.leader_pair()
    iterations = 0
    while True:
        with inst.time_query_distance():
            current_distance, candidates, max_distance = distance_tracker.sweep(order)
        if current_distance < best_distance:
            best_distance = current_distance
            best_ids = set(community.alive)
            best_leader_pair = leader_tracker.leader_pair()
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        valid, removed = community.maintain(
            candidates if bulk_deletion else candidates[:1],
            query_ids,
            check_butterfly=False,
            instrumentation=inst,
        )
        iterations += 1
        inst.record_iteration(deleted=len(removed))
        if not valid:
            break
        with inst.time_query_distance():
            distance_tracker.remove_vertices(removed)
        if query_ids[1] not in distance_tracker.distances[0]:
            break  # Algorithm 4's last check: the query pair disconnected
        leader_tracker.remove_vertices(removed)
        if not leader_tracker.revalidate():
            break

    if best_ids is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    inst.add("leader_full_recounts", float(leader_tracker.full_recounts))
    inst.add("distance_partial_updates", float(distance_tracker.partial_updates))
    inst.add("distance_full_recomputations", float(distance_tracker.full_recomputations))
    vertex_of = csr.vertex_of
    return community_result(
        graph, csr, best_ids, parameters, q_left, q_right,
        leader_pair=(
            None if best_leader_pair is None
            else (vertex_of(best_leader_pair[0]), vertex_of(best_leader_pair[1]))
        ),
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )
