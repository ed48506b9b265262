"""Algorithm 8: L2P-BCC — index-based local exploration.

The full Online-BCC / LP-BCC searches start from the maximal candidate
community ``G0``, which on large graphs can contain most of the two label
groups.  L2P-BCC avoids this by working locally around the query vertices:

1. compute a shortest path between the two query vertices under the
   butterfly-core path weight of Def. 6 (preferring liaison vertices with
   high coreness and butterfly degree), using the offline
   :class:`~repro.core.bc_index.BCIndex`;
2. take the minimum label-group coreness along the path on each side
   (``k_l``, ``k_r``) as expansion thresholds;
3. expand the path into a candidate graph ``G_t`` by a BFS that only admits
   vertices of the two query labels whose indexed coreness reaches the
   threshold for their side, stopping once ``|V(G_t)| > eta``;
4. extract a connected (k1, k2, b)-BCC containing the query from ``G_t`` —
   when ``k1``/``k2`` are not supplied they default to the largest values
   that still admit a connected core around each query vertex inside the
   candidate graph;
5. refine the candidate with the LP-BCC bulk-deletion loop (removing the
   farthest vertices while maintaining the BCC).

L2P-BCC does not carry the 2-approximation guarantee (the candidate graph is
local), but it is the fastest method in the paper's evaluation and attains
the best F1 on most networks.

Steps 1-3 run on the ids of the graph's frozen CSR, with δ and χ from
:meth:`BCIndex.id_arrays`.  On a prepared engine a candidate whose
expansion closed reads its ``G0`` from the engine's view table instead of
recomputing it (see :func:`_refine_on_views` for why that is exact).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence, Set, Tuple

from repro.core.bc_index import BCIndex
from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.kcore import core_decomposition
from repro.core.g0_view import G0ViewTable, build_g0_view, connected_core
from repro.core.lp_bcc import DEFAULT_RHO, lp_peel, run_lp_bcc
from repro.core.path_weight import PathWeightConfig, butterfly_core_shortest_path
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import REASON_QUERY_DISCONNECTED, EmptyCommunityError
from repro.graph.csr import CSRGraph, masked_coreness
from repro.graph.labeled_graph import LabeledGraph, Vertex, ordered_induced_subgraph


DEFAULT_CANDIDATE_SIZE = 400


def expand_candidate_graph(
    graph: LabeledGraph,
    seed_path,
    index: BCIndex,
    left_label,
    right_label,
    k_left: int,
    k_right: int,
    eta: int,
) -> LabeledGraph:
    """Expand a seed path into a candidate graph ``G_t`` (Algorithm 8, line 3).

    ``G_t`` is the subgraph of ``graph`` induced by
    :func:`expand_candidate_vertices`, listed in ``graph``'s vertex order.
    """
    return ordered_induced_subgraph(
        graph,
        expand_candidate_vertices(
            graph, seed_path, index, left_label, right_label, k_left, k_right, eta
        ),
    )


def expand_candidate_vertices(
    graph: LabeledGraph,
    seed_path,
    index: BCIndex,
    left_label,
    right_label,
    k_left: int,
    k_right: int,
    eta: int,
) -> Set[Vertex]:
    """The vertex set of the candidate graph ``G_t`` (Algorithm 8, line 3).

    :func:`expand_candidate_ids` over ``graph``'s frozen CSR, with the
    admitted ids translated back to vertices.
    """
    csr = graph.freeze()
    arrays = index.id_arrays(left_label, right_label, csr)
    # A label absent from the graph has no id and admits nobody.
    admitted, _ = expand_candidate_ids(
        csr,
        arrays.delta,
        [csr.id_of(v) for v in seed_path if v in graph],
        csr.interner.try_label_id(left_label),
        csr.interner.try_label_id(right_label),
        k_left,
        k_right,
        eta,
    )
    return {csr.vertex_of(v) for v in admitted}


def expand_candidate_ids(
    csr: CSRGraph,
    delta: Sequence[int],
    seed_ids: Sequence[int],
    left_lid: Optional[int],
    right_lid: Optional[int],
    k_left: int,
    k_right: int,
    eta: int,
) -> Tuple[Set[int], bool]:
    """The ids of ``G_t`` and whether its expansion closed.

    Ids are added in BFS order starting from the seed path; an id is
    admitted when it carries one of the two query label ids and its indexed
    label-group coreness ``delta`` is at least the threshold of its side.
    Expansion stops once the candidate exceeds ``eta`` vertices (checked
    before each dequeue, so the cut follows the neighbour order of
    ``csr``).  The flag is ``True`` when the BFS queue emptied instead:
    then every admissible neighbour of the candidate is in it.
    """
    slices = csr.adjacency_slices()
    labels = csr.labels
    admitted: Set[int] = set()
    queue = deque()
    for vertex in seed_ids:
        if vertex not in admitted:
            admitted.add(vertex)
            queue.append(vertex)
    while queue and len(admitted) <= eta:
        vertex = queue.popleft()
        for neighbor in slices[vertex]:
            if neighbor in admitted:
                continue
            label = labels[neighbor]
            if label == left_lid:
                if delta[neighbor] < k_left:
                    continue
            elif label == right_lid:
                if delta[neighbor] < k_right:
                    continue
            else:
                continue
            admitted.add(neighbor)
            queue.append(neighbor)
    return admitted, not queue


def _auto_core_parameter(candidate: LabeledGraph, label, query: Vertex) -> int:
    """Return the largest coreness of ``query`` within its label group of ``candidate``."""
    group = candidate.label_induced_subgraph(label)
    if query not in group:
        return 0
    return core_decomposition(group).get(query, 0)


def l2p_bcc_search(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    index: Optional[BCIndex] = None,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[BCCResult]:
    """Run the L2P-BCC local search (Algorithm 8).

    This legacy one-shot entry point delegates to a throwaway
    :class:`repro.api.BCCEngine`; pass ``index`` to reuse a pre-built
    BCindex, or hold a long-lived engine to have it built and cached once.

    Parameters
    ----------
    graph:
        The labeled input graph.
    q_left, q_right:
        Query vertices with different labels.
    k1, k2:
        Core parameters; when omitted they are set automatically to the
        largest coreness admitting a connected core around each query vertex
        inside the candidate graph (Algorithm 8, line 4).
    b:
        Butterfly-degree requirement.
    index:
        A pre-built :class:`BCIndex`; built on the fly when omitted (building
        it once and reusing it across queries is what makes L2P-BCC fast).
    eta:
        Candidate-graph size threshold (empirically tuned; default 400).
    path_config:
        γ1/γ2 weights of the butterfly-core path weight (paper default 0.5).
    rho, max_iterations, instrumentation:
        Passed through to the LP-BCC refinement.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k1=k1,
        k2=k2,
        b=b,
        rho=rho,
        max_iterations=max_iterations,
        eta=eta,
        path_config=path_config,
    )
    return one_shot_search(
        "l2p-bcc", graph, (q_left, q_right), config, instrumentation, index=index
    )


def run_l2p_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    index: Optional[BCIndex] = None,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    groups=None,
    views: Optional[G0ViewTable] = None,
) -> BCCResult:
    """L2P-BCC implementation registered as method ``"l2p-bcc"``.

    Parameters match :func:`l2p_bcc_search`; ``groups`` optionally supplies
    cached label-induced subgraphs used by the global LP-BCC fallback.
    Raises :class:`EmptyCommunityError` instead of returning ``None``.

    The seed path and the expansion run on the ids of ``graph``'s frozen
    CSR.  With ``views`` (a prepared engine's :class:`~repro.core.g0_view.
    G0ViewTable`) the candidate stays an id set: a closed candidate takes
    its ``G0`` from the table, any other gets its cores from a masked peel
    (see :func:`_refine_on_views`); the refinement is
    :func:`repro.core.lp_bcc.lp_peel` and the global fallback is LP-BCC on
    the cached views.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    if index is None:
        index = BCIndex(graph)
    elif not index.is_built():
        index.build()

    # Line 1: butterfly-core weighted shortest path connecting the query
    # pair (the hop-count shortest path when the search's caps trip).
    seed_path = butterfly_core_shortest_path(
        graph, q_left, q_right, index, left_label, right_label, config=path_config
    )
    if seed_path is None:
        raise EmptyCommunityError(
            f"query vertices {q_left!r} and {q_right!r} are not connected",
            reason=REASON_QUERY_DISCONNECTED,
        )

    # Line 2: per-side expansion thresholds from the path's minimum coreness.
    csr = graph.freeze()
    delta = index.id_arrays(left_label, right_label, csr).delta
    seed_ids = [csr.id_of(v) for v in seed_path]
    seed_labels = [csr.labels[v] for v in seed_ids]
    left_lid, right_lid = seed_labels[0], seed_labels[-1]
    k_left_threshold = min(
        delta[v] for v, lid in zip(seed_ids, seed_labels) if lid == left_lid
    )
    k_right_threshold = min(
        delta[v] for v, lid in zip(seed_ids, seed_labels) if lid == right_lid
    )

    # Line 3: local expansion into the candidate graph G_t.
    admitted, closed = expand_candidate_ids(
        csr,
        delta,
        seed_ids,
        left_lid,
        right_lid,
        k_left_threshold,
        k_right_threshold,
        eta,
    )
    inst.add("candidate_vertices", float(len(admitted)))

    if views is not None:
        # G_t's label groups are whole k-core components of the global
        # groups when the expansion closed and the seed path stayed on the
        # two query labels (see _refine_on_views).
        exact_groups = closed and all(
            lid == left_lid or lid == right_lid for lid in seed_labels
        )
        return _refine_on_views(
            graph,
            views,
            admitted,
            (k_left_threshold, k_right_threshold) if exact_groups else None,
            delta,
            q_left,
            q_right,
            k1,
            k2,
            b,
            rho,
            max_iterations,
            inst,
        )

    candidate = ordered_induced_subgraph(graph, map(csr.vertex_of, admitted))

    # Line 4: core parameters default to the largest coreness on each side of
    # the candidate graph.
    if k1 is None:
        k1 = _auto_core_parameter(candidate, left_label, q_left)
    if k2 is None:
        k2 = _auto_core_parameter(candidate, right_label, q_right)
    parameters = BCCParameters(k1=k1, k2=k2, b=b)

    # Line 5: refine with the LP-BCC loop (bulk deletion of farthest vertices).
    try:
        result = run_lp_bcc(
            candidate,
            q_left,
            q_right,
            k1=parameters.k1,
            k2=parameters.k2,
            b=parameters.b,
            bulk_deletion=True,
            rho=rho,
            max_iterations=max_iterations,
            instrumentation=inst,
        )
    except EmptyCommunityError:
        if candidate.num_vertices() >= graph.num_vertices():
            raise
        # The local candidate missed the community (e.g. eta too small for the
        # required cores); fall back to the global LP-BCC search so that the
        # method degrades gracefully instead of returning nothing.
        inst.add("fallback_to_global", 1.0)
        result = run_lp_bcc(
            graph,
            q_left,
            q_right,
            k1=None if k1 == 0 else k1,
            k2=None if k2 == 0 else k2,
            b=b,
            bulk_deletion=True,
            rho=rho,
            max_iterations=max_iterations,
            instrumentation=inst,
            groups=groups,
        )
    result.statistics.update(inst.as_dict())
    return result


def _refine_on_views(
    graph: LabeledGraph,
    views: G0ViewTable,
    admitted: Set[int],
    thresholds: Optional[Tuple[int, int]],
    delta: Sequence[int],
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int],
    k2: Optional[int],
    b: int,
    rho: int,
    max_iterations: Optional[int],
    inst: SearchInstrumentation,
) -> BCCResult:
    """Algorithm 8, lines 4-5, with the candidate ``G_t`` as an id mask.

    The same steps as the object path of :func:`run_l2p_bcc` — core
    parameters from the candidate's label groups, Algorithm 2 inside the
    candidate, the LP-BCC refinement, the global fallback — without
    building ``G_t``.

    ``thresholds`` are the expansion thresholds ``(k_l, k_r)`` when the
    expansion closed and every seed-path vertex carries a query label, else
    ``None``.  A closed expansion admitted every query-label neighbour
    reaching its side's threshold, so each label group of ``G_t`` is a
    union of whole connected components of the global group's k_l-core
    (resp. k_r-core).  Coreness inside it is then the indexed coreness
    ``delta``, and for ``k1 >= k_l`` and ``k2 >= k_r`` the connected cores
    around the query lie inside ``G_t``: the candidate's ``G0`` is the
    view the table already serves for ``(q_l, q_r, k1, k2)``.  The default
    ``k = coreness(q)`` always qualifies.  Otherwise the candidate's cores
    come from a masked peel and its view is built for this query.
    """
    csr = views.csr()
    query_ids = (csr.id_of(q_left), csr.id_of(q_right))
    if (
        thresholds is not None
        and (k1 is None or k1 >= thresholds[0])
        and (k2 is None or k2 >= thresholds[1])
    ):
        # Line 4: core parameters default to the query vertices' coreness,
        # which is at least the threshold of their side.
        if k1 is None:
            k1 = delta[query_ids[0]]
        if k2 is None:
            k2 = delta[query_ids[1]]
        parameters = BCCParameters(k1=k1, k2=k2, b=b)
        view = views.view(q_left, q_right, k1, k2, inst)
    else:
        slices = csr.adjacency_slices()
        left_lid, right_lid = csr.labels[query_ids[0]], csr.labels[query_ids[1]]
        # The candidate's two label groups; seed-path vertices of other
        # labels belong to neither, exactly as in G_t.label_induced_subgraph.
        left_members = {v for v in admitted if csr.labels[v] == left_lid}
        right_members = {v for v in admitted if csr.labels[v] == right_lid}
        left_coreness = masked_coreness(slices, left_members)
        right_coreness = masked_coreness(slices, right_members)
        # Line 4: core parameters default to the query vertices' coreness in
        # the candidate's label groups.
        if k1 is None:
            k1 = left_coreness.get(query_ids[0], 0)
        if k2 is None:
            k2 = right_coreness.get(query_ids[1], 0)
        parameters = BCCParameters(k1=k1, k2=k2, b=b)
        left = connected_core(slices, left_members, left_coreness, k1, query_ids[0])
        right = connected_core(slices, right_members, right_coreness, k2, query_ids[1])
        view = None
        if left is not None and right is not None:
            view = build_g0_view(slices, left, right)
            inst.record_butterfly_counting()
    # Line 5: refine with the LP-BCC loop (bulk deletion of farthest vertices).
    try:
        result = lp_peel(
            graph, csr, view, q_left, q_right, parameters,
            bulk_deletion=True, rho=rho, max_iterations=max_iterations,
            instrumentation=inst,
        )
    except EmptyCommunityError:
        if len(admitted) >= graph.num_vertices():
            raise
        # As in the object path: fall back to the global search, here on
        # the engine's cached views.
        inst.add("fallback_to_global", 1.0)
        result = run_lp_bcc(
            graph,
            q_left,
            q_right,
            k1=None if k1 == 0 else k1,
            k2=None if k2 == 0 else k2,
            b=b,
            bulk_deletion=True,
            rho=rho,
            max_iterations=max_iterations,
            instrumentation=inst,
            views=views,
        )
    result.statistics.update(inst.as_dict())
    return result
