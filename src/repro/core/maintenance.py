"""Algorithm 4: butterfly-core maintenance after vertex deletions.

When the greedy search (Algorithm 1) removes a vertex ``u*`` — or a bulk of
vertices — from the current community, the remaining graph may stop being a
(k1, k2, b)-BCC: intra-group degrees drop below ``k1``/``k2``, and butterfly
degrees shrink.  Algorithm 4 restores the structure:

1. split the removed set by label,
2. cascade-remove vertices whose intra-group degree fell below the threshold
   on each side (k-core maintenance),
3. update the cross-group bipartite graph,
4. re-count butterfly degrees and check that a leader pair still exists.

:func:`maintain_bcc` performs all four steps on the community graph *in
place* and reports whether the result is still a valid BCC containing the
query vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.core.bcc_model import BCCParameters
from repro.core.butterfly import butterfly_degrees, max_butterfly_degree_per_side
from repro.graph.bipartite import BipartiteView, extract_bipartite
from repro.graph.csr import masked_side_reaches
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex
from repro.graph.traversal import are_connected


@dataclass
class MaintenanceResult:
    """Outcome of one Algorithm 4 invocation."""

    valid: bool
    removed: Set[Vertex] = field(default_factory=set)
    reason: str = ""
    bipartite: Optional[BipartiteView] = None
    butterfly_degrees: Dict[Vertex, int] = field(default_factory=dict)


def _intra_group_degree(community: LabeledGraph, vertex: Vertex, label: Label) -> int:
    """Return the number of neighbours of ``vertex`` carrying ``label``."""
    return sum(1 for w in community.neighbors(vertex) if community.label(w) == label)


def maintain_label_core(
    community: LabeledGraph,
    label: Label,
    k: int,
    removals: Iterable[Vertex],
) -> Set[Vertex]:
    """Remove ``removals`` and cascade until the ``label`` group is a k-core again.

    Degrees are counted within the label group only (intra-group edges), which
    matches Def. 4 where each group's core is taken over the induced subgraph
    of its own label.  Vertices of other labels are never touched by the
    cascade.  The community graph is modified in place; the set of all removed
    vertices is returned.
    """
    removed: Set[Vertex] = set()
    queue = deque()
    for vertex in removals:
        if vertex in community:
            neighbors = set(community.neighbors(vertex))
            community.remove_vertex(vertex)
            removed.add(vertex)
            for neighbor in neighbors:
                if neighbor in community and community.label(neighbor) == label:
                    queue.append(neighbor)
    while queue:
        vertex = queue.popleft()
        if vertex not in community:
            continue
        if _intra_group_degree(community, vertex, label) >= k:
            continue
        neighbors = set(community.neighbors(vertex))
        community.remove_vertex(vertex)
        removed.add(vertex)
        for neighbor in neighbors:
            if neighbor in community and community.label(neighbor) == label:
                queue.append(neighbor)
    return removed


def maintain_bcc(
    community: LabeledGraph,
    removals: Iterable[Vertex],
    parameters: BCCParameters,
    left_label: Label,
    right_label: Label,
    query_vertices: Optional[Sequence[Vertex]] = None,
    check_butterfly: bool = True,
    instrumentation=None,
) -> MaintenanceResult:
    """Run Algorithm 4 on ``community`` in place.

    Parameters
    ----------
    community:
        The current community graph ``G_l`` (modified in place).
    removals:
        The vertex set ``S`` selected for deletion (e.g. the farthest vertex,
        or a bulk of farthest vertices).
    parameters:
        The (k1, k2, b) parameters of the query.
    left_label, right_label:
        The two community labels; left corresponds to ``k1``.
    query_vertices:
        When provided, the result is only ``valid`` if every query vertex
        survived and the query vertices remain connected in the community.
    check_butterfly:
        When True (default), re-count butterfly degrees with Algorithm 3 and
        require a leader pair (Def. 4, condition 4).  LP-BCC sets this to
        False and maintains the leader pair incrementally instead
        (Algorithms 6 and 7).
    instrumentation:
        Optional counter object recording butterfly-counting invocations.

    Returns
    -------
    MaintenanceResult
        ``valid`` is False when the community ceased to be a BCC containing
        the query; ``removed`` lists every vertex removed by this call.
    """
    removals = list(removals)
    left_removals = [v for v in removals if v in community and community.label(v) == left_label]
    right_removals = [v for v in removals if v in community and community.label(v) == right_label]

    removed: Set[Vertex] = set()
    removed |= maintain_label_core(community, left_label, parameters.k1, left_removals)
    removed |= maintain_label_core(community, right_label, parameters.k2, right_removals)

    # Cascades on one side change cross degrees only, never intra-group
    # degrees of the other side, so one pass per side suffices.

    if query_vertices is not None:
        lost = [q for q in query_vertices if q not in community]
        if lost:
            return MaintenanceResult(
                valid=False, removed=removed, reason=f"query vertices {lost!r} removed"
            )

    left_vertices = community.vertices_with_label(left_label)
    right_vertices = community.vertices_with_label(right_label)
    if not left_vertices or not right_vertices:
        return MaintenanceResult(
            valid=False, removed=removed, reason="one label group became empty"
        )

    bipartite = extract_bipartite(community, left_vertices, right_vertices)
    degrees: Dict[Vertex, int] = {}
    if check_butterfly:
        degrees = butterfly_degrees(bipartite)
        if instrumentation is not None:
            instrumentation.record_butterfly_counting()
        max_left, max_right = max_butterfly_degree_per_side(bipartite, degrees)
        if max_left < parameters.b or max_right < parameters.b:
            return MaintenanceResult(
                valid=False,
                removed=removed,
                reason=(
                    f"butterfly constraint violated (max_l={max_left}, "
                    f"max_r={max_right}, b={parameters.b})"
                ),
                bipartite=bipartite,
                butterfly_degrees=degrees,
            )

    if query_vertices is not None and not are_connected(community, query_vertices):
        return MaintenanceResult(
            valid=False,
            removed=removed,
            reason="query vertices disconnected",
            bipartite=bipartite,
            butterfly_degrees=degrees,
        )

    return MaintenanceResult(
        valid=True,
        removed=removed,
        bipartite=bipartite,
        butterfly_degrees=degrees,
    )


class MaskedCommunity:
    """Algorithm 4 on id masks: a shrinking ``G0`` over one frozen CSR.

    The object-graph :func:`maintain_bcc` deletes vertices from a
    :class:`LabeledGraph` copy of ``G0``.  Here the community is three sets
    of live ids over the engine's shared CSR adjacency (all, left side,
    right side) plus each live id's intra-group degree, seeded from a
    :class:`repro.core.g0_view.G0View`.  A deletion batch discards ids and
    decrements their same-side neighbours' degrees; a degree falling below
    ``k`` cascades exactly as :func:`maintain_label_core` does, so the
    surviving sides are the same maximal k-cores.

    Parameters
    ----------
    slices:
        The frozen graph's per-id adjacency slices.
    view:
        The :class:`~repro.core.g0_view.G0View` to start from.
    parameters:
        The query's (k1, k2, b).
    """

    __slots__ = ("slices", "alive", "left", "right", "intra", "k1", "k2", "b")

    def __init__(self, slices, view, parameters: BCCParameters) -> None:
        self.slices = slices
        self.left: Set[int] = set(view.left)
        self.right: Set[int] = set(view.right)
        self.alive: Set[int] = self.left | self.right
        self.intra: Dict[int, int] = dict(zip(view.ids, view.intra))
        self.k1 = parameters.k1
        self.k2 = parameters.k2
        self.b = parameters.b

    def _cascade(self, seeds: Sequence[int], side: Set[int], k: int) -> list:
        """Delete the ``seeds`` that lie in ``side``; peel it back to a k-core."""
        slices = self.slices
        alive = self.alive
        intra = self.intra
        removed = []
        for vertex in seeds:
            if vertex in side:
                side.discard(vertex)
                alive.discard(vertex)
                removed.append(vertex)
        queue = list(removed)
        while queue:
            for neighbor in side.intersection(slices[queue.pop()]):
                degree = intra[neighbor] - 1
                intra[neighbor] = degree
                if degree < k:
                    side.discard(neighbor)
                    alive.discard(neighbor)
                    removed.append(neighbor)
                    queue.append(neighbor)
        return removed

    def has_leader_pair(self) -> bool:
        """Def. 4, condition 4: each side has a vertex with χ >= b."""
        b = self.b
        if not masked_side_reaches(self.slices, self.left, self.right, b):
            return False
        # With b == 1 a butterfly through a left vertex also has two right
        # members, so the right side needs no scan of its own.
        return b <= 1 or masked_side_reaches(self.slices, self.right, self.left, b)

    def maintain(
        self,
        removals: Iterable[int],
        query_ids: Sequence[int],
        check_butterfly: bool = True,
        instrumentation=None,
    ) -> Tuple[bool, list]:
        """Run Algorithm 4 for one deletion batch; return ``(valid, removed)``.

        The checks follow :func:`maintain_bcc` in order — query vertices
        survive, both sides stay non-empty, and (when ``check_butterfly``)
        a leader pair exists — except connectivity of the query vertices,
        which the callers read off their next distance sweep.
        """
        removals = list(removals)
        removed = self._cascade(removals, self.left, self.k1)
        removed += self._cascade(removals, self.right, self.k2)
        if any(q not in self.alive for q in query_ids):
            return False, removed
        if not self.left or not self.right:
            return False, removed
        if check_butterfly:
            if instrumentation is not None:
                instrumentation.record_butterfly_counting()
            if not self.has_leader_pair():
                return False, removed
        return True, removed
