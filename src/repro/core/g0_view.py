"""Component-keyed G0 views: Algorithm 2's candidate, computed once per key.

Algorithm 2 builds ``G0`` from the connected k1-core ``L`` of ``q_l``'s
label group and the connected k2-core ``R`` of ``q_r``'s group, and ``G0``
is exactly the induced subgraph ``G[L ∪ R]``: the two cores hold every
same-label edge among their members, and ``B`` every cross edge between
them.  So ``G0`` depends on the query only through the two *core
components* the query vertices fall into, and every query pair drawn from
the same two components shares it.

:class:`G0ViewTable` exploits that, in the spirit of the paper's
query-independent BCindex.  Per ``(label, k)`` it labels the connected
components of the group's k-core once, from the group's cached CSR
coreness; per key

    ``(left label, k1, left component, right label, k2, right component)``

it stores one :class:`G0View`: the member ids of ``L`` and ``R`` in the
engine's frozen CSR, their intra-group degrees, their butterfly degrees in
``B`` and the per-side maxima.  ``b`` is not part of the key — ``G0`` does
not depend on it; each query compares ``b`` with the stored maxima.  A view
holds ids and counts only, never a :class:`~repro.graph.labeled_graph.
LabeledGraph`; the searches run on id masks over the shared CSR
(:class:`repro.core.maintenance.MaskedCommunity`).

**Order.**  Ids follow the frozen graph's iteration order, and a view lists
``L`` then ``R`` each in that order — the same canonical order
:func:`repro.core.find_g0.find_g0` gives the object-graph ``G0`` — so tie
breaks among equally distant vertices agree between the two substrates.

**Locking.**  ``_views`` and ``_components`` are guarded by ``_lock``
(BCC001's ``GUARDED_FIELDS``).  Fills are double-checked under it, so
concurrent queries on one key build its view once.  Group subgraphs and the
frozen CSR are fetched *before* the lock is taken: both providers may run
the owning engine's version check, which clears this table under its lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.bcc_model import BCCParameters, BCCResult
from repro.exceptions import REASON_NO_CANDIDATE, EmptyCommunityError
from repro.graph.csr import CSRGraph, masked_bfs, masked_butterfly_degrees
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex

#: View key: (left label, k1, left component, right label, k2, right component).
ViewKey = Tuple[Hashable, int, int, Hashable, int, int]


@dataclass(frozen=True)
class G0View:
    """One maximal candidate ``G0 = G[L ∪ R]`` as ids of a frozen CSR.

    Attributes
    ----------
    left, right:
        Member ids of ``L`` and ``R``, each in the frozen graph's order.
    intra:
        Intra-group degree within ``G0`` per id of ``ids`` (aligned).
    chi:
        Butterfly degree in ``B`` per id of ``ids`` (aligned).
    max_left, max_right:
        The largest butterfly degree on each side (Algorithm 2's check).
    cross_edges:
        Number of edges of ``B``; ``0`` means ``L`` and ``R`` are not
        connected, so no query drawn from them has a candidate.
    """

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    intra: Tuple[int, ...]
    chi: Tuple[int, ...]
    max_left: int
    max_right: int
    cross_edges: int

    @property
    def ids(self) -> Tuple[int, ...]:
        """``L`` then ``R``: the canonical vertex order of ``G0``."""
        return self.left + self.right

    def admits(self, b: int) -> bool:
        """Whether ``G0`` passes Algorithm 2's checks for butterfly bound ``b``.

        Each side needs a vertex with χ >= ``b`` (lines 5-9), and ``L`` and
        ``R`` must be joined by a cross edge (Problem 1, connectivity).
        """
        return self.max_left >= b and self.max_right >= b and self.cross_edges > 0


def build_g0_view(
    slices, left: Tuple[int, ...], right: Tuple[int, ...]
) -> G0View:
    """Assemble the view of ``G[left ∪ right]`` from the frozen adjacency."""
    left_set = set(left)
    right_set = set(right)
    intra = tuple(
        [len(left_set.intersection(slices[v])) for v in left]
        + [len(right_set.intersection(slices[v])) for v in right]
    )
    cross_edges = sum(len(right_set.intersection(slices[v])) for v in left)
    chi = tuple(masked_butterfly_degrees(slices, left, right))
    n_left = len(left)
    return G0View(
        left=left,
        right=right,
        intra=intra,
        chi=chi,
        max_left=max(chi[:n_left], default=0),
        max_right=max(chi[n_left:], default=0),
        cross_edges=cross_edges,
    )


def connected_core(
    slices, members: set, coreness: Dict[int, int], k: int, source: int
) -> Optional[Tuple[int, ...]]:
    """The connected k-core of ``G[members]`` containing ``source``, or ``None``.

    ``coreness`` holds the coreness of every member within ``G[members]``;
    the maximal k-core is ``{v : coreness(v) >= k}`` and the answer is the
    component of ``source`` in it, as sorted ids.
    """
    if coreness.get(source, 0) < k:
        return None
    core = {v for v in members if coreness[v] >= k} if k > 0 else members
    return tuple(sorted(masked_bfs(slices, source, core)))


class _CoreComponents:
    """Connected components of one label group's k-core, in engine ids."""

    __slots__ = ("component_of", "members")

    def __init__(self, component_of: Dict[int, int], members: List[Tuple[int, ...]]):
        self.component_of = component_of
        self.members = members


class G0ViewTable:
    """A lazily filled, lock-guarded table of :class:`G0View` per key.

    Parameters
    ----------
    graph:
        The served graph; view ids index ``graph.freeze()``.
    freeze:
        Callable returning the graph's current frozen CSR (the owning
        engine counts the freeze).
    groups:
        Callable mapping a label to its label-induced subgraph (the owning
        engine's group cache).  Each group's own frozen coreness gives the
        k-core components.
    count:
        Optional ``count(name)`` hook; receives ``"g0_view_builds"`` and
        ``"g0_view_hits"``.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        freeze: Callable[[], CSRGraph],
        groups: Callable[[Label], LabeledGraph],
        count: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.graph = graph
        self._freeze = freeze
        self._groups = groups
        self._count = count if count is not None else (lambda name: None)
        self._lock = threading.Lock()
        self._views: Dict[ViewKey, G0View] = {}
        self._components: Dict[Tuple[Hashable, int], _CoreComponents] = {}

    def csr(self) -> CSRGraph:
        """The frozen CSR every view's ids index."""
        return self._freeze()

    def clear(self) -> None:
        """Drop every view and component labelling (graph mutated)."""
        with self._lock:
            self._views.clear()
            self._components.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    # ------------------------------------------------------------------
    # per-(label, k) core components
    # ------------------------------------------------------------------
    def coreness(self, vertex: Vertex) -> int:
        """Coreness of ``vertex`` within its label group (Section 3.5 default)."""
        frozen = self._groups(self.graph.label(vertex)).freeze()
        return frozen.coreness()[frozen.id_of(vertex)]

    def _core_components(self, label: Label, k: int) -> _CoreComponents:
        group = self._groups(label)
        csr = self._freeze()
        with self._lock:
            components = self._components.get((label, k))
            if components is None:
                components = self._label_components_locked(group, csr, k)
                self._components[(label, k)] = components
            return components

    @staticmethod
    def _label_components_locked(
        group: LabeledGraph, csr: CSRGraph, k: int
    ) -> _CoreComponents:
        """One k-core filter plus one component labelling of ``group``."""
        frozen = group.freeze()
        coreness = frozen.coreness()
        group_slices = frozen.adjacency_slices()
        to_engine = [csr.id_of(v) for v in frozen.interner.vertices()]
        component_of: Dict[int, int] = {}
        members: List[Tuple[int, ...]] = []
        for start in range(len(coreness)):
            if coreness[start] < k or to_engine[start] in component_of:
                continue
            index = len(members)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in group_slices[u]:
                    if w not in seen and coreness[w] >= k:
                        seen.add(w)
                        stack.append(w)
            ids = sorted(to_engine[g] for g in seen)
            for vid in ids:
                component_of[vid] = index
            members.append(tuple(ids))
        return _CoreComponents(component_of, members)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def view(
        self,
        q_left: Vertex,
        q_right: Vertex,
        k1: int,
        k2: int,
        instrumentation=None,
    ) -> Optional[G0View]:
        """The view serving ``(q_left, q_right)`` at ``(k1, k2)``, or ``None``.

        ``None`` means a query vertex lies outside its group's k-core, so
        Algorithm 2 has no candidate.  Otherwise one butterfly counting
        (Algorithm 3, line 5 of Algorithm 2) is recorded in
        ``instrumentation`` whether the view was built or served, so the
        per-query statistics of Exp-5 stay comparable with the paper; the
        counts actually recomputed are the ``"g0_view_builds"``.
        """
        csr = self._freeze()
        left_label = self.graph.label(q_left)
        right_label = self.graph.label(q_right)
        left = self._core_components(left_label, k1)
        right = self._core_components(right_label, k2)
        left_component = left.component_of.get(csr.id_of(q_left))
        right_component = right.component_of.get(csr.id_of(q_right))
        if left_component is None or right_component is None:
            return None
        key = (left_label, k1, left_component, right_label, k2, right_component)
        built = False
        with self._lock:
            view = self._views.get(key)
            if view is None:
                view = build_g0_view(
                    csr.adjacency_slices(),
                    left.members[left_component],
                    right.members[right_component],
                )
                self._views[key] = view
                built = True
        if built:
            self._count("g0_view_builds")
        else:
            self._count("g0_view_hits")
        if instrumentation is not None:
            instrumentation.record_butterfly_counting()
        return view


def community_result(
    graph: LabeledGraph,
    csr: CSRGraph,
    ids,
    parameters: BCCParameters,
    q_left: Vertex,
    q_right: Vertex,
    **fields,
) -> BCCResult:
    """The :class:`BCCResult` for the live ids a view search settled on.

    The one graph a view search materializes: ``G[ids]``, induced from the
    served graph (every intermediate community is an induced subgraph of
    ``G0 = G[L ∪ R]``, hence of ``G``).
    """
    community = graph.induced_subgraph(map(csr.vertex_of, ids))
    left_label = graph.label(q_left)
    right_label = graph.label(q_right)
    return BCCResult(
        community=community,
        left_vertices=community.vertices_with_label(left_label),
        right_vertices=community.vertices_with_label(right_label),
        left_label=left_label,
        right_label=right_label,
        parameters=parameters,
        **fields,
    )


def no_candidate(parameters: BCCParameters) -> EmptyCommunityError:
    """The error for a query whose Algorithm 2 finds no candidate ``G0``."""
    return EmptyCommunityError(
        f"no maximal ({parameters.k1}, {parameters.k2}, {parameters.b})-BCC "
        f"candidate contains the query pair",
        reason=REASON_NO_CANDIDATE,
    )
