"""Algorithm 5: fast (incremental) query-distance computation.

Algorithm 1 needs, at every iteration, the query distance ``dist(v, Q)`` of
every remaining vertex so it can pick the farthest one.  Recomputing a full
BFS from each query vertex per iteration is wasteful: after deleting a vertex
set ``D``, only vertices that were *farther* from ``q`` than the closest
deleted vertex can change distance (and distances can only grow).

:class:`QueryDistanceTracker` maintains, for each query vertex, the distance
map over the current community and updates it after deletions following
Algorithm 5:

1. let ``d_min = min_{v ∈ D} dist(v, q)`` (using the distances *before* the
   deletion);
2. vertices with ``dist <= d_min`` are unaffected (``S_s`` is the frontier at
   exactly ``d_min``);
3. vertices with ``dist > d_min`` (``S_u``) are re-labelled by a BFS seeded
   from the settled region.

Vertices that become unreachable get distance ``inf`` and are therefore
selected for deletion first by the greedy loop.

The tracker runs on one of two substrates, picked by community size.  A
community of at least :data:`CSR_TRACKER_MIN_EDGES` edges is frozen once
(:mod:`repro.graph.csr`) and the tracker maintains flat per-id distance
lists plus a dead-id set; this is valid because the search loops only ever
*delete* vertices, and the caller reports every deletion batch through
:meth:`QueryDistanceTracker.remove_vertices`.  Smaller communities keep
per-vertex distance maps over the object graph.  Both return identical
distances.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.csr import csr_bfs_distances, csr_multi_source_bfs, masked_bfs
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import INFINITE_DISTANCE, bfs_distances, multi_source_bfs

#: Community edge count from which the tracker freezes a CSR snapshot; the tracker runs many sweeps per search, so the threshold is
#: lower than for one-shot kernels.
CSR_TRACKER_MIN_EDGES = 256


class QueryDistanceTracker:
    """Maintains per-query BFS distances over a shrinking community graph.

    Parameters
    ----------
    community:
        The community graph; the tracker reads it but never mutates it.  The
        caller must call :meth:`remove_vertices` *after* deleting the vertices
        from the graph (the tracker keeps its own copy of the pre-deletion
        distances, which is what Algorithm 5 needs).  Deletion is the only
        supported mutation while a tracker is attached.
    query_vertices:
        The query vertices ``Q``.
    """

    def __init__(
        self, community: LabeledGraph, query_vertices: Sequence[Vertex]
    ) -> None:
        self._community = community
        self._queries: List[Vertex] = list(query_vertices)
        self.full_recomputations = 0
        self.partial_updates = 0
        # Distance-sweep substrate; see the module docstring.
        self._csr = community.num_edges() >= CSR_TRACKER_MIN_EDGES
        if self._csr:
            self._frozen = community.freeze()
            self._dead: Set[int] = set()
            self._query_ids: Dict[Vertex, Optional[int]] = {
                q: self._frozen.try_id_of(q) for q in self._queries
            }
            # Per-query distance list indexed by id; UNREACHED encodes inf,
            # None encodes "query vertex gone" (the empty map of the object
            # substrate).
            self._id_dist: Dict[Vertex, Optional[List[int]]] = {}
        else:
            self._distances: Dict[Vertex, Dict[Vertex, float]] = {}
        for q in self._queries:
            self.recompute(q)

    # ------------------------------------------------------------------
    # full recomputation
    # ------------------------------------------------------------------
    def recompute(self, query: Optional[Vertex] = None) -> None:
        """Recompute distances from scratch for one query vertex (or all)."""
        targets = [query] if query is not None else self._queries
        if self._csr:
            for q in targets:
                self.full_recomputations += 1
                qid = self._query_ids.get(q)
                if qid is None or qid in self._dead:
                    self._id_dist[q] = None
                    continue
                self._id_dist[q] = csr_bfs_distances(self._frozen, qid, dead=self._dead)
            return
        for q in targets:
            self.full_recomputations += 1
            if q not in self._community:
                self._distances[q] = {}
                continue
            reached = bfs_distances(self._community, q)
            dist_map: Dict[Vertex, float] = {
                v: float(reached.get(v, INFINITE_DISTANCE))
                for v in self._community.vertices()
            }
            self._distances[q] = dist_map

    # ------------------------------------------------------------------
    # incremental update (Algorithm 5)
    # ------------------------------------------------------------------
    def remove_vertices(self, deleted: Iterable[Vertex]) -> None:
        """Update distances after ``deleted`` vertices were removed from the graph.

        Must be called once per deletion batch, after the graph mutation.  The
        deleted vertices are dropped from every distance map, and the
        distances of vertices farther than the closest deleted vertex are
        recomputed with a partial BFS.
        """
        deleted_set = {v for v in deleted}
        if not deleted_set:
            return
        if self._csr:
            deleted_ids = set()
            for v in deleted_set:
                vid = self._frozen.try_id_of(v)
                if vid is not None and vid not in self._dead:
                    deleted_ids.add(vid)
            # d_min is taken from the stored pre-deletion distances, so the
            # dead set can be extended before the per-query updates.
            self._dead |= deleted_ids
            for q in self._queries:
                self._update_one_query_csr(q, deleted_ids)
            return
        for q in self._queries:
            self._update_one_query(q, deleted_set)

    def _update_one_query(self, query: Vertex, deleted: Set[Vertex]) -> None:
        old = self._distances.get(query, {})
        if query in deleted or query not in self._community:
            self._distances[query] = {}
            return
        # d_min: the closest deleted vertex to the query (pre-deletion distances).
        d_min = math.inf
        for v in deleted:
            d = old.get(v, INFINITE_DISTANCE)
            if d < d_min:
                d_min = d
        # Drop the deleted vertices from the map.
        for v in deleted:
            old.pop(v, None)
        if math.isinf(d_min):
            # Every deleted vertex was already unreachable: nothing changes.
            self.partial_updates += 1
            return
        # Partition the surviving vertices into settled (<= d_min) and
        # to-update (> d_min) sets.
        settled_seeds: Dict[Vertex, int] = {}
        to_update: Set[Vertex] = set()
        for v, dist in old.items():
            if dist <= d_min and not math.isinf(dist):
                settled_seeds[v] = int(dist)
            else:
                to_update.add(v)
        if not to_update:
            self.partial_updates += 1
            return
        self.partial_updates += 1
        reached = multi_source_bfs(self._community, settled_seeds, restrict_to=to_update)
        for v in to_update:
            old[v] = float(reached.get(v, INFINITE_DISTANCE))
        # Settled vertices keep their distances; ensure any vertex not present
        # (e.g. vertices added externally — not expected) defaults to inf.
        for v in self._community.vertices():
            if v not in old:
                old[v] = INFINITE_DISTANCE
        self._distances[query] = old

    def _update_one_query_csr(self, query: Vertex, deleted_ids: Set[int]) -> None:
        """Flat-array mirror of :meth:`_update_one_query` (Algorithm 5)."""
        qid = self._query_ids.get(query)
        old = self._id_dist.get(query)
        if qid is None or qid in self._dead or old is None:
            self._id_dist[query] = None
            return
        d_min = math.inf
        for vid in deleted_ids:
            d = old[vid]
            if 0 <= d < d_min:
                d_min = d
        if math.isinf(d_min):
            self.partial_updates += 1
            return
        settled_seeds: List[Tuple[int, int]] = []
        to_update: Set[int] = set()
        dead = self._dead
        for vid, dist in enumerate(old):
            if vid in dead:
                continue
            if 0 <= dist <= d_min:
                settled_seeds.append((vid, dist))
            else:
                to_update.add(vid)
        if not to_update:
            self.partial_updates += 1
            return
        self.partial_updates += 1
        reached = csr_multi_source_bfs(
            self._frozen, settled_seeds, dead=dead, restrict_to=to_update
        )
        for vid in to_update:
            old[vid] = reached[vid]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, vertex: Vertex, query: Vertex) -> float:
        """Return ``dist(vertex, query)`` in the current community (inf if unknown)."""
        if self._csr:
            dist_list = self._id_dist.get(query)
            if dist_list is None:
                return INFINITE_DISTANCE
            vid = self._frozen.try_id_of(vertex)
            if vid is None or vid in self._dead:
                return INFINITE_DISTANCE
            d = dist_list[vid]
            return float(d) if d >= 0 else INFINITE_DISTANCE
        return self._distances.get(query, {}).get(vertex, INFINITE_DISTANCE)

    def query_distance(self, vertex: Vertex) -> float:
        """Return ``dist(vertex, Q) = max_q dist(vertex, q)`` (Def. 5)."""
        worst = 0.0
        for q in self._queries:
            d = self.distance(vertex, q)
            if math.isinf(d):
                return INFINITE_DISTANCE
            worst = max(worst, d)
        return worst

    def _iter_id_query_distances(self):
        """Yield ``(vid, dist(v, Q))`` over surviving ids (CSR substrate)."""
        dist_lists = [self._id_dist.get(q) for q in self._queries]
        dead = self._dead
        for vid in range(self._frozen.num_vertices()):
            if vid in dead:
                continue
            worst = 0.0
            for dist_list in dist_lists:
                if dist_list is None:
                    worst = INFINITE_DISTANCE
                    break
                d = dist_list[vid]
                if d < 0:
                    worst = INFINITE_DISTANCE
                    break
                if d > worst:
                    worst = d
            yield vid, worst

    def graph_query_distance(self) -> float:
        """Return ``dist(G, Q)``: the maximum query distance over all vertices."""
        worst = 0.0
        if self._csr:
            for _, value in self._iter_id_query_distances():
                if math.isinf(value):
                    return INFINITE_DISTANCE
                if value > worst:
                    worst = value
            return worst
        for v in self._community.vertices():
            d = self.query_distance(v)
            if math.isinf(d):
                return INFINITE_DISTANCE
            worst = max(worst, d)
        return worst

    def farthest_vertices(self) -> Tuple[List[Vertex], float]:
        """Return the non-query vertices with maximum query distance, and that distance."""
        best_distance = -1.0
        best: List[Vertex] = []
        if self._csr:
            query_ids = {
                vid for vid in self._query_ids.values() if vid is not None
            }
            vertex_of = self._frozen.vertex_of
            best_ids: List[int] = []
            for vid, value in self._iter_id_query_distances():
                if vid in query_ids:
                    continue
                if value > best_distance:
                    best_distance = value
                    best_ids = [vid]
                elif value == best_distance:
                    best_ids.append(vid)
            return [vertex_of(vid) for vid in best_ids], best_distance
        query_set = set(self._queries)
        for v in self._community.vertices():
            if v in query_set:
                continue
            d = self.query_distance(v)
            if d > best_distance:
                best_distance = d
                best = [v]
            elif d == best_distance:
                best.append(v)
        return best, best_distance

    def distance_map(self, query: Vertex) -> Dict[Vertex, float]:
        """Return a copy of the distance map for one query vertex."""
        if self._csr:
            dist_list = self._id_dist.get(query)
            if dist_list is None:
                return {}
            vertex_of = self._frozen.vertex_of
            return {
                vertex_of(vid): (float(d) if d >= 0 else INFINITE_DISTANCE)
                for vid, d in enumerate(dist_list)
                if vid not in self._dead
            }
        return dict(self._distances.get(query, {}))


def masked_distance_sweep(
    order: Sequence[int],
    alive: Set[int],
    dist_left: Dict[int, int],
    dist_right: Dict[int, int],
    query_ids: Sequence[int],
) -> Tuple[float, List[int], float]:
    """One pass over the live ids of ``order``: ``dist(G, Q)`` and the farthest ids.

    Returns ``(graph distance, farthest non-query ids, their distance)``,
    exactly what :func:`repro.graph.traversal.graph_query_distance` and
    :func:`repro.graph.traversal.farthest_vertices` compute on an object
    graph whose iteration order is ``order``; ids missing from a distance
    map are unreachable (``inf``).
    """
    current = 0.0
    best = -1.0
    farthest: List[int] = []
    for vid in order:
        if vid not in alive:
            continue
        d_l = dist_left.get(vid)
        d_r = dist_right.get(vid)
        if d_l is None or d_r is None:
            value = INFINITE_DISTANCE
        else:
            value = d_l if d_l >= d_r else d_r
        if value > current:
            current = value
        if vid in query_ids:
            continue
        if value > best:
            best = value
            farthest = [vid]
        elif value == best:
            farthest.append(vid)
    return current, farthest, best


class MaskedDistanceTracker:
    """Algorithm 5 on id masks: per-query distances over a shrinking id set.

    The id-mask counterpart of :class:`QueryDistanceTracker`.  ``alive`` is
    the community's live-id set, shared with (and shrunk by) its
    :class:`repro.core.maintenance.MaskedCommunity`; the tracker never
    mutates it.  After each deletion batch :meth:`remove_vertices` keeps
    every distance ``<= d_min`` (the closest deleted vertex) and
    re-explores only the region beyond it from the frontier at ``d_min``.
    Distance maps hold reached ids only; a missing id is at ``inf``.
    """

    def __init__(
        self, slices, alive: Set[int], query_ids: Sequence[int]
    ) -> None:
        self._slices = slices
        self._alive = alive
        self.query_ids: Tuple[int, ...] = tuple(query_ids)
        self.full_recomputations = 0
        self.partial_updates = 0
        self.distances: List[Dict[int, int]] = []
        for qid in self.query_ids:
            self.full_recomputations += 1
            self.distances.append(masked_bfs(slices, qid, alive))

    def remove_vertices(self, deleted: Iterable[int]) -> None:
        """Update every map after ``deleted`` left ``alive`` (Algorithm 5)."""
        deleted = list(deleted)
        if not deleted:
            return
        for index, old in enumerate(self.distances):
            self.partial_updates += 1
            known = [old[v] for v in deleted if v in old]
            for vid in deleted:
                old.pop(vid, None)
            if not known:
                continue  # every deleted vertex was unreachable: nothing moves
            d_min = min(known)
            settled = {v: d for v, d in old.items() if d <= d_min}
            remaining = self._alive.difference(settled)
            frontier = [v for v, d in settled.items() if d == d_min]
            level = d_min
            slices = self._slices
            while frontier and remaining:
                level += 1
                reached: Set[int] = set()
                update = reached.update
                for u in frontier:
                    update(slices[u])
                reached &= remaining
                if not reached:
                    break
                remaining -= reached
                settled.update(dict.fromkeys(reached, level))
                frontier = reached
            self.distances[index] = settled

    def sweep(self, order: Sequence[int]) -> Tuple[float, List[int], float]:
        """:func:`masked_distance_sweep` over the tracked maps."""
        return masked_distance_sweep(
            order, self._alive, self.distances[0], self.distances[1], self.query_ids
        )
