"""The CSR-id seed-path search and expansion against their object oracles.

:func:`repro.core.path_weight.butterfly_core_shortest_path` runs Def. 6's
label-correcting search on the ids of the graph's frozen CSR and answers
adjacent endpoints without a search; :func:`repro.core.local_search.
expand_candidate_vertices` runs Algorithm 8's expansion on the same ids.
The object-graph versions in ``l2p_oracle`` are the reference: paths and
candidate sets must be identical, for any γ1, γ2 >= 0.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from l2p_oracle import object_expand, object_shortest_path, query_pairs
from repro.core.bc_index import BCIndex
from repro.core.local_search import expand_candidate_ids, expand_candidate_vertices
from repro.core.path_weight import PathWeightConfig, butterfly_core_shortest_path
from repro.datasets import load_dataset
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture(scope="module")
def small_dblp():
    return load_dataset("dblp", 3, communities=3, community_size=14).graph


def random_configs(count: int, seed: int):
    rng = random.Random(seed)
    configs = [PathWeightConfig(0.5, 0.5), PathWeightConfig(0.0, 0.0)]
    configs += [
        PathWeightConfig(rng.choice([0.0, rng.uniform(0, 3)]), rng.uniform(0, 3))
        for _ in range(count)
    ]
    return configs


class TestPathParityOnDblp:
    def test_pairs_cover_every_distance(self, small_dblp):
        pairs = query_pairs(small_dblp)
        hops = {len(object_shortest_path(
            small_dblp, s, t, BCIndex(small_dblp),
            small_dblp.label(s), small_dblp.label(t), PathWeightConfig(0, 0),
        )) - 1 for s, t in pairs}
        assert {1, 2, 3, 4} <= hops

    @pytest.mark.parametrize("config", random_configs(4, seed=13), ids=repr)
    def test_identical_paths(self, small_dblp, config):
        index = BCIndex(small_dblp)
        for source, target in query_pairs(small_dblp):
            labels = (small_dblp.label(source), small_dblp.label(target))
            expected = object_shortest_path(
                small_dblp, source, target, index, *labels, config
            )
            assert butterfly_core_shortest_path(
                small_dblp, source, target, index, *labels, config
            ) == expected, (source, target)

    @pytest.mark.parametrize("caps", [(1, 50000), (16, 3), (2, 40)])
    def test_identical_paths_when_caps_trip(self, small_dblp, caps):
        index = BCIndex(small_dblp)
        labels_cap, expansions_cap = caps
        for source, target in query_pairs(small_dblp, far_per_distance=10):
            labels = (small_dblp.label(source), small_dblp.label(target))
            kwargs = dict(
                max_labels_per_vertex=labels_cap, max_expansions=expansions_cap
            )
            assert butterfly_core_shortest_path(
                small_dblp, source, target, index, *labels, **kwargs
            ) == object_shortest_path(
                small_dblp, source, target, index, *labels, **kwargs
            ), (source, target)

    @pytest.mark.parametrize("eta", [3, 12, 400])
    def test_identical_expansion(self, small_dblp, eta):
        index = BCIndex(small_dblp)
        csr = small_dblp.freeze()
        closed_seen = set()
        for source, target in query_pairs(small_dblp, far_per_distance=10):
            labels = (small_dblp.label(source), small_dblp.label(target))
            path = object_shortest_path(small_dblp, source, target, index, *labels)
            for k in (0, 2, 4):
                expected, closed = object_expand(
                    small_dblp, path, index, *labels, k, k, eta
                )
                assert expand_candidate_vertices(
                    small_dblp, path, index, *labels, k, k, eta
                ) == expected
                ids, ids_closed = expand_candidate_ids(
                    csr,
                    index.id_arrays(*labels, csr).delta,
                    [csr.id_of(v) for v in path],
                    csr.labels[csr.id_of(source)],
                    csr.labels[csr.id_of(target)],
                    k,
                    k,
                    eta,
                )
                assert {csr.vertex_of(v) for v in ids} == expected
                assert ids_closed == closed
                closed_seen.add(closed)
        # A small eta truncates some candidates, the default closes some.
        assert (False if eta == 3 else True) in closed_seen


# ----------------------------------------------------------------------
# hypothesis-generated graphs
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw):
    """Random graphs with two query labels and an occasional third label."""
    n = draw(st.integers(min_value=2, max_value=16))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(i if draw(st.booleans()) else f"v{i}",
                         label=draw(st.sampled_from(["L", "R", "R", "L", "M"])))
    vertices = list(graph.vertices())
    density = draw(st.integers(1, 7))
    for u, v in product(range(n), repeat=2):
        if u < v and draw(st.integers(0, 9)) < density:
            graph.add_edge(vertices[u], vertices[v])
    return graph


gammas = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@given(labeled_graphs(), gammas, gammas)
@settings(max_examples=120, deadline=None)
def test_identical_paths_on_generated_graphs(graph, gamma1, gamma2):
    index = BCIndex(graph)
    config = PathWeightConfig(gamma1, gamma2)
    vertices = list(graph.vertices())
    for source, target in product(vertices, repeat=2):
        if graph.label(source) == graph.label(target):
            continue
        labels = (graph.label(source), graph.label(target))
        assert butterfly_core_shortest_path(
            graph, source, target, index, *labels, config
        ) == object_shortest_path(graph, source, target, index, *labels, config)


@given(labeled_graphs(), gammas, gammas, st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_oracle_returns_the_edge_for_adjacent_pairs(graph, gamma1, gamma2, cap):
    """The adjacency lemma: Def. 6's optimum between neighbours is the edge,
    and so is the hop-count fallback when the expansion cap trips."""
    index = BCIndex(graph)
    config = PathWeightConfig(gamma1, gamma2)
    for source, target in graph.edges():
        if graph.label(source) == graph.label(target):
            continue
        for s, t in ((source, target), (target, source)):
            labels = (graph.label(s), graph.label(t))
            assert object_shortest_path(graph, s, t, index, *labels, config) == [s, t]
            assert object_shortest_path(
                graph, s, t, index, *labels, config, max_expansions=cap
            ) == [s, t]
