"""L2P-BCC served from the engine's G0 views against the object oracles.

A prepared :class:`BCCEngine` runs L2P-BCC's seed path and expansion on
CSR ids and, when the candidate closed, takes its ``G0`` from the view
table (``engine.g0_views``); a truncated candidate gets a masked peel.
The references are ``run_l2p_bcc`` called without ``views`` and
``l2p_oracle.object_l2p`` (Algorithm 8 on object graphs only): status,
reason, vertex set, iterations, query distance and leader pair must agree.
"""

from __future__ import annotations

import sys
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from l2p_oracle import object_l2p, query_pairs
from repro import BCCEngine, Query, SearchConfig
from repro.core.bc_index import BCIndex
from repro.core.local_search import run_l2p_bcc
from repro.datasets import load_dataset
from repro.exceptions import EmptyCommunityError
from repro.graph.labeled_graph import LabeledGraph


def fields(response):
    if response.status != "ok":
        return (response.status, response.reason, (), 0, None, None)
    return result_fields(response.result)


def result_fields(result):
    return (
        "ok",
        None,
        tuple(sorted(result.vertices, key=repr)),
        result.iterations,
        result.query_distance,
        result.leader_pair,
    )


def oracle_fields(graph, pair, config: SearchConfig):
    try:
        result = object_l2p(
            graph, pair[0], pair[1], k1=config.k1, k2=config.k2, b=config.b,
            eta=config.eta,
        )
    except EmptyCommunityError as exc:
        return ("empty", exc.reason, (), 0, None, None)
    return result_fields(result)


def object_fields(graph, pair, config: SearchConfig, index: BCIndex):
    """``run_l2p_bcc`` without ``views``: the library's object-graph path."""
    try:
        result = run_l2p_bcc(
            graph, pair[0], pair[1], k1=config.effective_k1(),
            k2=config.effective_k2(), b=config.b, index=index, eta=config.eta,
            path_config=config.path_config, rho=config.rho,
            max_iterations=config.max_iterations,
        )
    except EmptyCommunityError as exc:
        return ("empty", exc.reason, (), 0, None, None)
    return result_fields(result)


def assert_parity(graph, pairs, config: SearchConfig):
    views = BCCEngine(graph).prepare()
    index = BCIndex(graph)
    for pair in pairs:
        query = Query("l2p-bcc", pair)
        served = fields(views.search(query, config=config, use_cache=False))
        expected = object_fields(graph, pair, config, index)
        assert served == expected, (pair, config)
    return views


def oriented(pairs):
    """Both orientations: the left side is the first query vertex's label."""
    return [p if i % 2 == 0 else (p[1], p[0]) for i, p in enumerate(pairs)]


@pytest.fixture(scope="module")
def small_dblp():
    return load_dataset("dblp", 3, communities=3, community_size=14).graph


class TestParityOnDblp:
    @pytest.mark.parametrize("b", [1, 2])
    def test_every_cross_pair_and_far_pairs(self, small_dblp, b):
        pairs = oriented(query_pairs(small_dblp, far_per_distance=12))
        views = assert_parity(small_dblp, pairs, SearchConfig(b=b))
        counters = views.counters_snapshot()
        # Closed candidates are served from the view table.
        assert counters["g0_view_hits"] > len(pairs) / 2
        assert counters["g0_view_builds"] < len(pairs) / 4

    @pytest.mark.parametrize("b", [1, 2])
    def test_against_the_object_only_oracle(self, small_dblp, b):
        config = SearchConfig(b=b)
        engine = BCCEngine(small_dblp).prepare()
        for pair in oriented(query_pairs(small_dblp, far_per_distance=4))[::3]:
            served = fields(engine.search(Query("l2p-bcc", pair), config=config))
            assert served == oracle_fields(small_dblp, pair, config), pair

    @pytest.mark.parametrize("eta", [2, 5, 12])
    def test_small_eta_truncates(self, small_dblp, eta):
        pairs = oriented(query_pairs(small_dblp, far_per_distance=6))[::2]
        views = assert_parity(small_dblp, pairs, SearchConfig(eta=eta))
        if eta == 2:
            # Cut candidates build their own views; only the global
            # fallback takes one from the table.
            assert views.counters_snapshot()["g0_view_hits"] < len(pairs) / 2

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_explicit_k_below_the_path_thresholds(self, small_dblp, k):
        pairs = oriented(query_pairs(small_dblp, far_per_distance=6))[::2]
        assert_parity(small_dblp, pairs, SearchConfig(k1=k, k2=k + 1))
        assert_parity(small_dblp, pairs, SearchConfig(k1=k + 1, k2=k, b=2))

    def test_explicit_k_above_the_query_coreness(self, small_dblp):
        pairs = oriented(query_pairs(small_dblp, far_per_distance=3))[::3]
        assert_parity(small_dblp, pairs, SearchConfig(k1=6, k2=6))


def third_label_graph() -> LabeledGraph:
    """Two triangles joined by a butterfly; a1 reaches r1 only through m."""
    graph = LabeledGraph()
    for v in ("a1", "a2", "a3", "a4"):
        graph.add_vertex(v, label="L")
    for v in ("r1", "r2", "r3"):
        graph.add_vertex(v, label="R")
    graph.add_vertex("m", label="M")
    for u, v in (
        ("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("a3", "a4"), ("r1", "r2"),
        ("r2", "r3"), ("r1", "r3"), ("a2", "r2"), ("a2", "r3"), ("a3", "r2"),
        ("a3", "r3"), ("a1", "m"), ("m", "r1"),
    ):
        graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("k", [None, 0, 1, 2])
def test_seed_path_through_a_third_label(k, b):
    graph = third_label_graph()
    pairs = [("a1", "r1"), ("r1", "a1"), ("a4", "r1"), ("a1", "r3")]
    config = SearchConfig(k1=k, k2=k, b=b)
    assert_parity(graph, pairs, config)
    engine = BCCEngine(graph).prepare()
    for pair in pairs:
        served = fields(engine.search(Query("l2p-bcc", pair), config=config))
        assert served == oracle_fields(graph, pair, config), pair


def test_mutation_between_queries_answers_the_mutated_graph(small_dblp):
    graph = small_dblp.copy()
    engine = BCCEngine(graph).prepare()
    pairs = oriented(sorted(graph.cross_edges(), key=repr))
    pair = next(
        p for p in pairs
        if engine.search(Query("l2p-bcc", p)).status == "ok"
        and len(engine.search(Query("l2p-bcc", p)).vertices) > 4
    )
    before = engine.search(Query("l2p-bcc", pair), use_cache=False)
    victim = max(
        (v for v in before.vertices if v not in pair), key=repr
    )
    graph.remove_vertex(victim)
    after = engine.search(Query("l2p-bcc", pair), use_cache=False)
    assert victim not in after.vertices
    expected = object_fields(graph, pair, SearchConfig(), BCIndex(graph))
    assert fields(after) == expected
    assert fields(after) == oracle_fields(graph, pair, SearchConfig())


def test_concurrent_queries_fill_the_index_arrays_once(small_dblp):
    """Racing first queries share one δ/χ array fill and give one answer."""
    engine = BCCEngine(small_dblp).prepare()
    index = engine.ensure_index()
    pair = oriented(sorted(small_dblp.cross_edges(), key=repr))[0]
    labels = (small_dblp.label(pair[0]), small_dblp.label(pair[1]))
    barrier = threading.Barrier(8)
    seen = []

    def worker():
        barrier.wait(timeout=30)
        response = engine.search(Query("l2p-bcc", pair), use_cache=False)
        seen.append((fields(response), id(index.id_arrays(*labels, small_dblp.freeze()))))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the checked fill
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert len(set(seen)) == 1
    assert seen[0][0][0] == "ok"


# ----------------------------------------------------------------------
# hypothesis-generated graphs
# ----------------------------------------------------------------------
@st.composite
def two_label_graphs(draw):
    """Dense-ish random graphs with string vertices, two labels, maybe a third."""
    n = draw(st.integers(min_value=4, max_value=14))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(f"v{i}", label=draw(st.sampled_from(["L", "R", "L", "R", "M"])))
    density = draw(st.integers(2, 7))
    for u, v in product(range(n), repeat=2):
        if u < v and draw(st.integers(0, 9)) < density:
            graph.add_edge(f"v{u}", f"v{v}")
    return graph


CASES = [
    SearchConfig(),
    SearchConfig(b=2),
    SearchConfig(eta=3),
    SearchConfig(k1=1, k2=1),
    SearchConfig(k1=0, k2=2, b=2),
]


@given(two_label_graphs(), st.sampled_from(CASES))
@settings(max_examples=80, deadline=None)
def test_parity_on_generated_graphs(graph, config):
    vertices = sorted(graph.vertices())
    pairs = [
        (u, v) for u, v in product(vertices, repeat=2)
        if {graph.label(u), graph.label(v)} == {"L", "R"}
    ][:12]
    if not pairs:
        return
    assert_parity(graph, pairs, config)
    engine = BCCEngine(graph).prepare()
    for pair in pairs[:4]:
        served = fields(engine.search(Query("l2p-bcc", pair), config=config))
        assert served == oracle_fields(graph, pair, config), pair
