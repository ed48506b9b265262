"""Parity of the engine's G0 views against the object-graph algorithms.

A prepared :class:`BCCEngine` serves Online-BCC, LP-BCC and L2P-BCC from
component-keyed G0 views, peeling id masks over its frozen CSR.  The
object-graph implementations (``run_*`` called without ``views``) are the
oracle: the view path must agree with them exactly on status, reason,
vertex set, iteration count, query distance and leader pair.
"""

from __future__ import annotations

import sys
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro import BCCEngine, Query, SearchConfig
from repro.core.local_search import run_l2p_bcc
from repro.core.lp_bcc import run_lp_bcc
from repro.core.online_bcc import run_online_bcc
from repro.datasets import load_dataset
from repro.exceptions import EmptyCommunityError
from repro.graph.labeled_graph import LabeledGraph

RUNNERS = {"online-bcc": run_online_bcc, "lp-bcc": run_lp_bcc}

#: (k1, k2, b, bulk_deletion, max_iterations) cases of the parity matrix.
CASES = [
    (None, None, 1, True, None),
    (None, None, 2, True, None),
    (None, None, 3, False, None),
    (None, None, 1, False, None),
    (2, 3, 1, True, None),
    (3, 2, 2, False, None),
    (None, None, 1, True, 1),
    (None, None, 2, False, 2),
]


def oracle(graph, method, pair, k1, k2, b, bulk, max_iterations):
    """The object-graph answer as the engine would report it."""
    try:
        result = RUNNERS[method](
            graph, pair[0], pair[1], k1=k1, k2=k2, b=b,
            bulk_deletion=bulk, max_iterations=max_iterations,
        )
    except EmptyCommunityError as exc:
        return ("empty", exc.reason, (), 0, None, None)
    return (
        "ok",
        None,
        tuple(sorted(result.vertices, key=repr)),
        result.iterations,
        result.query_distance,
        result.leader_pair,
    )


def served(engine, method, pair, k1, k2, b, bulk, max_iterations):
    config = SearchConfig(
        k1=k1, k2=k2, b=b, bulk_deletion=bulk, max_iterations=max_iterations
    )
    response = engine.search(Query(method, pair), config=config, use_cache=False)
    if response.status != "ok":
        return (response.status, response.reason, (), 0, None, None)
    result = response.result
    return (
        "ok",
        None,
        tuple(sorted(result.vertices, key=repr)),
        result.iterations,
        result.query_distance,
        result.leader_pair,
    )


def cross_pairs(graph: LabeledGraph):
    pairs = sorted(graph.cross_edges(), key=repr)
    # Both orientations: the left side is the first query vertex's label.
    return [p if i % 2 == 0 else (p[1], p[0]) for i, p in enumerate(pairs)]


@pytest.fixture(scope="module")
def small_dblp():
    return load_dataset("dblp", 3, communities=3, community_size=14).graph


class TestParityOnDblp:
    @pytest.mark.parametrize("method", sorted(RUNNERS))
    def test_every_cross_pair_default_config(self, small_dblp, method):
        engine = BCCEngine(small_dblp).prepare()
        pairs = cross_pairs(small_dblp)
        assert len(pairs) > 20
        for pair in pairs:
            args = (method, pair, None, None, 1, True, None)
            assert served(engine, *args) == oracle(small_dblp, *args), pair
        counters = engine.counters_snapshot()
        # Pairs share views: far fewer builds than queries.
        assert counters["g0_view_builds"] < len(pairs) / 2
        assert counters["g0_view_builds"] + counters["g0_view_hits"] <= len(pairs)

    @pytest.mark.parametrize("case", CASES)
    def test_parameter_matrix(self, small_dblp, case):
        engine = BCCEngine(small_dblp).prepare()
        for pair in cross_pairs(small_dblp)[::3]:
            for method in RUNNERS:
                args = (method, pair) + case
                assert served(engine, *args) == oracle(small_dblp, *args), (
                    method, pair, case,
                )

    def test_l2p_matches_object_backend(self, small_dblp):
        views = BCCEngine(small_dblp).prepare()
        index = views.ensure_index()
        for pair in cross_pairs(small_dblp)[::2]:
            for b in (1, 2):
                a = views.search(Query("l2p-bcc", pair), config=SearchConfig(b=b))
                try:  # without views: the object-graph path
                    o = run_l2p_bcc(small_dblp, *pair, b=b, index=index)
                except EmptyCommunityError as exc:
                    assert (a.status, a.reason) == ("empty", exc.reason), pair
                    continue
                assert (a.status, a.vertices, a.iterations) == (
                    "ok", o.vertices, o.iterations,
                ), pair
                assert a.result.leader_pair == o.leader_pair
                assert a.query_distance == o.query_distance


# ----------------------------------------------------------------------
# hypothesis-generated graphs
# ----------------------------------------------------------------------
@st.composite
def two_label_graphs(draw):
    """Dense-ish random graphs with string vertices and two labels."""
    n = draw(st.integers(min_value=4, max_value=14))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(f"v{i}", label=draw(st.sampled_from(["L", "R"])))
    for u, v in product(range(n), repeat=2):
        if u < v and draw(st.integers(0, 9)) < 6:
            graph.add_edge(f"v{u}", f"v{v}")
    return graph


@given(
    two_label_graphs(),
    st.sampled_from(CASES),
    st.sampled_from(sorted(RUNNERS)),
)
@settings(max_examples=80, deadline=None)
def test_parity_on_generated_graphs(graph, case, method):
    pairs = cross_pairs(graph)
    if not pairs:
        return
    engine = BCCEngine(graph).prepare()
    for pair in pairs[:6]:
        args = (method, pair) + case
        assert served(engine, *args) == oracle(graph, *args), pair


@pytest.mark.parametrize("k", [None, 1, 0])
def test_l2p_seed_path_through_a_third_label(k):
    """A seed path may cross a third label; its vertices join neither core."""
    graph = LabeledGraph()
    for v in ("a1", "a2", "a3"):
        graph.add_vertex(v, label="L")
    for v in ("r1", "r2", "r3"):
        graph.add_vertex(v, label="R")
    graph.add_vertex("m", label="M")
    for u, v in (
        ("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("r1", "r2"), ("r2", "r3"),
        ("r1", "r3"), ("a2", "r2"), ("a2", "r3"), ("a3", "r2"), ("a3", "r3"),
        ("a1", "m"), ("m", "r1"),
    ):
        graph.add_edge(u, v)
    config = SearchConfig(k1=k, k2=k)
    query = Query("l2p-bcc", ("a1", "r1"))
    served_ = BCCEngine(graph).prepare().search(query, config=config)
    expected = run_l2p_bcc(graph, "a1", "r1", k1=k, k2=k)
    assert served_.vertices == expected.vertices == {"a1", "a2", "a3", "r1", "r2", "r3"}
    assert served_.iterations == expected.iterations


# ----------------------------------------------------------------------
# the view table itself
# ----------------------------------------------------------------------
class TestViewTable:
    def test_mutation_drops_every_view(self, small_dblp):
        graph = small_dblp.copy()
        engine = BCCEngine(graph).prepare()
        pair = cross_pairs(graph)[0]
        engine.search(Query("online-bcc", pair))
        assert len(engine.g0_views) >= 1
        victim = next(v for v in graph.vertices() if v not in pair)
        graph.remove_vertex(victim)
        # The next serving call sees the new version: no view survives.
        assert len(engine.g0_views) == 0
        assert engine.counters_snapshot()["invalidations"] == 1
        response = engine.search(Query("online-bcc", pair), use_cache=False)
        assert victim not in response.vertices
        assert engine.counters_snapshot()["g0_view_builds"] >= 2

    def test_concurrent_queries_on_one_key_build_once(self, small_dblp):
        engine = BCCEngine(small_dblp).prepare()
        pair = cross_pairs(small_dblp)[0]
        barrier = threading.Barrier(8)
        answers = []

        def worker():
            barrier.wait(timeout=30)
            answers.append(
                engine.search(Query("lp-bcc", pair), use_cache=False).vertices
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the double-checked fill
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 8
        counters = engine.counters_snapshot()
        assert counters["g0_view_builds"] == 1
        assert counters["g0_view_hits"] == 7
        assert all(vertices == answers[0] for vertices in answers)

    def test_b_is_checked_not_keyed(self, small_dblp):
        engine = BCCEngine(small_dblp).prepare()
        pair = cross_pairs(small_dblp)[0]
        for b in (1, 2, 3, 50):
            engine.search(Query("online-bcc", pair), config=SearchConfig(b=b))
        assert engine.counters_snapshot()["g0_view_builds"] == 1
        huge = engine.search(Query("online-bcc", pair), config=SearchConfig(b=10**6))
        assert huge.status == "empty" and huge.reason == "no-candidate"

    def test_counters_reach_stats_and_metrics(self, small_dblp):
        from repro.obs.metrics import EXPORTED_COUNTERS

        engine = BCCEngine(small_dblp).prepare()
        engine.search(Query("online-bcc", cross_pairs(small_dblp)[0]))
        counters = engine.counters_snapshot()
        assert counters["g0_view_builds"] == 1
        assert {"g0_view_builds", "g0_view_hits"} <= EXPORTED_COUNTERS
