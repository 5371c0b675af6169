import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relnet.graphs
from _oracles import floyd_warshall_apl, mean_local_clustering, newman_modularity
from relnet.generators import GeneratorSpec, generate_with_info
from relnet.errors import FormatError, InvalidNodeId
from relnet.graphs import (
    Graph,
    bfs,
    clustering_coefficient,
    compute_metrics,
    cross_density,
    from_edge_pairs,
    induced_subgraph,
    largest_component,
    modularity,
    one_blas_thread,
    read_edge_list,
    write_edge_list,
)

TRIANGLE = from_edge_pairs(3, [(0, 1), (1, 2), (0, 2)])
STAR3 = from_edge_pairs(4, [(0, 1), (0, 2), (0, 3)])


def complete(n):
    return from_edge_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
    return from_edge_pairs(n, edges)


class TestGraph:
    def test_no_nodes(self):
        with pytest.raises(InvalidNodeId, match=r"^node_count must be >= 1, got 0$"):
            Graph(node_count=0, edges=frozenset())

    def test_edge_outside_the_node_range(self):
        with pytest.raises(InvalidNodeId, match=r"^edge \(1,3\) invalid for node_count=3$"):
            Graph(node_count=3, edges=frozenset({(0, 1), (1, 3)}))


class TestFromEdgePairs:
    def test_dedup_and_self_loops(self):
        g = from_edge_pairs(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_edgeless(self):
        g = from_edge_pairs(2, [])
        assert g.node_count == 2 and g.edge_count == 0

    def test_out_of_range(self):
        with pytest.raises(InvalidNodeId):
            from_edge_pairs(2, [(0, 5)])

    def test_no_nodes(self):
        with pytest.raises(InvalidNodeId, match=r"^n must be >= 1, got 0$"):
            from_edge_pairs(0, [])

    def test_labels_from_sequence(self):
        g = from_edge_pairs(3, [(0, 1)], community_of=np.array([0, 0, 1]))
        assert g.community_of == (0, 0, 1)
        assert all(type(c) is int for c in g.community_of)

    def test_labels_must_cover_all_nodes(self):
        with pytest.raises(InvalidNodeId):
            from_edge_pairs(3, [], community_of=[0, 0])

    @given(graphs())
    def test_invariants(self, g):
        for i, j in g.edges:
            assert 0 <= i < j < g.node_count
        a = g.adjacency
        assert a.shape == (g.node_count, g.node_count) and a.dtype == bool
        assert not a.diagonal().any()
        assert (a == a.T).all()
        upper = np.nonzero(np.triu(a))
        assert set(zip(*(ends.tolist() for ends in upper))) == g.edges
        assert g.degrees() == a.sum(axis=1).tolist()


class TestLargestComponent:
    def test_triangle_plus_edge(self):
        g = from_edge_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        lc = largest_component(g)
        assert lc.node_count == 3
        assert lc.edges == TRIANGLE.edges

    def test_connected_identity(self):
        lc = largest_component(TRIANGLE)
        assert lc.node_count == 3 and lc.edges == TRIANGLE.edges

    def test_edgeless_tie_break(self):
        lc = largest_component(from_edge_pairs(3, []))
        assert lc.node_count == 1 and lc.edge_count == 0

    def test_size_tie_goes_to_lowest_id(self):
        g = from_edge_pairs(4, [(0, 1), (2, 3)])
        lc = largest_component(g)
        assert lc.node_count == 2 and lc.edges == frozenset({(0, 1)})

    def test_labels_carried(self):
        g = from_edge_pairs(4, [(1, 2)], community_of=[0, 1, 1, 2])
        lc = largest_component(g)
        assert lc.community_of == (1, 1)

    @given(graphs())
    @settings(max_examples=60)
    def test_idempotent(self, g):
        once = largest_component(g)
        twice = largest_component(once)
        assert once.node_count == twice.node_count
        assert once.edges == twice.edges


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficient(TRIANGLE) == 1.0

    def test_star(self):
        assert clustering_coefficient(STAR3) == 0.0

    def test_nearly_complete_five(self):
        # K5 minus one edge: the two degree-3 endpoints keep fully linked
        # neighborhoods (1 each), the three degree-4 nodes lose one of six
        # neighbor pairs (5/6 each), so the mean is (2 + 3 * 5/6) / 5 = 0.9.
        g = from_edge_pairs(
            5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)]
        )
        assert math.isclose(clustering_coefficient(g), 0.9, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(
            mean_local_clustering(5, sorted(g.edges)), 0.9, abs_tol=1e-12
        )

    @given(graphs())
    @settings(max_examples=80)
    def test_matches_oracle_and_networkx(self, g):
        ours = clustering_coefficient(g)
        assert 0.0 <= ours <= 1.0
        # Both round each node's ratio once and add the nodes in order.
        assert ours == mean_local_clustering(g.node_count, sorted(g.edges))
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from(g.edges)
        assert math.isclose(ours, nx.average_clustering(h), abs_tol=1e-12)


def avg_path_length(g):
    return compute_metrics(g).avg_path_len


class TestAvgPathLength:
    def test_path_of_three(self):
        g = from_edge_pairs(3, [(0, 1), (1, 2)])
        assert math.isclose(avg_path_length(g), 4 / 3, abs_tol=1e-12)

    def test_complete(self):
        assert avg_path_length(complete(6)) == 1.0

    def test_six_cycle(self):
        g = from_edge_pairs(6, [(i, (i + 1) % 6) for i in range(6)])
        assert math.isclose(avg_path_length(g), 1.8, abs_tol=1e-12)

    def test_disconnected_is_none(self):
        assert avg_path_length(from_edge_pairs(4, [(0, 1), (2, 3)])) is None

    def test_single_node_undefined(self):
        assert avg_path_length(from_edge_pairs(1, [])) is None

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            n = int(rng.integers(2, 9))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = rng.random(len(pairs)) < 0.5
            g = largest_component(
                from_edge_pairs(n, [p for p, k in zip(pairs, keep) if k])
            )
            if g.node_count < 2:
                continue
            expected = floyd_warshall_apl(g.node_count, sorted(g.edges))
            assert avg_path_length(g) == expected
            assert 1.0 <= expected <= g.node_count - 1
            checked += 1


class TestModularity:
    def test_two_triangles(self):
        g = from_edge_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert modularity(g, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_single_community(self):
        assert modularity(TRIANGLE, [0, 0, 0]) == 0.0

    def test_single_edge_split(self):
        g = from_edge_pairs(2, [(0, 1)])
        assert modularity(g, [0, 1]) == -0.5

    def test_edgeless_is_none(self):
        assert modularity(from_edge_pairs(3, []), [0, 0, 1]) is None

    def test_partition_shorter_than_the_node_count(self):
        with pytest.raises(InvalidNodeId, match=r"^partition must label every node$"):
            modularity(TRIANGLE, [0, 0])

    @given(graphs(max_n=7), st.integers(min_value=2, max_value=3))
    @settings(max_examples=60)
    def test_in_range_and_matches_oracle(self, g, k):
        labels = [v % k for v in range(g.node_count)]
        q = modularity(g, labels)
        if g.edge_count == 0:
            assert q is None
            return
        assert -0.5 <= q <= 1.0
        assert math.isclose(
            q, newman_modularity(g.node_count, sorted(g.edges), labels), abs_tol=1e-12
        )


class TestCrossDensity:
    def test_all_cross_pairs_present(self):
        g = from_edge_pairs(
            4, [(0, 2), (0, 3), (1, 2), (1, 3)], community_of=[0, 0, 1, 1]
        )
        assert cross_density(g) == 1.0

    def test_no_cross_edges(self):
        g = from_edge_pairs(4, [(0, 1), (2, 3)], community_of=[0, 0, 1, 1])
        assert cross_density(g) == 0.0

    def test_partial(self):
        edges = [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]
        g = from_edge_pairs(7, edges, community_of=[0, 0, 0, 1, 1, 1, 1])
        assert cross_density(g) == 0.5  # 6 of the 12 cross pairs

    def test_single_community_undefined(self):
        assert cross_density(from_edge_pairs(3, [(0, 1)], community_of=[0, 0, 0])) is None

    def test_unlabeled_undefined(self):
        assert cross_density(TRIANGLE) is None


class TestDegreeStats:
    def test_triangle(self):
        assert TRIANGLE.degrees() == [2, 2, 2]
        assert compute_metrics(TRIANGLE).mean_degree == 2.0

    def test_star(self):
        assert STAR3.degrees() == [3, 1, 1, 1]
        assert compute_metrics(STAR3).mean_degree == 1.5


class TestComputeMetrics:
    def test_connected_labeled(self):
        g = from_edge_pairs(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)], community_of=[0, 0, 1, 1]
        )
        m = compute_metrics(g)
        assert m.mean_degree == 2.0
        assert m.clustering == 0.0
        assert math.isclose(m.avg_path_len, (1 + 1 + 2 + 1 + 2 + 1) / 6)
        assert m.cross_density == 0.5
        assert m.giant_fraction == 1.0
        assert math.isclose(
            m.modularity, newman_modularity(4, sorted(g.edges), [0, 0, 1, 1])
        )

    def test_disconnected_unlabeled(self):
        g = from_edge_pairs(5, [(0, 1), (1, 2), (0, 2)])
        m = compute_metrics(g)
        assert m.avg_path_len is None
        assert m.modularity is None
        assert m.cross_density is None
        assert m.giant_fraction == 0.6

    def test_one_bfs_on_a_connected_graph(self, monkeypatch):
        """The components and path lengths come from one reach, and agree
        with networkx's."""
        g, _ = generate_with_info(
            GeneratorSpec("community", 512, communities=8, mu=0.01, base="er", p=0.1, seed=1)
        )
        calls = []
        monkeypatch.setattr(relnet.graphs, "bfs", lambda a: calls.append(a) or bfs(a))
        m = compute_metrics(g)
        assert len(calls) == 1
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from(g.edges)
        assert m.giant_fraction == 1.0 and nx.is_connected(h)
        assert math.isclose(m.avg_path_len, nx.average_shortest_path_length(h), rel_tol=1e-12)


class TestComponentsAndSubgraphs:
    def test_induced_relabel_ascending(self):
        g = from_edge_pairs(6, [(1, 3), (3, 5), (1, 5)], community_of=[0] * 6)
        sub = induced_subgraph(g, [5, 1, 3])
        assert sub.node_count == 3
        assert sub.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert sub.community_of == (0, 0, 0)

    def test_induced_out_of_range(self):
        with pytest.raises(InvalidNodeId):
            induced_subgraph(TRIANGLE, [0, 9])


COMMUNITY = GeneratorSpec("community", 24, communities=3, mu=0.05, base="er", p=0.4, seed=5)
COMMUNITY_GRAPH, _ = generate_with_info(COMMUNITY)


class TestGraphProductsOnOneBlasThread:
    """A graph product runs on one OpenBLAS thread whoever calls it, and the
    previous count (the fake's 3) comes back, also after an error."""

    @pytest.mark.parametrize(
        "work",
        [lambda: compute_metrics(COMMUNITY_GRAPH), lambda: largest_component(COMMUNITY_GRAPH),
         lambda: generate_with_info(COMMUNITY)],
        ids=["compute_metrics", "largest_component", "generate_with_info"],
    )
    def test_direct_call(self, fake_blas, work):
        fake_blas.watch_products()
        work()
        assert fake_blas.products_on_one_thread()
        assert fake_blas.threads == 3

    def test_count_restored_when_generation_raises(self, fake_blas):
        fake_blas.watch_products()
        # Blocks of 5 and 4 nodes: the first is drawn and reduced to its
        # largest component, the second cannot hold m * 4 / 2 = 8 edges.
        spec = GeneratorSpec("community", 9, communities=2, mu=0.1, base="static_sf",
                             gamma=2.5, m=4.0)
        with pytest.raises(ValueError, match="infeasible"):
            generate_with_info(spec)
        assert fake_blas.products_on_one_thread()
        assert fake_blas.threads == 3

    def test_count_restored_when_a_product_raises(self, fake_blas):
        with pytest.raises(ValueError):
            bfs(np.ones((3, 2), dtype=bool))
        assert fake_blas.threads == 3

    def test_decorated_function_sees_one_thread(self, fake_blas):
        @one_blas_thread()
        def threads():
            return fake_blas.threads

        assert (threads(), fake_blas.threads) == (1, 3)


class TestEdgeListFormat:
    def test_round_trip_with_communities(self, tmp_path):
        g = from_edge_pairs(5, [(0, 4), (1, 2), (2, 3)], community_of=[0, 1, 1, 1, 0])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.node_count == g.node_count
        assert back.edges == g.edges
        assert back.community_of == g.community_of

    def test_round_trip_isolated_node(self, tmp_path):
        g = from_edge_pairs(4, [(0, 1)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path).node_count == 4

    def test_comments_blanks_and_weight_column(self, tmp_path):
        path = tmp_path / "w.edges"
        path.write_text("# a comment\n\n0 1 0.25\n1 2 7\n\n")
        g = read_edge_list(path)
        assert g.node_count == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_reciprocal_lines_collapse(self, tmp_path):
        path = tmp_path / "r.edges"
        path.write_text("3 5\n5 3\n")
        g = read_edge_list(path)
        assert g.node_count == 6
        assert g.edges == frozenset({(3, 5)})

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 2\nx 3\n")
        with pytest.raises(FormatError, match=r":3:"):
            read_edge_list(path)

    def test_single_field_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("7\n")
        with pytest.raises(FormatError, match=r":1:"):
            read_edge_list(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 -2\n")
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_negative_community_node_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# community 0 0\n# community 1 0\n# community -1 5\n0 1\n")
        with pytest.raises(FormatError, match=rf"{path}:3: negative node id"):
            read_edge_list(path)

    def test_community_lines_skipping_a_node(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# community 0 0\n# community 2 1\n0 1\n1 2\n")
        with pytest.raises(FormatError, match=rf"^{path}: community labels missing for nodes \[1\]$"):
            read_edge_list(path)

    def test_declared_nodes_too_low(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# nodes 2\n0 5\n")
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        with pytest.raises(FormatError):
            read_edge_list(path)
