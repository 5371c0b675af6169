import logging

import numpy as np
import pytest

from relnet.connectome import import_connectome, matched_er, sample_subgraph
from relnet.errors import FormatError, TooLarge, TooSmall
from relnet.generators import gen_complete, gen_er
from relnet.graphs import from_edge_pairs, largest_component


def ring_with_chords(n, chord_step):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + chord_step) % n) for i in range(0, n, 7)]
    return edges


def write_edge_file(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def messy_file(tmp_path):
    """Directed, weighted, duplicated 12-node file that collapses to a ring."""
    lines = ["# synthetic connectome export", "# nodes 12"]
    for i in range(12):
        j = (i + 1) % 12
        lines.append(f"{i} {j} 0.75")  # weighted forward entry
        lines.append(f"{j} {i} 0.25")  # reciprocal entry
        lines.append(f"{i} {j}")  # duplicate, unweighted
    lines.append("3 3")  # self-loop, must vanish
    path = tmp_path / "messy.edges"
    write_edge_file(path, lines)
    return path


class TestImport:
    def test_collapses_to_simple_graph(self, messy_file):
        g = import_connectome(messy_file)
        assert g.node_count == 12
        assert g.edge_count == 12
        assert g.edges == frozenset(
            tuple(sorted((i, (i + 1) % 12))) for i in range(12)
        )

    def test_declared_match_is_silent(self, messy_file, caplog):
        with caplog.at_level(logging.WARNING, logger="relnet.connectome"):
            import_connectome(messy_file, declared_nodes=12)
        assert not caplog.records

    def test_declared_mismatch_warns(self, messy_file, caplog):
        with caplog.at_level(logging.WARNING, logger="relnet.connectome"):
            g = import_connectome(messy_file, declared_nodes=15)
        assert any("declared 15" in r.getMessage() for r in caplog.records)
        assert any("yields 12" in r.getMessage() for r in caplog.records)
        # extra declared neurons are kept as isolated nodes
        assert g.node_count == 15
        assert g.edge_count == 12

    def test_declared_smaller_keeps_file_nodes(self, messy_file, caplog):
        with caplog.at_level(logging.WARNING, logger="relnet.connectome"):
            g = import_connectome(messy_file, declared_nodes=9)
        assert caplog.records
        assert g.node_count == 12

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        write_edge_file(path, ["0 1", "1 2", "2 banana"])
        with pytest.raises(FormatError, match=r"bad\.edges:3: non-integer node id"):
            import_connectome(path)

    @pytest.mark.parametrize(
        "lines, lineno",
        [
            (["# nodes x", "0 1"], 1),
            (["# nodes 2.5", "0 1"], 1),
            (["0 1", "# community 0 a", "# community 1 0"], 2),
            (["0 1", "# community 0 0", "# community b 0"], 3),
        ],
        ids=["nodes-word", "nodes-float", "community-label", "community-node"],
    )
    def test_structured_comment_error_reports_line(self, tmp_path, lines, lineno):
        path = tmp_path / "bad.edges"
        write_edge_file(path, lines)
        with pytest.raises(FormatError, match=rf"bad\.edges:{lineno}: non-integer"):
            import_connectome(path)

    def test_whole_brain_sized_import(self, tmp_path):
        # 277 nodes, ring plus chords: same order as a published whole-brain set
        edges = ring_with_chords(277, 19)
        path = tmp_path / "brain.edges"
        write_edge_file(path, [f"{a} {b}" for a, b in edges])
        g = import_connectome(path, declared_nodes=277)
        assert g.node_count == 277
        assert g.edge_count == len(set(tuple(sorted(e)) for e in edges))

    def test_subregion_sized_import(self, tmp_path):
        edges = ring_with_chords(131, 11)
        path = tmp_path / "frontal.edges"
        write_edge_file(path, [f"{a} {b}" for a, b in edges])
        g = import_connectome(path)
        assert g.node_count == 131


class TestSampleSubgraph:
    def test_full_sample_is_largest_component(self):
        g = from_edge_pairs(8, [(0, 1), (1, 2), (2, 0), (4, 5)])
        sampled = sample_subgraph(g, 8, seed=3)
        expected = largest_component(g)
        assert sampled.node_count == expected.node_count
        assert sampled.edges == expected.edges

    def test_oversample_rejected(self):
        g = gen_complete(5)
        with pytest.raises(TooLarge, match="cannot sample 6"):
            sample_subgraph(g, 6, seed=0)

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_below_one_node_rejected(self, size):
        with pytest.raises(TooSmall, match=f"sample size must be >= 1, got {size}$"):
            sample_subgraph(gen_complete(5), size, seed=0)

    def test_deterministic(self):
        g = gen_er(40, 0.2, seed=5)
        a = sample_subgraph(g, 15, seed=9)
        b = sample_subgraph(g, 15, seed=9)
        c = sample_subgraph(g, 15, seed=10)
        assert a.edges == b.edges and a.node_count == b.node_count
        assert (c.edges != a.edges) or (c.node_count != a.node_count)

    def test_sample_is_induced(self):
        # every edge of the sample must exist in the source ring
        g = from_edge_pairs(20, [(i, (i + 1) % 20) for i in range(20)])
        sampled = sample_subgraph(g, 12, seed=1)
        assert sampled.node_count <= 12

    def test_inclusion_is_uniform(self):
        # over many seeds each of 20 ring nodes should enter the pre-component
        # sample with probability 1/2; components only shrink counts afterward,
        # so track membership via induced sampling run manually
        g = from_edge_pairs(20, [(i, (i + 1) % 20) for i in range(20)])
        counts = np.zeros(20)
        trials = 400
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            nodes = rng.choice(20, size=10, replace=False)
            counts[nodes] += 1
        p_hat = counts / trials
        sigma = np.sqrt(0.5 * 0.5 / trials)
        assert np.abs(p_hat - 0.5).max() <= 4 * sigma


class TestMatchedEr:
    def test_complete_graph_matches_complete(self):
        g = gen_complete(10)
        control = matched_er(g, seed=0)
        assert control.node_count == 10
        assert control.edge_count == 45

    def test_density_is_reproduced(self):
        g = gen_er(60, 0.3, seed=2)
        p = g.edge_count / (60 * 59 / 2)
        control = matched_er(g, seed=7)
        # the control is gen_er(60, p, 7) reduced to its largest component
        expected = largest_component(gen_er(60, p, 7))
        assert control.edges == expected.edges

    def test_fewer_than_two_nodes_rejected(self):
        with pytest.raises(TooSmall, match="needs >= 2 nodes, got 1$"):
            matched_er(from_edge_pairs(1, []), seed=0)

    def test_deterministic(self):
        g = gen_er(30, 0.2, seed=4)
        a = matched_er(g, seed=11)
        b = matched_er(g, seed=11)
        assert a.edges == b.edges
