"""Import biological connectomes from edge-list files.

Published connectome files (e.g. the C. elegans whole-brain and frontal
networks) come as directed, sometimes weighted edge lists; here they are
collapsed to the undirected simple graphs the MLP translation consumes.
Data files are user-supplied paths, never vendored.
"""

from __future__ import annotations

import logging

from .errors import TooLarge, TooSmall
from .generators import gen_er
from .graphs import Graph, induced_subgraph, largest_component, read_edge_list
from .seeding import rng

log = logging.getLogger(__name__)


def import_connectome(path, declared_nodes: int | None = None) -> Graph:
    """Read an edge-list file into an undirected simple Graph.

    Duplicate and reciprocal lines collapse to one edge; self-loops are
    dropped. `declared_nodes` is the expected node count: a mismatch is
    logged, not fatal, since published connectome exports vary in how they
    count isolated neurons. When it exceeds the file's node count the extra
    (isolated) nodes are kept, without community labels.
    """
    g = read_edge_list(path)
    if declared_nodes is not None and declared_nodes != g.node_count:
        log.warning(
            "connectome %s: declared %d nodes, file yields %d",
            path,
            declared_nodes,
            g.node_count,
        )
        if declared_nodes > g.node_count:
            g = Graph(node_count=declared_nodes, edges=g.edges)
    return g


def sample_subgraph(g: Graph, n_sample: int, seed: int) -> Graph:
    """Uniform node sample without replacement, induced, then largest component.

    The component step keeps the trained architecture connected; the
    realized node count can therefore fall below n_sample.
    """
    if n_sample < 1:
        raise TooSmall(f"sample size must be >= 1, got {n_sample}")
    if n_sample > g.node_count:
        raise TooLarge(
            f"cannot sample {n_sample} nodes from a {g.node_count}-node graph"
        )
    nodes = rng(seed).choice(g.node_count, size=n_sample, replace=False)
    return largest_component(induced_subgraph(g, nodes.tolist()))


def matched_er(g: Graph, seed: int) -> Graph:
    """ER control graph: same node count, p matched to g's edge density,
    reduced to its largest component."""
    n = g.node_count
    if n < 2:
        raise TooSmall(f"a matched ER control needs >= 2 nodes, got {n}")
    p = g.edge_count / (n * (n - 1) / 2)
    return largest_component(gen_er(n, min(1.0, p), seed))
