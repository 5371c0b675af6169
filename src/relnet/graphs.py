"""Undirected simple graphs with optional community labels.

The graph type used throughout: nodes are the integers 0..n-1, edges are
unordered pairs stored with the smaller id first, self-loops are never
stored (the MLP translation adds them implicitly), and an optional
community labelling assigns every node exactly one 0-based community id.
Labels are always given as a sequence, one per node in node order.
Each graph also caches a dense boolean adjacency matrix; components, path
lengths and clustering are computed on it, by matrix products that run on
one OpenBLAS thread whoever calls them (`one_blas_thread`).

Also holds the structural metrics reported alongside training results and
the plain-text edge-list format shared with the connectome importer.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidNodeId

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on nodes 0..node_count-1."""

    node_count: int
    edges: frozenset[Edge]
    community_of: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidNodeId(f"node_count must be >= 1, got {self.node_count}")
        for i, j in self.edges:
            if not (0 <= i < j < self.node_count):
                raise InvalidNodeId(
                    f"edge ({i},{j}) invalid for node_count={self.node_count}"
                )
        if self.community_of is not None and len(self.community_of) != self.node_count:
            raise InvalidNodeId(
                f"community labels cover {len(self.community_of)} nodes, "
                f"expected {self.node_count}"
            )

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only symmetric boolean node_count x node_count matrix, False
        on the diagonal; dense, so built only when first asked for."""
        a = np.zeros((self.node_count, self.node_count), dtype=bool)
        i, j = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2).T
        a[i, j] = a[j, i] = True
        a.flags.writeable = False
        return a

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        ends = list(chain.from_iterable(self.edges))
        return np.bincount(ends, minlength=self.node_count).tolist()

    def n_communities(self) -> int:
        return len(self.community_sizes())

    def community_sizes(self) -> dict[int, int]:
        """Node count of each label, in order of first appearance; {} unlabeled."""
        return dict(Counter(self.community_of or ()))


def near_equal_sizes(total: int, parts: int) -> list[int]:
    """`total` split into `parts` sizes that differ by at most one; the first
    (total mod parts) are the larger."""
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def from_adjacency(adjacency: np.ndarray, community_of=None) -> Graph:
    """Graph of a symmetric boolean matrix with a False diagonal, labeled by
    the sequence `community_of`; the matrix becomes the graph's (read-only)
    `adjacency`."""
    i, j = np.nonzero(adjacency)
    upper = i < j
    g = Graph(
        node_count=len(adjacency),
        edges=frozenset(zip(i[upper].tolist(), j[upper].tolist())),
        community_of=None if community_of is None else tuple(int(c) for c in community_of),
    )
    adjacency.flags.writeable = False
    g.__dict__["adjacency"] = adjacency  # fill the cached_property
    return g


def from_edge_pairs(n: int, pairs, community_of=None) -> Graph:
    """Build a Graph from possibly messy (i, j) pairs, labeled by the
    sequence `community_of`.

    Self-pairs are dropped, duplicates collapse, and (i, j) == (j, i).
    """
    if n < 1:
        raise InvalidNodeId(f"n must be >= 1, got {n}")
    edges = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidNodeId(f"pair ({i},{j}) out of range for n={n}")
        if i == j:
            continue
        edges.add((i, j) if i < j else (j, i))
    labels = None if community_of is None else tuple(int(c) for c in community_of)
    return Graph(node_count=n, edges=frozenset(edges), community_of=labels)


@functools.cache
def _openblas_function(name: str):
    """The function `name` (such as "set_num_threads") of the OpenBLAS this
    process has loaded, as a ctypes function, looked up once per process;
    None when no OpenBLAS is among its mapped libraries. numpy's wheels
    prefix and suffix the symbol name ("scipy_openblas_set_num_threads64_")."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for symbol in (f"openblas_{name}", f"scipy_openblas_{name}64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, with OpenBLAS on one thread,
    then restore its count. The graph products (`bfs`, `clustering_coefficient`)
    multiply small 0/1 matrices, which more threads slow down; their sums are
    exact, so the count changes no result. Without OpenBLAS, do nothing."""
    get_threads = _openblas_function("get_num_threads")
    set_threads = _openblas_function("set_num_threads")
    if get_threads is None or set_threads is None:
        yield
        return
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


@one_blas_thread()
def bfs(adjacency: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first search from every node at once: (reached, distance_sum),
    where reached[s, v] says v is in the component of s and distance_sum adds
    the hop distances of all such ordered pairs (s, v). Each level is one
    float32 product of 0/1 matrices, whose sums (at most the node count) are
    exact below 2**24."""
    step = adjacency.astype(np.float32)
    reached = np.eye(len(step), dtype=bool)
    frontier = reached
    distance_sum = 0
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier.astype(np.float32) @ step > 0) & ~reached
        reached |= frontier
        distance_sum += level * int(frontier.sum())
    return reached, distance_sum


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Induced subgraph on `nodes`, relabeled 0..len-1 in ascending original order.

    Community labels, when present, are carried over.
    """
    kept = sorted(set(int(v) for v in nodes))
    for v in kept:
        if not (0 <= v < g.node_count):
            raise InvalidNodeId(f"node {v} out of range")
    labels = None
    if g.community_of is not None:
        labels = [g.community_of[v] for v in kept]
    return from_adjacency(g.adjacency[np.ix_(kept, kept)], community_of=labels)


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component.

    Ties on size go to the component containing the lowest node id; an
    edgeless graph therefore reduces to the single node 0. Node ids are
    relabeled to 0..n'-1 preserving ascending original order.
    """
    reached, _ = bfs(g.adjacency)
    # argmax takes the lowest node of the largest components.
    best = reached[reached.sum(axis=1).argmax()]
    if best.all():
        return g
    return induced_subgraph(g, np.flatnonzero(best).tolist())


@one_blas_thread()
def clustering_coefficient(g: Graph) -> float:
    """Mean local clustering; nodes of degree < 2 contribute 0."""
    a = g.adjacency.astype(np.float64)
    closed = ((a @ a) * a).sum(axis=1)  # twice the links among each node's neighbors
    k = a.sum(axis=1)
    local = closed / np.maximum(k * (k - 1), 1.0)
    # cumsum adds node by node, left to right, like a scalar loop would.
    return float(np.cumsum(local)[-1]) / g.node_count


def modularity(g: Graph, partition) -> float | None:
    """Newman-Girvan modularity Q = sum_c (e_cc - a_c^2), or None for an
    edgeless graph, where it is undefined.

    `partition` is the sequence of community ids, one per node.
    """
    labels = list(partition)
    if len(labels) != g.node_count:
        raise InvalidNodeId("partition must label every node")
    if g.edge_count == 0:
        return None
    m = g.edge_count
    label_of = np.array(labels)
    degrees = g.adjacency.sum(axis=1)
    q = 0.0
    for c in set(labels):
        members = label_of == c
        e_cc = int(g.adjacency[np.ix_(members, members)].sum()) // 2 / m
        a_c = int(degrees[members].sum()) / (2 * m)
        q += e_cc - a_c * a_c
    return q


def cross_density(g: Graph) -> float | None:
    """Fraction of inter-community node pairs realized as edges, or None
    with fewer than two communities, where there are no such pairs."""
    if g.n_communities() < 2:
        return None
    labels = np.array(g.community_of)
    sizes = list(g.community_sizes().values())
    n = g.node_count
    cross_pairs = (n * n - sum(s * s for s in sizes)) // 2
    cross_edges = int((g.adjacency & (labels[:, None] != labels[None, :])).sum()) // 2
    return cross_edges / cross_pairs


@dataclass(frozen=True)
class GraphMetrics:
    """Structural summary reported next to each training result; each field
    but `giant_fraction` is the records CSV column of the same name.

    `avg_path_len` is None when the graph is disconnected or has fewer
    than two nodes; `modularity` is None without community labels or edges;
    `cross_density` is None unless at least two communities are present.
    """

    mean_degree: float
    clustering: float
    avg_path_len: float | None
    modularity: float | None
    cross_density: float | None
    giant_fraction: float


def compute_metrics(g: Graph) -> GraphMetrics:
    """Compute the metric set for a graph as handed to the MLP translator."""
    n = g.node_count
    reached, distance_sum = bfs(g.adjacency)
    giant = int(reached.sum(axis=1).max())
    return GraphMetrics(
        mean_degree=2 * g.edge_count / n,
        clustering=clustering_coefficient(g),
        # Mean hop distance over unordered pairs, when every pair has one.
        avg_path_len=distance_sum // 2 / (n * (n - 1) / 2) if giant == n >= 2 else None,
        modularity=None if g.community_of is None else modularity(g, g.community_of),
        cross_density=cross_density(g),
        giant_fraction=giant / n,
    )


# ---------------------------------------------------------------------------
# Edge-list text format
#
# One edge per line: two whitespace-separated 0-based integer ids; an
# optional third column (weights in published connectome files) is ignored.
# Lines starting with '#' are comments; two structured comments are written
# by this package and recognized on read:
#     # nodes <n>
#     # community <node> <label>


def write_edge_list(g: Graph, path) -> None:
    lines = [f"# nodes {g.node_count}"]
    if g.community_of is not None:
        for v in range(g.node_count):
            lines.append(f"# community {v} {g.community_of[v]}")
    for i, j in sorted(g.edges):
        lines.append(f"{i} {j}")
    Path(path).write_text("\n".join(lines) + "\n")


def _ints(fields: list[str], where: str, what: str) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"{where}: non-integer {what}") from exc


def read_edge_list(path) -> Graph:
    """Parse the edge-list format; a malformed line, structured comments
    included, raises FormatError naming path:line (1-based)."""
    declared_n = None
    communities: dict[int, int] = {}
    pairs: list[Edge] = []
    max_id = -1
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            where = f"{path}:{lineno}"
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields[:1] == ["nodes"] and len(fields) == 2:
                    (declared_n,) = _ints(fields[1:], where, "node count")
                elif fields[:1] == ["community"] and len(fields) == 3:
                    v, label = _ints(fields[1:], where, "community entry")
                    if v < 0:
                        raise FormatError(f"{where}: negative node id")
                    communities[v] = label
                continue
            fields = line.split()
            if len(fields) < 2:
                raise FormatError(f"{where}: expected two node ids")
            i, j = _ints(fields[:2], where, "node id")
            if i < 0 or j < 0:
                raise FormatError(f"{where}: negative node id")
            pairs.append((i, j))
            max_id = max(max_id, i, j)
    if communities:
        max_id = max(max_id, max(communities))
    n = max_id + 1
    if declared_n is not None:
        if declared_n < n:
            raise FormatError(
                f"{path}: declared {declared_n} nodes but ids reach {max_id}"
            )
        n = declared_n
    if n < 1:
        raise FormatError(f"{path}: no nodes found")
    labels = None
    if communities:
        missing = [v for v in range(n) if v not in communities]
        if missing:
            raise FormatError(
                f"{path}: community labels missing for nodes {missing[:5]}"
            )
        labels = [communities[v] for v in range(n)]
    return from_edge_pairs(n, pairs, community_of=labels)
