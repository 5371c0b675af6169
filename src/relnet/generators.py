"""Seeded generators for the graph families used in the experiments.

Families:
  complete   -- all-pairs baseline
  er         -- Erdos-Renyi G(n, p), each pair independent
  static_sf  -- static scale-free model: node weights w_i ~ i^(-alpha) with
                alpha = 1/(gamma-1); endpoints drawn proportionally to the
                weights until exactly floor(m*n/2) distinct edges exist
  community  -- k near-equal blocks, each generated by a base family and
                reduced to its largest component, then inter-community node
                pairs added independently with probability mu

`REQUIRED` alone names the parameters of each family. Generators are pure
functions of their spec: the same spec (including seed) always yields the
same edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeSaturation, InvalidValue, TooManyCommunities, TooSmall, require_at_least
from .graphs import (Graph, bfs, from_adjacency, from_edge_pairs, largest_component,
                     near_equal_sizes)
from .seeding import child_seed, rng

# The parameters each family requires and takes (community: plus its base's).
REQUIRED = {
    "complete": (),
    "er": ("p",),
    "static_sf": ("gamma", "m"),
    "community": ("communities", "mu", "base"),
}
FAMILIES = tuple(REQUIRED)
BASE_FAMILIES = ("er", "static_sf")
PARAMETERS = sum(REQUIRED.values(), ())  # every parameter, in field order

# Stream tags for deriving independent child seeds inside the composer.
_CROSS_STREAM = 1 << 32
_BRIDGE_STREAM = 2 << 32

# Drawing batch for the static-model sampler; size only affects speed.
_SF_CHUNK = 8192


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one graph family; unused fields must stay None.

    family "community" composes `communities` blocks of the `base` family
    (whose own `REQUIRED` parameters must be set) with inter-community
    density `mu`.
    """

    family: str
    n: int = 128
    p: float | None = None
    gamma: float | None = None
    m: float | None = None
    communities: int | None = None
    mu: float | None = None
    base: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Check that the spec is well formed: a known family (and base), the
        parameters it requires set and no others, each in range (else
        InvalidValue naming it), n >= 2. It does not check whether the graph
        can be built (communities <= n/2, a feasible, unsaturated
        static-model block): `generate_with_info` does."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise TooSmall(f"'n' must be >= 2, got {self.n}")
        required = REQUIRED[self.family]
        owner = f"family {self.family!r}"
        if self.family == "community" and self.base is not None:
            if self.base not in BASE_FAMILIES:
                raise ValueError(f"base family must be one of {BASE_FAMILIES}, got {self.base!r}")
            required += REQUIRED[self.base]
            owner += f" with base {self.base!r}"
        for name in PARAMETERS:
            if name not in required and getattr(self, name) is not None:
                raise ValueError(f"{owner} does not take {name!r}")
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{owner} requires {name!r}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise InvalidValue("p", f"must be in [0,1], got {self.p}")
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise InvalidValue("mu", f"must be in [0,1], got {self.mu}")
        if self.gamma is not None and not self.gamma >= 2.0:
            raise InvalidValue("gamma", f"must be >= 2, got {self.gamma}")
        if self.m is not None and not self.m > 0:
            raise InvalidValue("m", f"must be > 0, got {self.m}")
        if self.communities is not None:
            require_at_least(1, communities=self.communities)


@dataclass(frozen=True)
class GenerationInfo:
    """Composition bookkeeping: realized block sizes and the connectivity
    repair edges added; a flat family has one block and no bridges."""

    community_sizes: tuple[int, ...]
    bridge_edges: int = 0


def gen_complete(n: int) -> Graph:
    """Complete graph on n nodes (the dense baseline)."""
    GeneratorSpec("complete", n)  # raises on an argument out of range
    return from_adjacency(~np.eye(n, dtype=bool))


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each pair included independently with probability p."""
    GeneratorSpec("er", n, p=p)  # raises on an argument out of range
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[np.triu_indices(n, k=1)] = rng(seed).random(n * (n - 1) // 2) < p
    return from_adjacency(adjacency | adjacency.T)


def gen_static_sf(n: int, gamma: float, m: float, seed: int) -> Graph:
    """Static-model scale-free graph with degree exponent gamma, mean degree m.

    Node i (1-based) carries weight i^(-alpha), alpha = 1/(gamma-1); two
    endpoints are drawn independently in proportion to the weights, and the
    edge is kept when the endpoints are distinct and the edge is new, until
    exactly floor(m*n/2) edges exist. A target above the n(n-1)/2 possible
    edges raises ValueError; a run of 200*E consecutive rejected draws aborts
    with EdgeSaturation (dense or very low gamma regimes).
    """
    GeneratorSpec("static_sf", n, gamma=gamma, m=m)  # raises on an argument out of range
    target = int(m * n // 2)
    if target > n * (n - 1) // 2:
        raise ValueError(f"static model infeasible: {target} edges requested, "
                         f"{n * (n - 1) // 2} possible for n={n}")
    alpha = 1.0 / (gamma - 1.0)
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0

    gen = rng(seed)
    edges: set[tuple[int, int]] = set()
    budget = 200 * target
    consecutive_failures = 0
    while len(edges) < target:
        draws = np.searchsorted(cdf, gen.random(2 * _SF_CHUNK), side="right")
        for a, b in np.sort(draws.reshape(-1, 2), axis=1).tolist():
            if a == b or (a, b) in edges:
                consecutive_failures += 1
                if consecutive_failures > budget:
                    raise EdgeSaturation(
                        f"static model saturated at {len(edges)}/{target} edges "
                        f"(gamma={gamma}, n={n})",
                        attempts=consecutive_failures,
                    )
            else:
                edges.add((a, b))
                consecutive_failures = 0
                if len(edges) == target:
                    break
    return from_edge_pairs(n, edges)


def _draw(family: str, spec: GeneratorSpec, n: int, seed: int) -> Graph:
    """A graph of the flat `family` on n nodes, with spec's parameters."""
    if family == "complete":
        return gen_complete(n)
    if family == "er":
        return gen_er(n, spec.p, seed)
    return gen_static_sf(n, spec.gamma, spec.m, seed)


def generate_with_info(spec: GeneratorSpec) -> tuple[Graph, GenerationInfo]:
    """The graph of spec.family, with its composition bookkeeping (one block
    and no bridges for a flat family). A community graph is composed as the
    module docstring says: more communities than n/2 raise
    TooManyCommunities, and each block raises its base family's errors."""
    if spec.family != "community":
        graph = _draw(spec.family, spec, spec.n, spec.seed)
        return graph, GenerationInfo(community_sizes=(graph.node_count,))
    k = spec.communities
    if k > spec.n / 2:
        raise TooManyCommunities(f"{k} communities leave blocks below 2 nodes for n={spec.n}")
    blocks = [
        largest_component(_draw(spec.base, spec, size, child_seed(spec.seed, c)))
        for c, size in enumerate(near_equal_sizes(spec.n, k))
    ]
    sizes = [b.node_count for b in blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    spans = [slice(offsets[c], offsets[c + 1]) for c in range(k)]
    adjacency = np.zeros((offsets[-1], offsets[-1]), dtype=bool)
    for span, block in zip(spans, blocks):
        adjacency[span, span] = block.adjacency

    # Inter-community pairs sampled independently at probability mu, block
    # pair by block pair in lexicographic order for determinism; drawn
    # above the diagonal, then mirrored.
    cross_rng = rng(child_seed(spec.seed, _CROSS_STREAM))
    for c1 in range(k):
        for c2 in range(c1 + 1, k):
            adjacency[spans[c1], spans[c2]] = cross_rng.random((sizes[c1], sizes[c2])) < spec.mu
    adjacency |= adjacency.T

    # Connectivity repair: one random bridge from every community still cut
    # off from the component containing community 0; bridges are counted and
    # reported so downstream densities can discount them.
    bridge_rng = rng(child_seed(spec.seed, _BRIDGE_STREAM))
    bridges = 0
    if k > 1:
        reached, _ = bfs(adjacency)
        main = reached[0].copy()
        # Each block is connected, so one representative per community
        # suffices; one bridge merges that community's whole component.
        for c in range(1, k):
            if main[offsets[c]]:
                continue
            u = int(bridge_rng.integers(offsets[c], offsets[c + 1]))
            members = np.flatnonzero(main)
            v = int(members[bridge_rng.integers(0, len(members))])
            adjacency[u, v] = adjacency[v, u] = True
            bridges += 1
            main |= reached[u]

    graph = from_adjacency(adjacency, community_of=np.repeat(np.arange(k), sizes))
    return graph, GenerationInfo(community_sizes=tuple(sizes), bridge_edges=bridges)
