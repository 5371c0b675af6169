import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from _oracles import mle_power_exponent
from relnet.errors import EdgeSaturation, TooManyCommunities, TooSmall
from relnet.generators import (
    GenerationInfo,
    GeneratorSpec,
    gen_complete,
    gen_er,
    gen_static_sf,
    generate_with_info,
)
from relnet.graphs import compute_metrics, cross_density, largest_component
from relnet.seeding import child_seed


def counted_info(g, info):
    """(community_sizes, cross pairs, cross edges drawn, bridge_edges), with
    the two cross counts taken from the graph: the pairs across communities
    from its labels, and the edges drawn across them as the edges across
    communities less the bridges (every bridge joins two communities and
    was not an edge before). A flat family has one community and no counts."""
    labels = np.array(g.community_of or (0,) * g.node_count)
    across = labels[:, None] != labels[None, :]
    edges = int((g.adjacency & across).sum()) // 2 - info.bridge_edges
    return info.community_sizes, int(across.sum()) // 2, edges, info.bridge_edges


class TestSpecValidation:
    def test_er_requires_p(self):
        with pytest.raises(ValueError, match="requires 'p'"):
            GeneratorSpec(family="er", n=10)

    def test_complete_rejects_extras(self):
        with pytest.raises(ValueError, match="does not take"):
            GeneratorSpec(family="complete", n=10, p=0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorSpec(family="ring", n=10)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="^p must be"):
            GeneratorSpec(family="er", n=10, p=1.5)

    def test_mu_out_of_range(self):
        with pytest.raises(ValueError, match=r"^mu must be in \[0,1\], got 1.5$"):
            GeneratorSpec(family="community", n=12, communities=2, mu=1.5, base="er", p=0.5)

    def test_flat_base_other_than_er_or_static_sf(self):
        with pytest.raises(
            ValueError,
            match=r"^base family must be one of \('er', 'static_sf'\), got 'complete'$",
        ):
            GeneratorSpec(family="community", n=12, communities=2, mu=0.1, base="complete")

    def test_gamma_below_two(self):
        with pytest.raises(ValueError, match="gamma"):
            GeneratorSpec(family="static_sf", n=10, gamma=1.5, m=2)

    def test_sf_infeasible_target(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_with_info(GeneratorSpec(family="static_sf", n=10, gamma=2.5, m=10))

    def test_community_requires_base_params(self):
        with pytest.raises(ValueError, match="requires 'p'"):
            GeneratorSpec(family="community", n=12, communities=2, mu=0.1, base="er")

    @pytest.mark.parametrize(
        "base, params, stray",
        [
            ("er", dict(p=0.3, gamma=2.5, m=3), "gamma"),
            ("static_sf", dict(gamma=2.5, m=3, p=0.3), "p"),
        ],
    )
    def test_community_rejects_other_base_params(self, base, params, stray):
        with pytest.raises(ValueError, match=f"with base '{base}' does not take '{stray}'$"):
            GeneratorSpec(family="community", n=12, communities=2, mu=0.1, base=base, **params)

    def test_too_many_communities(self):
        with pytest.raises(TooManyCommunities):
            generate_with_info(GeneratorSpec(
                family="community", n=10, communities=6, mu=0.1, base="er", p=0.5
            ))

    def test_half_n_communities_allowed(self):
        GeneratorSpec(family="community", n=10, communities=5, mu=0.1, base="er", p=0.5)


class TestComplete:
    def test_four_nodes(self):
        assert gen_complete(4).edge_count == 6

    def test_many_nodes(self):
        assert gen_complete(128).edge_count == 8128

    def test_too_small(self):
        with pytest.raises(TooSmall):
            gen_complete(1)


class TestEr:
    def test_p_one_is_complete(self):
        g = gen_er(6, 1.0, seed=0)
        assert g.edge_count == 15

    def test_p_zero_is_edgeless(self):
        assert gen_er(6, 0.0, seed=0).edge_count == 0

    def test_determinism(self):
        a = gen_er(50, 0.3, seed=123)
        b = gen_er(50, 0.3, seed=123)
        c = gen_er(50, 0.3, seed=124)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_edge_count_within_three_sigma(self):
        g = gen_er(2000, 0.01, seed=7)
        pairs = 2000 * 1999 // 2
        sigma = math.sqrt(pairs * 0.01 * 0.99)
        assert abs(g.edge_count - pairs * 0.01) <= 3 * sigma

    @pytest.mark.parametrize("p", [0.05, 0.2])
    def test_density_over_seeds_within_four_se(self, p):
        n, runs = 500, 50
        pairs = n * (n - 1) // 2
        dens = [gen_er(n, p, seed=s).edge_count / pairs for s in range(runs)]
        se = math.sqrt(p * (1 - p) / (pairs * runs))
        assert abs(float(np.mean(dens)) - p) <= 4 * se


class TestStaticSf:
    @pytest.mark.parametrize("n,gamma,m", [(100, 2.5, 4), (257, 3.0, 5.5), (64, 2.0, 3)])
    def test_exact_edge_count(self, n, gamma, m):
        g = gen_static_sf(n, gamma, m, seed=11)
        assert g.edge_count == int(m * n // 2)
        assert g.node_count == n

    def test_determinism(self):
        a = gen_static_sf(200, 2.5, 4, seed=5)
        b = gen_static_sf(200, 2.5, 4, seed=5)
        assert a.edges == b.edges

    def test_zero_target_edges(self):
        g = gen_static_sf(5, 3.0, 0.3, seed=0)
        assert g.edge_count == 0

    def test_saturation_budget(self, monkeypatch):
        class StuckRng:
            def random(self, size):
                # Constant draws map both endpoints to the same node, so no
                # edge is ever accepted and the attempt budget must trip.
                return np.full(size, 0.5)

        monkeypatch.setattr(np.random, "default_rng", lambda *_: StuckRng())
        with pytest.raises(EdgeSaturation) as excinfo:
            gen_static_sf(10, 2.5, 2, seed=0)
        budget = 200 * int(2 * 10 // 2)
        assert excinfo.value.attempts == budget + 1
        assert "saturated at 0/10" in str(excinfo.value)

    def test_huge_gamma_resembles_er_degree_spread(self):
        # At an extreme exponent the weights are near-uniform, so the degree
        # variance should be statistically indistinguishable from an ER graph
        # of equal mean degree.
        n, m, runs = 2000, 4, 20
        p = m / (n - 1)
        sf_var = [
            float(np.var(gen_static_sf(n, 1e6, m, seed=s).degrees()))
            for s in range(runs)
        ]
        er_var = [
            float(np.var(gen_er(n, p, seed=1000 + s).degrees())) for s in range(runs)
        ]
        result = stats.mannwhitneyu(sf_var, er_var, alternative="two-sided")
        assert result.pvalue > 0.01

    def test_tail_exponent_recovered(self):
        g = gen_static_sf(100000, 2.5, 4, seed=3)
        est = mle_power_exponent(g.degrees(), k_min=10)
        assert abs(est - 2.5) <= 0.3


class TestComposer:
    def base_spec(self, **kw):
        fields = dict(
            family="community",
            n=60,
            communities=3,
            mu=0.2,
            base="er",
            p=0.6,
            seed=9,
        )
        fields.update(kw)
        return GeneratorSpec(**fields)

    def test_single_community_equals_base(self):
        spec = self.base_spec(communities=1, mu=0.0)
        g = generate_with_info(spec)[0]
        expected = largest_component(gen_er(60, 0.6, child_seed(9, 0)))
        assert g.edges == expected.edges
        assert g.community_of == (0,) * g.node_count

    def test_eight_equal_communities(self):
        spec = self.base_spec(n=128, communities=8, p=0.9)
        g = generate_with_info(spec)[0]
        sizes = g.community_sizes()
        assert len(sizes) == 8
        assert all(s <= 16 for s in sizes.values())

    def test_mu_one_fills_every_cross_pair(self):
        g = generate_with_info(self.base_spec(mu=1.0))[0]
        assert cross_density(g) == 1.0

    def test_mu_zero_bridges_only(self):
        g, info = generate_with_info(self.base_spec(mu=0.0))
        assert counted_info(g, info)[2] == 0
        assert info.bridge_edges == 2  # one per community beyond the first
        assert compute_metrics(g).giant_fraction == 1.0

    def test_connected_for_all_community_counts(self):
        for k in range(1, 9):
            for mu in (0.0, 0.05, 0.5):
                spec = self.base_spec(n=64, communities=k, mu=mu, p=0.7, seed=k)
                g = generate_with_info(spec)[0]
                assert compute_metrics(g).giant_fraction == 1.0
                lc = largest_component(g)
                assert lc.node_count == g.node_count and lc.edges == g.edges

    def test_determinism(self):
        a = generate_with_info(self.base_spec())[0]
        b = generate_with_info(self.base_spec())[0]
        assert a.edges == b.edges and a.community_of == b.community_of

    def test_cross_density_within_confidence_interval(self):
        # Pooled over 20 seeds: realized cross edges (before bridge repair)
        # against a 99% normal-approximation binomial interval around mu.
        mu, total_edges, total_pairs = 0.3, 0, 0
        for s in range(20):
            _, pairs, edges, _ = counted_info(*generate_with_info(self.base_spec(mu=mu, seed=s)))
            total_edges += edges
            total_pairs += pairs
        half_width = 2.576 * math.sqrt(total_pairs * mu * (1 - mu))
        assert abs(total_edges - total_pairs * mu) <= half_width

    def test_static_sf_base(self):
        spec = self.base_spec(
            base="static_sf", p=None, gamma=2.5, m=3, n=90, communities=3
        )
        g, info = generate_with_info(spec)
        assert len(g.community_sizes()) == 3
        assert compute_metrics(g).giant_fraction == 1.0
        assert sum(info.community_sizes) == g.node_count

    def test_outputs_pinned_by_digest(self):
        """Edges, labels, `counted_info` and GraphMetrics over a grid of
        composer specs (16 of the 80 add bridges). The digest was taken from
        the edge-set implementation that preceded the adjacency-matrix one;
        any moved bit, or a value of another type, changes it."""
        digest = hashlib.sha256()
        for base, k, mu, seed in itertools.product(
            ("er", "static_sf"), (1, 2, 3, 5, 8), (0.0, 0.05, 0.3, 0.8), (0, 1)
        ):
            params = {"p": 0.3} if base == "er" else {"gamma": 3.0, "m": 3}
            spec = GeneratorSpec(
                family="community", n=40, communities=k, mu=mu, base=base, seed=seed, **params
            )
            g, info = generate_with_info(spec)
            metrics = compute_metrics(g)
            digest.update(
                repr(
                    (
                        sorted(g.edges),
                        g.community_of,
                        counted_info(g, info),
                        dataclasses.astuple(metrics),
                    )
                ).encode()
            )
        assert digest.hexdigest()[:16] == "4b6e7921923f3fcd"


class TestDispatch:
    def test_generate_matches_family_functions(self):
        assert (
            generate_with_info(GeneratorSpec(family="complete", n=7))[0].edges
            == gen_complete(7).edges
        )
        assert (
            generate_with_info(GeneratorSpec(family="er", n=30, p=0.4, seed=2))[0].edges
            == gen_er(30, 0.4, 2).edges
        )
        assert (
            generate_with_info(GeneratorSpec(family="static_sf", n=30, gamma=2.5, m=3, seed=2))[0].edges
            == gen_static_sf(30, 2.5, 3, 2).edges
        )

    def test_info_zeros_for_simple_families(self):
        g, info = generate_with_info(GeneratorSpec(family="complete", n=5))
        assert info == GenerationInfo(community_sizes=(5,), bridge_edges=0)
        assert counted_info(g, info) == ((5,), 0, 0, 0)

    def test_flat_families_pinned_by_digest(self):
        """Edges and `counted_info` of the complete, ER and static scale-free
        families over a grid of sizes, parameters and two seeds; any moved
        edge, reordered draw or changed count changes the digest."""
        specs = [GeneratorSpec(family="complete", n=n) for n in (2, 7, 40)]
        specs += [
            GeneratorSpec(family="er", n=n, p=p)
            for n, p in itertools.product((2, 7, 40), (0.0, 0.1, 0.5, 1.0))
        ]
        specs += [
            GeneratorSpec(family="static_sf", n=n, gamma=gamma, m=m)
            for n, (gamma, m) in itertools.product(
                (7, 40), ((2.0, 1), (2.5, 3), (3.0, 0.5), (1e6, 1.5))
            )
        ]
        specs += [GeneratorSpec(family="static_sf", n=2, gamma=2.5, m=m) for m in (0.5, 1)]
        digest = hashlib.sha256()
        for spec, seed in itertools.product(specs, (0, 1)):
            g, info = generate_with_info(dataclasses.replace(spec, seed=seed))
            digest.update(repr((sorted(g.edges), counted_info(g, info))).encode())
        assert digest.hexdigest()[:16] == "e986280cf3158b88"

    def test_validation_runs_on_generate(self):
        with pytest.raises(ValueError):
            generate_with_info(GeneratorSpec(family="er", n=10))[0]
