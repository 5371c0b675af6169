"""Release gate: one test per acceptance criterion.

Each test prints one "ACCEPTANCE <n> <name>: PASS/FAIL" line (collected in the
terminal summary). Criteria 8 and 9 need the real CIFAR-10 binaries and hours
of CPU, so they are opt-in via RELNET_FULL_SCALE=1 and RELNET_CIFAR10_DIR.
"""

import math
import os
import time

import numpy as np
import pytest

from _oracles import (
    DenseMlp,
    all_labeled_graphs,
    floyd_warshall_apl,
    message_exchange_logits,
    mle_power_exponent,
)
from relnet.datasets import synthetic_blobs
from relnet.generators import (
    GeneratorSpec,
    gen_complete,
    gen_er,
    gen_static_sf,
    generate_with_info,
)
from relnet.graphs import compute_metrics, from_edge_pairs, largest_component, modularity
from relnet.model import forward, init_model
from relnet.seeding import child_seed
from relnet.training import SgdState, TrainConfig, loss_and_grads, lr_at, sgd_step, train
from test_training import check_gradients, tiny_model

FULL_SCALE = os.environ.get("RELNET_FULL_SCALE") == "1" and "RELNET_CIFAR10_DIR" in os.environ


def test_criterion_1_gradient_correctness(acceptance):
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_models = 0
    for case in range(24):
        n = int(rng.integers(2, 5))  # n <= 4
        width = int(rng.integers(n, 9))  # width <= 8
        rounds = int(rng.integers(1, 3))  # rounds <= 2
        p = 1.0 if case % 5 == 0 else float(rng.uniform(0.2, 0.9))
        model = tiny_model(seed=1000 + case, n=n, width=width, rounds=rounds, p=p)
        x = rng.standard_normal((3, 3))
        y = rng.integers(0, 3, size=3)
        worst = max(worst, check_gradients(model, x, y, rng, samples_per_array=4))
        n_models += 1
    acceptance(
        1,
        "gradient-correctness",
        n_models >= 20 and worst < 1e-4,
        f"{n_models} models, worst relative error {worst:.2e}",
    )


def test_criterion_2_dense_equivalence(acceptance):
    config = TrainConfig(
        epochs=1,
        batch_size=16,
        learning_rate=0.05,
        momentum=0.9,
        weight_decay=5e-4,
        lr_schedule="cosine",
        precision="double",
    )
    model = init_model(gen_complete(4), 8, 2, 6, 3, seed=13)
    oracle = DenseMlp(model)
    rng = np.random.default_rng(3)
    state = SgdState.zeros(model)
    total = 50
    divergence = 0.0
    for step in range(total):
        x = rng.standard_normal((16, 6))
        y = rng.integers(0, 3, 16)
        loss, grads = loss_and_grads(model, x, y)
        ref_loss, gw, gb = oracle.loss_and_grads(x, y)
        divergence = max(divergence, abs(loss - ref_loss))
        lr = lr_at(config, step, total)
        sgd_step(model, grads, config, lr, state)
        oracle.step(gw, gb, lr, config.momentum, config.weight_decay)
    acceptance(
        2,
        "dense-equivalence",
        divergence <= 1e-12,
        f"max per-step loss divergence {divergence:.2e} over {total} steps",
    )


def test_criterion_3_mask_persistence(acceptance):
    model = init_model(gen_er(6, 0.4, seed=8), 12, 2, 5, 3, seed=4)
    config = TrainConfig(
        learning_rate=0.1, momentum=0.9, weight_decay=5e-4, lr_schedule="cosine"
    )
    state = SgdState.zeros(model)
    rng = np.random.default_rng(0)
    for step in range(100):
        x = rng.standard_normal((8, 5))
        y = rng.integers(0, 3, 8)
        _, grads = loss_and_grads(model, x, y)
        sgd_step(model, grads, config, lr_at(config, step, 100), state)
    off = ~model.mask.matrix
    exact_zero = all((w[off] == 0.0).all() for w in model.round_w)
    acceptance(
        3,
        "mask-persistence",
        exact_zero and off.sum() > 0,
        f"{int(off.sum())} masked entries per round, all exactly 0 after 100 steps",
    )


def test_criterion_4_message_oracle(acceptance):
    rng = np.random.default_rng(6)
    worst = 0.0
    n_graphs = 0
    for n, edges in all_labeled_graphs(4):
        g = from_edge_pairs(n, edges)
        model = init_model(g, 7, 2, 3, 2, seed=n_graphs)
        x = rng.standard_normal((2, 3))
        logits, _ = forward(model, x)
        for row in range(2):
            ref = message_exchange_logits(model, x[row])
            worst = max(worst, float(np.abs(logits[row] - ref).max()))
        n_graphs += 1
    acceptance(
        4,
        "message-oracle",
        worst <= 1e-12,
        f"{n_graphs} graphs (all n <= 4), max |matrix - oracle| {worst:.2e}",
    )


def test_criterion_5_generator_statistics(acceptance):
    details = []

    g_er = gen_er(2000, 0.01, seed=42)
    pairs = 2000 * 1999 // 2
    sigma = math.sqrt(pairs * 0.01 * 0.99)
    er_dev = abs(g_er.edge_count - 19990)
    er_ok = er_dev <= 3 * sigma
    details.append(f"ER edges {g_er.edge_count} (|dev| {er_dev:.0f} <= 3sigma {3 * sigma:.0f})")

    g_sf = gen_static_sf(1000, gamma=2.5, m=8, seed=7)
    sf_count_ok = g_sf.edge_count == (8 * 1000) // 2
    details.append(f"SF edges {g_sf.edge_count} == 4000")

    g_big = gen_static_sf(100000, gamma=2.5, m=8, seed=11)
    degrees = g_big.degrees()
    gamma_hat = mle_power_exponent(degrees, k_min=10)
    mle_ok = abs(gamma_hat - 2.5) <= 0.3
    details.append(f"MLE gamma {gamma_hat:.3f} within 2.5 +- 0.3")

    mu = 0.3
    total_cross = 0
    total_pairs = 0
    for seed in range(20):
        g, info = generate_with_info(
            GeneratorSpec(
                family="community", n=64, communities=4, mu=mu,
                base="er", p=0.7, seed=seed,
            )
        )
        sizes = g.community_sizes()
        pairs_here = sum(
            sizes[a] * sizes[b] for a in range(4) for b in range(a + 1, 4)
        )
        cross = sum(
            1 for u, v in g.edges if g.community_of[u] != g.community_of[v]
        )
        total_cross += cross - info.bridge_edges
        total_pairs += pairs_here
    # 99% binomial CI for the pooled cross-pair count (normal approximation)
    center = total_pairs * mu
    half = 2.576 * math.sqrt(total_pairs * mu * (1 - mu))
    ci_ok = abs(total_cross - center) <= half
    details.append(
        f"composer cross edges {total_cross} in {center:.0f} +- {half:.0f} (99% CI, 20 seeds)"
    )

    acceptance(
        5,
        "generator-statistics",
        er_ok and sf_count_ok and mle_ok and ci_ok,
        "; ".join(details),
    )


def test_criterion_6_metric_oracles(acceptance):
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    while checked < 10:
        n = int(rng.integers(3, 9))  # n <= 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = [pq for pq in pairs if rng.random() < 0.5]
        g = largest_component(from_edge_pairs(n, keep))
        if g.node_count < 2:
            continue
        edges = sorted(g.edges)
        worst = max(
            worst,
            abs(compute_metrics(g).avg_path_len - floyd_warshall_apl(g.node_count, edges)),
        )
        checked += 1
    bfs_ok = worst == 0.0

    two_triangles = from_edge_pairs(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    q = modularity(two_triangles, [0, 0, 0, 1, 1, 1])
    mod_ok = q == 0.5

    acceptance(
        6,
        "metric-oracles",
        bfs_ok and mod_ok,
        f"max |BFS - Floyd-Warshall| {worst:.1e} over 10 graphs; "
        f"two-triangle modularity {q} == 0.5",
    )


def test_criterion_7_desk_scale_learning(acceptance):
    # spread 0.6 keeps the blobs linearly separable by construction; the
    # calibrated reference run reaches ~0.7% (complete) / ~0.6% (ER)
    train_ds = synthetic_blobs(500, 10, 48, spread=0.6, seed=1234, dtype=np.float32)
    test_ds = synthetic_blobs(
        100, 10, 48, spread=0.6, seed=child_seed(1234, 1), dtype=np.float32
    )
    config = TrainConfig(epochs=30, batch_size=128, learning_rate=0.1)

    tic = time.perf_counter()
    complete_model = init_model(gen_complete(16), 64, 2, 48, 10, seed=5, dtype=np.float32)
    complete_result, _ = train(complete_model, train_ds, test_ds, config, seed=0)
    er_model = init_model(gen_er(16, 0.5, seed=3), 64, 2, 48, 10, seed=5, dtype=np.float32)
    er_result, _ = train(er_model, train_ds, test_ds, config, seed=0)
    wall = time.perf_counter() - tic

    complete_err = complete_result.top1_error_percent
    er_err = er_result.top1_error_percent
    ok = complete_err <= 5.0 and wall <= 120.0 and er_err <= complete_err + 3.0
    acceptance(
        7,
        "desk-scale-learning",
        ok,
        f"complete {complete_err:.2f}% <= 5%, ER(0.5) {er_err:.2f}% within +3pp, "
        f"{wall:.1f}s <= 120s",
    )


@pytest.mark.skipif(not FULL_SCALE, reason="set RELNET_FULL_SCALE=1 and RELNET_CIFAR10_DIR")
def test_criterion_8_full_scale_baseline(acceptance):
    from relnet.datasets import load_cifar10

    train_ds, test_ds = load_cifar10(os.environ["RELNET_CIFAR10_DIR"])
    config = TrainConfig()  # 200 epochs, cosine, the full reference schedule
    model = init_model(gen_complete(64), 512, 5, 3072, 10, seed=0, dtype=np.float32)
    result, _ = train(model, train_ds, test_ds, config)
    acceptance(
        8,
        "full-scale-baseline",
        abs(result.top1_error_percent - 33.28) <= 1.5,
        f"complete-graph top-1 {result.top1_error_percent:.2f}% vs 33.28 +- 1.5",
    )


@pytest.mark.skipif(not FULL_SCALE, reason="set RELNET_FULL_SCALE=1 and RELNET_CIFAR10_DIR")
def test_criterion_9_full_scale_orderings(acceptance):
    from relnet.datasets import load_cifar10
    from relnet.generators import GeneratorSpec, generate_with_info

    train_ds, test_ds = load_cifar10(os.environ["RELNET_CIFAR10_DIR"])
    config = TrainConfig()

    def run_one(spec):
        graph, _ = generate_with_info(spec)
        model = init_model(graph, 512, 5, 3072, 10, seed=0, dtype=np.float32)
        result, _ = train(model, train_ds, test_ds, config)
        return result.top1_error_percent

    baseline = run_one(GeneratorSpec(family="complete", n=64, seed=0))
    sf = run_one(GeneratorSpec(family="static_sf", n=64, gamma=2.5, m=8, seed=0))
    community = run_one(
        GeneratorSpec(
            family="community", n=64, communities=4, mu=0.3, base="er", p=0.6, seed=0
        )
    )
    acceptance(
        9,
        "full-scale-orderings",
        sf < baseline and community < baseline,
        f"baseline {baseline:.2f}%, static-SF {sf:.2f}%, community {community:.2f}%",
    )
