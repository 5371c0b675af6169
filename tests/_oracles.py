"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (scalar loops,
textbook formulas) rather than reusing library code under test, so that
agreement is evidence and not tautology. The last section holds whole-array
expressions that the library's in-place passes must match byte for byte.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import bisect
from scipy.special import zeta


# ---------------------------------------------------------------------------
# Graph oracles


def adjacency_sets(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def floyd_warshall_apl(n, edges):
    """Average shortest-path length over unordered pairs; inf if disconnected."""
    big = float("inf")
    dist = [[0.0 if i == j else big for j in range(n)] for i in range(n)]
    for i, j in edges:
        dist[i][j] = dist[j][i] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == big:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] == big:
                return big
            total += dist[i][j]
    return total / (n * (n - 1) / 2)


def mean_local_clustering(n, edges):
    """Average of per-node local clustering; degree < 2 contributes 0."""
    adj = adjacency_sets(n, edges)
    total = 0.0
    for v in range(n):
        nbrs = sorted(adj[v])
        k = len(nbrs)
        if k < 2:
            continue
        closed = sum(
            1 for a, b in combinations(nbrs, 2) if b in adj[a]
        )
        total += closed / (k * (k - 1) / 2)
    return total / n


def newman_modularity(n, edges, labels):
    """Q = sum_c (e_cc - a_c^2) evaluated straight from the definition."""
    m = len(edges)
    communities = set(labels)
    adj = adjacency_sets(n, edges)
    q = 0.0
    for c in communities:
        e_cc = sum(1 for i, j in edges if labels[i] == c and labels[j] == c) / m
        a_c = sum(len(adj[v]) for v in range(n) if labels[v] == c) / (2 * m)
        q += e_cc - a_c * a_c
    return q


def all_labeled_graphs(max_n):
    """Every labeled simple graph with 1..max_n nodes as (n, edge tuple)."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(p for k, p in enumerate(pairs) if bits >> k & 1)
            out.append((n, edges))
    return out


# ---------------------------------------------------------------------------
# Degree-exponent maximum likelihood (discrete power law, fixed k_min)


def mle_power_exponent(degrees, k_min, lo=2.01, hi=8.0):
    """MLE of gamma for p(k) = k^-gamma / zeta(gamma, k_min), k >= k_min.

    Solves d/dgamma [ -log zeta(gamma, k_min) ] = mean(log k) by bisection;
    the left side is the model's expected log-degree.
    """
    tail = np.asarray([k for k in degrees if k >= k_min], dtype=np.float64)
    if tail.size < 50:
        raise ValueError(f"tail too small for MLE: {tail.size} values")
    mean_log = float(np.log(tail).mean())

    def expected_log(g):
        eps = 1e-6
        return -(
            math.log(zeta(g + eps, k_min)) - math.log(zeta(g - eps, k_min))
        ) / (2 * eps)

    def f(g):
        return expected_log(g) - mean_log

    return bisect(f, lo, hi, xtol=1e-10)


# ---------------------------------------------------------------------------
# Message-exchange forward oracle: literal per-node, per-unit loops


def message_exchange_logits(model, x_row):
    """Forward one example through the network with explicit scalar loops.

    Implements: dense input + ReLU, then per round and per node i the update
    x_i' = relu( sum over j in N(i) or j == i of W[j block -> i block] x_j ),
    then the dense output read-out. Biases added where the model trains them.
    """
    block = model.mask.block_adjacency
    width = model.width
    # Node i owns the units [offsets[i], offsets[i] + lengths[i]): the width
    # split into near-equal runs, the (width mod n) longer ones first.
    base, extra = divmod(width, len(block))
    lengths = [base + (i < extra) for i in range(len(block))]
    offsets = [sum(lengths[:i]) for i in range(len(block))]

    h = [0.0] * width
    for u in range(width):
        s = float(model.biases[0][u])
        for d in range(model.in_dim):
            s += float(x_row[d]) * float(model.weights[0][d, u])
        h[u] = max(s, 0.0)

    for r in range(model.rounds):
        w = model.round_w[r]
        b = model.biases[r + 1]
        nxt = [0.0] * width
        for i in range(len(block)):
            for ui in range(offsets[i], offsets[i] + lengths[i]):
                s = float(b[ui])
                for j in range(len(block)):
                    if not block[j, i]:
                        continue
                    for uj in range(offsets[j], offsets[j] + lengths[j]):
                        s += h[uj] * float(w[uj, ui])
                nxt[ui] = max(s, 0.0)
        h = nxt

    logits = []
    for c in range(model.out_dim):
        s = float(model.biases[-1][c])
        for u in range(width):
            s += h[u] * float(model.weights[-1][u, c])
        logits.append(s)
    return np.array(logits)


# ---------------------------------------------------------------------------
# Plain dense MLP trained with the same schedule, written independently


class DenseMlp:
    """Unmasked dense MLP with its own forward/backward/update code.

    Parameters are copied from an existing model so that a masked network on
    a complete graph and this oracle start identical.
    """

    def __init__(self, model):
        self.w = [np.array(a, dtype=np.float64) for a in model.weights]
        self.b = [np.array(a, dtype=np.float64) for a in model.biases]
        self.vw = [np.zeros_like(a) for a in self.w]
        self.vb = [np.zeros_like(a) for a in self.b]

    def forward(self, x):
        acts = [None] * len(self.w)
        pres = [None] * len(self.w)
        h = np.asarray(x, dtype=np.float64)
        inputs = []
        for layer in range(len(self.w) - 1):
            inputs.append(h)
            a = h @ self.w[layer] + self.b[layer]
            pres[layer] = a
            h = np.where(a > 0, a, 0.0)
            acts[layer] = h
        inputs.append(h)
        logits = h @ self.w[-1] + self.b[-1]
        return logits, (inputs, pres)

    def loss_and_grads(self, x, y):
        logits, (inputs, pres) = self.forward(x)
        n = logits.shape[0]
        shift = logits - logits.max(axis=1, keepdims=True)
        expv = np.exp(shift)
        probs = expv / expv.sum(axis=1, keepdims=True)
        loss = float(
            -(shift[np.arange(n), y] - np.log(expv.sum(axis=1))).mean()
        )
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        gw = [None] * len(self.w)
        gb = [None] * len(self.b)
        for layer in range(len(self.w) - 1, -1, -1):
            gw[layer] = inputs[layer].T @ delta
            gb[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.w[layer].T) * (pres[layer - 1] > 0)
        return loss, gw, gb

    def step(self, gw, gb, lr, momentum, weight_decay):
        for k in range(len(self.w)):
            self.vw[k] = momentum * self.vw[k] + gw[k] + weight_decay * self.w[k]
            self.w[k] = self.w[k] - lr * self.vw[k]
            self.vb[k] = momentum * self.vb[k] + gb[k]
            self.b[k] = self.b[k] - lr * self.vb[k]


# ---------------------------------------------------------------------------
# Whole-array arithmetic oracles. The library makes its large passes in
# place (CIFAR scaling, bias and ReLU, gradient and weight masking, the
# blocked momentum update); these are the whole-array expressions those
# passes must reproduce byte for byte, with their temporaries, the cached
# pre-activations and boolean-index masking.


def cifar10_arrays(root, dtype, stats=None):
    """(x_train, y_train, x_test, y_test, stats) for a CIFAR-10 directory,
    standardized per channel.

    stats is {"mean": [...], "std": [...]}; when None it is computed from
    the training set's single-precision [0,1] values at any dtype. The
    record count follows from each file's size.
    """
    root = Path(root)

    def read(name):
        records = np.frombuffer((root / name).read_bytes(), np.uint8).reshape(-1, 3073)
        return records[:, 1:], records[:, 0].astype(np.int64)

    train = [read(f"data_batch_{b}.bin") for b in range(1, 6)]
    test_pixels, y_test = read("test_batch.bin")
    train_pixels = np.concatenate([pixels for pixels, _ in train])
    x_train = train_pixels.astype(dtype) / 255.0
    x_test = test_pixels.astype(dtype) / 255.0
    y_train = np.concatenate([labels for _, labels in train])
    if stats is None:
        planes = (train_pixels.astype(np.float32) / 255.0).reshape(-1, 3, 1024)
        stats = {
            "mean": planes.mean(axis=(0, 2), dtype=np.float64).tolist(),
            "std": planes.std(axis=(0, 2), dtype=np.float64).tolist(),
        }
    mean_a = np.asarray(stats["mean"], dtype=dtype).reshape(1, 3, 1)
    std_a = np.asarray(stats["std"], dtype=dtype).reshape(1, 3, 1)
    x_train = ((x_train.reshape(-1, 3, 1024) - mean_a) / std_a).reshape(-1, 3072)
    x_test = ((x_test.reshape(-1, 3, 1024) - mean_a) / std_a).reshape(-1, 3072)
    return x_train, y_train, x_test, y_test, stats


def masked_mlp_forward(model, batch):
    """Logits plus the pre- and post-ReLU activations of every hidden layer."""
    x = np.asarray(batch, dtype=model.dtype)
    pre = []
    act = []
    a = x @ model.weights[0] + model.biases[0]
    h = np.maximum(a, 0.0)
    pre.append(a)
    act.append(h)
    for w, b in zip(model.round_w, model.biases[1:-1]):
        a = h @ w + b
        h = np.maximum(a, 0.0)
        pre.append(a)
        act.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    return logits, x, pre, act


def masked_mlp_loss_and_grads(model, batch_x, batch_y):
    """Mean cross-entropy and gradients, as lists in the order of
    model.weights and model.biases; masked round-weight gradients are set to 0.0."""
    y = np.asarray(batch_y)
    logits, x, pre, act = masked_mlp_forward(model, batch_x)
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - logits[np.arange(logits.shape[0]), y]
    probs = np.exp(logits - lse)
    loss = float(losses.mean())

    batch = logits.shape[0]
    dlogits = probs
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch

    d_output_w = act[-1].T @ dlogits
    d_output_b = dlogits.sum(axis=0)
    dh = dlogits @ model.weights[-1].T
    rounds = model.rounds
    d_round_w = [None] * rounds
    d_round_b = [None] * rounds
    off = ~model.mask.matrix
    for r in range(rounds - 1, -1, -1):
        da = dh * (pre[r + 1] > 0)
        dw = act[r].T @ da
        dw[off] = 0.0
        d_round_w[r] = dw
        d_round_b[r] = da.sum(axis=0)
        dh = da @ model.round_w[r].T
    da = dh * (pre[0] > 0)
    d_input_w = x.T @ da
    d_input_b = da.sum(axis=0)
    return (
        loss,
        [d_input_w, *d_round_w, d_output_w],
        [d_input_b, *d_round_b, d_output_b],
    )


def masked_mlp_sgd_step(model, grad_w, grad_b, vel_w, vel_b, lr, momentum, weight_decay):
    """Momentum SGD in four whole-array passes per weight, then boolean-index
    masking of the round weights."""
    for w, g, v in zip(model.weights, grad_w, vel_w):
        v *= momentum
        v += g
        if weight_decay:
            v += weight_decay * w
        w -= lr * v
    if model.use_bias:
        for b, g, v in zip(model.biases, grad_b, vel_b):
            v *= momentum
            v += g
            b -= lr * v
    off = ~model.mask.matrix
    for w in model.round_w:
        w[off] = 0.0
