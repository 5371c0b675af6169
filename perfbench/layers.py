"""Per-layer metrics from the spans of one traced sweep."""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 75.0)
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float] | None:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; None when there are too
    few samples for any (fewer than 14)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[int(rank) - 1]
    return None


def step_gflop(batch: int, dim: int, width: int, rounds: int, classes: int) -> float:
    """GEMM work of one training step at a full batch, in GFLOP.

    Forward: input, every round and the output layer. Backward: a weight
    gradient for every layer, and an input gradient for every layer but the
    input projection.
    """
    macs = 2 * batch * dim * width + 3 * rounds * batch * width**2 + 3 * batch * width * classes
    return 2 * macs / 1e9


def matmul_floor_ms(batch, dim, width, rounds, classes, dtype, budget_s=0.5) -> float:
    """Median time of one step's GEMMs done with bare np.matmul, same shapes,
    transposes and dtype as the training step."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, dim)).astype(dtype)
    w_in = rng.standard_normal((dim, width)).astype(dtype)
    w_round = rng.standard_normal((width, width)).astype(dtype)
    w_out = rng.standard_normal((width, classes)).astype(dtype)
    h = rng.standard_normal((batch, width)).astype(dtype)
    d_logits = rng.standard_normal((batch, classes)).astype(dtype)

    def step():
        np.matmul(x, w_in)
        for _ in range(rounds):
            np.matmul(h, w_round)
        np.matmul(h, w_out)
        np.matmul(h.T, d_logits)
        np.matmul(d_logits, w_out.T)
        for _ in range(rounds):
            np.matmul(h.T, h)
            np.matmul(h, w_round.T)
        np.matmul(x.T, h)

    for _ in range(3):
        step()
    times = []
    deadline = perf_counter() + budget_s
    while len(times) < 20 or perf_counter() < deadline:
        tic = perf_counter()
        step()
        times.append(perf_counter() - tic)
    return statistics.median(times) * 1000.0


def _dur(span) -> float:
    return span["end"] - span["start"]


def _p50_ms(spans) -> float:
    return statistics.median(_dur(s) for s in spans) * 1000.0


def analyse(spans: list[dict], records, deliveries) -> tuple[dict, dict]:
    """Layer metrics of one traced sweep, and notes for the context line.

    `records` and `deliveries` are the sweep's results and the parent's
    `progress` times for them, in the same order.
    """
    kids = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
        if s["parent"] is not None:
            kids[(s["pid"], s["parent"])].append(s)

    def children(span, name):
        return [c for c in kids[(span["pid"], span["id"])] if c["name"] == name]

    def self_s(span, child):
        return _dur(span) - sum(_dur(c) for c in children(span, child))

    losses = named["loss_and_grads"]
    train_forward = [c for s in losses for c in children(s, "forward")]
    backward = [self_s(s, "forward") for s in losses]
    optimizer = [self_s(s, "apply_mask") for s in named["sgd_step"]]

    steps = []
    for t in named["train"]:
        loop = sorted(kids[(t["pid"], t["id"])], key=lambda c: c["start"])
        start = None
        for c in loop:
            if c["name"] == "batch":
                start = c["start"]
            elif c["name"] == "sgd_step":
                steps.append(c["end"] - start)

    cells = defaultdict(list)
    for s in spans:
        if s["cell"] and s["parent"] is None:
            cells[(s["pid"], s["cell"])].append(s)
    cell_s = sum(
        max(s["end"] for s in group) - min(s["start"] for s in group)
        for group in cells.values()
    )

    # Worker spans and parent records meet on values both sides see. Cells
    # that compute the same thing (with one community, mu changes nothing)
    # share a key and pair in order.
    ends = defaultdict(list)
    for group in cells.values():
        by_name = {s["name"]: s for s in group}
        key = (
            by_name["generate_with_info"]["bridges"],
            by_name["compute_metrics"]["mean_degree"],
            by_name["compute_metrics"]["clustering"],
            by_name["train"]["top1_error"],
        )
        ends[key].append(by_name["train"]["end"])
    for waiting in ends.values():
        waiting.sort()
    lags = []
    for rec, delivered in zip(records, deliveries):
        key = (rec.bridges, rec.mean_degree, rec.clustering, rec.top1_error)
        lags.append((delivered - ends[key].pop(0)) * 1000.0)

    step_ms = [s * 1000.0 for s in steps]
    pct, step_tail = tail(step_ms)
    share = {
        "forward": sum(map(_dur, train_forward)),
        "backward": sum(backward),
        "optimizer": sum(optimizer),
        "mask": sum(map(_dur, named["apply_mask"])),
        "batch": sum(map(_dur, named["batch"])),
        "eval": sum(map(_dur, named["evaluate"])),
    }
    metrics = {
        "datasets.load_s": (statistics.median(map(_dur, named["build_dataset"])), "s"),
        "datasets.load_calls": (len(named["build_dataset"]), "count"),
        "datasets.batch_ms_p50": (_p50_ms(named["batch"]), "ms"),
        "generators.generate_ms_p50": (_p50_ms(named["generate_with_info"]), "ms"),
        "generators.bridge_edges": (
            sum(s["bridges"] for s in named["generate_with_info"]), "count"),
        "graphs.metrics_ms_p50": (_p50_ms(named["compute_metrics"]), "ms"),
        "model.init_ms_p50": (_p50_ms(named["init_model"]), "ms"),
        "model.mask_density": (
            statistics.fmean(s["mask_density"] for s in named["init_model"]), "ratio"),
        "model.forward_ms_p50": (_p50_ms(train_forward), "ms"),
        "training.backward_ms_p50": (statistics.median(backward) * 1000.0, "ms"),
        "training.sgd_ms_p50": (statistics.median(optimizer) * 1000.0, "ms"),
        "model.apply_mask_ms_p50": (_p50_ms(named["apply_mask"]), "ms"),
        "training.eval_ms_p50": (_p50_ms(named["evaluate"]), "ms"),
        "training.step_ms_p50": (statistics.median(step_ms), "ms"),
        "training.step_ms_tail": (step_tail, "ms"),
        "training.steps": (len(steps), "count"),
        "sweep.result_lag_ms_p50": (statistics.median(lags), "ms"),
        "sweep.result_lag_ms_max": (max(lags), "ms"),
    }
    for phase, seconds in share.items():
        metrics[f"training.share.{phase}"] = (seconds / cell_s, "ratio")
    notes = {
        "step_ms_tail_percentile": pct,
        "cell_train_loss": [s["train_loss"] for s in named["train"]],
    }
    return metrics, notes
