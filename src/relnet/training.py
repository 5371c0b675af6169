"""Deterministic minibatch SGD training and top-1 evaluation.

Backpropagation is exact (verified against finite differences in the test
suite). Gradients of the masked round weights are zeroed on the masked
entries, so structurally absent connections, +0.0 from initialization, stay
+0.0 through any training run, and so do their momentum buffers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, batch_iter
from .errors import InvalidValue, NumericError, ShapeError, require_at_least
from .model import MlpModel, forward

SCHEDULES = ("cosine", "constant")
PRECISIONS = ("double", "single")
# Elements per block of a weight update. One block each of w, v, grad and
# the temporary is 1 MiB in float32 (2 MiB in float64), within a per-core L2.
SGD_CHUNK = 65536


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_schedule: str = "cosine"
    precision: str = "single"

    def __post_init__(self) -> None:
        """Raise InvalidValue naming the first field out of its range."""
        require_at_least(1, epochs=self.epochs, batch_size=self.batch_size)
        if self.learning_rate <= 0:
            raise InvalidValue("learning_rate", f"must be > 0, got {self.learning_rate}")
        require_at_least(0, momentum=self.momentum, weight_decay=self.weight_decay)
        for name, allowed in (("lr_schedule", SCHEDULES), ("precision", PRECISIONS)):
            if getattr(self, name) not in allowed:
                raise InvalidValue(name, f"must be one of {allowed}, got {getattr(self, name)!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


@dataclass(frozen=True)
class EvalResult:
    top1_error_percent: float
    loss: float
    n_examples: int


@dataclass
class Grads:
    """Gradients of MlpModel.weights and .biases, in the same layer order."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _softmax_stats(logits: np.ndarray, labels: np.ndarray):
    """Per-example cross-entropy and softmax probabilities, via log-sum-exp."""
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - logits[np.arange(logits.shape[0]), labels]
    probs = np.exp(logits - lse)
    return losses, probs


def loss_and_grads(model: MlpModel, batch_x, batch_y) -> tuple[float, Grads]:
    """Mean softmax cross-entropy and exact gradients for every parameter.

    Masked round-weight entries come back with gradient exactly 0 (+0.0 or
    -0.0: the gradient is multiplied by the boolean `mask.matrix`).
    """
    y = np.asarray(batch_y)
    if y.size and (y.min() < 0 or y.max() >= model.out_dim):
        raise ShapeError(f"labels must lie in [0, {model.out_dim})")
    logits, inputs = forward(model, batch_x)
    losses, probs = _softmax_stats(logits, y)
    loss = float(losses.mean())
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")

    batch = logits.shape[0]
    da = probs  # gradient of the last layer's output: the logits
    da[np.arange(batch), y] -= 1.0
    da /= batch

    last = len(model.weights) - 1
    grads = Grads(weights=[None] * (last + 1), biases=[None] * (last + 1))
    for layer in range(last, -1, -1):
        if layer < last:
            da *= inputs[layer + 1] > 0  # through this layer's ReLU
        dw = inputs[layer].T @ da
        if 0 < layer < last:
            dw *= model.mask.matrix
        grads.weights[layer] = dw
        grads.biases[layer] = da.sum(axis=0)
        if layer:
            da = da @ model.weights[layer].T
    return loss, grads


@dataclass
class SgdState:
    """Momentum buffers, one per parameter array."""

    vel_w: list[np.ndarray]
    vel_b: list[np.ndarray]

    @classmethod
    def zeros(cls, model: MlpModel) -> "SgdState":
        return cls(
            vel_w=[np.zeros_like(w) for w in model.weights],
            vel_b=[np.zeros_like(b) for b in model.biases],
        )


def lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    """Learning rate at a 0-based step index; cosine anneals to zero."""
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(
    model: MlpModel, grads: Grads, config: TrainConfig, lr: float, state: SgdState
) -> None:
    """One in-place momentum-SGD update at the learning rate `lr` (the
    step's `lr_at`).

    v <- momentum*v + grad + weight_decay*w for weights (decay skips
    biases), then w <- w - lr*v. Nothing is re-masked: a masked entry with
    w and v at +0.0 and a zero gradient of either sign (as `loss_and_grads`
    returns) gets v = +0.0, then w = +0.0 - lr*(+0.0) = +0.0.

    Each weight is walked in row blocks of at most SGD_CHUNK elements with
    one preallocated temporary, so a block of w, v, grad and the temporary
    stays in cache across the four operations. Every element still goes
    through the same operations in the same order as whole-array updates,
    so results are identical bit for bit.
    """
    # A block holds at least one row, however wide.
    tmp = np.empty(max(SGD_CHUNK, model.width, model.out_dim), dtype=model.dtype)
    for w, g, v in zip(model.weights, grads.weights, state.vel_w):
        rows = max(1, SGD_CHUNK // w.shape[1])
        for start in range(0, w.shape[0], rows):
            block = slice(start, start + rows)
            wb, vb = w[block], v[block]
            t = tmp[: wb.size].reshape(wb.shape)
            vb *= config.momentum
            vb += g[block]
            if config.weight_decay:
                np.multiply(wb, config.weight_decay, out=t)
                vb += t
            np.multiply(vb, lr, out=t)
            wb -= t
    if model.use_bias:
        for b, g, v in zip(model.biases, grads.biases, state.vel_b):
            v *= config.momentum
            v += g
            b -= lr * v


def evaluate(model: MlpModel, dataset: Dataset, batch_size: int = 1000) -> EvalResult:
    """Top-1 error and mean loss; argmax ties resolve to the lowest class.
    A loss that is not finite (a diverged model) raises NumericError.

    Reads the feature values in blocks of batch_size rows (`features[block]`),
    so CIFAR-10's `MappedPixels` decodes one block at a time. Each block goes
    straight into a `forward` that keeps no cache, so at most one block and
    two layers' activations are alive at once.
    """
    wrong = 0
    loss_sum = 0.0
    for start in range(0, dataset.n, batch_size):
        block = slice(start, start + batch_size)
        logits, _ = forward(model, dataset.features[block], keep_cache=False)
        y = dataset.labels[block]
        pred = np.argmax(logits, axis=1)
        wrong += int((pred != y).sum())
        losses, _ = _softmax_stats(logits, y)
        loss_sum += float(losses.sum())
    if not math.isfinite(loss_sum):
        raise NumericError(f"non-finite evaluation loss {loss_sum}")
    n = dataset.n
    return EvalResult(
        top1_error_percent=100.0 * wrong / n,
        loss=loss_sum / n,
        n_examples=n,
    )


@np.errstate(over="ignore", invalid="ignore")  # every non-finite outcome is checked
def train(
    model: MlpModel,
    train_set: Dataset,
    test_set: Dataset,
    config: TrainConfig,
    seed: int = 0,
    eval_every_epoch: bool = True,
) -> tuple[EvalResult, list[dict]]:
    """Run the full schedule; returns the final test result and a per-epoch log.

    Log entries: {"epoch", "train_loss", "test_top1", "lr", "wall_ms"};
    "lr" is the rate used by the last step of the epoch. The test set is
    evaluated after the last epoch, and after every epoch when
    eval_every_epoch is set; "test_top1" is None for an epoch not evaluated.
    Evaluation does not touch the model, so the final result and the
    weights are the same either way. Epoch e shuffles with
    `batch_iter(train_set, config.batch_size, seed, e)`, so a run is
    deterministic for a fixed model, config and seed.

    A step or evaluation loss that is not finite, or a masked weight off
    zero, raises NumericError naming the epoch, with no numpy warning.

    Besides the model, a run holds the momentum buffers, one step's
    gradients (released once applied) and one step's activations.
    """
    if train_set.dim != model.in_dim or test_set.dim != model.in_dim:
        raise ShapeError(f"dataset dim {train_set.dim} vs model in_dim {model.in_dim}")
    if train_set.n_classes > model.out_dim:
        raise ShapeError(f"{train_set.n_classes} classes exceed model out_dim {model.out_dim}")
    steps_per_epoch = math.ceil(train_set.n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    state = SgdState.zeros(model)
    log: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        loss_sum = 0.0
        n_batches = 0
        for x, y in batch_iter(train_set, config.batch_size, seed, epoch):
            try:
                loss, grads = loss_and_grads(model, x, y)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {step}: {exc}") from exc
            lr = lr_at(config, step, total_steps)
            sgd_step(model, grads, config, lr, state)
            del grads  # not kept through the next step's forward and backward
            loss_sum += loss
            n_batches += 1
            step += 1
        if not model.masked_entries_zero():
            raise NumericError(f"mask violated at epoch {epoch}")
        evaluated = eval_every_epoch or epoch == config.epochs - 1
        if evaluated:
            try:
                result = evaluate(model, test_set)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}: {exc}") from exc
        log.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / n_batches,
                "test_top1": result.top1_error_percent if evaluated else None,
                "lr": lr,
                "wall_ms": (time.perf_counter() - tic) * 1000.0,
            }
        )
    return result, log
