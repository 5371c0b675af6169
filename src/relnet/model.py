"""Translate a relational graph into a fixed-width masked MLP.

Every graph node owns a contiguous slice of the shared hidden width. One
message-exchange round maps the hidden vector x to

    x_i' = relu( sum_{j in N(i) or j=i} W[j->i] x_j + b_i )

realized as a width x width weight matrix whose block (i, j) may be nonzero
only when (i, j) is an edge or i == j (self-connections are always present).
A dense input projection feeds the first round and a dense output projection
reads the last one, so only the hidden rounds carry graph structure.

Masked entries are set to +0.0 once, by `MlpModel.apply_mask` at
initialization, and stay +0.0 through training because their gradients are
masked (see `relnet.training`).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import FormatError, NumericError, ShapeError, TooManyNodes
from .graphs import Graph, near_equal_sizes
from .reading import keys_of, read_json, read_spec
from .seeding import rng

CKPT_HEADER = "relnet-ckpt-v1"


def unit_owners(n_nodes: int, width: int) -> np.ndarray:
    """The node that owns each of `width` hidden units: node i owns the i-th
    contiguous run of `near_equal_sizes(width, n_nodes)` units, so the first
    (width mod n_nodes) nodes own one unit more than the rest."""
    if n_nodes < 1:
        raise ShapeError(f"need at least one node, got {n_nodes}")
    if n_nodes > width:
        raise TooManyNodes(f"{n_nodes} nodes do not fit in width {width}")
    return np.repeat(np.arange(n_nodes), near_equal_sizes(width, n_nodes))


@dataclass
class LayerMask:
    """Unit-level boolean mask shared by all message-exchange rounds.

    block_adjacency is the node-level view (diagonal True); `matrix` expands
    it blockwise over the units each node owns (`unit_owners`).
    """

    block_adjacency: np.ndarray  # (n, n) bool
    width: int

    @cached_property
    def matrix(self) -> np.ndarray:
        """(width, width) bool, True iff the units' owning nodes are adjacent or identical."""
        owner = unit_owners(len(self.block_adjacency), self.width)
        return self.block_adjacency[np.ix_(owner, owner)]


def build_mask(g: Graph, width: int) -> LayerMask:
    """The mask of graph adjacency plus self-loops over `width` units. A
    graph whose nodes do not fit the width raises TooManyNodes
    (`unit_owners`) before its n x n adjacency is built."""
    unit_owners(g.node_count, width)
    return LayerMask(g.adjacency | np.eye(g.node_count, dtype=bool), width)


@dataclass
class MlpModel:
    """Fixed-width masked MLP: dense in, R masked rounds, dense out.

    `weights` and `biases` hold the parameters in layer order: the input
    projection ((in_dim, width) and (width,)), rounds 1..R ((width, width)
    and (width,)), the output projection ((width, out_dim) and (out_dim,)).
    All round weight matrices share one LayerMask; per-unit biases are held
    even when `use_bias` is False (then they stay zero and untrained, which
    recovers the literal bias-free message-exchange rule).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    mask: LayerMask
    seed: int
    use_bias: bool = True

    @property
    def width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def rounds(self) -> int:
        return len(self.weights) - 2

    @property
    def dtype(self):
        return self.weights[0].dtype

    @property
    def round_w(self) -> list[np.ndarray]:
        """The masked round weights, `weights[1:-1]` (the arrays themselves)."""
        return self.weights[1:-1]

    def masked_entries_zero(self) -> bool:
        off = ~self.mask.matrix
        return all(not np.any(w[off]) for w in self.round_w)

    def apply_mask(self) -> None:
        """Set the masked round-weight entries to +0.0 by assignment;
        unmasked entries are unchanged bit for bit. `init_model` calls this
        once; training keeps the entries +0.0 through masked gradients.
        """
        off = ~self.mask.matrix
        for w in self.round_w:
            w[off] = 0.0


def _layer_shapes(in_dim: int, width: int, rounds: int, out_dim: int) -> list[tuple[int, int]]:
    """(rows, cols) of each layer's weights, in layer order; its bias has `cols` entries."""
    return [(in_dim, width)] + [(width, width)] * rounds + [(width, out_dim)]


def init_model(
    g: Graph,
    width: int,
    rounds: int,
    in_dim: int,
    out_dim: int,
    seed: int,
    dtype=np.float64,
    use_bias: bool = True,
) -> MlpModel:
    """Build and initialize a masked MLP for graph g.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)) where, for the
    masked rounds, fans count only unmasked units; this keeps activation
    variance comparable across sparsity levels. Biases start at zero. The
    draw order (input, rounds in order, output) is fixed, and the full
    width x width matrix is drawn before masking, so models that differ only
    in mask share the underlying draws for a given seed. The masked entries
    are then set to +0.0 by one `apply_mask` call.
    """
    if rounds < 1:
        raise ShapeError(f"rounds must be >= 1, got {rounds}")
    mask = build_mask(g, width)
    gen = rng(seed)

    fan_in = mask.matrix.sum(axis=0).astype(np.float64)  # unmasked inputs per unit
    fan_out = mask.matrix.sum(axis=1).astype(np.float64)
    limit_round = np.sqrt(6.0 / (fan_in[None, :] + fan_out[:, None]))
    weights = []
    biases = []
    for layer, (rows, cols) in enumerate(_layer_shapes(in_dim, width, rounds, out_dim)):
        limit = limit_round if 0 < layer <= rounds else np.sqrt(6.0 / (rows + cols))
        w = gen.uniform(-1.0, 1.0, size=(rows, cols)) * limit
        weights.append(w.astype(dtype))
        biases.append(np.zeros(cols, dtype=dtype))
    model = MlpModel(weights, biases, mask=mask, seed=int(seed), use_bias=use_bias)
    model.apply_mask()
    return model


def forward(
    model: MlpModel, batch: np.ndarray, keep_cache: bool = True
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run the network on a (batch, in_dim) matrix; returns (logits, inputs).

    `inputs[layer]` is that layer's input, kept for the backward pass: the
    batch, then each post-ReLU activation. Pre-activations are not kept: the
    ReLU derivative is `act > 0`, which equals `pre > 0` for every value, NaN
    included. The bias, and on every layer but the last the ReLU, are applied
    in place on each matmul output. With keep_cache False (inference) inputs
    is None and nothing is kept: each layer's input, the batch included, is
    released as soon as that layer's output exists, provided the caller
    holds no other reference to it.
    """
    h = np.asarray(batch, dtype=model.dtype)
    del batch
    if h.ndim != 2 or h.shape[1] != model.in_dim:
        raise ShapeError(f"batch shape {h.shape} incompatible with in_dim {model.in_dim}")
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite values in input batch")
    inputs = [h] if keep_cache else None
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if layer < last:
            np.maximum(h, 0.0, out=h)
            if inputs is not None:
                inputs.append(h)
    return h, inputs


# ---------------------------------------------------------------------------
# Checkpoint container: one .npz file with a version header, a JSON metadata
# blob (a `_Meta`), the node-level mask, and every weight and bias under the
# keys of `_param_keys`. The meta's width, rounds and slices restate the
# layout the arrays hold, and `load_checkpoint` checks that they agree with it.


@dataclass(frozen=True)
class _Meta:
    """A checkpoint's meta, its JSON object's keys in order."""

    width: int
    rounds: int
    seed: int
    use_bias: bool
    slices: tuple[tuple[int, ...], ...]  # `_slices`


def _param_keys(rounds: int) -> list[tuple[str, str]]:
    """(weight key, bias key) of each layer of a checkpoint, in layer order."""
    rounds_keys = [(f"round_w_{r}", f"round_b_{r}") for r in range(rounds)]
    return [("input_w", "input_b"), *rounds_keys, ("output_w", "output_b")]


def _slices(n_nodes: int, width: int) -> tuple[tuple[int, int], ...]:
    """(offset, length) of the units each node owns (`unit_owners`): the meta's `slices`."""
    lengths = near_equal_sizes(width, n_nodes)
    return tuple(zip(accumulate(lengths, initial=0), lengths))


def save_checkpoint(model: MlpModel, path) -> None:
    slices = _slices(len(model.mask.block_adjacency), model.width)
    meta = _Meta(model.width, model.rounds, model.seed, model.use_bias, slices)
    arrays = {
        "header": np.array(CKPT_HEADER),
        "meta": np.array(json.dumps(asdict(meta))),
        "block_adjacency": model.mask.block_adjacency,
    }
    for (w_key, b_key), w, b in zip(_param_keys(model.rounds), model.weights, model.biases):
        arrays[w_key] = w
        arrays[b_key] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> MlpModel:
    """The model of a checkpoint file. Its layout comes from the arrays: the
    width from `input_w`, the node count from `block_adjacency`. A missing
    array, a meta that `read_spec` cannot read as a `_Meta`, a meta `width`,
    `rounds` or `slices` that disagrees with the arrays, an array whose shape
    does not fit the layout, or a nonzero masked entry raises FormatError
    naming the path, as does a file that is not an .npz archive (text, an
    .npy array, cut short)."""
    if os.path.exists(path) and not zipfile.is_zipfile(path):  # else np.load raises OSError
        raise FormatError(f"{path}: not an .npz archive")
    with np.load(path, allow_pickle=False) as data:
        if "header" not in data or str(data["header"]) != CKPT_HEADER:
            raise FormatError(f"{path}: not a {CKPT_HEADER} checkpoint")

        def array(key: str) -> np.ndarray:
            if key not in data:
                raise FormatError(f"{path}: no {key!r} array")
            return data[key]

        # A key `_Meta` has not (the first writer's dtype, say) is skipped.
        where = f"{path}: meta"
        meta = read_spec(_Meta, read_json(str(array("meta")), where),
                         ignore=lambda key: True, source=keys_of(where))
        keys = _param_keys(meta.rounds)
        weights = [array(w_key) for w_key, _ in keys]
        biases = [array(b_key) for _, b_key in keys]
        block = array("block_adjacency")
        rounds = sum(key.startswith("round_w_") for key in data.files)
    if meta.rounds != rounds:
        raise FormatError(f"{path}: meta 'rounds' is {meta.rounds}, but {rounds} are stored")
    if rounds < 1:
        raise FormatError(f"{path}: no rounds stored; a model has at least one")
    if any(a.ndim != 2 for a in [*weights, block]) or any(b.ndim != 1 for b in biases):
        raise FormatError(f"{path}: a weight or the mask is not a matrix, or a bias not a vector")
    (in_dim, width), out_dim, n_nodes = weights[0].shape, weights[-1].shape[1], len(block)
    if meta.width != width:
        raise FormatError(f"{path}: meta 'width' is {meta.width}, but input_w's is {width}")
    shapes = _layer_shapes(in_dim, width, rounds, out_dim)
    for (w_key, b_key), w, b, (rows, cols) in zip(keys, weights, biases, shapes):
        for key, a, shape in ((w_key, w, (rows, cols)), (b_key, b, (cols,))):
            if a.shape != shape:
                raise FormatError(f"{path}: {key!r} has shape {a.shape}, not {shape}")
    if block.dtype != bool or block.shape != (n_nodes, n_nodes):
        raise FormatError(f"{path}: block_adjacency is not a square bool matrix")
    try:
        unit_owners(n_nodes, width)
    except (ShapeError, TooManyNodes) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if meta.slices != _slices(n_nodes, width):
        raise FormatError(f"{path}: meta 'slices' are not {n_nodes} nodes' units of width {width}")
    model = MlpModel(weights, biases, LayerMask(block, width), meta.seed, meta.use_bias)
    if not model.masked_entries_zero():
        raise FormatError(f"{path}: masked entries are not zero")
    return model
