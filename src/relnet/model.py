"""Translate a relational graph into a fixed-width masked MLP.

Every graph node owns a contiguous slice of the shared hidden width. One
message-exchange round maps the hidden vector x to

    x_i' = relu( sum_{j in N(i) or j=i} W[j->i] x_j + b_i )

realized as a width x width weight matrix whose block (i, j) may be nonzero
only when (i, j) is an edge or i == j (self-connections are always present).
A dense input projection feeds the first round and a dense output projection
reads the last one, so only the hidden rounds carry graph structure.

Masked entries are exactly zero at initialization and stay exactly zero
through training: gradients are masked and the mask is re-applied after
every optimizer step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, NumericError, ShapeError, TooManyNodes
from .graphs import Graph

CKPT_HEADER = "relnet-ckpt-v1"


@dataclass(frozen=True)
class BlockPartition:
    """Assignment of graph nodes to contiguous hidden-unit slices.

    Slices cover [0, width) without gaps, in ascending node order, and their
    lengths differ by at most one.
    """

    width: int
    slices: tuple[tuple[int, int], ...]  # (offset, length) per node

    @property
    def node_count(self) -> int:
        return len(self.slices)

    def node_of_units(self) -> np.ndarray:
        """Map each hidden unit index to its owning node."""
        owner = np.empty(self.width, dtype=np.int64)
        for node, (off, length) in enumerate(self.slices):
            owner[off : off + length] = node
        return owner


def partition_width(n_nodes: int, width: int) -> BlockPartition:
    """Split `width` units over `n_nodes` nodes as evenly as possible.

    The first (width mod n_nodes) nodes receive the longer slices.
    """
    if n_nodes < 1:
        raise ShapeError(f"need at least one node, got {n_nodes}")
    if n_nodes > width:
        raise TooManyNodes(f"{n_nodes} nodes do not fit in width {width}")
    base, extra = divmod(width, n_nodes)
    slices = []
    offset = 0
    for node in range(n_nodes):
        length = base + 1 if node < extra else base
        slices.append((offset, length))
        offset += length
    return BlockPartition(width=width, slices=tuple(slices))


@dataclass
class LayerMask:
    """Unit-level boolean mask shared by all message-exchange rounds.

    matrix[u, v] is True iff the owning nodes of units u and v are adjacent
    or identical; block_adjacency is the node-level view (diagonal True).
    """

    matrix: np.ndarray  # (width, width) bool
    block_adjacency: np.ndarray  # (n, n) bool
    partition: BlockPartition


def build_mask(g: Graph, part: BlockPartition) -> LayerMask:
    """Expand graph adjacency plus self-loops blockwise to unit level."""
    if g.node_count != part.node_count:
        raise ShapeError(
            f"graph has {g.node_count} nodes, partition has {part.node_count}"
        )
    block = g.adjacency | np.eye(g.node_count, dtype=bool)
    owner = part.node_of_units()
    matrix = block[np.ix_(owner, owner)]
    return LayerMask(matrix=matrix, block_adjacency=block, partition=part)


@dataclass
class MlpModel:
    """Fixed-width masked MLP: dense in, R masked rounds, dense out.

    All round weight matrices share one LayerMask; per-unit biases are held
    even when `use_bias` is False (then they stay zero and untrained, which
    recovers the literal bias-free message-exchange rule).
    """

    input_w: np.ndarray  # (in_dim, width)
    input_b: np.ndarray  # (width,)
    round_w: list[np.ndarray]  # R x (width, width)
    round_b: list[np.ndarray]  # R x (width,)
    output_w: np.ndarray  # (width, out_dim)
    output_b: np.ndarray  # (out_dim,)
    mask: LayerMask
    seed: int
    use_bias: bool = True

    @property
    def width(self) -> int:
        return self.input_w.shape[1]

    @property
    def in_dim(self) -> int:
        return self.input_w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.output_w.shape[1]

    @property
    def rounds(self) -> int:
        return len(self.round_w)

    @property
    def dtype(self):
        return self.input_w.dtype

    def weight_arrays(self) -> list[np.ndarray]:
        return [self.input_w, *self.round_w, self.output_w]

    def bias_arrays(self) -> list[np.ndarray]:
        return [self.input_b, *self.round_b, self.output_b]

    @cached_property
    def mask_values(self) -> np.ndarray:
        """The mask as a 1.0/0.0 matrix in the model dtype."""
        return self.mask.matrix.astype(self.dtype)

    def masked_entries_zero(self) -> bool:
        off = ~self.mask.matrix
        return all(not np.any(w[off]) for w in self.round_w)

    def apply_mask(self) -> None:
        """Zero the masked round-weight entries by multiplying with
        `mask_values`; unmasked entries are unchanged bit for bit.

        Under masked gradients the masked entries stay +0.0. A -0.0 can
        appear only after an update with dense gradients moved a masked
        entry below zero; it still compares equal to 0.
        """
        for w in self.round_w:
            w *= self.mask_values


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
    in mask share the underlying draws for a given seed.
    """
    if rounds < 1:
        raise ShapeError(f"rounds must be >= 1, got {rounds}")
    part = partition_width(g.node_count, width)
    mask = build_mask(g, part)
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))

    limit_in = np.sqrt(6.0 / (in_dim + width))
    input_w = rng.uniform(-1.0, 1.0, size=(in_dim, width)) * limit_in

    fan_in = mask.matrix.sum(axis=0).astype(np.float64)  # unmasked inputs per unit
    fan_out = mask.matrix.sum(axis=1).astype(np.float64)
    limit_round = np.sqrt(6.0 / (fan_in[None, :] + fan_out[:, None]))
    round_w = []
    round_b = []
    for _ in range(rounds):
        w = rng.uniform(-1.0, 1.0, size=(width, width)) * limit_round
        w[~mask.matrix] = 0.0
        round_w.append(w.astype(dtype))
        round_b.append(np.zeros(width, dtype=dtype))

    limit_out = np.sqrt(6.0 / (width + out_dim))
    output_w = rng.uniform(-1.0, 1.0, size=(width, out_dim)) * limit_out

    return MlpModel(
        input_w=input_w.astype(dtype),
        input_b=np.zeros(width, dtype=dtype),
        round_w=round_w,
        round_b=round_b,
        output_w=output_w.astype(dtype),
        output_b=np.zeros(out_dim, dtype=dtype),
        mask=mask,
        seed=int(seed),
        use_bias=use_bias,
    )


@dataclass
class ForwardCache:
    """Intermediates retained for the backward pass.

    Pre-activations are not kept: the ReLU derivative is `act > 0`, which
    equals `pre > 0` for every value, NaN included.
    """

    x: np.ndarray
    act: list[np.ndarray]  # post-ReLU activations: input layer then each round


def forward(
    model: MlpModel, batch: np.ndarray, keep_cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on a (batch, in_dim) matrix; returns (logits, cache).

    The bias and the ReLU are applied in place on each matmul output. With
    keep_cache False (inference) the cache is None and nothing is kept: each
    layer's input, the batch included, is released as soon as that layer's
    output exists, provided the caller holds no other reference to it.
    """
    h = np.asarray(batch, dtype=model.dtype)
    del batch
    if h.ndim != 2 or h.shape[1] != model.in_dim:
        raise ShapeError(f"batch shape {h.shape} incompatible with in_dim {model.in_dim}")
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite values in input batch")
    cache = ForwardCache(x=h, act=[]) if keep_cache else None
    for w, b in zip([model.input_w, *model.round_w], [model.input_b, *model.round_b]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if cache is not None:
            cache.act.append(h)
    logits = h @ model.output_w
    logits += model.output_b
    return logits, cache


# ---------------------------------------------------------------------------
# Checkpoint container: one .npz file with a version header, a JSON metadata
# blob (shapes, seed, partition), the node-level mask, and all parameters.


def save_checkpoint(model: MlpModel, path) -> None:
    meta = {
        "width": model.width,
        "rounds": model.rounds,
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "seed": model.seed,
        "use_bias": model.use_bias,
        "dtype": str(model.dtype),
        "slices": [list(s) for s in model.mask.partition.slices],
    }
    arrays = {
        "header": np.array(CKPT_HEADER),
        "meta": np.array(json.dumps(meta)),
        "block_adjacency": model.mask.block_adjacency,
        "input_w": model.input_w,
        "input_b": model.input_b,
        "output_w": model.output_w,
        "output_b": model.output_b,
    }
    for r in range(model.rounds):
        arrays[f"round_w_{r}"] = model.round_w[r]
        arrays[f"round_b_{r}"] = model.round_b[r]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> MlpModel:
    with np.load(path, allow_pickle=False) as data:
        if "header" not in data or str(data["header"]) != CKPT_HEADER:
            raise FormatError(f"{path}: not a {CKPT_HEADER} checkpoint")
        meta = json.loads(str(data["meta"]))
        block = data["block_adjacency"]
        part = BlockPartition(
            width=meta["width"],
            slices=tuple(tuple(s) for s in meta["slices"]),
        )
        owner = part.node_of_units()
        mask = LayerMask(
            matrix=block[np.ix_(owner, owner)],
            block_adjacency=block,
            partition=part,
        )
        model = MlpModel(
            input_w=data["input_w"],
            input_b=data["input_b"],
            round_w=[data[f"round_w_{r}"] for r in range(meta["rounds"])],
            round_b=[data[f"round_b_{r}"] for r in range(meta["rounds"])],
            output_w=data["output_w"],
            output_b=data["output_b"],
            mask=mask,
            seed=meta["seed"],
            use_bias=meta["use_bias"],
        )
    if not model.masked_entries_zero():
        raise FormatError(f"{path}: masked entries are not zero")
    return model
