import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import all_labeled_graphs, message_exchange_logits
from relnet.errors import FormatError, NumericError, ShapeError, TooManyNodes
from relnet.generators import gen_complete
from relnet.graphs import from_edge_pairs
from relnet.model import (
    CKPT_HEADER,
    build_mask,
    forward,
    init_model,
    load_checkpoint,
    partition_width,
    save_checkpoint,
)

# Four fully connected nodes except for the (1, 3) pair; the one worked
# mask example used throughout.
ALMOST_K4 = from_edge_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


class TestPartitionWidth:
    def test_exact_division(self):
        part = partition_width(128, 512)
        assert all(length == 4 for _, length in part.slices)
        assert part.slices[0] == (0, 4) and part.slices[127] == (508, 4)

    def test_uneven_division(self):
        part = partition_width(4, 10)
        assert [length for _, length in part.slices] == [3, 3, 2, 2]
        assert [off for off, _ in part.slices] == [0, 3, 6, 8]

    def test_too_many_nodes(self):
        with pytest.raises(TooManyNodes):
            partition_width(600, 512)

    def test_single_node(self):
        part = partition_width(1, 5)
        assert part.slices == ((0, 5),)

    def test_node_of_units(self):
        owner = partition_width(3, 7).node_of_units()
        assert owner.tolist() == [0, 0, 0, 1, 1, 2, 2]

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80)
    def test_covers_width_contiguously(self, n, width):
        if n > width:
            with pytest.raises(TooManyNodes):
                partition_width(n, width)
            return
        part = partition_width(n, width)
        lengths = [length for _, length in part.slices]
        assert sum(lengths) == width
        assert max(lengths) - min(lengths) <= 1
        offset = 0
        for off, length in part.slices:
            assert off == offset
            offset += length


class TestBuildMask:
    def test_complete_graph_all_true(self):
        g = gen_complete(4)
        mask = build_mask(g, partition_width(4, 8))
        assert mask.matrix.all()

    def test_missing_pair_blocks(self):
        mask = build_mask(ALMOST_K4, partition_width(4, 16))
        block = mask.block_adjacency
        expected = np.ones((4, 4), dtype=bool)
        expected[1, 3] = expected[3, 1] = False
        assert (block == expected).all()
        # unit level: exactly the two 4x4 blocks are false
        assert (~mask.matrix).sum() == 32
        assert not mask.matrix[4:8, 12:16].any()
        assert not mask.matrix[12:16, 4:8].any()

    def test_edgeless_is_block_diagonal(self):
        g = from_edge_pairs(3, [])
        mask = build_mask(g, partition_width(3, 6))
        expected = np.zeros((6, 6), dtype=bool)
        for off, length in mask.partition.slices:
            expected[off : off + length, off : off + length] = True
        assert (mask.matrix == expected).all()

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            build_mask(gen_complete(3), partition_width(4, 8))

    def test_symmetry_at_block_level(self):
        g = from_edge_pairs(5, [(0, 3), (1, 4), (2, 3)])
        mask = build_mask(g, partition_width(5, 11))
        assert (mask.block_adjacency == mask.block_adjacency.T).all()
        assert mask.block_adjacency.diagonal().all()


class TestInitModel:
    def test_masked_entries_zero_count(self):
        model = init_model(ALMOST_K4, width=16, rounds=3, in_dim=5, out_dim=2, seed=0)
        for w in model.round_w:
            assert (w[~model.mask.matrix] == 0).all()
            assert (w == 0).sum() == 32
        assert model.masked_entries_zero()

    def test_same_seed_identical(self):
        a = init_model(ALMOST_K4, 16, 2, 5, 3, seed=42)
        b = init_model(ALMOST_K4, 16, 2, 5, 3, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert (wa == wb).all()

    def test_different_seed_differs(self):
        a = init_model(ALMOST_K4, 16, 2, 5, 3, seed=42)
        b = init_model(ALMOST_K4, 16, 2, 5, 3, seed=43)
        assert not (a.weights[0] == b.weights[0]).all()

    def test_biases_start_zero(self):
        model = init_model(ALMOST_K4, 16, 2, 5, 3, seed=1)
        for b in model.biases:
            assert (b == 0).all()

    def test_fan_aware_bounds(self):
        model = init_model(ALMOST_K4, 16, 1, 5, 3, seed=7)
        mask = model.mask.matrix
        fan_in = mask.sum(axis=0)
        fan_out = mask.sum(axis=1)
        limit = np.sqrt(6.0 / (fan_in[None, :] + fan_out[:, None]))
        assert (np.abs(model.round_w[0]) <= limit + 1e-12).all()
        assert (np.abs(model.weights[0]) <= np.sqrt(6.0 / (5 + 16)) + 1e-12).all()

    def test_rounds_must_be_positive(self):
        with pytest.raises(ShapeError):
            init_model(ALMOST_K4, 16, 0, 5, 3, seed=0)

    def test_dtype_selection(self):
        model = init_model(ALMOST_K4, 16, 1, 5, 3, seed=0, dtype=np.float32)
        assert model.dtype == np.float32
        assert all(w.dtype == np.float32 for w in model.weights)


class TestForward:
    def test_zero_input_zero_biases_zero_logits(self):
        model = init_model(ALMOST_K4, 12, 2, 6, 4, seed=3)
        logits, _ = forward(model, np.zeros((5, 6)))
        assert (logits == 0).all()

    def test_complete_mask_is_identity_operation(self):
        # On a complete graph the mask is all-true, so the forward pass must
        # agree bit-for-bit with plain dense matrix arithmetic on the same
        # parameter arrays.
        model = init_model(gen_complete(4), 8, 2, 6, 3, seed=11)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 6))
        logits, _ = forward(model, x)
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        for w, b in zip(model.round_w, model.biases[1:-1]):
            h = np.maximum(h @ w + b, 0.0)
        dense = h @ model.weights[-1] + model.biases[-1]
        assert (logits == dense).all()

    def test_shape_mismatch(self):
        model = init_model(ALMOST_K4, 8, 1, 6, 3, seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 5)))

    def test_non_finite_input(self):
        model = init_model(ALMOST_K4, 8, 1, 6, 3, seed=0)
        bad = np.zeros((2, 6))
        bad[1, 3] = np.inf
        with pytest.raises(NumericError):
            forward(model, bad)

    def test_matches_message_exchange_oracle_on_all_small_graphs(self):
        rng = np.random.default_rng(2024)
        count = 0
        for n, edges in all_labeled_graphs(4):
            g = from_edge_pairs(n, edges)
            model = init_model(g, width=7, rounds=2, in_dim=3, out_dim=2, seed=n)
            x = rng.standard_normal(3)
            logits, _ = forward(model, x[None, :])
            oracle = message_exchange_logits(model, x)
            assert np.abs(logits[0] - oracle).max() <= 1e-12
            count += 1
        assert count == 75

    def test_cache_layer_count(self):
        model = init_model(ALMOST_K4, 8, 3, 6, 2, seed=0)
        _, inputs = forward(model, np.zeros((1, 6)))
        assert len(inputs) == 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_cache_same_logits(self, dtype):
        model = init_model(ALMOST_K4, 12, 3, 6, 4, seed=5, dtype=dtype)
        for b in model.biases:
            b += np.linspace(-0.1, 0.1, b.size, dtype=dtype)
        x = np.random.default_rng(1).standard_normal((9, 6))
        logits, inputs = forward(model, x)
        bare, none = forward(model, x, keep_cache=False)
        assert none is None and inputs is not None
        assert bare.dtype == logits.dtype == dtype
        assert bare.tobytes() == logits.tobytes()

    def test_no_cache_keeps_the_input_checks(self):
        model = init_model(ALMOST_K4, 8, 1, 6, 3, seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 5)), keep_cache=False)
        with pytest.raises(NumericError):
            forward(model, np.full((2, 6), np.nan), keep_cache=False)


def save_v1_checkpoint(model, path):
    """The first relnet-ckpt-v1 writer: full meta, the parameters stored one
    named key per array."""
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
        "input_w": model.weights[0],
        "input_b": model.biases[0],
        "output_w": model.weights[-1],
        "output_b": model.biases[-1],
    }
    for r in range(model.rounds):
        arrays[f"round_w_{r}"] = model.weights[r + 1]
        arrays[f"round_b_{r}"] = model.biases[r + 1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestCheckpoint:
    def make_model(self, dtype=np.float64):
        model = init_model(
            ALMOST_K4, width=10, rounds=2, in_dim=5, out_dim=3, seed=21, dtype=dtype
        )
        for b in model.biases:  # nonzero, so their bytes are compared too
            b += np.linspace(-0.1, 0.1, b.size, dtype=dtype)
        return model

    def assert_same_bytes(self, model, back):
        assert back.width == model.width
        assert back.rounds == model.rounds
        assert back.seed == model.seed
        assert back.use_bias == model.use_bias
        assert back.mask.partition.slices == model.mask.partition.slices
        want = [*model.weights, *model.biases, model.mask.matrix, model.mask.block_adjacency]
        got = [*back.weights, *back.biases, back.mask.matrix, back.mask.block_adjacency]
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_round_trip(self, tmp_path):
        for dtype in (np.float32, np.float64):
            model = self.make_model(dtype)
            path = tmp_path / "model.npz"
            save_checkpoint(model, path)
            self.assert_same_bytes(model, load_checkpoint(path))

    def test_loads_first_v1_writer_files(self, tmp_path):
        for dtype in (np.float32, np.float64):
            model = self.make_model(dtype)
            path = tmp_path / "model.npz"
            save_v1_checkpoint(model, path)
            self.assert_same_bytes(model, load_checkpoint(path))

    def test_round_trip_preserves_forward(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        x = np.random.default_rng(5).standard_normal((4, 5))
        assert (forward(model, x)[0] == forward(back, x)[0]).all()

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, header=np.array("other-format-v9"), meta=np.array("{}"))
        with pytest.raises(FormatError, match=CKPT_HEADER):
            load_checkpoint(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_rejects_nonzero_masked_entries(self, tmp_path):
        model = self.make_model()
        off = ~model.mask.matrix
        model.round_w[0][off] = 0.5  # corrupt in memory, then persist
        path = tmp_path / "bad.npz"
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match="masked"):
            load_checkpoint(path)
