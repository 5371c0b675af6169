import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import all_labeled_graphs, message_exchange_logits
from relnet.errors import FormatError, NumericError, ShapeError, TooManyNodes
from relnet.generators import gen_complete
from relnet.graphs import from_edge_pairs, near_equal_sizes
from relnet.model import (
    CKPT_HEADER,
    build_mask,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    unit_owners,
)

# Four fully connected nodes except for the (1, 3) pair; the one worked
# mask example used throughout.
ALMOST_K4 = from_edge_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


class TestPartitionWidth:
    """`unit_owners` gives node i the i-th contiguous run of
    `near_equal_sizes(width, n)` units."""

    def test_exact_division(self):
        owner = unit_owners(128, 512)
        assert np.bincount(owner).tolist() == [4] * 128
        assert owner[:4].tolist() == [0] * 4 and owner[508:].tolist() == [127] * 4

    def test_uneven_division(self):
        assert unit_owners(4, 10).tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]

    def test_too_many_nodes(self):
        with pytest.raises(TooManyNodes, match="600 nodes do not fit in width 512"):
            unit_owners(600, 512)

    def test_no_nodes(self):
        with pytest.raises(ShapeError, match="need at least one node, got 0"):
            unit_owners(0, 5)

    def test_single_node(self):
        assert unit_owners(1, 5).tolist() == [0] * 5

    def test_node_of_units(self):
        assert unit_owners(3, 7).tolist() == [0, 0, 0, 1, 1, 2, 2]

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80)
    def test_covers_width_contiguously(self, n, width):
        if n > width:
            with pytest.raises(TooManyNodes):
                unit_owners(n, width)
            return
        owner = unit_owners(n, width)
        assert len(owner) == width
        assert (np.diff(owner) >= 0).all()  # each node's units are one run
        lengths = np.bincount(owner, minlength=n)
        assert lengths.sum() == width
        assert lengths.max() - lengths.min() <= 1
        assert (np.diff(lengths) <= 0).all()  # the longer runs come first


class TestBuildMask:
    def test_complete_graph_all_true(self):
        g = gen_complete(4)
        mask = build_mask(g, 8)
        assert mask.matrix.all()

    def test_missing_pair_blocks(self):
        mask = build_mask(ALMOST_K4, 16)
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
        mask = build_mask(g, 7)
        expected = np.zeros((7, 7), dtype=bool)
        for off, length in ((0, 3), (3, 2), (5, 2)):
            expected[off : off + length, off : off + length] = True
        assert (mask.matrix == expected).all()

    def test_symmetry_at_block_level(self):
        g = from_edge_pairs(5, [(0, 3), (1, 4), (2, 3)])
        mask = build_mask(g, 11)
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

    def test_too_many_nodes_before_the_adjacency_is_built(self):
        """A graph too large for its dense n x n matrix names the width it
        does not fit, instead of failing to allocate the matrix."""
        graph = from_edge_pairs(10, [(0, 1)])
        with pytest.raises(TooManyNodes, match="10 nodes do not fit in width 8"):
            init_model(graph, 8, 1, 5, 3, seed=0)
        assert "adjacency" not in graph.__dict__

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
    lengths = near_equal_sizes(model.width, len(model.mask.block_adjacency))
    meta = {
        "width": model.width,
        "rounds": model.rounds,
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "seed": model.seed,
        "use_bias": model.use_bias,
        "dtype": str(model.dtype),
        "slices": [[sum(lengths[:i]), length] for i, length in enumerate(lengths)],
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
        assert back.mask.width == model.mask.width
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

    def test_meta_text_is_pinned(self, tmp_path):
        """The meta's JSON text, key order included, as every writer so far wrote it."""
        path = tmp_path / "model.npz"
        save_checkpoint(self.make_model(), path)
        with np.load(path) as data:
            assert str(data["meta"]) == (
                '{"width": 10, "rounds": 2, "seed": 21, "use_bias": true, '
                '"slices": [[0, 3], [3, 3], [6, 2], [8, 2]]}'
            )

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


class TestMalformedCheckpoint:
    """A checkpoint whose meta or arrays are missing, or whose meta disagrees
    with the layout its arrays hold, raises FormatError naming the file."""

    def write_altered(self, tmp_path, meta=(), arrays=(), drop=()):
        """The checkpoint of TestCheckpoint's model with the `meta` keys set,
        the `arrays` replaced and the `drop` keys (meta keys or arrays) removed."""
        path = tmp_path / "model.npz"
        save_checkpoint(TestCheckpoint().make_model(), path)
        with np.load(path) as data:
            contents = {key: data[key] for key in data.files}
        fields = json.loads(str(contents["meta"])) | dict(meta)
        contents["meta"] = np.array(json.dumps({k: v for k, v in fields.items() if k not in drop}))
        contents |= dict(arrays)
        np.savez(path, **{k: v for k, v in contents.items() if k not in drop})
        return path

    def assert_rejected(self, path, message):
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "key",
        ["width", "rounds", "seed", "use_bias", "slices"],
        ids=["width-int", "rounds-int", "seed-int", "use_bias-bool", "slices-list"],
    )
    def test_missing_meta_key(self, tmp_path, key):
        path = self.write_altered(tmp_path, drop=[key])
        self.assert_rejected(path, f"meta {key!r} is required")

    @pytest.mark.parametrize(
        "key", ["block_adjacency", "input_w", "input_b", "round_w_1", "round_b_0", "output_w"]
    )
    def test_missing_array(self, tmp_path, key):
        self.assert_rejected(self.write_altered(tmp_path, drop=[key]), f"no {key!r} array")

    def test_missing_meta_array(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, header=np.array(CKPT_HEADER))
        self.assert_rejected(path, "no 'meta' array")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{", "meta: not JSON: Expecting property name", id="{"),
            pytest.param("[1, 2]", "meta must be a JSON object, got [1, 2]", id="[1, 2]"),
            pytest.param("[" * 100_000, "meta: JSON nested too deep to read", id="nested-too-deep"),
        ],
    )
    def test_meta_not_a_json_object(self, tmp_path, text, message):
        path = self.write_altered(tmp_path, arrays={"meta": np.array(text)})
        self.assert_rejected(path, message)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("seed", "21", "int"), ("rounds", 2.0, "int"), ("width", True, "int"),
         ("use_bias", 1, "bool"), ("slices", {}, "list")],
    )
    def test_meta_value_of_the_wrong_type(self, tmp_path, key, value, kind):
        path = self.write_altered(tmp_path, meta={key: value})
        json_name = {"int": "integer", "bool": "boolean", "list": "list"}[kind]
        self.assert_rejected(path, f"meta {key!r} must be a JSON {json_name}, got {value!r}")

    @pytest.mark.parametrize("width", [8, 12])
    def test_width_disagrees_with_input_w(self, tmp_path, width):
        path = self.write_altered(tmp_path, meta={"width": width})
        self.assert_rejected(path, f"meta 'width' is {width}, but input_w's is 10")

    def test_fewer_rounds_than_the_file_holds(self, tmp_path):
        path = self.write_altered(tmp_path, meta={"rounds": 1})
        self.assert_rejected(path, "meta 'rounds' is 1, but 2 are stored")

    def test_no_rounds(self, tmp_path):
        """`init_model` and `ModelSpec` reject 0 rounds, so a checkpoint of none is not a model."""
        drop = ["round_w_0", "round_b_0", "round_w_1", "round_b_1"]
        path = self.write_altered(tmp_path, meta={"rounds": 0}, drop=drop)
        self.assert_rejected(path, "no rounds stored")

    def test_more_rounds_than_the_file_holds(self, tmp_path):
        path = self.write_altered(tmp_path, meta={"rounds": 3})
        self.assert_rejected(path, "no 'round_w_2' array")

    @pytest.mark.parametrize(
        "slices",
        [
            [[0, 3], [3, 3], [6, 2]],  # three nodes' slices for four nodes
            [[0, 3], [3, 3], [6, 2], [8, 1]],  # do not cover the width
            [[0, 3], [3, 3], [6, 2], [8, 4]],  # run past the width
            [[0, 4], [4, 2], [6, 2], [8, 2]],  # cover it, but not as the rule splits it
        ],
    )
    def test_slices_disagree_with_the_layout(self, tmp_path, slices):
        path = self.write_altered(tmp_path, meta={"slices": slices})
        self.assert_rejected(path, "meta 'slices' are not 4 nodes' units of width 10")

    def test_more_nodes_than_units(self, tmp_path):
        path = self.write_altered(tmp_path, arrays={"block_adjacency": np.eye(11, dtype=bool)})
        self.assert_rejected(path, "11 nodes do not fit in width 10")

    @pytest.mark.parametrize("block", [np.eye(4, dtype=np.int8), np.ones((4, 5), dtype=bool)])
    def test_block_adjacency_not_a_square_bool_matrix(self, tmp_path, block):
        path = self.write_altered(tmp_path, arrays={"block_adjacency": block})
        self.assert_rejected(path, "block_adjacency is not a square bool matrix")

    @pytest.mark.parametrize(
        "key, shape", [("round_w_0", (10, 9)), ("round_b_1", (9,)), ("output_w", (9, 3))]
    )
    def test_array_shape_outside_the_layout(self, tmp_path, key, shape):
        path = self.write_altered(tmp_path, arrays={key: np.zeros(shape)})
        self.assert_rejected(path, f"{key!r} has shape {shape}")

    @pytest.mark.parametrize(
        "key, shape", [("input_w", (10,)), ("input_b", (10, 1)), ("block_adjacency", (4,))]
    )
    def test_array_of_the_wrong_rank(self, tmp_path, key, shape):
        path = self.write_altered(tmp_path, arrays={key: np.ones(shape, dtype=bool)})
        self.assert_rejected(path, "is not a matrix, or a bias not a vector")

    def test_text_file_is_not_an_archive(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_text("width 10\n")
        self.assert_rejected(path, "not an .npz archive")

    def test_npy_file_is_not_an_archive(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        self.assert_rejected(path, "not an .npz archive")

    @pytest.mark.parametrize("keep", [0, 0.5, 0.99])
    def test_truncated_archive(self, tmp_path, keep):
        path = self.write_altered(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        self.assert_rejected(path, "not an .npz archive")
