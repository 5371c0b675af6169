import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import DenseMlp, masked_mlp_loss_and_grads, masked_mlp_sgd_step
import relnet.training
from relnet.datasets import CIFAR_DIM, Dataset, MappedPixels, synthetic_blobs
from relnet.errors import InvalidValue, NumericError, ShapeError
from relnet.generators import gen_complete, gen_er
from relnet.graphs import from_edge_pairs
from relnet.model import MlpModel, forward, init_model
from relnet.training import (
    EvalResult,
    SgdState,
    TrainConfig,
    evaluate,
    loss_and_grads,
    lr_at,
    sgd_step,
    train,
)


def tiny_model(seed, n=4, width=8, rounds=2, in_dim=3, out_dim=3, p=0.6):
    rng = np.random.default_rng(seed)
    if p >= 1.0:
        g = gen_complete(n)
    else:
        g = gen_er(n, p, seed=seed)
    model = init_model(g, width, rounds, in_dim, out_dim, seed=seed)
    # nonzero biases so their gradients are exercised away from the origin
    for b in model.biases:
        b += 0.05 * rng.standard_normal(b.shape)
    return model


def numeric_grad(model, x, y, array, index, eps=1e-5):
    orig = array[index]
    array[index] = orig + eps
    up, _ = loss_and_grads(model, x, y)
    array[index] = orig - eps
    down, _ = loss_and_grads(model, x, y)
    array[index] = orig
    return (up - down) / (2 * eps)


def check_gradients(model, x, y, rng, samples_per_array=6):
    loss, grads = loss_and_grads(model, x, y)
    pairs = [
        (model.weights[0], grads.weights[0], False),
        (model.biases[0], grads.biases[0], False),
        (model.weights[-1], grads.weights[-1], False),
        (model.biases[-1], grads.biases[-1], False),
    ]
    for r in range(model.rounds):
        pairs.append((model.round_w[r], grads.weights[r + 1], True))
        pairs.append((model.biases[r + 1], grads.biases[r + 1], False))
    mask = model.mask.matrix
    worst = 0.0
    for arr, grad, is_round in pairs:
        assert grad.shape == arr.shape
        flat_candidates = np.arange(arr.size)
        if is_round:
            assert (grad[~mask] == 0).all()
            flat_candidates = np.flatnonzero(mask.ravel())
        chosen = rng.choice(
            flat_candidates,
            size=min(samples_per_array, flat_candidates.size),
            replace=False,
        )
        for flat in chosen:
            index = np.unravel_index(int(flat), arr.shape)
            fd = numeric_grad(model, x, y, arr, index)
            an = float(grad[index])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
    return worst


class TestLossAndGrads:
    def test_uniform_logits_loss(self):
        g = gen_complete(2)
        model = init_model(g, 4, 1, 3, 10, seed=0)
        for w in model.weights:
            w[:] = 0.0
        loss, _ = loss_and_grads(model, np.zeros((6, 3)), np.arange(6) % 10)
        assert math.isclose(loss, math.log(10), rel_tol=0, abs_tol=1e-12)

    def test_label_out_of_range(self):
        model = tiny_model(0)
        with pytest.raises(ShapeError):
            loss_and_grads(model, np.zeros((2, 3)), np.array([0, 3]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for case in range(22):
            n = int(rng.integers(2, 5))
            width = int(rng.integers(n, 9))
            rounds = int(rng.integers(1, 3))
            p = 1.0 if case % 4 == 0 else float(rng.uniform(0.2, 0.9))
            model = tiny_model(
                seed=case, n=n, width=width, rounds=rounds, p=p
            )
            x = rng.standard_normal((3, 3))
            y = rng.integers(0, 3, size=3)
            worst = max(worst, check_gradients(model, x, y, rng))
        assert worst < 1e-4

    def test_masked_gradients_exactly_zero(self):
        model = tiny_model(5, p=0.4)
        rng = np.random.default_rng(1)
        _, grads = loss_and_grads(
            model, rng.standard_normal((4, 3)), rng.integers(0, 3, 4)
        )
        off = ~model.mask.matrix
        for g in grads.weights[1:-1]:
            assert (g[off] == 0).all()

    def test_dense_oracle_agreement_over_fifty_steps(self):
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
        for step in range(total):
            x = rng.standard_normal((16, 6))
            y = rng.integers(0, 3, 16)
            loss, grads = loss_and_grads(model, x, y)
            ref_loss, gw, gb = oracle.loss_and_grads(x, y)
            assert abs(loss - ref_loss) <= 1e-12
            lr = lr_at(config, step, total)
            sgd_step(model, grads, config, lr, state)
            oracle.step(gw, gb, lr, config.momentum, config.weight_decay)
        for a, b in zip(model.weights, oracle.w):
            assert np.abs(a - b).max() <= 1e-12


class TestMatchesWholeArrayArithmetic:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("graph", ["sparse", "complete"])
    def test_twenty_steps_byte_for_byte(self, graph, precision):
        # in_dim * width = 76,800 elements puts the input projection over
        # two SGD blocks, the second one partial.
        g = gen_complete(16) if graph == "complete" else gen_er(16, 0.3, seed=4)
        config = TrainConfig(learning_rate=0.05, precision=precision)
        model = init_model(g, 128, 3, 600, 10, seed=7, dtype=config.dtype)
        off = ~model.mask.matrix
        for w in model.round_w:
            assert not np.signbit(w[off]).any()
        ref = copy.deepcopy(model)
        state = SgdState.zeros(model)
        ref_state = SgdState.zeros(ref)
        rng = np.random.default_rng(11)
        total = 20
        for step in range(total):
            x = rng.standard_normal((32, 600)).astype(config.dtype)
            y = rng.integers(0, 10, 32)
            loss, grads = loss_and_grads(model, x, y)
            ref_loss, gw, gb = masked_mlp_loss_and_grads(ref, x, y)
            assert loss == ref_loss
            sgd_step(model, grads, config, lr_at(config, step, total), state)
            masked_mlp_sgd_step(
                ref, gw, gb, ref_state.vel_w, ref_state.vel_b,
                lr_at(config, step, total), config.momentum, config.weight_decay,
            )
        got = [*model.weights, *model.biases, *state.vel_w, *state.vel_b]
        want = [*ref.weights, *ref.biases, *ref_state.vel_w, *ref_state.vel_b]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert off.any() == (graph == "sparse")
        for w in [*model.round_w, *state.vel_w[1:-1]]:
            assert (w[off] == 0).all() and not np.signbit(w[off]).any()


class TestSgdStep:
    def make(self):
        model = tiny_model(3, p=1.0)
        config = TrainConfig(
            learning_rate=0.1,
            momentum=0.9,
            weight_decay=0.0,
            lr_schedule="constant",
        )
        return model, config, SgdState.zeros(model)

    def zero_grads(self, model):
        from relnet.training import Grads

        return Grads(
            weights=[np.zeros_like(w) for w in model.weights],
            biases=[np.zeros_like(b) for b in model.biases],
        )

    def test_zero_grads_zero_decay_is_identity(self):
        model, config, state = self.make()
        before = [w.copy() for w in model.weights]
        sgd_step(model, self.zero_grads(model), config, lr_at(config, 0, 10), state)
        for w, prev in zip(model.weights, before):
            assert (w == prev).all()

    def test_single_step_formula(self):
        model, config, state = self.make()
        config = replace(config, weight_decay=0.01)
        rng = np.random.default_rng(8)
        grads = self.zero_grads(model)
        grads.weights[0][:] = rng.standard_normal(grads.weights[0].shape)
        before = model.weights[0].copy()
        sgd_step(model, grads, config, lr_at(config, 0, 10), state)
        expected = before - 0.1 * (grads.weights[0] + 0.01 * before)
        assert np.abs(model.weights[0] - expected).max() <= 1e-15

    def test_momentum_accumulates(self):
        model, config, state = self.make()
        grads = self.zero_grads(model)
        grads.biases[-1][:] = 1.0
        b0 = model.biases[-1].copy()
        sgd_step(model, grads, config, lr_at(config, 0, 10), state)
        sgd_step(model, grads, config, lr_at(config, 1, 10), state)
        # velocities 1 then 1.9, so the parameter moves by lr * (1 + 1.9)
        assert np.abs(model.biases[-1] - (b0 - 0.1 * 2.9)).max() <= 1e-15

    def test_cosine_schedule_endpoints(self):
        config = TrainConfig(learning_rate=0.2, lr_schedule="cosine")
        assert lr_at(config, 0, 100) == 0.2
        assert lr_at(config, 100, 100) == 0.0
        assert math.isclose(lr_at(config, 50, 100), 0.1, abs_tol=1e-15)

    def test_constant_schedule(self):
        config = TrainConfig(learning_rate=0.2, lr_schedule="constant")
        assert lr_at(config, 99, 100) == 0.2

    def test_no_bias_model_keeps_biases_zero(self):
        g = gen_complete(3)
        model = init_model(g, 6, 1, 3, 3, seed=0, use_bias=False)
        config = TrainConfig(lr_schedule="constant")
        state = SgdState.zeros(model)
        grads = self.zero_grads(model)
        grads.biases[0][:] = 1.0
        sgd_step(model, grads, config, lr_at(config, 0, 5), state)
        assert (model.biases[0] == 0).all()


class TestEvaluate:
    def test_all_correct(self):
        ds = synthetic_blobs(20, 3, 8, spread=0.0, seed=0)
        model = init_model(gen_complete(4), 8, 1, 8, 3, seed=1)
        config = TrainConfig(
            epochs=20, batch_size=16, learning_rate=0.05, precision="double"
        )
        result, _ = train(model, ds, ds, config)
        assert result.top1_error_percent == 0.0

    def test_constant_logits_near_expected_error(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 10, size=10000)
        ds = Dataset(
            features=rng.standard_normal((10000, 4)), labels=labels, n_classes=10
        )
        model = init_model(gen_complete(2), 4, 1, 4, 10, seed=0)
        for w in model.weights:
            w[:] = 0.0
        result = evaluate(model, ds)
        # constant logits predict class 0 everywhere; expect 90% error
        sigma = 100 * math.sqrt(0.9 * 0.1 / 10000)
        assert abs(result.top1_error_percent - 90.0) <= 3 * sigma

    def test_single_wrong_example(self):
        ds = Dataset(features=np.zeros((1, 4)), labels=np.array([3]), n_classes=10)
        model = init_model(gen_complete(2), 4, 1, 4, 10, seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert evaluate(model, ds).top1_error_percent == 100.0

    def test_bit_identical_reruns(self):
        ds = synthetic_blobs(30, 4, 8, spread=1.0, seed=4)
        model = init_model(gen_er(5, 0.6, 1), 10, 2, 8, 4, seed=2)
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert a == b

    def test_loss_matches_uniform_reference(self):
        ds = Dataset(features=np.zeros((5, 4)), labels=np.arange(5), n_classes=10)
        model = init_model(gen_complete(2), 4, 1, 4, 10, seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert math.isclose(evaluate(model, ds).loss, math.log(10), abs_tol=1e-12)


class TestTrain:
    def blobs(self, seed=0):
        return synthetic_blobs(40, 4, 12, spread=1.0, seed=seed)

    def config(self, **kw):
        fields = dict(
            epochs=3,
            batch_size=32,
            learning_rate=0.05,
            precision="double",
        )
        fields.update(kw)
        return TrainConfig(**fields)

    @pytest.mark.parametrize(
        "field, value, message",
        [("epochs", 0, "epochs must be >= 1, got 0"),
         ("learning_rate", -1.0, "learning_rate must be > 0, got -1.0"),
         ("weight_decay", -0.5, "weight_decay must be >= 0, got -0.5"),
         ("precision", "half", "precision must be one of ('double', 'single'), got 'half'")],
    )
    def test_validate_names_the_field(self, field, value, message):
        with pytest.raises(InvalidValue) as info:
            self.config(**{field: value})
        assert (str(info.value), info.value.field) == (message, field)

    def test_epoch_and_step_counts(self, monkeypatch):
        import relnet.training as training

        calls = []
        original = training.sgd_step

        def counting(*args, **kw):
            calls.append(args[3])
            return original(*args, **kw)

        monkeypatch.setattr(training, "sgd_step", counting)
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 12, 4, seed=0)
        _, log = train(model, ds, ds, self.config(epochs=1, batch_size=50), seed=11)
        assert len(log) == 1
        assert len(calls) == math.ceil(ds.n / 50)

    def test_zero_epochs_rejected(self):
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 12, 4, seed=0)
        with pytest.raises(ValueError):
            train(model, ds, ds, self.config(epochs=0), seed=11)

    def test_dimension_mismatch(self):
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 10, 4, seed=0)
        with pytest.raises(ShapeError):
            train(model, ds, ds, self.config(), seed=11)

    def test_class_count_exceeds_out_dim(self):
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 12, 3, seed=0)
        with pytest.raises(ShapeError):
            train(model, ds, ds, self.config(), seed=11)

    def test_deterministic_reruns(self):
        ds = self.blobs()
        logs = []
        for _ in range(2):
            model = init_model(gen_er(6, 0.5, 3), 12, 2, 12, 4, seed=9)
            _, log = train(model, ds, ds, self.config(), seed=11)
            logs.append([(e["train_loss"], e["test_top1"], e["lr"]) for e in log])
        assert logs[0] == logs[1]

    def test_log_fields(self):
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 12, 4, seed=0)
        result, log = train(model, ds, ds, self.config(epochs=2), seed=11)
        assert isinstance(result, EvalResult)
        assert [e["epoch"] for e in log] == [0, 1]
        for entry in log:
            assert set(entry) == {"epoch", "train_loss", "test_top1", "lr", "wall_ms"}
        assert log[-1]["test_top1"] == result.top1_error_percent

    def test_mask_persists_through_training(self):
        ds = self.blobs()
        model = init_model(gen_er(6, 0.4, 2), 12, 2, 12, 4, seed=5)
        train(model, ds, ds, self.config(epochs=4), seed=11)
        assert model.masked_entries_zero()

    def test_numeric_error_carries_context(self):
        ds = self.blobs()
        bad = Dataset(
            features=ds.features.copy(), labels=ds.labels, n_classes=ds.n_classes
        )
        bad.features[0, 0] = np.nan
        model = init_model(gen_complete(4), 8, 1, 12, 4, seed=0)
        with pytest.raises(NumericError, match="epoch 0"):
            train(model, bad, ds, self.config(), seed=11)

    def test_overflowing_logits_name_the_epoch_and_step(self):
        ds = self.blobs()
        model = init_model(gen_complete(4), 8, 1, 12, 4, seed=0)
        for w in model.weights:
            w *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"^epoch 0, step 0: non-finite loss nan$"):
                train(model, ds, ds, self.config(), seed=11)

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((64, 6))
        y = rng.integers(0, 3, 64)
        model = init_model(gen_er(5, 0.5, 4), 10, 2, 6, 3, seed=6)
        config = TrainConfig(
            learning_rate=1e-3,
            momentum=0.0,
            weight_decay=0.0,
            lr_schedule="constant",
            precision="double",
        )
        state = SgdState.zeros(model)
        losses = []
        for step in range(11):
            loss, grads = loss_and_grads(model, x, y)
            losses.append(loss)
            if step < 10:
                sgd_step(model, grads, config, lr_at(config, step, 10), state)
        increases = [
            b - a for a, b in zip(losses, losses[1:]) if b > a
        ]
        assert len(increases) <= 1
        assert all(inc < 1e-6 for inc in increases)


class TestOneMaskRule:
    """`init_model` zeroes the masked round weights with one `apply_mask`
    call and training re-masks nothing; the masked gradients keep those
    weights and their velocities at +0.0, which
    `TestMatchesWholeArrayArithmetic` and `TestEvalCadence` check by bit
    pattern."""

    def blobs(self):
        return synthetic_blobs(40, 4, 12, spread=1.0, seed=0)

    def model(self):
        return init_model(gen_er(6, 0.4, 2), 12, 2, 12, 4, seed=5)

    def config(self):
        return TrainConfig(epochs=3, batch_size=32, learning_rate=0.05, precision="double")

    def test_apply_mask_called_once_at_init_and_never_in_training(self, monkeypatch):
        calls = []
        original = MlpModel.apply_mask

        def counting(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(MlpModel, "apply_mask", counting)
        model = self.model()
        assert len(calls) == 1 and calls[0] is model
        ds = self.blobs()
        train(model, ds, ds, self.config(), seed=11)
        assert len(calls) == 1

    def test_nan_masked_gradient_fails_the_epoch_check(self, monkeypatch):
        ds = self.blobs()
        config = self.config()
        steps_per_epoch = math.ceil(ds.n / config.batch_size)
        model = self.model()
        row, col = np.argwhere(~model.mask.matrix)[0]
        calls = []
        original = relnet.training.loss_and_grads

        def poisoned(*args):
            loss, grads = original(*args)
            calls.append(None)
            if len(calls) == steps_per_epoch:  # the last step of epoch 0
                grads.weights[1][row, col] = np.nan
            return loss, grads

        monkeypatch.setattr(relnet.training, "loss_and_grads", poisoned)
        with pytest.raises(NumericError, match="mask violated at epoch 0"):
            train(model, ds, ds, config, seed=11)


class TestEvalCadence:
    """Evaluation never touches the model, so evaluating only after the last
    epoch leaves every weight, velocity and the final result unchanged."""

    def run(self, monkeypatch, precision, eval_every_epoch):
        states, evaluations = [], []
        sgd_step, evaluate = relnet.training.sgd_step, relnet.training.evaluate

        def recording_sgd_step(model, grads, config, lr, state):
            states.append(state)
            return sgd_step(model, grads, config, lr, state)

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(relnet.training, "sgd_step", recording_sgd_step)
        monkeypatch.setattr(relnet.training, "evaluate", counting_evaluate)
        config = TrainConfig(
            epochs=4, batch_size=16, learning_rate=0.05, precision=precision
        )
        ds = synthetic_blobs(30, 4, 10, spread=1.5, seed=6, dtype=config.dtype)
        model = init_model(gen_er(6, 0.6, seed=8), 12, 2, 10, 4, seed=8, dtype=config.dtype)
        result, log = train(model, ds, ds, config, seed=2, eval_every_epoch=eval_every_epoch)
        return model, states[-1], result, log, len(evaluations)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_last_epoch_only_is_bit_for_bit(self, monkeypatch, precision):
        every = self.run(monkeypatch, precision, True)
        last = self.run(monkeypatch, precision, False)
        (model, state, result, log, calls), (m2, s2, r2, log2, calls2) = every, last
        assert (calls, calls2) == (4, 1)
        for a, b in zip(
            [*model.weights, *model.biases, *state.vel_w, *state.vel_b],
            [*m2.weights, *m2.biases, *s2.vel_w, *s2.vel_b],
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert result == r2
        assert [e["test_top1"] for e in log2] == [None, None, None, result.top1_error_percent]
        assert all(e["test_top1"] is not None for e in log)
        for a, b in zip(log, log2):
            assert set(a) == set(b)
            assert (a["epoch"], a["train_loss"], a["lr"]) == (b["epoch"], b["train_loss"], b["lr"])
        assert log[-1]["test_top1"] == log2[-1]["test_top1"]
        off = ~model.mask.matrix  # after train, masked entries are +0.0 too
        assert off.any()
        for w in [*model.round_w, *state.vel_w[1:-1]]:
            assert (w[off] == 0).all() and not np.signbit(w[off]).any()


class TestMemoryBound:
    """Peaks seen by tracemalloc, which traces numpy's buffers."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_holds_one_gradient_set(self, dtype):
        # The input projection dominates the parameters. Besides the model a
        # run needs momentum and one gradient set; a step's activations, its
        # batch, the mask and the update's temporary are small next to them.
        precision = "double" if dtype == np.float64 else "single"
        config = TrainConfig(
            epochs=2, batch_size=16, learning_rate=0.01, precision=precision
        )
        ds = synthetic_blobs(8, 4, 4096, spread=1.0, seed=0, dtype=dtype)
        model = init_model(gen_er(8, 0.5, seed=1), 256, 1, 4096, 4, seed=1, dtype=dtype)
        params = sum(a.nbytes for a in [*model.weights, *model.biases])
        tracemalloc.start()
        try:
            train(model, ds, ds, config, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameters themselves were allocated before tracing began
        assert params + peak < 3.5 * params

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_evaluate_holds_one_block(self, dtype):
        # One in-memory "file" of 2500 CIFAR-10 records. While a block is
        # decoded its pixel bytes are alive too, a quarter of the block in
        # single precision; at width 512, as in the paper, the bound's two
        # and a half layers cover them.
        rng = np.random.default_rng(0)
        records = rng.integers(0, 256, size=(2500, 1 + CIFAR_DIM), dtype=np.uint8)
        coded = Dataset(
            features=MappedPixels([records], dtype),
            labels=rng.integers(0, 10, size=2500),
            n_classes=10,
        )
        model = init_model(gen_er(8, 0.5, seed=1), 512, 5, CIFAR_DIM, 10, seed=1, dtype=dtype)
        item = np.dtype(dtype).itemsize
        block, hidden = 1000 * CIFAR_DIM * item, 1000 * 512 * item
        tracemalloc.start()
        try:
            evaluate(model, coded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 2 * hidden + hidden // 2


class TestPermutationEquivariance:
    def test_relabeled_graph_trains_identically(self):
        perm = [2, 0, 3, 1]  # new id of each old node
        g = from_edge_pairs(4, [(0, 1), (1, 2), (2, 3)])
        g_perm = from_edge_pairs(
            4, [(perm[i], perm[j]) for i, j in g.edges]
        )
        width, rounds, in_dim, out_dim = 8, 2, 5, 3
        base = init_model(g, width, rounds, in_dim, out_dim, seed=17)
        other = init_model(g_perm, width, rounds, in_dim, out_dim, seed=17)

        # copy base's parameters into the relabeled model, permuting the
        # per-node unit blocks (width divides evenly, so blocks align)
        span = width // 4
        unit_perm = np.concatenate(
            [np.arange(perm[node] * span, perm[node] * span + span) for node in range(4)]
        )
        other.weights[0][:, unit_perm] = base.weights[0]
        other.biases[0][unit_perm] = base.biases[0]
        for r in range(rounds):
            other.round_w[r][np.ix_(unit_perm, unit_perm)] = base.round_w[r]
            other.biases[r + 1][unit_perm] = base.biases[r + 1]
        other.weights[-1][unit_perm, :] = base.weights[-1]
        other.biases[-1][:] = base.biases[-1]
        assert other.masked_entries_zero()

        ds = synthetic_blobs(30, 3, 5, spread=1.0, seed=2)
        config = TrainConfig(
            epochs=3, batch_size=16, learning_rate=0.05, precision="double"
        )
        _, log_a = train(base, ds, ds, config, seed=4)
        _, log_b = train(other, ds, ds, config, seed=4)
        for ea, eb in zip(log_a, log_b):
            assert abs(ea["train_loss"] - eb["train_loss"]) <= 1e-9
            assert ea["test_top1"] == eb["test_top1"]
