import json
import math
import mmap
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relnet.datasets
import relnet.sweep
from _oracles import cifar10_arrays
from relnet.datasets import (
    CIFAR_DIM,
    CIFAR_FILE_BYTES,
    CIFAR_RECORD_BYTES,
    CIFAR_RECORDS_PER_FILE,
    STATS_FILENAME,
    BlobsSpec,
    Dataset,
    batch_iter,
    load_cifar10,
    synthetic_blobs,
)
from relnet.cli import main
from relnet.errors import FormatError, InvalidValue, ShapeError
from relnet.generators import gen_er
from relnet.model import init_model
from relnet.sweep import Axis, ModelSpec, SweepSpec, run_sweep
from relnet.training import TrainConfig, evaluate, train

FILES = [f"data_batch_{b}.bin" for b in range(1, 6)] + ["test_batch.bin"]
# Channel statistics that leave the [0,1] values as they are: a load given
# them computes and caches none.
IDENTITY_STATS = ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def _synthetic_file(path: Path, seed: int, records: int = CIFAR_RECORDS_PER_FILE) -> None:
    rng = np.random.default_rng(seed)
    body = rng.integers(0, 256, size=records * CIFAR_RECORD_BYTES, dtype=np.uint8)
    body = body.reshape(-1, CIFAR_RECORD_BYTES)
    body[:, 0] = rng.integers(0, 10, size=body.shape[0], dtype=np.uint8)
    path.write_bytes(body.tobytes())


@pytest.fixture(scope="session")
def cifar_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cifar")
    for i, name in enumerate(FILES):
        _synthetic_file(root / name, seed=1000 + i)
    return root


def _file_pixels01(path: Path, rows=None) -> np.ndarray:
    """[0,1] float64 pixel matrix for one file, straight from the bytes."""
    raw = np.frombuffer(path.read_bytes(), np.uint8)
    pixels = raw.reshape(-1, CIFAR_RECORD_BYTES)[:rows, 1:]
    return pixels.astype(np.float64) / 255.0


def _train_stats_oracle(root: Path):
    """Per-channel mean/std over the five training files, one file at a time."""
    total = 0
    acc = np.zeros(3)
    acc_sq = np.zeros(3)
    for b in range(1, 6):
        planes = _file_pixels01(root / f"data_batch_{b}.bin").reshape(-1, 3, 1024)
        acc += planes.sum(axis=(0, 2))
        acc_sq += (planes**2).sum(axis=(0, 2))
        total += planes.shape[0] * 1024
    mean = acc / total
    std = np.sqrt(acc_sq / total - mean**2)
    return mean, std


class TestLoadCifar10:
    def test_shapes_and_label_ranges(self, cifar_dir):
        train, test = load_cifar10(cifar_dir, stats=IDENTITY_STATS)
        assert train.features.shape == (50000, CIFAR_DIM)
        assert test.features.shape == (10000, CIFAR_DIM)
        assert train.labels.shape == (50000,)
        assert train.n_classes == 10
        assert train.labels.min() >= 0 and train.labels.max() <= 9

    def test_raw_mode_range_and_values(self, cifar_dir):
        train, _ = load_cifar10(cifar_dir, stats=IDENTITY_STATS)
        features = train.features[:]
        assert features.min() >= 0.0
        assert features.max() <= 1.0
        # rows 0..199 come from the first training file, in record order
        raw = _file_pixels01(cifar_dir / "data_batch_1.bin", rows=200)
        assert np.abs(features[:200] - raw).max() <= 1e-6

    def test_standard_mode_statistics(self, cifar_dir):
        train, _ = load_cifar10(cifar_dir)
        planes = train.features[:].reshape(-1, 3, 1024)
        mean = planes.mean(axis=(0, 2), dtype=np.float64)
        std = planes.std(axis=(0, 2), dtype=np.float64)
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(std - 1.0).max() <= 1e-4

    def test_stats_cached_as_json(self, cifar_dir):
        load_cifar10(cifar_dir)
        stats = json.loads((cifar_dir / STATS_FILENAME).read_text())
        expect_mean, expect_std = _train_stats_oracle(cifar_dir)
        # loader features are float32, so its stats differ from the float64
        # oracle by quantization only
        assert np.abs(np.array(stats["mean"]) - expect_mean).max() <= 1e-6
        assert np.abs(np.array(stats["std"]) - expect_std).max() <= 1e-6

    def test_cache_is_used_when_present(self, cifar_dir, tmp_path):
        root = tmp_path / "cached"
        root.mkdir()
        for name in FILES:
            os.link(cifar_dir / name, root / name)
        fake = {"mean": [0.5, 0.5, 0.5], "std": [2.0, 2.0, 2.0]}
        (root / STATS_FILENAME).write_text(json.dumps(fake))
        train, _ = load_cifar10(root)
        raw = _file_pixels01(root / "data_batch_1.bin", rows=200)
        expected = (raw.reshape(-1, 3, 1024) - 0.5) / 2.0
        features = train.features[:]
        assert np.abs(features[:200] - expected.reshape(-1, CIFAR_DIM)).max() <= 1e-6

    def test_test_set_uses_train_statistics(self, cifar_dir):
        _, test = load_cifar10(cifar_dir)
        stats = json.loads((cifar_dir / STATS_FILENAME).read_text())
        raw01 = _file_pixels01(cifar_dir / "test_batch.bin", rows=200)
        planes = raw01.reshape(-1, 3, 1024)
        expected = (planes - np.array(stats["mean"]).reshape(1, 3, 1)) / np.array(
            stats["std"]
        ).reshape(1, 3, 1)
        features = test.features[:]
        assert np.abs(features[:200] - expected.reshape(-1, CIFAR_DIM)).max() <= 1e-5

    def test_truncated_file_reports_counts(self, cifar_dir, tmp_path):
        root = tmp_path / "trunc"
        root.mkdir()
        for name in FILES:
            os.link(cifar_dir / name, root / name)
        os.unlink(root / "data_batch_3.bin")
        data = (cifar_dir / "data_batch_3.bin").read_bytes()[:-7]
        (root / "data_batch_3.bin").write_bytes(data)
        with pytest.raises(FormatError) as err:
            load_cifar10(root, stats=IDENTITY_STATS)
        msg = str(err.value)
        assert "data_batch_3.bin" in msg
        assert str(CIFAR_FILE_BYTES) in msg
        assert str(CIFAR_FILE_BYTES - 7) in msg

    def test_label_byte_out_of_range(self, cifar_dir, tmp_path):
        root = tmp_path / "badlabel"
        root.mkdir()
        data = bytearray((cifar_dir / "data_batch_1.bin").read_bytes())
        data[5 * CIFAR_RECORD_BYTES] = 10
        (root / "data_batch_1.bin").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="label byte 10 exceeds 9"):
            load_cifar10(root, stats=IDENTITY_STATS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10(tmp_path, stats=IDENTITY_STATS)

    @pytest.mark.skipif(
        "RELNET_CIFAR10_DIR" not in os.environ,
        reason="real CIFAR-10 directory not configured",
    )
    def test_real_channel_means(self):
        train, _ = load_cifar10(os.environ["RELNET_CIFAR10_DIR"], stats=IDENTITY_STATS)
        planes = train.features[:].reshape(-1, 3, 1024)
        mean = planes.mean(axis=(0, 2), dtype=np.float64)
        # published per-channel means of the CIFAR-10 training set
        assert np.abs(mean - [0.4914, 0.4822, 0.4465]).max() < 5e-3


SMALL_RECORDS = 64


@pytest.fixture
def small_cifar_dir(tmp_path, monkeypatch) -> Path:
    """CIFAR-10 files of SMALL_RECORDS records each, with the loader's record
    count patched to match. Byte equality of the elementwise passes does not
    depend on the record count, and the small files keep float64 cheap."""
    monkeypatch.setattr(relnet.datasets, "CIFAR_RECORDS_PER_FILE", SMALL_RECORDS)
    monkeypatch.setattr(
        relnet.datasets, "CIFAR_FILE_BYTES", SMALL_RECORDS * CIFAR_RECORD_BYTES
    )
    for i, name in enumerate(FILES):
        _synthetic_file(tmp_path / name, seed=2000 + i, records=SMALL_RECORDS)
    return tmp_path


# Both precisions of the standardized decode.
STANDARD_DTYPES = pytest.mark.parametrize(
    "dtype", [np.float32, np.float64], ids=["standard-float32", "standard-float64"]
)


def _assert_same_bytes(train, test, expected):
    x_train, y_train, x_test, y_test, _ = expected
    for got, want in [
        (train.features[:], x_train),
        (train.labels, y_train),
        (test.features[:], x_test),
        (test.labels, y_test),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _cifar10_sweep(root) -> SweepSpec:
    """A two-seed sweep of one small cell on the CIFAR-10 files under root."""
    return SweepSpec(
        family="er", n=8, axis1=Axis("p", (0.5,)), communities=(1,), seeds=(0, 1),
        model=ModelSpec(width=8, rounds=1), train=TrainConfig(epochs=1, batch_size=64),
        dataset={"kind": "cifar10", "dir": str(root)},
    )


class TestLoaderMatchesWholeArrayArithmetic:
    @STANDARD_DTYPES
    def test_fresh_stats(self, small_cifar_dir, dtype):
        expected = cifar10_arrays(small_cifar_dir, dtype)
        train, test = load_cifar10(small_cifar_dir, dtype=dtype)
        _assert_same_bytes(train, test, expected)
        assert json.loads((small_cifar_dir / STATS_FILENAME).read_text()) == expected[4]

    @STANDARD_DTYPES
    def test_cached_stats(self, small_cifar_dir, dtype):
        stats = {"mean": [0.41, 0.52, 0.47], "std": [0.23, 0.29, 0.31]}
        (small_cifar_dir / STATS_FILENAME).write_text(json.dumps(stats))
        expected = cifar10_arrays(small_cifar_dir, dtype, stats)
        train, test = load_cifar10(small_cifar_dir, dtype=dtype)
        _assert_same_bytes(train, test, expected)

    def test_given_stats_are_used_and_not_cached(self, small_cifar_dir):
        stats = {"mean": [0.41, 0.52, 0.47], "std": [0.23, 0.29, 0.31]}
        expected = cifar10_arrays(small_cifar_dir, np.float32, stats)
        train, test = load_cifar10(small_cifar_dir, stats=(stats["mean"], stats["std"]))
        _assert_same_bytes(train, test, expected)
        assert sorted(p.name for p in small_cifar_dir.iterdir()) == sorted(FILES)

    @pytest.mark.parametrize(
        "target, name", [(Path, "write_text"), (os, "replace")]
    )
    def test_unwritable_cache_still_loads(self, small_cifar_dir, monkeypatch, target, name):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only data directory")

        expected = cifar10_arrays(small_cifar_dir, np.float32)
        monkeypatch.setattr(target, name, refuse)
        train, test = load_cifar10(small_cifar_dir)
        _assert_same_bytes(train, test, expected)
        assert sorted(p.name for p in small_cifar_dir.iterdir()) == sorted(FILES)

    def test_cache_does_not_depend_on_first_precision(self, small_cifar_dir):
        """The statistics come from the single-precision values whichever
        precision loads the directory first."""
        stats_path = small_cifar_dir / STATS_FILENAME
        caches = []
        for dtype in (np.float64, np.float32):
            load_cifar10(small_cifar_dir, dtype=dtype)
            caches.append(stats_path.read_bytes())
            stats_path.unlink()
        assert caches[0] == caches[1]

    def test_pool_sweep_computes_stats_once(
        self, small_cifar_dir, monkeypatch, tmp_path_factory
    ):
        """A 2-worker sweep computes and caches the statistics once, in the
        sweep process, before its pool starts. The workers are forked, so the
        counting wrapper runs in them too; each call appends a line."""
        calls = tmp_path_factory.mktemp("calls") / "cache_stats"
        cache_stats = relnet.datasets._cache_stats

        def counted(*args):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            cache_stats(*args)

        monkeypatch.setattr(relnet.datasets, "_cache_stats", counted)
        spec = _cifar10_sweep(small_cifar_dir)
        records = run_sweep(spec, workers=2)
        assert [r.status for r in records] == ["ok", "ok"]
        assert calls.read_text().splitlines() == [str(os.getpid())]

    def test_pool_sweep_on_read_only_dir_computes_stats_once(
        self, small_cifar_dir, monkeypatch, tmp_path_factory
    ):
        """With no statistics cache to share, a 2-worker sweep still decodes
        the training set for its statistics once, in the sweep process, and
        its rows equal those of a 1-worker sweep. The workers are forked, so
        the counting wrapper runs in them too; each `MappedPixels` built for
        the statistics (one without mean and std) appends its pid to a file."""
        calls = tmp_path_factory.mktemp("calls") / "stats_decodes"
        mapped = relnet.datasets.MappedPixels

        def counted(files, dtype, mean=None, std=None):
            if mean is None:
                with open(calls, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return mapped(files, dtype, mean, std)

        monkeypatch.setattr(relnet.datasets, "MappedPixels", counted)
        monkeypatch.setattr(relnet.datasets, "_cache_stats", lambda *args: None)
        spec = _cifar10_sweep(small_cifar_dir)
        pooled = run_sweep(spec, workers=2)
        assert calls.read_text().splitlines() == [str(os.getpid())]
        assert not (small_cifar_dir / STATS_FILENAME).exists()
        serial = run_sweep(spec, workers=1)
        assert [r.status for r in pooled] == ["ok", "ok"]
        assert [replace(r, wall_ms=0.0) for r in pooled] == [
            replace(r, wall_ms=0.0) for r in serial
        ]


# Statistics caches that are not three finite means and three positive stds.
BAD_STATS = {
    "no-std": '{"mean": [0.4, 0.5, 0.5]}',
    "zero-std": '{"mean": [0.4, 0.5, 0.5], "std": [0.2, 0.0, 0.3]}',
    "negative-std": '{"mean": [0.4, 0.5, 0.5], "std": [0.2, -0.2, 0.3]}',
    "nan-mean": '{"mean": [NaN, 0.5, 0.5], "std": [0.2, 0.2, 0.3]}',
    "infinite-std": '{"mean": [0.4, 0.5, 0.5], "std": [0.2, Infinity, 0.3]}',
    "two-channels": '{"mean": [0.4, 0.5], "std": [0.2, 0.3]}',
    "string-values": '{"mean": ["0.4", "0.5", "0.5"], "std": [0.2, 0.2, 0.3]}',
    "boolean-std": '{"mean": [0.4, 0.5, 0.5], "std": [true, true, true]}',
    "string-mean": '{"mean": "abc", "std": [0.2, 0.2, 0.3]}',
    "not-an-object": "[[0.4, 0.5, 0.5], [0.2, 0.2, 0.3]]",
    "truncated": '{"mean": [0.4, 0.5, 0.5], "std": [0.2,',
    "empty": "",
    "nested-too-deep": "[" * 100_000,
}


# What each BAD_STATS error says after the file's name.
BAD_STATS_SAY = {
    "no-std": "cache 'std' is required",
    "zero-std": "cache 'std' must hold numbers > 0, got [0.2, 0.0, 0.3]",
    "negative-std": "cache 'std' must hold numbers > 0, got [0.2, -0.2, 0.3]",
    "nan-mean": "cache 'mean' must be a JSON number, got nan",
    "infinite-std": "cache 'std' must be a JSON number, got inf",
    "two-channels": "cache 'mean' must hold 3 numbers, got 2",
    "string-values": "cache 'mean' must be a JSON number, got '0.4'",
    "boolean-std": "cache 'std' must be a JSON number, got True",
    "string-mean": "cache 'mean' must be a JSON list, got 'abc'",
    "not-an-object": "cache must be a JSON object, got [[0.4, 0.5, 0.5], [0.2, 0.2, 0.3]]",
    "truncated": "cache: not JSON: Expecting value: line 1 column 39 (char 38)",
    "empty": "cache: not JSON: Expecting value: line 1 column 1 (char 0)",
    "nested-too-deep": "cache: JSON nested too deep to read",
}


class TestMalformedStatsCache:
    @pytest.mark.parametrize("case", BAD_STATS, ids=BAD_STATS.keys())
    def test_raises_format_error_naming_the_file(self, tmp_path, case):
        path = tmp_path / STATS_FILENAME
        path.write_text(BAD_STATS[case])
        with pytest.raises(FormatError) as info:
            relnet.datasets.channel_stats(tmp_path)
        assert str(info.value) == (
            f"{path}: {BAD_STATS_SAY[case]}; delete it to have them recomputed"
        )

    def test_cache_text_is_pinned(self, tmp_path):
        """The cache's JSON text, key order included, as every writer so far wrote it."""
        path = tmp_path / STATS_FILENAME
        relnet.datasets._cache_stats(path, [0.25, 0.5, 0.1], [1.0, 0.2, 3.0])
        assert path.read_text() == '{"mean": [0.25, 0.5, 0.1], "std": [1.0, 0.2, 3.0]}'

    def test_integer_values_are_numbers(self, tmp_path):
        (tmp_path / STATS_FILENAME).write_text('{"mean": [0, 0, 1], "std": [1, 2, 1]}')
        assert relnet.datasets.channel_stats(tmp_path) == ([0, 0, 1], [1, 2, 1])

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("text", [BAD_STATS["no-std"], BAD_STATS["zero-std"]],
                             ids=["no-std", "zero-std"])
    def test_sweep_exits_2_and_leaves_out_unchanged(
        self, small_cifar_dir, capfd, tmp_path_factory, workers, text
    ):
        path = small_cifar_dir / STATS_FILENAME
        path.write_text(text)
        spec_dir = tmp_path_factory.mktemp("spec")
        spec = spec_dir / "spec.json"
        spec.write_text(json.dumps({
            "family": "er", "n": 8, "axis1": {"name": "p", "values": [0.5]},
            "communities": [1], "seeds": [0, 1], "model": {"width": 8, "rounds": 1},
            "train": {"epochs": 1, "batch_size": 64},
            "dataset": {"kind": "cifar10", "dir": str(small_cifar_dir)},
        }))
        out = spec_dir / "o.csv"
        out.write_text("earlier,output\n")
        code = main(["sweep", "--spec", str(spec), "--out", str(out), "--workers", workers])
        captured = capfd.readouterr()
        assert (code, captured.out) == (2, "")
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: ") and "delete it" in line
        assert out.read_text() == "earlier,output\n"
        assert path.read_text() == text

    def test_train_exits_2_naming_the_file(self, small_cifar_dir, capfd):
        path = small_cifar_dir / STATS_FILENAME
        path.write_text(BAD_STATS["no-std"])
        code = main([
            "train", "--family", "complete", "--n", "4", "--width", "8", "--rounds", "1",
            "--epochs", "1", "--dataset", "cifar10", "--data-dir", str(small_cifar_dir),
        ])
        captured = capfd.readouterr()
        assert (code, captured.out) == (2, "")
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: ") and "delete it" in line


def _oracle_datasets(root, dtype):
    """Plain (train, test) Datasets holding the whole-array oracle's values."""
    x_train, y_train, x_test, y_test, _ = cifar10_arrays(root, dtype)
    return Dataset(x_train, y_train, 10), Dataset(x_test, y_test, 10)


# Row selections as functions of the row count: the index forms numpy takes
# on an (N,) array, and forms it rejects with IndexError.
ROW_INDICES = {
    "all": lambda n: slice(None),
    "step": lambda n: slice(3, n - 2, 7),
    "negative-bounds": lambda n: slice(-n // 2, -3),
    "reversed": lambda n: slice(None, None, -5),
    "past-the-end": lambda n: slice(n - 4, n + 100),
    "empty": lambda n: slice(n, n + 10),
    "scalar": lambda n: n // 2,
    "list": lambda n: [0, n - 1, 1, 1],
    "2-d": lambda n: np.arange(12).reshape(3, 4) * (n // 12),
    "negative": lambda n: np.array([-1, -n, 5, -6]),
    "mask": lambda n: np.arange(n) % 3 == 1,
}
BAD_ROW_INDICES = {
    "past-the-end": lambda n: [n],
    "before-the-start": lambda n: [-n - 1],
    "float": lambda n: np.array([0.0, 1.0]),
    "short-mask": lambda n: np.ones(n - 1, dtype=bool),
}


class TestCodedDataset:
    def test_full_size_split_stored_as_bytes(self, cifar_dir):
        train, test = load_cifar10(cifar_dir, stats=IDENTITY_STATS)
        for ds, n in ((train, 50000), (test, 10000)):
            assert ds.features.shape == (n, CIFAR_DIM)
            assert [part.dtype for part in ds.features._pixels] == [np.uint8] * (n // 10000)
            assert ds.features[n - 2 :].dtype == np.float32

    @STANDARD_DTYPES
    def test_batches_match_oracle_rows(self, small_cifar_dir, dtype):
        train, _ = load_cifar10(small_cifar_dir, dtype=dtype)
        oracle, _ = _oracle_datasets(small_cifar_dir, dtype)
        got = list(batch_iter(train, 48, seed=3, epoch=1))
        want = list(batch_iter(oracle, 48, seed=3, epoch=1))
        assert len(got) == len(want) == 7
        for (x, y), (ox, oy) in zip(got, want):
            assert x.dtype == ox.dtype and x.shape == ox.shape
            assert x.tobytes() == ox.tobytes()
            assert y.tobytes() == oy.tobytes()

    @pytest.mark.parametrize("make_index", ROW_INDICES.values(), ids=ROW_INDICES.keys())
    def test_rows_select_as_from_an_array(self, small_cifar_dir, make_index):
        coded, _ = load_cifar10(small_cifar_dir)
        plain, _ = _oracle_datasets(small_cifar_dir, np.float32)
        index = make_index(coded.n)
        got, want = coded.features[index], plain.features[index]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "make_index", BAD_ROW_INDICES.values(), ids=BAD_ROW_INDICES.keys()
    )
    def test_bad_rows_raise_as_from_an_array(self, small_cifar_dir, make_index):
        coded, _ = load_cifar10(small_cifar_dir)
        plain, _ = _oracle_datasets(small_cifar_dir, np.float32)
        for ds in (coded, plain):
            with pytest.raises(IndexError):
                ds.features[make_index(ds.n)]

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_training_matches_oracle_dataset(self, small_cifar_dir, precision):
        config = TrainConfig(
            epochs=2, batch_size=48, learning_rate=0.05, precision=precision
        )
        coded = load_cifar10(small_cifar_dir, dtype=config.dtype)
        plain = _oracle_datasets(small_cifar_dir, config.dtype)
        runs = []
        for train_set, test_set in (coded, plain):
            model = init_model(
                gen_er(16, 0.3, seed=4), 32, 2, CIFAR_DIM, 10, seed=7, dtype=config.dtype
            )
            result, log = train(model, train_set, test_set, config, seed=5)
            small_blocks = evaluate(model, test_set, batch_size=24)
            runs.append((model, result, log, small_blocks))
        (model, result, log, blocks), (ref, ref_result, ref_log, ref_blocks) = runs
        for a, b in zip(
            [*model.weights, *model.biases],
            [*ref.weights, *ref.biases],
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert result == ref_result and blocks == ref_blocks
        assert [e["train_loss"] for e in log] == [e["train_loss"] for e in ref_log]
        assert [e["test_top1"] for e in log] == [e["test_top1"] for e in ref_log]


def _split_pixels(root: Path, names: list[str]) -> np.ndarray:
    """The split's (N, 3072) pixel rows, copied from the concatenated file
    bytes."""
    raw = np.concatenate([np.frombuffer((root / n).read_bytes(), np.uint8) for n in names])
    return raw.reshape(-1, CIFAR_RECORD_BYTES)[:, 1:]


def _anonymous_kb() -> int:
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Anonymous:"):
                return int(line.split()[1])
    raise AssertionError("no Anonymous line in smaps_rollup")


class TestMappedPixels:
    @pytest.fixture(scope="class")
    def mapped(self, cifar_dir):
        train, test = load_cifar10(cifar_dir, stats=IDENTITY_STATS)
        return train.features, _split_pixels(cifar_dir, FILES[:5])

    def assert_rows(self, got, want):
        """`got` is the decode of the pixel rows `want`: with the identity
        statistics, their [0,1] float32 values."""
        assert want.dtype == np.uint8
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == (want.astype(np.float32) / np.float32(255)).tobytes()

    def test_shape_and_block_dtype(self, mapped):
        pixels, want = mapped
        assert pixels.shape == want.shape == (50000, CIFAR_DIM)
        self.assert_rows(pixels[:3], want[:3])

    def test_index_arrays_across_all_files(self, mapped):
        pixels, want = mapped
        index = np.random.default_rng(8).permutation(50000)[:700]
        index[:6] = [0, 9999, 10000, 29999, 40000, 49999]
        assert set(index // CIFAR_RECORDS_PER_FILE) == set(range(5))
        self.assert_rows(pixels[index], want[index])
        self.assert_rows(pixels[list(index[:5])], want[index[:5]])
        grid = index[:12].reshape(3, 4)
        self.assert_rows(pixels[grid], want[grid])

    @pytest.mark.parametrize(
        "index",
        [slice(9990, 10010), slice(None), slice(-10, None), slice(49990, 60000),
         slice(3, 40000, 4999), slice(30005, 9990, -7), slice(10, 20),
         slice(20000, 30000), slice(5, 5), slice(10010, 9990), slice(60000, 70000)],
    )
    def test_slices(self, mapped, index):
        pixels, want = mapped
        self.assert_rows(pixels[index], want[index])

    def test_negative_and_empty_indices(self, mapped):
        pixels, want = mapped
        index = np.array([-1, -10000, -10001, -50000, 3, -3])
        self.assert_rows(pixels[index], want[index])
        for empty in ([], np.array([], dtype=np.int64), np.array([], dtype=np.uint32)):
            self.assert_rows(pixels[empty], want[:0])

    @pytest.mark.parametrize(
        "index", [[50000], [-50001], np.array([0.0, 1.0]), np.array([True, False])]
    )
    def test_bad_indices_raise(self, mapped, index):
        pixels, _ = mapped
        with pytest.raises(IndexError):
            pixels[index]

    def test_stored_pixels_cannot_be_written(self, mapped, cifar_dir):
        pixels, want = mapped
        with pytest.raises(TypeError):
            pixels[0] = 0
        records = relnet.datasets._map_cifar_file(cifar_dir / FILES[0])
        for view in (records, records[10:20, 1:], records[10:20].T):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 0
            with pytest.raises(ValueError):
                view.setflags(write=True)
        gathered = pixels[np.array([10, 10010])]
        gathered[:] = 0
        self.assert_rows(pixels[np.array([10, 10010])], want[[10, 10010]])
        self.assert_rows(pixels[10:20], want[10:20])

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/smaps_rollup"
    )
    def test_load_copies_no_pixels(self, cifar_dir):
        before = _anonymous_kb()
        splits = load_cifar10(cifar_dir, stats=IDENTITY_STATS)
        grown = _anonymous_kb() - before
        copy_kb = sum(math.prod(ds.features.shape) for ds in splits) // 1024  # 184 MB
        assert grown < copy_kb // 10, f"{grown} kB anonymous memory after the load"

    def test_wrong_size_file_fails_before_it_is_mapped(self, cifar_dir, tmp_path, monkeypatch):
        for name in FILES:
            os.link(cifar_dir / name, tmp_path / name)
        os.unlink(tmp_path / "data_batch_3.bin")
        (tmp_path / "data_batch_3.bin").write_bytes(
            (cifar_dir / "data_batch_3.bin").read_bytes()[:-7]
        )
        mapped_sizes = []
        real_mmap = mmap.mmap

        def recording_mmap(fileno, *args, **kwargs):
            mapped_sizes.append(os.fstat(fileno).st_size)
            return real_mmap(fileno, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        with pytest.raises(FormatError, match="data_batch_3.bin: expected"):
            load_cifar10(tmp_path, stats=IDENTITY_STATS)
        assert mapped_sizes == [CIFAR_FILE_BYTES, CIFAR_FILE_BYTES]


class TestDatasetValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(FormatError, match="3 feature rows vs 2 labels"):
            Dataset(np.zeros((3, 4)), np.zeros(2, dtype=int), 5)

    def test_label_range(self):
        with pytest.raises(FormatError, match="labels out of range"):
            Dataset(np.zeros((2, 4)), np.array([0, 5]), 5)
        with pytest.raises(FormatError, match="labels out of range"):
            Dataset(np.zeros((2, 4)), np.array([-1, 0]), 5)
        ds = Dataset(np.zeros((2, 4)), np.array([0, 4]), 5)
        assert ds.n == 2 and ds.dim == 4

    def test_no_rows(self):
        """Evaluating or training on no rows would divide by zero."""
        with pytest.raises(ShapeError, match="^a dataset needs at least one row, got 0$"):
            Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 5)

    def test_smallest_blobs_and_cifar10_load(self, small_cifar_dir):
        assert synthetic_blobs(1, 2, 2, spread=1.0, seed=0).n == 2
        train, test = load_cifar10(small_cifar_dir, stats=IDENTITY_STATS)
        assert (train.n, test.n) == (5 * SMALL_RECORDS, SMALL_RECORDS)


class TestSyntheticBlobs:
    def test_shapes_and_counts(self):
        ds = synthetic_blobs(50, 4, 10, spread=1.0, seed=0)
        assert ds.features.shape == (200, 10)
        assert ds.n_classes == 4
        assert np.bincount(ds.labels).tolist() == [50] * 4

    def test_spread_zero_is_pure_centers(self):
        ds = synthetic_blobs(3, 4, 6, spread=0.0, seed=0)
        for c in range(4):
            rows = ds.features[ds.labels == c]
            expected = np.zeros(6)
            expected[c] = 3.0
            assert (rows == expected).all()

    def test_deterministic(self):
        a = synthetic_blobs(20, 3, 8, spread=1.0, seed=7)
        b = synthetic_blobs(20, 3, 8, spread=1.0, seed=7)
        c = synthetic_blobs(20, 3, 8, spread=1.0, seed=8)
        assert (a.features == b.features).all()
        assert not (a.features == c.features).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="classes must be >= 2"):
            synthetic_blobs(5, 1, 8, spread=1.0, seed=0)
        with pytest.raises(ValueError, match="must be >= classes"):
            synthetic_blobs(5, 8, 4, spread=1.0, seed=0)
        with pytest.raises(ValueError, match="n_per_class must be >= 1"):
            synthetic_blobs(0, 3, 8, spread=1.0, seed=0)

    @pytest.mark.parametrize(
        "args, field", [((0, 3, 8), "n_per_class"), ((5, 1, 8), "classes"), ((5, 8, 4), "dim")],
        ids=["n_per_class", "classes", "dim"],
    )
    def test_range_error_names_the_field(self, args, field):
        with pytest.raises(InvalidValue) as info:
            synthetic_blobs(*args, spread=1.0, seed=0)
        assert info.value.field == field

    @pytest.mark.parametrize(
        "field, value, message",
        [("n_per_class", 0, "n_per_class must be >= 1, got 0"),
         ("test_n_per_class", 0, "test_n_per_class must be >= 1, got 0"),
         ("classes", 1, "classes must be >= 2, got 1"),
         ("dim", 5, "dim must be >= classes (10), got 5")],
    )
    def test_spec_checked_when_made(self, field, value, message):
        """An out-of-range BlobsSpec cannot be built (`relnet.sweep` reexports it)."""
        assert relnet.sweep.BlobsSpec is BlobsSpec
        with pytest.raises(InvalidValue) as info:
            BlobsSpec(**{field: value})
        assert (str(info.value), info.value.field) == (message, field)

    def test_noise_scale(self):
        ds = synthetic_blobs(2000, 2, 4, spread=0.5, seed=3)
        centered = ds.features - np.array([[3, 0, 0, 0], [0, 3, 0, 0]])[ds.labels]
        assert math.isclose(centered.std(), 0.5, rel_tol=0.05)


class TestBatchIter:
    def small(self):
        return Dataset(np.arange(10, dtype=float).reshape(10, 1), np.arange(10) % 3, 3)

    def test_batch_sizes_with_remainder(self):
        sizes = [len(y) for _, y in batch_iter(self.small(), 3, seed=0, epoch=0)]
        assert sizes == [3, 3, 3, 1]

    def test_batches_partition_the_dataset(self):
        seen = np.concatenate(
            [x[:, 0] for x, _ in batch_iter(self.small(), 4, seed=5, epoch=2)]
        )
        assert sorted(seen.tolist()) == list(range(10))

    def test_features_align_with_labels(self):
        ds = self.small()
        for x, y in batch_iter(ds, 3, seed=1, epoch=0):
            assert (y == x[:, 0].astype(int) % 3).all()

    def test_same_seed_epoch_identical(self):
        ds = self.small()
        a = [x.copy() for x, _ in batch_iter(ds, 3, seed=9, epoch=4)]
        b = [x.copy() for x, _ in batch_iter(ds, 3, seed=9, epoch=4)]
        for xa, xb in zip(a, b):
            assert (xa == xb).all()

    def test_different_epochs_reshuffle(self):
        ds = self.small()
        a = np.concatenate([x for x, _ in batch_iter(ds, 10, seed=9, epoch=0)])
        b = np.concatenate([x for x, _ in batch_iter(ds, 10, seed=9, epoch=1)])
        assert not (a == b).all()

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            list(batch_iter(self.small(), 0, seed=0, epoch=0))
