import argparse
import json
import math
import multiprocessing
import os
import signal
import time
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import relnet.cli
import relnet.sweep
import relnet.training
from relnet.cli import _flag_values, _read_flags, build_parser, main
from relnet.datasets import STATS_FILENAME
from relnet.errors import FormatError
from relnet.generators import GeneratorSpec
from relnet.graphs import read_edge_list
from relnet.model import load_checkpoint
from relnet.sweep import (
    CSV_HEADER, BlobsSpec, Cifar10Spec, ModelSpec, correlation_report, read_records_csv,
    read_spec,
)
from relnet.training import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


SWEEP_SPEC = {
    "family": "er",
    "n": 8,
    "axis1": {"name": "p", "values": [0.3, 0.5, 0.8]},
    "axis2": {"name": "mu", "values": [0.2]},
    "communities": [2],
    "seeds": [0, 1],
    "model": {"width": 16, "rounds": 1},
    "train": {"epochs": 1, "batch_size": 64, "learning_rate": 0.05},
    "dataset": {
        "kind": "blobs",
        "classes": 3,
        "dim": 6,
        "n_per_class": 20,
        "test_n_per_class": 10,
    },
}

# A value out of range for each ranged run-setting field, by its sweep-spec
# key, and the error's rule; `relnet train` names the field's flag instead.
# The dim rule reads SWEEP_SPEC's 3 classes.
RANGE_ERRORS = [
    ("train.epochs", 0, "must be >= 1, got 0"),
    ("train.batch_size", 0, "must be >= 1, got 0"),
    ("train.learning_rate", -1, "must be > 0, got -1.0"),
    ("train.momentum", -1, "must be >= 0, got -1.0"),
    ("train.weight_decay", -0.5, "must be >= 0, got -0.5"),
    ("model.width", 0, "must be >= 1, got 0"),
    ("model.rounds", 0, "must be >= 1, got 0"),
    ("dataset.n_per_class", 0, "must be >= 1, got 0"),
    ("dataset.test_n_per_class", 0, "must be >= 1, got 0"),
    ("dataset.classes", 1, "must be >= 2, got 1"),
    ("dataset.dim", 2, "must be >= classes (3), got 2"),
]


def range_flag(key: str) -> str:
    """The `relnet train` flag of a RANGE_ERRORS key: a dataset field's is `--blob-*`."""
    section, field = key.split(".")
    return ("--blob-" if section == "dataset" else "--") + field.replace("_", "-")


class TestGenMetrics:
    def test_gen_writes_edge_list_and_summary(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, stdout, _ = run(
            capsys,
            "gen", "--family", "er", "--n", "20", "--p", "0.4",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        summary = last_json(stdout)
        graph = read_edge_list(out)
        assert summary["nodes"] == graph.node_count
        assert summary["edges"] == graph.edge_count
        assert summary["bridges"] == 0
        assert {"mean_degree", "clustering", "avg_path_len"} <= set(summary)

    def test_gen_complete(self, capsys, tmp_path):
        out = tmp_path / "k.edges"
        code, stdout, _ = run(
            capsys, "gen", "--family", "complete", "--n", "6", "--out", str(out)
        )
        assert code == 0
        assert last_json(stdout)["edges"] == 15

    def test_gen_community_records_sizes(self, capsys, tmp_path):
        out = tmp_path / "c.edges"
        code, stdout, _ = run(
            capsys,
            "gen", "--family", "community", "--n", "24", "--communities", "3",
            "--mu", "0.2", "--base", "er", "--p", "0.7", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        summary = last_json(stdout)
        assert len(summary["community_sizes"]) == 3
        graph = read_edge_list(out)
        assert graph.n_communities() == 3

    def test_gen_missing_params_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "gen", "--family", "er", "--n", "10", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_metrics_round_trip(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        _, gen_out, _ = run(
            capsys,
            "gen", "--family", "er", "--n", "15", "--p", "0.5",
            "--seed", "2", "--out", str(out),
        )
        code, met_out, _ = run(capsys, "metrics", "--edges", str(out))
        assert code == 0
        gen_summary = last_json(gen_out)
        met_summary = last_json(met_out)
        for field in ("nodes", "edges", "mean_degree", "clustering"):
            assert met_summary[field] == gen_summary[field]

    def test_metrics_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--edges", str(tmp_path / "no.edges"))
        assert code == 2
        assert "error:" in err

    def test_out_of_memory_exits_2_with_one_error_line(self, capsys, tmp_path, monkeypatch):
        """A graph whose dense matrix cannot be allocated ends the command
        with one error line, not a traceback."""
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n")
        # numpy's MemoryError says what it could not allocate; a bare one is named.
        allocate = "Unable to allocate 90.9 TiB"
        for exc, says in [(MemoryError(allocate), allocate), (MemoryError(), "MemoryError")]:
            def no_memory(graph, exc=exc):
                raise exc

            monkeypatch.setattr(relnet.cli, "compute_metrics", no_memory)
            code, stdout, err = run(capsys, "metrics", "--edges", str(edges))
            assert (code, stdout, err) == (2, "", f"error: {says}\n")


class TestGraphWorkOnOneBlasThread:
    """gen, metrics, import and train do their graph products on one OpenBLAS
    thread, and train restores the previous count before training."""

    def test_gen_and_metrics(self, capsys, tmp_path, fake_blas):
        fake_blas.watch_products()
        out = tmp_path / "g.edges"
        code, _, _ = run(
            capsys, "gen", "--family", "community", "--base", "er", "--n", "12",
            "--communities", "2", "--p", "0.5", "--mu", "0.1", "--out", str(out),
        )
        assert code == 0
        assert fake_blas.products_on_one_thread()
        del fake_blas.seen[:]
        code, _, _ = run(capsys, "metrics", "--edges", str(out))
        assert code == 0
        assert fake_blas.products_on_one_thread()
        assert fake_blas.threads == 3

    def test_import(self, capsys, tmp_path, fake_blas):
        fake_blas.watch_products()
        src = TestImport().make_file(tmp_path)
        code, _, _ = run(
            capsys, "import", "--edges", str(src), "--sample", "12", "--matched-er",
            "--out", str(tmp_path / "out.edges"),
        )
        assert code == 0
        assert fake_blas.products_on_one_thread()
        assert fake_blas.threads == 3

    def test_train(self, capsys, fake_blas):
        fake_blas.watch_products()
        fake_blas.watch(relnet.cli, "run_one")
        code, _, _ = run(
            capsys, "train", "--family", "community", "--base", "er", "--n", "8",
            "--communities", "2", "--p", "0.6", "--mu", "0.2", "--width", "8", "--rounds", "1",
            "--blob-classes", "3", "--blob-dim", "6", "--blob-n-per-class", "20", "--epochs", "1",
        )
        assert code == 0
        assert fake_blas.products_on_one_thread()
        assert fake_blas.seen[-1] == ("run_one", 3)


class TestImport:
    def make_file(self, tmp_path):
        path = tmp_path / "conn.edges"
        lines = [f"{i} {(i + 1) % 30}" for i in range(30)]
        lines += [f"{(i + 1) % 30} {i}" for i in range(30)]  # reciprocals
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_import_collapses(self, capsys, tmp_path):
        src = self.make_file(tmp_path)
        out = tmp_path / "imported.edges"
        code, stdout, _ = run(capsys, "import", "--edges", str(src), "--out", str(out))
        assert code == 0
        assert last_json(stdout)["edges"] == 30
        assert read_edge_list(out).edge_count == 30

    def test_import_sample(self, capsys, tmp_path):
        src = self.make_file(tmp_path)
        out = tmp_path / "sampled.edges"
        code, stdout, _ = run(
            capsys,
            "import", "--edges", str(src), "--sample", "12",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["nodes"] <= 12

    def test_import_matched_er(self, capsys, tmp_path):
        src = self.make_file(tmp_path)
        out = tmp_path / "control.edges"
        code, stdout, _ = run(
            capsys,
            "import", "--edges", str(src), "--matched-er",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["nodes"] <= 30

    def test_import_oversample_exits_2(self, capsys, tmp_path):
        src = self.make_file(tmp_path)
        code, _, err = run(
            capsys,
            "import", "--edges", str(src), "--sample", "99",
            "--out", str(tmp_path / "x.edges"),
        )
        assert code == 2
        assert "cannot sample" in err

    @pytest.mark.parametrize(
        "lines, flags, message",
        [(["0 1", "1 2"], ["--sample", "1", "--matched-er"],
          "a matched ER control needs >= 2 nodes, got 1"),
         (["# nodes 1"], ["--matched-er"], "a matched ER control needs >= 2 nodes, got 1"),
         (["0 1", "1 2"], ["--sample", "0"], "sample size must be >= 1, got 0"),
         (["0 1", "1 2"], ["--sample", "-1"], "sample size must be >= 1, got -1")],
        ids=["sampled-one-node-matched-er", "one-node-file-matched-er", "sample-0",
             "sample-minus-1"],
    )
    def test_too_few_nodes_exits_2(self, capsys, tmp_path, lines, flags, message):
        src = tmp_path / "small.edges"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.edges"
        code, stdout, err = run(
            capsys, "import", "--edges", str(src), *flags, "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestTrain:
    BASE = [
        "train", "--family", "complete", "--n", "4", "--width", "8",
        "--rounds", "1", "--blob-classes", "3", "--blob-dim", "6",
        "--blob-n-per-class", "20", "--epochs", "2", "--batch-size", "32",
        "--learning-rate", "0.05", "--seed", "7",
    ]
    # The spec dataclasses of each subcommand, with their flags' prefix.
    SPEC_FLAGS = {
        "gen": [(GeneratorSpec, "")],
        "train": [(GeneratorSpec, ""), (ModelSpec, ""), (TrainConfig, ""),
                  (BlobsSpec, "blob-"), (Cifar10Spec, "data-")],
    }
    OTHER_FLAGS = {
        "gen": {"-h", "--help", "--out"},
        "train": {"-h", "--help", "--edges", "--seed", "--log", "--ckpt-out", "--dataset"},
    }

    @staticmethod
    def subcommands():
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_no_subcommand_abbreviates_flags(self):
        assert [name for name, p in self.subcommands().items() if p.allow_abbrev] == []

    def test_flag_defaults_are_the_dataclass_defaults(self):
        args = build_parser().parse_args(["train", "--family", "er", "--p", "0.5"])
        assert read_spec(TrainConfig, _flag_values(args, TrainConfig)) == TrainConfig()
        assert read_spec(ModelSpec, _flag_values(args, ModelSpec)) == ModelSpec()
        assert read_spec(BlobsSpec, _flag_values(args, BlobsSpec, "blob_")) == BlobsSpec()
        assert _read_flags(args, GeneratorSpec, seed=0) == GeneratorSpec(family="er", p=0.5)
        args = build_parser().parse_args(["gen", "--family", "er", "--p", "0.5", "--out", "x"])
        assert _read_flags(args, GeneratorSpec) == GeneratorSpec(family="er", p=0.5)

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_one_flag_per_spec_field(self, command):
        """Every field has exactly one flag, named after it, with no default
        of its own (the dataclass holds it), but GeneratorSpec's seed in
        train, whose --seed is the run seed; no other flag sets a spec field."""
        actions = self.subcommands()[command]._actions
        derived = set()
        for cls, prefix in self.SPEC_FLAGS[command]:
            for f in fields(cls):
                if (command, cls, f.name) == ("train", GeneratorSpec, "seed"):
                    continue
                flag = "--" + prefix + f.name.replace("_", "-")
                (action,) = [a for a in actions if flag in a.option_strings]
                assert action.default is None
                derived.update(action.option_strings)
        every = {option for a in actions for option in a.option_strings}
        assert every - derived == self.OTHER_FLAGS[command]

    def test_bool_field_is_a_flag_pair(self):
        args = build_parser().parse_args(["train", "--family", "er", "--no-use-bias"])
        assert read_spec(ModelSpec, _flag_values(args, ModelSpec)) == ModelSpec(use_bias=False)

    @pytest.mark.parametrize(
        "flag, value",
        [("--lr", "0.05"), ("--schedule", "constant"), ("--no-bias", None),
         ("--blob-per-class", "20"), ("--learning", "0.05"), ("--lr-sched", "constant")],
    )
    def test_old_and_abbreviated_flags_exit_2(self, capsys, flag, value):
        """The flags renamed to their spec keys are gone, and no flag stands
        for a longer one it begins (`--lr` is not `--lr-schedule`)."""
        argv = ["train", "--family", "complete", "--n", "4", "--width", "8", "--rounds", "1",
                "--epochs", "1", "--blob-n-per-class", "5", flag] + ([value] if value else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_train_generated_graph(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        ckpt = tmp_path / "model.npz"
        code, stdout, _ = run(
            capsys, *self.BASE, "--log", str(log), "--ckpt-out", str(ckpt)
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["nodes"] == 4 and summary["edges"] == 6
        assert 0.0 <= summary["top1_error"] <= 100.0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in entries] == [0, 1]
        model = load_checkpoint(ckpt)
        assert model.width == 8 and model.rounds == 1

    def test_train_from_edge_file(self, capsys, tmp_path):
        edges = tmp_path / "g.edges"
        run(
            capsys,
            "gen", "--family", "er", "--n", "6", "--p", "0.8",
            "--seed", "1", "--out", str(edges),
        )
        argv = [a for a in self.BASE if a not in ("--family", "complete")]
        argv[1:1] = ["--edges", str(edges)]
        argv[argv.index("--n") + 1] = "6"
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert last_json(stdout)["nodes"] == read_edge_list(edges).node_count

    def test_train_requires_one_graph_source(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "--epochs", "1", "--blob-classes", "3",
            "--blob-dim", "6", "--blob-n-per-class", "5",
        )
        assert code == 2
        assert "exactly one of --edges or --family" in err

    def test_diverging_train_exits_2_with_one_error_line(self, capsys):
        """The run's one update sends the weights to NaN: an error, not a
        summary with "loss": NaN (not JSON), and no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(
                capsys, "train", "--family", "er", "--n", "8", "--p", "0.5", "--width", "16",
                "--rounds", "1", "--epochs", "1", "--blob-n-per-class", "5",
                "--blob-test-n-per-class", "2", "--learning-rate", "1e30",
            )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["error: epoch 0: non-finite evaluation loss nan"]

    def test_train_cifar_requires_data_dir(self, capsys):
        code, stdout, err = run(
            capsys, "train", "--family", "complete", "--n", "4",
            "--dataset", "cifar10", "--epochs", "1",
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["error: --data-dir is required"]

    def test_graph_too_wide_exits_2_before_the_data_loads(self, capsys, tmp_path):
        edges = tmp_path / "wide.edges"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(599)))
        code, stdout, err = run(
            capsys, "train", "--edges", str(edges), "--dataset", "cifar10",
            "--data-dir", str(tmp_path / "no-such-dir"),
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["error: 600 nodes do not fit in width 512"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [pytest.param("--lr-schedule", "linear", "--lr-schedule must be one of",
                      id="--lr-schedule-linear-lr_schedule must be one of"),
         pytest.param("--precision", "half", "--precision must be one of",
                      id="--precision-half-precision must be one of"),
         ("--family", "ring", "unknown family 'ring'"),
         ("--base", "ring", "does not take 'base'")],
    )
    def test_bad_setting_exits_2_before_the_data_loads(
        self, capsys, tmp_path, flag, value, message
    ):
        code, stdout, err = run(
            capsys, "train", "--family", "complete", "--n", "4", "--dataset", "cifar10",
            "--data-dir", str(tmp_path / "no-such-dir"), flag, value,
        )
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line

    TRAIN = ["train", "--family", "complete", "--n", "4", "--width", "8", "--rounds", "1",
             "--epochs", "1"]
    NAN = "must be a JSON number, got 'nan'"

    # A flag's text is read as a spec key's JSON value (`1_6`, `+16`, `.5` and
    # `1.0` for an integer are not JSON integers), and its dataclass supplies
    # the default, whether it is required and its range.
    @pytest.mark.parametrize(
        "argv, flag, rule",
        [([*TRAIN, "--learning-rate", "nan"], "--learning-rate", NAN),
         (["gen", "--family", "er", "--n", "10", "--p", "nan"], "--p", NAN),
         ([*TRAIN, "--blob-spread", "nan"], "--blob-spread", NAN),
         (["train", "--family", "complete", "--n", "1_6"], "--n",
          "must be a JSON integer, got '1_6'"),
         (["train", "--family", "complete", "--n", "+16"], "--n",
          "must be a JSON integer, got '+16'"),
         ([*TRAIN[:-1], "1.0"], "--epochs", "must be a JSON integer, got 1.0"),
         (["gen", "--family", "er", "--p", ".5"], "--p", "must be a JSON number, got '.5'"),
         ([*TRAIN[:-1], ""], "--epochs", "must be a JSON integer, got ''"),
         (["gen", "--n", "10"], "--family", "is required"),
         (["gen", "--family", "er", "--p", "2"], "--p", "must be in [0,1], got 2.0"),
         (["train", "--family", "community", "--base", "er", "--p", "0.5",
           "--communities", "2", "--mu", "1.5"], "--mu", "must be in [0,1], got 1.5"),
         (["gen", "--family", "static_sf", "--gamma", "1.5", "--m", "3"], "--gamma",
          "must be >= 2, got 1.5"),
         (["train", "--family", "static_sf", "--gamma", "2.5", "--m", "0"], "--m",
          "must be > 0, got 0.0"),
         (["gen", "--family", "community", "--base", "er", "--p", "0.5", "--mu", "0.1",
           "--communities", "0"], "--communities", "must be >= 1, got 0"),
         # The integer flags that are no spec field are read by the same rule.
         ([*TRAIN, "--seed", "1_6"], "--seed", "must be a JSON integer, got '1_6'"),
         ([*TRAIN, "--seed", "+16"], "--seed", "must be a JSON integer, got '+16'"),
         (["import", "--edges", "no.edges", "--seed", "1.0"], "--seed",
          "must be a JSON integer, got 1.0"),
         (["import", "--edges", "no.edges", "--sample", ".5"], "--sample",
          "must be a JSON integer, got '.5'"),
         (["import", "--edges", "no.edges", "--expect-nodes", "1e2"], "--expect-nodes",
          "must be a JSON integer, got 100.0"),
         (["sweep", "--spec", "no.json", "--workers", "2.0"], "--workers",
          "must be a JSON integer, got 2.0")],
        ids=["train-learning-rate", "gen-p", "train-blob-spread", "train-n-underscore",
             "train-n-plus", "train-epochs-fraction", "gen-p-no-leading-digit",
             "train-epochs-empty", "gen-no-family", "gen-p-range", "train-mu-range",
             "gen-gamma-range", "train-m-range", "gen-communities-range",
             "train-seed-underscore", "train-seed-plus", "import-seed-fraction",
             "import-sample-no-leading-digit", "import-expect-nodes-exponent",
             "sweep-workers-fraction"],
    )
    def test_bad_flag_value_exits_2_naming_the_flag(self, capsys, tmp_path, argv, flag, rule):
        out = tmp_path / "x.edges"
        code, stdout, err = run(capsys, *argv, *(["--out", str(out)] if argv[0] != "train" else []))
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert line == f"error: {flag} {rule}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, rule", RANGE_ERRORS, ids=[range_flag(key)[2:] for key, _, _ in RANGE_ERRORS]
    )
    def test_range_error_names_the_flag(self, capsys, key, value, rule):
        flag = range_flag(key)
        code, stdout, err = run(
            capsys, "train", "--family", "complete", "--n", "4", "--width", "8",
            "--rounds", "1", "--epochs", "1", "--blob-classes", "3", "--blob-dim", "6",
            flag, str(value),
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {flag} {rule}"]

    def test_empty_blobs_split_exits_2(self, capsys):
        code, stdout, err = run(
            capsys, "train", "--family", "complete", "--n", "4", "--width", "8",
            "--rounds", "1", "--epochs", "1", "--blob-n-per-class", "0",
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["error: --blob-n-per-class must be >= 1, got 0"]

    def test_train_deterministic(self, capsys, tmp_path):
        results = []
        for _ in range(2):
            _, stdout, _ = run(capsys, *self.BASE)
            summary = last_json(stdout)
            results.append((summary["top1_error"], summary["loss"]))
        assert results[0] == results[1]

    def test_log_asks_for_every_epoch_evaluation(self, capsys, tmp_path, monkeypatch):
        evaluations = []
        evaluate = relnet.training.evaluate

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(relnet.training, "evaluate", counting_evaluate)
        log = tmp_path / "log.jsonl"
        _, stdout, _ = run(capsys, *self.BASE, "--log", str(log))
        with_log = last_json(stdout)
        assert len(evaluations) == 2
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert all(e["test_top1"] is not None for e in entries)
        assert entries[-1]["test_top1"] == with_log["top1_error"]
        _, stdout, _ = run(capsys, *self.BASE)
        assert len(evaluations) == 2 + 1
        without_log = last_json(stdout)
        assert (without_log["top1_error"], without_log["loss"]) == (
            with_log["top1_error"], with_log["loss"]
        )


    def test_train_reproduces_a_sweep_cell(self, capsys, tmp_path):
        spec = tmp_path / "cell.json"
        spec.write_text(json.dumps({
            "family": "er",
            "n": 16,
            "axis1": {"name": "p", "values": [0.5]},
            "axis2": {"name": "mu", "values": [0.3]},
            "communities": [2],
            "seeds": [3],
            "model": {"width": 16, "rounds": 2},
            "train": {"epochs": 2, "batch_size": 32},
            "dataset": {"kind": "blobs", "n_per_class": 30, "test_n_per_class": 40,
                        "spread": 0.8, "seed": 5},
        }))
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        (record,) = read_records_csv(out)
        assert record.status == "ok"
        code, stdout, _ = run(
            capsys,
            "train", "--family", "community", "--base", "er", "--n", "16",
            "--communities", "2", "--p", "0.5", "--mu", "0.3", "--seed", "3",
            "--width", "16", "--rounds", "2", "--epochs", "2",
            "--batch-size", "32", "--blob-n-per-class", "30",
            "--blob-test-n-per-class", "40", "--blob-spread", "0.8", "--blob-seed", "5",
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["nodes"] == record.nodes_realized
        assert summary["top1_error"] == record.top1_error
        assert summary["n_examples"] == 40 * BlobsSpec.classes

    def test_train_reproduces_a_demo_sweep_cell(self, capsys, tmp_path):
        """The shipped demo sweep, narrowed to one cell: its blobs spread 0.6
        differs from BlobsSpec's default, so the rerun needs --blob-spread."""
        spec = json.loads((Path(__file__).parents[1] / "sweeps" / "blobs_demo.json").read_text())
        spec |= {"axis1": {"name": "p", "values": [0.5]},
                 "axis2": {"name": "mu", "values": [0.3]}, "communities": [2], "seeds": [1]}
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "sweep", "--spec", str(path), "--out", str(out))
        assert code == 0
        (record,) = read_records_csv(out)
        assert record.status == "ok"
        code, stdout, _ = run(
            capsys,
            "train", "--family", "community", "--base", "er", "--n", "16",
            "--communities", "2", "--p", "0.5", "--mu", "0.3", "--seed", "1",
            "--width", "64", "--rounds", "2", "--epochs", "30", "--blob-spread", "0.6",
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["nodes"] == record.nodes_realized
        assert summary["top1_error"] == record.top1_error


class TestSweepReport:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SWEEP_SPEC))
        return path

    def test_sweep_writes_csv(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out)
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary == {"ok": 6, "failed": 0, "skipped": 0}
        records = read_records_csv(out)
        assert len(records) == 6
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_sweep_resume_skips_done_rows(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        first = read_records_csv(out)
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
        )
        assert code == 0
        assert last_json(stdout) == {"ok": 0, "failed": 0, "skipped": 6}
        assert read_records_csv(out) == first

    def test_sweep_resume_completes_partial_csv(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        full = out.read_text().splitlines()
        out.write_text("\n".join(full[:4]) + "\n")  # keep header + 3 rows
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
        )
        assert code == 0
        assert last_json(stdout) == {"ok": 3, "failed": 0, "skipped": 3}
        assert len(read_records_csv(out)) == 6

    def test_resume_counts_only_this_specs_cells(self, capsys, tmp_path):
        """"skipped" counts the spec's cells found finished, not the CSV's
        rows: a one-p spec resumed on the three-p CSV skips its 2 cells."""
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        before = out.read_bytes()
        spec = tmp_path / "one_p.json"
        spec.write_text(json.dumps({**SWEEP_SPEC, "axis1": {"name": "p", "values": [0.5]}}))
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
        )
        assert code == 0
        assert last_json(stdout) == {"ok": 0, "failed": 0, "skipped": 2}
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "grid",
        [
            {"axis1": {"name": "gamma", "values": [2.5]}, "fixed": {"m": 3}},
            {"axis1": {"name": "m", "values": [2, 3]}, "fixed": {"gamma": 2.5}},
        ],
        ids=["fixed-m", "axis-m"],
    )
    def test_resume_with_integer_valued_float_keys(self, capsys, tmp_path, grid):
        """A JSON integer for a float key reads as a float, so the task key
        matches the CSV row it wrote, and a row that holds the integer form
        (`3`, as written before) matches too."""
        spec = tmp_path / "sf.json"
        spec.write_text(json.dumps({**SWEEP_SPEC, "family": "static_sf", "n": 16, **grid}))
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0 and last_json(stdout)["failed"] == 0
        cells = last_json(stdout)["ok"]
        before = out.read_bytes()
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
        )
        assert code == 0
        assert last_json(stdout) == {"ok": 0, "failed": 0, "skipped": cells}
        assert out.read_bytes() == before
        m = CSV_HEADER.index("m")
        rows = [line.split(",") for line in before.decode().splitlines()]
        for row in rows[1:]:
            row[m] = row[m].removesuffix(".0")
        out.write_text("".join(",".join(row) + "\r\n" for row in rows))
        integer_form = out.read_bytes()
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
        )
        assert last_json(stdout) == {"ok": 0, "failed": 0, "skipped": cells}
        assert out.read_bytes() == integer_form

    @staticmethod
    def rows_without_wall_ms(path):
        wall = CSV_HEADER.index("wall_ms")
        lines = path.read_text().splitlines()
        return [line.split(",")[:wall] for line in lines]

    def test_resume_after_row_cut_mid_write(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        whole = tmp_path / "whole.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(whole))
        data = whole.read_bytes()
        row_ends = [i for i, b in enumerate(data) if b == ord("\n")]
        assert len(row_ends) == 7
        # inside the header, mid-row, just before and after a row's "\r\n",
        # and inside the last row
        offsets = [5, row_ends[1] + 20, row_ends[2] - 1, row_ends[2] + 1,
                   row_ends[3], len(data) - 3]
        for offset in offsets:
            out = tmp_path / f"cut_{offset}.csv"
            out.write_bytes(data[:offset])
            code, stdout, _ = run(
                capsys, "sweep", "--spec", str(spec), "--out", str(out), "--resume"
            )
            assert code == 0
            summary = last_json(stdout)
            assert summary["ok"] + summary["skipped"] == 6
            assert self.rows_without_wall_ms(out) == self.rows_without_wall_ms(whole)

    def test_row_cut_mid_write_is_a_format_error(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text(",".join(CSV_HEADER) + "\ner,2,0.3,,,0.2,16,1,0,ok,8")
        with pytest.raises(FormatError, match=r"out.csv: line 2 has 11 fields, not 19"):
            read_records_csv(out)
        out.write_text(",".join(reversed(CSV_HEADER)) + "\n")
        with pytest.raises(FormatError, match="line 1 is not the records CSV header"):
            read_records_csv(out)

    def test_report_on_last_row_cut_mid_write_exits_2(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        whole = tmp_path / "whole.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(whole))
        data = whole.read_bytes()
        last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
        cut = tmp_path / "cut.csv"
        for offset in range(last_row + 1, len(data)):
            cut.write_bytes(data[:offset])
            code, stdout, err = run(capsys, "report", "--csv", str(cut), "--x", "p")
            assert (code, stdout) == (2, ""), offset
            assert err.startswith("error:") and "line 7" in err, (offset, err)
            assert "Traceback" not in err
        code, stdout, _ = run(capsys, "report", "--csv", str(whole), "--x", "p")
        assert code == 0 and stdout
        assert len(read_records_csv(whole)) == 6

    def test_report_on_malformed_middle_row_exits_2(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        lines = out.read_text().splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = run(capsys, "report", "--csv", str(out), "--x", "p")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "line 4" in err
        assert "Traceback" not in err

    def edited_sweep_csv(self, capsys, tmp_path, column, text, rows=1):
        """The spec's sweep CSV with `column` of its first `rows` rows set to `text`."""
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        lines = out.read_text().splitlines()
        for i in range(1, 1 + rows):
            row = lines[i].split(",")
            row[CSV_HEADER.index(column)] = text
            lines[i] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        return out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column, text, says", [
        ("top1_error", "nan", "line 2, column top1_error: must be a JSON number, got 'nan'"),
        ("top1_error", "inf", "line 2, column top1_error: must be a JSON number, got 'inf'"),
        ("top1_error", "-inf", "line 2, column top1_error: must be a JSON number, got '-inf'"),
        ("top1_error", "1e309", "line 2, column top1_error: must be a JSON number, got inf"),
        ("clustering", "nan", "line 2, column clustering: must be a JSON number, got 'nan'"),
        ("top1_error", "1e308", "quadratic fit of top1_mean against p has a result that is not"),
    ])
    def test_report_on_a_number_not_finite_exits_2(self, capsys, tmp_path, column, text, says):
        out = self.edited_sweep_csv(capsys, tmp_path, column, text)
        code, stdout, err = run(capsys, "report", "--csv", str(out), "--x", "p")
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert says in err
        # A value the CSV holds is named by its path; the fit's result is not.
        assert (f"error: {out}: line 2, " in err) == says.startswith("line 2, ")

    def test_field_over_the_csv_limit_exits_2_and_leaves_out_unchanged(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text(",".join(CSV_HEADER) + "\n" + "x" * 200_000 + "\n")
        before = out.read_bytes()
        for argv in (["report", "--csv", str(out), "--x", "p"],
                     ["sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out),
                      "--resume"]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (2, ""), argv
            assert err == f"error: {out}: line 2: field larger than field limit (131072)\n"
            assert out.read_bytes() == before

    def test_resume_on_a_number_not_finite_exits_2_and_leaves_out_unchanged(
        self, capsys, tmp_path
    ):
        out = self.edited_sweep_csv(capsys, tmp_path, "top1_error", "nan")
        before = out.read_bytes()
        code, stdout, err = run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)),
                                "--out", str(out), "--resume")
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and "column top1_error" in err
        assert out.read_bytes() == before

    def test_report(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        agg = tmp_path / "agg.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        code, stdout, _ = run(
            capsys,
            "report", "--csv", str(out), "--x", "p",
            "--aggregate-out", str(agg),
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["x_field"] == "p"
        assert len(summary["coefficients"]) == 3
        assert summary["residual_dof"] == 0  # three points, three coefficients
        assert summary["r_squared"] is None or math.isclose(summary["r_squared"], 1.0)
        assert len(summary["points"]) == 3  # three distinct p cells
        assert summary["cells"] == 3
        assert agg.exists()
        assert len(agg.read_text().splitlines()) == 1 + 3

    def test_report_prints_standard_errors(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {**SWEEP_SPEC, "axis1": {"name": "p", "values": [0.3, 0.5, 0.8, 0.9]}}
        ))
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        code, stdout, _ = run(capsys, "report", "--csv", str(out), "--x", "p")
        assert code == 0
        summary = last_json(stdout)
        assert summary["residual_dof"] == 1
        expected = correlation_report(read_records_csv(out), x_field="p").standard_errors
        assert summary["standard_errors"] == list(expected)
        assert all(e >= 0 for e in expected)

    def test_report_too_few_points_exits_2(self, capsys, tmp_path):
        spec_dict = dict(SWEEP_SPEC)
        spec_dict["axis1"] = {"name": "p", "values": [0.3, 0.5]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_dict))
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        agg = tmp_path / "agg.csv"
        code, _, err = run(capsys, "report", "--csv", str(out), "--x", "p",
                           "--aggregate-out", str(agg))
        assert code == 2
        assert "needs >= 3 distinct" in err
        assert len(agg.read_text().splitlines()) == 1 + 2  # the aggregate holds without a fit

    @pytest.mark.parametrize("x", ["family", "seed", "foo"])
    def test_report_x_not_a_grid_parameter_exits_2_naming_x(self, capsys, tmp_path, x):
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        code, stdout, err = run(capsys, "report", "--csv", str(out), "--x", x)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            "error: --x must be one of ('communities', 'p', 'gamma', 'm', 'mu', 'width', "
            f"'rounds'), got {x!r}"
        ]

    @pytest.mark.parametrize("earlier", [None, "earlier,output\n"], ids=["absent", "present"])
    def test_report_bad_x_leaves_aggregate_out_as_it_was(self, capsys, tmp_path, earlier):
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        agg = tmp_path / "agg.csv"
        if earlier is not None:
            agg.write_text(earlier)
        code, _, err = run(capsys, "report", "--csv", str(out), "--x", "family",
                           "--aggregate-out", str(agg))
        assert code == 2 and err.startswith("error: --x must be one of ")
        assert (agg.read_text() if agg.exists() else None) == earlier

    @pytest.mark.parametrize("earlier", [None, b"earlier,output\n"], ids=["absent", "present"])
    def test_report_on_an_overflowing_cell_writes_no_aggregate(self, capsys, tmp_path, earlier):
        # Both seeds of the first cell at 1e308: their mean and spread overflow to inf.
        out = self.edited_sweep_csv(capsys, tmp_path, "top1_error", "1e308", rows=2)
        agg = tmp_path / "agg.csv"
        if earlier is not None:
            agg.write_bytes(earlier)
        code, stdout, err = run(capsys, "report", "--csv", str(out), "--x", "p",
                                "--aggregate-out", str(agg))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            "error: aggregate cell family=er communities=2 p=0.3 mu=0.2 width=16 rounds=1, "
            "column top1_mean: inf is not a finite number"
        ]
        assert (agg.read_bytes() if agg.exists() else None) == earlier

    @pytest.mark.parametrize(
        "argv, line",
        [(["sweep", "--spec", "spec.json", "--out", "missing/o.csv"],
          "--out 'missing/o.csv': no directory 'missing'"),
         (["sweep", "--spec", "spec.json", "--out", "missing/o.csv", "--workers", "2"],
          "--out 'missing/o.csv': no directory 'missing'"),
         (["sweep", "--spec", "spec.json", "--out", "."], "--out '.' is a directory"),
         (["train", "--family", "complete", "--n", "4", "--log", "missing/log.jsonl"],
          "--log 'missing/log.jsonl': no directory 'missing'"),
         (["train", "--family", "complete", "--n", "4", "--ckpt-out", "."],
          "--ckpt-out '.' is a directory"),
         (["report", "--csv", "spec.json", "--aggregate-out", "missing/a.csv"],
          "--aggregate-out 'missing/a.csv': no directory 'missing'")],
        ids=["sweep", "sweep-workers-2", "sweep-dir", "train-log", "train-ckpt-dir", "report"],
    )
    def test_unwritable_output_exits_2_before_any_run(self, capsys, tmp_path, monkeypatch,
                                                      argv, line):
        """An output that cannot be written is named before any dataset is
        read or cell run, and nothing is created."""
        calls = []
        for module, name in [(relnet.cli, "build_dataset"), (relnet.cli, "run_one"),
                             (relnet.cli, "run_sweep"), (relnet.sweep, "run_one")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        self.write_spec(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, calls) == (2, "", [])
        assert err.splitlines() == [f"error: {line}"]
        assert os.listdir(tmp_path) == ["spec.json"]

    @pytest.mark.parametrize(
        "argv, line",
        [(["report", "--csv", "r.csv", "--x", "p", "--aggregate-out", "r.csv"],
          "--aggregate-out 'r.csv' names the same file as --csv"),
         (["report", "--csv", "r.csv", "--x", "p", "--aggregate-out", "hard.csv"],
          "--aggregate-out 'hard.csv' names the same file as --csv"),
         (["report", "--csv", "link.csv", "--x", "p", "--aggregate-out", "r.csv"],
          "--aggregate-out 'r.csv' names the same file as --csv"),
         (["sweep", "--spec", "spec.json", "--out", "spec.json"],
          "--out 'spec.json' names the same file as --spec"),
         (["sweep", "--spec", "spec.json", "--out", "./spec.json", "--workers", "2"],
          "--out './spec.json' names the same file as --spec"),
         (["import", "--edges", "g.edges", "--out", "g.edges"],
          "--out 'g.edges' names the same file as --edges"),
         (["train", "--family", "complete", "--n", "4", "--width", "8", "--epochs", "1",
           "--log", "run.out", "--ckpt-out", "run.out"],
          "--ckpt-out 'run.out' names the same file as --log")],
        ids=["report", "report-hard-link", "report-symlink", "sweep", "sweep-workers-2",
             "import", "train-log-ckpt"],
    )
    def test_output_naming_another_flags_file_exits_2_and_leaves_it_unchanged(
        self, capsys, tmp_path, monkeypatch, argv, line
    ):
        """An output flag that names the file of an input flag (by another
        path, a hard link or a symlink too), or of another output flag, is
        refused before anything is read or written."""
        monkeypatch.chdir(tmp_path)
        self.write_spec(tmp_path)
        assert run(capsys, "sweep", "--spec", "spec.json", "--out", "r.csv")[0] == 0
        os.link("r.csv", "hard.csv")
        os.symlink("r.csv", "link.csv")
        Path("g.edges").write_text("0 1\n1 2\n2 0\n")
        before = {name: Path(name).read_bytes() for name in os.listdir(tmp_path)}
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {line}"]
        assert {name: Path(name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_report_on_an_ok_row_without_top1_error_exits_2(self, capsys, tmp_path):
        out = self.edited_sweep_csv(capsys, tmp_path, "top1_error", "")
        before = out.read_bytes()
        for argv in (["report", "--csv", str(out), "--x", "p"],
                     ["sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out),
                      "--resume"]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (2, ""), argv
            assert err == (f"error: {out}: line 2, column top1_error: "
                           "must not be empty on an ok row\n")
            assert out.read_bytes() == before

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the killing cell function reaches the workers only by fork",
    )
    def test_killed_worker_exits_2_and_resumes(self, capsys, tmp_path, monkeypatch):
        spec = self.write_spec(tmp_path)
        whole = tmp_path / "whole.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(whole))
        out = tmp_path / "out.csv"
        execute_cell = relnet.sweep._execute_cell

        def killed_on_third_cell(task, *datasets):
            # p=0.5, seed 0 is the third cell in grid order. Wait until the
            # two before it are in the CSV (created with the first row), so it
            # is the first not delivered.
            if (task.p, task.seed) == (0.5, 0):
                deadline = time.monotonic() + 60
                while (
                    not (out.exists() and out.read_text().count("\n") >= 3)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)
            return execute_cell(task, *datasets)

        monkeypatch.setattr(relnet.sweep, "_execute_cell", killed_on_third_cell)
        code, _, err = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--workers", "2"
        )
        assert code == 2
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error: ")]
        assert "cell family=er communities=2 p=0.5 mu=0.2 width=16 rounds=1 seed=0 " in line
        assert self.rows_without_wall_ms(out) == self.rows_without_wall_ms(whole)[:3]

        monkeypatch.setattr(relnet.sweep, "_execute_cell", execute_cell)
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out),
            "--workers", "2", "--resume",
        )
        assert code == 0
        assert last_json(stdout) == {"ok": 4, "failed": 0, "skipped": 2}
        assert self.rows_without_wall_ms(out) == self.rows_without_wall_ms(whole)

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"family": None}, "family"),
            ({"train": {"epochz": 1}}, "epochz"),
            ({"model": [1]}, "model"),
            ({"axis1": {"name": "p", "values": 0.5}}, "axis1.values"),
            ({"dataset": {"kind": "cifar10"}}, "dataset.dir"),
            ({"comunities": [4]}, "comunities"),
            ({"n": 12.7}, "n"),
            ({"n": "abc"}, "n"),
            ({"model": {"width": "16", "rounds": 1}}, "model.width"),
            ({"dataset": {**SWEEP_SPEC["dataset"], "clases": 3}}, "clases"),
            ({"communities": [2.7]}, "communities"),
            ({"communities": [True]}, "communities"),
            ({"seeds": ["x"]}, "seeds"),
            ({"seeds": [0, False]}, "seeds"),
            ({"model": {"width": 16, "rounds": 1, "use_bias": "no"}}, "model.use_bias"),
            ({"model": {"width": 16, "rounds": 1, "use_bias": 0}}, "model.use_bias"),
            ({"train": {**SWEEP_SPEC["train"], "seed": 7}}, "seed"),
            ({"axis1": {"name": "p", "values": ["x"]}}, "axis1.values"),
            ({"fixed": {"m": "x"}}, "fixed.m"),
            ({"fixed": {"q": 1}}, "q"),
            ({"train": {**SWEEP_SPEC["train"], "epochs": "3"}}, "train.epochs"),
            ({"train": {**SWEEP_SPEC["train"], "epochs": 1.5}}, "train.epochs"),
            ({"train": {**SWEEP_SPEC["train"], "lr_schedule": 3}}, "train.lr_schedule"),
            ({"dataset": {**SWEEP_SPEC["dataset"], "classes": 2.7}}, "dataset.classes"),
            ({"dataset": {**SWEEP_SPEC["dataset"], "seed": "x"}}, "dataset.seed"),
            ({"dataset": {"kind": "cifar10", "dir": 5}}, "dataset.dir"),
            ({"communities": [0]}, "communities"),
            ({"axis2": {"name": "mu", "values": [float("nan")]}, "communities": [1]},
             "axis2.values"),
            ({"fixed": {"m": float("inf")}}, "fixed.m"),
            ({"axis1": {"name": "gamma", "values": [2.5]}}, "gamma"),
            ({"fixed": {"m": 3}}, "m"),
            ({"axis1": {"name": "mu", "values": [0.1]}, "axis2": None}, "p"),
            ({"family": "static_sf", "axis1": {"name": "gamma", "values": [2.5]}}, "m"),
            ({"n": 1}, "n"),
            ({"model": {"width": 16, "rounds": 0}}, "model.rounds"),
            ({"model": {"width": 0, "rounds": 1}}, "model.width"),
            ({"dataset": {"kind": "cifar10", "dir": "d", "normalize": "standard"}},
             "normalize"),
            ({"dataset": {**SWEEP_SPEC["dataset"], "n_per_class": 0}}, "dataset.n_per_class"),
            ({"dataset": {**SWEEP_SPEC["dataset"], "test_n_per_class": 0}},
             "dataset.test_n_per_class"),
            ({"family": "complete"}, "family"),
            ({"axis1": {"name": "p", "values": [0.5, 0.3, 0.5]}}, "p"),
            ({"communities": [2, 2]}, "communities"),
            ({"seeds": [3, 3]}, "seeds"),
        ],
        ids=["no-family", "unknown-train-key", "model-not-object",
             "axis-values-not-list", "cifar10-without-dir", "unknown-top-level-key",
             "float-n", "string-n", "string-width", "unknown-dataset-key",
             "float-community", "boolean-community", "string-seed", "boolean-seed",
             "string-use-bias", "integer-use-bias", "train-seed", "string-axis-value",
             "string-fixed-value", "unknown-fixed-key", "string-epochs", "float-epochs",
             "integer-lr-schedule", "float-classes", "string-dataset-seed",
             "integer-dataset-dir", "zero-community", "nan-axis-value",
             "infinite-fixed-value", "axis-not-taken", "fixed-not-taken",
             "required-not-set", "second-required-not-set", "one-node", "zero-rounds",
             "zero-width", "cifar10-normalize", "zero-train-split", "zero-test-split",
             "family-not-a-base", "repeated-p", "repeated-community", "repeated-seed"],
    )
    def test_bad_spec_exits_2_naming_the_key(self, capsys, tmp_path, change, key):
        spec_dict = {**SWEEP_SPEC, **change}
        spec_dict = {k: v for k, v in spec_dict.items() if v is not None}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_dict))
        code, stdout, err = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv")
        )
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and repr(key) in line

    @pytest.mark.parametrize("key, value, rule", RANGE_ERRORS,
                             ids=[key for key, _, _ in RANGE_ERRORS])
    def test_range_error_names_the_dotted_key(self, capsys, tmp_path, key, value, rule):
        section, field = key.split(".")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SWEEP_SPEC, section: {**SWEEP_SPEC[section], field: value}}))
        out = tmp_path / "o.csv"
        out.write_text("kept\n")
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: sweep spec {key!r} {rule}"]
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "change, line",
        [({"axis1": {"name": "gamma", "values": [2.5]}},
          "error: family 'er' does not take 'gamma'"),
         ({"family": "complete"},
          "error: sweep spec 'family' must be one of ('er', 'static_sf'), got 'complete'")],
        ids=["gamma-axis", "complete-family"],
    )
    def test_graph_rule_error_uses_the_spec_terms(self, capsys, tmp_path, change, line):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SWEEP_SPEC, **change}))
        out = tmp_path / "o.csv"
        out.write_text("kept\n")
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [line]
        assert out.read_text() == "kept\n"

    def test_spec_checked_once_per_launch(self, capsys, tmp_path, monkeypatch):
        calls = []
        check = relnet.sweep.SweepSpec.__post_init__

        def counting_check(spec):
            calls.append(spec)
            return check(spec)

        monkeypatch.setattr(relnet.sweep.SweepSpec, "__post_init__", counting_check)
        out = tmp_path / "o.csv"
        code, _, _ = run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)),
                         "--out", str(out))
        assert code == 0 and len(calls) == 1
        code, _, _ = run(capsys, "sweep", "--spec", str(self.write_spec(tmp_path)),
                         "--out", str(out), "--resume")
        assert code == 0 and len(calls) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_missing_dataset_exits_2_naming_the_file(self, capfd, tmp_path, workers):
        """A dataset that fails to load in the pool's workers ends the sweep
        as at --workers 1: one error line naming the file, no traceback
        (capfd also sees what the workers write)."""
        spec = tmp_path / "spec.json"
        missing = tmp_path / "no-cifar10"
        spec.write_text(json.dumps({**SWEEP_SPEC, "dataset": {"kind": "cifar10", "dir": str(missing)}}))
        code, stdout, err = run(
            capfd, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"),
            "--workers", workers,
        )
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(missing / "data_batch_1.bin") in line

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_failing_before_its_first_row_leaves_out_unchanged(
        self, capfd, tmp_path, workers
    ):
        out = tmp_path / "o.csv"
        run(capfd, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        before = out.read_bytes()
        spec = tmp_path / "missing-dataset.json"
        spec.write_text(json.dumps(
            {**SWEEP_SPEC, "dataset": {"kind": "cifar10", "dir": str(tmp_path / "none")}}
        ))
        code, _, err = run(
            capfd, "sweep", "--spec", str(spec), "--out", str(out), "--workers", workers
        )
        assert code == 2 and err.startswith("error: ")
        assert out.read_bytes() == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_empty_test_split_exits_2_and_leaves_out_unchanged(self, capfd, tmp_path, workers):
        out = tmp_path / "o.csv"
        run(capfd, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out))
        before = out.read_bytes()
        spec = tmp_path / "empty-test.json"
        spec.write_text(json.dumps(
            {**SWEEP_SPEC, "dataset": {**SWEEP_SPEC["dataset"], "test_n_per_class": 0}}
        ))
        code, stdout, err = run(
            capfd, "sweep", "--spec", str(spec), "--out", str(out), "--workers", workers
        )
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert line == "error: sweep spec 'dataset.test_n_per_class' must be >= 1, got 0"
        assert out.read_bytes() == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "change, key",
        [({"axis1": {"name": "p", "values": [0.5, 1.5]}}, "p"),
         ({"family": "static_sf", "axis1": {"name": "gamma", "values": [2.5]}, "fixed": {"m": 0}},
          "m")],
        ids=["p-above-1", "zero-m"],
    )
    def test_out_of_range_value_exits_2_before_any_row(
        self, capfd, tmp_path, change, key, workers
    ):
        """A value out of its range fails every cell of its grid point, so the
        sweep ends at launch, not with error rows."""
        out = tmp_path / "o.csv"
        out.write_text("earlier,output\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SWEEP_SPEC, **change}))
        code, stdout, err = run(
            capfd, "sweep", "--spec", str(spec), "--out", str(out), "--workers", workers
        )
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and repr(key) in line
        assert out.read_text() == "earlier,output\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2_and_leaves_out_unchanged(self, capsys, tmp_path, workers):
        out = tmp_path / "o.csv"
        out.write_text("earlier,output\n")
        code, stdout, err = run(
            capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out),
            "--workers", workers,
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: --workers must be >= 1, got {workers}"]
        assert out.read_text() == "earlier,output\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_finished_sweep_resumes_without_reading_its_dataset(self, capsys, tmp_path, workers):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "o.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        done = out.read_text()
        missing = {"kind": "cifar10", "dir": str(tmp_path / "no-such-dir")}
        spec.write_text(json.dumps(SWEEP_SPEC | {"dataset": missing}))
        code, stdout, err = run(
            capsys, "sweep", "--spec", str(spec), "--out", str(out), "--workers", workers,
            "--resume",
        )
        assert (code, stdout.splitlines(), err) == (
            0, ['{"ok": 0, "failed": 0, "skipped": 6}'], ""
        )
        assert out.read_text() == done

    def test_resume_into_a_missing_out_writes_a_fresh_csv(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out),
            "--resume",
        )
        assert (code, last_json(stdout)) == (0, {"ok": 6, "failed": 0, "skipped": 0})
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)
        assert len(read_records_csv(out)) == 6

    def test_fresh_sweep_replaces_out(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        out.write_text("not,a,records,csv\n")
        code, _, _ = run(
            capsys, "sweep", "--spec", str(self.write_spec(tmp_path)), "--out", str(out)
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)
        assert len(read_records_csv(out)) == 6

    def test_report_on_unparsable_value_exits_2_naming_its_place(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        lines = out.read_text().splitlines()
        row = lines[2].split(",")
        row[CSV_HEADER.index("communities")] = "x"
        lines[2] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = run(capsys, "report", "--csv", str(out), "--x", "p")
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {out}: line 3, column communities: ")
        assert "'x'" in err and "Traceback" not in err

    def test_spec_nested_too_deep_exits_2_and_leaves_out_unchanged(self, capsys, tmp_path):
        spec = tmp_path / "deep.json"
        spec.write_text("[" * 100_000)
        out = tmp_path / "o.csv"
        out.write_text("kept\n")
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {spec}: JSON nested too deep to read"]
        assert out.read_text() == "kept\n"

    def test_spec_that_is_not_json_exits_2_naming_the_file(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"family": "er",')
        out = tmp_path / "o.csv"
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            f"error: {spec}: not JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 17 (char 16)"
        ]

    BIG = "1" + "0" * 400  # a JSON integer out of float range

    @pytest.mark.parametrize("case", ["spec-key", "train-flag", "records-csv-cell", "stats-cache"])
    def test_integer_out_of_float_range_exits_2_naming_its_key(self, capsys, tmp_path, case):
        """A JSON integer read as a float, but too large for one, is refused
        under its key, flag, column or cache key, with no OverflowError."""
        spec = tmp_path / "spec.json"
        cache = tmp_path / STATS_FILENAME
        if case == "spec-key":
            spec.write_text(json.dumps(
                SWEEP_SPEC | {"train": SWEEP_SPEC["train"] | {"learning_rate": int(self.BIG)}}
            ))
            argv = ["sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]
            says = f"sweep spec 'train.learning_rate' must be a JSON number, got {self.BIG}"
        elif case == "train-flag":
            argv = [*TestTrain.TRAIN, "--learning-rate", self.BIG]
            says = f"--learning-rate must be a JSON number, got {self.BIG}"
        elif case == "records-csv-cell":
            out = self.edited_sweep_csv(capsys, tmp_path, "p", self.BIG)
            argv = ["report", "--csv", str(out), "--x", "p"]
            says = f"{out}: line 2, column p: must be a JSON number, got {self.BIG}"
        else:  # a pool sweep reads the cache in the sweep process, before any worker starts
            cache.write_text(f'{{"mean": [{self.BIG}, 0.5, 0.5], "std": [0.2, 0.2, 0.3]}}')
            spec.write_text(json.dumps(SWEEP_SPEC | {"dataset": {"kind": "cifar10",
                                                                 "dir": str(tmp_path)}}))
            argv = ["sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"),
                    "--workers", "2"]
            says = (f"{cache}: cache 'mean' must be a JSON number, got {self.BIG}; "
                    "delete it to have them recomputed")
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {says}"]

    def test_sweep_missing_spec_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep", "--spec", str(tmp_path / "no.json"),
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "error:" in err
