import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import relnet.graphs
import relnet.sweep
import relnet.training
from relnet.errors import FitError, FormatError, InvalidValue, NumericError
from relnet.generators import generate_with_info
from relnet.graphs import one_blas_thread
from relnet.sweep import (
    AGG_HEADER,
    CSV_HEADER,
    DATASET_KINDS,
    Axis,
    ExperimentRecord,
    ModelSpec,
    SweepCell,
    SweepSpec,
    _graph_spec,
    aggregate,
    build_dataset,
    correlation_report,
    least_squares,
    read_records_csv,
    run_sweep,
    sweep_cells,
    write_aggregate_csv,
    write_records_csv,
)
from relnet.training import TrainConfig

TINY_TRAIN = TrainConfig(epochs=1, batch_size=64, learning_rate=0.05)
TINY_DATASET = {
    "kind": "blobs",
    "classes": 3,
    "dim": 6,
    "n_per_class": 20,
    "test_n_per_class": 10,
}


def tiny_spec(**overrides):
    fields = dict(
        family="er",
        n=8,
        axis1=Axis("p", (0.4, 0.8)),
        axis2=Axis("mu", (0.0, 0.5)),
        communities=(2,),
        seeds=(0, 1),
        fixed={},
        model=ModelSpec(width=16, rounds=1),
        train=TINY_TRAIN,
        dataset=TINY_DATASET,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def cell_of(record: ExperimentRecord) -> SweepCell:
    """The typed (grid cell, seed) pair of a record."""
    return SweepCell(**{f.name: getattr(record, f.name) for f in fields(SweepCell)})


def make_record(**overrides):
    fields = dict(
        family="er",
        communities=1,
        p=0.5,
        gamma=None,
        m=None,
        mu=0.0,
        width=16,
        rounds=1,
        seed=0,
        status="ok",
        nodes_realized=8,
        bridges=0,
        mean_degree=3.5,
        clustering=0.4,
        avg_path_len=1.6,
        modularity=0.0,
        cross_density=0.0,
        top1_error=30.0,
        wall_ms=12.5,
    )
    fields.update(overrides)
    return ExperimentRecord(**fields)


class TestSweepSpec:
    def test_valid(self):
        tiny_spec()

    def test_bad_family(self):
        with pytest.raises(
            ValueError, match=r"^sweep spec 'family' must be one of \('er', 'static_sf'\), "
        ):
            tiny_spec(family="complete")

    def test_bad_axis_name(self):
        with pytest.raises(ValueError, match="axis 'q'"):
            tiny_spec(axis1=Axis("q", (1.0,)))

    @pytest.mark.parametrize(
        "overrides, name",
        [
            (dict(axis1=Axis("gamma", (2.5,))), "axis 'gamma'"),
            (dict(axis2=Axis("m", (3.0,))), "axis 'm'"),
            (dict(fixed={"gamma": 2.5}), "fixed 'gamma'"),
            (dict(family="static_sf", fixed={"gamma": 2.5, "m": 3.0}), "axis 'p'"),
            (dict(family="static_sf", axis1=Axis("gamma", (2.5,)), fixed={"p": 0.5}),
             "fixed 'p'"),
        ],
    )
    def test_parameter_not_taken_by_family(self, overrides, name):
        with pytest.raises(ValueError, match=f"does not take {name.split()[-1]}"):
            tiny_spec(**overrides)

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="has no values"):
            tiny_spec(axis1=Axis("p", ()))

    def test_swept_and_fixed_conflict(self):
        with pytest.raises(ValueError, match="both swept and fixed"):
            tiny_spec(fixed={"p": 0.5})

    def test_duplicate_axes(self):
        with pytest.raises(ValueError, match="same parameter"):
            tiny_spec(axis2=Axis("p", (0.1,)))

    def test_empty_communities(self):
        with pytest.raises(ValueError, match="communities"):
            tiny_spec(communities=())

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            tiny_spec(seeds=())

    @pytest.mark.parametrize(
        "overrides, message",
        [(dict(axis1=Axis("p", (0.5, 0.5))), "axis 'p' repeats 0.5"),
         (dict(axis2=Axis("mu", (0.0, 0.5, 0.0))), "axis 'mu' repeats 0.0"),
         (dict(communities=(2, 1, 2)), "sweep spec 'communities' repeats 2"),
         (dict(seeds=(3, 3)), "sweep spec 'seeds' repeats 3")],
        ids=["axis1", "axis2", "communities", "seeds"],
    )
    def test_repeated_tick(self, overrides, message):
        """A repeated value would train the same run twice and count it as two seeds."""
        with pytest.raises(ValueError) as info:
            tiny_spec(**overrides)
        assert str(info.value) == message

    def test_every_grid_point_checked_in_any_cell_order(self, monkeypatch):
        """The generator check reaches p=1.5 also when seeds vary slowest."""
        cells = relnet.sweep.sweep_cells
        monkeypatch.setattr(
            relnet.sweep, "sweep_cells",
            lambda spec: sorted(cells(spec), key=lambda cell: spec.seeds.index(cell.seed)),
        )
        with pytest.raises(ValueError, match="1.5"):
            SweepSpec("er", Axis("p", (0.5, 1.5)), seeds=(0, 1))

    def test_train_config_validated(self):
        with pytest.raises(ValueError, match="epochs"):
            tiny_spec(train=TrainConfig(epochs=0))

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: tiny_spec(model=ModelSpec(width=0, rounds=1)), "width must be >= 1, got 0"),
         (lambda: tiny_spec(dataset={"kind": "blobs", "test_n_per_class": 0}),
          "sweep spec 'dataset.test_n_per_class' must be >= 1, got 0")],
        ids=["model", "dataset"],
    )
    def test_nested_spec_validated(self, build, message):
        with pytest.raises(InvalidValue) as info:
            build()
        assert str(info.value) == message

    def test_from_dict_defaults(self):
        spec = SweepSpec.from_dict(
            {"family": "er", "axis1": {"name": "p", "values": [0.2, 0.4]}}
        )
        assert spec.n == 128
        assert spec.axis2 is None
        assert spec.communities == (1,)
        assert spec.seeds == (0, 1, 2, 3, 4)
        assert spec.model.width == 512 and spec.model.rounds == 5
        assert spec.train == TrainConfig()

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(FormatError, match="'comunities'"):
            SweepSpec.from_dict(
                {"family": "er", "axis1": {"name": "p", "values": [0.2]}, "comunities": [4]}
            )

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(FormatError, match="must be a JSON object"):
            SweepSpec.from_dict([1, 2])

    def test_from_dict_passes_comment_keys(self):
        spec = SweepSpec.from_dict(
            {"_note": "why", "family": "er", "axis1": {"name": "p", "values": [0.2]}}
        )
        assert spec.communities == (1,)

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"n": 12.7}, "n"),
            ({"n": "abc"}, "n"),
            ({"n": True}, "n"),
            ({"model": {"width": "16"}}, "model.width"),
            ({"model": {"rounds": 1.0}}, "model.rounds"),
            ({"model": {"rounds": False}}, "model.rounds"),
        ],
    )
    def test_integer_keys_must_be_json_integers(self, change, key):
        d = {"family": "er", "axis1": {"name": "p", "values": [0.2]}, **change}
        with pytest.raises(FormatError, match=f"'{key}' must be a JSON integer"):
            SweepSpec.from_dict(d)

    @pytest.mark.parametrize(
        "path",
        sorted(Path(__file__).parent.parent.glob("sweeps/*.json"))
        + sorted(Path(__file__).parent.parent.glob("perfbench/specs/*.json")),
        ids=lambda path: f"{path.parent.name}/{path.name}",
    )
    def test_shipped_specs_load(self, path):
        spec = SweepSpec.from_json(path)
        kind = spec.dataset["kind"]
        assert set(spec.dataset) <= {"kind", *(f.name for f in fields(DATASET_KINDS[kind]))}

    def test_baseline_is_the_complete_graph_at_the_diagram_settings(self):
        sweeps = Path(__file__).parents[1] / "sweeps"
        baseline = SweepSpec.from_json(sweeps / "baseline.json")
        diagram = SweepSpec.from_json(sweeps / "er_p_mu.json")
        cells = sweep_cells(baseline)
        assert [cell.seed for cell in cells] == [0, 1, 2, 3, 4]
        assert len({replace(cell, seed=0) for cell in cells}) == 1
        for cell in cells:
            graph, _ = generate_with_info(_graph_spec(cell, baseline.n))
            assert (graph.node_count, len(graph.edges)) == (128, 8128)
        for name in ("n", "model", "train", "dataset"):
            assert getattr(baseline, name) == getattr(diagram, name), name

    @pytest.mark.parametrize("pilot, diagram", [("pilot_er", "er_p_mu"),
                                                 ("pilot_sf", "sf_gamma_mu")])
    def test_pilot_cells_are_cells_of_its_diagram_at_its_settings(self, pilot, diagram):
        sweeps = Path(__file__).parents[1] / "sweeps"
        pilot = SweepSpec.from_json(sweeps / f"{pilot}.json")
        diagram = SweepSpec.from_json(sweeps / f"{diagram}.json")
        for name in ("family", "n", "seeds", "model", "train", "dataset"):
            assert getattr(pilot, name) == getattr(diagram, name), name
        cells = sweep_cells(pilot)
        assert len(cells) == 20
        assert set(cells) <= set(sweep_cells(diagram))

    def test_from_json_round_trip(self, tmp_path):
        payload = {
            "family": "static_sf",
            "n": 64,
            "axis1": {"name": "gamma", "values": [2.2, 3.0]},
            "axis2": {"name": "mu", "values": [0.1]},
            "fixed": {"m": 3},
            "communities": [1, 2],
            "seeds": [7],
            "model": {"width": 32, "rounds": 2},
            "train": {"epochs": 2, "batch_size": 16},
            "dataset": {"kind": "blobs", "classes": 4, "dim": 8},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = SweepSpec.from_json(path)
        assert spec.family == "static_sf"
        assert spec.axis1 == Axis("gamma", (2.2, 3.0))
        assert spec.fixed == {"m": 3}
        assert spec.model.width == 32
        assert spec.train.epochs == 2


class TestRunSweep:
    def test_record_count_and_grid_order(self):
        spec = tiny_spec()
        records = run_sweep(spec)
        assert len(records) == 2 * 2 * 1 * 2
        observed = [(r.p, r.mu, r.communities, r.seed) for r in records]
        expected = [
            (p, mu, k, s)
            for p, mu, k, s in itertools.product(
                (0.4, 0.8), (0.0, 0.5), (2,), (0, 1)
            )
        ]
        assert observed == expected
        assert all(r.status == "ok" for r in records)
        assert all(r.top1_error is not None for r in records)
        assert all(r.family == "er" and r.width == 16 for r in records)
        assert len({cell_of(r) for r in records}) == len(records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_cell_left_builds_no_dataset(self, monkeypatch, workers):
        spec = tiny_spec()
        calls = []
        monkeypatch.setattr(relnet.sweep, "build_dataset", lambda *args, **kw: calls.append(args))
        done = [ExperimentRecord(**asdict(cell), status="ok") for cell in sweep_cells(spec)]
        assert run_sweep(spec, workers=workers, finished=done) == []
        assert calls == []

    def test_metrics_populated(self):
        records = run_sweep(tiny_spec(seeds=(0,)))
        for r in records:
            assert r.nodes_realized is not None and r.nodes_realized <= 8
            assert r.bridges is not None
            assert r.mean_degree is not None
            assert r.wall_ms > 0

    def test_deterministic_up_to_wall_ms(self):
        spec = tiny_spec()
        a = [replace(r, wall_ms=0.0) for r in run_sweep(spec)]
        b = [replace(r, wall_ms=0.0) for r in run_sweep(spec)]
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_infeasible_cells_become_error_rows(self, workers):
        spec = tiny_spec(
            family="static_sf",
            n=12,
            axis1=Axis("gamma", (2.5,)),
            axis2=Axis("mu", (0.0,)),
            fixed={"m": 6},
            communities=(2,),
            seeds=(0, 1),
        )
        records = run_sweep(spec, workers=workers)
        assert len(records) == 2
        assert all(r.status == "error:ValueError" for r in records)
        assert all(r.top1_error is None for r in records)
        assert all(r.nodes_realized is None for r in records)

    def test_cell_level_infeasibility_stays_an_error_row(self):
        # 5 communities leave blocks below 2 nodes; 8 nodes overfill width 4.
        records = run_sweep(tiny_spec(axis2=None, communities=(1, 5), seeds=(0,)))
        assert [r.status for r in records] == ["ok", "error:TooManyCommunities"] * 2
        narrow = tiny_spec(axis1=Axis("p", (1.0,)), axis2=None, communities=(1,), seeds=(0,),
                           model=ModelSpec(width=4, rounds=1))
        assert [r.status for r in run_sweep(narrow)] == ["error:TooManyNodes"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_rows_do_not_abort_mixed_sweeps(self, workers):
        spec = tiny_spec(
            family="static_sf",
            n=12,
            axis1=Axis("m", (2, 6)),
            axis2=Axis("gamma", (2.5,)),
            fixed={},
            communities=(2,),
            seeds=(0,),
        )
        records = run_sweep(spec, workers=workers)
        statuses = [r.status for r in records]
        assert statuses == ["ok", "error:ValueError"]

    def test_skip_keys_resume(self):
        spec = tiny_spec()
        records = run_sweep(spec)
        rest = run_sweep(spec, finished=records[:5])
        assert len(rest) == len(records) - 5
        assert [cell_of(r) for r in rest] == [cell_of(r) for r in records[5:]]

    def test_integer_ticks_resume_from_their_csv(self, tmp_path):
        # A hand-built spec's integer p and mu are written as "1" and "0"
        # and read back as 1.0 and 0.0: the same cells, so none runs again.
        spec = tiny_spec(axis1=Axis("p", (1,)), axis2=None, fixed={"mu": 0})
        path = tmp_path / "out.csv"
        write_records_csv(run_sweep(spec), path)
        assert path.read_text().splitlines()[1].startswith("er,2,1,,,0,16,1,0,ok,")
        finished = read_records_csv(path)
        assert [(r.p, r.mu) for r in finished] == [(1.0, 0.0)] * 2
        assert run_sweep(spec, finished=finished) == []

    def test_skip_all_yields_nothing(self):
        spec = tiny_spec(seeds=(0,))
        records = run_sweep(spec)
        again = run_sweep(spec, finished=records)
        assert again == []

    def test_progress_callback_sees_every_record(self):
        seen = []
        records = run_sweep(tiny_spec(seeds=(0,)), progress=seen.append)
        assert seen == records

    def test_workers_match_inline(self):
        spec = tiny_spec(axis2=None, seeds=(0, 1))
        inline = [replace(r, wall_ms=0.0) for r in run_sweep(spec, workers=1)]
        pooled = [replace(r, wall_ms=0.0) for r in run_sweep(spec, workers=2)]
        assert inline == pooled

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the counting initializer reaches the workers only by fork",
    )
    def test_pool_starts_one_worker_per_cell_left(self, monkeypatch, tmp_path):
        """Each worker loads the datasets and takes its share of the BLAS
        threads, so 2 cells at workers=3 start 2 workers sharing the CPUs by 2,
        and 1 cell runs in this process."""
        worker_init = relnet.sweep._worker_init

        def counting_init(spec, workers, stats):
            (tmp_path / str(os.getpid())).write_text(str(workers))
            worker_init(spec, workers, stats)

        monkeypatch.setattr(relnet.sweep, "_worker_init", counting_init)
        spec = tiny_spec(axis2=None, seeds=(0,))
        pooled = [replace(r, wall_ms=0.0) for r in run_sweep(spec, workers=3)]
        assert sorted(path.read_text() for path in tmp_path.iterdir()) == ["2", "2"]
        inline = run_sweep(spec, workers=1)
        assert pooled == [replace(r, wall_ms=0.0) for r in inline]
        assert run_sweep(spec, workers=3, finished=inline[:1])[0].status == "ok"
        assert len(list(tmp_path.iterdir())) == 2

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the recording initializer reaches the workers only by fork",
    )
    def test_pool_stops_when_the_sweep_stops(self, monkeypatch, tmp_path):
        """A `progress` that raises on the first record ends the sweep
        without waiting for the cells still running: every cell but the
        first is held until `release` appears (or 20 s pass), yet none of
        them finishes, and every worker is gone once the error is out."""
        pids, release = tmp_path / "pids", tmp_path / "release"
        pids.mkdir()
        worker_init, execute_cell = relnet.sweep._worker_init, relnet.sweep._execute_cell

        def recording_init(spec, workers, stats):
            (pids / str(os.getpid())).touch()
            worker_init(spec, workers, stats)

        def held_after_first_cell(cell, *args):
            if (cell.p, cell.seed) != (0.4, 0):
                deadline = time.monotonic() + 20
                while not release.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                (tmp_path / f"finished.{cell.p}.{cell.seed}").touch()
            return execute_cell(cell, *args)

        def failing_progress(record):
            raise OSError("no space left")

        monkeypatch.setattr(relnet.sweep, "_worker_init", recording_init)
        monkeypatch.setattr(relnet.sweep, "_execute_cell", held_after_first_cell)
        try:
            with pytest.raises(OSError, match="no space left"):
                run_sweep(tiny_spec(axis2=None), workers=2, progress=failing_progress)
            assert list(tmp_path.glob("finished.*")) == []
        finally:
            release.touch()
        workers = [int(path.name) for path in pids.iterdir()]
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_single_community_repeats_over_mu(self):
        """With one community no cross pair exists, so mu changes nothing:
        a communities=[1] sweep over two mu values trains the same run twice
        and writes records equal apart from mu and wall_ms."""
        spec = tiny_spec(axis1=Axis("p", (0.6,)), axis2=Axis("mu", (0.1, 0.5)), communities=(1,))
        records = run_sweep(spec)
        assert len(records) == 4 and all(r.status == "ok" for r in records)
        low = [replace(r, mu=None, wall_ms=0.0) for r in records if r.mu == 0.1]
        high = [replace(r, mu=None, wall_ms=0.0) for r in records if r.mu == 0.5]
        assert low == high

    def test_cell_evaluates_once(self, monkeypatch):
        """A sweep reads only the final result, so a 3-epoch cell evaluates
        the test set once; its record equals the one from evaluating after
        every epoch, apart from wall_ms."""
        spec = tiny_spec(
            axis1=Axis("p", (0.6,)), axis2=None, seeds=(3,),
            train=replace(TINY_TRAIN, epochs=3),
        )
        evaluations = []
        evaluate, train = relnet.training.evaluate, relnet.sweep.train

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        def train_every_epoch(*args, **kwargs):
            return train(*args, **{**kwargs, "eval_every_epoch": True})

        monkeypatch.setattr(relnet.training, "evaluate", counting_evaluate)
        (once,) = run_sweep(spec)
        assert len(evaluations) == 1
        monkeypatch.setattr(relnet.sweep, "train", train_every_epoch)
        (every,) = run_sweep(spec)
        assert len(evaluations) == 1 + 3
        assert once.status == "ok"
        assert replace(once, wall_ms=0.0) == replace(every, wall_ms=0.0)


def _blas_threads_once_both_arrive(arrivals: str) -> int:
    """This pool worker's OpenBLAS thread count, reported after both workers
    of the pool have arrived, so each worker answers once."""
    Path(arrivals, str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(os.listdir(arrivals)) < 2:
        if time.monotonic() > deadline:
            raise TimeoutError("the second pool worker never arrived")
        time.sleep(0.01)
    return relnet.graphs._openblas_function("get_num_threads")()


@pytest.mark.skipif(
    relnet.graphs._openblas_function("get_num_threads") is None,
    reason="no OpenBLAS loaded",
)
class TestPoolBlasThreads:
    def pool_counts(self, tmp_path):
        with ProcessPoolExecutor(
            max_workers=2,
            initializer=relnet.sweep._worker_init,
            initargs=(tiny_spec(), 2, None),
        ) as pool:
            counts = list(pool.map(_blas_threads_once_both_arrive, [str(tmp_path)] * 2))
        assert len(os.listdir(tmp_path)) == 2  # two workers answered
        return counts

    def test_workers_share_the_usable_cpus(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        expected = max(1, len(os.sched_getaffinity(0)) // 2)
        assert self.pool_counts(tmp_path) == [expected, expected]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_set_variable_is_left_to_openblas(self, tmp_path, monkeypatch, variable):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        parent = relnet.graphs._openblas_function("get_num_threads")()
        monkeypatch.setenv(variable, str(parent))
        assert self.pool_counts(tmp_path) == [parent, parent]


class TestGraphWorkOnOneBlasThread:
    def run_cell(self, spec):
        train_ds, test_ds = build_dataset(spec.dataset)
        return relnet.sweep._execute_cell(sweep_cells(spec)[0], spec, train_ds, test_ds)

    def test_generation_and_metrics_on_one_thread_training_on_the_previous_count(
        self, fake_blas
    ):
        fake_blas.watch_products()
        fake_blas.watch(relnet.sweep, "run_one")
        assert self.run_cell(tiny_spec()).status == "ok"
        assert fake_blas.products_on_one_thread()
        assert fake_blas.seen[-1] == ("run_one", 3)
        assert fake_blas.threads == 3

    def test_count_restored_when_generation_fails(self, fake_blas):
        record = self.run_cell(tiny_spec(n=4, communities=(3,)))
        assert record.status == "error:TooManyCommunities"
        assert fake_blas.threads == 3

    def test_nothing_to_do_without_openblas(self, monkeypatch):
        monkeypatch.setattr(relnet.graphs, "_openblas_function", lambda name: None)
        with one_blas_thread():
            pass

    def test_functions_looked_up_once_per_process(self):
        assert relnet.graphs._openblas_function("set_num_threads") is (
            relnet.graphs._openblas_function("set_num_threads")
        )


class TestAggregate:
    def test_identical_seeds_zero_std(self):
        rows = aggregate([make_record(seed=s, top1_error=30.0) for s in range(5)])
        assert len(rows) == 1
        assert rows[0]["n_seeds"] == 5
        assert rows[0]["n_failed"] == 0
        assert rows[0]["top1_mean"] == 30.0
        assert rows[0]["top1_std"] == 0.0

    def test_two_seed_std(self):
        rows = aggregate(
            [
                make_record(seed=0, top1_error=30.0),
                make_record(seed=1, top1_error=32.0),
            ]
        )
        assert rows[0]["top1_mean"] == 31.0
        assert math.isclose(rows[0]["top1_std"], math.sqrt(2), rel_tol=1e-12)

    def test_single_seed_std_zero(self):
        rows = aggregate([make_record()])
        assert rows[0]["top1_std"] == 0.0

    def test_failed_rows_counted_not_averaged(self):
        rows = aggregate(
            [
                make_record(seed=0, top1_error=20.0),
                make_record(
                    seed=1,
                    status="error:ValueError",
                    top1_error=None,
                    nodes_realized=None,
                    mean_degree=None,
                    clustering=None,
                    avg_path_len=None,
                    modularity=None,
                    cross_density=None,
                    bridges=None,
                ),
            ]
        )
        assert rows[0]["n_seeds"] == 1
        assert rows[0]["n_failed"] == 1
        assert rows[0]["top1_mean"] == 20.0

    def test_all_failed_cell(self):
        rows = aggregate(
            [make_record(status="error:EdgeSaturation", top1_error=None)]
        )
        assert rows[0]["n_seeds"] == 0
        assert rows[0]["top1_mean"] is None
        assert rows[0]["top1_std"] is None

    def test_input_order_invariance(self):
        records = [
            make_record(p=p, seed=s, top1_error=10.0 * s + p)
            for p in (0.2, 0.8, 0.5)
            for s in (0, 1)
        ]
        rows_a = aggregate(records)
        rows_b = aggregate(list(reversed(records)))
        assert rows_a == rows_b

    def test_sorted_by_group_fields(self):
        records = [make_record(p=p) for p in (0.8, 0.2, 0.5)]
        rows = aggregate(records)
        assert [row["p"] for row in rows] == [0.2, 0.5, 0.8]

    def test_none_valued_params_sort_last(self):
        records = [make_record(p=None, gamma=2.5), make_record(p=0.1)]
        rows = aggregate(records)
        assert rows[0]["p"] == 0.1
        assert rows[1]["p"] is None

    def test_metric_means(self):
        rows = aggregate(
            [
                make_record(seed=0, clustering=0.2),
                make_record(seed=1, clustering=0.4),
            ]
        )
        assert math.isclose(rows[0]["clustering"], 0.3, rel_tol=1e-12)


class TestCorrelationReport:
    def test_recovers_parabola(self):
        records = [
            make_record(mu=x, top1_error=float(x) ** 2, seed=0) for x in (0.0, 0.5, 1.0, 2.0)
        ]
        report = correlation_report(records, x_field="mu")
        a, b, c = report.coefficients
        assert abs(a - 1.0) <= 1e-9
        assert abs(b) <= 1e-9
        assert abs(c) <= 1e-9
        assert report.x_field == "mu"
        assert report.points == ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0))

    def test_constant_data(self):
        records = [make_record(p=x, top1_error=7.0) for x in (0.1, 0.2, 0.3)]
        a, b, c = correlation_report(records, x_field="p").coefficients
        assert abs(a) <= 1e-9 and abs(b) <= 1e-9
        assert abs(c - 7.0) <= 1e-9

    def test_seed_averaging_feeds_fit(self):
        records = [
            make_record(mu=x, seed=s, top1_error=float(x) ** 2 + d)
            for x in (0.0, 1.0, 2.0)
            for s, d in ((0, -1.0), (1, 1.0))
        ]
        report = correlation_report(records, x_field="mu")
        assert abs(report.coefficients[0] - 1.0) <= 1e-9

    @pytest.mark.parametrize("x_field", ["family", "seed", "foo", "top1_error"])
    def test_x_field_not_a_grid_parameter(self, x_field):
        records = [make_record(mu=x, top1_error=1.0) for x in (0.1, 0.2, 0.4)]
        with pytest.raises(InvalidValue) as info:
            correlation_report(records, x_field=x_field)
        assert info.value.field == "x_field"
        assert info.value.rule == (
            "must be one of ('communities', 'p', 'gamma', 'm', 'mu', 'width', 'rounds'), "
            f"got {x_field!r}"
        )

    def test_too_few_distinct_x(self):
        records = [make_record(mu=x, top1_error=1.0) for x in (0.1, 0.1, 0.4)]
        with pytest.raises(FitError, match="needs >= 3 distinct"):
            correlation_report(records, x_field="mu")

    def test_exact_fit_through_three_points(self):
        points = ((0.0, 5.0), (1.0, 2.0), (2.0, 9.0))
        records = [make_record(mu=x, top1_error=y) for x, y in points]
        report = correlation_report(records, x_field="mu")
        assert report.residual_dof == 0
        assert math.isclose(report.r_squared, 1.0, rel_tol=1e-12)

    def test_r_squared_of_a_noisy_parabola(self):
        xs, noise = (0.0, 1.0, 2.0, 3.0, 4.0), (0.5, -1.0, 0.0, 1.0, -0.5)
        ys = [x * x + d for x, d in zip(xs, noise)]
        report = correlation_report(
            [make_record(mu=x, top1_error=y) for x, y in zip(xs, ys)], x_field="mu"
        )
        fitted = [report.coefficients[0] * x * x + report.coefficients[1] * x
                  + report.coefficients[2] for x in xs]
        mean = sum(ys) / len(ys)
        expected = 1 - (sum((y - f) ** 2 for y, f in zip(ys, fitted))
                        / sum((y - mean) ** 2 for y in ys))
        assert report.residual_dof == 2
        assert 0.9 < report.r_squared < 1.0
        assert math.isclose(report.r_squared, expected, rel_tol=1e-9)

    def test_equal_means_have_no_r_squared(self):
        records = [make_record(p=x, top1_error=7.0) for x in (0.1, 0.2, 0.3, 0.4)]
        report = correlation_report(records, x_field="p")
        assert report.r_squared is None and report.residual_dof == 1

    def test_exact_parabola_has_zero_standard_errors(self):
        records = [make_record(mu=x, top1_error=x * x) for x in (0.0, 0.5, 1.0, 2.0, 3.0)]
        report = correlation_report(records, x_field="mu")
        assert report.residual_dof == 2
        assert report.standard_errors == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_standard_errors_of_a_noisy_parabola(self):
        """x = -1, 0, 1 in two cells each, y = x^2 +- 1: the fit is x^2, the
        residual variance 6 / 3 = 2, and (V^T V)^-1 = [[.75, 0, -.5],
        [0, .25, 0], [-.5, 0, .5]], so the errors are sqrt(2 * diag)."""
        records = [make_record(mu=x, p=p, top1_error=x * x + d)
                   for x in (-1.0, 0.0, 1.0) for p, d in ((0.1, 1.0), (0.2, -1.0))]
        report = correlation_report(records, x_field="mu")
        assert report.coefficients == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert report.residual_dof == 3
        assert report.standard_errors == pytest.approx((1.5**0.5, 0.5**0.5, 1.0), rel=1e-12)

    def test_no_standard_errors_without_residual_dof(self):
        points = ((0.0, 5.0), (1.0, 2.0), (2.0, 9.0))
        report = correlation_report([make_record(mu=x, top1_error=y) for x, y in points], "mu")
        assert report.residual_dof == 0 and report.standard_errors is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-200, 1e154])
    def test_x_squared_out_of_float_range_is_rank_deficient(self, capfd, scale):
        """Rejected before LAPACK, which would print DLASCL errors."""
        records = [make_record(p=x * scale, top1_error=float(x)) for x in (1, 2, 3)]
        with pytest.raises(FitError, match="rank"):
            correlation_report(records, x_field="p")
        assert capfd.readouterr() == ("", "")

    def test_tiny_x_ends_without_hanging(self):
        """x near 1e-100 has a finite, nonzero x^2 whose column norm underflows
        to 0; handed to LAPACK, that spun at full CPU without end. A child
        process with a timeout turns a regression into a failure."""
        code = (
            "from relnet.sweep import correlation_report\n"
            "from relnet.errors import FitError\n"
            "from test_sweep import make_record\n"
            "records = [make_record(p=x * 1e-100, top1_error=float(x)) for x in (1, 2, 3)]\n"
            "try:\n"
            "    correlation_report(records, x_field='p')\n"
            "except FitError as exc:\n"
            "    print('FitError', exc)\n"
        )
        paths = [Path(relnet.sweep.__file__).parents[1], Path(__file__).parent]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(map(str, paths))}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("FitError quadratic fit of top1_mean against p")

    def test_nearly_equal_x_is_rank_deficient(self):
        records = [make_record(p=1e10 + x, top1_error=float(x * x)) for x in (0, 1, 2)]
        with pytest.raises(FitError, match="rank 2, not 3"):
            correlation_report(records, x_field="p")


class TestLeastSquares:
    def test_quadratic_matches_polyfit_bit_for_bit(self):
        """Seeded random sets of 3-40 points with repeated x, spread over
        1e-3..1e3: the coefficients are `np.polyfit`'s and the standard errors
        the roots of its covariance's diagonal, to the last bit."""
        rng = np.random.default_rng(27)
        for _ in range(1000):
            n = int(rng.integers(3, 41))
            distinct = 10.0 ** rng.uniform(-3, 3, size=int(rng.integers(3, n + 1)))
            x = rng.permutation(np.concatenate([distinct, rng.choice(distinct, n - len(distinct))]))
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            coefficients, _, dof, errors = least_squares(np.vander(x, 3), y, "fit")
            assert coefficients == tuple(np.polyfit(x, y, 2))
            assert dof == n - 3
            if dof:
                cov = np.polyfit(x, y, 2, cov=True)[1]
                assert errors == tuple(np.sqrt(np.diag(cov)))
            else:
                assert errors is None

    def test_recovers_two_structural_slopes(self):
        """y = a * modularity + b * mean_degree + c + noise on the design
        (modularity, mean_degree, 1): a and b within two standard errors."""
        rng = np.random.default_rng(5)
        modularity, mean_degree = rng.uniform(0.2, 0.7, 60), rng.uniform(3.0, 12.0, 60)
        a, b, c = -4.0, 0.3, 20.0
        y = a * modularity + b * mean_degree + c + rng.normal(0.0, 0.5, 60)
        design = np.column_stack([modularity, mean_degree, np.ones(60)])
        (fit_a, fit_b, _), r_squared, dof, errors = least_squares(design, y, "fit")
        assert dof == 57 and 0.0 < r_squared < 1.0
        assert abs(fit_a - a) < 2 * errors[0]
        assert abs(fit_b - b) < 2 * errors[1]

    def test_proportional_columns_are_rank_deficient(self):
        m = np.array([0.1, 0.4, 0.2, 0.7, 0.5])
        design = np.column_stack([m, 2.5 * m, np.ones(5)])
        with pytest.raises(FitError, match="^fit has rank 2, not 3$"):
            least_squares(design, np.array([1.0, 2.0, 1.5, 3.0, 2.0]), "fit")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_result_not_finite_is_an_error(self, bad):
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        y = np.array([1.0, bad, 2.0, 1.0, -bad])
        with pytest.raises(FitError, match="^fit has a result that is not finite$"):
            least_squares(np.vander(x, 3), y, "fit")


class TestCsv:
    def sample_records(self):
        return [
            make_record(seed=0),
            make_record(seed=1, top1_error=28.75),
            make_record(
                seed=2,
                status="error:ValueError",
                top1_error=None,
                nodes_realized=None,
                bridges=None,
                mean_degree=None,
                clustering=None,
                avg_path_len=None,
                modularity=None,
                cross_density=None,
            ),
            make_record(p=None, gamma=2.5, m=3.0, family="static_sf", seed=0),
        ]

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_header_order(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(self.sample_records(), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        write_records_csv([replace(records[1], clustering=1 / 3), records[2]], path)
        assert path.read_bytes() == (
            b"family,communities,p,gamma,m,mu,width,rounds,seed,status,"
            b"nodes_realized,bridges,mean_degree,clustering,avg_path_len,"
            b"modularity,cross_density,top1_error,wall_ms\r\n"
            b"er,1,0.5,,,0.0,16,1,1,ok,8,0,3.5,0.3333333333333333,1.6,0.0,0.0,"
            b"28.75,12.5\r\n"
            b"er,1,0.5,,,0.0,16,1,2,error:ValueError,,,,,,,,,12.5\r\n"
        )

    def test_empty_fields(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([make_record(wall_ms=0.0)], path)
        line = path.read_text().splitlines()[1]
        path.write_text(f"{','.join(CSV_HEADER)}\n{line.replace(',0.0', ',')}\n")
        (record,) = read_records_csv(path)
        assert (record.mu, record.modularity, record.wall_ms) == (None, None, 0.0)
        assert record.mean_degree == 3.5
        path.write_text(f"{','.join(CSV_HEADER)}\n{line.replace('er,1,', 'er,,')}\n")
        with pytest.raises(FormatError, match=r"records.csv: line 2, column communities: "):
            read_records_csv(path)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        write_records_csv(records, path)
        path.write_text(path.read_text().replace("\n", "\n\n", 3))
        assert read_records_csv(path) == records

    @pytest.mark.parametrize("column, text", [
        ("communities", "1_000"), ("communities", "+3"), ("p", "+0.5"), ("p", "3."),
        ("p", "true"), ("seed", "2.0"), pytest.param("p", "[" * 100_000, id="p-deep-list"),
    ])
    def test_cells_are_json_scalars(self, tmp_path, column, text):
        """A cell is read as the JSON scalar the writer wrote. Any other
        text is refused, even where Python's int() or float() takes it, and
        so is JSON nested too deep for the json module."""
        path = tmp_path / "records.csv"
        write_records_csv([make_record()], path)
        header, line = path.read_text().splitlines()
        row = line.split(",")
        row[CSV_HEADER.index(column)] = text
        path.write_text(f"{header}\n{','.join(row)}\n")
        with pytest.raises(FormatError, match=rf"records.csv: line 2, column {column}: must be "):
            read_records_csv(path)

    @pytest.mark.parametrize("column, text, says", [
        ("top1_error", "", "column top1_error: must not be empty on an ok row"),
        ("status", "done", "column status: must be ok or error:<Name>, got 'done'"),
        ("status", "", "column status: must be ok or error:<Name>, got ''"),
        ("status", "error:", "column status: must be ok or error:<Name>, got 'error:'"),
        ("status", "error:Value Error",
         "column status: must be ok or error:<Name>, got 'error:Value Error'"),
        ("status", "OK", "column status: must be ok or error:<Name>, got 'OK'"),
    ], ids=["ok-without-top1_error", "done", "empty", "error-without-name",
            "error-name-not-a-word", "upper-case-ok"])
    def test_status_and_result_are_checked(self, tmp_path, column, text, says):
        """A row's status is ok or error:<exception name>, and an ok row has
        its result: a report would average it, a resume skip its cell."""
        path = tmp_path / "records.csv"
        write_records_csv([make_record()], path)
        header, line = path.read_text().splitlines()
        row = line.split(",")
        row[CSV_HEADER.index(column)] = text
        path.write_text(f"{header}\n{','.join(row)}\n")
        with pytest.raises(FormatError) as info:
            read_records_csv(path)
        assert str(info.value) == f"{path}: line 2, {says}"

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        write_records_csv(records[:2], path)
        write_records_csv(records[2:], path, append=True)
        lines = path.read_text().splitlines()
        assert lines.count(",".join(CSV_HEADER)) == 1
        assert read_records_csv(path) == records

    def test_append_to_fresh_file_writes_header(self, tmp_path):
        path = tmp_path / "new.csv"
        write_records_csv(self.sample_records(), path, append=True)
        assert read_records_csv(path) == self.sample_records()

    def test_aggregate_csv(self, tmp_path):
        path = tmp_path / "agg.csv"
        rows = aggregate(self.sample_records())
        write_aggregate_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(AGG_HEADER)
        assert len(lines) == 1 + len(rows)

    @pytest.mark.parametrize("column, value", [
        ("top1_mean", math.inf), ("top1_std", -math.inf), ("clustering", math.nan)
    ])
    def test_aggregate_csv_refuses_a_number_not_finite(self, tmp_path, column, value):
        path = tmp_path / "agg.csv"
        rows = aggregate(self.sample_records())
        rows[-1][column] = value
        with pytest.raises(NumericError, match=(
            rf"^aggregate cell family=static_sf communities=1 gamma=2.5 m=3.0 mu=0.0 width=16 "
            rf"rounds=1, column {column}: {value!r} is not a finite number$"
        )):
            write_aggregate_csv(rows, path)
        assert not path.exists()


class TestBuildDataset:
    def test_blobs_defaults(self):
        train, test = build_dataset(None)
        assert train.features.shape == (5000, 48)
        assert test.features.shape == (1000, 48)
        assert train.n_classes == 10
        assert train.features.dtype == np.float32

    def test_blobs_custom(self):
        train, test = build_dataset(TINY_DATASET, dtype=np.float64)
        assert train.features.shape == (60, 6)
        assert test.features.shape == (30, 6)
        assert train.features.dtype == np.float64

    def test_train_test_disjoint_draws(self):
        train, test = build_dataset(TINY_DATASET)
        assert not np.array_equal(train.features[:30], test.features)

    @pytest.mark.parametrize(
        "dspec, key",
        [
            ({**TINY_DATASET, "clases": 3}, "clases"),
            ({"kind": "cifar10", "dir": "x", "normalise": "standard"}, "normalise"),
            ({"kind": "cifar10", "dir": "x", "classes": 10}, "classes"),
        ],
    )
    def test_unknown_key_per_kind(self, dspec, key):
        with pytest.raises(FormatError, match=f"unknown key '{key}'"):
            build_dataset(dspec)

    def test_comment_key_passes(self):
        train, _ = build_dataset({**TINY_DATASET, "_note": "tiny"})
        assert train.features.shape == (60, 6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            build_dataset({"kind": "mnist"})
