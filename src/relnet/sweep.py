"""Experiment sweeps: build graphs over a parameter grid, train over seeds,
and emit analysis-ready CSV.

A sweep spec (JSON) names a base family, up to two swept parameter axes, a
list of community counts, and the seed list; every cell of the Cartesian
product (axis1 x axis2 x communities x seeds) trains one model. Cell
failures become error rows, never aborts, so long sweeps stay resumable.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .datasets import (BlobsSpec, ChannelStats, Dataset, channel_stats, load_cifar10,
                       synthetic_blobs)
from .errors import FitError, FormatError, InvalidValue, RelnetError, WorkerLost, require_at_least
from .generators import BASE_FAMILIES, PARAMETERS, GeneratorSpec, generate_with_info
from .graphs import Graph, GraphMetrics, _openblas_function, compute_metrics
from .model import MlpModel, init_model
from .seeding import _GRAPH_STREAM, _MODEL_STREAM, _SHUFFLE_STREAM, child_seed
from .training import EvalResult, TrainConfig, train

# The generator parameters an axis or `fixed` can set; `communities` and `family` give the rest.
AXIS_NAMES = tuple(name for name in PARAMETERS if name not in ("communities", "base"))


@dataclass(frozen=True)
class Axis:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ModelSpec:
    width: int = 512
    rounds: int = 5
    use_bias: bool = True

    def __post_init__(self) -> None:
        """Raise InvalidValue naming the first field out of its range."""
        require_at_least(1, width=self.width, rounds=self.rounds)


@dataclass(frozen=True)
class Cifar10Spec:
    dir: str


DATASET_KINDS = {"blobs": BlobsSpec, "cifar10": Cifar10Spec}


def _repeated(values: tuple) -> list:
    """The entries of `values` equal to an earlier one, in order."""
    return [v for i, v in enumerate(values) if v in values[:i]]


@dataclass(frozen=True)
class SweepSpec:
    family: str
    axis1: Axis
    n: int = GeneratorSpec.n
    axis2: Axis | None = None
    communities: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    fixed: dict[str, float] = field(default_factory=dict)
    model: ModelSpec = ModelSpec()
    train: TrainConfig = TrainConfig()
    dataset: dict | None = None

    @property
    def axes(self) -> list[Axis]:
        return [self.axis1] + ([self.axis2] if self.axis2 else [])

    def __post_init__(self) -> None:
        """Check the sweep-level rules (each axis, `communities` and `seeds`
        a non-empty list without repeats), each grid point's `GeneratorSpec`
        (one per axis values and community count) and the dataset; an error
        names the spec's family, not the composed one, where it can. A graph
        that cannot be built is its cell's error row. Nested specs check
        themselves when made; `read_spec` names the dotted key."""
        for axis in self.axes:
            if axis.name not in AXIS_NAMES:
                raise ValueError(f"axis {axis.name!r} is not one of {AXIS_NAMES}")
            if not axis.values:
                raise ValueError(f"axis {axis.name!r} has no values")
            if repeated := _repeated(axis.values):
                raise ValueError(f"axis {axis.name!r} repeats {repeated[0]}")
            if axis.name in self.fixed:
                raise ValueError(f"{axis.name!r} both swept and fixed")
        if self.axis2 and self.axis2.name == self.axis1.name:
            raise ValueError("axis1 and axis2 sweep the same parameter")
        unknown = sorted(set(self.fixed) - set(AXIS_NAMES))
        if unknown:
            raise ValueError(f"fixed {unknown[0]!r} is not one of {AXIS_NAMES}")
        for name in ("communities", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"sweep spec {name!r} is empty")
            if repeated := _repeated(getattr(self, name)):
                raise ValueError(f"sweep spec {name!r} repeats {repeated[0]}")
        if self.family not in BASE_FAMILIES:
            raise ValueError(
                f"sweep spec 'family' must be one of {BASE_FAMILIES}, got {self.family!r}"
            )
        # Each grid point once, in whatever order the cells come.
        for cell in dict.fromkeys(replace(c, seed=self.seeds[0]) for c in sweep_cells(self)):
            try:
                _graph_spec(cell, self.n)
            except ValueError:  # name the spec's family if its blocks' own spec is at fault
                GeneratorSpec(self.family, self.n, p=cell.p, gamma=cell.gamma, m=cell.m)
                raise
        read_dataset_spec(self.dataset)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """Spec from its JSON form (see `read_spec`). Top-level keys starting
        with "_" are comments."""
        return read_spec(cls, d, comments=True)

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# Python type of a spec value: (the JSON values it accepts, their JSON name).
# A float takes a JSON integer; a boolean is never a number, and neither are
# NaN and +-Infinity, which json.load accepts but JSON does not have.
_JSON_OF_TYPE = {str: (str, "string"), int: (int, "integer"), float: ((int, float), "number"),
                 bool: (bool, "boolean"), tuple: (list, "list"), dict: (dict, "object")}


def _is_json(value, kind: type) -> bool:
    accepted, _ = _JSON_OF_TYPE[kind]
    return (
        isinstance(value, accepted)
        and (kind is bool or not isinstance(value, bool))
        and (kind is not float or math.isfinite(value))
    )


def read_spec(cls, d, name: str = "", *, comments: bool = False, source="sweep spec {!r}".format):
    """The dataclass `cls` from the JSON object `d`: each key is a field,
    read as the field's declared type (`_read_value`), and an absent key
    takes the field's default. A missing, unknown or mistyped key raises
    FormatError naming it as `source` of its dotted path (the flag, for
    `relnet train`); `name` is the object's path ("" at the top level).
    With `comments`, keys starting with "_" are skipped. An InvalidValue
    that `cls` raises on one of its fields when made is raised again,
    naming the field as `source` of its path."""
    where = source(name) if name else "sweep spec"
    if not isinstance(d, dict):
        raise FormatError(f"{where} must be a JSON object, got {d!r}")
    types = get_type_hints(cls)
    unknown = sorted(k for k in d.keys() - types.keys() if not (comments and k.startswith("_")))
    if unknown:
        raise FormatError(f"{where} has unknown key {unknown[0]!r}")
    prefix = f"{name}." if name else ""
    values = {}
    for f in fields(cls):
        if f.name in d:
            values[f.name] = _read_value(types[f.name], d[f.name], prefix + f.name, source)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{where} has no {f.name!r}")
    try:
        return cls(**values)
    except InvalidValue as exc:
        if exc.field not in types:  # a nested spec's, named by its own read
            raise
        raise InvalidValue(source(prefix + exc.field), exc.rule) from None


def _read_value(kind, value, name: str, source):
    """`value` read as the type `kind`: a dataclass (`read_spec`), `X | None`
    (JSON null or an X), `tuple[X, ...]` (a list of X), `dict[str, X]`, a
    bare `dict` (any object) or a scalar of `_JSON_OF_TYPE`."""
    args = get_args(kind)
    if isinstance(kind, UnionType):
        return None if value is None else _read_value(args[0], value, name, source)
    if is_dataclass(kind):
        return read_spec(kind, value, name, source=source)
    json_kind = get_origin(kind) or kind
    if not _is_json(value, json_kind):
        raise FormatError(
            f"{source(name)} must be a JSON {_JSON_OF_TYPE[json_kind][1]}, got {value!r}"
        )
    if json_kind is tuple:
        bad = [v for v in value if not _is_json(v, args[0])]
        if bad:
            raise FormatError(
                f"{source(name)} must hold JSON {_JSON_OF_TYPE[args[0]][1]}s, got {bad[0]!r}"
            )
        return tuple(map(args[0], value))
    if json_kind is dict:
        if not args:
            return value
        return {k: _read_value(args[1], v, f"{name}.{k}", source) for k, v in value.items()}
    return json_kind(value)


def read_dataset_spec(dspec: dict | None) -> BlobsSpec | Cifar10Spec:
    """The spec of a dataset dict's "kind" (default "blobs"; None is the
    default blobs), read by `read_spec`. Keys starting with "_" are comments."""
    rest = dict(dspec or {})
    kind = rest.pop("kind", "blobs")
    if not isinstance(kind, str) or kind not in DATASET_KINDS:
        raise ValueError(
            f"unknown dataset kind {kind!r}: 'dataset.kind' is one of {tuple(DATASET_KINDS)}"
        )
    return read_spec(DATASET_KINDS[kind], rest, "dataset", comments=True)


@dataclass(frozen=True)
class SweepCell:
    """One (grid cell, seed) pair of a sweep. Its fields, in order, are the
    first CSV columns and the resume key (`record_key`)."""

    family: str
    communities: int
    p: float | None
    gamma: float | None
    m: float | None
    mu: float | None
    width: int
    rounds: int
    seed: int


@dataclass(frozen=True)
class ExperimentRecord(SweepCell):
    """A sweep cell's training outcome. Its fields, in order, are the CSV
    columns; an error row sets only the cell's fields, status and wall_ms."""

    status: str
    nodes_realized: int | None = None
    bridges: int | None = None
    mean_degree: float | None = None
    clustering: float | None = None
    avg_path_len: float | None = None
    modularity: float | None = None
    cross_density: float | None = None
    top1_error: float | None = None
    wall_ms: float = 0.0


CSV_HEADER = [f.name for f in fields(ExperimentRecord)]
KEY_FIELDS = [f.name for f in fields(SweepCell)]  # identifies a (grid cell, seed) pair
GROUP_FIELDS = [name for name in KEY_FIELDS if name != "seed"]  # a grid cell across seeds
METRIC_FIELDS = [f.name for f in fields(GraphMetrics) if f.name in CSV_HEADER]
AGG_HEADER = GROUP_FIELDS + ["n_seeds", "n_failed", "top1_mean", "top1_std"] + METRIC_FIELDS
X_FIELDS = tuple(name for name in GROUP_FIELDS if name != "family")  # a report's numeric x


def build_dataset(
    dspec: dict | None, dtype=np.float32, stats: ChannelStats | None = None
) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from a dataset spec dict (`read_dataset_spec`):
    kind "blobs" (the default) or "cifar10", whose channel `stats` are passed
    to `load_cifar10`."""
    ds = read_dataset_spec(dspec)
    if isinstance(ds, Cifar10Spec):
        return load_cifar10(ds.dir, dtype, stats=stats)
    train_ds = synthetic_blobs(ds.n_per_class, ds.classes, ds.dim, ds.spread, ds.seed, dtype=dtype)
    test_ds = synthetic_blobs(
        ds.test_n_per_class, ds.classes, ds.dim, ds.spread, child_seed(ds.seed, 1), dtype=dtype
    )
    return train_ds, test_ds


def sweep_cells(spec: SweepSpec) -> list[SweepCell]:
    """The cells in grid order: axis1, then axis2, communities and seeds."""
    names = [axis.name for axis in spec.axes]
    grid = itertools.product(*(axis.values for axis in spec.axes), spec.communities, spec.seeds)
    return [
        SweepCell(
            family=spec.family,
            communities=k,
            **(dict.fromkeys(AXIS_NAMES) | spec.fixed | dict(zip(names, values))),
            width=spec.model.width,
            rounds=spec.model.rounds,
            seed=seed,
        )
        for *values, k, seed in grid
    ]


def graph_seed(seed: int) -> int:
    """The graph seed of the run seed `seed` (a sweep cell's, or `relnet train
    --family`'s): a child stream, like the model's and shuffle's (`run_one`)."""
    return child_seed(seed, _GRAPH_STREAM)


def _graph_spec(cell: SweepCell, n: int) -> GeneratorSpec:
    """The spec of a cell's graph: `cell.communities` blocks of its family
    on `n` nodes, joined at density mu (0 when unset), seeded from the cell."""
    params = {name: getattr(cell, name) for name in AXIS_NAMES} | {"mu": cell.mu or 0.0}
    return GeneratorSpec("community", n, communities=cell.communities, base=cell.family,
                         seed=graph_seed(cell.seed), **params)


def run_one(
    graph: Graph,
    seed: int,
    *,
    model: ModelSpec,
    config: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset,
    eval_every_epoch: bool,
) -> tuple[MlpModel, EvalResult, list[dict]]:
    """Train one model on `graph` for the run seed `seed`; returns (model,
    final EvalResult, per-epoch log).

    The shuffle and model seeds are child streams of `seed`, so `relnet
    train` with a sweep cell's parameters and seed, and its spec's settings
    as flags (one per spec field, named after it), reproduces that cell's
    row."""
    mlp = init_model(
        graph,
        width=model.width,
        rounds=model.rounds,
        in_dim=train_ds.dim,
        out_dim=train_ds.n_classes,
        seed=child_seed(seed, _MODEL_STREAM),
        dtype=config.dtype,
        use_bias=model.use_bias,
    )
    result, log = train(
        mlp, train_ds, test_ds, config,
        seed=child_seed(seed, _SHUFFLE_STREAM), eval_every_epoch=eval_every_epoch,
    )
    return mlp, result, log


def _execute_cell(
    cell: SweepCell, spec: SweepSpec, train_ds: Dataset, test_ds: Dataset
) -> ExperimentRecord:
    """Generate, measure and train the cell's graph with the sweep-wide
    settings of `spec`; an infeasible cell becomes an error row."""
    tic = time.perf_counter()
    try:
        graph, info = generate_with_info(_graph_spec(cell, spec.n))
        metrics = compute_metrics(graph)
        _, result, _ = run_one(graph, cell.seed, model=spec.model, config=spec.train,
                               train_ds=train_ds, test_ds=test_ds, eval_every_epoch=False)
        outcome = dict(
            status="ok",
            nodes_realized=graph.node_count,
            bridges=info.bridge_edges,
            **{name: getattr(metrics, name) for name in METRIC_FIELDS},
            top1_error=result.top1_error_percent,
        )
    except (RelnetError, ValueError) as exc:
        outcome = dict(status=f"error:{type(exc).__name__}")
    return ExperimentRecord(**asdict(cell), **outcome, wall_ms=(time.perf_counter() - tic) * 1000.0)


# The pool worker's (spec, train, test) arguments of `_execute_cell`, or the
# exception that loading the datasets raised.
_WORKER_ARGS: tuple[SweepSpec, Dataset, Dataset] | Exception | None = None


def _worker_init(spec: SweepSpec, workers: int, stats: ChannelStats | None) -> None:
    """Take the sweep-wide settings and load the worker's datasets, with the
    CIFAR-10 channel `stats` the sweep process resolved (None for blobs). Unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, give the worker's
    OpenBLAS an equal share of the usable CPUs, so the pool's BLAS threads do
    not outnumber the cores."""
    global _WORKER_ARGS
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        set_threads = _openblas_function("set_num_threads")
        if set_threads is not None:
            set_threads(max(1, len(os.sched_getaffinity(0)) // workers))
    try:
        _WORKER_ARGS = (spec, *build_dataset(spec.dataset, dtype=spec.train.dtype, stats=stats))
    except Exception as exc:  # raised by every cell, so the sweep ends as at --workers 1
        _WORKER_ARGS = exc


def _worker_run(cell: SweepCell) -> ExperimentRecord:
    if isinstance(_WORKER_ARGS, Exception):
        raise _WORKER_ARGS
    return _execute_cell(cell, *_WORKER_ARGS)


def record_key(cell: SweepCell) -> tuple[str, ...]:
    """Formatted (grid cell, seed) identity of a SweepCell, such as an
    ExperimentRecord: its SweepCell fields, stable across CSV round-trips."""
    return tuple(_fmt(getattr(cell, f)) for f in KEY_FIELDS)


def _records(spec: SweepSpec, cells: list[SweepCell], workers: int):
    """The records of `cells` in their order: computed in this process when
    `workers` or the number of cells is 1, else by a pool of one process per
    cell up to `workers`. Before the pool starts, this process resolves the
    CIFAR-10 channel statistics (`channel_stats`) and hands them to every
    worker, so a sweep computes them at most once, even on a read-only data
    directory. With no cell left, no dataset is read at any `workers`."""
    if not cells:
        return
    workers = min(workers, len(cells))
    if workers == 1:
        train_ds, test_ds = build_dataset(spec.dataset, dtype=spec.train.dtype)
        for cell in cells:
            yield _execute_cell(cell, spec, train_ds, test_ds)
        return
    dataset = read_dataset_spec(spec.dataset)
    stats = channel_stats(dataset.dir) if isinstance(dataset, Cifar10Spec) else None
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(spec, workers, stats)
    ) as pool:
        try:
            yield from pool.map(_worker_run, cells)
        except BaseException:  # GeneratorExit included: the caller stopped reading
            # The block's exit waits for the cells still running, which can
            # take hours; stop the workers first. Python below 3.14 has no
            # public call for this.
            for process in list(pool._processes.values()):
                process.terminate()
            raise


def run_sweep(
    spec: SweepSpec, workers: int = 1, finished=(), progress=None
) -> list[ExperimentRecord]:
    """Execute every cell of `sweep_cells(spec)` whose `record_key` is not a
    `finished` record's (the prior rows, for resumption); returns their
    records in grid order, the same at any `workers`.

    `progress`, when given, is called with each finished record; an error
    it raises stops the pool's workers, running cells and all. A pool
    worker that dies (killed by a signal, say) raises WorkerLost naming the
    first cell not delivered; every record delivered before it has been
    passed to `progress`. `workers` below 1 raises ValueError.
    """
    require_at_least(1, workers=workers)
    done = {record_key(record) for record in finished}
    cells = [cell for cell in sweep_cells(spec) if record_key(cell) not in done]
    records: list[ExperimentRecord] = []
    try:
        for record in _records(spec, cells, workers):
            records.append(record)
            if progress:
                progress(record)
    except BrokenProcessPool as exc:
        cell = " ".join(
            f"{name}={value}"
            for name, value in zip(KEY_FIELDS, record_key(cells[len(records)]))
            if value
        )
        raise WorkerLost(
            f"a sweep worker died; cell {cell} and the cells after it "
            "were not delivered (--resume re-runs them)"
        ) from exc
    return records


# ---------------------------------------------------------------------------
# Aggregation and reporting


@np.errstate(over="ignore", invalid="ignore")
def aggregate(records: list[ExperimentRecord]) -> list[dict]:
    """Per-cell rows grouped over seeds, stably sorted by the group fields.

    Error rows are excluded from means and counted in n_failed; top1_std is
    the sample standard deviation (0.0 for a single seed). A mean or spread
    out of float range is inf, without a warning; a fit of it fails.
    """
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for rec in records:
        key = tuple(getattr(rec, f) for f in GROUP_FIELDS)
        groups.setdefault(key, []).append(rec)

    def sort_key(key):
        return tuple((v is None, v) for v in key)

    rows = []
    for key in sorted(groups, key=sort_key):
        recs = groups[key]
        ok = [r for r in recs if r.status == "ok"]
        row = dict(zip(GROUP_FIELDS, key))
        row["n_seeds"] = len(ok)
        row["n_failed"] = len(recs) - len(ok)
        errors = [r.top1_error for r in ok]
        row["top1_mean"] = float(np.mean(errors)) if errors else None
        if len(errors) > 1:
            row["top1_std"] = float(np.std(errors, ddof=1))
        else:
            row["top1_std"] = 0.0 if errors else None
        for metric in METRIC_FIELDS:
            values = [getattr(r, metric) for r in ok if getattr(r, metric) is not None]
            row[metric] = float(np.mean(values)) if values else None
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CorrelationReport:
    """(x, mean top-1 error) pairs plus their least-squares quadratic fit
    y = a x^2 + b x + c.

    `r_squared` is the share of the means' variance the fit explains (None
    when all means are equal); `residual_dof` is the number of points less
    the three coefficients, so 0 means the curve passes through every point
    whatever the data. `standard_errors` are the coefficients' (from
    `least_squares`' covariance), None when `residual_dof` is 0."""

    x_field: str
    points: tuple[tuple[float, float], ...]
    coefficients: tuple[float, float, float]
    r_squared: float | None
    residual_dof: int
    standard_errors: tuple[float, float, float] | None


def least_squares(design: np.ndarray, y: np.ndarray, what: str):
    """Fit `y` on the k columns of `design` as `np.polyfit` does, with its
    numbers: unit-norm columns, one `np.linalg.lstsq` at rcond n*eps, and the
    covariance from its residual sum. Returns `CorrelationReport`'s (coefficients,
    r_squared, residual_dof, standard_errors). A column norm of 0 or out of float
    range (LAPACK would get NaNs), a rank below k or a result that is not finite
    raises FitError on `what`, and no warning is printed."""
    n, k = design.shape
    with np.errstate(all="ignore"):
        scale = np.sqrt((design * design).sum(axis=0))
        if not np.all(np.isfinite(scale) & (scale > 0)):
            raise FitError(f"{what} has rank below {k}: a column has norm 0 or out of float range")
        lhs = design / scale
        solution, resids, rank, _ = np.linalg.lstsq(lhs, y, rcond=n * np.finfo(float).eps)
        if rank < k:
            raise FitError(f"{what} has rank {rank}, not {k}")
        coefficients = solution / scale
        residuals = y - design @ coefficients
        spread = float(np.sum((y - y.mean()) ** 2))
        dof, errors = n - k, ()
        if dof:  # lstsq gives no residual sum at dof 0
            cov = np.linalg.inv(np.dot(lhs.T, lhs)) / np.outer(scale, scale) * (resids / dof)
            errors = tuple(map(float, np.sqrt(np.diag(cov))))
        r_squared = 1.0 - float(residuals @ residuals) / spread if spread else None
    coefficients = tuple(map(float, coefficients))
    if not all(map(math.isfinite, (*coefficients, *errors, r_squared or 0.0))):
        raise FitError(f"{what} has a result that is not finite")
    return coefficients, r_squared, dof, errors or None


def correlation_report(
    records: list[ExperimentRecord], x_field: str = "mu"
) -> CorrelationReport:
    """Fit each grid cell's seed-averaged error against its `x_field` value
    (one of X_FIELDS, else InvalidValue) by `least_squares` on the columns
    (x^2, x, 1); fewer than 3 distinct x values raise FitError."""
    if x_field not in X_FIELDS:
        raise InvalidValue("x_field", f"must be one of {X_FIELDS}, got {x_field!r}")
    points = [
        (float(row[x_field]), float(row["top1_mean"]))
        for row in aggregate(records)
        if row[x_field] is not None and row["top1_mean"] is not None
    ]
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    distinct = len(set(xs.tolist()))
    if distinct < 3:
        raise FitError(f"quadratic fit needs >= 3 distinct {x_field} values, got {distinct}")
    with np.errstate(all="ignore"):  # an x^2 out of float range fails the fit
        design = np.vander(xs, 3)
    fit = least_squares(design, ys, f"quadratic fit of top1_mean against {x_field}")
    return CorrelationReport(x_field, tuple(points), *fit)


# ---------------------------------------------------------------------------
# CSV


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _column_parser(kind, default):
    """Parser of one CSV column, from its field's type `kind` (str, int,
    float or `X | None`) and `default`: an empty value reads as None for an
    `X | None` field and as the default for a field that has one; any other
    empty or malformed number, or a float that is not finite, raises
    ValueError."""
    if isinstance(kind, UnionType):
        kind, default = get_args(kind)[0], None

    def parse(text: str):
        if not text and default is not MISSING:
            return default
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{text!r} is not a finite number")
        return value

    return parse


_COLUMN_PARSERS = [
    _column_parser(get_type_hints(ExperimentRecord)[f.name], f.default)
    for f in fields(ExperimentRecord)
]


def write_records_csv(records: list[ExperimentRecord], path, append: bool = False) -> None:
    mode = "a" if append else "w"
    write_header = not append or not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        if write_header:
            writer.writeheader()
        for rec in records:
            writer.writerow({name: _fmt(getattr(rec, name)) for name in CSV_HEADER})


def read_records_csv(path) -> list[ExperimentRecord]:
    """Records of a CSV written by write_records_csv. A wrong header, a row
    whose field count differs from the header's, or a last line without its
    newline (a row cut mid-write) raises FormatError naming the line, and
    a value that does not parse as its column's type names the column too."""
    records = []
    with open(path, newline="") as fh:
        text = fh.read()
        cut_line = text.count("\n") + 1 if text and not text.endswith("\n") else None
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, CSV_HEADER)  # an empty file has no rows
        if header != CSV_HEADER:
            raise FormatError(f"{path}: line 1 is not the records CSV header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise FormatError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"not {len(CSV_HEADER)}"
                )
            values = {}
            for name, parse, text in zip(CSV_HEADER, _COLUMN_PARSERS, row):
                try:
                    values[name] = parse(text)
                except ValueError as exc:
                    raise FormatError(
                        f"{path}: line {reader.line_num}, column {name}: {exc}"
                    ) from exc
            records.append(ExperimentRecord(**values))
    if cut_line is not None:
        raise FormatError(f"{path}: line {cut_line} ends without a newline (cut mid-write)")
    return records


def cut_partial_row(path) -> None:
    """Cut a last line that lacks its newline (a row cut mid-write) back to
    the previous newline, so that cell re-runs and the next append starts on
    a fresh line."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def write_aggregate_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGG_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in AGG_HEADER})
