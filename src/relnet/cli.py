"""Command-line entry points.

Subcommands:
  gen      generate a graph and write it as an edge list
  metrics  print structural metrics for an edge-list file
  import   load a connectome edge list (optionally sample / ER-match)
  train    train a single model on one graph
  sweep    run a parameter sweep from a JSON spec into a CSV
  report   aggregate a sweep CSV and fit error against one parameter
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

from .connectome import import_connectome, matched_er, sample_subgraph
from .errors import InvalidValue, RelnetError
from .generators import GeneratorSpec, generate_with_info
from .graphs import compute_metrics, read_edge_list, write_edge_list
from .model import save_checkpoint, unit_owners
from .reading import _read_value, field_types, read_spec, text_value
from .sweep import (
    DATASET_KINDS,
    X_FIELDS,
    ModelSpec,
    SweepSpec,
    aggregate,
    build_dataset,
    correlation_report,
    cut_partial_row,
    graph_seed,
    read_records_csv,
    run_one,
    run_sweep,
    sweep_cells,
    write_aggregate_csv,
    write_records_csv,
)
from .training import TrainConfig

# The flag prefix of each dataset kind's spec fields in `relnet train`.
_DATASET_PREFIX = {"blobs": "blob_", "cifar10": "data_"}


def _flag(prefix: str, name: str) -> str:
    """The flag of the spec field `name`: `--` + `prefix` + `name`, `_` as `-`."""
    return "--" + (prefix + name).replace("_", "-")


def _add_spec_flags(parser, cls, prefix: str = "", skip=()) -> None:
    """One flag per field of the dataclass `cls` but `skip` (`_flag`), which
    takes text; a bool field is `--x/--no-x`. A flag not given is None:
    `read_spec` holds the field's type, default and whether it is required."""
    types = field_types(cls)
    for f in fields(cls):
        if f.name not in skip:
            action = argparse.BooleanOptionalAction if types[f.name] is bool else "store"
            parser.add_argument(_flag(prefix, f.name), action=action)


def _flag_values(args, cls, prefix: str = "", skip=()) -> dict:
    """The JSON object of `cls` that its given flags (`_add_spec_flags`) but
    `skip` set, for `read_spec` to read: each field name with its flag's
    text read as a spec value (`text_value`), or its bool."""
    types = field_types(cls)
    given = {f.name: getattr(args, prefix + f.name) for f in fields(cls) if f.name not in skip}
    return {name: value if types[name] is bool else text_value(value, types[name])
            for name, value in given.items() if value is not None}


def _int_flag(args, name: str) -> int | None:
    """The integer flag `name` that is no spec field, read as a spec flag is
    (`text_value`); None when not given. Errors name the flag."""
    text = getattr(args, name)
    flag = functools.partial(_flag, "")
    return None if text is None else _read_value(int, text_value(text, int), name, flag)


def _read_flags(args, cls, prefix: str = "", **values):
    """The `cls` that its flags and `values` set (`read_spec`); errors name the flag."""
    source = functools.partial(_flag, prefix)
    return read_spec(cls, _flag_values(args, cls, prefix, values) | values, source=source)


def _metrics_dict(graph) -> dict:
    return asdict(compute_metrics(graph)) | {"nodes": graph.node_count, "edges": len(graph.edges)}


def _cmd_gen(args) -> int:
    graph, info = generate_with_info(_read_flags(args, GeneratorSpec))
    summary = _metrics_dict(graph)
    write_edge_list(graph, args.out)
    summary["bridges"] = info.bridge_edges
    summary["community_sizes"] = list(info.community_sizes)
    print(json.dumps(summary))
    return 0


def _cmd_metrics(args) -> int:
    print(json.dumps(_metrics_dict(read_edge_list(args.edges))))
    return 0


def _cmd_import(args) -> int:
    sample, seed = _int_flag(args, "sample"), _int_flag(args, "seed")
    graph = import_connectome(args.edges, declared_nodes=_int_flag(args, "expect_nodes"))
    if sample is not None:
        graph = sample_subgraph(graph, sample, seed)
    if args.matched_er:
        graph = matched_er(graph, seed)
    summary = _metrics_dict(graph)
    write_edge_list(graph, args.out)
    print(json.dumps(summary))
    return 0


def _cmd_train(args) -> int:
    if (args.edges is None) == (args.family is None):
        raise ValueError("train needs exactly one of --edges or --family")
    # Flags that fail need not wait for the dataset to load.
    seed = _int_flag(args, "seed")
    config = _read_flags(args, TrainConfig)
    model_spec = _read_flags(args, ModelSpec)
    dataset = _read_flags(args, DATASET_KINDS[args.dataset], _DATASET_PREFIX[args.dataset])
    if args.edges is not None:
        graph = read_edge_list(args.edges)
    else:
        graph = generate_with_info(_read_flags(args, GeneratorSpec, seed=graph_seed(seed)))[0]
    unit_owners(graph.node_count, model_spec.width)  # a graph too wide fails before the load
    train_ds, test_ds = build_dataset({"kind": args.dataset} | asdict(dataset), dtype=config.dtype)

    tic = time.perf_counter()
    model, result, log = run_one(graph, seed, model=model_spec, config=config,
                                 train_ds=train_ds, test_ds=test_ds,
                                 eval_every_epoch=args.log is not None)
    wall_ms = (time.perf_counter() - tic) * 1000.0

    if args.log is not None:
        with open(args.log, "w") as fh:
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    if args.ckpt_out is not None:
        save_checkpoint(model, args.ckpt_out)
    summary = {"top1_error": result.top1_error_percent, "loss": result.loss,
               "n_examples": result.n_examples, "nodes": graph.node_count,
               "edges": len(graph.edges), "wall_ms": wall_ms}
    print(json.dumps(summary))
    return 0


def _cmd_sweep(args) -> int:
    workers = _int_flag(args, "workers")
    spec = SweepSpec.from_json(args.spec)
    finished = []
    if args.resume:
        cut_partial_row(args.out)
        finished = read_records_csv(args.out) if os.path.exists(args.out) else []
    # Without --resume the first row rewrites --out with a fresh header, so a
    # sweep that fails before its first row leaves --out as it was.
    append = args.resume

    def progress(record):
        nonlocal append
        write_records_csv([record], args.out, append=append)
        append = True

    records = run_sweep(spec, workers=workers, finished=finished, progress=progress)
    ok = sum(record.status == "ok" for record in records)
    skipped = len(sweep_cells(spec)) - len(records)
    print(json.dumps({"ok": ok, "failed": len(records) - ok, "skipped": skipped}))
    return 0


def _cmd_report(args) -> int:
    records = read_records_csv(args.csv)
    rows = aggregate(records)
    # A bad --x writes no aggregate; a fit that fails (FitError) comes after it.
    if args.aggregate_out is not None and args.x in X_FIELDS:
        write_aggregate_csv(rows, args.aggregate_out)
    report = correlation_report(records, x_field=args.x)
    print(json.dumps(asdict(report) | {"cells": len(rows)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No flag is abbreviated: `--lr` is not taken for `--lr-schedule`.
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_abbrev(prog="relnet")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    p_gen = sub.add_parser("gen", help="generate a graph edge list")
    _add_spec_flags(p_gen, GeneratorSpec)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_metrics = sub.add_parser("metrics", help="print metrics for an edge list")
    p_metrics.add_argument("--edges", required=True)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_import = sub.add_parser("import", help="import a connectome edge list")
    p_import.add_argument("--edges", required=True)
    p_import.add_argument("--expect-nodes")
    p_import.add_argument("--sample")
    p_import.add_argument("--seed", default="0")
    p_import.add_argument("--matched-er", action="store_true")
    p_import.add_argument("--out", required=True)
    p_import.set_defaults(func=_cmd_import)

    p_train = sub.add_parser("train", help="train one model on one graph")
    p_train.add_argument("--edges", default=None)
    # --seed is the run seed.
    _add_spec_flags(p_train, GeneratorSpec, skip=("seed",))
    for cls in (ModelSpec, TrainConfig):
        _add_spec_flags(p_train, cls)
    p_train.add_argument("--dataset", choices=tuple(DATASET_KINDS), default="blobs")
    for kind, prefix in _DATASET_PREFIX.items():
        _add_spec_flags(p_train, DATASET_KINDS[kind], prefix)
    p_train.add_argument("--seed", default="0")
    p_train.add_argument("--log", default=None, help="JSONL per-epoch log path")
    p_train.add_argument("--ckpt-out", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec into a CSV")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", default="1")
    p_sweep.add_argument("--resume", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate a sweep CSV")
    p_report.add_argument("--csv", required=True)
    p_report.add_argument("--x", default="mu", help=f"the column to fit against: {X_FIELDS}")
    p_report.add_argument("--aggregate-out", default=None)
    p_report.set_defaults(func=_cmd_report)

    return parser


# The flag of each library argument that a command passes on unchecked: an
# InvalidValue on the argument is reported under its flag.
_FLAG_OF_ARGUMENT = {"workers": "--workers", "x_field": "--x"}
# The flags naming a file a command reads or writes, checked before it runs.
_INPUT_FLAGS = ("spec", "csv", "edges")
_OUTPUT_FLAGS = ("out", "log", "ckpt_out", "aggregate_out")


def _same_file(a: str, b: str) -> bool:
    both = os.path.exists(a) and os.path.exists(b)
    return os.path.samefile(a, b) if both else os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args) -> None:
    """Raise ValueError naming the first output flag whose file cannot be
    written: its path is a directory, its directory does not exist, or it
    names the file of an input flag or of an earlier output flag."""
    given = [(_flag("", name), getattr(args, name, None)) for name in _INPUT_FLAGS]
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if path is None:
            continue
        flag, parent = _flag("", name), os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path!r}: no directory {parent!r}")
        for other, other_path in given:
            if other_path is not None and _same_file(path, other_path):
                raise ValueError(f"{flag} {path!r} names the same file as {other}")
        given.append((flag, path))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (RelnetError, ValueError, OSError, MemoryError) as exc:
        if isinstance(exc, InvalidValue):
            exc = InvalidValue(_FLAG_OF_ARGUMENT.get(exc.field, exc.field), exc.rule)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
