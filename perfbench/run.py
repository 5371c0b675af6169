"""relnet benchmark: sweep workloads through the public `run_sweep` path.

    python3 perfbench/run.py --workload full_cell --seed 1 --seconds 40 --trace 0

Run from the root of a relnet checkout; the package is imported from its
`src/` directory. Inputs (sweep spec, synthetic data) are generated from
`--seed` into `.bench_work/` and removed afterwards. The run repeats the
workload's sweep as often as fits in `--seconds` (at least once), checks
every result, and prints as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`;
with `--trace 1`, one more sweep runs with spans around the sweep's calls
into each module, and the per-layer metrics are printed instead. The line
before it holds the environment, the result digest and other context.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"

NPROC = len(os.sched_getaffinity(0))

# The demo spec's 30 epochs take ~28 s per sweep at two workers; 5 epochs
# keep all 72 cells, with every cell's graph generation, metrics and model
# set-up, and fit several sweeps into one run.
DESK_EPOCHS = 5
FULL_EPOCHS = 1
CHANCE_ERROR = 90.0
SWEEP_TIMEOUT_S = 120  # a full-scale sweep takes ~20 s; a run must end within 180 s

# Pool workloads run every process with one OpenBLAS thread. With the
# default (one thread per core in every worker) two workers' BLAS threads
# contend and cells flip between ~0.2 s and ~1.3 s: six identical desk
# sweeps took 11-38 s, too unsteady to compare two commits.
POOL_BLAS_THREADS = "1"

# BENCHMARK.json holds the two full-scale workloads to its bounds; desk_pool is
# run by hand, because its timings spread too widely on the reference box
# (see README.md).
WORKLOADS = {
    # name: (spec copied from sweeps/, worker count, cells per sweep or None for the grid)
    "full_cell": ("er_p_mu.json", 1, 1),
    "full_pool": ("er_p_mu.json", NPROC, NPROC),
    "desk_pool": ("blobs_demo.json", NPROC, None),
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_relnet():
    """Import relnet from this checkout's src/, never from anywhere else."""
    if not (SRC / "relnet" / "__init__.py").is_file():
        fail(f"no relnet sources under {SRC}; run from a relnet checkout")
    sys.path.insert(0, str(SRC))
    import relnet

    if Path(relnet.__file__).resolve().parent != SRC / "relnet":
        fail(f"imported relnet from {relnet.__file__}, not from {SRC}")
    return relnet


# ---------------------------------------------------------------------------
# Inputs


def make_spec(workload: str, seed: int, work: Path) -> tuple[dict, int]:
    """The sweep spec for one workload and seed, and its train-set size."""
    name, _, cells = WORKLOADS[workload]
    spec = json.loads((SPECS / name).read_text())
    rng = random.Random(seed)
    base_seed = rng.randrange(1_000_000)
    if spec["dataset"]["kind"] == "cifar10":
        import cifar_synth

        spec["axis1"]["values"] = [rng.choice(spec["axis1"]["values"])]
        spec["axis2"]["values"] = [rng.choice(spec["axis2"]["values"])]
        spec["communities"] = [rng.choice(spec["communities"])]
        spec["seeds"] = [base_seed + i for i in range(cells)]
        spec["train"]["epochs"] = FULL_EPOCHS
        data_dir = cifar_synth.write_cifar10(work / "cifar10", seed)
        spec["dataset"]["dir"] = str(data_dir)
        n_train = cifar_synth.TRAIN_FILES * cifar_synth.RECORDS_PER_FILE
    else:
        spec["seeds"] = [base_seed + i for i in range(len(spec["seeds"]))]
        spec["dataset"]["seed"] = rng.randrange(1 << 31)
        spec["train"]["epochs"] = DESK_EPOCHS
        data = spec["dataset"]
        n_train = data["n_per_class"] * data["classes"]
    return spec, n_train


# ---------------------------------------------------------------------------
# One sweep


@dataclass
class Sweep:
    records: list
    csv_path: Path
    wall_s: float
    setup_s: float
    deliveries: list
    csv_write_ms: list


def run_one_sweep(relnet, spec_path: Path, workers: int, csv_path: Path,
                  trace_dir: Path | None = None) -> Sweep:
    """Run the spec in a fresh process (see sweep_child.py) and read back its
    records and timings."""
    result_path = csv_path.with_suffix(".json")
    request = {
        "spec": str(spec_path),
        "workers": workers,
        "csv": str(csv_path),
        "result": str(result_path),
        "trace_dir": str(trace_dir) if trace_dir else None,
    }
    # A session of its own, so a timeout can stop the pool workers too.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "sweep_child.py"), json.dumps(request)],
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise RuntimeError(f"sweep process exited with code {code}")
    timings = json.loads(result_path.read_text())
    return Sweep(
        relnet.sweep.read_records_csv(csv_path),
        csv_path,
        timings["wall_s"],
        timings["setup_s"],
        timings["deliveries"],
        timings["csv_write_ms"],
    )


def samples_per_s(sweep: Sweep, epochs: int, n_train: int) -> float:
    return len(sweep.records) * epochs * n_train / (sweep.wall_s - sweep.setup_s)


# ---------------------------------------------------------------------------
# Output checks


def csv_rows(path: Path) -> list[tuple]:
    """CSV rows without the timing column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


def digest(rows: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def bad_records(records, full_scale: bool) -> int:
    bad = 0
    for rec in records:
        err = rec.top1_error
        if (
            rec.status != "ok"
            or err is None
            or not math.isfinite(err)
            or (full_scale and err >= CHANCE_ERROR)
        ):
            bad += 1
    return bad


def differing_rows(reference: list[tuple], rows: list[tuple]) -> int:
    if len(rows) != len(reference):
        return max(len(rows), len(reference)) - 1
    return sum(a != b for a, b in zip(reference[1:], rows[1:]))


def single_worker_row(relnet, spec: dict, work: Path) -> list[tuple]:
    """The grid's first cell rerun at one worker, as CSV rows."""
    first = json.loads(json.dumps(spec))
    first["axis1"]["values"] = first["axis1"]["values"][:1]
    if first.get("axis2"):
        first["axis2"]["values"] = first["axis2"]["values"][:1]
    first["communities"] = first["communities"][:1]
    first["seeds"] = first["seeds"][:1]
    path = work / "first_cell.json"
    path.write_text(json.dumps(first))
    sweep = run_one_sweep(relnet, path, 1, work / "first_cell.csv")
    return csv_rows(sweep.csv_path)


# ---------------------------------------------------------------------------
# Context


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = {}
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    sources = hashlib.sha256()
    for path in sorted((SRC / "relnet").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": NPROC,
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "git_revision": git_revision(),
        "source_sha256": sources.hexdigest()[:16],
    }


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# Main


def measure(relnet, args, work: Path) -> tuple[dict, dict, int, int]:
    """Metrics, context notes, cells attempted and cells failed."""
    # Imported here: numpy must load after main() sets the BLAS thread count.
    import numpy as np

    import layers
    import pss
    from tracing import read_spans

    spec, n_train = make_spec(args.workload, args.seed, work)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    _, workers, _ = WORKLOADS[args.workload]
    full_scale = spec["dataset"]["kind"] == "cifar10"
    epochs = spec["train"]["epochs"]
    if full_scale:
        # The first load computes and caches the channel statistics, a cost
        # paid once per dataset, not per sweep.
        relnet.sweep.build_dataset(spec["dataset"])

    sweeps, peak_pss = [], []
    started = time.perf_counter()
    while True:
        csv_path = work / f"sweep-{len(sweeps)}.csv"
        with pss.PssSampler() as sampler:
            sweeps.append(run_one_sweep(relnet, spec_path, workers, csv_path))
        peak_pss.append(sampler.peak_mb)
        print(f"sweep {len(sweeps)}: {sweeps[-1].wall_s:.2f} s", file=sys.stderr)
        # Stop when one more sweep of the same length would overrun.
        if time.perf_counter() - started + sweeps[-1].wall_s > args.seconds:
            break

    reference = csv_rows(sweeps[0].csv_path)
    attempted = sum(len(s.records) for s in sweeps)
    failed = sum(bad_records(s.records, full_scale) for s in sweeps)
    failed += sum(differing_rows(reference, csv_rows(s.csv_path)) for s in sweeps[1:])
    if workers > 1:
        attempted += 1
        failed += single_worker_row(relnet, spec, work)[1] != reference[1]

    cell_s = [[r.wall_ms / 1000.0 for r in s.records] for s in sweeps]
    untraced_sps = statistics.median(samples_per_s(s, epochs, n_train) for s in sweeps)
    end_to_end = {
        "setup_s": (statistics.median(s.setup_s for s in sweeps), "s"),
        "samples_per_s": (untraced_sps, "1/s"),
        "cell_s_p50": (statistics.median(map(statistics.median, cell_s)), "s"),
        "peak_pss_mb": (statistics.median(peak_pss), "MB"),
    }
    notes = {
        "environment": environment(np),
        "result_digest": digest(reference),
        "sweeps": len(sweeps),
        "sweep_wall_s": [s.wall_s for s in sweeps],
        "cells_per_sweep": len(cell_s[0]),
        "pss_interval_s": pss.INTERVAL_S,
        "cells_failed": failed,
        "cells_attempted": attempted,
    }
    # A tail needs TAIL_BEYOND cells beyond it, so single-cell sweeps have none.
    tails = [layers.tail(cells) for cells in cell_s]
    if tails[0] is not None:
        end_to_end["cell_s_tail"] = (statistics.median(v for _, v in tails), "s")
        notes["cell_s_tail_percentile"] = tails[0][0]
    if not args.trace:
        return end_to_end, notes, attempted, failed

    trace_dir = work / "spans"
    trace_dir.mkdir()
    traced = run_one_sweep(relnet, spec_path, workers, work / "traced.csv", trace_dir)
    attempted += len(traced.records)
    failed += bad_records(traced.records, full_scale)
    failed += differing_rows(reference, csv_rows(traced.csv_path))

    per_layer, layer_notes = layers.analyse(
        read_spans(trace_dir), traced.records, traced.deliveries
    )
    data = spec["dataset"]
    dim = 3072 if full_scale else data["dim"]
    classes = 10 if full_scale else data["classes"]
    shape = (spec["train"]["batch_size"], dim, spec["model"]["width"],
             spec["model"]["rounds"], classes)
    dtype = np.float64 if spec["train"]["precision"] == "double" else np.float32
    floor_ms = layers.matmul_floor_ms(*shape, dtype)
    per_layer["training.step_gflop"] = (layers.step_gflop(*shape), "GFLOP")
    per_layer["training.matmul_floor_ms"] = (floor_ms, "ms")
    per_layer["training.step_over_floor"] = (
        per_layer["training.step_ms_p50"][0] / floor_ms, "ratio")
    cell_total_s = sum(r.wall_ms for r in traced.records) / 1000.0
    per_layer["sweep.worker_busy_share"] = (cell_total_s / (workers * traced.wall_s), "ratio")
    per_layer["sweep.csv_write_ms_p50"] = (statistics.median(traced.csv_write_ms), "ms")
    report_ms, fit = report_time(relnet, traced.csv_path)
    per_layer["sweep.report_ms"] = (report_ms, "ms")
    traced_sps = samples_per_s(traced, epochs, n_train)
    per_layer["trace.overhead_share"] = (1.0 - traced_sps / untraced_sps, "ratio")
    notes.update(layer_notes, report_fit=fit, cells_failed=failed, cells_attempted=attempted)
    return per_layer, notes, attempted, failed


def report_time(relnet, csv_path: Path, repeats: int = 5) -> tuple[float, str]:
    """Median time of `relnet report`'s work on one CSV: read, aggregate, fit.

    A single-cell sweep has too few x values for the fit; the time up to the
    FitError still counts, and the returned note says so.
    """
    times = []
    fit = "ok"
    for _ in range(repeats):
        tic = time.perf_counter()
        records = relnet.sweep.read_records_csv(csv_path)
        relnet.sweep.aggregate(records)
        try:
            relnet.sweep.correlation_report(records, x_field="p")
        except relnet.errors.FitError as exc:
            fit = f"FitError: {exc}"
        times.append((time.perf_counter() - tic) * 1000.0)
    return statistics.median(times), fit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    if WORKLOADS[args.workload][1] > 1:
        os.environ["OPENBLAS_NUM_THREADS"] = POOL_BLAS_THREADS  # read when numpy loads
    relnet = import_relnet()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, notes, attempted, failed = measure(relnet, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    print(json.dumps({**context, **notes}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
