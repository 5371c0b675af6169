"""Whole runs' bytes, pinned per BLAS kernel.

Two single-precision runs train in a child process under each OpenBLAS
kernel this test can force (`OPENBLAS_CORETYPE`): a short desk run and a
few steps at the full-scale shape (3072-wide input, width 512, 5 rounds).
The sha256 of a run's weights and biases must equal its table's entry for
the (OpenBLAS version, kernel) that ran. Each kernel rounds its GEMMs its
own way, so each has its own entry; a kernel other than the one forced (a
CPU without its instructions, a non-x86 host) or a key the table lacks
skips. Double precision is not pinned: its digests also move with numpy's
own SIMD paths, which no key here records. Under `Haswell` the BLAS thread
count moves the bytes too, so the pins run on one thread, and a sweep's pool
worker, which runs on one thread by itself, must match the one-thread entry.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import pytest

import relnet.sweep
from relnet.datasets import BlobsSpec, synthetic_blobs
from relnet.generators import GeneratorSpec, generate_with_info
from relnet.graphs import _openblas_function
from relnet.sweep import Axis, ModelSpec, SweepSpec, build_dataset, graph_seed, run_one
from relnet.training import TrainConfig

# First 16 hex digits of the sha256 of the pinned run's weights, then its
# biases, keyed by (OpenBLAS version, kernel) as OpenBLAS reports them.
RUN_DIGESTS = {
    ("0.3.31.188.0", "SkylakeX"): "bb31db81ec960dcc",
    ("0.3.31.188.0", "Haswell"): "05be425c35efd7b2",
    ("0.3.31.188.0", "Sandybridge"): "6886fa34da35a61d",
}

# The same for the full-shape run.
FULL_SHAPE_DIGESTS = {
    ("0.3.31.188.0", "SkylakeX"): "34598a24f281df8d",
    ("0.3.31.188.0", "Haswell"): "b95342b9c01f8107",
    ("0.3.31.188.0", "Sandybridge"): "bdc1e3cdee6989e9",
}

FORCED_KERNELS = ["SkylakeX", "Haswell", "SandyBridge"]


def describe(model) -> dict:
    """The OpenBLAS version and kernel that ran (None without OpenBLAS) and
    the digest of `model`'s parameters."""
    digest = hashlib.sha256()
    for array in [*model.weights, *model.biases]:
        digest.update(array.tobytes())
    blas = {}
    for name in ("get_config", "get_corename"):
        fn = _openblas_function(name)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            blas[name] = fn().decode()
    return {
        "version": blas["get_config"].split()[1] if "get_config" in blas else None,
        "kernel": blas.get("get_corename"),
        "digest": digest.hexdigest()[:16],
    }


def pinned_run() -> dict:
    """Train the pinned desk run and `describe` it."""
    config = TrainConfig(epochs=3, precision="single")
    graph, _ = generate_with_info(
        GeneratorSpec("community", 16, p=0.5, communities=2, mu=0.3, base="er", seed=graph_seed(0))
    )
    train_ds, test_ds = build_dataset(
        {"kind": "blobs"} | asdict(BlobsSpec(spread=0.6)), dtype=config.dtype
    )
    model, _, _ = run_one(graph, 0, model=ModelSpec(width=64, rounds=2), config=config,
                          train_ds=train_ds, test_ds=test_ds, eval_every_epoch=False)
    return describe(model)


def full_shape_run() -> dict:
    """Train 3 steps of 128 rows at the full-scale shape and `describe` them:
    3072-wide blobs, a 128-node 4-community ER graph, width 512, 5 rounds."""
    config = TrainConfig(epochs=1, batch_size=128, precision="single")
    graph, _ = generate_with_info(
        GeneratorSpec("community", 128, p=0.5, communities=4, mu=0.3, base="er",
                      seed=graph_seed(0))
    )
    train_ds = synthetic_blobs(48, 8, 3072, 1.0, 7, dtype=config.dtype)
    test_ds = synthetic_blobs(4, 8, 3072, 1.0, 8, dtype=config.dtype)
    model, _, _ = run_one(graph, 0, model=ModelSpec(width=512, rounds=5), config=config,
                          train_ds=train_ds, test_ds=test_ds, eval_every_epoch=False)
    return describe(model)


def pool_run() -> dict:
    """`pinned_run` in a one-worker sweep pool, on the pool's thread rule."""
    spec = SweepSpec(family="er", axis1=Axis("p", (0.5,)),
                     dataset={"kind": "blobs", "n_per_class": 1, "test_n_per_class": 1})
    with ProcessPoolExecutor(
        max_workers=1, initializer=relnet.sweep._worker_init, initargs=(spec, None)
    ) as pool:
        return pool.submit(pinned_run).result()


def child_run(function: str, forced: str, **env) -> dict:
    """This module's `function`, run in a child process under the forced
    kernel with `env` set (a value of None unsets it); skips where the
    kernel that ran is not `forced`."""
    paths = [Path(relnet.sweep.__file__).parents[1], Path(__file__).parent]
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join(map(str, paths)),
        "OPENBLAS_CORETYPE": forced,
    } | env
    env = {name: value for name, value in env.items() if value is not None}
    code = f"import json, test_run_digest; print(json.dumps(test_run_digest.{function}()))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    if run["kernel"] is None:
        pytest.skip("no OpenBLAS loaded")
    if run["kernel"].lower() != forced.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={forced} ran the {run['kernel']} kernel")
    return run


def expected_digest(table: dict, run: dict) -> str:
    key = (run["version"], run["kernel"])
    if key not in table:
        pytest.skip(f"no digest for OpenBLAS {key[0]}, kernel {key[1]}: {run['digest']}")
    return table[key]


# One BLAS thread: under Haswell the thread count moves the bytes too.
@pytest.mark.parametrize("forced", FORCED_KERNELS)
def test_run_bytes_match_the_table(forced):
    run = child_run("pinned_run", forced, OPENBLAS_NUM_THREADS="1")
    assert run["digest"] == expected_digest(RUN_DIGESTS, run)


@pytest.mark.parametrize("forced", FORCED_KERNELS)
def test_full_shape_bytes_match_the_table(forced):
    run = child_run("full_shape_run", forced, OPENBLAS_NUM_THREADS="1")
    assert run["digest"] == expected_digest(FULL_SHAPE_DIGESTS, run)


def test_a_pool_worker_trains_on_one_thread():
    """With neither thread variable set, a pool worker runs OpenBLAS on one
    thread, so under Haswell (where the count moves the bytes) it trains
    the pinned run to the table's one-thread digest on any host."""
    run = child_run("pool_run", "Haswell", OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
    assert run["digest"] == expected_digest(RUN_DIGESTS, run)
