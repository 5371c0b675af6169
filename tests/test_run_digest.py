"""A whole run's bytes, pinned per BLAS kernel.

One short single-precision desk run trains in a child process under each
OpenBLAS kernel this test can force (`OPENBLAS_CORETYPE`). The sha256 of its
weights and biases must equal the table's entry for the (OpenBLAS version,
kernel) that ran. Each kernel rounds its GEMMs its own way, so each has its
own entry; a kernel other than the one forced (a CPU without its
instructions, a non-x86 host) or a key the table lacks skips. Double
precision is not pinned: its digests also move with numpy's own SIMD paths,
which no key here records.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import relnet.sweep
from relnet.datasets import BlobsSpec
from relnet.generators import GeneratorSpec, generate_with_info
from relnet.graphs import _openblas_function
from relnet.sweep import ModelSpec, build_dataset, graph_seed, run_one
from relnet.training import TrainConfig

# First 16 hex digits of the sha256 of the pinned run's weights, then its
# biases, keyed by (OpenBLAS version, kernel) as OpenBLAS reports them.
RUN_DIGESTS = {
    ("0.3.31.188.0", "SkylakeX"): "bb31db81ec960dcc",
    ("0.3.31.188.0", "Haswell"): "05be425c35efd7b2",
    ("0.3.31.188.0", "Sandybridge"): "6886fa34da35a61d",
}


def pinned_run() -> dict:
    """Train the pinned run and describe it: the OpenBLAS version and kernel
    that ran it (None without OpenBLAS) and the digest of its parameters."""
    config = TrainConfig(epochs=3, precision="single")
    graph, _ = generate_with_info(
        GeneratorSpec("community", 16, p=0.5, communities=2, mu=0.3, base="er", seed=graph_seed(0))
    )
    train_ds, test_ds = build_dataset(
        {"kind": "blobs"} | asdict(BlobsSpec(spread=0.6)), dtype=config.dtype
    )
    model, _, _ = run_one(graph, 0, model=ModelSpec(width=64, rounds=2), config=config,
                          train_ds=train_ds, test_ds=test_ds, eval_every_epoch=False)
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


@pytest.mark.parametrize("forced", ["SkylakeX", "Haswell", "SandyBridge"])
def test_run_bytes_match_the_table(forced):
    paths = [Path(relnet.sweep.__file__).parents[1], Path(__file__).parent]
    # One BLAS thread: under Haswell the thread count moves the bytes too.
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join(map(str, paths)),
        "OPENBLAS_CORETYPE": forced,
        "OPENBLAS_NUM_THREADS": "1",
    }
    code = "import json, test_run_digest; print(json.dumps(test_run_digest.pinned_run()))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    if run["kernel"] is None:
        pytest.skip("no OpenBLAS loaded")
    if run["kernel"].lower() != forced.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={forced} ran the {run['kernel']} kernel")
    key = (run["version"], run["kernel"])
    if key not in RUN_DIGESTS:
        pytest.skip(f"no digest for OpenBLAS {key[0]}, kernel {key[1]}: {run['digest']}")
    assert run["digest"] == RUN_DIGESTS[key]
