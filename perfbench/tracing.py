"""Spans around the calls a sweep makes into each relnet module.

`Tracer.install` replaces the names the program looks up at call time with
wrappers that record a span per call: name, start, end, parent span and the
cell it belongs to. Pool workers are forked from the sweep process, so
wrappers installed before `run_sweep` run in the workers too. Every process
keeps its spans in memory and appends them to its own file in the trace
directory after each cell (and after each dataset load), which is how worker
spans reach the parent. The write after a cell delays that cell's result,
so spans are kept as tuples and pickled, which costs about a millisecond.

Times come from `time.perf_counter`, which on Linux is CLOCK_MONOTONIC and
therefore comparable between the parent and its workers.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from time import perf_counter

import relnet.model
import relnet.sweep
import relnet.training

# (module or class, attribute); the attribute names the span. Each is looked
# up at call time by the code that calls it, so replacing it is enough.
WRAPPED = [
    (relnet.sweep, "build_dataset"),
    (relnet.sweep, "generate_with_info"),
    (relnet.sweep, "compute_metrics"),
    (relnet.sweep, "init_model"),
    (relnet.sweep, "train"),
    (relnet.training, "forward"),
    (relnet.training, "loss_and_grads"),
    (relnet.training, "sgd_step"),
    (relnet.training, "evaluate"),
    (relnet.model.MlpModel, "apply_mask"),
]


class Tracer:
    """Span recorder for the sweep of one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.cell = 0  # spans outside any cell, such as dataset loads, get 0

    def install(self) -> None:
        os.register_at_fork(after_in_child=self._reset)
        for owner, name in WRAPPED:
            setattr(owner, name, self._wrap(name, getattr(owner, name)))
        relnet.training.batch_iter = self._wrap_batches(relnet.training.batch_iter)

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            if name == "generate_with_info":  # first call of every sweep cell
                self.cell += 1
            span_id = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
            self.spans.append(
                (span_id, name, parent, self.cell, start, end, _annotate(name, result))
            )
            if name in ("train", "build_dataset"):
                self.flush()
            return result

        return wrapped

    def _wrap_batches(self, fn):
        def wrapped(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                parent = self.stack[-1] if self.stack else None
                start = perf_counter()
                try:
                    item = next(batches)
                except StopIteration:
                    return
                end = perf_counter()
                self.spans.append((self._new_id(), "batch", parent, self.cell, start, end, None))
                yield item

        return wrapped

    def flush(self) -> None:
        with open(self.trace_dir / f"spans-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []


def _annotate(name: str, result) -> dict | None:
    """The few outputs the analysis and the result matching need."""
    if name == "generate_with_info":
        return {"bridges": result[1].bridge_edges}
    if name == "compute_metrics":
        return {"mean_degree": result.mean_degree, "clustering": result.clustering}
    if name == "init_model":
        return {"mask_density": float(result.mask.matrix.mean())}
    if name == "train":
        eval_result, log = result
        return {
            "top1_error": eval_result.top1_error_percent,
            "train_loss": sum(e["train_loss"] for e in log) / len(log),
        }
    return None


def read_spans(trace_dir: Path) -> list[dict]:
    """All spans the processes of this run wrote, as dicts with their pid."""
    fields = ("id", "name", "parent", "cell", "start", "end")
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.pkl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, "rb") as fh:
            while True:
                try:
                    batch = pickle.load(fh)
                except EOFError:
                    break
                for row in batch:
                    span = dict(zip(fields, row), pid=pid)
                    span.update(row[6] or {})
                    spans.append(span)
    return spans
