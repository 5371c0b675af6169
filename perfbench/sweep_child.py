"""One sweep in a fresh process, as `relnet sweep` would run it.

    python3 perfbench/sweep_child.py '<request JSON>'

`run.py` starts one of these per sweep, as one `relnet sweep` invocation
would be: pool workers are forked from the process calling `run_sweep`, so
each sweep's dataset load, pool start and memory peak begin from the same
state, and effects of one process's memory layout on speed average out in
the run's median.

Request keys: `spec` (spec file), `workers`, `csv` (output CSV, one row
appended per `progress` call, as the CLI does), `result` (JSON file for the
timings) and `trace_dir` (null, or the directory for spans).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(request: dict) -> None:
    sys.path.insert(0, str(SRC))
    import relnet.sweep

    if request["trace_dir"]:
        from tracing import Tracer

        Tracer(Path(request["trace_dir"])).install()
    spec = relnet.sweep.SweepSpec.from_json(request["spec"])
    csv_path = request["csv"]
    relnet.sweep.write_records_csv([], csv_path)
    deliveries, csv_ms = [], []

    def progress(record):
        delivered = time.perf_counter()
        deliveries.append(delivered)
        relnet.sweep.write_records_csv([record], csv_path, append=True)
        csv_ms.append((time.perf_counter() - delivered) * 1000.0)

    start = time.perf_counter()
    records = relnet.sweep.run_sweep(spec, workers=request["workers"], progress=progress)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "setup_s": deliveries[0] - start - records[0].wall_ms / 1000.0,
        "deliveries": deliveries,
        "csv_write_ms": csv_ms,
    }
    Path(request["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
