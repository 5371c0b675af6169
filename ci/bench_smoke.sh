#!/usr/bin/env bash
# One benchmark smoke run, from the root of a checkout:
#
#   bash ci/bench_smoke.sh WORKLOAD TRACE
#
# runs perfbench/run.py for WORKLOAD at seed 1 for 1 second with --trace
# TRACE and checks its result, the last line it prints: "correct" is true
# and "failed" is 0, and with TRACE 1 every per_layer metric that
# BENCHMARK.json names is present.
set -euo pipefail
usage="usage: bash ci/bench_smoke.sh WORKLOAD TRACE"
workload=${1:?$usage}
trace=${2:?$usage}

python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
    | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("correct", r["correct"], "failed", r["failed"])
ok = r["correct"] is True and r["failed"] == 0
if sys.argv[1] == "1":
    names = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]
    missing = [n for n in names if n not in r["metrics"]]
    print("missing per_layer metrics:", missing)
    ok = ok and not missing
sys.exit(0 if ok else 1)
' "$trace"
