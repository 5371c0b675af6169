#!/usr/bin/env bash
# Checks of the installed `relnet` console script, run from the root of a
# checkout after `pip install -e .`:
#
#   bash ci/console_checks.sh DIR
#
# DIR holds the files the checks write. Each check prints its name before it
# runs; the first one that fails ends the script with a non-zero status.
set -euo pipefail
T=${1:?usage: bash ci/console_checks.sh DIR}

check() { printf '\n== %s\n' "$*"; }

# exits_2 NAME CMD...: run CMD with its stderr in $T/NAME.err (also shown);
# it must exit 2 and print an `error:` line.
exits_2() {
    local name=$1 code=0
    shift
    "$@" 2> "$T/$name.err" || code=$?
    cat "$T/$name.err"
    test "$code" -eq 2
    grep -q '^error:' "$T/$name.err"
}

# one_line NAME: $T/NAME.err holds exactly one line.
one_line() { test "$(wc -l < "$T/$1.err")" -eq 1; }

# demo_spec OUT EDIT: sweeps/blobs_demo.json, changed by the Python statement
# EDIT on its dict `spec` (and `arg`, the third argument), written to OUT.
demo_spec() {
    python3 -c "import json, sys; spec = json.load(open('sweeps/blobs_demo.json')); arg = sys.argv[2]; $2; json.dump(spec, open(sys.argv[1], 'w'))" "$1" "${3:-}"
}

check "gen static_sf and community, import with sampling and matched ER, and metrics each exit 0 and print one JSON line, metrics with avg_path_len"
relnet gen --family static_sf --n 60 --gamma 2.5 --m 3 --seed 1 --out "$T/sf.edges" > "$T/gen_sf.out"
relnet gen --family community --n 60 --communities 3 --mu 0.05 --base er --p 0.3 --seed 1 --out "$T/comm.edges" > "$T/gen_comm.out"
relnet import --edges "$T/comm.edges" --expect-nodes 60 --sample 40 --matched-er --seed 2 --out "$T/control.edges" > "$T/import.out"
relnet metrics --edges "$T/control.edges" > "$T/metrics.out"
cat "$T/gen_sf.out" "$T/gen_comm.out" "$T/import.out" "$T/metrics.out"
python3 -c 'import json, sys; lines = [open(path).read().splitlines() for path in sys.argv[1:]]; sys.exit(0 if all(len(ls) == 1 and isinstance(json.loads(ls[0]), dict) for ls in lines) else 1)' "$T/gen_sf.out" "$T/gen_comm.out" "$T/import.out" "$T/metrics.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if "avg_path_len" in r else 1)' "$T/metrics.out"

check "metrics on a disconnected unlabeled edge list exits 0 and prints null for avg_path_len, modularity and cross_density, with giant_fraction below 1"
printf '0 1\n1 2\n3 4\n' > "$T/split.edges"
relnet metrics --edges "$T/split.edges" > "$T/split.out"
cat "$T/split.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r["avg_path_len"] is r["modularity"] is r["cross_density"] is None and r["giant_fraction"] < 1 else 1)' "$T/split.out"

check "sweep exits 0; --workers 1 writes the --workers 2 CSV apart from wall_ms"
relnet sweep --spec sweeps/blobs_demo.json --out "$T/demo.csv" --workers 2
relnet sweep --spec sweeps/blobs_demo.json --out "$T/demo.w1.csv" --workers 1
python3 -c 'import csv, sys; rows = [list(csv.reader(open(path, newline=""))) for path in sys.argv[1:]]; wall = rows[0][0].index("wall_ms"); a, b = ([r[:wall] + r[wall + 1:] for r in csv_rows] for csv_rows in rows); sys.exit(0 if a == b and len(a) == 73 else 1)' "$T/demo.csv" "$T/demo.w1.csv"

check "train with a demo cell's flags and --blob-spread 0.6 prints that row's top1_error and nodes"
relnet train --family community --base er --n 16 --communities 2 --p 0.5 --mu 0.3 --seed 1 --width 64 --rounds 2 --epochs 30 --blob-spread 0.6 > "$T/cell.out"
cat "$T/cell.out"
python3 -c 'import csv, json, sys; r = json.load(open(sys.argv[2])); (row,) = [row for row in csv.DictReader(open(sys.argv[1], newline="")) if (row["communities"], row["p"], row["mu"], row["seed"]) == ("2", "0.5", "0.3", "1")]; print("csv", row["top1_error"], row["nodes_realized"]); sys.exit(0 if float(row["top1_error"]) == r["top1_error"] and int(row["nodes_realized"]) == r["nodes"] else 1)' "$T/demo.csv" "$T/cell.out"

check "a resumed finished sweep runs nothing and leaves --out as it was"
cp "$T/demo.csv" "$T/demo.first.csv"
relnet sweep --spec sweeps/blobs_demo.json --out "$T/demo.csv" --workers 2 --resume > "$T/resume.out"
cat "$T/resume.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r["ok"] == 0 and r["skipped"] == 72 else 1)' "$T/resume.out"
cmp "$T/demo.csv" "$T/demo.first.csv"

check "a resumed finished sweep whose dataset is gone exits 0 at --workers 1 and 2, prints the same line and leaves --out as it was"
demo_spec "$T/gone_data.json" 'spec["dataset"] = {"kind": "cifar10", "dir": arg}' "$T/no-such-dir"
for workers in 1 2; do
    relnet sweep --spec "$T/gone_data.json" --out "$T/demo.csv" --workers "$workers" --resume > "$T/resume_gone.w$workers.out"
    cat "$T/resume_gone.w$workers.out"
    test "$(cat "$T/resume_gone.w$workers.out")" = '{"ok": 0, "failed": 0, "skipped": 72}'
done
cmp "$T/demo.csv" "$T/demo.first.csv"

check "report exits 0 and prints r_squared and residual_dof; on the demo CSV the quadratic term is smaller than its standard error"
relnet report --csv "$T/demo.csv" --x p > "$T/report.out"
cat "$T/report.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1]), parse_constant=lambda c: sys.exit(f"not JSON: {c}")); sys.exit(0 if "r_squared" in r and r["residual_dof"] == len(r["points"]) - 3 else 1)' "$T/report.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); print("quadratic", r["coefficients"][0], "+-", r["standard_errors"][0]); sys.exit(0 if abs(r["coefficients"][0]) < r["standard_errors"][0] else 1)' "$T/report.out"

check "report on a CSV with a top1_error of nan exits 2 with one error line naming top1_error"
python3 -c 'import csv, sys; rows = list(csv.reader(open(sys.argv[1], newline=""))); rows[1][rows[0].index("top1_error")] = "nan"; csv.writer(open(sys.argv[2], "w", newline="")).writerows(rows)' "$T/demo.csv" "$T/nan.csv"
exits_2 nan_error relnet report --csv "$T/nan.csv" --x p
one_line nan_error
grep -q "^error: .*column top1_error" "$T/nan_error.err"

check "a spec without family exits 2"
demo_spec "$T/no_family.json" 'del spec["family"]'
exits_2 no_family relnet sweep --spec "$T/no_family.json" --out "$T/no_family.csv"

cp "$T/demo.csv" "$T/demo.before.csv"

check "a missing dataset exits 2 and leaves --out as it was"
demo_spec "$T/no_data.json" 'spec["dataset"] = {"kind": "cifar10", "dir": arg}' "$T/no-such-dir"
exits_2 no_data relnet sweep --spec "$T/no_data.json" --out "$T/demo.csv" --workers 2
cmp "$T/demo.csv" "$T/demo.before.csv"

check "an axis the family does not take exits 2 naming 'gamma' and leaves --out as it was"
demo_spec "$T/gamma_axis.json" 'spec["axis1"]["name"] = "gamma"'
exits_2 gamma_axis relnet sweep --spec "$T/gamma_axis.json" --out "$T/demo.csv"
grep -q "'gamma'" "$T/gamma_axis.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "an er sweep with no p exits 2 and leaves --out as it was"
demo_spec "$T/no_p.json" 'spec["axis1"] = {"name": "mu", "values": [0.1]}; del spec["axis2"]'
exits_2 no_p relnet sweep --spec "$T/no_p.json" --out "$T/demo.csv"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "a cifar10 dataset with a normalize key exits 2 with one error line naming 'normalize' and leaves --out as it was"
demo_spec "$T/normalize.json" 'spec["dataset"] = {"kind": "cifar10", "dir": arg, "normalize": "standard"}' "$T/no-such-dir"
exits_2 normalize relnet sweep --spec "$T/normalize.json" --out "$T/demo.csv" --workers 2
one_line normalize
grep -q "^error: .*'normalize'" "$T/normalize.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "an empty blobs test split exits 2 naming 'dataset.test_n_per_class' and leaves --out as it was"
demo_spec "$T/empty_test.json" 'spec["dataset"]["test_n_per_class"] = 0'
exits_2 empty_test relnet sweep --spec "$T/empty_test.json" --out "$T/demo.csv" --workers 2
grep -q "^error: .*'dataset.test_n_per_class'" "$T/empty_test.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "a demo spec with a learning_rate of -1 exits 2 with one error line naming 'train.learning_rate' and leaves --out as it was"
demo_spec "$T/negative_lr.json" 'spec["train"]["learning_rate"] = -1'
exits_2 negative_lr_spec relnet sweep --spec "$T/negative_lr.json" --out "$T/demo.csv" --workers 2
one_line negative_lr_spec
grep -q "^error: .*'train.learning_rate'" "$T/negative_lr_spec.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "--workers 0 exits 2 with the one error line naming --workers and leaves --out as it was"
exits_2 workers0 relnet sweep --spec sweeps/blobs_demo.json --out "$T/demo.csv" --workers 0
test "$(cat "$T/workers0.err")" = "error: --workers must be >= 1, got 0"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "a demo sweep with a p tick of 1.5 exits 2 with one error line naming 'p' and leaves --out as it was"
demo_spec "$T/p_range.json" 'spec["axis1"]["values"] = [0.5, 1.5]'
exits_2 p_range relnet sweep --spec "$T/p_range.json" --out "$T/demo.csv" --workers 2
one_line p_range
grep -q "^error: .*'p'" "$T/p_range.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "a demo spec with seeds [0, 0] exits 2 with one error line naming 'seeds' and leaves --out as it was"
demo_spec "$T/repeated_seed.json" 'spec["seeds"] = [0, 0]'
exits_2 repeated_seed relnet sweep --spec "$T/repeated_seed.json" --out "$T/demo.csv" --workers 2
one_line repeated_seed
grep -q "^error: sweep spec 'seeds' repeats 0" "$T/repeated_seed.err"
cmp "$T/demo.csv" "$T/demo.before.csv"

check "report --x family exits 2 with one error line naming --x"
exits_2 x_family relnet report --csv "$T/demo.csv" --x family
one_line x_family
grep -q '^error: --x must be one of ' "$T/x_family.err"

check "report --x family --aggregate-out exits 2 with one error line and writes no aggregate"
exits_2 x_family_agg relnet report --csv "$T/demo.csv" --x family --aggregate-out "$T/x_family_agg.csv"
one_line x_family_agg
test ! -e "$T/x_family_agg.csv"

check "sweep --out in a missing directory exits 2 with one error line naming --out and creates nothing"
exits_2 missing_out_dir relnet sweep --spec sweeps/blobs_demo.json --out "$T/missing/x.csv" --workers 2
one_line missing_out_dir
grep -q "^error: --out '$T/missing/x.csv': no directory '$T/missing'" "$T/missing_out_dir.err"
test ! -e "$T/missing"

check "train with --learning-rate nan exits 2 with one error line naming --learning-rate"
exits_2 nan_lr relnet train --family complete --n 4 --width 8 --rounds 1 --epochs 1 --learning-rate nan
one_line nan_lr
grep -q '^error: .*--learning-rate' "$T/nan_lr.err"

check "train with --learning-rate -1 exits 2 with one error line naming --learning-rate"
exits_2 negative_lr relnet train --family complete --n 4 --width 8 --rounds 1 --epochs 1 --learning-rate -1
one_line negative_lr
grep -q '^error: .*--learning-rate' "$T/negative_lr.err"

check "import --sample 1 --matched-er exits 2 with one error line, no traceback and no --out"
exits_2 one_node relnet import --edges "$T/comm.edges" --sample 1 --matched-er --seed 2 --out "$T/one.edges"
one_line one_node
test "$(grep -c Traceback "$T/one_node.err")" -eq 0
test ! -e "$T/one.edges"

check "train on an empty blobs train split exits 2"
exits_2 empty_blobs relnet train --family complete --n 4 --width 8 --rounds 1 --epochs 1 --blob-n-per-class 0

check "train on an empty blobs test split exits 2 with the one error line naming --blob-test-n-per-class"
exits_2 empty_test_blobs relnet train --family complete --n 4 --width 8 --rounds 1 --epochs 1 --blob-test-n-per-class 0
test "$(cat "$T/empty_test_blobs.err")" = "error: --blob-test-n-per-class must be >= 1, got 0"

check "train --ckpt-out writes a checkpoint that relnet.load_checkpoint reads with its width and every masked entry zero"
relnet train --family er --n 12 --p 0.5 --width 30 --rounds 2 --epochs 1 --blob-n-per-class 20 --seed 3 --ckpt-out "$T/model.npz"
python3 -c 'import sys, relnet; m = relnet.load_checkpoint(sys.argv[1]); print("width", m.width, "rounds", m.rounds); sys.exit(0 if m.masked_entries_zero() and m.width == 30 and m.rounds == 2 else 1)' "$T/model.npz"

check "all console-script checks passed"
