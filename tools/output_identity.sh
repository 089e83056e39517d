#!/usr/bin/env bash
# Output-identity check between two source trees of greensim_rl.
#
# Usage: tools/output_identity.sh OLD_TREE NEW_TREE [WORK_DIR]
#
# OLD_TREE and NEW_TREE are checkouts of this repository (each with a src/
# directory).  The same small runs go through each tree's package into
# WORK_DIR/old and WORK_DIR/new (WORK_DIR defaults to a fresh temporary
# directory and must not hold either yet):
#
#   - greensim train --seed 3 --r-test 7 for pg, ilr, mlr and tlr, on a
#     config of 2 periods x 8 iterations with 5 replications, and for ilr
#     and mlr on the same config with the linear policy;
#   - greensim compare on that config: n_i 3 and 5, 2 macros, r_test 4,
#     window 5;
#   - greensim posterior-diag --draws 20 --seed 2, on the prior and on the
#     mlr run's fractions.csv;
#   - greensim oracle-check, its report kept as oracle.txt.
#
# Then `diff -r` compares the two output trees, ignoring only timings.csv
# (per-phase wall seconds, the one output that differs between reruns).
# Exits 0 when they match and 1 when they differ.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 OLD_TREE NEW_TREE [WORK_DIR]" >&2
    exit 2
fi
work=${3:-$(mktemp -d)}
mkdir -p "$work"

run_tree() {
    local tree out
    tree=$(cd "$1" && pwd)
    out=$2
    mkdir "$out"
    cli() { PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1 python3 -m greensim_rl.cli "$@"; }
    greensim() { cli "$@" >/dev/null; }
    echo '{"periods": 2, "iterations_per_period": 8, "replications": 5}' >"$out/config.json"
    echo '{"periods": 2, "iterations_per_period": 8, "replications": 5, "policy_kind": "linear"}' \
        >"$out/config_linear.json"
    for estimator in pg ilr mlr tlr; do
        greensim train --config "$out/config.json" --estimator "$estimator" --seed 3 --r-test 7 \
            --out "$out/train_$estimator"
    done
    for estimator in ilr mlr; do
        greensim train --config "$out/config_linear.json" --estimator "$estimator" --seed 3 --r-test 7 \
            --out "$out/train_linear_$estimator"
    done
    greensim compare --config "$out/config.json" --seed 3 --n-i 3,5 --macros 2 --r-test 4 --window 5 \
        --out "$out/compare"
    greensim posterior-diag --draws 20 --seed 2 --out "$out/diag_prior.csv"
    greensim posterior-diag --draws 20 --seed 2 --data "$out/train_mlr/fractions.csv" --out "$out/diag_data.csv"
    cli oracle-check >"$out/oracle.txt"
}

run_tree "$1" "$work/old"
run_tree "$2" "$work/new"
if diff -r -x timings.csv "$work/old" "$work/new"; then
    echo "identical outputs (timings.csv aside) in $work/old and $work/new"
else
    echo "outputs differ: $work/old vs $work/new" >&2
    exit 1
fi
