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
#     config of 2 periods x 8 iterations with 5 replications, once with
#     the default MLP policy and once with the linear policy (so every
#     estimator runs through both policies' forward and backward passes),
#     and for mlr with burn_in 37 and thin 3 and with burn_in 24 and thin 2,
#     so that with the default 500 the sampler's 25-move adaptation windows
#     end exactly at burn-in (500), leave a remainder (37) and never fill (24);
#   - the pg train run on the MLP config once more without --r-test, so a
#     history.csv without its eval_reward column and a manifest without
#     r_test are compared too;
#   - the same train runs for pg, mlr and tlr with rolling window 1, so the
#     mixture's density block is rebuilt on every call; the mlr run must
#     write the history of the pg run within the tree (estimator column aside),
#     since a one-record mixture gives every trajectory a ratio of 1;
#   - greensim simulate --n 20 --seed 4, from a fresh init and from the
#     mlr run's last checkpoint;
#   - greensim evaluate --r-test 9 --seed 4 on that checkpoint, its
#     report kept as evaluate.txt (the mean rounded to 4 decimals);
#   - greensim compare on that config: n_i 3 and 5, 2 macros, r_test 4,
#     window 5, once serially (compare) and once with --threads 2
#     (compare_pool), which must write the same bytes within the tree;
#   - greensim posterior-diag --draws 20 --seed 2, on the prior and on the
#     mlr run's fractions.csv;
#   - greensim oracle-check, its report kept as oracle.txt (errors at 2
#     significant digits);
#   - one Python step that writes full_precision.txt: the repr of the mean
#     that evaluate prints (same checkpoint, r_test 9, seed 4, loaded and
#     run as the CLI does), of each estimator's exact expectation on
#     oracle-check's setup (pg, ilr, mlr over the whole buffer and over a
#     window of 2, and tlr on components that share the last model), and
#     of the ILR mean return estimate on that setup's enumerated buffer,
#     so that a change below the reports' rounding still differs.
#
# Then `diff -r` compares the two output trees, ignoring only timings.csv
# (per-phase wall seconds, the one output that differs between reruns),
# and prints its verdict and each tree's line count of src/greensim_rl/*.py.
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
    for estimator in pg ilr mlr tlr; do
        greensim train --config "$out/config_linear.json" --estimator "$estimator" --seed 3 --r-test 7 \
            --out "$out/train_linear_$estimator"
    done
    greensim train --config "$out/config.json" --estimator pg --seed 3 --out "$out/train_pg_unscored"
    echo '{"periods": 2, "iterations_per_period": 8, "replications": 5, "burn_in": 37, "thin": 3}' \
        >"$out/config_burn_in.json"
    greensim train --config "$out/config_burn_in.json" --estimator mlr --seed 3 --r-test 7 \
        --out "$out/train_burn_in_mlr"
    echo '{"periods": 2, "iterations_per_period": 8, "replications": 5, "burn_in": 24, "thin": 2}' \
        >"$out/config_short_burn_in.json"
    greensim train --config "$out/config_short_burn_in.json" --estimator mlr --seed 3 --r-test 7 \
        --out "$out/train_short_burn_in_mlr"
    echo '{"periods": 2, "iterations_per_period": 8, "replications": 5, "rolling_window": 1}' \
        >"$out/config_w1.json"
    for estimator in pg mlr tlr; do
        greensim train --config "$out/config_w1.json" --estimator "$estimator" --seed 3 --r-test 7 \
            --out "$out/train_${estimator}_w1"
    done
    if ! diff <(cut -d, -f2 --complement "$out/train_pg_w1/history.csv") \
        <(cut -d, -f2 --complement "$out/train_mlr_w1/history.csv"); then
        echo "mlr with rolling window 1 differs from pg in $out" >&2
        exit 1
    fi
    local checkpoint="$out/train_mlr/ckpt/iter_16/params.json"
    greensim simulate --n 20 --seed 4 --out "$out/simulate_init.jsonl"
    greensim simulate --n 20 --seed 4 --checkpoint "$checkpoint" --out "$out/simulate_checkpoint.jsonl"
    cli evaluate --checkpoint "$checkpoint" --r-test 9 --seed 4 >"$out/evaluate.txt"
    local grid=(--config "$out/config.json" --seed 3 --n-i 3,5 --macros 2 --r-test 4 --window 5)
    greensim compare "${grid[@]}" --out "$out/compare"
    greensim compare "${grid[@]}" --threads 2 --out "$out/compare_pool"
    if ! diff -r "$out/compare" "$out/compare_pool"; then
        echo "compare --threads 2 differs from the serial compare in $out" >&2
        exit 1
    fi
    greensim posterior-diag --draws 20 --seed 2 --out "$out/diag_prior.csv"
    greensim posterior-diag --draws 20 --seed 2 --data "$out/train_mlr/fractions.csv" --out "$out/diag_data.csv"
    cli oracle-check >"$out/oracle.txt"
    PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1 python3 - "$checkpoint" >"$out/full_precision.txt" <<'PY'
import sys

from greensim_rl import cli, estimators, oracle

scn = cli._load_scenario_arg(None)
env, policy, theta = cli._load_checkpoint(sys.argv[1], scn)
print("evaluate", repr(cli.evaluate_policy(theta, env, scn.true_model, policy, 9, cli.substream(4, 0))))
mdp, policy, components, _ = oracle._check_setup()
shared = [(theta, components[-1][1]) for theta, _ in components]
cases = [("pg", components, None), ("ilr", components, None), ("ilr_mean", components, None),
         ("mlr", components, None), ("mlr", components, 2), ("tlr", shared, None)]
for kind, parts, window in cases:
    if kind == "ilr_mean":
        buffer = oracle._enumerated_buffer(mdp, parts, policy)
        value = estimators.ilr_mean_estimate(buffer, buffer.records[-1].theta, buffer.records[-1].omega, 0.9)
    else:
        value = oracle.estimator_exact_expectation(kind, mdp, parts, 0.9, policy, window).tolist()
    print(kind, window, repr(value))
PY
}

run_tree "$1" "$work/old"
run_tree "$2" "$work/new"
status=0
if diff -r -x timings.csv "$work/old" "$work/new"; then
    echo "identical outputs (timings.csv aside) in $work/old and $work/new"
else
    echo "outputs differ: $work/old vs $work/new" >&2
    status=1
fi
for tree in "$1" "$2"; do
    echo "src/greensim_rl/*.py lines in $tree: $(cat "$tree"/src/greensim_rl/*.py | wc -l)"
done
exit "$status"
