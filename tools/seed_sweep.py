"""Criterion 8's desk study at several seeds, to see how far its checks ride on one seed.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py

For each of seeds 0-6 it runs the comparison study of ``tests/test_acceptance.py``
(criterion 8: the default ``TrainConfig``, estimators pg, ilr, mlr and tlr
at n_i 25, 5 macros, r_test 200, a last-100 window) through
``harness.run_comparison`` with 2 workers, writes no file, and
prints one Markdown table row:

- each estimator's last-100 mean of its across-macro mean curve;
- the order check, ``mlr >= pg and mlr >= ilr`` on those means;
- the block check: over iterations 1-200, the step between successive
  50-iteration block means, paired within each macro, may not fall below
  zero by more than its 95% band (``harness.aggregate_curves``), for every
  estimator;
- mlr - pg and mlr - ilr, each the across-macro mean of the per-macro
  differences of last-100 means, with its standard error;
- the study's wall seconds.

Both checks are computed as ``tests/test_acceptance.py`` computes them.
A seed takes about 20 s with 2 workers on a 2-vCPU host.  Kept out of
Tier-1: it is a tool for a change that moves stream bits, to tell a broken
estimator from a redrawn seed.
"""

from __future__ import annotations

import time

import numpy as np

from greensim_rl import harness, trainer
from greensim_rl.bioenv import default_scenario

ESTIMATORS = ["pg", "ilr", "mlr", "tlr"]
N_I, MACROS, R_TEST, WINDOW = 25, 5, 200, 100
SEEDS, WORKERS = range(7), 2


def paired(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over macros of the last-window mean of ``a`` minus that of ``b``."""
    diff = a[:, -WINDOW:].mean(axis=1) - b[:, -WINDOW:].mean(axis=1)
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def study_row(seed: int) -> str:
    started = time.perf_counter()
    rows, results, errors = harness.run_comparison(
        default_scenario(),
        trainer.TrainConfig(),
        ESTIMATORS,
        [N_I],
        macros=MACROS,
        seed=seed,
        r_test=R_TEST,
        window=WINDOW,
        threads=WORKERS,
    )
    wall = time.perf_counter() - started
    if errors:
        raise SystemExit(f"seed {seed}: {errors}")
    means = {row.estimator: row.mean for row in rows}
    rewards = {result.estimator: result.rewards for result in results}
    order = "holds" if means["mlr"] >= means["pg"] and means["mlr"] >= means["ilr"] else (
        "fails on " + " and ".join(k for k in ("pg", "ilr") if means["mlr"] < means[k])
    )
    falls = []
    for kind, r in rewards.items():
        blocks = r[:, :200].reshape(-1, 4, 50).mean(axis=2)
        if not np.all(harness.aggregate_curves(np.diff(blocks, axis=1)).hi >= 0.0):
            falls.append(kind)
    block = "holds" if not falls else "fails on " + ", ".join(falls)
    diffs = [paired(rewards["mlr"], rewards[k]) for k in ("pg", "ilr")]
    return (
        f"| {seed} | "
        + " | ".join(f"{means[k]:.2f}" for k in ESTIMATORS)
        + f" | {order} | {block} | "
        + " | ".join(f"{d:+.2f} ({se:.2f})" for d, se in diffs)
        + f" | {wall:.1f} |"
    )


def main() -> int:
    print("| seed | pg | ilr | mlr | tlr | mlr >= pg and mlr >= ilr | blocks | mlr - pg (SE) | mlr - ilr (SE) | wall s |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for seed in SEEDS:
        print(study_row(seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
