"""Workloads of the training benchmark and their untraced timed pass.

A workload is one unit of work, repeated until the run's time is spent:
one training macro (``trainer.train``) for the in-process workloads, the
whole comparison grid (``harness.run_comparison``) for ``study_grid``.
Every repeat of a workload runs the same seed and macro index, so its eval
curves must be bit-identical from repeat to repeat.

Why each workload exists (the layer split is measured by the traced run):

* ``posterior_pg`` -- bound by posterior sampling (``bayes.mh_sample``);
  the estimator reuses nothing, so a mixture-density cache cannot help it.
* ``reuse_mlr_w50`` -- bound by the estimators: the W = 50 mixture costs
  50 * W^2 policy rows per full-window call, while posterior draws are a
  small share.
* ``study_grid`` -- what ``greensim compare`` runs: a process pool, ILR
  whole-history reuse, TLR policy-only ratios and MLR at W = 10.  A gain
  for one of the others that costs this mix shows here.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import speed
from greensim_rl import bioenv, harness, trainer
from speed import kernel

R_TEST = 200  # true-model evaluation rollouts per iteration (TrainConfig desk scale)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict                 # TrainConfig fields changed from TrainConfig()
    grid: tuple[str, ...] = ()      # estimator kinds of run_comparison; () = in-process macro
    macros: int = 1

    def config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(seed=seed, **self.overrides)

    @property
    def window(self) -> int:
        """Last-window length of the eval reward: the harness's 100, or half a short run."""
        return min(100, trainer.TrainConfig(**self.overrides).total_iterations // 2)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "posterior_pg",
            "pg at desk defaults (5x100, n_i 25, r_test 200): posterior draws dominate, "
            "nothing is reused, so bayes moves it and the mixture cache cannot",
            {"estimator": "pg"},
        ),
        Workload(
            "reuse_mlr_w50",
            "mlr with a 50-record window for 1x100 iterations: mixture densities over the "
            "window dominate and posterior draws are a small share",
            {"estimator": "mlr", "rolling_window": 50, "periods": 1, "iterations_per_period": 100},
        ),
        Workload(
            "study_grid",
            "run_comparison of pg,ilr,mlr,tlr x n_i 25, 2 macros of 2x25, W 10, 2 workers: "
            "process pool, ILR whole-history reuse, TLR policy-only ratios, MLR at a small window",
            {"rolling_window": 10, "periods": 2, "iterations_per_period": 25},
            grid=("pg", "ilr", "mlr", "tlr"),
            macros=2,
        ),
    )
}


def pool_workers() -> int:
    """Worker processes for the grid: two, but never more than the cores we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class UnitResult:
    """Outcome of one repeat of a workload."""

    wall_s: float                   # raw wall time, inline reference loops included
    kernel_s: float                 # mean reference-loop CPU time while the unit ran
    attempted: int
    failed: int
    curves: list[np.ndarray] = field(default_factory=list)  # eval curves, (iters,) or (M, iters)
    gaps_ms: list[float] = field(default_factory=list)      # normalised gaps between eval_fn returns
    problems: list[str] = field(default_factory=list)       # wrong outputs (not failures)
    loop_wall_s: float = 0.0        # wall time of the inline reference loops

    @property
    def norm_wall_s(self) -> float:
        return speed.normalise(self.wall_s - self.loop_wall_s, self.kernel_s)

    def digest(self) -> str:
        h = hashlib.sha256()
        for curve in self.curves:
            h.update(np.ascontiguousarray(curve, dtype=np.float64).tobytes())
        return h.hexdigest()


def run_macro(wl: Workload, seed: int) -> UnitResult:
    """One ``trainer.train`` macro with the true-model eval every iteration."""
    scn = bioenv.default_scenario()
    env = bioenv.ChromatographyEnv(scn)
    cfg = wl.config(seed)
    returned, loop_cpu, loop_wall = [], [], []

    def eval_fn(theta, policy, rng):
        value = harness.evaluate_policy(theta, env, scn.true_model, policy, R_TEST, rng, cfg.gamma)
        cpu, wall = kernel()  # this iteration's machine speed, on the training thread
        loop_cpu.append(cpu)
        loop_wall.append(wall)
        returned.append(time.perf_counter())
        return value

    started = time.perf_counter()
    try:
        history = trainer.train(scn, cfg, macro=0, eval_fn=eval_fn)
    except trainer.TrainingError:
        wall = time.perf_counter() - started
        return UnitResult(wall, float(np.mean(loop_cpu)) if loop_cpu else kernel()[0], 1, 1,
                          loop_wall_s=sum(loop_wall))
    wall = time.perf_counter() - started
    curve = history.eval_curve()
    problems = []
    if curve.shape != (cfg.total_iterations,) or not np.all(np.isfinite(curve)):
        problems.append(f"eval curve has shape {curve.shape} or non-finite values")
    # Gap k runs from return k-1 to return k and holds loop k; each gap is
    # normalised by the loop times of its ten nearest iterations.
    gaps = np.diff(returned) - np.array(loop_wall[1:])
    local = _centred_mean(np.array(loop_cpu), 11)[1:]
    gaps_ms = list(speed.normalise(gaps, local) * 1e3)
    return UnitResult(wall, float(np.mean(loop_cpu)), 1, 0, [curve], gaps_ms, problems, sum(loop_wall))


def _centred_mean(values: np.ndarray, width: int) -> np.ndarray:
    """Mean over a window of ``width`` centred on each element, shrunk at the ends."""
    half = width // 2
    csum = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(values.size)
    lo, hi = np.maximum(idx - half, 0), np.minimum(idx + half + 1, values.size)
    return (csum[hi] - csum[lo]) / (hi - lo)


def run_grid(wl: Workload, seed: int, threads: int | None) -> UnitResult:
    """One ``harness.run_comparison`` over the workload's grid."""
    scn = bioenv.default_scenario()
    cfg = wl.config(seed)
    with speed.Sampler() as sampler:
        started = time.perf_counter()
        rows, results, errors = harness.run_comparison(
            scn, cfg, list(wl.grid), [cfg.replications], wl.macros, seed,
            r_test=R_TEST, window=wl.window, threads=threads,
        )
        wall = time.perf_counter() - started
    problems = []
    if len(results) + len(errors) != len(wl.grid):
        problems.append(f"{len(results)} results and {len(errors)} errors for {len(wl.grid)} cells")
    for row, result in zip(rows, results):
        rewards = result.rewards
        if rewards.shape != (wl.macros, cfg.total_iterations) or not np.all(np.isfinite(rewards)):
            problems.append(f"{result.estimator}: rewards shape {rewards.shape} or non-finite")
            continue
        tail = rewards.mean(axis=0)[-wl.window:].mean()
        if (row.estimator, row.n_i) != (result.estimator, result.n_i) or not np.isclose(
            row.mean, tail, rtol=1e-12, atol=1e-12
        ):
            problems.append(f"{result.estimator}: summary mean {row.mean} != curve tail {tail}")
    return UnitResult(
        wall, sampler.mean(), len(wl.grid), len(errors), [r.rewards for r in results], [], problems
    )


def run_unit(wl: Workload, seed: int, threads: int | None) -> UnitResult:
    return run_grid(wl, seed, threads) if wl.grid else run_macro(wl, seed)


def repeat(unit, seconds: float) -> list[UnitResult]:
    """Repeat ``unit()`` while another repeat of average length still fits in ``seconds``."""
    out: list[UnitResult] = []
    started = time.perf_counter()
    while True:
        out.append(unit())
        elapsed = time.perf_counter() - started
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def check_repeats(units: list[UnitResult]) -> list[str]:
    """Wrong-output findings across repeats: each repeat's own, plus digest drift."""
    problems = [p for u in units for p in u.problems]
    digests = {u.digest() for u in units if u.failed == 0}
    if len(digests) > 1:
        problems.append(f"eval curves differ between repeats ({len(digests)} digests)")
    return problems


def eval_reward(wl: Workload, units: list[UnitResult]) -> float:
    """Mean true-model eval reward over the last window, across macros and cells."""
    for u in units:
        if u.failed == 0 and u.curves:
            return float(np.mean([c[..., -wl.window:].mean() for c in u.curves]))
    return 0.0
