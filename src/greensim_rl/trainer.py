"""End-to-end policy search with online model learning.

The loop alternates periods of real-world data collection with stretches
of simulated policy-gradient ascent:

1. collect an initial batch of real transitions under the freshly
   initialized policy and build the posterior over the transition model;
2. per iteration: draw one posterior model sample, roll out the current
   policy against it, push the record into the replay buffer, take one
   ascent step with the configured estimator;
3. per period: collect fresh real data under the current policy, merge it
   into the dataset, and refresh the posterior.

The true-model-known estimator (``tlr``) is the one exception to step 2:
it simulates directly from the scenario's true model on every iteration,
since its ratios assume a single shared transition model.

All randomness is drawn from streams keyed by ``(seed, macro, iteration,
purpose)``, so two runs differing only in the estimator consume identical
streams, and identical configurations reproduce byte-identical histories.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import bayes, estimators
from .bioenv import ChromatographyEnv, FractionDataset, Scenario, collect_real_data
from .core import Policy, check_fields, check_object, read_json, returns, rollout_batch
from .core import substream, write_csv
from .policy import POLICY_KINDS, make_policy, purification_features

__all__ = [
    "ESTIMATOR_KINDS",
    "IterationRecord",
    "PeriodRecord",
    "TrainConfig",
    "TrainHistory",
    "TrainingError",
    "load_train_config",
    "policy_update",
    "scenario_policy",
    "train",
    "write_history",
]

ESTIMATOR_KINDS = ("pg", "ilr", "mlr", "tlr")

# Stream purposes within an iteration (the third path component is the
# iteration index, or the period index for real-world data collection).
_INIT, _REAL_DATA, _POSTERIOR, _ROLLOUT, _EVAL = 0, 1, 2, 3, 4


class TrainingError(RuntimeError):
    """Training aborted (non-finite gradient or estimator failure)."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    periods: int = 5
    iterations_per_period: int = 100
    replications: int = 25          # trajectories simulated per iteration
    learning_rate: float = 0.01
    gamma: float = 1.0
    estimator: str = "mlr"
    rolling_window: int = 10
    real_data_per_period: int = 20  # real-world trajectories per collection
    seed: int = 0
    policy_kind: str = "mlp"
    hidden_dim: int = 16
    init_scale: float = 0.1
    grad_clip: float | None = None  # max gradient norm; None disables
    burn_in: int = 500              # MCMC moves before each period's first draw, at most bayes.MAX_MOVES
    thin: int = 5                   # MCMC moves per draw, at most bayes.MAX_MOVES

    def __post_init__(self):
        check_fields(self, ValueError)
        for name in (
            "periods", "iterations_per_period", "replications", "real_data_per_period", "hidden_dim", "thin"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("seed", "burn_in"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("burn_in", "thin"):
            if getattr(self, name) > bayes.MAX_MOVES:
                raise ValueError(f"{name} must be <= {bayes.MAX_MOVES} (bayes.MAX_MOVES)")
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(f"policy_kind must be one of {POLICY_KINDS}, got {self.policy_kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"estimator must be one of {ESTIMATOR_KINDS}, got {self.estimator!r}")
        if self.rolling_window < 1:
            raise ValueError("rolling_window must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")

    @property
    def total_iterations(self) -> int:
        return self.periods * self.iterations_per_period


def load_train_config(path) -> TrainConfig:
    obj = read_json(path, ValueError)
    return TrainConfig(**check_object(obj, ValueError, "config", TrainConfig.__dataclass_fields__))


@dataclass
class IterationRecord:
    iteration: int
    theta: np.ndarray            # parameters after this iteration's update
    grad_norm: float
    return_estimate: float       # mean return of this iteration's rollouts
    max_ratio: float
    ess: float
    wall_time: float             # seconds for the whole iteration
    # Seconds per phase; a phase that does not run (posterior for tlr, eval
    # without an eval_fn) reads 0.
    posterior_s: float
    rollout_s: float
    gradient_s: float
    eval_s: float
    eval_reward: float | None = None


@dataclass
class PeriodRecord:
    period: int
    dataset_size: int            # observations after this period's collection
    mean_acceptance: float


@dataclass
class TrainHistory:
    config: TrainConfig
    macro: int
    iterations: list[IterationRecord] = field(default_factory=list)
    periods: list[PeriodRecord] = field(default_factory=list)
    dataset: FractionDataset = field(default_factory=FractionDataset)  # all real data

    def eval_curve(self) -> np.ndarray:
        return np.array([rec.eval_reward for rec in self.iterations], dtype=np.float64)


def scenario_policy(scn: Scenario, kind: str, hidden_dim: int) -> tuple[ChromatographyEnv, Policy]:
    """The scenario's environment, and a ``kind`` policy over its purification features and actions."""
    env = ChromatographyEnv(scn)
    features = purification_features(scn.p_bar, scn.i_bar, env.horizon())
    return env, make_policy(kind, features, env.action_count(), hidden_dim)


def policy_update(theta: np.ndarray, grad: np.ndarray, learning_rate: float) -> np.ndarray:
    """One ascent step ``theta + learning_rate * grad``."""
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if theta.shape != grad.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape} vs grad {grad.shape}")
    with np.errstate(over="ignore"):
        out = theta + learning_rate * grad
    if not np.all(np.isfinite(out)):
        raise TrainingError("policy update produced non-finite parameters")
    return out


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's <malloc.h>


@functools.cache
def _keep_large_blocks() -> bool:
    """Keep blocks up to 32 MiB in glibc's heap instead of fresh ``mmap`` pages; True if both settings took.

    glibc serves each block of 128 KiB or more by ``mmap`` and trims the
    heap top back to the kernel, so the reuse passes' per-call arrays
    (hidden layers, mixture blocks, ILR's step rows) are page-faulted in
    afresh on every call.  This sets ``M_MMAP_THRESHOLD`` and
    ``M_TRIM_THRESHOLD`` to 32 MiB, the threshold's documented maximum on
    64-bit (mallopt(3)); setting both also turns off glibc's dynamic
    threshold.  The setting is process-wide and forked workers inherit
    it.  Allocation never changes arithmetic, so no result bit moves.
    Without glibc (no ``libc.so.6``, no ``mallopt``, or a call that
    returns 0) it does nothing and returns False.  Runs once per process.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    limit = 32 << 20
    return all(mallopt(param, limit) != 0 for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD))


def train(
    scn: Scenario,
    cfg: TrainConfig,
    macro: int = 0,
    eval_fn: Callable[[np.ndarray, Policy, np.random.Generator], float] | None = None,
) -> TrainHistory:
    """Run the full training loop and return its history.

    ``eval_fn(theta, policy, rng)``, when given, scores the post-update
    parameters each iteration on a dedicated stream (the harness plugs the
    true-model evaluation in here).  ``train`` writes no file: the history
    holds each iteration's parameters.

    First it keeps blocks up to 32 MiB in glibc's heap
    (:func:`_keep_large_blocks`), so the reuse estimators' large
    per-call arrays are not page-faulted in afresh on every iteration.
    That allocator setting is process-wide and stays after ``train``
    returns; without glibc nothing is set.  No result bit depends on it.
    """
    _keep_large_blocks()
    env, policy = scenario_policy(scn, cfg.policy_kind, cfg.hidden_dim)
    theta = policy.init_params(substream(cfg.seed, macro, 0, _INIT), cfg.init_scale)

    data = collect_real_data(
        scn, policy, theta, cfg.real_data_per_period, substream(cfg.seed, macro, 0, _REAL_DATA)
    )
    posterior = bayes.make_posterior(data, *env.model_grid(), burn_in=cfg.burn_in, thin=cfg.thin)

    buffer = estimators.ReplayBuffer(env, policy)
    history = TrainHistory(config=cfg, macro=macro)

    k = 0
    for period in range(1, cfg.periods + 1):
        for _ in range(cfg.iterations_per_period):
            k += 1
            started = time.perf_counter()
            if cfg.estimator == "tlr":
                omega_k = scn.true_model
            else:
                omega_k = bayes.mh_sample(posterior, 1, cfg.seed, macro, k, _POSTERIOR)[0]
            sampled = time.perf_counter()
            trajectories = rollout_batch(
                env, policy, theta, omega_k, cfg.replications, substream(cfg.seed, macro, k, _ROLLOUT)
            )
            buffer.append(theta, omega_k, trajectories)
            rolled_out = time.perf_counter()

            diag: dict = {}
            try:
                grad = estimators.gradient(
                    cfg.estimator, buffer, theta, omega_k, cfg.rolling_window, cfg.gamma, diag_out=diag
                )
            except estimators.EstimatorError as exc:
                raise TrainingError(f"iteration {k}: estimator failed: {exc}") from exc
            if not np.all(np.isfinite(grad)):
                raise TrainingError(
                    f"iteration {k}: non-finite gradient "
                    f"(max ratio {diag['max_ratio']}, ess {diag['ess']})"
                )
            grad_norm = float(np.linalg.norm(grad))
            if cfg.grad_clip is not None and grad_norm > cfg.grad_clip:
                grad = grad * (cfg.grad_clip / grad_norm)
            theta = policy_update(theta, grad, cfg.learning_rate)
            updated = time.perf_counter()

            eval_reward = None
            if eval_fn is not None:
                eval_reward = float(eval_fn(theta, policy, substream(cfg.seed, macro, k, _EVAL)))
            finished = time.perf_counter()

            history.iterations.append(
                IterationRecord(
                    iteration=k,
                    theta=theta,
                    grad_norm=grad_norm,
                    return_estimate=float(np.mean(returns(trajectories.rewards, cfg.gamma))),
                    max_ratio=diag["max_ratio"],
                    ess=diag["ess"],
                    wall_time=finished - started,
                    posterior_s=0.0 if cfg.estimator == "tlr" else sampled - started,
                    rollout_s=rolled_out - sampled,
                    gradient_s=updated - rolled_out,
                    eval_s=0.0 if eval_fn is None else finished - updated,
                    eval_reward=eval_reward,
                )
            )

        acceptance = bayes.mean_acceptance(posterior)  # of this period's draws: the update resets the counts
        new_data = collect_real_data(
            scn, policy, theta, cfg.real_data_per_period, substream(cfg.seed, macro, period, _REAL_DATA)
        )
        posterior = bayes.update_dataset(posterior, new_data)
        history.periods.append(PeriodRecord(period, len(posterior.dataset), acceptance))
    history.dataset = posterior.dataset
    return history


def write_history(history: TrainHistory, out_dir: Path) -> None:
    """Write the run's ``history.csv``, ``periods.csv`` and ``timings.csv`` into ``out_dir``.

    ``history.csv`` holds the per-iteration diagnostics, with an
    ``eval_reward`` column when the run scored its iterations (an
    ``eval_fn`` was given); ``periods.csv`` the per-period dataset size and
    mean MCMC acceptance of the data-backed channels.  Wall seconds of each
    phase and of the whole iteration go to ``timings.csv``, the one
    non-deterministic output, so the other two stay byte-identical across
    reruns.
    """
    with_eval = any(rec.eval_reward is not None for rec in history.iterations)
    header = ["iteration", "estimator", "grad_norm", "return_estimate", "max_ratio", "ess"]
    write_csv(
        out_dir / "history.csv",
        header + ["eval_reward"] if with_eval else header,
        (
            [rec.iteration, history.config.estimator, rec.grad_norm, rec.return_estimate, rec.max_ratio, rec.ess]
            + ([rec.eval_reward] if with_eval else [])
            for rec in history.iterations
        ),
    )
    write_csv(
        out_dir / "periods.csv",
        ["period", "dataset_size", "mean_acceptance"],
        ((rec.period, rec.dataset_size, rec.mean_acceptance) for rec in history.periods),
    )
    write_csv(
        out_dir / "timings.csv",
        ["iteration", "posterior_s", "rollout_s", "gradient_s", "eval_s", "wall_s"],
        (
            (rec.iteration, rec.posterior_s, rec.rollout_s, rec.gradient_s, rec.eval_s, rec.wall_time)
            for rec in history.iterations
        ),
    )
