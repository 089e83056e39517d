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

import csv
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import bayes, estimators
from .bioenv import ChromatographyEnv, Scenario, collect_real_data
from .core import Policy, rollout_batch, substream, trajectory_return
from .policy import POLICY_KINDS, make_policy, purification_features, save_params

__all__ = [
    "ESTIMATOR_KINDS",
    "IterationRecord",
    "PeriodRecord",
    "TrainConfig",
    "TrainHistory",
    "TrainingError",
    "load_train_config",
    "policy_update",
    "train",
    "write_history_csv",
    "write_periods_csv",
]

ESTIMATOR_KINDS = ("pg", "ilr", "mlr", "tlr")

# Stream purposes within an iteration (the third path component is the
# iteration index, or the period index for real-world data collection).
_INIT, _REAL_DATA, _POSTERIOR, _ROLLOUT, _EVAL = 0, 1, 2, 3, 4


# Accepted Python types per annotated numeric TrainConfig field (bool is rejected separately).
_NUMERIC_FIELD_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


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
    burn_in: int = 500
    thin: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = _NUMERIC_FIELD_TYPES.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name in (
            "periods", "iterations_per_period", "replications", "real_data_per_period", "hidden_dim", "thin"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("seed", "burn_in"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
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
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("training config must be a JSON object")
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown training config fields: {sorted(unknown)}")
    return TrainConfig(**obj)


@dataclass
class IterationRecord:
    iteration: int
    theta: np.ndarray            # parameters after this iteration's update
    grad_norm: float
    return_estimate: float       # mean return of this iteration's rollouts
    max_ratio: float
    ess: float
    wall_time: float
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

    @property
    def final_theta(self) -> np.ndarray:
        return self.iterations[-1].theta

    def eval_curve(self) -> np.ndarray:
        return np.array([rec.eval_reward for rec in self.iterations], dtype=np.float64)


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


def _compute_gradient(
    cfg: TrainConfig,
    buffer: estimators.ReplayBuffer,
    theta: np.ndarray,
    omega_k,
    env: ChromatographyEnv,
    policy: Policy,
    diag: dict,
) -> np.ndarray:
    if cfg.estimator == "pg":
        return estimators.pg_gradient(buffer.records[-1], theta, policy, cfg.gamma, diag_out=diag)
    if cfg.estimator == "ilr":
        return estimators.ilr_gradient(buffer, theta, omega_k, env, policy, cfg.gamma, diag_out=diag)
    if cfg.estimator == "mlr":
        return estimators.mlr_gradient(
            buffer, theta, omega_k, cfg.rolling_window, env, policy, cfg.gamma, diag_out=diag
        )
    return estimators.tlr_gradient(
        buffer, theta, cfg.rolling_window, policy, cfg.gamma, diag_out=diag
    )


def train(
    scn: Scenario,
    cfg: TrainConfig,
    macro: int = 0,
    eval_fn: Callable[[np.ndarray, Policy, np.random.Generator], float] | None = None,
    checkpoint_dir: str | Path | None = None,
) -> TrainHistory:
    """Run the full training loop and return its history.

    ``eval_fn(theta, policy, rng)``, when given, scores the post-update
    parameters each iteration on a dedicated stream (the harness plugs the
    true-model evaluation in here).  ``checkpoint_dir`` persists per-
    iteration parameters under ``iter_<k>/params.json``.
    """
    env = ChromatographyEnv(scn)
    policy = make_policy(
        cfg.policy_kind,
        purification_features(scn.p_bar, scn.i_bar, env.horizon()),
        env.action_count(),
        cfg.hidden_dim,
    )
    theta = policy.init_params(substream(cfg.seed, macro, 0, _INIT), cfg.init_scale)

    data = collect_real_data(
        scn, policy, theta, cfg.real_data_per_period, substream(cfg.seed, macro, 0, _REAL_DATA)
    )
    posterior = bayes.make_posterior(
        data, n_steps=3, n_actions=env.action_count(), burn_in=cfg.burn_in, thin=cfg.thin
    )

    buffer = estimators.ReplayBuffer()
    history = TrainHistory(config=cfg, macro=macro)
    ckpt_root = Path(checkpoint_dir) if checkpoint_dir is not None else None

    k = 0
    for period in range(1, cfg.periods + 1):
        for _ in range(cfg.iterations_per_period):
            k += 1
            started = time.perf_counter()
            if cfg.estimator == "tlr":
                omega_k = scn.true_model
            else:
                omega_k = bayes.mh_sample(posterior, 1, substream(cfg.seed, macro, k, _POSTERIOR))[0]
            trajectories = rollout_batch(
                env,
                policy,
                theta,
                omega_k,
                cfg.replications,
                substream(cfg.seed, macro, k, _ROLLOUT),
                provenance=k,
            )
            buffer.append(estimators.BufferRecord(theta, omega_k, trajectories, k))

            diag: dict = {}
            try:
                grad = _compute_gradient(cfg, buffer, theta, omega_k, env, policy, diag)
            except estimators.EstimatorError as exc:
                raise TrainingError(f"iteration {k}: estimator failed: {exc}") from exc
            if not np.all(np.isfinite(grad)):
                raise TrainingError(
                    f"iteration {k}: non-finite gradient "
                    f"(max ratio {diag.get('max_ratio')}, ess {diag.get('ess')})"
                )
            grad_norm = float(np.linalg.norm(grad))
            if cfg.grad_clip is not None and grad_norm > cfg.grad_clip:
                grad = grad * (cfg.grad_clip / grad_norm)
            theta = policy_update(theta, grad, cfg.learning_rate)

            eval_reward = None
            if eval_fn is not None:
                eval_reward = float(eval_fn(theta, policy, substream(cfg.seed, macro, k, _EVAL)))

            returns = np.array([trajectory_return(t, cfg.gamma) for t in trajectories])
            history.iterations.append(
                IterationRecord(
                    iteration=k,
                    theta=theta,
                    grad_norm=grad_norm,
                    return_estimate=float(np.mean(returns)),
                    max_ratio=float(diag.get("max_ratio", 1.0)),
                    ess=float(diag.get("ess", cfg.replications)),
                    wall_time=time.perf_counter() - started,
                    eval_reward=eval_reward,
                )
            )
            if ckpt_root is not None:
                step_dir = ckpt_root / f"iter_{k}"
                step_dir.mkdir(parents=True, exist_ok=True)
                save_params(
                    step_dir / "params.json", theta, cfg.policy_kind, meta={"hidden_dim": cfg.hidden_dim}
                )

        # prior-only channels always accept their independence proposal: leave them out
        rates = [
            row["accept_rate"]
            for row in bayes.acceptance_rows(posterior)
            if row["n_obs"] > 0 and row["proposed"] > 0
        ]
        new_data = collect_real_data(
            scn, policy, theta, cfg.real_data_per_period, substream(cfg.seed, macro, period, _REAL_DATA)
        )
        posterior = bayes.update_dataset(posterior, new_data)
        history.periods.append(
            PeriodRecord(
                period=period,
                dataset_size=len(posterior.dataset),
                mean_acceptance=float(np.mean(rates)) if rates else 0.0,
            )
        )
    return history


def write_history_csv(history: TrainHistory, fh: IO[str]) -> None:
    """Per-iteration diagnostics; wall times stay out so the file is deterministic."""
    writer = csv.writer(fh)
    writer.writerow(["iteration", "estimator", "grad_norm", "return_estimate", "max_ratio", "ess"])
    for rec in history.iterations:
        writer.writerow(
            [
                rec.iteration,
                history.config.estimator,
                repr(rec.grad_norm),
                repr(rec.return_estimate),
                repr(rec.max_ratio),
                repr(rec.ess),
            ]
        )


def write_periods_csv(history: TrainHistory, fh: IO[str]) -> None:
    """Per-period dataset size and mean MCMC acceptance of the data-backed channels."""
    writer = csv.writer(fh)
    writer.writerow(["period", "dataset_size", "mean_acceptance"])
    for rec in history.periods:
        writer.writerow([rec.period, rec.dataset_size, repr(rec.mean_acceptance)])
