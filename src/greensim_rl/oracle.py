"""Exact ground truth on tiny tabular MDPs.

Full trajectory enumeration gives exact expected returns and exact policy
gradients on problems small enough to enumerate, which is what the
likelihood-ratio estimators are verified against: every estimator's exact
expectation (computed by replacing each buffer record's sampled
trajectories with the full enumeration, whose generating probabilities
travel into the buffer as the record's trajectory weights) must reproduce
the exact gradient.

States are single-coordinate vectors holding the state index as a float;
policies featurize them however they like (one-hot works well).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Environment, Policy, TrajectoryBatch, returns, reward_to_go, sample_categorical
from .estimators import ReplayBuffer, gradient, ilr_mean_estimate
from .policy import LinearSoftmaxPolicy, onehot_features

__all__ = [
    "TabularEnv",
    "TabularMDP",
    "enumerate_trajectories",
    "estimator_exact_expectation",
    "exact_expected_return",
    "exact_policy_gradient",
    "run_oracle_checks",
]

@dataclass(frozen=True)
class TabularMDP:
    """A small finite MDP: transition tensor, reward table, initial law.

    ``transition[s, a, s']`` rows must be probability vectors;
    ``rewards[s, a]`` is the step reward; ``initial`` the distribution of
    the first state.  Sizes are capped (at most 5 states and actions,
    horizon at most 4) because everything downstream enumerates.
    """

    transition: np.ndarray
    rewards: np.ndarray
    initial: np.ndarray
    horizon: int

    def __post_init__(self):
        transition = np.asarray(self.transition, dtype=np.float64)
        rewards = np.asarray(self.rewards, dtype=np.float64)
        initial = np.asarray(self.initial, dtype=np.float64)
        s, a, s2 = transition.shape
        if s != s2 or rewards.shape != (s, a) or initial.shape != (s,):
            raise ValueError("inconsistent table shapes")
        if s > 5 or a > 5:
            raise ValueError("at most 5 states and 5 actions")
        if not 1 <= self.horizon <= 4:
            raise ValueError("horizon must be in 1..4")
        if not np.all(np.isfinite(transition)) or not np.all(np.isfinite(rewards)):
            raise ValueError("tables must be finite")
        if np.any(transition < 0) or np.any(initial < 0):
            raise ValueError("probabilities must be nonnegative")
        if np.max(np.abs(transition.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1")
        if abs(float(initial.sum()) - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
        for arr in (transition, rewards, initial):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "initial", initial)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


class TabularEnv(Environment):
    """Environment adapter; ``omega`` is a transition tensor.

    The tensor passed at sampling/density time replaces the MDP's own, so
    one environment serves a whole family of transition models over the
    same state/action space (exactly what the ratio estimators need).
    """

    def __init__(self, mdp: TabularMDP):
        self.mdp = mdp

    def horizon(self) -> int:
        return self.mdp.horizon

    def action_count(self) -> int:
        return self.mdp.n_actions

    def sample_initial_batch(self, n, rng) -> np.ndarray:
        return rng.choice(self.mdp.n_states, size=n, p=self.mdp.initial).astype(np.float64)[:, None]

    def sample_transition_batch(self, states, actions, omega, rng) -> np.ndarray:
        rows = np.asarray(omega)[states[:, 0].astype(np.int64), np.asarray(actions, dtype=np.int64)]
        return sample_categorical(rows, rng).astype(np.float64)[:, None]

    def transition_logpdf_batch(self, states, actions, next_states, omegas) -> np.ndarray:
        tensors = np.stack([np.asarray(omega) for omega in omegas])
        p = tensors[
            :,
            states[:, 0].astype(np.int64),
            np.asarray(actions, dtype=np.int64),
            next_states[:, 0].astype(np.int64),
        ]
        with np.errstate(divide="ignore"):
            return np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), -np.inf)

    def reward_batch(self, states, actions) -> np.ndarray:
        return self.mdp.rewards[states[:, 0].astype(np.int64), np.asarray(actions, dtype=np.int64)]


def enumerate_trajectories(
    mdp: TabularMDP, theta, policy: Policy, omega: np.ndarray | None = None
) -> tuple[TrajectoryBatch, np.ndarray]:
    """Every support trajectory as one batch, with its exact probability.

    Only branches of positive probability appear; the returned
    probabilities sum to 1.  ``omega`` overrides the MDP's transition
    tensor (defaults to it).
    """
    transition = mdp.transition if omega is None else np.asarray(omega, dtype=np.float64)
    policy_probs = policy.action_probs_batch(theta, np.arange(mdp.n_states, dtype=np.float64)[:, None])

    # Each path is (states, actions, probability); every round extends each
    # path by one step, in (action, next state) order.
    paths = [([s1], [], float(mdp.initial[s1])) for s1 in range(mdp.n_states) if mdp.initial[s1] > 0.0]
    for _ in range(mdp.horizon - 1):
        longer = []
        for states, actions, prob in paths:
            s = states[-1]
            for a in np.flatnonzero(policy_probs[s] > 0.0):
                for s2 in np.flatnonzero(transition[s, a] > 0.0):
                    step_prob = policy_probs[s, a] * transition[s, a, s2]
                    longer.append((states + [s2], actions + [a], prob * step_prob))
        paths = longer
    states = np.array([p[0] for p in paths], dtype=np.float64)[:, :, None]
    actions = np.array([p[1] for p in paths], dtype=np.int64).reshape(len(paths), mdp.horizon - 1)
    rewards = mdp.rewards[states[:, :-1, 0].astype(np.int64), actions]
    return TrajectoryBatch(states, actions, rewards), np.array([p[2] for p in paths])


def exact_expected_return(mdp: TabularMDP, theta, gamma: float, policy: Policy) -> float:
    """``sum_tau Pr(tau) R(tau)`` by full enumeration."""
    batch, probs = enumerate_trajectories(mdp, theta, policy)
    return float(probs @ returns(batch.rewards, gamma))


def exact_policy_gradient(mdp: TabularMDP, theta, gamma: float, policy: Policy) -> np.ndarray:
    """Exact gradient of the expected return: score times reward-to-go, averaged."""
    batch, probs = enumerate_trajectories(mdp, theta, policy)
    states, actions, _ = batch.step_arrays
    weights = (probs[:, None] * reward_to_go(batch.rewards, gamma)).reshape(-1)
    return policy.weighted_score_sum(theta, states, actions, weights)


# --- exact estimator expectations --------------------------------------------


def _enumerated_buffer(
    mdp: TabularMDP, components: Sequence[tuple[np.ndarray, np.ndarray]], policy: Policy
) -> ReplayBuffer:
    """Replay buffer whose record i holds the full enumeration under
    component i, weighted by the trajectories' generating probabilities."""
    buffer = ReplayBuffer(TabularEnv(mdp), policy)
    for theta_i, omega_i in components:
        buffer.append(theta_i, omega_i, *enumerate_trajectories(mdp, theta_i, policy, omega=omega_i))
    return buffer


def estimator_exact_expectation(
    kind: str,
    mdp: TabularMDP,
    components: Sequence[tuple[np.ndarray, np.ndarray]],
    gamma: float,
    policy: Policy,
    rolling_window: int | None = None,
):
    """Exact expectation of a gradient estimator over its sampling law.

    Every estimator here is linear in each record's empirical trajectory
    measure, so replacing sampled trajectories with the enumerated support
    weighted by exact generating probabilities yields the estimator's
    expectation exactly.  The probabilities travel as the records' weights
    in the buffer, so the estimators are called as training calls them.
    The target pair is the last component.  ``kind`` is one of
    ``pg | ilr | mlr | tlr``; another raises :func:`estimators.gradient`'s
    ``ValueError``.
    """
    buffer = _enumerated_buffer(mdp, components, policy)
    theta_k, omega_k = buffer.records[-1].theta, buffer.records[-1].omega
    window = rolling_window if rolling_window is not None else len(components)
    return gradient(kind, buffer, theta_k, omega_k, window, gamma)


# --- self-check suite (CLI `oracle-check`) ------------------------------------


def _check_setup():
    rng = np.random.default_rng(20240811)
    mdp = TabularMDP(
        transition=np.array(
            [
                [[0.7, 0.3], [0.4, 0.6]],
                [[0.2, 0.8], [0.5, 0.5]],
            ]
        ),
        rewards=np.array([[1.0, -0.5], [0.25, 2.0]]),
        initial=np.array([0.6, 0.4]),
        horizon=3,
    )
    policy = LinearSoftmaxPolicy(onehot_features(2), 2)

    def random_tensor():
        raw = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        return raw / raw.sum(axis=2, keepdims=True)

    components = [
        (0.3 * rng.standard_normal(policy.param_dim), random_tensor()) for _ in range(3)
    ]
    return mdp, policy, components, rng


def run_oracle_checks() -> list[tuple[str, bool, str]]:
    """Run the exactness invariants; returns (name, passed, detail) rows."""
    mdp, policy, components, rng = _check_setup()
    gamma = 0.9
    theta_k, omega_k = components[-1]
    results = []

    enum_batch, probs = enumerate_trajectories(mdp, theta_k, policy, omega=omega_k)
    total = float(probs.sum())
    results.append(
        ("enumeration probabilities sum to 1", abs(total - 1.0) < 1e-10, f"sum={total!r}")
    )

    target_mdp = TabularMDP(omega_k, mdp.rewards, mdp.initial, mdp.horizon)
    exact = exact_policy_gradient(target_mdp, theta_k, gamma, policy)
    h = 1e-6
    fd = np.zeros_like(exact)
    for j in range(exact.size):
        e = np.zeros_like(exact)
        e[j] = h
        fd[j] = (
            exact_expected_return(target_mdp, theta_k + e, gamma, policy)
            - exact_expected_return(target_mdp, theta_k - e, gamma, policy)
        ) / (2 * h)
    err = float(np.max(np.abs(exact - fd)) / max(1.0, float(np.max(np.abs(fd)))))
    results.append(("exact gradient matches finite differences", err < 1e-7, f"rel err={err:.2e}"))

    states, actions, _ = enum_batch.step_arrays
    score_sum = policy.weighted_score_sum(theta_k, states, actions, np.repeat(probs, enum_batch.n_steps))
    score_norm = float(np.max(np.abs(score_sum)))
    results.append(("trajectory score has zero mean", score_norm < 1e-10, f"max |.|={score_norm:.2e}"))

    for kind in ("pg", "ilr", "mlr"):
        est = estimator_exact_expectation(kind, mdp, components, gamma, policy)
        err = float(np.max(np.abs(est - exact)))
        results.append((f"{kind} expectation equals exact gradient", err < 1e-10, f"max err={err:.2e}"))

    shared = components[-1][1]
    tlr_components = [(th, shared) for th, _ in components]
    tlr_mdp = TabularMDP(shared, mdp.rewards, mdp.initial, mdp.horizon)
    tlr_exact = exact_policy_gradient(tlr_mdp, theta_k, gamma, policy)
    est = estimator_exact_expectation("tlr", mdp, tlr_components, gamma, policy)
    err = float(np.max(np.abs(est - tlr_exact)))
    results.append(("tlr expectation equals exact gradient", err < 1e-10, f"max err={err:.2e}"))

    buffer = _enumerated_buffer(mdp, components, policy)
    mean = ilr_mean_estimate(buffer, buffer.records[-1].theta, buffer.records[-1].omega, gamma)
    exact_mean = exact_expected_return(target_mdp, theta_k, gamma, policy)
    err = abs(mean - exact_mean)
    results.append(("ilr mean estimate equals exact return", err < 1e-12, f"err={err:.2e}"))

    return results
