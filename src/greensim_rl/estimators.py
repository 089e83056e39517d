"""Likelihood-ratio policy-gradient estimators over a replay buffer.

Every iteration of training leaves behind a record ``(theta_i, omega_i,
trajectories)``.  To estimate the gradient at the current pair
``(theta_k, omega_k)``, old trajectories are reweighted by ratios of
trajectory densities:

* ``pg_gradient`` -- plain on-policy REINFORCE with reward-to-go, using
  only the current record.
* ``ilr_gradient`` -- every record reweighted by its individual ratio
  ``D_k(tau) / D_i(tau)`` (unbounded; variance grows as the search moves
  away from old pairs).
* ``mlr_gradient`` -- records in a rolling window reweighted by the
  mixture ratio ``f_k(tau) = D_k(tau) / sum_i alpha_i D_i(tau)`` with
  ``alpha_i`` proportional to the replication counts.  ``f_k`` never
  exceeds ``1/alpha_k`` because the target is itself a mixture component.
* ``tlr_gradient`` -- the mixture ratio under a shared transition model,
  where transition densities cancel and only policy factors remain.

All density arithmetic happens in log space with a single exponentiation
at the end; trajectory densities are *relative*: the initial-state factor
and any change-of-variable terms shared by every (policy, model) pair are
omitted, which leaves every ratio exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .core import Environment, Policy, Trajectory, reward_to_go

__all__ = [
    "BufferRecord",
    "EstimatorError",
    "MixtureWeights",
    "ReplayBuffer",
    "ilr_gradient",
    "ilr_mean_estimate",
    "mixture_logdensity",
    "mlr_gradient",
    "mlr_ratio",
    "mlr_ratios_batch",
    "pg_gradient",
    "tlr_gradient",
    "traj_rel_logdensity",
    "write_diagnostics_csv",
]


class EstimatorError(RuntimeError):
    """A density or buffer precondition was violated."""


@dataclass(frozen=True)
class MixtureWeights:
    """Convex weights of the mixture proposal, one per active record."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        if alphas.ndim != 1 or alphas.size == 0:
            raise ValueError("alphas must be a nonempty vector")
        if np.any(alphas <= 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(float(np.sum(alphas)) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "MixtureWeights":
        counts = np.asarray(counts, dtype=np.float64)
        return cls(counts / np.sum(counts))


def _flatten_trajectories(trajectories: Sequence[Trajectory]):
    """Step-level arrays (states, actions, next_states, trajectory index)."""
    states, actions, nexts, idx = [], [], [], []
    for j, traj in enumerate(trajectories):
        if traj.n_steps:
            states.append(traj.states[:-1])
            actions.append(traj.actions)
            nexts.append(traj.states[1:])
            idx.append(np.full(traj.n_steps, j))
    if not states:
        dim = trajectories[0].states.shape[1]
        return (
            np.zeros((0, dim)),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, dim)),
            np.zeros(0, dtype=np.int64),
        )
    return (
        np.concatenate(states),
        np.concatenate(actions),
        np.concatenate(nexts),
        np.concatenate(idx),
    )


class BufferRecord:
    """One iteration's policy, model draw and generated trajectories."""

    def __init__(self, theta, omega, trajectories: Sequence[Trajectory], iteration: int):
        if len(trajectories) == 0:
            raise ValueError("a buffer record needs at least one trajectory")
        for traj in trajectories:
            if traj.provenance != -1 and traj.provenance != iteration:
                raise ValueError(
                    f"trajectory provenance {traj.provenance} does not match record iteration {iteration}"
                )
        # Frozen in place: the buffer's density memos assume a record's
        # pair never changes, and the trainer's identity shortcut needs the
        # caller's array itself, not a copy.
        self.theta = np.asarray(theta, dtype=np.float64)
        self.theta.setflags(write=False)
        self.omega = omega
        self.trajectories = tuple(trajectories)
        self.iteration = int(iteration)
        self._flat: tuple | None = None
        self._rtg: dict[float, np.ndarray] = {}
        self._returns: dict[float, np.ndarray] = {}

    @property
    def n_i(self) -> int:
        return len(self.trajectories)

    def flat_steps(self):
        """Concatenated (states, actions, next_states, local traj index)."""
        if self._flat is None:
            self._flat = _flatten_trajectories(self.trajectories)
        return self._flat

    def rtg(self, gamma: float) -> np.ndarray:
        """Concatenated reward-to-go per step, in flat_steps order."""
        if gamma not in self._rtg:
            parts = [reward_to_go(t.rewards, gamma) for t in self.trajectories if t.n_steps]
            self._rtg[gamma] = np.concatenate(parts) if parts else np.zeros(0)
        return self._rtg[gamma]

    def returns(self, gamma: float) -> np.ndarray:
        if gamma not in self._returns:
            rtgs = [reward_to_go(t.rewards, gamma) for t in self.trajectories]
            self._returns[gamma] = np.array([r[0] if r.size else 0.0 for r in rtgs])
        return self._returns[gamma]


def _memo_hit(entry: tuple | None, env: Environment | None, policy: Policy) -> bool:
    """A density memo is valid only for the exact objects it was computed with."""
    return entry is not None and entry[0] is env and entry[1] is policy


class ReplayBuffer:
    """Ordered records with contiguous iteration indices 1..k.

    Also memoizes densities that never change once a record is written,
    because a record's generating pair is fixed:

    * each record's log density under its own pair, which the
      individual-ratio estimator reuses every iteration;
    * the rolling window's block of ``log D_i(tau_j)`` (record ``i``'s
      pair, trajectory ``j`` of any window record), one block per density
      kind (full, or policy-only for ``tlr``), which the mixture
      estimators extend by the new records' rows and columns instead of
      recomputing.

    Every memo is validated against the exact environment and policy
    objects it was computed with.
    """

    def __init__(self, records: Sequence[BufferRecord] = ()):
        self.records: list[BufferRecord] = []
        self._own_logdens: dict[int, tuple[Environment, Policy, np.ndarray]] = {}
        # policy_only -> (env, policy, lo, hi, block over records[lo:hi])
        self._window_logdens: dict[bool, tuple] = {}
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: BufferRecord) -> None:
        expected = len(self.records) + 1
        if record.iteration != expected:
            raise ValueError(f"expected iteration {expected}, got {record.iteration}")
        self.records.append(record)

    def window(self, size: int) -> list[BufferRecord]:
        if size < 1:
            raise ValueError("window size must be >= 1")
        return self.records[-size:]

    def total_trajectories(self) -> int:
        return sum(r.n_i for r in self.records)

    def own_logdensity(self, index: int, env: Environment | None, policy: Policy) -> np.ndarray:
        record = self.records[index]
        entry = self._own_logdens.get(index)
        if _memo_hit(entry, env, policy):
            return entry[2]
        value = _record_logdensity(record, record.theta, record.omega, env, policy)
        self._own_logdens[index] = (env, policy, value)
        return value

    def window_logdensities(
        self, size: int, env: Environment | None, policy: Policy, policy_only: bool
    ) -> np.ndarray:
        """``log D_i(tau_j)`` over ``window(size)``, shape (records, trajectories).

        Row ``i`` is the ``i``-th window record's pair; columns are the
        window's trajectories in record order.  Only records appended since
        the last call are evaluated: each one's row over every window
        trajectory, and each older record's column over the new records'
        trajectories.  Records that left the window are sliced off; a
        different env/policy object or a window start left of the memo's
        rebuilds the block.
        """
        hi = len(self.records)
        lo = hi - len(self.window(size))
        entry = self._window_logdens.get(policy_only)
        if _memo_hit(entry, env, policy) and entry[2] <= lo < entry[3]:
            _, _, old_lo, mid, block = entry
            dropped = sum(r.n_i for r in self.records[old_lo:lo])
            block = block[lo - old_lo :, dropped:]
        else:
            mid, block = lo, np.zeros((0, 0))
        block = _extend_block(
            block, self.records[lo:mid], self.records[mid:hi], env, policy, policy_only
        )
        block.setflags(write=False)
        self._window_logdens[policy_only] = (env, policy, lo, hi, block)
        return block


# --- density plumbing --------------------------------------------------------


def _segment_sum(values: np.ndarray, segment: np.ndarray, n_segments: int) -> np.ndarray:
    return np.bincount(segment, weights=values, minlength=n_segments)


def _steps_logdensity(
    states, actions, next_states, theta, omega, env: Environment | None, policy: Policy, policy_only: bool
) -> np.ndarray:
    lp = policy.log_prob_batch(theta, states, actions)
    if not policy_only:
        lp = lp + env.transition_logpdf_batch(states, actions, next_states, omega)
    return lp


def _record_logdensity(
    record: BufferRecord, theta, omega, env, policy, policy_only: bool = False
) -> np.ndarray:
    states, actions, nexts, idx = record.flat_steps()
    if states.shape[0] == 0:
        return np.zeros(record.n_i)
    per_step = _steps_logdensity(states, actions, nexts, theta, omega, env, policy, policy_only)
    return _segment_sum(per_step, idx, record.n_i)


def _log_mixture(log_densities: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """log sum_i alpha_i exp(logD_i) along axis 0, safe for -inf entries."""
    weighted = log_densities + np.log(alphas)[:, None]
    peak = np.max(weighted, axis=0)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_peak + np.log(np.sum(np.exp(weighted - safe_peak[None, :]), axis=0))
    return np.where(np.isfinite(peak), out, -np.inf)


def traj_rel_logdensity(
    traj: Trajectory, theta, omega, env: Environment, policy: Policy
) -> float:
    """Relative log density of a trajectory under ``(theta, omega)``.

    Sum over steps of the action log probability plus the transition log
    density; -inf when any step has zero density.  A stepless trajectory
    has relative log density 0.
    """
    if traj.n_steps == 0:
        return 0.0
    per_step = _steps_logdensity(
        traj.states[:-1], traj.actions, traj.states[1:], theta, omega, env, policy, False
    )
    return float(np.sum(per_step))


def mixture_logdensity(
    traj: Trajectory, components, weights: MixtureWeights, env: Environment, policy: Policy
) -> float:
    """Log of the mixture density ``sum_i alpha_i D_i(traj)``."""
    if len(components) != weights.alphas.size:
        raise ValueError("one weight per component required")
    logd = np.array([traj_rel_logdensity(traj, th, om, env, policy) for th, om in components])
    return float(_log_mixture(logd[:, None], weights.alphas)[0])


def mlr_ratios_batch(
    trajectories: Sequence[Trajectory],
    target,
    components,
    weights: MixtureWeights,
    env: Environment,
    policy: Policy,
) -> np.ndarray:
    """Mixture likelihood ratios for many trajectories at once."""
    if len(components) != weights.alphas.size:
        raise ValueError("one weight per component required")
    states, actions, nexts, step_traj = _flatten_trajectories(trajectories)
    n_traj = len(trajectories)
    log_dens = np.empty((len(components), n_traj))
    for i, (theta_i, omega_i) in enumerate(components):
        per_step = _steps_logdensity(states, actions, nexts, theta_i, omega_i, env, policy, False)
        log_dens[i] = _segment_sum(per_step, step_traj, n_traj)
    log_target = _segment_sum(
        _steps_logdensity(states, actions, nexts, target[0], target[1], env, policy, False),
        step_traj,
        n_traj,
    )
    log_mix = _log_mixture(log_dens, weights.alphas)
    dead = log_target == -np.inf
    if np.any((log_mix == -np.inf) & ~dead):
        raise EstimatorError(
            "mixture density is zero for a trajectory the target can generate "
            "(target pair is not represented in the mixture)"
        )
    return np.where(dead, 0.0, np.exp(log_target - np.where(dead, 0.0, log_mix)))


def mlr_ratio(
    traj: Trajectory, target, components, weights: MixtureWeights, env: Environment, policy: Policy
) -> float:
    """Mixture likelihood ratio ``D_target(traj) / sum_i alpha_i D_i(traj)``.

    When the target pair is one of the components with weight ``alpha``,
    the ratio is bounded by ``1/alpha``.
    """
    return float(mlr_ratios_batch([traj], target, components, weights, env, policy)[0])


# --- gradient estimators -----------------------------------------------------


def _per_traj_weights(
    records: Sequence[BufferRecord], traj_weights: Sequence[np.ndarray] | None
) -> np.ndarray:
    """Within-record trajectory weights, default 1/n_i, concatenated."""
    if traj_weights is None:
        return np.concatenate([np.full(r.n_i, 1.0 / r.n_i) for r in records])
    if len(traj_weights) != len(records):
        raise ValueError("one weight array per record required")
    parts = []
    for record, w in zip(records, traj_weights):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (record.n_i,):
            raise ValueError("weight array shape must match the record's trajectory count")
        parts.append(w)
    return np.concatenate(parts)


def _stack_steps(records: Sequence[BufferRecord]):
    """Step-level arrays of a record selection, from each record's flat steps.

    Returns (states, actions, next_states, step_traj, n_traj) where
    ``step_traj`` maps each step row to its trajectory's index in the
    selection.
    """
    states, actions, nexts, step_traj = [], [], [], []
    offset = 0
    for record in records:
        s, a, ns, local = record.flat_steps()
        states.append(s)
        actions.append(a)
        nexts.append(ns)
        step_traj.append(local + offset)
        offset += record.n_i
    return (
        np.concatenate(states),
        np.concatenate(actions),
        np.concatenate(nexts),
        np.concatenate(step_traj),
        offset,
    )


def _concat_flat(records: Sequence[BufferRecord], gamma: float):
    """Flatten a record selection into step-level arrays.

    Returns (states, actions, next_states, step_traj, rtg, n_traj) where
    ``step_traj`` maps each step row to its global trajectory index.
    """
    states, actions, nexts, step_traj, n_traj = _stack_steps(records)
    rtg = np.concatenate([record.rtg(gamma) for record in records])
    return states, actions, nexts, step_traj, rtg, n_traj


def _extend_block(
    block: np.ndarray,
    old: Sequence[BufferRecord],
    new: Sequence[BufferRecord],
    env: Environment | None,
    policy: Policy,
    policy_only: bool,
) -> np.ndarray:
    """Grow ``log D_i(tau_j)`` over ``old`` by the records in ``new``.

    ``block`` holds old records' pairs against old trajectories.  Each
    old record adds a column segment over the new trajectories and each
    new record a full row, so appending one record to a window of ``w``
    costs ``2w - 1`` record-by-record blocks instead of ``w**2``.
    """
    if not new:
        return block
    records = [*old, *new]
    n_old = block.shape[1]
    out = np.empty((len(records), n_old + sum(r.n_i for r in new)))
    out[: len(old), :n_old] = block
    states, actions, nexts, step_traj, n_new = _stack_steps(new)
    for i, record in enumerate(old):
        per_step = _steps_logdensity(
            states, actions, nexts, record.theta, record.omega, env, policy, policy_only
        )
        out[i, n_old:] = _segment_sum(per_step, step_traj, n_new)
    states, actions, nexts, step_traj, n_traj = _stack_steps(records)
    for i, record in enumerate(new, start=len(old)):
        per_step = _steps_logdensity(
            states, actions, nexts, record.theta, record.omega, env, policy, policy_only
        )
        out[i] = _segment_sum(per_step, step_traj, n_traj)
    return out


def _score_weighted_gradient(
    states, actions, step_traj, rtg, theta_k, policy: Policy, traj_coef: np.ndarray
) -> np.ndarray:
    if states.shape[0] == 0:
        return np.zeros(policy.param_dim)
    step_weight = traj_coef[step_traj] * rtg
    return policy.weighted_score_sum(theta_k, states, actions, step_weight)


def _fill_diag(diag_out: dict | None, ratios: np.ndarray) -> None:
    """Per-trajectory ratios, their maximum and effective sample size."""
    if diag_out is None:
        return
    diag_out["ratios"] = ratios
    total = float(np.sum(ratios))
    total_sq = float(np.sum(ratios**2))
    diag_out["max_ratio"] = float(np.max(ratios)) if ratios.size else 0.0
    diag_out["ess"] = total**2 / total_sq if total_sq > 0 else 0.0


def pg_gradient(
    record: BufferRecord,
    theta,
    policy: Policy,
    gamma: float = 1.0,
    traj_weights: np.ndarray | None = None,
    diag_out: dict | None = None,
) -> np.ndarray:
    """On-policy gradient: average of score times reward-to-go."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.array_equal(theta, record.theta):
        raise EstimatorError("pg_gradient requires the record's own policy parameters")
    coef = _per_traj_weights([record], None if traj_weights is None else [traj_weights])
    states, actions, nexts, step_traj, rtg, _ = _concat_flat([record], gamma)
    _fill_diag(diag_out, np.ones(record.n_i))
    return _score_weighted_gradient(states, actions, step_traj, rtg, theta, policy, coef)


def ilr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    env: Environment,
    policy: Policy,
    gamma: float = 1.0,
    traj_weights: Sequence[np.ndarray] | None = None,
    diag_out: dict | None = None,
) -> np.ndarray:
    """Individual-ratio gradient over every record in the buffer."""
    if len(buffer) == 0:
        raise EstimatorError("buffer is empty")
    records = buffer.records
    k = len(records)
    own = np.concatenate([buffer.own_logdensity(i, env, policy) for i in range(k)])
    if np.any(own == -np.inf):
        raise EstimatorError("a record assigns zero density to its own trajectory")
    states, actions, nexts, step_traj, rtg, n_traj = _concat_flat(records, gamma)
    target = _segment_sum(
        _steps_logdensity(states, actions, nexts, theta_k, omega_k, env, policy, False),
        step_traj,
        n_traj,
    )
    ratios = np.exp(target - own)
    coef = (1.0 / k) * _per_traj_weights(records, traj_weights) * ratios
    _fill_diag(diag_out, ratios)
    return _score_weighted_gradient(states, actions, step_traj, rtg, theta_k, policy, coef)


def ilr_mean_estimate(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    gamma: float,
    env: Environment,
    policy: Policy,
    traj_weights: Sequence[np.ndarray] | None = None,
) -> float:
    """Individual-ratio estimate of the expected return at ``(theta_k, omega_k)``."""
    if len(buffer) == 0:
        raise EstimatorError("buffer is empty")
    records = buffer.records
    k = len(records)
    own = np.concatenate([buffer.own_logdensity(i, env, policy) for i in range(k)])
    if np.any(own == -np.inf):
        raise EstimatorError("a record assigns zero density to its own trajectory")
    states, actions, nexts, step_traj, _, n_traj = _concat_flat(records, gamma)
    target = _segment_sum(
        _steps_logdensity(states, actions, nexts, theta_k, omega_k, env, policy, False),
        step_traj,
        n_traj,
    )
    ratios = np.exp(target - own)
    weights = _per_traj_weights(records, traj_weights)
    returns = np.concatenate([r.returns(gamma) for r in records])
    return float(np.sum((1.0 / k) * weights * ratios * returns))


def _mixture_window_gradient(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    rolling_window: int,
    env: Environment | None,
    policy: Policy,
    gamma: float,
    traj_weights: Sequence[np.ndarray] | None,
    diag_out: dict | None,
    policy_only: bool,
) -> np.ndarray:
    if len(buffer) == 0:
        raise EstimatorError("buffer is empty")
    if rolling_window < 1:
        raise EstimatorError("rolling window must be >= 1")
    records = buffer.window(rolling_window)
    w = len(records)
    alphas = MixtureWeights.from_counts([r.n_i for r in records]).alphas
    states, actions, nexts, step_traj, rtg, n_traj = _concat_flat(records, gamma)
    log_dens = buffer.window_logdensities(rolling_window, env, policy, policy_only)
    last = records[-1]
    if theta_k is last.theta and (policy_only or omega_k is last.omega):
        log_target = log_dens[-1]
    else:
        log_target = _segment_sum(
            _steps_logdensity(states, actions, nexts, theta_k, omega_k, env, policy, policy_only),
            step_traj,
            n_traj,
        )
    log_mix = _log_mixture(log_dens, alphas)
    dead_target = log_target == -np.inf
    if np.any((log_mix == -np.inf) & ~dead_target):
        raise EstimatorError(
            "mixture density is zero for a trajectory the target can generate "
            "(target pair is not represented in the mixture)"
        )
    safe_mix = np.where(dead_target, 0.0, log_mix)  # avoid -inf minus -inf
    f = np.where(dead_target, 0.0, np.exp(log_target - safe_mix))
    coef = (1.0 / w) * _per_traj_weights(records, traj_weights) * f
    _fill_diag(diag_out, f)
    return _score_weighted_gradient(states, actions, step_traj, rtg, theta_k, policy, coef)


def mlr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    rolling_window: int,
    env: Environment,
    policy: Policy,
    gamma: float = 1.0,
    traj_weights: Sequence[np.ndarray] | None = None,
    diag_out: dict | None = None,
) -> np.ndarray:
    """Mixture-ratio gradient over the most recent window of records.

    The mixture components are exactly the window records, weighted in
    proportion to their replication counts.  Component densities are
    memoised in the buffer (a record's pair never changes), so a call
    evaluates only the newly appended records' rows and columns; the
    ratios themselves are formed against the current target pair on every
    call.
    """
    return _mixture_window_gradient(
        buffer, theta_k, omega_k, rolling_window, env, policy, gamma, traj_weights, diag_out, False
    )


def tlr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    rolling_window: int,
    policy: Policy,
    gamma: float = 1.0,
    traj_weights: Sequence[np.ndarray] | None = None,
    diag_out: dict | None = None,
) -> np.ndarray:
    """Mixture-ratio gradient when all records share one transition model.

    Shared transition factors (and the initial-state factor) cancel
    between numerator and denominator, so ratios reduce to products of
    policy probabilities; no transition model is needed at all.
    """
    return _mixture_window_gradient(
        buffer, theta_k, None, rolling_window, None, policy, gamma, traj_weights, diag_out, True
    )


def write_diagnostics_csv(rows: Sequence[dict], fh: IO[str]) -> None:
    """Per-iteration variance diagnostics: gradient norm, max ratio, ESS."""
    writer = csv.writer(fh)
    writer.writerow(["iteration", "estimator", "grad_norm", "max_ratio", "ess"])
    for row in rows:
        writer.writerow(
            [
                row["iteration"],
                row["estimator"],
                repr(float(row["grad_norm"])),
                repr(float(row["max_ratio"])),
                repr(float(row["ess"])),
            ]
        )
