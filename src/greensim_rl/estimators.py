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
omitted, which leaves every ratio exact.  Densities, returns and
reward-to-go are computed per step over a whole
:class:`~greensim_rl.core.TrajectoryBatch` and summed along its rows.
Densities are evaluated for a stack of (policy, model) pairs at once
(:func:`trajectory_logdensity`).  The reuse estimators share one pass: one
policy forward pass at ``theta_k`` over the reused records' batch
(:meth:`~greensim_rl.core.Policy.score_pass`) gives the target's densities
and the score sum that weights each trajectory by its ratio.  Only the ratio
rule differs: ILR divides by the record's own density, MLR and TLR by the
window's mixture.  A newest record whose pair is the target takes the
target's densities as its mixture row, so extending the window's block by
one record takes one policy call and two environment calls (none for the
policy-only kind), whatever the window size.

A :class:`ReplayBuffer` is bound to one environment and one policy when
it is built, so the reuse estimators take only the buffer and the target
pair.  It holds its records' trajectories in one append-only store: the
individual-ratio history and the mixture window are batches of views into
it (:meth:`ReplayBuffer.trajectories`), never concatenations.  The store
also holds each trajectory's within-record weight, ``1/n_i`` unless the
caller gives others when it appends (the enumeration oracle gives exact
generating probabilities); every estimator reads the weights from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Environment, Policy, TrajectoryBatch, returns, reward_to_go

__all__ = [
    "BufferRecord",
    "EstimatorError",
    "ReplayBuffer",
    "gradient",
    "ilr_gradient",
    "ilr_mean_estimate",
    "mlr_gradient",
    "pg_gradient",
    "tlr_gradient",
    "trajectory_logdensity",
]


class EstimatorError(RuntimeError):
    """A density or buffer precondition was violated."""


_BATCH_COLUMNS = ("states", "actions", "rewards")


@dataclass(frozen=True, eq=False)
class BufferRecord:
    """One iteration's policy, model draw, trajectories and their weights (views into the buffer's store)."""

    theta: np.ndarray
    omega: object
    trajectories: TrajectoryBatch
    weights: np.ndarray

    @property
    def n_i(self) -> int:
        return len(self.trajectories)


class ReplayBuffer:
    """Records numbered by append order, bound to one environment and one policy.

    The buffer owns its records' trajectories: :meth:`append` copies each
    batch into an append-only store of columns (states, actions, rewards,
    weights, own log density) that doubles in capacity when full, and
    record ``i`` holds its rows ``_offsets[i]:_offsets[i + 1]``.  The
    weights column holds each trajectory's weight within its record, by
    default ``1/n_i`` for a record of ``n_i`` trajectories.

    Every density the buffer computes is under ``env`` and ``policy``.  It
    memoizes only densities under its records' own pairs, which never
    change once a record is written; target pairs never reach it:

    * each record's log density under its own pair, which the individual
      ratio rule reuses every iteration;
    * the rolling window's block of ``log D_i(tau_j)`` (record ``i``'s
      pair, trajectory ``j`` of any window record), one block per density
      kind (full, or policy-only for ``tlr``), which the mixture ratio
      rule extends by the new records' rows and columns instead of
      recomputing.
    """

    def __init__(self, env: Environment | None, policy: Policy):
        self.env = env
        self.policy = policy
        self.records: list[BufferRecord] = []
        self._offsets = [0]
        self._store: dict[str, np.ndarray] = {}  # column name -> rows, allocated by the first append
        self._own_filled = 0  # records whose own log densities are in the store
        # policy_only -> (lo, hi, block over records[lo:hi])
        self._window_logdens: dict[bool, tuple[int, int, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def append(self, theta, omega, trajectories: TrajectoryBatch, weights=None) -> None:
        """Copy ``trajectories``, generated under ``(theta, omega)``, and their weights in as the next record.

        ``weights`` gives each trajectory's weight in the estimators' sums,
        by default ``1/n_i`` for each of the record's ``n_i`` trajectories.
        A batch with no trajectory, or of another horizon or state dimension
        than the stored ones, or weights that are not ``n_i`` finite
        numbers, raises ``ValueError`` before the buffer changes.  ``theta``
        is frozen in place, not copied: the density memos assume a record's
        pair never changes, and the trainer's identity shortcut needs the
        caller's array.
        """
        theta = np.asarray(theta, dtype=np.float64)
        n = len(trajectories)
        if n == 0:
            raise ValueError("a buffer record needs at least one trajectory")
        if self._store and trajectories.states.shape[1:] != self._store["states"].shape[1:]:
            raise ValueError(
                f"trajectories of shape {trajectories.states.shape} do not match the buffer's "
                f"(horizon, state dim) {self._store['states'].shape[1:]}"
            )
        weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,) or not np.all(np.isfinite(weights)):
            raise ValueError(f"need {n} finite weights, one per trajectory, not shape {weights.shape}")
        new = {name: getattr(trajectories, name) for name in _BATCH_COLUMNS}
        new["weights"] = weights
        new["own_logdens"] = np.full(n, np.nan)  # filled by own_logdensities
        lo, hi = self._offsets[-1], self._offsets[-1] + n
        for name, rows in new.items():
            column = self._store.get(name, rows[:0])
            if hi > len(column):
                grown = np.empty((max(hi, 2 * len(column)), *rows.shape[1:]), dtype=rows.dtype)
                grown[:lo] = column[:lo]
                self._store[name] = column = grown
            column[lo:hi] = rows
        self._offsets.append(hi)
        theta.setflags(write=False)
        i = len(self)
        self.records.append(BufferRecord(theta, omega, self.trajectories(i, i + 1), self.weights(i, i + 1)))

    def trajectories(self, lo: int, hi: int) -> TrajectoryBatch:
        """The trajectories of ``records[lo:hi]``, in record order, as views into the store."""
        rows = slice(self._offsets[lo], self._offsets[hi])
        return TrajectoryBatch(*(self._store[name][rows] for name in _BATCH_COLUMNS))

    def weights(self, lo: int, hi: int) -> np.ndarray:
        """The trajectory weights of ``records[lo:hi]``, in record order, as a view into the store."""
        return self._store["weights"][self._offsets[lo] : self._offsets[hi]]

    def window(self, size: int) -> list[BufferRecord]:
        """The newest ``size`` records (all of them when fewer); ``ValueError`` when ``size < 1``."""
        if size < 1:
            raise ValueError("window size must be >= 1")
        return self.records[-size:]

    def total_trajectories(self) -> int:
        return self._offsets[-1]

    def _logdensity(
        self, batch: TrajectoryBatch, records: Sequence[BufferRecord], policy_only: bool
    ) -> np.ndarray:
        """``log D_i(tau_j)`` for record ``i``'s pair and trajectory ``j`` of ``batch``, in one call."""
        thetas = np.stack([r.theta for r in records])
        omegas = [r.omega for r in records]
        return trajectory_logdensity(batch, thetas, omegas, self.env, self.policy, policy_only)

    def own_logdensities(self) -> np.ndarray:
        """Every trajectory's log density under its own record's pair, in record order.

        Only the records appended since the last call are evaluated, one
        density call each; the result is a read-only view of the store.
        """
        own = self._store["own_logdens"]
        for i in range(self._own_filled, len(self)):
            rows = slice(self._offsets[i], self._offsets[i + 1])
            own[rows] = self._logdensity(self.records[i].trajectories, self.records[i : i + 1], False)[0]
        self._own_filled = len(self)
        own = own[: self._offsets[-1]]
        own.setflags(write=False)
        return own

    def window_logdensities(
        self, lo: int, batch: TrajectoryBatch, policy_only: bool, newest_row: np.ndarray | None
    ) -> np.ndarray:
        """The block ``log D_i(tau_j)`` over ``records[lo:]``, one density kind (full or policy-only).

        ``batch`` is ``trajectories(lo, len(self))``.  The block has shape
        (records, trajectories): row ``i`` is the ``i``-th record's pair, and
        columns are ``batch``'s trajectories.  ``newest_row``, when given,
        is the newest record's row, which the caller already holds.

        Only records appended since the last call are evaluated.  The older
        records' columns over the new trajectories take one density call,
        and the new records' rows over every window trajectory another.
        Appending one record to a window of ``w`` evaluates ``2w - 1``
        record-by-record blocks instead of ``w**2``.  Records that left the
        window are sliced off; a window start left of the memo's rebuilds the
        block.
        """
        hi = len(self.records)
        entry = self._window_logdens.get(policy_only)
        if entry is not None and entry[0] <= lo < entry[1]:
            old_lo, mid, block = entry
            block = block[lo - old_lo :, self._offsets[lo] - self._offsets[old_lo] :]
        else:
            mid, block = lo, np.zeros((0, 0))
        if mid < hi:
            old, new = self.records[lo:mid], self.records[mid:hi]
            n_old = block.shape[1]
            grown = np.empty((hi - lo, len(batch)))
            grown[: len(old), :n_old] = block
            if old:
                grown[: len(old), n_old:] = self._logdensity(self.trajectories(mid, hi), old, policy_only)
            if newest_row is not None:
                grown[-1] = newest_row
                new = new[:-1]
            if new:
                grown[len(old) : len(old) + len(new)] = self._logdensity(batch, new, policy_only)
            block = grown
        block.setflags(write=False)
        self._window_logdens[policy_only] = (lo, hi, block)
        return block


# --- densities -----------------------------------------------------------------


def trajectory_logdensity(
    batch: TrajectoryBatch,
    thetas,
    omegas,
    env: Environment | None,
    policy: Policy,
    policy_only: bool = False,
) -> np.ndarray:
    """Relative log density of each trajectory of ``batch`` under each pair ``(thetas[r], omegas[r])``.

    ``thetas`` stacks R parameter vectors, shape ``(R, param_dim)``, and
    ``omegas`` is a sequence of R transition models.  Per step, the action
    log probability plus (unless ``policy_only``, where ``env`` and
    ``omegas`` are unused) the transition log density, summed along each
    trajectory's row; shape ``(R, n)``.  One policy call and one
    environment call serve all R pairs.  ``-inf`` where a step has zero
    density; a stepless trajectory has relative log density 0.
    """
    states, actions, _ = batch.step_arrays
    return _step_sums(batch, policy.log_prob_batch(thetas, states, actions), omegas, env, policy_only)


def _step_sums(batch: TrajectoryBatch, step_logp: np.ndarray, omegas, env, policy_only: bool) -> np.ndarray:
    """Per-trajectory sums of the policy's step log probabilities ``step_logp``, shape ``(R, n)``.

    ``step_logp`` has one row per pair, ``(R, steps)``; unless ``policy_only``,
    the transition log densities under ``omegas`` are added per step first.
    """
    if step_logp.shape[1] == 0:
        return np.zeros((step_logp.shape[0], len(batch)))
    if not policy_only:
        states, actions, next_states = batch.step_arrays
        step_logp = step_logp + env.transition_logpdf_batch(states, actions, next_states, omegas)
    return step_logp.reshape(step_logp.shape[0], len(batch), batch.n_steps).sum(axis=2)


def _log_mixture(log_densities: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """log sum_i alpha_i exp(logD_i) along axis 0, safe for -inf entries."""
    weighted = log_densities + np.log(alphas)[:, None]
    peak = np.max(weighted, axis=0)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_peak + np.log(np.sum(np.exp(weighted - safe_peak[None, :]), axis=0))
    return np.where(np.isfinite(peak), out, -np.inf)


def _mixture_ratios(log_target: np.ndarray, log_dens: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """``D_target / sum_i alpha_i D_i`` per trajectory; 0 where the target density is 0."""
    log_mix = _log_mixture(log_dens, alphas)
    dead = log_target == -np.inf
    if np.any((log_mix == -np.inf) & ~dead):
        raise EstimatorError(
            "mixture density is zero for a trajectory the target can generate "
            "(target pair is not represented in the mixture)"
        )
    safe_mix = np.where(dead, 0.0, log_mix)  # avoid -inf minus -inf
    return np.where(dead, 0.0, np.exp(log_target - safe_mix))


# --- gradient estimators -----------------------------------------------------


def _step_weights(batch: TrajectoryBatch, gamma: float, traj_coef: np.ndarray) -> np.ndarray:
    """``traj_coef[j] * rtg[j, t]`` per step row of ``batch``: the weights of its score sum."""
    return (traj_coef[:, None] * reward_to_go(batch.rewards, gamma)).reshape(-1)


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
    policy: Policy,
    gamma: float = 1.0,
    diag_out: dict | None = None,
) -> np.ndarray:
    """On-policy gradient at the record's own parameters: the weighted sum of score times reward-to-go."""
    _fill_diag(diag_out, np.ones(record.n_i))
    states, actions, _ = record.trajectories.step_arrays
    step_weight = _step_weights(record.trajectories, gamma, record.weights)
    return policy.weighted_score_sum(record.theta, states, actions, step_weight)


def _newest(buffer: ReplayBuffer) -> BufferRecord:
    """The buffer's newest record; ``EstimatorError`` when it holds none."""
    if len(buffer) == 0:
        raise EstimatorError("buffer is empty")
    return buffer.records[-1]


def _reuse_pass(buffer: ReplayBuffer, theta_k, omega_k, rolling_window: int | None = None, policy_only=False):
    """The reused records' batch, their ratios to the target, ``weight * ratio / K`` and the score sum.

    No ``rolling_window``: all K records, each by its individual ratio
    ``D_k / D_i``.  Else the newest K = ``rolling_window`` records, each by
    the mixture ratio ``D_k / sum_i alpha_i D_i``, ``alpha_i`` proportional to ``n_i``.
    """
    newest = _newest(buffer)
    records = buffer.records if rolling_window is None else buffer.window(rolling_window)
    lo = len(buffer) - len(records)
    batch = buffer.trajectories(lo, len(buffer))
    states, actions, _ = batch.step_arrays
    logp_k, score_sum = buffer.policy.score_pass(theta_k, states, actions)
    target = _step_sums(batch, logp_k[None], [omega_k], buffer.env, policy_only)[0]
    if rolling_window is None:
        own = buffer.own_logdensities()
        if np.any(own == -np.inf):
            raise EstimatorError("a record assigns zero density to its own trajectory")
        ratios = np.exp(target - own)
    else:
        counts = np.array([r.n_i for r in records])
        own_pair = newest.theta is theta_k and (policy_only or newest.omega is omega_k)
        newest_row = target if own_pair else None
        block = buffer.window_logdensities(lo, batch, policy_only, newest_row)
        ratios = _mixture_ratios(target, block, counts / np.sum(counts))
    coef = (1.0 / len(records)) * buffer.weights(lo, len(buffer)) * ratios
    return batch, ratios, coef, score_sum


def _reuse_gradient(buffer, theta_k, omega_k, gamma, diag_out, rolling_window=None, policy_only=False):
    """:func:`_reuse_pass`'s score sum, each step weighted by its coefficient times reward-to-go."""
    batch, ratios, coef, score_sum = _reuse_pass(buffer, theta_k, omega_k, rolling_window, policy_only)
    _fill_diag(diag_out, ratios)
    return score_sum(_step_weights(batch, gamma, coef))


def ilr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    gamma: float = 1.0,
    diag_out: dict | None = None,
) -> np.ndarray:
    """Individual-ratio gradient over every record in the buffer."""
    return _reuse_gradient(buffer, theta_k, omega_k, gamma, diag_out)


def ilr_mean_estimate(buffer: ReplayBuffer, theta_k, omega_k, gamma: float) -> float:
    """Individual-ratio estimate of the expected return at ``(theta_k, omega_k)``."""
    batch, _, coef, _ = _reuse_pass(buffer, theta_k, omega_k)
    return float(np.sum(coef * returns(batch.rewards, gamma)))


def mlr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    rolling_window: int,
    gamma: float = 1.0,
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
    return _reuse_gradient(buffer, theta_k, omega_k, gamma, diag_out, rolling_window)


def tlr_gradient(
    buffer: ReplayBuffer,
    theta_k,
    rolling_window: int,
    gamma: float = 1.0,
    diag_out: dict | None = None,
) -> np.ndarray:
    """Mixture-ratio gradient when all records share one transition model.

    Shared transition factors (and the initial-state factor) cancel
    between numerator and denominator, so ratios reduce to products of
    policy probabilities; no transition model is needed at all.
    """
    return _reuse_gradient(buffer, theta_k, None, gamma, diag_out, rolling_window, True)


def gradient(
    kind: str,
    buffer: ReplayBuffer,
    theta_k,
    omega_k,
    rolling_window: int,
    gamma: float = 1.0,
    diag_out: dict | None = None,
) -> np.ndarray:
    """The ``kind`` estimator's gradient at the target pair ``(theta_k, omega_k)``, as training calls it.

    ``kind`` is one of ``pg | ilr | mlr | tlr``.  ``pg`` is on-policy: it
    reads only the newest record, and ``theta_k`` and ``omega_k`` must be
    that record's own ``theta`` and ``omega`` objects, as the trainer
    passes them; another target raises ``EstimatorError``.  ``ilr``
    reweights every record, ``mlr`` and ``tlr`` the newest
    ``rolling_window`` ones (``tlr`` ignores ``omega_k``).  Every kind
    raises ``EstimatorError`` on an empty buffer and fills ``diag_out``
    with its ratios, ``max_ratio`` and ``ess``.
    """
    if kind == "pg":
        newest = _newest(buffer)
        if newest.theta is not theta_k or newest.omega is not omega_k:
            raise EstimatorError("pg is on-policy: the target must be the newest record's own pair")
        return pg_gradient(newest, buffer.policy, gamma, diag_out=diag_out)
    if kind == "ilr":
        return ilr_gradient(buffer, theta_k, omega_k, gamma, diag_out=diag_out)
    if kind == "mlr":
        return mlr_gradient(buffer, theta_k, omega_k, rolling_window, gamma, diag_out=diag_out)
    if kind == "tlr":
        return tlr_gradient(buffer, theta_k, rolling_window, gamma, diag_out=diag_out)
    raise ValueError(f"unknown estimator kind {kind!r}")
