"""Finite-horizon decision process primitives.

Shared language for the whole package: trajectory batches, discounted
returns, the environment contract, the softmax policy head, rollouts, and
hierarchical RNG streams.  States are dense float vectors (environments document the
meaning of each coordinate, including the step index stored as a float);
actions are integers in ``[0, action_count)``.

Every environment has a fixed horizon H, so trajectories travel as one
:class:`TrajectoryBatch` of arrays: ``states (n, H, d)``, ``actions
(n, H-1)``, ``rewards (n, H-1)``.  The environment and policy contracts
are batch-only: each hook takes a stack of rows (one row per trajectory,
or per step) and returns one value per row.  The two density hooks also
take a stack of R parameter sets (policy parameters, or transition
models) and return an ``(R, n)`` array, so the estimators evaluate many
(policy, model) pairs over the same rows in one call.  A policy
architecture subclasses :class:`Policy` with only ``param_dim``, a forward
pass ``_forward`` to its logits and a backward pass ``_backward`` from
them; the softmax, its log probabilities and the score hook are
:class:`Policy`'s, one implementation for every policy, whose softmax
terms (max shift, ``exp`` and row sum) one function computes.  The step
reward is ``reward_batch(states, actions)``; a state stores any step index
it needs.  Per-trajectory
quantities are row reductions over the ``(n, H-1)`` matrices; step-level
arrays are the batch's rows in trajectory-major order
(:attr:`TrajectoryBatch.step_arrays`).  A batch may hold views: the replay
buffer copies its records into one append-only store and hands out runs of
records as batches of views into it.  A batch exports as JSONL, one
``{"steps": [...]}`` object per trajectory (:func:`write_trajectories_jsonl`).
Every file function of the package takes a path and opens the file itself;
every JSON input file is parsed by :func:`read_json`, and each JSON object
in it is checked by :func:`check_object`.

All randomness flows through explicitly passed ``numpy.random.Generator``
instances, or stream keys ``(root_seed, *path)`` that name them.  Nothing
in this package touches global RNG state, so common random numbers across
compared configurations reduce to reusing the same stream path (see
:func:`substream`).
"""

from __future__ import annotations

import abc
import csv
import functools
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Environment",
    "Policy",
    "RolloutError",
    "TrajectoryBatch",
    "check_fields",
    "check_object",
    "check_typed",
    "read_json",
    "returns",
    "reward_to_go",
    "rollout_batch",
    "sample_categorical",
    "substream",
    "write_csv",
    "write_trajectories_jsonl",
]


class RolloutError(RuntimeError):
    """Environment sampling produced an unusable state during a rollout."""


# Python types a field annotation (a string under ``from __future__ import annotations``) admits.
_FIELD_TYPES = {
    "int": (int,), "float": (int, float), "float | None": (int, float, type(None)), "bool": (bool,)
}


def check_typed(error: type[Exception], entries: Iterable[tuple[str, object, str]]) -> None:
    """Raise ``error`` naming the first ``(name, value, annotation)`` whose value is mistyped or not finite.

    Only a ``bool`` annotation admits a bool (JSON's ``true``), and a float value must be finite,
    as must an int given for a float annotation once it is a float.
    """
    for name, value, kind in entries:
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind]):
            raise error(f"{name} must be of type {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")
        if kind.startswith("float") and isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise error(f"{name} must be finite, got an integer too large for a float") from None


def check_fields(obj, error: type[Exception]) -> None:
    """:func:`check_typed` on every field of the dataclass ``obj`` with an annotation it knows.

    An int given for a float field is then stored as the nearest float, so
    the field holds one form however its file spelled the number.
    """
    entries = [(f.name, getattr(obj, f.name), f.type) for f in fields(obj) if f.type in _FIELD_TYPES]
    check_typed(error, entries)
    for name, value, kind in entries:
        if kind.startswith("float") and isinstance(value, int):
            object.__setattr__(obj, name, float(value))


def read_json(path, error: type[ValueError]):
    """The JSON value in the UTF-8 file at ``path``: the package's one JSON parser.

    Bytes that are not UTF-8, or text that is not JSON, raise ``error``.
    Python's ``json`` reads ``NaN`` and ``Infinity`` as floats; the caller's
    checks reject them where a number must be finite.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"not valid JSON: {exc}") from exc


def check_object(value, error: type[Exception], name: str, fields, required=()) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``fields`` and include every ``required`` one.

    Otherwise raises ``error``, naming the object ``'name'`` and a key
    ``'name.key'``.
    """
    if not isinstance(value, dict):
        raise error(f"'{name}' must be a JSON object, got {value!r}")
    for key in required:
        if key not in value:
            raise error(f"missing the field '{name}.{key}'")
    for key in value:
        if key not in fields:
            raise error(f"unknown field '{name}.{key}'")
    return value


def substream(root_seed: int, *path: int) -> np.random.Generator:
    """Independent PCG64 generator for the stream key ``(root_seed, *path)``.

    Streams are counter-based: the generator for a key is a pure function
    of the key, never of how many draws any other stream consumed.  This
    is what makes common random numbers hold exactly across
    configurations that consume different amounts of randomness.  A key
    entry that is not a nonnegative integer (a bool, float, string or
    Generator included) raises ``ValueError``.
    """
    for entry in (root_seed, *path):
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)) or entry < 0:
            raise ValueError(f"stream key entries must be nonnegative integers, got {entry!r}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(root_seed, spawn_key=tuple(path)))
    )


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """``n`` state-action-reward paths of one horizon ``H``, as arrays.

    ``states`` has shape ``(n, H, d)``; ``actions`` and ``rewards`` have
    shape ``(n, H-1)``.  Step ``t`` (0-based) of trajectory ``j`` is
    ``(states[j, t], actions[j, t], rewards[j, t], states[j, t+1])``.

    Shapes are validated at construction and every array is made
    read-only in place, so batches are safe to share across threads.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.float64)
        actions = np.asarray(self.actions, dtype=np.int64)
        rewards = np.asarray(self.rewards, dtype=np.float64)
        if states.ndim != 3 or states.shape[1] < 1:
            raise ValueError(f"states must have shape (n, H >= 1, d), got {states.shape}")
        n, horizon, _ = states.shape
        for name, arr in (("actions", actions), ("rewards", rewards)):
            if arr.shape != (n, horizon - 1):
                raise ValueError(
                    f"{name} must have shape {(n, horizon - 1)} to match states {states.shape}, "
                    f"got {arr.shape}"
                )
        for name, arr in (("states", states), ("actions", actions), ("rewards", rewards)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @functools.cached_property
    def step_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step rows ``(states, actions, next_states)`` in trajectory-major order.

        Row ``j * (H-1) + t`` is step ``t`` of trajectory ``j``, so a
        per-step vector reshaped to ``(n, H-1)`` has one trajectory per
        row.  Computed once per batch and read-only.
        """
        dim = self.states.shape[2]
        out = (
            self.states[:, :-1].reshape(-1, dim),
            self.actions.reshape(-1),
            self.states[:, 1:].reshape(-1, dim),
        )
        for arr in out:
            arr.setflags(write=False)
        return out


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")


def returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted return ``sum_t gamma^(t-1) * r_t`` (t is 1-based) per row.

    ``rewards`` is the ``(n, H-1)`` reward matrix of a batch; a stepless
    trajectory returns 0.
    """
    _check_gamma(gamma)
    rewards = np.asarray(rewards, dtype=np.float64)
    return (gamma ** np.arange(rewards.shape[1]) * rewards).sum(axis=1)


def reward_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Per-step tail sums ``rtg_t = sum_{t' >= t} gamma^(t'-1) * r_t'`` per row.

    The discount exponent is anchored at the trajectory start (t' is the
    1-based step index), so this is the causal weight carried by the score
    term of step t in every gradient estimator.  Shape ``(n, H-1)``, like
    ``rewards``.
    """
    _check_gamma(gamma)
    rewards = np.asarray(rewards, dtype=np.float64)
    discounted = gamma ** np.arange(rewards.shape[1]) * rewards
    return np.cumsum(discounted[:, ::-1], axis=1)[:, ::-1].copy()


class Environment(abc.ABC):
    """Batch-only contract every environment implements.

    Each hook takes a stack of rows and returns one value (or next state)
    per row; rows may come from different trajectories and, for the
    density hook, from different steps.  The density hook also takes a
    stack of transition models and evaluates every row under each.
    """

    @abc.abstractmethod
    def horizon(self) -> int:
        """Number of visited states H; rollouts take H - 1 steps."""

    @abc.abstractmethod
    def action_count(self) -> int:
        ...

    @abc.abstractmethod
    def sample_initial_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` initial states, shape ``(n, d)``."""

    @abc.abstractmethod
    def sample_transition_batch(self, states, actions, omega, rng) -> np.ndarray:
        """One next state per row under transition model ``omega``, shape ``(n, d)``."""

    @abc.abstractmethod
    def transition_logpdf_batch(self, states, actions, next_states, omegas) -> np.ndarray:
        """Log-density of each row's transition under each model of ``omegas``, shape ``(R, n)``.

        ``omegas`` is a sequence of R transition models; entry ``[r, n]``
        is row n under ``omegas[r]``, with the same value a call with the
        one model ``[omegas[r]]`` gives.  Work that depends on the rows
        only (state checks, per-row features) is done once per call.

        The log-density of the same measure :meth:`sample_transition_batch`
        draws from, up to an additive term that is constant in ``omega``
        for any fixed transition.  Such terms cancel in every likelihood
        ratio the estimators form, so environments may (and do) omit them.
        Zero density is ``-inf``, a value rather than an error.
        """

    @abc.abstractmethod
    def reward_batch(self, states, actions) -> np.ndarray:
        """Reward for taking ``actions`` in ``states``."""

    def terminal_reward_batch(self, states) -> np.ndarray:
        """Payout on reaching each final state; credited to the last step."""
        return np.zeros(states.shape[0])


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` with the same bits, reduced over a transposed copy.

    numpy reduces a short last axis one row at a time; over the copy the
    reduction runs along whole rows of ``x.T``, several times faster for
    the policies' few action columns.  The ufunc's own reduce skips the
    method's dispatch, as the other reductions of the softmax head do.
    """
    return np.maximum.reduce(x.T.copy(), axis=0).T[..., None]


def _softmax_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The softmax terms over the last axis: the max-shifted ``logits``, their ``exp`` and its row sums.

    The head's one softmax pass: ``e / total`` are the probabilities, and
    ``shifted - log(total)`` their logs, which the callers take at the actions.
    """
    shifted = logits - _row_max(logits)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row of the ``(n, K)`` probabilities, by inverse CDF from one uniform per row.

    The indices are ``np.intp`` (int64 on 64-bit platforms).  ``probs`` is
    only read: the caller's rows (a policy's or a transition table's) stay
    as they are.
    """
    u = rng.random(probs.shape[0])
    cum = np.add.accumulate(probs, axis=1)
    cum[:, -1] = 1.0  # guard against cumulative rounding shortfall
    return (cum >= u[:, None]).argmax(axis=1)


class Policy(abc.ABC):
    """A differentiable softmax policy over discrete actions, batch-only.

    Parameters travel as a flat float vector ``theta`` of length
    :attr:`param_dim`.  This class is the softmax head every policy shares;
    a subclass gives only :attr:`param_dim`, :meth:`_forward` (its layers
    and logits over ``features(states)``) and :meth:`_backward` (its reverse
    pass from the logits' gradients).  Every method takes a stack of state
    rows (and one action per row); :meth:`log_prob_batch` also takes a
    stack of parameter vectors.  Derivatives enter only through
    :meth:`score_pass`, the score hook, which also gives the rows' log
    probabilities from its one forward pass; :meth:`weighted_score_sum` is
    a shorthand over it.
    """

    def __init__(self, features: Callable[[np.ndarray], np.ndarray], n_actions: int):
        self.features = features
        self.n_actions = n_actions

    @property
    @abc.abstractmethod
    def param_dim(self) -> int:
        ...

    @abc.abstractmethod
    def _forward(self, theta: np.ndarray, states) -> tuple[np.ndarray, ...]:
        """``(*layers, logits)`` over the state rows, logits of shape ``(n, n_actions)``.

        A stack ``theta`` of shape ``(R, param_dim)`` gives the logits, and
        each layer that depends on ``theta``, a leading axis of R.
        """

    @abc.abstractmethod
    def _backward(self, theta: np.ndarray, layers, dlogits: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``sum_n weights[n] * dlogits[n] . d logits[n] / dtheta`` at one ``theta``, shape ``(param_dim,)``.

        ``dlogits`` is the caller's scratch array: the pass may overwrite it.
        """

    def _params(self, theta, stacked: bool) -> np.ndarray:
        """``theta`` as floats of shape ``(param_dim,)``, or ``(R, param_dim)`` if ``stacked``; ValueError otherwise."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 + stacked or theta.shape[-1] != self.param_dim:
            name, shape = ("thetas", f"(R, {self.param_dim})") if stacked else ("theta", f"({self.param_dim},)")
            raise ValueError(f"{name} must have shape {shape}, got {theta.shape}")
        return theta

    def action_probs_batch(self, theta, states) -> np.ndarray:
        """Action probabilities, shape ``(n, n_actions)``; rows sum to 1."""
        _, e, total = _softmax_terms(self._forward(self._params(theta, False), states)[-1])
        return np.divide(e, total, out=e)

    def log_prob_batch(self, thetas, states, actions) -> np.ndarray:
        """``log pi(a_n|s_n)`` under each parameter vector of ``thetas``, shape ``(R, n)``.

        ``thetas`` has shape ``(R, param_dim)``; entry ``[r, n]`` is row n
        under ``thetas[r]``, with the same value the one-vector stack
        ``thetas[r:r+1]`` gives.  Work that depends on the rows only (the
        state features) is done once per call.
        """
        shifted, _, total = _softmax_terms(self._forward(self._params(thetas, True), states)[-1])
        rows = np.arange(shifted.shape[-2])
        return shifted[..., rows, np.asarray(actions, dtype=np.int64)] - np.log(total[..., 0])

    def score_pass(self, theta, states, actions) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """One forward pass at ``theta``: ``(log_prob, weighted_sum)``.

        ``log_prob[n]`` is ``log pi(actions[n] | states[n])``, with the bits
        of ``log_prob_batch(theta[None], states, actions)[0]``.
        ``weighted_sum(weights)`` is ``sum_n weights[n] * d/dtheta log
        pi(actions[n] | states[n])``, shape ``(param_dim,)``, from the same
        forward pass.

        The policy's one score hook: every gradient estimator is a weighted
        sum of per-row scores, so policies compute the sum directly (as
        matrix products) and never materialize the ``(n, param_dim)`` score
        matrix.  A reuse estimator needs the target's log probabilities to
        form the weights, so both come from one pass.
        """
        theta = self._params(theta, False)
        *layers, logits = self._forward(theta, states)
        actions = np.asarray(actions, dtype=np.int64)
        shifted, e, total = _softmax_terms(logits)
        log_prob = shifted[np.arange(len(actions)), actions] - np.log(total[:, 0])
        probs = e / total

        def weighted_sum(weights) -> np.ndarray:
            # d log pi(a_n|s_n) / d logits[n] is onehot(a_n) - pi(.|s_n)
            dlogits = -probs
            dlogits[np.arange(len(actions)), actions] += 1.0
            return self._backward(theta, layers, dlogits, weights)

        return log_prob, weighted_sum

    def weighted_score_sum(self, theta, states, actions, weights) -> np.ndarray:
        """:meth:`score_pass`'s weighted sum; one-hot ``weights`` select the score of a single row."""
        return self.score_pass(theta, states, actions)[1](weights)

    def sample_actions_batch(self, theta, states, rng: np.random.Generator) -> np.ndarray:
        """One action per state row, drawn by :func:`sample_categorical`."""
        return sample_categorical(self.action_probs_batch(theta, states), rng)

    def init_params(self, rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
        return scale * rng.standard_normal(self.param_dim)


def rollout_batch(
    env: Environment,
    policy: Policy,
    theta: np.ndarray,
    omega,
    n: int,
    rng: np.random.Generator,
) -> TrajectoryBatch:
    """Generate ``n`` episodes under ``(policy(theta), omega)``.

    All episodes advance in lockstep.  Per step: sample the actions,
    record the step rewards, sample the next states.  The terminal payout
    is added to the final step's reward.  Deterministic given the rng
    state.  The batch's arrays are allocated once, sized by the initial
    states, and each step is written into them; ``n < 1`` is a ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    horizon = env.horizon()
    current = np.asarray(env.sample_initial_batch(n, rng), dtype=np.float64)
    if not np.isfinite(current).all():
        raise RolloutError("non-finite initial state in batch")
    states = np.empty((n, horizon, current.shape[1]))
    actions = np.empty((n, horizon - 1), dtype=np.int64)
    rewards = np.empty((n, horizon - 1))
    states[:, 0] = current
    for t in range(1, horizon):
        step_actions = actions[:, t - 1] = policy.sample_actions_batch(theta, current, rng)
        rewards[:, t - 1] = env.reward_batch(current, step_actions)
        current = np.asarray(env.sample_transition_batch(current, step_actions, omega, rng), dtype=np.float64)
        if not np.isfinite(current).all():
            raise RolloutError(f"non-finite state in batch at step {t}")
        states[:, t] = current
    if horizon > 1:
        rewards[:, -1] += env.terminal_reward_batch(current)
    return TrajectoryBatch(states, actions, rewards)


# --- serialization ---------------------------------------------------------


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the table ``header`` + ``rows`` to the CSV file at ``path``.

    The package's one CSV writer.  ``csv`` writes every float, numpy's
    included, as its shortest round-tripping repr, so ``float(cell)``
    reads back the value written, bit for bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# One JSON object per trajectory, newline-delimited: ``{"steps": [...]}``,
# each step a flat array of numbers: state, action, reward, next_state.

def write_trajectories_jsonl(batch: TrajectoryBatch, path) -> None:
    states, actions, next_states = batch.step_arrays
    rows = np.column_stack([states, actions, batch.rewards.reshape(-1), next_states])
    rows = rows.reshape(len(batch), batch.n_steps, 2 * states.shape[1] + 2).tolist()
    with open(path, "w") as fh:
        fh.writelines(json.dumps({"steps": steps}) + "\n" for steps in rows)
