"""Differentiable stochastic policies.

Two softmax policies over discrete actions:

* :class:`LinearSoftmaxPolicy` -- logits are linear in state features with
  an action-block one-hot layout, so the score has the closed form
  ``phi(s,a) - sum_a' phi(s,a') pi(a'|s)``.  The tabular oracle uses it.
* :class:`MlpSoftmaxPolicy` -- one sigmoid hidden layer feeding a softmax
  output layer, with exact reverse-mode score gradients.  This is the
  policy the training loop uses.

Both implement the batch-only :class:`~greensim_rl.core.Policy` contract:
forward passes over a stack of state rows, and one score hook,
``score_pass``, that runs the forward pass once at ``theta`` and returns
the rows' log probabilities together with a function that forms the
weighted sum of the rows' score vectors from that same pass, without
forming them one by one.  ``log_prob_batch`` also takes a stack of
parameter vectors: the features are computed once and the forward pass
broadcasts over the leading parameter axis, one matrix product per
parameter set with the shapes of a single-set call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Policy

__all__ = [
    "FeatureMap",
    "LinearSoftmaxPolicy",
    "MlpSoftmaxPolicy",
    "POLICY_KINDS",
    "load_params",
    "make_policy",
    "onehot_features",
    "purification_features",
    "save_params",
    "softmax_probs",
]

POLICY_KINDS = ("linear", "mlp")


def softmax_probs(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; output sums to 1 along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _parameter_stack(thetas, param_dim: int) -> np.ndarray:
    """``thetas`` as a float array of shape ``(R, param_dim)``; ValueError otherwise."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != param_dim:
        raise ValueError(f"thetas must have shape (R, {param_dim}), got {thetas.shape}")
    return thetas


def _log_probs_and_probs(logits: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log_softmax(logits)[n, actions[n]]`` and ``softmax_probs(logits)`` of ``(n, A)`` logits.

    Both come from one shared shift, ``exp`` and sum, each in the order
    those two functions use, so the values keep their bits.
    """
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=-1, keepdims=True)
    rows = np.arange(logits.shape[0])
    return shifted[rows, actions] - np.log(total[:, 0]), e / total


def _stacked_log_probs(logits: np.ndarray, actions) -> np.ndarray:
    """``log_softmax(logits)[r, n, actions[n]]`` of ``(R, n, A)`` logits, shape ``(R, n)``."""
    logp = log_softmax(logits)
    return logp[:, np.arange(logp.shape[1]), np.asarray(actions, dtype=np.int64)]


@dataclass(frozen=True)
class FeatureMap:
    """Batched state featurizer: ``(n, state_dim) -> (n, dim)``."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(states, dtype=np.float64)))


def purification_features(p_bar: float, i_bar: float, horizon: int) -> FeatureMap:
    """Normalized (protein mass, impurity mass, step index) features."""
    scale = np.array([1.0 / p_bar, 1.0 / i_bar, 1.0 / horizon])
    return FeatureMap(3, lambda s: s * scale)


def onehot_features(n_states: int) -> FeatureMap:
    """One-hot encoding of an integer state index stored as ``state[0]``."""

    def fn(states: np.ndarray) -> np.ndarray:
        idx = states[:, 0].astype(np.int64)
        out = np.zeros((states.shape[0], n_states))
        out[np.arange(states.shape[0]), idx] = 1.0
        return out

    return FeatureMap(n_states, fn)


class LinearSoftmaxPolicy(Policy):
    """Softmax over per-action linear scores of the state features.

    ``theta`` has length ``n_actions * features.dim``, laid out as one
    feature block per action; the implied state-action feature vector
    ``phi(s, a)`` is ``phi(s)`` placed in block ``a`` with zeros elsewhere.
    """

    def __init__(self, features: FeatureMap, n_actions: int):
        self.features = features
        self._n_actions = n_actions

    @property
    def param_dim(self) -> int:
        return self._n_actions * self.features.dim

    @property
    def n_actions(self) -> int:
        return self._n_actions

    def _logits(self, theta: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Features and logits; a leading axis of ``theta`` stacks parameter sets."""
        phi = self.features(states)
        theta = np.asarray(theta, dtype=np.float64)
        weights = theta.reshape(*theta.shape[:-1], self._n_actions, self.features.dim)
        return phi, phi @ weights.swapaxes(-1, -2)

    def action_probs_batch(self, theta, states) -> np.ndarray:
        _, logits = self._logits(theta, states)
        return softmax_probs(logits)

    def log_prob_batch(self, thetas, states, actions) -> np.ndarray:
        _, logits = self._logits(_parameter_stack(thetas, self.param_dim), states)
        return _stacked_log_probs(logits, actions)

    def score_pass(self, theta, states, actions):
        phi, logits = self._logits(theta, states)
        actions = np.asarray(actions, dtype=np.int64)
        log_prob, probs = _log_probs_and_probs(logits, actions)

        def weighted_sum(weights) -> np.ndarray:
            residual = -probs
            residual[np.arange(phi.shape[0]), actions] += 1.0
            # score block a' of row n is phi(s_n) * (1{a'=a_n} - pi(a'|s_n))
            return ((residual * weights[:, None]).T @ phi).reshape(self.param_dim)

        return log_prob, weighted_sum


class MlpSoftmaxPolicy(Policy):
    """Two-layer perceptron policy: sigmoid hidden layer, softmax output.

    Hidden unit d computes ``z_d = sigmoid(w_d0 + w_d . phi(s))`` and
    output unit a computes the logit ``T_a = b_a0 + b_a . z``; action
    probabilities are ``softmax(T)``.  ``theta`` packs the hidden weight
    matrix (with bias column) followed by the output weight matrix (with
    bias column).
    """

    def __init__(self, features: FeatureMap, n_actions: int, hidden_dim: int = 16):
        if not isinstance(hidden_dim, (int, np.integer)) or hidden_dim < 1:
            raise ValueError(f"hidden_dim must be a positive integer, got {hidden_dim!r}")
        self.features = features
        self._n_actions = n_actions
        self.hidden_dim = hidden_dim

    @property
    def param_dim(self) -> int:
        return self.hidden_dim * (self.features.dim + 1) + self._n_actions * (self.hidden_dim + 1)

    @property
    def n_actions(self) -> int:
        return self._n_actions

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden and output weight matrices (bias in column 0) of ``theta``.

        ``theta`` is one vector ``(param_dim,)`` or a stack ``(R, param_dim)``,
        which gives stacks of matrices.
        """
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.param_dim:
            raise ValueError(
                f"theta must have shape ({self.param_dim},) or (R, {self.param_dim}), got {theta.shape}"
            )
        lead = theta.shape[:-1]
        cut = self.hidden_dim * (self.features.dim + 1)
        w = theta[..., :cut].reshape(*lead, self.hidden_dim, self.features.dim + 1)
        b = theta[..., cut:].reshape(*lead, self._n_actions, self.hidden_dim + 1)
        return w, b

    def _forward(self, theta, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features, hidden activations and logits; a leading axis of ``theta`` stacks parameter sets."""
        w, b = self.unpack(theta)
        phi = self.features(states)
        hidden = expit(w[..., None, :, 0] + phi @ w[..., 1:].swapaxes(-1, -2))
        logits = b[..., None, :, 0] + hidden @ b[..., 1:].swapaxes(-1, -2)
        return phi, hidden, logits

    def action_probs_batch(self, theta, states) -> np.ndarray:
        return softmax_probs(self._forward(theta, states)[2])

    def log_prob_batch(self, thetas, states, actions) -> np.ndarray:
        logits = self._forward(_parameter_stack(thetas, self.param_dim), states)[2]
        return _stacked_log_probs(logits, actions)

    def score_pass(self, theta, states, actions):
        _, b = self.unpack(theta)
        phi, hidden, logits = self._forward(theta, states)
        actions = np.asarray(actions, dtype=np.int64)
        log_prob, probs = _log_probs_and_probs(logits, actions)

        def weighted_sum(weights) -> np.ndarray:
            # Reverse mode through softmax and the sigmoid layer; summing over rows
            # collapses each layer's per-row outer products into one matrix product.
            n = phi.shape[0]
            dlogits = -probs
            dlogits[np.arange(n), actions] += 1.0
            hidden_ext = np.concatenate([np.ones((n, 1)), hidden], axis=1)
            dhidden = (dlogits @ b[:, 1:]) * hidden * (1.0 - hidden)
            phi_ext = np.concatenate([np.ones((n, 1)), phi], axis=1)
            grad_b = (dlogits * weights[:, None]).T @ hidden_ext
            grad_w = (dhidden * weights[:, None]).T @ phi_ext
            return np.concatenate([grad_w.reshape(-1), grad_b.reshape(-1)])

        return log_prob, weighted_sum


def make_policy(kind: str, features: FeatureMap, n_actions: int, hidden_dim: int = 16) -> Policy:
    if kind == "linear":
        return LinearSoftmaxPolicy(features, n_actions)
    if kind == "mlp":
        return MlpSoftmaxPolicy(features, n_actions, hidden_dim)
    raise ValueError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")


# --- checkpoints ------------------------------------------------------------
#
# JSON with a shape header plus the flat parameter vector.  Python's float
# repr is the shortest round-tripping decimal, so load(save(theta)) is
# bit-exact for finite values.

def save_params(path, theta: np.ndarray, kind: str, meta: dict | None = None) -> None:
    payload = {
        "kind": kind,
        "length": int(np.asarray(theta).shape[0]),
        "values": [float(x) for x in np.asarray(theta, dtype=np.float64)],
    }
    if meta:
        payload["meta"] = meta
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_params(path) -> tuple[np.ndarray, str, dict]:
    """Read a checkpoint as ``(theta, kind, meta)``; ValueError if malformed."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not {"kind", "length", "values"} <= payload.keys():
        raise ValueError("expected a JSON object with 'kind', 'length' and 'values'")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be a JSON object")
    try:
        values = np.array(payload["values"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError("'values' must be a list of numbers") from exc
    if values.ndim != 1 or values.shape[0] != payload["length"]:
        raise ValueError(
            f"checkpoint header says {payload['length']} values, file has {values.shape}"
        )
    return values, payload["kind"], meta
