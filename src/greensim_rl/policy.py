"""The two softmax policy architectures over discrete actions, and their state features.

* :class:`LinearSoftmaxPolicy` -- logits linear in the state features;
  the tabular oracle uses it.
* :class:`MlpSoftmaxPolicy` -- one sigmoid hidden layer feeding the
  logits; the training loop uses it.

Each gives its forward and backward pass; the softmax head they share is
:class:`~greensim_rl.core.Policy`.  Each reads states through a
:class:`FeatureMap` (:func:`purification_features`, :func:`onehot_features`).
"""

from __future__ import annotations

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
    "make_policy",
    "onehot_features",
    "purification_features",
]

POLICY_KINDS = ("linear", "mlp")


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
    ``phi(s, a)`` is ``phi(s)`` placed in block ``a`` with zeros elsewhere,
    so the score has the closed form ``phi(s,a) - sum_a' phi(s,a') pi(a'|s)``.
    """

    @property
    def param_dim(self) -> int:
        return self.n_actions * self.features.dim

    def _forward(self, theta, states) -> tuple[np.ndarray, np.ndarray]:
        """Features and logits."""
        phi = self.features(states)
        weights = theta.reshape(*theta.shape[:-1], self.n_actions, self.features.dim)
        return phi, phi @ weights.swapaxes(-1, -2)

    def _backward(self, theta, layers, dlogits, weights) -> np.ndarray:
        (phi,) = layers
        # score block a' of row n is phi(s_n) * (1{a'=a_n} - pi(a'|s_n))
        return ((dlogits * weights[:, None]).T @ phi).reshape(self.param_dim)


class MlpSoftmaxPolicy(Policy):
    """Two-layer perceptron policy: sigmoid hidden layer, softmax output.

    Hidden unit d computes ``z_d = sigmoid(w_d0 + w_d . phi(s))`` and
    output unit a computes the logit ``T_a = b_a0 + b_a . z``; action
    probabilities are ``softmax(T)``.  ``theta`` packs the hidden weight
    matrix (with bias column) followed by the output weight matrix (with
    bias column).
    """

    def __init__(self, features: FeatureMap, n_actions: int, hidden_dim: int = 16):
        # a bool is an int to isinstance, but JSON's true is no layer width
        if isinstance(hidden_dim, bool) or not isinstance(hidden_dim, (int, np.integer)) or hidden_dim < 1:
            raise ValueError(f"hidden_dim must be a positive integer, got {hidden_dim!r}")
        super().__init__(features, n_actions)
        self.hidden_dim = hidden_dim

    @property
    def param_dim(self) -> int:
        return self.hidden_dim * (self.features.dim + 1) + self.n_actions * (self.hidden_dim + 1)

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden and output weight matrices (bias in column 0) of ``theta``.

        ``theta`` is a float array that ``Policy._params`` has checked: one
        vector ``(param_dim,)``, or a stack ``(R, param_dim)``, which gives
        stacks of matrices.
        """
        lead = theta.shape[:-1]
        cut = self.hidden_dim * (self.features.dim + 1)
        w = theta[..., :cut].reshape(*lead, self.hidden_dim, self.features.dim + 1)
        b = theta[..., cut:].reshape(*lead, self.n_actions, self.hidden_dim + 1)
        return w, b

    def _forward(self, theta, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features, hidden activations and logits."""
        w, b = self.unpack(theta)
        phi = self.features(states)
        # each bias is added to its matrix product in place (IEEE addition commutes)
        hidden = phi @ w[..., 1:].swapaxes(-1, -2)
        hidden += w[..., None, :, 0]
        expit(hidden, out=hidden)
        logits = hidden @ b[..., 1:].swapaxes(-1, -2)
        logits += b[..., None, :, 0]
        return phi, hidden, logits

    def _backward(self, theta, layers, dlogits, weights) -> np.ndarray:
        # Reverse mode through the sigmoid layer; summing over rows collapses
        # each layer's per-row outer products into one matrix product.
        phi, hidden = layers
        _, b = self.unpack(theta)
        n = phi.shape[0]
        hidden_ext = np.concatenate([np.ones((n, 1)), hidden], axis=1)
        dhidden = (dlogits @ b[:, 1:]) * hidden * (1.0 - hidden)
        phi_ext = np.concatenate([np.ones((n, 1)), phi], axis=1)
        grad_b = (dlogits * weights[:, None]).T @ hidden_ext
        grad_w = (dhidden * weights[:, None]).T @ phi_ext
        return np.concatenate([grad_w.reshape(-1), grad_b.reshape(-1)])


def make_policy(kind: str, features: FeatureMap, n_actions: int, hidden_dim: int = 16) -> Policy:
    if kind == "linear":
        return LinearSoftmaxPolicy(features, n_actions)
    if kind == "mlp":
        return MlpSoftmaxPolicy(features, n_actions, hidden_dim)
    raise ValueError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")
