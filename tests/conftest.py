import numpy as np
import pytest

from greensim_rl import bioenv
from greensim_rl.core import TrajectoryBatch, reward_to_go, substream
from greensim_rl.estimators import ReplayBuffer, _mixture_ratios, trajectory_logdensity
from greensim_rl.oracle import TabularMDP
from greensim_rl.policy import (
    FeatureMap,
    LinearSoftmaxPolicy,
    MlpSoftmaxPolicy,
    onehot_features,
    purification_features,
)


@pytest.fixture(scope="session")
def scn():
    return bioenv.default_scenario()


@pytest.fixture(scope="session")
def env(scn):
    return bioenv.ChromatographyEnv(scn)


@pytest.fixture(scope="session")
def mlp_policy(scn):
    return MlpSoftmaxPolicy(purification_features(scn.p_bar, scn.i_bar, 3), 10, hidden_dim=16)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def toy_mdp():
    return TabularMDP(
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


@pytest.fixture(scope="session")
def tab_policy():
    return LinearSoftmaxPolicy(onehot_features(2), 2)


def random_tensor(rng, n_states=2, n_actions=2):
    raw = rng.uniform(0.1, 1.0, size=(n_states, n_actions, n_states))
    return raw / raw.sum(axis=2, keepdims=True)


SEED = 987654321


def stream(*path):
    return substream(SEED, *path)


def identity_features(dim):
    return FeatureMap(dim, lambda s: s)


def alphas_from_counts(counts):
    """Mixture weights proportional to replication counts, as the window estimators form them."""
    counts = np.asarray(counts, dtype=np.float64)
    return counts / np.sum(counts)


def logdensity(batch, theta, omega, env, policy, policy_only=False):
    """Relative log density of each trajectory of ``batch`` under one pair: a one-row stack."""
    return trajectory_logdensity(batch, np.asarray(theta)[None], [omega], env, policy, policy_only)[0]


def concat_batches(batches):
    """One batch holding ``batches``' trajectories in order, built by ``np.concatenate``."""
    return TrajectoryBatch(
        *(np.concatenate([getattr(b, name) for b in batches]) for name in ("states", "actions", "rewards"))
    )


def buffer_of(env, policy, records):
    """A fresh buffer holding ``records``' pairs and trajectories, appended in order."""
    buffer = ReplayBuffer(env, policy)
    for record in records:
        buffer.append(record.theta, record.omega, record.trajectories)
    return buffer


def window_block_reference(records, env, policy, policy_only=False):
    """``log D_i(tau_j)`` over a window of records, one density call per record's pair."""
    batch = concat_batches([r.trajectories for r in records])
    return np.stack([logdensity(batch, r.theta, r.omega, env, policy, policy_only) for r in records])


def mlr_ratios_batch(batch, target, components, alphas, env, policy):
    """Reference mixture likelihood ratios ``D_target(tau) / sum_i alpha_i D_i(tau)`` over a batch.

    Recomputes every component density from scratch; the estimators read the
    buffer's memoised block instead.  When the target pair is one of the
    components with weight ``alpha``, each ratio is bounded by ``1/alpha``.
    """
    assert len(components) == len(alphas), "one weight per component"
    log_dens = np.stack([logdensity(batch, theta_i, omega_i, env, policy) for theta_i, omega_i in components])
    log_target = logdensity(batch, target[0], target[1], env, policy)
    return _mixture_ratios(log_target, log_dens, np.asarray(alphas, dtype=np.float64))


def sample_transition_reference(states, actions, omega, rng):
    """``ChromatographyEnv.sample_transition_batch`` in plain numpy, on the same stream.

    Each row's four shapes are gathered by fancy indexing, one ``rng.beta``
    call draws every protein fraction and then every impurity fraction, and
    the fractions are clipped into the open interval and multiplied into the
    masses.  The step is the first row's, rounded: the caller passes a valid
    one-step batch.
    """
    t = int(round(states[0, 2]))
    shapes = omega.beta_shapes[t - 1, np.asarray(actions, dtype=np.int64)].T
    fractions = rng.beta(shapes[[bioenv.ETA_L, bioenv.PSI_L]], shapes[[bioenv.ETA_U, bioenv.PSI_U]])
    eps = bioenv._FRACTION_EPS
    out = np.empty((states.shape[0], 3))
    out[:, :2] = np.minimum(np.maximum(fractions.T, eps), 1 - eps) * states[:, :2]
    out[:, 2] = t + 1
    return out


def scores(policy, theta, states, actions):
    """Per-row score vectors, shape ``(n, param_dim)``: the score hook with one-hot weights."""
    return np.stack([policy.weighted_score_sum(theta, states, actions, w) for w in np.eye(len(states))])


def plain_softmax(logits):
    """Max-shifted softmax over the last axis in plain numpy, independent of the package's head."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def plain_log_prob(logits, actions):
    """``log softmax(logits)[..., n, actions[n]]`` of ``(..., n, A)`` logits in plain numpy."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    total = np.exp(shifted).sum(axis=-1, keepdims=True)
    return shifted[..., np.arange(logits.shape[-2]), actions] - np.log(total[..., 0])


def score_sum_reference(policy, theta, states, actions, weights):
    """The score hook as it was before it shared its forward pass: ``sum_n weights[n] * score[n]``.

    Its own forward pass at ``theta``, :func:`plain_softmax`, then reverse mode.
    """
    actions = np.asarray(actions, dtype=np.int64)
    n = len(states)
    if isinstance(policy, LinearSoftmaxPolicy):
        phi, logits = policy._forward(theta, states)
        residual = -plain_softmax(logits)
        residual[np.arange(n), actions] += 1.0
        return ((residual * weights[:, None]).T @ phi).reshape(policy.param_dim)
    _, b = policy.unpack(theta)
    phi, hidden, logits = policy._forward(theta, states)
    dlogits = -plain_softmax(logits)
    dlogits[np.arange(n), actions] += 1.0
    hidden_ext = np.concatenate([np.ones((n, 1)), hidden], axis=1)
    dhidden = (dlogits @ b[:, 1:]) * hidden * (1.0 - hidden)
    phi_ext = np.concatenate([np.ones((n, 1)), phi], axis=1)
    grad_b = (dlogits * weights[:, None]).T @ hidden_ext
    grad_w = (dhidden * weights[:, None]).T @ phi_ext
    return np.concatenate([grad_w.reshape(-1), grad_b.reshape(-1)])


def reuse_gradient_reference(kind, records, theta_k, omega_k, env, policy, window, gamma, weights=None):
    """The ``ilr``, ``mlr`` or ``tlr`` gradient at ``(theta_k, omega_k)`` from scratch.

    Densities come from one-pair :func:`logdensity` calls, each with its own
    policy forward pass, and the score sum from :func:`score_sum_reference`;
    ``window`` is ignored for ``ilr``, which reweights every record.
    ``weights`` holds one array of trajectory weights per record, by default
    ``np.full(n_i, 1.0 / n_i)``.
    """
    if weights is None:
        weights = [np.full(r.n_i, 1.0 / r.n_i) for r in records]
    used = records if kind == "ilr" else records[-window:]
    used_weights = weights if kind == "ilr" else weights[-window:]
    batch = concat_batches([r.trajectories for r in used])
    counts = [r.n_i for r in used]
    if kind == "ilr":
        own = np.concatenate([logdensity(r.trajectories, r.theta, r.omega, env, policy) for r in used])
        ratios = np.exp(logdensity(batch, theta_k, omega_k, env, policy) - own)
    else:
        policy_only = kind == "tlr"
        block = window_block_reference(used, env, policy, policy_only)
        target = logdensity(batch, theta_k, omega_k, env, policy, policy_only)
        ratios = _mixture_ratios(target, block, alphas_from_counts(counts))
    coef = (1.0 / len(used)) * np.concatenate(used_weights) * ratios
    states, actions, _ = batch.step_arrays
    step_weight = (coef[:, None] * reward_to_go(batch.rewards, gamma)).reshape(-1)
    return score_sum_reference(policy, theta_k, states, actions, step_weight)
