"""Softmax policies: forwards, score gradients, sampling."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensim_rl.core import _row_max, _softmax_terms
from greensim_rl.policy import LinearSoftmaxPolicy, MlpSoftmaxPolicy, make_policy, onehot_features

from conftest import identity_features, plain_log_prob, plain_softmax, score_sum_reference, scores, stream


# One-row calls into the batch contract.


def row(state):
    return np.asarray(state, dtype=np.float64)[None, :]


def action_probs(policy, theta, state):
    return policy.action_probs_batch(theta, row(state))[0]


def log_prob(policy, theta, state, action):
    return policy.log_prob_batch(theta[None], row(state), np.array([action]))[0, 0]


def grad_log_prob(policy, theta, state, action):
    return policy.weighted_score_sum(theta, row(state), np.array([action]), np.ones(1))


def finite_difference_grad(policy, theta, state, action, h):
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        grad[j] = (
            log_prob(policy, theta + e, state, action) - log_prob(policy, theta - e, state, action)
        ) / (2 * h)
    return grad


def softmax_probs(logits):
    """The probabilities of core's one softmax pass: its exp over its row sums."""
    _, e, total = _softmax_terms(np.asarray(logits, dtype=np.float64))
    return e / total


class TestSoftmax:
    def test_zeros_give_uniform(self):
        np.testing.assert_allclose(softmax_probs(np.zeros(10)), np.full(10, 0.1), atol=1e-15)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            softmax_probs(logits), softmax_probs(logits + 123.456), atol=1e-12
        )

    def test_two_logit_analytic(self):
        probs = softmax_probs(np.array([1.0, 0.0]))
        e = np.e
        np.testing.assert_allclose(probs, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_simplex(self, logits):
        probs = softmax_probs(np.array(logits))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)


class TestRowMax:
    @pytest.mark.parametrize(
        "shape", [(7,), (1,), (40, 10), (40, 1), (0, 10), (3, 40, 10), (3, 40, 1)]
    )
    def test_bytes_match_numpy_max(self, shape, rng):
        x = rng.normal(scale=30.0, size=shape)
        assert _row_max(x).tobytes() == x.max(axis=-1, keepdims=True).tobytes()
        assert _row_max(x).shape == x.max(axis=-1, keepdims=True).shape

    def test_infinities_and_nan(self):
        x = np.array(
            [
                [-np.inf, -np.inf, -np.inf],
                [-np.inf, 0.5, -1.0],
                [np.inf, 0.5, -np.inf],
                [1.0, np.nan, 2.0],
                [np.nan, -np.inf, np.inf],
            ]
        )
        for arr in (x, x[3], np.stack([x, x[::-1]])):
            assert _row_max(arr).tobytes() == arr.max(axis=-1, keepdims=True).tobytes()


class TestLinearSoftmax:
    def setup_method(self):
        self.policy = LinearSoftmaxPolicy(identity_features(3), 4)

    def test_zero_theta_grad_is_centered_feature(self, rng):
        state = rng.normal(size=3)
        theta = np.zeros(self.policy.param_dim)
        grad = grad_log_prob(self.policy, theta, state, 1)
        blocks = grad.reshape(4, 3)
        # uniform policy: phi(s,a) minus the average of all action blocks
        np.testing.assert_allclose(blocks[1], state * (1 - 0.25), atol=1e-12)
        np.testing.assert_allclose(blocks[0], -state * 0.25, atol=1e-12)

    def test_block_structure(self, rng):
        state = rng.normal(size=3)
        theta = rng.normal(size=self.policy.param_dim)
        probs = action_probs(self.policy, theta, state)
        grad = grad_log_prob(self.policy, theta, state, 2).reshape(4, 3)
        np.testing.assert_allclose(grad[2], state * (1 - probs[2]), atol=1e-12)
        for a in (0, 1, 3):
            np.testing.assert_allclose(grad[a], -state * probs[a], atol=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        for _ in range(20):
            theta = rng.normal(size=self.policy.param_dim)
            state = rng.normal(size=3)
            action = int(rng.integers(4))
            grad = grad_log_prob(self.policy, theta, state, action)
            fd = finite_difference_grad(self.policy, theta, state, action, 1e-6)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


class TestMlpSoftmax:
    def setup_method(self):
        self.policy = MlpSoftmaxPolicy(identity_features(3), 10, hidden_dim=16)

    def test_zero_theta_uniform(self):
        probs = action_probs(self.policy, np.zeros(self.policy.param_dim), np.ones(3))
        np.testing.assert_allclose(probs, np.full(10, 0.1), atol=1e-15)

    def test_second_layer_shrink_gives_uniform(self, rng):
        theta = self.policy.init_params(rng)
        w, b = self.policy.unpack(theta)
        for c in (1e-3, 1e-6):
            squeezed = np.concatenate([w.ravel(), c * b.ravel()])
            probs = action_probs(self.policy, squeezed, rng.normal(size=3))
            assert np.max(np.abs(probs - 0.1)) < 20 * c

    def test_probs_sum_to_one(self, rng):
        for _ in range(25):
            theta = self.policy.init_params(rng, scale=1.0)
            probs = action_probs(self.policy, theta, rng.normal(size=3))
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_theta_output_bias_grad(self):
        # at uniform output, the logit-bias gradient is onehot(a) - 1/A
        theta = np.zeros(self.policy.param_dim)
        grad = grad_log_prob(self.policy, theta, np.array([0.3, -0.2, 1.0]), 7)
        _, b_grad = self.policy.unpack(grad)
        np.testing.assert_allclose(b_grad[:, 0], np.eye(10)[7] - 0.1, atol=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        for _ in range(20):
            theta = self.policy.init_params(rng, scale=0.5)
            state = rng.normal(size=3)
            action = int(rng.integers(10))
            grad = grad_log_prob(self.policy, theta, state, action)
            fd = finite_difference_grad(self.policy, theta, state, action, 1e-5)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_score_zero_mean(self, rng):
        for _ in range(10):
            theta = self.policy.init_params(rng, scale=0.5)
            state = rng.normal(size=3)
            probs = action_probs(self.policy, theta, state)
            total = sum(
                probs[a] * grad_log_prob(self.policy, theta, state, a) for a in range(10)
            )
            assert np.max(np.abs(total)) < 1e-10

    def test_log_prob_consistency(self, rng):
        theta = self.policy.init_params(rng)
        state = rng.normal(size=3)
        probs = action_probs(self.policy, theta, state)
        for a in range(10):
            assert log_prob(self.policy, theta, state, a) == pytest.approx(
                np.log(probs[a]), abs=1e-12
            )

    def test_grad_shape_matches_param_dim(self):
        assert self.policy.param_dim == 16 * 4 + 10 * 17
        grad = grad_log_prob(self.policy, np.zeros(self.policy.param_dim), np.zeros(3), 0)
        assert grad.shape == (self.policy.param_dim,)

    def test_batch_rows_match_one_row_calls(self, rng):
        theta = self.policy.init_params(rng, scale=0.5)
        states = rng.normal(size=(7, 3))
        actions = rng.integers(0, 10, size=7)
        probs = self.policy.action_probs_batch(theta, states)
        logp = self.policy.log_prob_batch(theta[None], states, actions)[0]
        grads = scores(self.policy, theta, states, actions)
        assert probs.shape == (7, 10) and logp.shape == (7,) and grads.shape == (7, self.policy.param_dim)
        for n in range(7):
            np.testing.assert_allclose(probs[n], action_probs(self.policy, theta, states[n]), atol=1e-15)
            assert logp[n] == pytest.approx(log_prob(self.policy, theta, states[n], actions[n]), abs=1e-14)
            one_row = grad_log_prob(self.policy, theta, states[n], actions[n])
            np.testing.assert_allclose(grads[n], one_row, atol=1e-14)

    def test_weighted_score_sum_matches_explicit(self, rng):
        theta = self.policy.init_params(rng)
        states = rng.normal(size=(30, 3))
        actions = rng.integers(0, 10, size=30)
        weights = rng.normal(size=30)
        explicit = scores(self.policy, theta, states, actions).T @ weights
        fused = self.policy.weighted_score_sum(theta, states, actions, weights)
        np.testing.assert_allclose(fused, explicit, atol=1e-12)


STACKED_POLICIES = {
    "mlp": MlpSoftmaxPolicy(identity_features(3), 10, hidden_dim=16),
    "linear": LinearSoftmaxPolicy(identity_features(3), 10),
}


class TestStackedLogProb:
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("kind", list(STACKED_POLICIES))
    def test_rows_match_one_vector_calls(self, kind, r, rng):
        # every parameter set of a stack gets the bits of its own call
        policy = STACKED_POLICIES[kind]
        thetas = np.stack([policy.init_params(rng, scale=0.5) for _ in range(r)])
        states = rng.normal(size=(40, 3))
        actions = rng.integers(0, 10, size=40)
        stacked = policy.log_prob_batch(thetas, states, actions)
        assert stacked.shape == (r, 40)
        for k in range(r):
            one = policy.log_prob_batch(thetas[k : k + 1], states, actions)[0]
            np.testing.assert_array_equal(stacked[k], one)
            probs = policy.action_probs_batch(thetas[k], states)
            np.testing.assert_allclose(stacked[k], np.log(probs[np.arange(40), actions]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(STACKED_POLICIES))
    def test_parameter_stack_shape_checked(self, kind):
        policy = STACKED_POLICIES[kind]
        states, actions = np.zeros((2, 3)), np.zeros(2, dtype=np.int64)
        for bad in (np.zeros(policy.param_dim), np.zeros((2, policy.param_dim + 1))):
            with pytest.raises(ValueError, match="thetas must have shape"):
                policy.log_prob_batch(bad, states, actions)


class TestParameterVectorChecked:
    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("kind", list(STACKED_POLICIES))
    def test_one_vector_of_param_dim(self, kind, stacked):
        # a one-vector stack, or a vector of the wrong length, is not a parameter vector
        policy = STACKED_POLICIES[kind]
        theta = np.zeros((1, policy.param_dim)) if stacked else np.zeros(policy.param_dim + 1)
        states, actions = np.zeros((2, 3)), np.zeros(2, dtype=np.int64)
        message = re.escape(f"theta must have shape ({policy.param_dim},), got {theta.shape}")
        with pytest.raises(ValueError, match=message):
            policy.action_probs_batch(theta, states)
        with pytest.raises(ValueError, match=message):
            policy.score_pass(theta, states, actions)


class TestScorePass:
    @pytest.mark.parametrize("n", [1, 40, 3000])
    @pytest.mark.parametrize("kind", list(STACKED_POLICIES))
    def test_one_pass_keeps_the_bits(self, kind, n, rng):
        # the fused pass's log probabilities are the stacked call's, and its
        # weighted sum is the score hook's as it was with a pass of its own
        policy = STACKED_POLICIES[kind]
        theta = policy.init_params(rng, scale=0.5)
        states = rng.normal(size=(n, 3))
        actions = rng.integers(0, 10, size=n)
        weights = rng.normal(size=n)
        log_prob, weighted_sum = policy.score_pass(theta, states, actions)
        np.testing.assert_array_equal(log_prob, policy.log_prob_batch(theta[None], states, actions)[0])
        want = score_sum_reference(policy, theta, states, actions, weights)
        np.testing.assert_array_equal(weighted_sum(weights), want)
        np.testing.assert_array_equal(weighted_sum(weights), want)  # the pass is not consumed
        np.testing.assert_array_equal(policy.weighted_score_sum(theta, states, actions, weights), want)


class TestPlainNumpyReference:
    @pytest.mark.parametrize("kind", list(STACKED_POLICIES))
    def test_head_matches_plain_numpy(self, kind, rng):
        # the head's bits are those of a plain max, exp, sum and divide over the forward logits
        policy = STACKED_POLICIES[kind]
        thetas = np.stack([policy.init_params(rng, scale=2.0) for _ in range(3)])
        states = rng.normal(size=(300, 3))
        actions = rng.integers(0, 10, size=300)
        weights = rng.normal(size=300)
        logits = policy._forward(thetas, states)[-1]
        np.testing.assert_array_equal(policy.log_prob_batch(thetas, states, actions), plain_log_prob(logits, actions))
        np.testing.assert_array_equal(policy.action_probs_batch(thetas[0], states), plain_softmax(logits[0]))
        log_prob, weighted_sum = policy.score_pass(thetas[0], states, actions)
        np.testing.assert_array_equal(log_prob, plain_log_prob(logits[0], actions))
        np.testing.assert_array_equal(
            weighted_sum(weights), score_sum_reference(policy, thetas[0], states, actions, weights)
        )


class TestSampling:
    def test_sample_matches_probs(self, rng):
        policy = LinearSoftmaxPolicy(onehot_features(1), 3)
        theta = np.array([1.0, 0.0, -1.0])
        state = np.array([0.0])
        probs = action_probs(policy, theta, state)
        draws = policy.sample_actions_batch(theta, np.tile(state, (20000, 1)), rng)
        counts = np.bincount(draws, minlength=3)
        np.testing.assert_allclose(counts / 20000, probs, atol=0.012)


class TestMakePolicy:
    def test_make_policy_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_policy("tabular", identity_features(2), 4)
