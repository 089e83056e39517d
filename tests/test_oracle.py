"""Enumeration ground truth and estimator expectation checks."""

import numpy as np
import pytest

from greensim_rl.core import returns, rollout_batch
from greensim_rl.estimators import ilr_mean_estimate
from greensim_rl.harness import evaluate_policy
from greensim_rl.oracle import (
    TabularEnv,
    TabularMDP,
    _enumerated_buffer,
    enumerate_trajectories,
    estimator_exact_expectation,
    exact_expected_return,
    exact_policy_gradient,
    run_oracle_checks,
)
from greensim_rl.policy import LinearSoftmaxPolicy, MlpSoftmaxPolicy, onehot_features

from conftest import logdensity, random_tensor, scores, stream


def one_state_bandit(r0=1.0, r1=0.0):
    return TabularMDP(
        transition=np.ones((1, 2, 1)),
        rewards=np.array([[r0, r1]]),
        initial=np.array([1.0]),
        horizon=2,
    )


class TestEnumeration:
    def test_single_path(self):
        mdp = TabularMDP(
            transition=np.ones((1, 1, 1)),
            rewards=np.array([[2.0]]),
            initial=np.array([1.0]),
            horizon=2,
        )
        policy = LinearSoftmaxPolicy(onehot_features(1), 1)
        batch, probs = enumerate_trajectories(mdp, np.zeros(1), policy)
        assert len(batch) == 1
        assert probs[0] == pytest.approx(1.0)

    def test_uniform_counting(self, tab_policy):
        mdp = TabularMDP(
            transition=np.full((2, 2, 2), 0.5),
            rewards=np.zeros((2, 2)),
            initial=np.array([0.5, 0.5]),
            horizon=2,
        )
        batch, probs = enumerate_trajectories(mdp, np.zeros(4), tab_policy)
        assert len(batch) == 8 and probs.shape == (8,)
        np.testing.assert_allclose(probs, 1.0 / 8.0, rtol=0, atol=1e-15)

    def test_probabilities_sum_to_one(self, toy_mdp, tab_policy, rng):
        theta = 0.4 * rng.standard_normal(4)
        _, probs = enumerate_trajectories(toy_mdp, theta, tab_policy)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rewards_recorded(self, toy_mdp, tab_policy):
        batch, _ = enumerate_trajectories(toy_mdp, np.zeros(4), tab_policy)
        for j in range(len(batch)):
            for t in range(batch.n_steps):
                s, a = int(batch.states[j, t, 0]), int(batch.actions[j, t])
                assert batch.rewards[j, t] == toy_mdp.rewards[s, a]

    def test_paths_are_distinct_and_feasible(self, toy_mdp, tab_policy):
        batch, probs = enumerate_trajectories(toy_mdp, np.zeros(4), tab_policy)
        assert batch.states.shape == (len(probs), toy_mdp.horizon, 1)
        paths = {(tuple(s), tuple(a)) for s, a in zip(batch.states[:, :, 0], batch.actions)}
        assert len(paths) == len(batch) == 2 * 4 * 4  # every branch of the toy MDP is open
        assert np.all(probs > 0.0)


class TestExactExpectedReturn:
    def test_constant_reward(self, tab_policy):
        mdp = TabularMDP(
            transition=np.full((2, 2, 2), 0.5),
            rewards=np.full((2, 2), 3.0),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        assert exact_expected_return(mdp, np.zeros(4), 1.0, tab_policy) == pytest.approx(6.0)

    def test_bandit_uniform_policy(self):
        policy = LinearSoftmaxPolicy(onehot_features(1), 2)
        assert exact_expected_return(one_state_bandit(), np.zeros(2), 1.0, policy) == pytest.approx(0.5)

    def test_monte_carlo_cross_check(self, toy_mdp, tab_policy, rng):
        theta = 0.4 * rng.standard_normal(4)
        exact = exact_expected_return(toy_mdp, theta, 0.9, tab_policy)
        env = TabularEnv(toy_mdp)
        batch = rollout_batch(env, tab_policy, theta, toy_mdp.transition, 1_000_000, stream(40))
        values = returns(batch.rewards, 0.9)
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - exact) < 4 * se


class TestExactPolicyGradient:
    def test_bandit_analytic(self):
        policy = LinearSoftmaxPolicy(onehot_features(1), 2)
        grad = exact_policy_gradient(one_state_bandit(), np.zeros(2), 1.0, policy)
        np.testing.assert_allclose(grad, [0.25, -0.25], atol=1e-14)

    def test_uniform_rewards_zero_gradient(self, tab_policy, rng):
        mdp = TabularMDP(
            transition=random_tensor(rng),
            rewards=np.full((2, 2), 7.0),
            initial=np.array([0.3, 0.7]),
            horizon=3,
        )
        theta = 0.4 * rng.standard_normal(4)
        grad = exact_policy_gradient(mdp, theta, 1.0, tab_policy)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "policy",
        [LinearSoftmaxPolicy(onehot_features(2), 2), MlpSoftmaxPolicy(onehot_features(2), 2, hidden_dim=3)],
        ids=["linear", "mlp"],
    )
    def test_horizon_one_has_zero_gradient(self, policy, rng):
        # no action is taken, so the return and its gradient are 0: zeros of param_dim
        mdp = TabularMDP(random_tensor(rng), np.ones((2, 2)), np.array([0.3, 0.7]), 1)
        theta = 0.4 * rng.standard_normal(policy.param_dim)
        grad = exact_policy_gradient(mdp, theta, 0.9, policy)
        assert grad.shape == (policy.param_dim,)
        np.testing.assert_array_equal(grad, 0.0)
        assert exact_expected_return(mdp, theta, 0.9, policy) == 0.0

    def test_matches_finite_differences(self, toy_mdp, tab_policy, rng):
        theta = 0.4 * rng.standard_normal(4)
        grad = exact_policy_gradient(toy_mdp, theta, 0.9, tab_policy)
        h = 1e-6
        fd = np.zeros_like(grad)
        for j in range(grad.size):
            e = np.zeros_like(grad)
            e[j] = h
            fd[j] = (
                exact_expected_return(toy_mdp, theta + e, 0.9, tab_policy)
                - exact_expected_return(toy_mdp, theta - e, 0.9, tab_policy)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))

    def test_score_zero_mean_over_trajectories(self, toy_mdp, tab_policy, rng):
        theta = 0.4 * rng.standard_normal(4)
        batch, probs = enumerate_trajectories(toy_mdp, theta, tab_policy)
        states, actions, _ = batch.step_arrays
        step_scores = scores(tab_policy, theta, states, actions).reshape(len(batch), batch.n_steps, 4)
        total = probs @ step_scores.sum(axis=1)
        np.testing.assert_allclose(total, 0.0, atol=1e-10)


class TestEstimatorExpectations:
    def components(self, rng, k=3, dim=4):
        return [(0.4 * rng.standard_normal(dim), random_tensor(rng)) for _ in range(k)]

    def test_ilr_mlr_pg_unbiased(self, toy_mdp, tab_policy, rng):
        components = self.components(rng)
        theta_k, omega_k = components[-1]
        target = TabularMDP(omega_k, toy_mdp.rewards, toy_mdp.initial, toy_mdp.horizon)
        exact = exact_policy_gradient(target, theta_k, 0.9, tab_policy)
        for kind in ("pg", "ilr", "mlr"):
            est = estimator_exact_expectation(kind, toy_mdp, components, 0.9, tab_policy)
            np.testing.assert_allclose(est, exact, atol=1e-10)

    def test_mlr_windowed_unbiased(self, toy_mdp, tab_policy, rng):
        components = self.components(rng, k=4)
        theta_k, omega_k = components[-1]
        target = TabularMDP(omega_k, toy_mdp.rewards, toy_mdp.initial, toy_mdp.horizon)
        exact = exact_policy_gradient(target, theta_k, 0.9, tab_policy)
        est = estimator_exact_expectation(
            "mlr", toy_mdp, components, 0.9, tab_policy, rolling_window=2
        )
        np.testing.assert_allclose(est, exact, atol=1e-10)

    def test_tlr_unbiased_under_shared_model(self, toy_mdp, tab_policy, rng):
        shared = random_tensor(rng)
        components = [(0.4 * rng.standard_normal(4), shared) for _ in range(3)]
        target = TabularMDP(shared, toy_mdp.rewards, toy_mdp.initial, toy_mdp.horizon)
        exact = exact_policy_gradient(target, components[-1][0], 0.9, tab_policy)
        est = estimator_exact_expectation("tlr", toy_mdp, components, 0.9, tab_policy)
        np.testing.assert_allclose(est, exact, atol=1e-10)

    def test_ilr_mean_unbiased(self, toy_mdp, tab_policy, rng):
        components = self.components(rng)
        theta_k, omega_k = components[-1]
        target = TabularMDP(omega_k, toy_mdp.rewards, toy_mdp.initial, toy_mdp.horizon)
        exact = exact_expected_return(target, theta_k, 0.9, tab_policy)
        buffer = _enumerated_buffer(toy_mdp, components, tab_policy)
        est = ilr_mean_estimate(buffer, buffer.records[-1].theta, buffer.records[-1].omega, 0.9)
        assert est == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("kind", ["ilr_mean", "zzz"])
    def test_unknown_kind_raises(self, toy_mdp, tab_policy, rng, kind):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            estimator_exact_expectation(kind, toy_mdp, self.components(rng), 0.9, tab_policy)

    def test_full_return_weighting_same_expectation(self, toy_mdp, tab_policy, rng):
        # replacing reward-to-go by the full return leaves the exact
        # expectation unchanged (score terms of the past are mean zero)
        components = self.components(rng)
        theta_k, omega_k = components[-1]
        gamma = 0.9
        env = TabularEnv(toy_mdp)
        from greensim_rl.core import reward_to_go

        expect_rtg = np.zeros(4)
        expect_full = np.zeros(4)
        k = len(components)
        for theta_i, omega_i in components:
            batch, probs = enumerate_trajectories(toy_mdp, theta_i, tab_policy, omega=omega_i)
            ratio = np.exp(
                logdensity(batch, theta_k, omega_k, env, tab_policy)
                - logdensity(batch, theta_i, omega_i, env, tab_policy)
            )
            states, actions, _ = batch.step_arrays
            step_scores = scores(tab_policy, theta_k, states, actions).reshape(len(batch), batch.n_steps, 4)
            rtg = reward_to_go(batch.rewards, gamma)
            weight = (probs / k) * ratio
            expect_rtg += np.einsum("j,jtp,jt->p", weight, step_scores, rtg)
            expect_full += np.einsum("j,jtp,j->p", weight, step_scores, rtg[:, 0])
        np.testing.assert_allclose(expect_rtg, expect_full, atol=1e-10)


class TestTabularDensity:
    def test_stacked_models_match_one_model_calls(self, toy_mdp, rng):
        # the second model forbids the step 0 -(action 1)-> 0
        blocked = random_tensor(rng)
        blocked[0, 1] = [0.0, 1.0]
        omegas = [toy_mdp.transition, blocked, random_tensor(rng)]
        env = TabularEnv(toy_mdp)
        states = np.array([[0.0], [0.0], [1.0], [1.0], [0.0]])
        actions = np.array([1, 0, 1, 0, 1])
        nxt = np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])
        stacked = env.transition_logpdf_batch(states, actions, nxt, omegas)
        assert stacked.shape == (3, 5)
        for r, omega in enumerate(omegas):
            one = env.transition_logpdf_batch(states, actions, nxt, [omega])[0]
            np.testing.assert_array_equal(stacked[r], one)
            with np.errstate(divide="ignore"):
                want = np.log(omega[states[:, 0].astype(int), actions, nxt[:, 0].astype(int)])
            np.testing.assert_allclose(stacked[r], want, rtol=0, atol=1e-15)
        assert stacked[1, 0] == -np.inf and np.isfinite(np.delete(stacked, 0, axis=1)).all()


class TestEvaluatePolicyOnToy:
    def test_converges_to_exact_return(self, toy_mdp, tab_policy, rng):
        theta = 0.4 * rng.standard_normal(4)
        exact = exact_expected_return(toy_mdp, theta, 1.0, tab_policy)
        env = TabularEnv(toy_mdp)
        batch = rollout_batch(env, tab_policy, theta, toy_mdp.transition, 100_000, stream(41))
        values = returns(batch.rewards, 1.0)
        value = evaluate_policy(theta, env, toy_mdp.transition, tab_policy, 100_000, stream(41))
        se = values.std() / np.sqrt(values.size)
        assert abs(value - exact) < 4 * se


class TestOracleChecks:
    def test_all_pass(self):
        results = run_oracle_checks()
        failures = [name for name, ok, _ in results if not ok]
        assert failures == []


class TestValidation:
    def test_row_sum_validation(self):
        bad = np.full((2, 2, 2), 0.5)
        bad[0, 0, 0] = 0.6
        with pytest.raises(ValueError):
            TabularMDP(bad, np.zeros((2, 2)), np.array([1.0, 0.0]), 2)

    def test_size_caps(self, rng):
        with pytest.raises(ValueError):
            TabularMDP(
                random_tensor(rng, 6, 2), np.zeros((6, 2)), np.full(6, 1 / 6), 2
            )
        with pytest.raises(ValueError):
            TabularMDP(random_tensor(rng), np.zeros((2, 2)), np.array([1.0, 0.0]), 5)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"rewards": np.zeros((2, 3))}, "inconsistent table shapes"),
            ({"initial": np.array([1.0])}, "inconsistent table shapes"),
            ({"rewards": np.array([[0.0, np.inf], [0.0, 0.0]])}, "tables must be finite"),
            ({"initial": np.array([1.5, -0.5])}, "probabilities must be nonnegative"),
            ({"initial": np.array([0.5, 0.4])}, "initial distribution must sum to 1"),
        ],
        ids=["rewards-shape", "initial-shape", "reward-inf", "initial-negative", "initial-sum"],
    )
    def test_table_rejections(self, rng, edit, message):
        tables = {"transition": random_tensor(rng), "rewards": np.zeros((2, 2)), "initial": np.array([0.5, 0.5])}
        with pytest.raises(ValueError, match=message):
            TabularMDP(**{**tables, **edit}, horizon=2)
