"""Likelihood ratios, mixtures, and the four gradient estimators."""

import numpy as np
import pytest

from greensim_rl import bioenv
from greensim_rl.core import TrajectoryBatch, returns, rollout_batch
from greensim_rl.estimators import (
    EstimatorError,
    ReplayBuffer,
    _log_mixture,
    gradient,
    ilr_gradient,
    ilr_mean_estimate,
    mlr_gradient,
    pg_gradient,
    tlr_gradient,
    trajectory_logdensity,
)
from greensim_rl.oracle import TabularEnv, TabularMDP, enumerate_trajectories
from greensim_rl.policy import LinearSoftmaxPolicy, onehot_features

from conftest import (
    alphas_from_counts,
    buffer_of,
    concat_batches,
    logdensity,
    mlr_ratios_batch,
    random_tensor,
    reuse_gradient_reference,
    stream,
    window_block_reference,
)


def make_buffer(env, policy, components, n_per_record, seed=0):
    buffer = ReplayBuffer(env, policy)
    for i, (theta, omega) in enumerate(components):
        buffer.append(theta, omega, rollout_batch(env, policy, theta, omega, n_per_record, stream(seed, i)))
    return buffer


class TestMixtureWeights:
    def test_from_counts(self, toy_mdp, tab_policy, rng):
        # a window of 10 and 30 trajectories is the mixture 0.25 D_1 + 0.75 D_2
        env = TabularEnv(toy_mdp)
        components = [(0.5 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng)) for _ in range(2)]
        buffer = ReplayBuffer(env, tab_policy)
        for i, ((theta, omega), n) in enumerate(zip(components, (10, 30))):
            buffer.append(theta, omega, rollout_batch(env, tab_policy, theta, omega, n, stream(4, i)))
        diag = {}
        mlr_gradient(buffer, *components[-1], 2, diag_out=diag)
        batch = concat_batches([r.trajectories for r in buffer.records])
        want = mlr_ratios_batch(batch, components[-1], components, np.array([0.25, 0.75]), env, tab_policy)
        np.testing.assert_allclose(diag["ratios"], want, rtol=0, atol=1e-12)


def zero_batch(n, horizon, dim):
    """``n`` all-zero trajectories of ``horizon`` states of dimension ``dim``."""
    return TrajectoryBatch(np.zeros((n, horizon, dim)), np.zeros((n, horizon - 1)), np.zeros((n, horizon - 1)))


class TestBufferStructure:
    def test_empty_record_rejected(self, tab_policy):
        with pytest.raises(ValueError):
            ReplayBuffer(None, tab_policy).append(np.zeros(2), None, zero_batch(0, 3, 1))

    @pytest.mark.parametrize("horizon, dim", [(2, 1), (3, 2)], ids=["horizon", "state-dim"])
    def test_append_rejects_mismatched_shape(self, tab_policy, horizon, dim):
        buffer = ReplayBuffer(None, tab_policy)
        buffer.append(np.zeros(2), None, zero_batch(2, 3, 1))
        with pytest.raises(ValueError, match="do not match"):
            buffer.append(np.zeros(2), None, zero_batch(1, horizon, dim))
        assert len(buffer) == 1 and buffer.total_trajectories() == 2

    @pytest.mark.parametrize(
        "weights",
        [np.full(3, 0.5), np.full((2, 1), 0.5), np.array([0.5, np.nan]), np.array([np.inf, 0.5])],
        ids=["length", "shape", "nan", "inf"],
    )
    def test_append_rejects_bad_weights(self, tab_policy, weights):
        buffer = ReplayBuffer(None, tab_policy)
        buffer.append(np.zeros(2), None, zero_batch(3, 3, 1))
        before = {name: column.copy() for name, column in buffer._store.items()}
        with pytest.raises(ValueError, match="finite weights"):
            buffer.append(np.zeros(2), None, zero_batch(2, 3, 1), weights)
        assert len(buffer) == 1 and buffer.total_trajectories() == 3
        assert buffer._store.keys() == before.keys()
        for name, column in buffer._store.items():
            assert column.tobytes() == before[name].tobytes(), name

    def test_store_views_equal_concatenation(self, toy_mdp, tab_policy, rng):
        # varying n_i grow the store three times; own densities filled before
        # a growth, and the weights, must be carried over with the trajectories.
        # Odd records get weights of their own, even ones the default 1/n_i.
        env = TabularEnv(toy_mdp)
        batches, weights, pairs, capacities = [], [], [], []
        buffer = ReplayBuffer(env, tab_policy)
        for i, n in enumerate([3, 2, 4, 1, 5, 2]):
            theta, omega = 0.4 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng)
            batches.append(rollout_batch(env, tab_policy, theta, omega, n, stream(40, i)))
            pairs.append((theta, omega))
            if i % 2:
                weights.append(stream(41, i).uniform(0.1, 1.0, n))
                buffer.append(theta, omega, batches[-1], weights[-1])
            else:
                weights.append(np.full(n, 1.0 / n))
                buffer.append(theta, omega, batches[-1])
            capacities.append(len(buffer._store["own_logdens"]))
            if i == 2:
                buffer.own_logdensities()
        assert len(set(capacities)) == 4
        own = np.concatenate(
            [logdensity(b, theta, omega, env, tab_policy) for b, (theta, omega) in zip(batches, pairs)]
        )
        assert buffer.own_logdensities().tobytes() == own.tobytes()
        assert buffer.total_trajectories() == len(own)
        spans = [(lo, hi) for lo in range(len(batches)) for hi in range(lo + 1, len(batches) + 1)]
        checks = [(buffer.trajectories(lo, hi), concat_batches(batches[lo:hi])) for lo, hi in spans]
        # each record's own view was taken before later growths moved the store
        checks += [(record.trajectories, batch) for record, batch in zip(buffer.records, batches)]
        for view, want in checks:
            for name in ("states", "actions", "rewards"):
                got, ref = getattr(view, name), getattr(want, name)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        weight_checks = [(buffer.weights(lo, hi), np.concatenate(weights[lo:hi])) for lo, hi in spans]
        weight_checks += [(record.weights, w) for record, w in zip(buffer.records, weights)]
        for got, want in weight_checks:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_own_density_cache_matches_recompute(self, toy_mdp, tab_policy, rng, monkeypatch):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], 5)
        calls = []
        log_prob_batch = tab_policy.log_prob_batch

        def counting(thetas, states, actions):
            calls.append(len(thetas))
            return log_prob_batch(thetas, states, actions)

        monkeypatch.setattr(tab_policy, "log_prob_batch", counting)
        cached = buffer.own_logdensities()
        assert calls == [1]
        again = buffer.own_logdensities()
        assert calls == [1]  # memoized: the second call evaluates nothing
        np.testing.assert_array_equal(again, cached)
        # a new record is evaluated alone, in one call of its own
        theta2, omega2 = 0.3 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng)
        buffer.append(theta2, omega2, rollout_batch(env, tab_policy, theta2, omega2, 4, stream(2)))
        column = buffer.own_logdensities()
        assert calls == [1, 1]
        np.testing.assert_array_equal(column[:5], cached)
        for record, part in zip(buffer.records, np.split(column, [5])):
            direct = logdensity(record.trajectories, record.theta, record.omega, env, tab_policy)
            np.testing.assert_array_equal(part, direct)


class TestTrajRelLogdensity:
    def test_stepless_trajectory_is_zero(self, toy_mdp, tab_policy):
        env = TabularEnv(toy_mdp)
        batch = TrajectoryBatch(np.zeros((3, 1, 1)), np.zeros((3, 0), dtype=int), np.zeros((3, 0)))
        for policy_only in (False, True):
            value = logdensity(batch, np.zeros(4), toy_mdp.transition, env, tab_policy, policy_only)
            np.testing.assert_array_equal(value, np.zeros(3))
            stacked = trajectory_logdensity(
                batch, np.zeros((2, 4)), [toy_mdp.transition] * 2, env, tab_policy, policy_only
            )
            np.testing.assert_array_equal(stacked, np.zeros((2, 3)))

    def test_stepless_buffer_gives_zero_gradients(self, tab_policy):
        # horizon 1: the enumeration yields stepless trajectories only
        mdp = TabularMDP(np.full((2, 2, 2), 0.5), np.ones((2, 2)), np.array([0.5, 0.5]), horizon=1)
        env = TabularEnv(mdp)
        theta = np.zeros(tab_policy.param_dim)
        batch, probs = enumerate_trajectories(mdp, theta, tab_policy)
        assert batch.n_steps == 0 and len(batch) == 2
        buffer = ReplayBuffer(env, tab_policy)
        buffer.append(theta, mdp.transition, batch)
        for grad in (
            pg_gradient(buffer.records[0], tab_policy),
            ilr_gradient(buffer, theta, mdp.transition),
            mlr_gradient(buffer, theta, mdp.transition, 1),
            tlr_gradient(buffer, theta, 1),
        ):
            np.testing.assert_array_equal(grad, np.zeros(tab_policy.param_dim))
        assert ilr_mean_estimate(buffer, theta, mdp.transition, 1.0) == 0.0

    def test_uniform_closed_form(self, scn, env, mlp_policy):
        # uniform policy over 10 actions and Beta(1,1) fractions: each step
        # contributes log(0.1) from the policy and 0 from the transition
        from greensim_rl.bioenv import ModelParams

        uniform_model = ModelParams(np.ones((3, 10, 4)))
        theta = np.zeros(mlp_policy.param_dim)
        batch = rollout_batch(env, mlp_policy, theta, uniform_model, 3, stream(2))
        value = logdensity(batch, theta, uniform_model, env, mlp_policy)
        np.testing.assert_allclose(value, np.full(3, 2 * np.log(0.1)), rtol=0, atol=1e-12)

    def test_matches_per_step_recomputation(self, scn, env, mlp_policy, rng):
        theta = mlp_policy.init_params(stream(3))
        batch = rollout_batch(env, mlp_policy, theta, scn.true_model, 5, stream(4))
        value = logdensity(batch, theta, scn.true_model, env, mlp_policy)
        for j in range(5):
            total = 0.0
            for t in range(batch.n_steps):
                s, s2 = batch.states[j, t : t + 1], batch.states[j, t + 1 : t + 2]
                a = batch.actions[j, t : t + 1]
                total += mlp_policy.log_prob_batch(theta[None], s, a)[0, 0]
                total += env.transition_logpdf_batch(s, a, s2, [scn.true_model])[0, 0]
            assert value[j] == pytest.approx(total, abs=1e-12)

    def test_stacked_pairs_match_one_pair_calls(self, scn, env, mlp_policy):
        # each row of a stacked call carries the bits of its own one-pair call
        thetas = np.stack([mlp_policy.init_params(stream(5, r), 0.5) for r in range(3)])
        omegas = [scn.true_model, bioenv.ModelParams(np.ones((3, 10, 4))), scn.true_model]
        batch = rollout_batch(env, mlp_policy, thetas[0], scn.true_model, 6, stream(6))
        for policy_only in (False, True):
            stacked = trajectory_logdensity(batch, thetas, omegas, env, mlp_policy, policy_only)
            assert stacked.shape == (3, 6)
            for r in range(3):
                one = logdensity(batch, thetas[r], omegas[r], env, mlp_policy, policy_only)
                np.testing.assert_array_equal(stacked[r], one)


class TestMixtureLogdensity:
    """``log sum_i alpha_i D_i(tau)`` from the per-trajectory log densities."""

    def test_single_component_reduces(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.2 * rng.standard_normal(tab_policy.param_dim)
        batch = rollout_batch(env, tab_policy, theta, toy_mdp.transition, 3, stream(5))
        own = logdensity(batch, theta, toy_mdp.transition, env, tab_policy)
        mix = _log_mixture(own[None, :], np.array([1.0]))
        np.testing.assert_allclose(mix, own, rtol=0, atol=1e-12)

    def test_identical_components_collapse(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.2 * rng.standard_normal(tab_policy.param_dim)
        batch = rollout_batch(env, tab_policy, theta, toy_mdp.transition, 3, stream(6))
        own = logdensity(batch, theta, toy_mdp.transition, env, tab_policy)
        mix = _log_mixture(np.stack([own, own]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(mix, own, rtol=0, atol=1e-12)

    def test_matches_high_precision_sum(self, toy_mdp, tab_policy, rng):
        import mpmath

        env = TabularEnv(toy_mdp)
        components = [
            (0.4 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng)) for _ in range(5)
        ]
        alphas = alphas_from_counts([1, 2, 3, 4, 5])
        batch = rollout_batch(env, tab_policy, components[0][0], components[0][1], 5, stream(7))
        logds = np.stack([logdensity(batch, th, om, env, tab_policy) for th, om in components])
        mine = _log_mixture(logds, alphas)
        for j in range(len(batch)):
            with mpmath.workdps(60):
                exact = mpmath.log(
                    mpmath.fsum(
                        mpmath.mpf(a) * mpmath.e**mpmath.mpf(ld)
                        for a, ld in zip(alphas, logds[:, j])
                    )
                )
            assert abs(mine[j] - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


class TestMlrRatio:
    def test_single_component_target_is_one(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.2 * rng.standard_normal(tab_policy.param_dim)
        comp = (theta, toy_mdp.transition)
        batch = rollout_batch(env, tab_policy, theta, toy_mdp.transition, 3, stream(8))
        ratios = mlr_ratios_batch(batch, comp, [comp], np.array([1.0]), env, tab_policy)
        np.testing.assert_allclose(ratios, np.ones(3), rtol=0, atol=1e-12)

    def test_bounded_by_inverse_weight(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        for case in range(50):
            components = [
                (0.6 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng))
                for _ in range(5)
            ]
            counts = rng.integers(1, 30, size=5)
            alphas = alphas_from_counts(counts)
            k = int(rng.integers(5))
            batch = rollout_batch(env, tab_policy, components[k][0], components[k][1], 4, stream(9, case))
            f = mlr_ratios_batch(batch, components[k], components, alphas, env, tab_policy)
            assert np.all(f <= 1.0 / alphas[k] + 1e-12)

    def test_mixture_mass_integrates_to_one(self, toy_mdp, tab_policy, rng):
        # sum over all trajectories of mixture(tau) * f(tau) telescopes to 1
        env = TabularEnv(toy_mdp)
        components = [
            (0.5 * rng.standard_normal(tab_policy.param_dim), random_tensor(rng)) for _ in range(3)
        ]
        alphas = alphas_from_counts([2, 1, 2])
        target = components[-1]
        pooled = concat_batches(
            [enumerate_trajectories(toy_mdp, th, tab_policy, omega=om)[0] for th, om in components]
        )
        first_seen = {}
        for j in range(len(pooled)):
            first_seen.setdefault((tuple(pooled.states[j, :, 0]), tuple(pooled.actions[j])), j)
        keep = sorted(first_seen.values())
        batch = TrajectoryBatch(pooled.states[keep], pooled.actions[keep], pooled.rewards[keep])
        # mixture probability of each trajectory (full measure)
        densities = np.exp(np.stack([logdensity(batch, th, om, env, tab_policy) for th, om in components]))
        mix_prob = toy_mdp.initial[batch.states[:, 0, 0].astype(int)] * (alphas @ densities)
        f = mlr_ratios_batch(batch, target, components, alphas, env, tab_policy)
        assert float(np.sum(mix_prob * f)) == pytest.approx(1.0, abs=1e-12)


class TestPgGradient:
    def test_zero_rewards_zero_gradient(self, tab_policy, rng):
        mdp = TabularMDP(
            transition=random_tensor(rng),
            rewards=np.zeros((2, 2)),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, mdp.transition)], 50)
        grad = pg_gradient(buffer.records[0], tab_policy)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_one_step_analytic_gradient(self):
        # softmax over 2 actions at theta=0, rewards (1, 0): the expected
        # gradient of the first action's logit is d/dt e^t/(e^t+1) = 1/4
        policy = LinearSoftmaxPolicy(onehot_features(1), 2)
        mdp = TabularMDP(
            transition=np.ones((1, 2, 1)),
            rewards=np.array([[1.0, 0.0]]),
            initial=np.array([1.0]),
            horizon=2,
        )
        env = TabularEnv(mdp)
        theta = np.zeros(2)
        buffer = make_buffer(env, policy, [(theta, mdp.transition)], 100_000)
        grad = pg_gradient(buffer.records[0], policy)
        # SE of the estimator: scores are +-1/2, rewards 0/1 -> var <= 1/4
        assert abs(grad[0] - 0.25) < 3 * 0.5 / np.sqrt(100_000)
        assert abs(grad[0] + grad[1]) < 1e-12  # logit shift symmetry


class TestReductionLattice:
    def setup_case(self, toy_mdp, tab_policy, rng, n=25):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], n)
        return theta, buffer

    def test_single_record_reductions(self, toy_mdp, tab_policy, rng):
        theta, buffer = self.setup_case(toy_mdp, tab_policy, rng)
        pg = pg_gradient(buffer.records[0], tab_policy, 0.9)
        ilr = ilr_gradient(buffer, theta, toy_mdp.transition, 0.9)
        mlr = mlr_gradient(buffer, theta, toy_mdp.transition, 1, 0.9)
        tlr = tlr_gradient(buffer, theta, 1, 0.9)
        np.testing.assert_allclose(ilr, pg, atol=1e-10)
        np.testing.assert_allclose(mlr, pg, atol=1e-10)
        np.testing.assert_allclose(tlr, pg, atol=1e-10)

    def test_identical_pairs_make_ratios_one(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(
            env, tab_policy, [(theta, toy_mdp.transition)] * 3, 10
        )
        # pooled PG over all records
        pooled = ReplayBuffer(env, tab_policy)
        pooled.append(theta, toy_mdp.transition, buffer.trajectories(0, 3))
        pg = pg_gradient(pooled.records[0], tab_policy, 0.9)
        ilr = ilr_gradient(buffer, theta, toy_mdp.transition, 0.9)
        mlr = mlr_gradient(buffer, theta, toy_mdp.transition, 3, 0.9)
        np.testing.assert_allclose(ilr, pg, atol=1e-10)
        np.testing.assert_allclose(mlr, pg, atol=1e-10)

    def test_tlr_equals_mlr_under_shared_model(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        thetas = [0.3 * rng.standard_normal(tab_policy.param_dim) for _ in range(4)]
        components = [(th, toy_mdp.transition) for th in thetas]
        buffer = make_buffer(env, tab_policy, components, 8)
        mlr = mlr_gradient(buffer, thetas[-1], toy_mdp.transition, 4, 0.9)
        tlr = tlr_gradient(buffer, thetas[-1], 4, 0.9)
        np.testing.assert_allclose(tlr, mlr, atol=1e-10)


class TestIlrMeanEstimate:
    def test_on_policy_is_monte_carlo_mean(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], 40)
        est = ilr_mean_estimate(buffer, theta, toy_mdp.transition, 0.9)
        mc = np.mean(returns(buffer.records[0].trajectories.rewards, 0.9))
        assert est == pytest.approx(mc, abs=1e-12)

    def test_zero_rewards_zero_value(self, tab_policy, rng):
        mdp = TabularMDP(
            transition=random_tensor(rng),
            rewards=np.zeros((2, 2)),
            initial=np.array([0.5, 0.5]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = np.zeros(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, mdp.transition)], 10)
        assert ilr_mean_estimate(buffer, theta, mdp.transition, 1.0) == 0.0


class TestLogDomainSafety:
    def test_extreme_ratio_spread_no_nan(self, tab_policy, rng):
        # transition tensors with probabilities spanning e^{-100} per step
        # produce density ratios around e^{+-200} over two steps
        tiny = 1e-44
        t1 = np.zeros((2, 2, 2))
        t1[:, :, 0] = 1.0 - tiny
        t1[:, :, 1] = tiny
        t2 = np.zeros((2, 2, 2))
        t2[:, :, 0] = tiny
        t2[:, :, 1] = 1.0 - tiny
        mdp = TabularMDP(
            transition=t1,
            rewards=np.array([[1.0, -1.0], [2.0, 0.5]]),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = 0.2 * rng.standard_normal(tab_policy.param_dim)
        buffer = ReplayBuffer(env, tab_policy)
        buffer.append(theta, t1, rollout_batch(env, tab_policy, theta, t1, 10, stream(10)))
        buffer.append(theta, t2, rollout_batch(env, tab_policy, theta, t2, 10, stream(11)))
        for grad in (
            mlr_gradient(buffer, theta, t2, 2),
            tlr_gradient(buffer, theta, 2),
            ilr_gradient(buffer, theta, t2),
        ):
            assert np.all(np.isfinite(grad))

    def test_dead_mixture_with_live_target_raises(self, tab_policy, rng):
        # a trajectory every component assigns zero density to, while the
        # target pair (absent from the mixture) can generate it
        deterministic = np.zeros((2, 2, 2))
        deterministic[:, :, 1] = 1.0
        other = np.zeros((2, 2, 2))
        other[:, :, 0] = 1.0
        mdp = TabularMDP(
            transition=deterministic,
            rewards=np.ones((2, 2)),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = np.zeros(tab_policy.param_dim)
        batch = rollout_batch(env, tab_policy, theta, deterministic, 1, stream(12))
        with pytest.raises(EstimatorError):
            mlr_ratios_batch(
                batch,
                (theta, deterministic),
                [(theta, other)],
                np.array([1.0]),
                env,
                tab_policy,
            )


def mixed_buffer(env, policy, rng, n_records, n_per_record):
    """Records with distinct policies and transition models, as in an MLR run."""
    components = [
        (0.5 * rng.standard_normal(policy.param_dim), random_tensor(rng)) for _ in range(n_records)
    ]
    return make_buffer(env, policy, components, n_per_record, seed=20)


def window_gradient(kind, buffer, window, diag=None):
    """The trainer's call: target is the newest record's own pair."""
    last = buffer.records[-1]
    return gradient(kind, buffer, last.theta, last.omega, window, 0.9, diag_out=diag)


class TestWindowDensityMemo:
    # one call per appended record; the window grows, shrinks and slides
    WINDOWS = [1, 3, 3, 3, 5, 2, 4, 4, 6, 1, 3, 3]

    @pytest.mark.parametrize("kind", ["mlr", "tlr"])
    def test_warm_buffer_matches_cold(self, kind, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        full = mixed_buffer(env, tab_policy, rng, len(self.WINDOWS), 6)
        warm = ReplayBuffer(env, tab_policy)
        for record, window in zip(full.records, self.WINDOWS):
            warm.append(record.theta, record.omega, record.trajectories)
            got, want = {}, {}
            warm_grad = window_gradient(kind, warm, window, got)
            cold_grad = window_gradient(kind, buffer_of(env, tab_policy, warm.records), window, want)
            np.testing.assert_allclose(warm_grad, cold_grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got["ratios"], want["ratios"], rtol=0, atol=1e-12)
            assert got["ess"] == pytest.approx(want["ess"], abs=1e-12)

    def test_ratios_match_reference(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        buffer = ReplayBuffer(env, tab_policy)
        for record, window in zip(mixed_buffer(env, tab_policy, rng, 9, 5).records, self.WINDOWS):
            buffer.append(record.theta, record.omega, record.trajectories)
            diag = {}
            window_gradient("mlr", buffer, window, diag)
            records = buffer.window(window)
            want = mlr_ratios_batch(
                concat_batches([r.trajectories for r in records]),
                (records[-1].theta, records[-1].omega),
                [(r.theta, r.omega) for r in records],
                alphas_from_counts([r.n_i for r in records]),
                env,
                tab_policy,
            )
            np.testing.assert_allclose(diag["ratios"], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["mlr", "tlr"])
    def test_sliding_block_matches_per_pair_reference(self, kind, scn, env, mlp_policy):
        # chromatography and MLP, as in training: the memo's block, grown by
        # stacked calls as the window slides, has the bits of one density
        # call per record's pair over the whole window
        window, policy_only = 3, kind == "tlr"
        omegas = [scn.true_model, bioenv.ModelParams(np.full((3, 10, 4), 2.0))]
        buffer = ReplayBuffer(None if policy_only else env, mlp_policy)
        for k in range(1, 7):
            theta = mlp_policy.init_params(stream(30, k), 0.5)
            omega = omegas[k % 2]
            buffer.append(theta, omega, rollout_batch(env, mlp_policy, theta, omega, 4, stream(31, k)))
            window_gradient(kind, buffer, window)
            block = buffer._window_logdens[policy_only][2]
            want = window_block_reference(buffer.window(window), env, mlp_policy, policy_only)
            np.testing.assert_array_equal(block, want)

    def test_memo_holds_only_window_records(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        buffer = ReplayBuffer(env, tab_policy)
        for record in mixed_buffer(env, tab_policy, rng, 7, 4).records:
            buffer.append(record.theta, record.omega, record.trajectories)
            window_gradient("mlr", buffer, 3)
            window_gradient("tlr", buffer, 2)
        for policy_only, window in [(False, 3), (True, 2)]:
            lo, hi, block = buffer._window_logdens[policy_only]
            assert (lo, hi) == (7 - window, 7)
            assert block.shape == (window, 4 * window)

    def test_dead_trajectories_get_zero_ratio(self, tab_policy, rng):
        # record 1 may step to either state; record 2 (the target) always
        # steps to state 1, so record 1's trajectories that visit state 0
        # are impossible under the target
        deterministic = np.zeros((2, 2, 2))
        deterministic[:, :, 1] = 1.0
        mdp = TabularMDP(
            transition=deterministic,
            rewards=np.ones((2, 2)),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, random_tensor(rng)), (theta, deterministic)], 20)
        diag = {}
        window_gradient("mlr", buffer, 2, diag)
        dead = np.concatenate(
            [np.any(r.trajectories.states[:, 1:, 0] == 0, axis=1) for r in buffer.records]
        )
        assert dead.any() and not dead.all()
        assert np.all(diag["ratios"][dead] == 0.0)
        assert np.all(diag["ratios"][~dead] > 0.0)

    def test_dead_mixture_with_live_target_raises(self, tab_policy, rng):
        # the record claims a model under which its own trajectories are
        # impossible, so the mixture is zero where the target is not
        deterministic = np.zeros((2, 2, 2))
        deterministic[:, :, 1] = 1.0
        other = np.zeros((2, 2, 2))
        other[:, :, 0] = 1.0
        mdp = TabularMDP(
            transition=deterministic,
            rewards=np.ones((2, 2)),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = np.zeros(tab_policy.param_dim)
        buffer = ReplayBuffer(env, tab_policy)
        buffer.append(theta, other, rollout_batch(env, tab_policy, theta, deterministic, 3, stream(13)))
        with pytest.raises(EstimatorError, match="mixture density is zero"):
            mlr_gradient(buffer, theta, deterministic, 1)

    def test_record_theta_is_frozen(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], 3)
        assert buffer.records[0].theta is theta  # no copy: identity shortcuts keep working
        with pytest.raises(ValueError):
            theta[0] += 1.0


class TestMixtureCostIsLinearInWindow:
    """Guard against the mixture going back to recomputing the W x W block,
    or to one density call per record pair."""

    @pytest.mark.parametrize("kind", ["mlr", "tlr"])
    def test_rows_evaluated_per_iteration(self, kind, toy_mdp, rng):
        n, window, iterations, steps = 25, 50, 100, 2
        env = TabularEnv(toy_mdp)
        policy = LinearSoftmaxPolicy(onehot_features(2), 2)
        records = mixed_buffer(env, policy, rng, iterations, n).records
        rows, pass_rows, policy_calls, env_calls = [], [], [], []
        log_prob_batch = policy.log_prob_batch
        score_pass = policy.score_pass
        transition_logpdf_batch = env.transition_logpdf_batch

        def counting(thetas, states, actions):
            rows.append(len(thetas) * states.shape[0])
            policy_calls[-1] += 1
            return log_prob_batch(thetas, states, actions)

        def counting_pass(theta, states, actions):
            pass_rows.append(states.shape[0])
            return score_pass(theta, states, actions)

        def counting_env(states, actions, next_states, omegas):
            env_calls[-1] += 1
            return transition_logpdf_batch(states, actions, next_states, omegas)

        policy.log_prob_batch = counting
        policy.score_pass = counting_pass
        env.transition_logpdf_batch = counting_env
        buffer = ReplayBuffer(env if kind == "mlr" else None, policy)
        for record in records:
            buffer.append(record.theta, record.omega, record.trajectories)
            policy_calls.append(0)
            env_calls.append(0)
            window_gradient(kind, buffer, window)
        ks = np.arange(1, iterations + 1)
        w = np.minimum(ks, window)
        linear = int(np.sum(n * steps * (2 * w - 1)))
        quadratic = int(np.sum(n * steps * w**2))
        assert (linear, quadratic) == (372_500, 8_396_250)
        assert sum(rows) + sum(pass_rows) == linear
        # one pass at theta_k over the window per call serves the newest row and the score
        assert pass_rows == list(n * steps * w)
        # one stacked call (the older records' columns), whatever the window holds
        assert max(policy_calls) == 1 and policy_calls[0] == 0
        assert max(env_calls) == (2 if kind == "mlr" else 0)


class TestGradientsKeepTheirBits:
    """Each reuse gradient equals a from-scratch reference, one forward pass per density, bit for bit."""

    # (estimator, window); None is the whole buffer
    CASES = [("ilr", None), ("mlr", 1), ("mlr", 3), ("mlr", None), ("tlr", 3)]

    @pytest.mark.parametrize("setting", ["chromatography-mlp", "tabular-linear", "tabular-enumerated"])
    def test_equal_to_reference(self, setting, scn, env, mlp_policy, toy_mdp, tab_policy):
        if setting == "chromatography-mlp":
            policy, omegas = mlp_policy, [scn.true_model, bioenv.ModelParams(np.full((3, 10, 4), 2.0))]
        else:
            env, policy = TabularEnv(toy_mdp), tab_policy
            omegas = [toy_mdp.transition, random_tensor(stream(50))]
        # enumerated records carry their generating probabilities as weights;
        # sampled ones take the default
        weights = [] if setting == "tabular-enumerated" else None
        # one buffer per case, grown record by record, so each memo extends as in training
        buffers = {case: ReplayBuffer(env, policy) for case in self.CASES}
        for k in range(5):
            theta = policy.init_params(stream(51, k), 0.5)
            omega = omegas[k % 2]
            if weights is None:
                batch, probs = rollout_batch(env, policy, theta, omega, 6, stream(52, k)), None
            else:
                batch, probs = enumerate_trajectories(toy_mdp, theta, policy, omega)
                weights.append(probs)
            for (kind, window), buffer in buffers.items():
                buffer.append(theta, omega, batch, probs)
                # the trainer's call: theta_k is the newest record's own array
                # (the newest block row shares the target's pass); then an
                # equal copy, another theta, and another model
                targets = [
                    (theta, omega),
                    (theta.copy(), omega),
                    (policy.init_params(stream(53, k), 0.5), omega),
                    (theta, omegas[(k + 1) % 2]),
                ]
                for theta_k, omega_k in targets:
                    got = gradient(kind, buffer, theta_k, omega_k, window or len(buffer), 0.9)
                    want = reuse_gradient_reference(
                        kind, buffer.records, theta_k, omega_k, env, policy, window or len(buffer), 0.9,
                        weights,
                    )
                    np.testing.assert_array_equal(got, want, err_msg=f"{kind} W={window} k={k}")


class TestDiagnostics:
    def test_diag_out_fields(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        thetas = [0.3 * rng.standard_normal(tab_policy.param_dim) for _ in range(3)]
        buffer = make_buffer(env, tab_policy, [(th, toy_mdp.transition) for th in thetas], 10)
        diag = {}
        mlr_gradient(buffer, thetas[-1], toy_mdp.transition, 3, diag_out=diag)
        assert 0 < diag["max_ratio"] <= 3.0 + 1e-12  # bounded by 1/alpha
        assert 0 < diag["ess"] <= 30.0

    def test_every_kind_fills_ratio_and_ess(self, toy_mdp, tab_policy, rng):
        # the trainer reads both fields of every estimator's diagnostics
        env = TabularEnv(toy_mdp)
        thetas = [0.3 * rng.standard_normal(tab_policy.param_dim) for _ in range(3)]
        buffer = make_buffer(env, tab_policy, [(th, toy_mdp.transition) for th in thetas], 10)
        last = buffer.records[-1]
        for kind in ("pg", "ilr", "mlr", "tlr"):
            diag = {}
            gradient(kind, buffer, last.theta, last.omega, 2, diag_out=diag)
            assert diag["max_ratio"] > 0 and 0 < diag["ess"] <= buffer.total_trajectories(), kind
        with pytest.raises(ValueError, match="unknown estimator kind 'zzz'"):
            gradient("zzz", buffer, last.theta, last.omega, 2)


class TestPreconditions:
    """The checks each estimator makes before it computes anything."""

    def test_empty_buffer_raises(self, toy_mdp, tab_policy):
        buffer = ReplayBuffer(TabularEnv(toy_mdp), tab_policy)
        theta, omega = np.zeros(tab_policy.param_dim), toy_mdp.transition
        for kind in ("pg", "ilr", "mlr", "tlr"):
            with pytest.raises(EstimatorError, match="buffer is empty"):
                gradient(kind, buffer, theta, omega, 2)
        with pytest.raises(EstimatorError, match="buffer is empty"):
            ilr_mean_estimate(buffer, theta, omega, 1.0)

    def test_pg_target_must_be_newest_own_pair(self, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], 4)
        last = buffer.records[-1]
        want = pg_gradient(last, tab_policy)
        np.testing.assert_array_equal(gradient("pg", buffer, last.theta, last.omega, 1), want)
        # an equal copy, another theta, another model: pg cannot reweight to any of them
        for theta_k, omega_k in [
            (theta.copy(), last.omega),
            (theta + 1.0, last.omega),
            (last.theta, random_tensor(rng)),
        ]:
            with pytest.raises(EstimatorError, match="newest record's own pair"):
                gradient("pg", buffer, theta_k, omega_k, 1)

    def test_zero_own_density_raises(self, tab_policy):
        # the record claims a model under which its own trajectories are impossible
        deterministic = np.zeros((2, 2, 2))
        deterministic[:, :, 1] = 1.0
        other = np.zeros((2, 2, 2))
        other[:, :, 0] = 1.0
        mdp = TabularMDP(
            transition=deterministic,
            rewards=np.ones((2, 2)),
            initial=np.array([1.0, 0.0]),
            horizon=3,
        )
        env = TabularEnv(mdp)
        theta = np.zeros(tab_policy.param_dim)
        buffer = ReplayBuffer(env, tab_policy)
        buffer.append(theta, other, rollout_batch(env, tab_policy, theta, deterministic, 3, stream(13)))
        for estimate in (ilr_gradient, lambda *args: ilr_mean_estimate(*args, 1.0)):
            with pytest.raises(EstimatorError, match="zero density to its own trajectory"):
                estimate(buffer, theta, deterministic)

    @pytest.mark.parametrize("kind", ["mlr", "tlr"])
    def test_rolling_window_of_zero_raises(self, kind, toy_mdp, tab_policy, rng):
        env = TabularEnv(toy_mdp)
        theta = 0.3 * rng.standard_normal(tab_policy.param_dim)
        buffer = make_buffer(env, tab_policy, [(theta, toy_mdp.transition)], 4)
        with pytest.raises(ValueError, match="window size must be >= 1"):
            window_gradient(kind, buffer, 0)
