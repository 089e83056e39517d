"""Upstream fermentation, chromatography transitions, rewards, scenario I/O."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from greensim_rl import bioenv
from greensim_rl.bioenv import (
    ChromatographyEnv,
    InvalidStateError,
    ModelParams,
    RewardConfig,
    Scenario,
    ScenarioError,
    UpstreamParams,
    beta_log_pdf,
    collect_real_data,
    default_scenario,
    integrate_upstream,
    load_scenario,
    reward,
    sample_initial_state,
    save_scenario,
    transition,
    transition_logpdf,
)
from greensim_rl.policy import LinearSoftmaxPolicy, purification_features

from conftest import stream


def upstream(**overrides):
    return dataclasses.replace(UpstreamParams(), **overrides)


class TestIntegrateUpstream:
    def test_zero_biomass_is_fixed_point(self):
        p_u, i_u = integrate_upstream(upstream(X0=0.0), 0.11, 0.11, 780.0)
        assert p_u == 0.0 and i_u == 0.0

    def test_no_feed_no_substrate_biomass_decays(self):
        # with q_s = 0 the growth rate is -q_m * Y_em < 0
        params = upstream(F=0.0, S0=0.0, duration=100.0)
        x_end = bioenv._integrate_biomass(params, 780.0)
        assert 0.0 < x_end < params.X0

    def test_matches_fine_step_reference(self):
        # frozen oracle: the same RK4 run once at dt/100 (0.0002 h) on the
        # default parameters gives this final biomass
        fine_reference = 0.1227023616
        params = upstream()
        coarse = bioenv._integrate_biomass(params, params.S_i_mean)
        assert abs(coarse - fine_reference) / fine_reference < 1e-4

    def test_fourth_order_convergence(self):
        # smooth region: short horizon keeps substrate strictly positive
        base = upstream(duration=10.0, harvest_to_mg=1.0)
        ref = bioenv._integrate_biomass(dataclasses.replace(base, dt=0.005), 780.0)
        err = {}
        for dt in (0.5, 0.25):
            err[dt] = abs(bioenv._integrate_biomass(dataclasses.replace(base, dt=dt), 780.0) - ref)
        ratio = err[0.5] / err[0.25]
        assert 8.0 < ratio < 32.0

    def test_masses_scale_with_rates(self):
        p_u, i_u = integrate_upstream(upstream(), 0.11, 0.055, 780.0)
        assert i_u == pytest.approx(p_u / 2.0, rel=1e-12)


class TestSampleInitialState:
    def test_noise_free_reduces_to_integration(self, scn):
        quiet = Scenario(
            upstream=upstream(nu1_sd=0.0, nu2_sd=0.0, S_i_sd=0.0, harvest_noise_sd=0.0),
            true_model=scn.true_model,
            reward=scn.reward,
            p_bar=scn.p_bar,
            i_bar=scn.i_bar,
        )
        state = sample_initial_state(quiet, stream(0))
        p_u, i_u = integrate_upstream(quiet.upstream, 0.11, 0.11, 780.0)
        np.testing.assert_allclose(state, [p_u, i_u, 1.0], rtol=1e-12)

    def test_all_samples_inside_state_box(self, scn, env):
        states = env.sample_initial_batch(10_000, stream(1))
        assert np.all(states[:, 0] > 0) and np.all(states[:, 0] <= scn.p_bar)
        assert np.all(states[:, 1] > 0) and np.all(states[:, 1] <= scn.i_bar)
        assert np.all(states[:, 2] == 1.0)

    def test_sample_mean_matches_independent_oracle(self, scn, env):
        # Monte Carlo oracle with an adaptive integrator (solve_ivp), numpy
        # normals and the same clamping, on an independent stream
        n = 20_000
        states = env.sample_initial_batch(n, stream(2))
        up = scn.upstream

        def rhs(_, y):
            x, s = y
            s = max(s, 0.0)
            q_s = up.q_s_max * s / (s + 0.1)
            mu = (q_s - up.q_m) * up.Y_em
            return [(-up.F / up.V + mu) * x, (up.F / up.V) * (up.S_i_mean - s) - q_s * x]

        sol = integrate.solve_ivp(
            rhs, (0.0, up.duration), [up.X0, up.S0], rtol=1e-10, atol=1e-12, method="RK45"
        )
        x_end = sol.y[0, -1]
        r = np.random.default_rng(777)
        nu1 = r.normal(up.nu1_mean, up.nu1_sd, n)
        oracle = np.clip(
            nu1 * x_end * up.harvest_to_mg + r.normal(0.0, up.harvest_noise_sd, n),
            bioenv.EPS_MASS,
            scn.p_bar,
        )
        se = np.hypot(states[:, 0].std() / np.sqrt(n), oracle.std() / np.sqrt(n))
        assert abs(states[:, 0].mean() - oracle.mean()) < 3 * se


class TestTransition:
    def test_uniform_fractions_shrink_masses(self, rng):
        omega = ModelParams(np.ones((3, 10, 4)))
        state = np.array([10.0, 5.0, 1.0])
        for _ in range(200):
            nxt = transition(state, 3, omega, rng)
            assert 0 < nxt[0] < state[0] and 0 < nxt[1] < state[1]
            assert nxt[2] == 2.0

    def test_seeded_transition_reproducible(self, scn):
        state = np.array([10.0, 5.0, 2.0])
        a = transition(state, 7, scn.true_model, stream(3))
        b = transition(state, 7, scn.true_model, stream(3))
        np.testing.assert_array_equal(a, b)

    def test_beta_moment(self, rng):
        shapes = np.tile([5.0, 3.0, 5.0, 3.0], (3, 10, 1))
        omega = ModelParams(shapes)
        state = np.array([1.0, 1.0, 1.0])
        draws = np.array([transition(state, 0, omega, rng)[0] for _ in range(100_000)])
        se = np.sqrt(draws.var() / draws.size)
        assert abs(draws.mean() - 5.0 / 8.0) < 3 * se

    def test_invalid_inputs(self, scn, rng):
        with pytest.raises(InvalidStateError):
            transition(np.array([0.0, 1.0, 1.0]), 0, scn.true_model, rng)
        with pytest.raises(InvalidStateError):
            transition(np.array([1.0, 1.0, 3.0]), 0, scn.true_model, rng)


BAD_STATES = {
    "zero protein mass": [0.0, 5.0, 1.0],
    "negative impurity mass": [10.0, -1.0, 2.0],
    "NaN mass": [np.nan, 5.0, 1.0],
    "terminal step": [10.0, 5.0, 3.0],
    "step zero": [10.0, 5.0, 0.0],
    "fractional step": [10.0, 5.0, 1.5],
}


class TestBatchStateValidation:
    @pytest.mark.parametrize("bad", list(BAD_STATES.values()), ids=list(BAD_STATES))
    def test_sample_transition_batch_rejects(self, env, scn, bad):
        states = np.array([[10.0, 5.0, bad[2]], bad])
        with pytest.raises(InvalidStateError):
            env.sample_transition_batch(states, np.zeros(2, dtype=np.int64), scn.true_model, stream(5))

    def test_sample_transition_batch_rejects_mixed_steps(self, env, scn):
        states = np.array([[10.0, 5.0, 1.0], [10.0, 5.0, 2.0]])
        with pytest.raises(InvalidStateError, match="share one step"):
            env.sample_transition_batch(states, np.zeros(2, dtype=np.int64), scn.true_model, stream(5))

    @pytest.mark.parametrize("bad", list(BAD_STATES.values()), ids=list(BAD_STATES))
    def test_transition_logpdf_batch_rejects(self, env, scn, bad):
        states = np.array([[10.0, 5.0, 1.0], bad])
        nxt = np.array([[4.0, 2.0, 2.0], [4.0, 2.0, 3.0]])
        with pytest.raises(InvalidStateError):
            env.transition_logpdf_batch(states, np.zeros(2, dtype=np.int64), nxt, scn.true_model)

    def test_transition_logpdf_batch_mixed_steps_match_scalar(self, env, scn):
        # the mixture concatenates step-1 and step-2 rows into one call
        states = np.array([[10.0, 5.0, 1.0], [6.0, 2.0, 2.0], [10.0, 5.0, 1.0 + 1e-12]])
        actions = np.array([4, 7, 0])
        nxt = np.array([[6.0, 2.0, 2.0], [5.0, 0.5, 3.0], [3.0, 1.0, 2.0]])
        batch = env.transition_logpdf_batch(states, actions, nxt, scn.true_model)
        scalar = [transition_logpdf(s, a, x, scn.true_model) for s, a, x in zip(states, actions, nxt)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_sample_transition_batch_valid_rows_advance(self, env, scn):
        states = np.array([[10.0, 5.0, 2.0], [8.0, 1.0, 2.0]])
        nxt = env.sample_transition_batch(states, np.array([1, 2]), scn.true_model, stream(6))
        np.testing.assert_array_equal(nxt[:, 2], [3.0, 3.0])
        assert np.all(nxt[:, :2] < states[:, :2])


class TestTransitionLogpdf:
    def test_uniform_shapes_zero_logdensity(self):
        omega = ModelParams(np.ones((3, 10, 4)))
        state = np.array([10.0, 5.0, 1.0])
        nxt = np.array([4.0, 2.0, 2.0])
        assert transition_logpdf(state, 2, nxt, omega) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_shapes_analytic(self):
        omega = ModelParams(np.full((3, 10, 4), 2.0))
        state = np.array([10.0, 10.0, 1.0])
        nxt = np.array([5.0, 5.0, 2.0])
        assert transition_logpdf(state, 0, nxt, omega) == pytest.approx(
            2.0 * np.log(1.5), abs=1e-12
        )

    def test_fraction_outside_support_is_neg_inf(self, scn):
        state = np.array([10.0, 5.0, 1.0])
        grown = np.array([11.0, 2.0, 2.0])
        assert transition_logpdf(state, 0, grown, scn.true_model) == -np.inf

    def test_matches_quadrature_normalization(self, rng):
        # density integrates the way its normalizing constant says it should
        for _ in range(10):
            a, b = rng.uniform(0.5, 8.0, size=2)
            norm, _ = integrate.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), 0.0, 1.0)
            x = rng.uniform(0.05, 0.95)
            expected = np.log(x ** (a - 1) * (1 - x) ** (b - 1) / norm)
            assert beta_log_pdf(x, a, b) == pytest.approx(expected, abs=1e-8)

    def test_density_matches_sampler_histogram(self, scn):
        # chi-square GOF at significance 0.001 between sampled protein
        # fractions and the density the environment reports for them
        omega = scn.true_model
        state = np.array([10.0, 5.0, 1.0])
        action = 4
        env = ChromatographyEnv(scn)
        states = np.tile(state, (100_000, 1))
        actions = np.full(100_000, action)
        nxt = env.sample_transition_batch(states, actions, omega, stream(4))
        h = nxt[:, 0] / 10.0

        psi_fix = 0.5
        grid = np.linspace(1e-6, 1 - 1e-6, 20001)
        dens = np.array(
            [
                np.exp(
                    transition_logpdf(
                        state, action, np.array([g * 10.0, psi_fix * 5.0, 2.0]), omega
                    )
                )
                for g in grid
            ]
        )
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        n_bins = 40
        edges = np.interp(np.linspace(0, 1, n_bins + 1), cdf, grid)
        counts, _ = np.histogram(h, bins=edges)
        expected = len(h) / n_bins
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        from scipy.stats import chi2 as chi2_dist

        assert chi2 < chi2_dist.ppf(0.999, n_bins - 1)


class TestReward:
    def test_full_demand_case(self):
        assert reward(np.array([10.0, 1.0, 3.0]), RewardConfig()) == pytest.approx(40.0)

    def test_shortage_case(self):
        assert reward(np.array([6.0, 0.5, 3.0]), RewardConfig()) == pytest.approx(18.0)

    def test_purity_failure_case(self):
        assert reward(np.array([20.0, 5.0, 3.0]), RewardConfig()) == pytest.approx(-48.0)

    def test_intermediate_steps_charge_op_cost(self):
        cfg = RewardConfig()
        assert reward(np.array([10.0, 10.0, 1.0]), cfg) == -8.0
        assert reward(np.array([10.0, 10.0, 2.0]), cfg) == -8.0

    def test_zero_mass_is_purity_failure(self):
        assert reward(np.array([0.0, 0.0, 3.0]), RewardConfig()) == pytest.approx(-48.0)

    def test_boundary_continuity_at_demand(self):
        cfg = RewardConfig()
        at_demand = reward(np.array([8.0, 0.1, 3.0]), cfg)
        just_below = reward(np.array([8.0 - 1e-9, 0.1, 3.0]), cfg)
        assert at_demand == pytest.approx(cfg.price * cfg.p_d)
        assert just_below == pytest.approx(at_demand, abs=1e-6)

    def test_terminal_op_cost_flag(self):
        cfg = RewardConfig(charge_terminal_op_cost=True)
        assert reward(np.array([10.0, 1.0, 3.0]), cfg) == pytest.approx(32.0)

    @given(p=st.floats(0.001, 30.0), i=st.floats(0.001, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_cases_partition_terminal_space(self, p, i):
        cfg = RewardConfig()
        value = reward(np.array([p, i, 3.0]), cfg)
        purity = p / (p + i)
        if purity < cfg.r_d:
            assert value == -cfg.c_f
        elif p >= cfg.p_d:
            assert value == cfg.price * cfg.p_d
        else:
            assert value == pytest.approx(cfg.price * p - cfg.c_l * (cfg.p_d - p))


class TestEnvRewardWiring:
    def test_step_rewards_and_terminal_payout(self, env, scn, mlp_policy):
        from greensim_rl.core import rollout

        theta = mlp_policy.init_params(stream(5))
        traj = rollout(env, mlp_policy, theta, scn.true_model, stream(6))
        assert traj.rewards[0] == -scn.reward.op_cost
        quality = reward(traj.states[2], scn.reward)
        assert traj.rewards[1] == pytest.approx(-scn.reward.op_cost + quality)


class TestCollectRealData:
    def test_two_fractions_per_trajectory(self, scn, mlp_policy):
        theta = mlp_policy.init_params(stream(7))
        data = collect_real_data(scn, mlp_policy, theta, 1, stream(8))
        assert len(data) == 2
        steps = sorted(obs.step for obs in data.observations)
        assert steps == [1, 2]

    def test_fractions_inside_unit_interval(self, scn, mlp_policy):
        theta = mlp_policy.init_params(stream(7))
        data = collect_real_data(scn, mlp_policy, theta, 50, stream(9))
        assert len(data) == 100
        for obs in data.observations:
            assert 0.0 < obs.h_fraction < 1.0
            assert 0.0 < obs.psi_fraction < 1.0

    def test_deterministic_policy_actions_recorded(self, scn):
        policy = LinearSoftmaxPolicy(purification_features(scn.p_bar, scn.i_bar, 3), 10)
        theta = np.zeros((10, 3))
        theta[6, :] = 100.0  # features are positive, so action 6 dominates everywhere
        data = collect_real_data(scn, policy, theta.ravel(), 5, stream(10))
        assert all(obs.action == 6 for obs in data.observations)


class TestScenarioIO:
    def test_round_trip(self, tmp_path, scn):
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.true_model.beta_shapes, scn.true_model.beta_shapes)
        assert back.upstream == scn.upstream
        assert back.reward == scn.reward
        assert (back.p_bar, back.i_bar) == (scn.p_bar, scn.i_bar)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"upstream": {}}')
        with pytest.raises(ScenarioError, match="section"):
            load_scenario(path)

    def test_unknown_field_rejected(self, tmp_path, scn):
        import json

        payload = bioenv.scenario_to_jsonable(scn)
        payload["upstream"]["bogus_knob"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_nonpositive_shapes_rejected(self):
        with pytest.raises(ScenarioError):
            ModelParams(np.zeros((3, 10, 4)))

    def test_packaged_default_matches_builtin(self):
        """Regenerate with ``save_scenario(default_scenario(), "src/greensim_rl/data/default_scenario.json")``."""
        import json
        from importlib import resources

        with resources.files("greensim_rl").joinpath("data/default_scenario.json").open() as fh:
            packaged = bioenv.scenario_from_jsonable(json.load(fh))
        assert bioenv.scenario_to_jsonable(packaged) == bioenv.scenario_to_jsonable(
            default_scenario()
        )
