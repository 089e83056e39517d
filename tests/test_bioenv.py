"""Upstream fermentation, chromatography transitions, rewards, scenario I/O."""

import dataclasses
import fnmatch
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betaln
from scipy.stats import beta as beta_dist

from greensim_rl import bayes, bioenv
from greensim_rl.bioenv import (
    ETA_L,
    ETA_U,
    PSI_L,
    PSI_U,
    ChromatographyEnv,
    FractionDataset,
    InvalidStateError,
    ModelParams,
    RewardConfig,
    Scenario,
    ScenarioError,
    UpstreamParams,
    beta_log_pdf,
    collect_real_data,
    default_scenario,
    load_scenario,
    save_scenario,
)
from greensim_rl.core import rollout_batch
from greensim_rl.policy import POLICY_KINDS, LinearSoftmaxPolicy, purification_features
from greensim_rl.trainer import scenario_policy

from conftest import SEED, sample_transition_reference, stream

ENV = ChromatographyEnv(default_scenario())


def transition(state, action, omega, rng):
    """One-row call of the batch sampler."""
    return ENV.sample_transition_batch(np.array([state], dtype=float), np.array([action]), omega, rng)[0]


def transition_logpdf(state, action, next_state, omega):
    """One-row call of the batch log density."""
    rows = np.array([state], dtype=float), np.array([action]), np.array([next_state], dtype=float)
    return ENV.transition_logpdf_batch(*rows, [omega])[0, 0]


def payout(state, cfg=RewardConfig()):
    """Quality payout of one step-3 state under ``cfg``."""
    env = ChromatographyEnv(dataclasses.replace(default_scenario(), reward=cfg))
    return env.terminal_reward_batch(np.array([state], dtype=float))[0]


def upstream(**overrides):
    return dataclasses.replace(UpstreamParams(), **overrides)


class TestIntegrateUpstream:
    def test_zero_biomass_is_fixed_point(self):
        assert bioenv._integrate_biomass(upstream(X0=0.0), 780.0) == 0.0

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

    def test_default_final_biomass_is_pinned_and_a_float(self):
        # pinned bits of the default RK4; a Python float shows that the float loop
        # ran, not numpy scalar arithmetic (about ten times slower)
        x_end = bioenv._batch_final_biomass(UpstreamParams())
        assert x_end == 0.12270236170569605
        assert type(x_end) is float

    def test_batch_rows_match_scalar_calls(self):
        params = upstream(F=0.5, duration=50.0)
        s_i = np.array([700.0, 760.0, 780.0, 800.0, 860.0])
        batch = bioenv._integrate_biomass(params, s_i)
        np.testing.assert_array_equal(batch, [bioenv._integrate_biomass(params, v) for v in s_i])

    def test_clamp_matches_np_maximum(self):
        for s in (-0.0, 0.0, -2.5, 3.0, float("inf"), -float("inf")):
            clamped = bioenv._clamp_float(s)
            assert np.float64(clamped).tobytes() == np.maximum(np.float64(s), 0.0).tobytes()
        assert np.copysign(1.0, bioenv._clamp_float(-0.0)) == 1.0
        assert np.isnan(bioenv._clamp_float(float("nan")))

    @pytest.mark.parametrize("s_i", [780.0, np.array([780.0, 700.0])], ids=["scalar", "batch"])
    def test_nan_substrate_raises(self, s_i):
        # a clamp that mapped NaN to 0 would starve the culture into a finite answer
        params = upstream(F=0.5, duration=10.0)
        object.__setattr__(params, "S0", float("nan"))  # past the constructor's finite check
        with pytest.raises(bioenv.IntegrationError, match="non-finite"):
            bioenv._integrate_biomass(params, s_i)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dt": 300.0}, "negative"),  # 4 steps overshoot to about -1.4e19 g/L
            ({"S0": 1e308, "q_s_max": 10.0, "dt": 600.0}, "non-finite"),
        ],
        ids=["negative", "non-finite"],
    )
    def test_diverging_integration_raises(self, overrides, message):
        with pytest.raises(bioenv.IntegrationError, match=message):
            bioenv._batch_final_biomass(upstream(**overrides))

    @pytest.mark.parametrize("s_i", [780.0, np.array([780.0, 790.0])], ids=["scalar", "batch"])
    def test_diverging_fed_batch_raises_without_warnings(self, s_i):
        # the finite check is the error; overflow on the way there prints nothing
        params = upstream(F=0.5, S0=1e308, q_s_max=10.0, dt=600.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bioenv.IntegrationError, match="non-finite"):
                bioenv._integrate_biomass(params, s_i)

    def test_masses_scale_with_rates(self, scn):
        quiet = dataclasses.replace(
            scn, upstream=upstream(nu2_mean=0.055, nu1_sd=0.0, nu2_sd=0.0, S_i_sd=0.0, harvest_noise_sd=0.0)
        )
        p_u, i_u, _ = ChromatographyEnv(quiet).sample_initial_batch(1, stream(0))[0]
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
        state = ChromatographyEnv(quiet).sample_initial_batch(1, stream(0))[0]
        up = quiet.upstream
        mass = 0.11 * bioenv._integrate_biomass(up, 780.0) * up.harvest_to_mg
        np.testing.assert_allclose(state, [mass, mass, 1.0], rtol=1e-12)

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
        nxt = ENV.sample_transition_batch(np.tile(state, (200, 1)), np.full(200, 3), omega, rng)
        assert np.all((0 < nxt[:, 0]) & (nxt[:, 0] < state[0]) & (0 < nxt[:, 1]) & (nxt[:, 1] < state[1]))
        assert np.all(nxt[:, 2] == 2.0)

    def test_seeded_transition_reproducible(self, scn):
        state = np.array([10.0, 5.0, 2.0])
        a = transition(state, 7, scn.true_model, stream(3))
        b = transition(state, 7, scn.true_model, stream(3))
        np.testing.assert_array_equal(a, b)

    def test_beta_moment(self, rng):
        shapes = np.tile([5.0, 3.0, 5.0, 3.0], (3, 10, 1))
        omega = ModelParams(shapes)
        states = np.ones((100_000, 3))
        draws = ENV.sample_transition_batch(states, np.zeros(100_000, dtype=np.int64), omega, rng)[:, 0]
        se = np.sqrt(draws.var() / draws.size)
        assert abs(draws.mean() - 5.0 / 8.0) < 3 * se

    def test_invalid_inputs(self, scn, rng):
        with pytest.raises(InvalidStateError):
            transition(np.array([0.0, 1.0, 1.0]), 0, scn.true_model, rng)
        with pytest.raises(InvalidStateError):
            transition(np.array([1.0, 1.0, 3.0]), 0, scn.true_model, rng)


def harvest_reference(scn, n, rng):
    """``sample_initial_batch`` as ``np.clip`` and ``np.column_stack`` formulas, on the same stream."""
    up = scn.upstream
    nu1 = rng.normal(up.nu1_mean, up.nu1_sd, size=n)
    nu2 = rng.normal(up.nu2_mean, up.nu2_sd, size=n)
    rng.normal(up.S_i_mean, up.S_i_sd, size=n)  # S_i is drawn, but a batch (F = 0) harvest ignores it
    x_end = bioenv._batch_final_biomass(up)
    p1 = nu1 * x_end * up.harvest_to_mg + rng.normal(0.0, up.harvest_noise_sd, size=n)
    i1 = nu2 * x_end * up.harvest_to_mg + rng.normal(0.0, up.harvest_noise_sd, size=n)
    return np.column_stack(
        [np.clip(p1, bioenv.EPS_MASS, scn.p_bar), np.clip(i1, bioenv.EPS_MASS, scn.i_bar), np.ones(n)]
    )


def transition_reference(states, actions, omega, rng):
    """``sample_transition_batch`` as ``np.clip`` and ``np.column_stack`` formulas, on the same stream."""
    t = int(states[0, 2])
    shapes = omega.beta_shapes[t - 1, actions]
    eps = bioenv._FRACTION_EPS
    h = np.clip(rng.beta(shapes[:, ETA_L], shapes[:, ETA_U]), eps, 1.0 - eps)
    psi = np.clip(rng.beta(shapes[:, PSI_L], shapes[:, PSI_U]), eps, 1.0 - eps)
    return np.column_stack([h * states[:, 0], psi * states[:, 1], np.full(states.shape[0], float(t + 1))])


class TestHooksMatchClipReference:
    def test_initial_batch(self, scn):
        # harvest noise wide enough that both ends of the state box clamp
        noisy = dataclasses.replace(scn, upstream=dataclasses.replace(scn.upstream, harvest_noise_sd=40.0))
        got = ChromatographyEnv(noisy).sample_initial_batch(500, stream(8))
        np.testing.assert_array_equal(got, harvest_reference(noisy, 500, stream(8)))
        for col, high in ((0, noisy.p_bar), (1, noisy.i_bar)):
            assert (got[:, col] == bioenv.EPS_MASS).any() and (got[:, col] == high).any()

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_transition_batch_on_policy_actions(self, scn, kind):
        env, policy = scenario_policy(scn, kind, 16)
        theta = policy.init_params(stream(9))
        # near-zero shapes on the even actions put many Beta draws below the fraction clamp
        shapes = np.array(scn.true_model.beta_shapes)
        shapes[:, ::2] = 0.02
        omega = ModelParams(shapes)
        states = env.sample_initial_batch(300, stream(10))
        for t in (1, 2):
            actions = policy.sample_actions_batch(theta, states, stream(11, t))
            got = env.sample_transition_batch(states, actions, omega, stream(12, t))
            np.testing.assert_array_equal(got, transition_reference(states, actions, omega, stream(12, t)))
            assert (got[:, 0] == bioenv._FRACTION_EPS * states[:, 0]).any()
            states = got


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
        for omegas in ([scn.true_model], [scn.true_model, ModelParams(np.ones((3, 10, 4)))]):
            with pytest.raises(InvalidStateError):
                env.transition_logpdf_batch(states, np.zeros(2, dtype=np.int64), nxt, omegas)

    def test_transition_logpdf_batch_mixed_steps_match_scalar(self, env, scn):
        # the mixture concatenates step-1 and step-2 rows into one call; each
        # row's value is the one a one-row call gives
        states = np.array([[10.0, 5.0, 1.0], [6.0, 2.0, 2.0], [10.0, 5.0, 1.0 + 1e-12]])
        actions = np.array([4, 7, 0])
        nxt = np.array([[6.0, 2.0, 2.0], [5.0, 0.5, 3.0], [3.0, 1.0, 2.0]])
        batch = env.transition_logpdf_batch(states, actions, nxt, [scn.true_model])[0]
        scalar = [transition_logpdf(s, a, x, scn.true_model) for s, a, x in zip(states, actions, nxt)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_stacked_models_match_one_model_calls(self, env, scn):
        # step-1 and step-2 rows, and a row whose protein fraction is above 1
        states = np.array([[10.0, 5.0, 1.0], [6.0, 2.0, 2.0], [10.0, 5.0, 1.0], [8.0, 4.0, 2.0]])
        actions = np.array([4, 7, 0, 9])
        nxt = np.array([[6.0, 2.0, 2.0], [5.0, 0.5, 3.0], [11.0, 1.0, 2.0], [1.0, 0.1, 3.0]])
        rng = np.random.default_rng(5)
        omegas = [scn.true_model, *(ModelParams(rng.uniform(0.5, 20.0, size=(3, 10, 4))) for _ in range(3))]
        stacked = env.transition_logpdf_batch(states, actions, nxt, omegas)
        assert stacked.shape == (4, 4)
        t_idx = states[:, 2].astype(int) - 1
        for r, omega in enumerate(omegas):
            one = env.transition_logpdf_batch(states, actions, nxt, [omega])[0]
            np.testing.assert_array_equal(stacked[r], one)
            # independent reference: scipy's Beta log densities at each row's own (step, action) shapes
            psi_l, psi_u, eta_l, eta_u = omega.beta_shapes[t_idx, actions].T
            want = beta_dist.logpdf(nxt[:, 0] / states[:, 0], eta_l, eta_u) + beta_dist.logpdf(
                nxt[:, 1] / states[:, 1], psi_l, psi_u
            )
            np.testing.assert_allclose(stacked[r], want, rtol=1e-12, atol=1e-12)
        assert np.all(stacked[:, 2] == -np.inf) and np.all(np.isfinite(np.delete(stacked, 2, axis=1)))

    def test_sample_transition_batch_valid_rows_advance(self, env, scn):
        states = np.array([[10.0, 5.0, 2.0], [8.0, 1.0, 2.0]])
        nxt = env.sample_transition_batch(states, np.array([1, 2]), scn.true_model, stream(6))
        np.testing.assert_array_equal(nxt[:, 2], [3.0, 3.0])
        assert np.all(nxt[:, :2] < states[:, :2])


def posterior_draws(scn, n):
    """``n`` transition models drawn from a posterior on one real-data collection."""
    env, policy = scenario_policy(scn, "mlp", 16)
    theta = policy.init_params(stream(30))
    data = bioenv.collect_real_data(scn, policy, theta, 20, stream(31))
    ps = bayes.make_posterior(data, env.horizon(), env.action_count(), burn_in=50, thin=2)
    return bayes.mh_sample(ps, n, SEED, 32)


class TestTransitionMatchesPlainReference:
    """The one-test fast path and the cached ``beta_args`` gather give the plain formula's bits."""

    @pytest.mark.parametrize("n", [1, 25, 200])
    def test_both_steps_bit_identical(self, scn, n):
        env, policy = scenario_policy(scn, "mlp", 16)
        theta = policy.init_params(stream(33))
        for k, omega in enumerate([scn.true_model, *posterior_draws(scn, 2)]):
            states = env.sample_initial_batch(n, stream(34, n, k))
            for t in (1, 2):
                actions = policy.sample_actions_batch(theta, states, stream(35, n, k, t))
                got = env.sample_transition_batch(states, actions, omega, stream(36, n, k, t))
                want = sample_transition_reference(states, actions, omega, stream(36, n, k, t))
                np.testing.assert_array_equal(got, want)
                assert np.all(got[:, 2] == t + 1)
                states = got

    @pytest.mark.parametrize("rows", ["all", "one"])
    def test_step_within_tolerance_takes_exact_step_output(self, env, scn, rows):
        # 5e-10 off an integer is inside the 1e-9 tolerance: the fallback accepts the
        # batch and the output is the exact-step batch's, step coordinate included
        exact = np.array([[10.0, 5.0, 2.0], [8.0, 1.0, 2.0], [6.0, 3.0, 2.0]])
        near = exact.copy()
        near[:, 2] += np.array([5e-10, -5e-10, 5e-10]) if rows == "all" else np.array([0.0, 5e-10, 0.0])
        actions = np.array([1, 2, 9])
        got = env.sample_transition_batch(near, actions, scn.true_model, stream(37))
        np.testing.assert_array_equal(got, env.sample_transition_batch(exact, actions, scn.true_model, stream(37)))
        np.testing.assert_array_equal(got, sample_transition_reference(exact, actions, scn.true_model, stream(37)))
        np.testing.assert_array_equal(got[:, 2], [3.0, 3.0, 3.0])

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([10.0, 5.0, 1.0 + 2e-9], "transitions only occur from integer steps 1 and 2, got t=1.000000002"),
            ([10.0, 5.0, 2.0], r"batch rows must share one step index, got \[1, 2\]"),
            ([0.0, 5.0, 1.0], r"masses must be positive, got p=0.0, i=5.0"),
            ([10.0, -1.0, 1.0], r"masses must be positive, got p=10.0, i=-1.0"),
            ([np.nan, 5.0, 1.0], r"masses must be positive, got p=nan, i=5.0"),
        ],
        ids=["step off by 2e-9", "mixed steps", "zero mass", "negative mass", "NaN mass"],
    )
    @pytest.mark.parametrize("first", [True, False], ids=["bad first row", "bad last row"])
    def test_rejected_batches_keep_their_messages(self, env, scn, bad_row, message, first):
        good = [10.0, 5.0, 1.0]
        states = np.array([bad_row, good] if first else [good, bad_row])
        with pytest.raises(InvalidStateError, match=f"^{message}$"):
            env.sample_transition_batch(states, np.zeros(2, dtype=np.int64), scn.true_model, stream(38))

    def test_empty_batch_raises(self, env, scn):
        with pytest.raises(ValueError):
            env.sample_transition_batch(np.empty((0, 3)), np.empty(0, dtype=np.int64), scn.true_model, stream(39))

    def test_beta_args_table_is_cached_read_only_and_regroups_the_shapes(self, scn):
        omega = ModelParams(scn.true_model.beta_shapes * 1.5)
        assert "beta_args" not in vars(omega)  # nothing is taken until a transition needs it
        table = omega.beta_args
        shapes = omega.beta_shapes
        assert table.shape == (shapes.shape[0], 2, 2, shapes.shape[1])
        np.testing.assert_array_equal(table[:, 0], shapes[..., [ETA_L, PSI_L]].transpose(0, 2, 1))
        np.testing.assert_array_equal(table[:, 1], shapes[..., [ETA_U, PSI_U]].transpose(0, 2, 1))
        assert omega.beta_args is table
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0


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
            got = beta_log_pdf(np.array([x]), np.array([a]), np.array([b]), betaln(a, b))
            assert got.shape == (1,) and got[0] == pytest.approx(expected, abs=1e-8)

    def test_log_beta_table_is_cached_and_read_only(self, scn):
        omega = ModelParams(scn.true_model.beta_shapes * 1.5)
        assert "log_beta" not in vars(omega)  # nothing is taken until a density needs it
        shapes = omega.beta_shapes
        want = betaln(shapes[..., [bioenv.ETA_L, bioenv.PSI_L]], shapes[..., [bioenv.ETA_U, bioenv.PSI_U]])
        table = omega.log_beta
        np.testing.assert_array_equal(table, want)
        assert omega.log_beta is table
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0

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
        next_states = np.column_stack(
            [grid * 10.0, np.full(grid.size, psi_fix * 5.0), np.full(grid.size, 2.0)]
        )
        dens = np.exp(
            env.transition_logpdf_batch(
                np.tile(state, (grid.size, 1)), np.full(grid.size, action), next_states, [omega]
            )[0]
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
        assert payout([10.0, 1.0, 3.0]) == pytest.approx(40.0)

    def test_shortage_case(self):
        assert payout([6.0, 0.5, 3.0]) == pytest.approx(18.0)

    def test_purity_failure_case(self):
        assert payout([20.0, 5.0, 3.0]) == pytest.approx(-48.0)

    def test_intermediate_steps_charge_op_cost(self):
        states = np.array([[10.0, 10.0, 1.0], [12.0, 1.0, 1.0]])
        for step in (1, 2):
            states[:, 2] = step
            rewards = ENV.reward_batch(states, np.array([0, 9]), step)
            np.testing.assert_array_equal(rewards, [-8.0, -8.0])

    def test_zero_mass_is_purity_failure(self):
        assert payout([0.0, 0.0, 3.0]) == pytest.approx(-48.0)

    def test_boundary_continuity_at_demand(self):
        cfg = RewardConfig()
        at_demand = payout([8.0, 0.1, 3.0], cfg)
        just_below = payout([8.0 - 1e-9, 0.1, 3.0], cfg)
        assert at_demand == pytest.approx(cfg.price * cfg.p_d)
        assert just_below == pytest.approx(at_demand, abs=1e-6)

    def test_terminal_op_cost_flag(self):
        cfg = RewardConfig(charge_terminal_op_cost=True)
        assert payout([10.0, 1.0, 3.0], cfg) == pytest.approx(32.0)

    @given(p=st.floats(0.001, 30.0), i=st.floats(0.001, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_cases_partition_terminal_space(self, p, i):
        cfg = RewardConfig()
        value = payout([p, i, 3.0], cfg)
        purity = p / (p + i)
        if purity < cfg.r_d:
            assert value == -cfg.c_f
        elif p >= cfg.p_d:
            assert value == cfg.price * cfg.p_d
        else:
            assert value == pytest.approx(cfg.price * p - cfg.c_l * (cfg.p_d - p))


class TestEnvRewardWiring:
    def test_step_rewards_and_terminal_payout(self, env, scn, mlp_policy):
        theta = mlp_policy.init_params(stream(5))
        batch = rollout_batch(env, mlp_policy, theta, scn.true_model, 20, stream(6))
        np.testing.assert_array_equal(batch.rewards[:, 0], -scn.reward.op_cost)
        quality = np.array([payout(state, scn.reward) for state in batch.states[:, 2]])
        np.testing.assert_allclose(batch.rewards[:, 1], -scn.reward.op_cost + quality, rtol=1e-12)


class TestCollectRealData:
    def test_two_fractions_per_trajectory(self, scn, mlp_policy):
        theta = mlp_policy.init_params(stream(7))
        data = collect_real_data(scn, mlp_policy, theta, 1, stream(8))
        assert len(data) == 2
        assert sorted(data.step.tolist()) == [1, 2]

    def test_fractions_inside_unit_interval(self, scn, mlp_policy):
        theta = mlp_policy.init_params(stream(7))
        data = collect_real_data(scn, mlp_policy, theta, 50, stream(9))
        assert len(data) == 100
        for fractions in (data.h, data.psi):
            assert np.all((0.0 < fractions) & (fractions < 1.0))

    def test_observations_follow_rollout_order(self, scn, env, mlp_policy):
        # trajectory by trajectory, step by step: the same stream's rollout, in order
        theta = mlp_policy.init_params(stream(7))
        data = collect_real_data(scn, mlp_policy, theta, 4, stream(11))
        batch = rollout_batch(env, mlp_policy, theta, scn.true_model, 4, stream(11))
        assert data.step.tolist() == [1, 2] * 4
        assert data.action.tolist() == batch.actions.reshape(-1).tolist()
        fractions = batch.states[:, 1:, :2] / batch.states[:, :-1, :2]
        assert data.h.tolist() == fractions[:, :, 0].reshape(-1).tolist()
        assert data.psi.tolist() == fractions[:, :, 1].reshape(-1).tolist()

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_batch_rejected(self, scn, mlp_policy, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            collect_real_data(scn, mlp_policy, mlp_policy.init_params(stream(7)), m, stream(8))

    def test_deterministic_policy_actions_recorded(self, scn):
        policy = LinearSoftmaxPolicy(purification_features(scn.p_bar, scn.i_bar, 3), 10)
        theta = np.zeros((10, 3))
        theta[6, :] = 100.0  # features are positive, so action 6 dominates everywhere
        data = collect_real_data(scn, policy, theta.ravel(), 5, stream(10))
        assert np.all(data.action == 6)


def reference_channels(dataset, n_steps, n_actions):
    """The channel map as the posterior worked it out from the dataset's columns itself."""
    outside = (dataset.step > n_steps) | (dataset.action >= n_actions)
    if outside.any():
        j = int(np.argmax(outside))
        raise ValueError(
            f"observation at step {dataset.step[j]}, action {dataset.action[j]} "
            f"outside {n_steps} steps x {n_actions} actions"
        )
    eta_row = 2 * ((dataset.step - 1) * n_actions + dataset.action)
    return np.concatenate([eta_row, eta_row + 1]), np.concatenate([dataset.h, dataset.psi])


def random_dataset(rng, n_actions):
    """Observations at steps 1 and 2, one of them at the grid's last action."""
    n = int(rng.integers(1, 30))
    action = rng.integers(0, n_actions, size=n)
    action[rng.integers(n)] = n_actions - 1
    return FractionDataset(rng.integers(1, 3, size=n), action, rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 0.99, n))


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestPosteriorLayout:
    def test_model_grid_is_horizon_by_actions(self, env):
        assert env.model_grid() == (env.horizon(), env.action_count()) == (3, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_channels_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_steps, n_actions = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        data = random_dataset(rng, n_actions)
        channel, fractions = data.channels(n_steps, n_actions)
        ref_channel, ref_fractions = reference_channels(data, n_steps, n_actions)
        assert channel.dtype == ref_channel.dtype and fractions.dtype == ref_fractions.dtype
        np.testing.assert_array_equal(channel, ref_channel)
        np.testing.assert_array_equal(fractions, ref_fractions)
        # each fraction's channel is keyed by its own cell and species
        keys = FractionDataset.channel_keys(n_steps, n_actions)
        assert len(keys) == 2 * n_steps * n_actions
        cells = list(zip(data.step.tolist(), data.action.tolist()))
        assert [keys[c] for c in channel.tolist()] == [(*cell, "eta") for cell in cells] + [
            (*cell, "psi") for cell in cells
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_off_grid_observation_message(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_actions = int(rng.integers(1, 6))
        data = random_dataset(rng, n_actions)
        off = np.array(data.action)
        off[rng.integers(len(data))] = n_actions  # one past the grid's last action
        data = FractionDataset(data.step, off, data.h, data.psi)
        message = raised(reference_channels, data, 2, n_actions)
        assert raised(data.channels, 2, n_actions) == message
        assert re.fullmatch(r"observation at step \d, action \d+ outside 2 steps x \d+ actions", message)
        if (data.step == 2).any():  # and a step past a one-step grid
            assert raised(data.channels, 1, n_actions + 1) == raised(reference_channels, data, 1, n_actions + 1)

    @pytest.mark.parametrize("n", [1, 3])
    def test_tables_match_reshape_and_reverse(self, n):
        rng = np.random.default_rng(40 + n)
        n_steps, n_actions = 3, 4
        shapes = rng.uniform(0.5, 300.0, size=(n, 2 * n_steps * n_actions, 2))
        expected = shapes.reshape(n, n_steps, n_actions, 2, 2)[:, :, :, ::-1].reshape(n, n_steps, n_actions, 4)
        models = ModelParams.from_channels(shapes, n_actions)
        assert len(models) == n
        for model, table in zip(models, expected):
            assert model.beta_shapes.tobytes() == np.ascontiguousarray(table).tobytes()
        # each channel's pair lands in its species' columns of its cell's row
        for c, (t, a, species) in enumerate(FractionDataset.channel_keys(n_steps, n_actions)):
            columns = [ETA_L, ETA_U] if species == "eta" else [PSI_L, PSI_U]
            for model, draw in zip(models, shapes):
                assert model.beta_shapes[t - 1, a, columns].tolist() == draw[c].tolist()


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
        with pytest.raises(ScenarioError, match="missing the field 'scenario.true_model'"):
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

    def test_default_scenario_reads_the_packaged_file(self, tmp_path, monkeypatch):
        # a package whose data file holds other shapes and bounds: default_scenario() returns that file
        scn = default_scenario()
        other = dataclasses.replace(scn, true_model=ModelParams(2.0 * scn.true_model.beta_shapes), p_bar=25.0)
        (tmp_path / "data").mkdir()
        save_scenario(other, tmp_path / "data" / "default_scenario.json")
        monkeypatch.setattr(bioenv, "__file__", str(tmp_path / "bioenv.py"))
        loaded = default_scenario()
        assert loaded.true_model.beta_shapes.tobytes() == other.true_model.beta_shapes.tobytes()
        assert bioenv.scenario_to_jsonable(loaded) == bioenv.scenario_to_jsonable(other)

    def test_package_data_carries_the_packaged_file(self):
        # default_scenario() reads package data, so an installed package must ship the file
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["greensim_rl"]
        assert any(fnmatch.fnmatchcase("data/default_scenario.json", glob) for glob in globs)
        assert (root / "src" / "greensim_rl" / "data" / "default_scenario.json").is_file()

    def test_shipped_table_keeps_its_design(self, scn):
        # later windows keep less protein and strip more impurity, the same at every step
        shapes = scn.true_model.beta_shapes
        assert shapes.shape == (3, 10, 4)
        assert np.all(shapes >= 1.0)
        assert np.array_equal(shapes[0], shapes[1]) and np.array_equal(shapes[0], shapes[2])
        protein = shapes[0, :, ETA_L] / (shapes[0, :, ETA_L] + shapes[0, :, ETA_U])
        impurity = shapes[0, :, PSI_L] / (shapes[0, :, PSI_L] + shapes[0, :, PSI_U])
        assert np.all(np.diff(protein) < 0.0)
        assert np.all(np.diff(impurity) < 0.0)


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


def float_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type == "float"]


class TestNonFiniteFieldsRejected:
    # json reads NaN and Infinity, and comparisons such as `<= 0` let them through

    def test_upstream_params(self):
        for name in float_fields(UpstreamParams):
            for value in NON_FINITE:
                with pytest.raises(ScenarioError, match=f"^{name} must be finite"):
                    UpstreamParams(**{name: value})

    def test_reward_config(self):
        for name in float_fields(RewardConfig):
            for value in NON_FINITE:
                with pytest.raises(ScenarioError, match=f"^{name} must be finite"):
                    RewardConfig(**{name: value})

    def test_scenario(self, scn):
        assert float_fields(Scenario) == ["p_bar", "i_bar"]
        for name in float_fields(Scenario):
            for value in NON_FINITE:
                with pytest.raises(ScenarioError, match=f"^{name} must be finite"):
                    dataclasses.replace(scn, **{name: value})


class TestMistypedFieldsRejected:
    # json hands over strings, bools and lists as they are; a float field takes a number only

    @pytest.mark.parametrize("cls", [UpstreamParams, RewardConfig])
    @pytest.mark.parametrize("value", [True, "1.0", [1.0], None])
    def test_float_fields(self, cls, value):
        for name in float_fields(cls):
            with pytest.raises(ScenarioError, match=f"^{name} must be of type float"):
                cls(**{name: value})

    @pytest.mark.parametrize("value", [True, "30"])
    def test_scenario_bounds(self, scn, value):
        for name in float_fields(Scenario):
            with pytest.raises(ScenarioError, match=f"^{name} must be of type float"):
                dataclasses.replace(scn, **{name: value})

    @pytest.mark.parametrize("value", [1, 1.5, "true", None])
    def test_bool_field(self, value):
        with pytest.raises(ScenarioError, match="^charge_terminal_op_cost must be of type bool"):
            RewardConfig(charge_terminal_op_cost=value)

    def test_integers_accepted_as_floats(self, scn):
        # and stored as floats: a field holds one form, so a scenario's file and digest do not depend on the spelling
        upstream = UpstreamParams(V=1000, X0=0, duration=1200)
        reward = RewardConfig(c_f=48, op_cost=0)
        bounds = dataclasses.replace(scn, p_bar=30, i_bar=40)
        values = [upstream.V, upstream.X0, upstream.duration, reward.c_f, reward.op_cost, bounds.p_bar, bounds.i_bar]
        assert values == [1000.0, 0.0, 1200.0, 48.0, 0.0, 30.0, 40.0]
        assert all(type(value) is float for value in values)
        assert upstream == UpstreamParams(V=1000.0, X0=0.0, duration=1200.0)

    @pytest.mark.parametrize("cls, name", [(UpstreamParams, "duration"), (UpstreamParams, "X0"), (RewardConfig, "c_f")])
    def test_integer_too_large_for_a_float(self, cls, name):
        for value in (10**400, -(10**400)):
            with pytest.raises(ScenarioError, match=f"^{name} must be finite, got an integer too large for a float$"):
                cls(**{name: value})

    @pytest.mark.parametrize("entry", ["2.0", True, None, [2.0]])
    def test_beta_shape_entries(self, entry):
        obj = bioenv.scenario_to_jsonable(default_scenario())
        obj["true_model"]["beta_shapes"][1][4][2] = entry
        with pytest.raises(ScenarioError, match="^beta_shapes must be of type float"):
            bioenv.scenario_from_jsonable(obj)
