"""Training loop: schedule, updates, determinism, buffer bookkeeping."""

import io

import numpy as np
import pytest

from greensim_rl import bayes, trainer
from greensim_rl.trainer import (
    TrainConfig,
    TrainingError,
    load_train_config,
    policy_update,
    train,
    write_history_csv,
    write_periods_csv,
)


def tiny_cfg(**overrides):
    base = dict(
        periods=2,
        iterations_per_period=3,
        replications=4,
        real_data_per_period=3,
        burn_in=20,
        thin=2,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestPolicyUpdate:
    def test_zero_gradient_keeps_theta(self):
        theta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(policy_update(theta, np.zeros(2), 0.01), theta)

    def test_unit_gradient_step(self):
        out = policy_update(np.zeros(3), np.ones(3), 0.01)
        np.testing.assert_allclose(out, 0.01)

    def test_two_steps_add(self):
        g1, g2 = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        out = policy_update(policy_update(np.zeros(2), g1, 0.1), g2, 0.1)
        np.testing.assert_allclose(out, 0.1 * (g1 + g2), atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            policy_update(np.zeros(2), np.zeros(3), 0.1)

    def test_non_finite_result(self):
        with pytest.raises(TrainingError):
            policy_update(np.array([1e308]), np.array([1e308]), 1.0)


class TestConfig:
    def test_defaults_match_documented_protocol(self):
        cfg = TrainConfig()
        assert cfg.periods * cfg.iterations_per_period == 500
        assert cfg.replications == 25
        assert cfg.learning_rate == 0.01
        assert cfg.rolling_window == 10
        assert cfg.real_data_per_period == 20
        assert cfg.gamma == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(estimator="magic")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            TrainConfig(policy_kind="bogus")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"hidden_dim": "8"},
            {"periods": True},
            {"replications": 25.0},
            {"burn_in": 2.5},
            {"burn_in": None},
            {"seed": "0"},
            {"learning_rate": "0.1"},
            {"grad_clip": False},
            {"burn_in": -1},
            {"thin": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_mistyped_and_out_of_range_fields(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)

    def test_accepts_boundary_sampler_settings(self):
        cfg = TrainConfig(burn_in=0, thin=1, learning_rate=1, grad_clip=2)
        assert (cfg.burn_in, cfg.thin) == (0, 1)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"estimator": "tlr", "periods": 2, "iterations_per_period": 5}')
        cfg = load_train_config(path)
        assert cfg.estimator == "tlr"
        assert cfg.total_iterations == 10

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"estimaator": "tlr"}')
        with pytest.raises(ValueError, match="estimaator"):
            load_train_config(path)


class TestTrainLoop:
    def test_single_iteration_step_size(self, scn):
        cfg = tiny_cfg(periods=1, iterations_per_period=1, estimator="pg")
        history = train(scn, cfg)
        assert len(history.iterations) == 1
        rec = history.iterations[0]
        # theta moved by exactly learning_rate * gradient
        from greensim_rl.core import substream
        from greensim_rl.policy import make_policy, purification_features

        policy = make_policy("mlp", purification_features(scn.p_bar, scn.i_bar, 3), 10, 16)
        theta0 = policy.init_params(substream(cfg.seed, 0, 0, 0), cfg.init_scale)
        moved = np.linalg.norm(rec.theta - theta0)
        assert moved == pytest.approx(cfg.learning_rate * rec.grad_norm, rel=1e-9)

    def test_history_length_and_periods(self, scn):
        cfg = tiny_cfg()
        history = train(scn, cfg)
        assert len(history.iterations) == cfg.total_iterations
        assert [p.period for p in history.periods] == [1, 2]

    def test_dataset_monotone_growth(self, scn):
        history = train(scn, tiny_cfg())
        sizes = [p.dataset_size for p in history.periods]
        assert sizes == sorted(sizes)
        # initial 3 trajectories (6 obs) plus 3 per period
        assert sizes[0] == 12 and sizes[1] == 18

    def test_fixed_seed_bitwise_identical(self, scn):
        a = train(scn, tiny_cfg(estimator="mlr"))
        b = train(scn, tiny_cfg(estimator="mlr"))
        for x, y in zip(a.iterations, b.iterations):
            np.testing.assert_array_equal(x.theta, y.theta)
            assert x.return_estimate == y.return_estimate
            assert x.grad_norm == y.grad_norm

    def test_estimators_share_streams_until_divergence(self, scn):
        # identical seeds: iteration-1 rollouts must agree across estimator
        # kinds that draw from the posterior (policies only diverge after
        # the first update)
        first = {}
        for kind in ("pg", "ilr", "mlr"):
            history = train(scn, tiny_cfg(estimator=kind, periods=1, iterations_per_period=1))
            first[kind] = history.iterations[0].return_estimate
        assert first["pg"] == first["ilr"] == first["mlr"]

    def test_checkpoints_written(self, scn, tmp_path):
        cfg = tiny_cfg(periods=1, iterations_per_period=2)
        train(scn, cfg, checkpoint_dir=tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "iter_1" / "params.json").exists()
        assert (tmp_path / "ckpt" / "iter_2" / "params.json").exists()

    def test_eval_hook_called_each_iteration(self, scn):
        calls = []

        def eval_fn(theta, policy, rng):
            calls.append(rng.random())
            return 1.5

        history = train(scn, tiny_cfg(periods=1, iterations_per_period=3), eval_fn=eval_fn)
        assert len(calls) == 3
        assert all(rec.eval_reward == 1.5 for rec in history.iterations)

    def test_grad_clip_caps_norm(self, scn):
        cfg = tiny_cfg(grad_clip=1e-6, estimator="pg", periods=1, iterations_per_period=2)
        history = train(scn, cfg)
        # clipping caps what the update uses, the recorded norm is pre-clip
        theta0_delta = np.linalg.norm(history.iterations[1].theta - history.iterations[0].theta)
        assert theta0_delta <= cfg.learning_rate * 1e-6 * (1 + 1e-9)


class TestHistoryExport:
    def test_csv_shape(self, scn):
        history = train(scn, tiny_cfg(estimator="tlr"))
        buf = io.StringIO()
        write_history_csv(history, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "iteration,estimator,grad_norm,return_estimate,max_ratio,ess"
        assert len(lines) == 1 + len(history.iterations)
        assert lines[1].split(",")[1] == "tlr"
        last = lines[-1].split(",")
        assert float(last[4]) == history.iterations[-1].max_ratio
        assert float(last[5]) == history.iterations[-1].ess

    def test_periods_csv(self, scn):
        history = train(scn, tiny_cfg(estimator="pg"))
        buf = io.StringIO()
        write_periods_csv(history, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "period,dataset_size,mean_acceptance"
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "12"], ["2", "18"]]
        assert [float(line.split(",")[2]) for line in lines[1:]] == [
            p.mean_acceptance for p in history.periods
        ]

    def test_files_are_deterministic(self, scn):
        outputs = []
        for _ in range(2):
            history = train(scn, tiny_cfg(estimator="mlr"))
            buf = io.StringIO()
            write_history_csv(history, buf)
            write_periods_csv(history, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


class TestPeriodAcceptance:
    def test_mean_over_data_backed_channels_only(self, scn, monkeypatch):
        seen = []

        def spy(posterior):
            rows = real(posterior)
            seen.append(rows)
            return rows

        real = bayes.acceptance_rows
        monkeypatch.setattr(bayes, "acceptance_rows", spy)
        history = train(scn, tiny_cfg(estimator="pg"))
        assert len(seen) == len(history.periods) == 2
        for rows, period in zip(seen, history.periods):
            live = [r["accept_rate"] for r in rows if r["n_obs"] > 0]
            prior_only = [r["accept_rate"] for r in rows if r["n_obs"] == 0]
            # the independence-proposal channels accept every move and must not dilute the mean
            assert prior_only and all(rate == 1.0 for rate in prior_only)
            assert period.mean_acceptance == float(np.mean(live))
            assert period.mean_acceptance < 1.0

    def test_no_draws_reports_zero(self, scn):
        history = train(scn, tiny_cfg(estimator="tlr"))
        assert [p.mean_acceptance for p in history.periods] == [0.0, 0.0]
