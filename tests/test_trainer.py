"""Training loop: schedule, updates, determinism, buffer bookkeeping."""

import ctypes
import dataclasses
import json
import platform
import sys

import numpy as np
import pytest

from greensim_rl import bayes, cli, estimators, trainer
from greensim_rl.bioenv import FractionDataset, save_scenario
from greensim_rl.trainer import TrainConfig, TrainingError, load_train_config, policy_update, train


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

    @pytest.mark.parametrize("learning_rate", [0.0, -0.01])
    def test_non_positive_learning_rate(self, learning_rate):
        with pytest.raises(ValueError, match="learning rate must be positive"):
            policy_update(np.zeros(2), np.ones(2), learning_rate)


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

    @pytest.mark.parametrize("name", ["burn_in", "thin"])
    def test_sampler_move_counts_bounded(self, name):
        # a move count past the bound is refused before any random number is drawn
        assert getattr(TrainConfig(**{name: bayes.MAX_MOVES}), name) == bayes.MAX_MOVES
        for value in (bayes.MAX_MOVES + 1, 1_000_000_000):
            with pytest.raises(ValueError, match=f"^{name} must be <= {bayes.MAX_MOVES}"):
                TrainConfig(**{name: value})
        with pytest.raises(ValueError, match="must be in"):
            bayes.make_posterior(FractionDataset(), 3, 10, **{name: bayes.MAX_MOVES + 1})

    @pytest.mark.parametrize("name", ["learning_rate", "gamma", "init_scale", "grad_clip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})

    def test_integers_stored_as_floats(self):
        # a float field holds one form, so the config digest does not depend on how a file spelled a number
        cfg = TrainConfig(learning_rate=1, gamma=1, init_scale=0, grad_clip=2)
        assert cfg == TrainConfig(learning_rate=1.0, gamma=1.0, init_scale=0.0, grad_clip=2.0)
        assert all(type(getattr(cfg, name)) is float for name in ("learning_rate", "gamma", "init_scale", "grad_clip"))
        assert type(TrainConfig(seed=3).seed) is int

    @pytest.mark.parametrize("name", ["learning_rate", "gamma", "init_scale", "grad_clip"])
    def test_rejects_integers_too_large_for_a_float(self, name):
        for value in (10**400, -(10**400)):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got an integer too large for a float$"):
                TrainConfig(**{name: value})

    def test_largest_integer_that_rounds_to_a_finite_float(self):
        # 2**1024 - 2**970 is halfway between the largest double and 2**1024, and rounds up
        assert TrainConfig(learning_rate=2**1024 - 2**970 - 1).learning_rate == sys.float_info.max
        with pytest.raises(ValueError, match="^learning_rate must be finite"):
            TrainConfig(learning_rate=2**1024 - 2**970)

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
        # train itself writes no files: the train command saves each iteration's checkpoint
        save_scenario(scn, tmp_path / "scenario.json")
        cfg = tiny_cfg(periods=1, iterations_per_period=2)
        (tmp_path / "cfg.json").write_text(json.dumps(dataclasses.asdict(cfg)))
        args = ["--scenario", str(tmp_path / "scenario.json"), "--config", str(tmp_path / "cfg.json")]
        assert cli.main(["train", *args, "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "ckpt" / "iter_1" / "params.json").exists()
        assert (tmp_path / "run" / "ckpt" / "iter_2" / "params.json").exists()

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

    def test_estimator_error_names_the_iteration(self, scn, monkeypatch):
        def failing(*args, **kwargs):
            raise estimators.EstimatorError("buffer is empty")

        monkeypatch.setattr(estimators, "gradient", failing)
        with pytest.raises(TrainingError, match="^iteration 1: estimator failed: buffer is empty$"):
            train(scn, tiny_cfg(periods=1, iterations_per_period=2))

    def test_non_finite_gradient_names_max_ratio_and_ess(self, scn, monkeypatch):
        def non_finite(kind, buffer, theta_k, omega_k, rolling_window, gamma, diag_out):
            diag_out.update(max_ratio=7.5, ess=2.25)
            return np.full(len(theta_k), np.inf)

        monkeypatch.setattr(estimators, "gradient", non_finite)
        with pytest.raises(TrainingError, match=r"^iteration 1: non-finite gradient \(max ratio 7.5, ess 2.25\)$"):
            train(scn, tiny_cfg(periods=1, iterations_per_period=2))


class TestWindowOfOneIsPg:
    """An mlr run whose rolling window holds one record is pg: a one-component
    mixture gives every trajectory a ratio of exactly 1.0, and the newest
    block row is the target's, rebuilt on every call."""

    @pytest.mark.parametrize("policy_kind", ["mlp", "linear"])
    def test_same_files_as_pg(self, scn, tmp_path, policy_kind):
        save_scenario(scn, tmp_path / "scenario.json")
        config = {"periods": 2, "iterations_per_period": 8, "replications": 5, "rolling_window": 1}
        (tmp_path / "cfg.json").write_text(json.dumps({**config, "policy_kind": policy_kind}))
        args = ["--scenario", str(tmp_path / "scenario.json"), "--config", str(tmp_path / "cfg.json")]
        runs = {}
        for kind in ("pg", "mlr"):
            out = runs[kind] = tmp_path / kind
            argv = ["train", *args, "--estimator", kind, "--seed", "3", "--r-test", "7", "--out", str(out)]
            assert cli.main(argv) == 0
        files = sorted(path.relative_to(runs["pg"]) for path in runs["pg"].rglob("*") if path.is_file())
        assert files == sorted(path.relative_to(runs["mlr"]) for path in runs["mlr"].rglob("*") if path.is_file())
        # every iteration's checkpoint (theta, bit for bit), the periods and the posterior's data
        for name in files:
            if name.name not in ("manifest.json", "timings.csv", "history.csv"):
                assert (runs["pg"] / name).read_bytes() == (runs["mlr"] / name).read_bytes(), name

        def history(run):
            """history.csv without its estimator column."""
            rows = [line.split(",") for line in (run / "history.csv").read_text().splitlines()]
            return [row[:1] + row[2:] for row in rows]

        # grad_norm, return_estimate, max_ratio, ess and eval_reward at every iteration
        mlr = history(runs["mlr"])
        assert history(runs["pg"]) == mlr and len(mlr) == 17 and mlr[1][3:5] == ["1.0", "5.0"]


class TestPhaseTimings:
    @pytest.mark.parametrize("kind", ["tlr", "mlr"])
    def test_phases_recorded(self, scn, kind):
        history = train(scn, tiny_cfg(estimator=kind), eval_fn=lambda theta, policy, rng: 0.0)
        for rec in history.iterations:
            phases = [rec.posterior_s, rec.rollout_s, rec.gradient_s, rec.eval_s]
            assert all(t >= 0.0 for t in phases) and sum(phases) <= rec.wall_time
            assert rec.rollout_s > 0.0 and rec.gradient_s > 0.0 and rec.eval_s > 0.0
            # tlr simulates from the true model and draws no posterior sample
            assert (rec.posterior_s == 0.0) == (kind == "tlr")

    def test_no_eval_fn_reads_zero(self, scn):
        history = train(scn, tiny_cfg(estimator="pg"))
        assert all(rec.eval_s == 0.0 for rec in history.iterations)


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


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


class TestKeepLargeBlocks:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        trainer._keep_large_blocks.cache_clear()
        yield
        trainer._keep_large_blocks.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_takes_both_settings(self):
        assert trainer._keep_large_blocks() is True

    def test_sets_both_thresholds_once(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert trainer._keep_large_blocks() is True
        assert trainer._keep_large_blocks() is True
        assert libc.calls == [(-3, 32 << 20), (-1, 32 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def test_no_library_is_a_no_op(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert trainer._keep_large_blocks() is False

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert trainer._keep_large_blocks() is False

    def test_refused_setting_returns_false(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(result=0))
        assert trainer._keep_large_blocks() is False
