"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The comparison study (criteria 8 and 9) runs the
full desk-scale protocol twice, which takes a few minutes; both carry the
``slow`` marker, so ``pytest -m "not slow"`` skips them.  Everything else
finishes in seconds.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from greensim_rl import bayes, bioenv, harness, trainer
from greensim_rl.bioenv import ChromatographyEnv, ModelParams, RewardConfig, default_scenario
from greensim_rl.core import rollout_batch, substream
from greensim_rl.estimators import MixtureWeights, mlr_ratio, mlr_ratios_batch
from greensim_rl.oracle import (
    TabularMDP,
    estimator_exact_expectation,
    exact_policy_gradient,
)
from greensim_rl.policy import (
    LinearSoftmaxPolicy,
    MlpSoftmaxPolicy,
    identity_features,
    onehot_features,
    purification_features,
)

# The comparison study is seeded; with counter-based streams the whole run,
# including every output byte, is a pure function of this configuration.
STUDY_SEED = 0
STUDY_MACROS = 5
STUDY_R_TEST = 200
STUDY_WINDOW = 100
STUDY_N_I = 25


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {criterion}: {name} ({detail})")
    assert ok, f"criterion {criterion} failed: {name} ({detail})"


class TestCriterion1Unbiasedness:
    def test_estimator_expectations_match_oracle(self):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        mdp = TabularMDP(
            transition=np.array([[[0.7, 0.3], [0.4, 0.6]], [[0.2, 0.8], [0.5, 0.5]]]),
            rewards=np.array([[1.0, -0.5], [0.25, 2.0]]),
            initial=np.array([0.6, 0.4]),
            horizon=3,
        )
        policy = LinearSoftmaxPolicy(onehot_features(2), 2)

        def tensor():
            raw = rng.uniform(0.1, 1.0, size=(2, 2, 2))
            return raw / raw.sum(axis=2, keepdims=True)

        components = [(0.4 * rng.standard_normal(policy.param_dim), tensor()) for _ in range(3)]
        theta_k, omega_k = components[-1]
        exact = exact_policy_gradient(
            TabularMDP(omega_k, mdp.rewards, mdp.initial, mdp.horizon), theta_k, 1.0, policy
        )
        worst = 0.0
        for kind in ("pg", "ilr", "mlr"):
            est = estimator_exact_expectation(kind, mdp, components, 1.0, policy)
            worst = max(worst, float(np.max(np.abs(est - exact))))

        shared = components[-1][1]
        tlr_components = [(theta, shared) for theta, _ in components]
        tlr_exact = exact_policy_gradient(
            TabularMDP(shared, mdp.rewards, mdp.initial, mdp.horizon), theta_k, 1.0, policy
        )
        est = estimator_exact_expectation("tlr", mdp, tlr_components, 1.0, policy)
        worst_tlr = float(np.max(np.abs(est - tlr_exact)))
        elapsed = time.perf_counter() - started
        report(
            1,
            "estimator unbiasedness vs enumeration oracle",
            worst < 1e-10 and worst_tlr < 1e-10 and elapsed < 10.0,
            f"max err {max(worst, worst_tlr):.2e}, {elapsed:.1f}s",
        )


class TestCriterion2MlrBound:
    def test_mixture_ratio_bounded(self, scn):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        env = ChromatographyEnv(scn)
        policy = MlpSoftmaxPolicy(purification_features(scn.p_bar, scn.i_bar, 3), 10)
        checked = 0
        worst_excess = -np.inf
        for batch in range(20):
            components = [
                (
                    policy.init_params(substream(300, batch, c), scale=0.5),
                    ModelParams(rng.uniform(0.5, 60.0, size=(3, 10, 4))),
                )
                for c in range(5)
            ]
            weights = MixtureWeights.from_counts(rng.integers(1, 40, size=5))
            k = int(rng.integers(5))
            trajs = rollout_batch(
                env, policy, components[k][0], components[k][1], 500, substream(301, batch)
            )
            bound = 1.0 / weights.alphas[k]
            ratios = mlr_ratios_batch(trajs, components[k], components, weights, env, policy)
            worst_excess = max(worst_excess, float(np.max(ratios) - bound))
            checked += ratios.size
            # scalar op agrees with the batch path
            for traj in trajs[:3]:
                f = mlr_ratio(traj, components[k], components, weights, env, policy)
                assert f <= bound + 1e-12
        elapsed = time.perf_counter() - started
        report(
            2,
            "mixture ratio bounded by 1/alpha",
            checked == 10_000 and worst_excess <= 1e-12 and elapsed < 10.0,
            f"{checked} cases, worst excess {worst_excess:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3ReductionLattice:
    def test_reductions(self, scn):
        from greensim_rl.estimators import (
            BufferRecord,
            ReplayBuffer,
            ilr_gradient,
            mlr_gradient,
            pg_gradient,
            tlr_gradient,
        )

        started = time.perf_counter()
        env = ChromatographyEnv(scn)
        policy = MlpSoftmaxPolicy(purification_features(scn.p_bar, scn.i_bar, 3), 10)
        theta = policy.init_params(substream(310))
        trajs = rollout_batch(env, policy, theta, scn.true_model, 25, substream(311), provenance=1)
        buffer = ReplayBuffer([BufferRecord(theta, scn.true_model, trajs, 1)])
        pg = pg_gradient(buffer.records[0], theta, policy)
        ilr = ilr_gradient(buffer, theta, scn.true_model, env, policy)
        mlr = mlr_gradient(buffer, theta, scn.true_model, 1, env, policy)
        err_a = max(
            float(np.max(np.abs(ilr - pg))),
            float(np.max(np.abs(mlr - pg))),
        )

        thetas = [policy.init_params(substream(312, i)) for i in range(4)]
        shared_buffer = ReplayBuffer()
        for i, th in enumerate(thetas):
            t = rollout_batch(env, policy, th, scn.true_model, 10, substream(313, i), provenance=i + 1)
            shared_buffer.append(BufferRecord(th, scn.true_model, t, i + 1))
        mlr_shared = mlr_gradient(shared_buffer, thetas[-1], scn.true_model, 4, env, policy)
        tlr_shared = tlr_gradient(shared_buffer, thetas[-1], 4, policy)
        err_b = float(np.max(np.abs(mlr_shared - tlr_shared)))
        elapsed = time.perf_counter() - started
        report(
            3,
            "reduction lattice (MLR=ILR=PG single record; TLR=MLR shared model)",
            err_a < 1e-10 and err_b < 1e-10 and elapsed < 5.0,
            f"errs {err_a:.2e}/{err_b:.2e}, {elapsed:.1f}s",
        )


class TestCriterion4GradientCorrectness:
    def test_finite_differences_and_score_identity(self, scn):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        policies = [
            MlpSoftmaxPolicy(identity_features(3), 10, hidden_dim=16),
            LinearSoftmaxPolicy(identity_features(3), 10),
        ]
        worst_rel = 0.0
        for policy in policies:
            for _ in range(50):
                theta = policy.init_params(rng, scale=0.5)
                state = rng.normal(size=3)
                action = int(rng.integers(10))
                grad = policy.grad_log_prob(theta, state, action)
                h = 1e-5
                fd = np.zeros_like(grad)
                for j in range(grad.size):
                    e = np.zeros_like(grad)
                    e[j] = h
                    fd[j] = (
                        policy.log_prob(theta + e, state, action)
                        - policy.log_prob(theta - e, state, action)
                    ) / (2 * h)
                rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
                worst_rel = max(worst_rel, rel)

        worst_score = 0.0
        policy = policies[0]
        for _ in range(100):
            theta = policy.init_params(rng, scale=0.5)
            state = rng.normal(size=3)
            probs = policy.action_probs(theta, state)
            total = sum(probs[a] * policy.grad_log_prob(theta, state, a) for a in range(10))
            worst_score = max(worst_score, float(np.max(np.abs(total))))
        elapsed = time.perf_counter() - started
        report(
            4,
            "score gradients match finite differences; score has zero mean",
            worst_rel < 1e-5 and worst_score < 1e-10 and elapsed < 5.0,
            f"fd rel {worst_rel:.2e}, score {worst_score:.2e}, {elapsed:.1f}s",
        )


class TestCriterion5PosteriorConsistency:
    def test_recovery_and_prior_fallback(self):
        started = time.perf_counter()
        rng = np.random.default_rng(505)
        fractions = rng.beta(5.0, 3.0, size=2000)
        observations = tuple(
            bayes.FractionObservation(1, 0, float(h), float(p))
            for h, p in zip(fractions, rng.beta(2.0, 2.0, size=2000))
        )
        posterior = bayes.make_posterior(
            bayes.FractionDataset(observations), n_steps=1, n_actions=1
        )
        draws = bayes.mh_sample(posterior, 400, substream(510))
        eta = np.array([d.beta_shapes[0, 0, 2:] for d in draws]).mean(axis=0)
        rel_alpha = abs(eta[0] - 5.0) / 5.0
        rel_beta = abs(eta[1] - 3.0) / 3.0

        empty = bayes.make_posterior(bayes.FractionDataset(), n_steps=1, n_actions=1, burn_in=10, thin=1)
        prior_draws = bayes.mh_sample(empty, 10_000, substream(511))
        alphas = np.array([d.beta_shapes[0, 0, 0] for d in prior_draws])
        se = 300.0 / np.sqrt(12) / np.sqrt(alphas.size)
        prior_err = abs(alphas.mean() - 150.0)
        elapsed = time.perf_counter() - started
        report(
            5,
            "posterior recovers Beta(5,3); empty data falls back to the prior",
            rel_alpha < 0.10 and rel_beta < 0.10 and prior_err < 3 * se and elapsed < 30.0,
            f"rel ({rel_alpha:.3f},{rel_beta:.3f}), prior err {prior_err:.2f} vs {3*se:.2f}, {elapsed:.1f}s",
        )


class TestCriterion6Reward:
    def test_reward_cases(self):
        started = time.perf_counter()
        cfg = RewardConfig()
        cases = [
            (np.array([10.0, 1.0, 3.0]), 40.0),
            (np.array([6.0, 0.5, 3.0]), 18.0),
            (np.array([20.0, 5.0, 3.0]), -48.0),
            (np.array([12.0, 9.0, 1.0]), -8.0),
            (np.array([12.0, 9.0, 2.0]), -8.0),
        ]
        worst = max(abs(bioenv.reward(s, cfg) - expected) for s, expected in cases)
        elapsed = time.perf_counter() - started
        report(6, "reward function cases", worst == 0.0 and elapsed < 1.0, f"max err {worst}, {elapsed:.2f}s")


class TestCriterion7Aggregation:
    def test_hand_formulas(self):
        stats = harness.aggregate_curves(np.array([[1.0], [2.0], [3.0]]))
        err = max(
            abs(stats.mean[0] - 2.0),
            abs(stats.se[0] - np.sqrt(2.0 / 6.0)),
            abs(stats.lo[0] - (2.0 - 1.96 * np.sqrt(2.0 / 6.0))),
            abs(stats.hi[0] - (2.0 + 1.96 * np.sqrt(2.0 / 6.0))),
        )
        curve = np.arange(1, 501) / 100.0
        row = harness.summarize_last_window(curve, 100)
        tail = curve[-100:]
        err = max(
            err,
            abs(row.mean - 4.505),
            abs(row.se - np.sqrt(np.sum((tail - 4.505) ** 2) / 99.0) / 10.0),
        )
        report(7, "aggregation formulas", err < 1e-12, f"max err {err:.2e}")


@pytest.fixture(scope="module")
def study_dirs(tmp_path_factory):
    """Run the desk-scale comparison twice (for criteria 8 and 9)."""
    scn = default_scenario()
    cfg = trainer.TrainConfig()
    dirs = []
    elapsed = []
    for run in range(2):
        out = tmp_path_factory.mktemp(f"study{run}") / "out"
        started = time.perf_counter()
        rows, results, errors = harness.run_comparison(
            scn,
            cfg,
            ["pg", "ilr", "mlr", "tlr"],
            [STUDY_N_I],
            macros=STUDY_MACROS,
            seed=STUDY_SEED,
            out_dir=out,
            r_test=STUDY_R_TEST,
            window=STUDY_WINDOW,
            threads=2,
        )
        elapsed.append(time.perf_counter() - started)
        assert errors == []
        dirs.append((out, rows, results))
    return dirs, elapsed


@pytest.mark.slow
class TestCriterion8Convergence:
    def test_desk_scale_study(self, study_dirs):
        dirs, elapsed = study_dirs
        out, rows, results = dirs[0]
        summary = {r.estimator: r.mean for r in rows}
        order_ok = summary["mlr"] >= summary["pg"] and summary["mlr"] >= summary["ilr"]
        # Each 50-iteration block over iterations 1-200 may not fall by more
        # than its 95% band: the step between successive blocks is paired
        # within each macro, and its across-macro mean and band come from
        # the same aggregate_curves the harness publishes for every curve.
        monotone = {}
        steps = []
        for result in results:
            blocks = result.rewards[:, :200].reshape(-1, 4, 50).mean(axis=2)
            stats = harness.aggregate_curves(np.diff(blocks, axis=1))
            monotone[result.estimator] = bool(np.all(stats.hi >= 0.0))
            steps.append(
                f"{result.estimator} "
                + " ".join(f"{d:+.2f}(hi {h:+.2f})" for d, h in zip(stats.mean, stats.hi))
            )
        runtime_ok = elapsed[0] < 15 * 60
        detail = (
            "last-100 means "
            + " ".join(f"{k}={summary[k]:.2f}" for k in ("pg", "ilr", "mlr", "tlr"))
            + "; block steps "
            + ", ".join(steps)
            + f"; {elapsed[0]:.0f}s"
        )
        report(8, "desk-scale convergence study", order_ok and all(monotone.values()) and runtime_ok, detail)


@pytest.mark.slow
class TestCriterion9Determinism:
    def test_byte_identical_outputs(self, study_dirs):
        dirs, _ = study_dirs
        out_a, _, _ = dirs[0]
        out_b, _, _ = dirs[1]
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        same_names = files_a == files_b
        all_equal = same_names and all(
            filecmp.cmp(out_a / rel, out_b / rel, shallow=False) for rel in files_a
        )
        report(
            9,
            "repeated study is byte-identical",
            all_equal,
            f"{len(files_a)} files compared",
        )
