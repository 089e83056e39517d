"""Trajectory batches, returns, rollouts, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensim_rl import core
from greensim_rl.core import (
    Environment,
    TrajectoryBatch,
    returns,
    reward_to_go,
    rollout_batch,
    substream,
    write_trajectories_jsonl,
)
from greensim_rl.estimators import (
    ReplayBuffer,
    ilr_gradient,
    mlr_gradient,
    pg_gradient,
    trajectory_logdensity,
)
from greensim_rl.policy import POLICY_KINDS, LinearSoftmaxPolicy, onehot_features
from greensim_rl.trainer import scenario_policy

from conftest import stream


def make_batch(rewards):
    """One trajectory over a counting chain of 1-d states, with the given rewards."""
    n = len(rewards)
    states = np.arange(n + 1, dtype=np.float64).reshape(1, n + 1, 1)
    rewards = np.array(rewards, dtype=float).reshape(1, n)
    return TrajectoryBatch(states, np.zeros((1, n), dtype=int), rewards)


def assert_batches_equal(a: TrajectoryBatch, b: TrajectoryBatch) -> None:
    for name in ("states", "actions", "rewards"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class ConstEnv(Environment):
    """One action, deterministic chain, constant reward: the batch hooks only."""

    def __init__(self, reward=3.0, horizon=3):
        self._reward = reward
        self._horizon = horizon

    def horizon(self):
        return self._horizon

    def action_count(self):
        return 1

    def sample_initial_batch(self, n, rng):
        return np.zeros((n, 1))

    def sample_transition_batch(self, states, actions, omega, rng):
        return states + 1.0

    def transition_logpdf_batch(self, states, actions, next_states, omegas):
        return np.zeros((len(omegas), states.shape[0]))

    def reward_batch(self, states, actions):
        return np.full(states.shape[0], self._reward)


class TestTrajectoryReturn:
    def test_paper_constants_sum(self):
        batch = make_batch([-8.0, -8.0, 40.0])
        assert returns(batch.rewards, 1.0)[0] == pytest.approx(24.0, abs=1e-12)

    def test_empty_trajectory_is_zero(self):
        batch = TrajectoryBatch(np.zeros((2, 1, 2)), np.zeros((2, 0), dtype=int), np.zeros((2, 0)))
        np.testing.assert_array_equal(returns(batch.rewards, 0.3), [0.0, 0.0])
        assert reward_to_go(batch.rewards, 0.3).shape == (2, 0)

    def test_geometric_sum(self):
        batch = make_batch([1.0, 1.0, 1.0])
        assert returns(batch.rewards, 0.5)[0] == pytest.approx(1.75, abs=1e-12)

    def test_gamma_validation(self):
        rewards = make_batch([1.0]).rewards
        for gamma in (0.0, 1.5):
            with pytest.raises(ValueError):
                returns(rewards, gamma)
            with pytest.raises(ValueError):
                reward_to_go(rewards, gamma)

    @given(
        rewards=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        gamma=st.floats(0.1, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_by_two_is_exact(self, rewards, gamma):
        base = returns(make_batch(rewards).rewards, gamma)[0]
        doubled = returns(make_batch([2.0 * r for r in rewards]).rewards, gamma)[0]
        assert doubled == pytest.approx(2.0 * base, rel=1e-15, abs=1e-12)

    def test_rows_are_independent_trajectories(self):
        rewards = np.array([[1.0, 2.0, 3.0], [-8.0, -8.0, 40.0]])
        np.testing.assert_allclose(returns(rewards, 0.5), [1.0 + 1.0 + 0.75, -8.0 - 4.0 + 10.0])


class TestRewardToGo:
    def test_matches_direct_tail_sums(self):
        rewards = np.array([[1.0, -2.0, 3.0, 0.5], [0.0, 4.0, -1.0, 2.0]])
        gamma = 0.9
        rtg = reward_to_go(rewards, gamma)
        for j in range(2):
            for t in range(4):
                expected = sum(gamma ** (tp) * rewards[j, tp] for tp in range(t, 4))
                assert rtg[j, t] == pytest.approx(expected, abs=1e-12)

    def test_first_entry_is_return(self):
        rewards = np.array([[-8.0, 32.0], [1.0, 2.0]])
        np.testing.assert_array_equal(reward_to_go(rewards, 1.0)[:, 0], returns(rewards, 1.0))


class TestTrajectoryInvariants:
    def test_chaining_enforced_by_shape(self):
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros((1, 2, 1)), np.zeros((1, 2), dtype=int), np.zeros((1, 2)))

    def test_steps_view_chains(self):
        batch = TrajectoryBatch(
            np.arange(8, dtype=float).reshape(2, 4, 1), np.zeros((2, 3), dtype=int), np.zeros((2, 3))
        )
        states, actions, next_states = batch.step_arrays
        assert states.shape == next_states.shape == (6, 1) and actions.shape == (6,)
        # trajectory-major rows: step t of trajectory j is row 3 * j + t
        np.testing.assert_array_equal(states[:, 0], [0, 1, 2, 4, 5, 6])
        np.testing.assert_array_equal(next_states[:, 0], [1, 2, 3, 5, 6, 7])
        by_traj = next_states.reshape(2, 3, 1)
        np.testing.assert_array_equal(by_traj[:, :-1], states.reshape(2, 3, 1)[:, 1:])

    def test_arrays_frozen(self):
        batch = make_batch([1.0, 2.0])
        for arr in (batch.states, batch.actions, batch.rewards, *batch.step_arrays):
            with pytest.raises(ValueError):
                arr.flat[0] = 99

    @pytest.mark.parametrize(
        "states, actions, rewards, case",
        [
            (np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)), "states not (n, H, d)"),
            (np.zeros((2, 0, 1)), np.zeros((2, 0)), np.zeros((2, 0)), "no state at all"),
            (np.zeros((2, 3, 1)), np.zeros((3, 2)), np.zeros((2, 2)), "actions: wrong n"),
            (np.zeros((2, 3, 1)), np.zeros((2, 2)), np.zeros((2, 3)), "rewards: wrong H"),
            (np.zeros((2, 3, 1)), np.zeros(4), np.zeros((2, 2)), "actions flattened"),
            (np.zeros((2, 3, 1)), np.zeros((2, 3)), np.zeros((2, 2)), "actions: wrong H"),
            (np.zeros((2, 3, 1)), np.zeros((2, 2)), np.zeros((1, 2)), "rewards: wrong n"),
        ],
    )
    def test_mismatched_shapes_rejected(self, states, actions, rewards, case):
        with pytest.raises(ValueError):
            TrajectoryBatch(states, actions, rewards)


class TestBatchOnlyEnvironment:
    """A custom environment needs nothing but the batch hooks."""

    def setup_method(self):
        self.env = ConstEnv(reward=3.0, horizon=3)
        self.policy = LinearSoftmaxPolicy(onehot_features(4), 1)
        self.theta = np.zeros(self.policy.param_dim)

    def test_no_terminal_hook_needed(self):
        batch = rollout_batch(self.env, self.policy, self.theta, None, 4, stream(0))
        np.testing.assert_array_equal(batch.states[:, :, 0], np.tile([0.0, 1.0, 2.0], (4, 1)))
        np.testing.assert_array_equal(batch.rewards, np.full((4, 2), 3.0))

    def test_estimators_run_on_it(self):
        # one action: every score is zero, so every estimator's gradient is zero
        batch = rollout_batch(self.env, self.policy, self.theta, None, 5, stream(1))
        buffer = ReplayBuffer(self.env, self.policy)
        buffer.append(self.theta, None, batch)
        logdens = trajectory_logdensity(batch, self.theta[None], [None], self.env, self.policy)
        np.testing.assert_array_equal(logdens, np.zeros((1, 5)))
        diag = {}
        for grad in (
            pg_gradient(buffer.records[0], self.policy),
            ilr_gradient(buffer, self.theta, None),
            mlr_gradient(buffer, self.theta, None, 1, diag_out=diag),
        ):
            np.testing.assert_array_equal(grad, np.zeros(self.policy.param_dim))
        np.testing.assert_array_equal(diag["ratios"], np.ones(5))


class TestRollout:
    def test_degenerate_env_return(self):
        env = ConstEnv(reward=3.0, horizon=3)
        policy = LinearSoftmaxPolicy(onehot_features(4), 1)
        batch = rollout_batch(env, policy, np.zeros(policy.param_dim), None, 1, stream(0))
        assert batch.n_steps == 2
        assert returns(batch.rewards, 1.0)[0] == pytest.approx(6.0)

    def test_seeded_rollouts_bitwise_identical(self, env, mlp_policy, scn):
        theta = mlp_policy.init_params(stream(1))
        a = rollout_batch(env, mlp_policy, theta, scn.true_model, 1, stream(2))
        b = rollout_batch(env, mlp_policy, theta, scn.true_model, 1, stream(2))
        assert_batches_equal(a, b)

    def test_batch_rollouts_deterministic(self, env, mlp_policy, scn):
        theta = mlp_policy.init_params(stream(1))
        a = rollout_batch(env, mlp_policy, theta, scn.true_model, 7, stream(3))
        b = rollout_batch(env, mlp_policy, theta, scn.true_model, 7, stream(3))
        assert_batches_equal(a, b)

    def test_masses_positive_and_decreasing(self, env, mlp_policy, scn):
        # removal fractions live in (0,1), so both species shrink every step
        theta = mlp_policy.init_params(stream(1))
        batch = rollout_batch(env, mlp_policy, theta, scn.true_model, 1000, stream(4))
        masses = batch.states[:, :, :2]
        assert np.all(masses > 0)
        assert np.all(np.diff(masses, axis=1) < 0)


class TestRolloutMatchesHookReference:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_batch_equals_hooks_called_one_by_one(self, scn, kind):
        env, policy = scenario_policy(scn, kind, 16)
        theta = policy.init_params(stream(5))
        omega, n = scn.true_model, 40
        got = rollout_batch(env, policy, theta, omega, n, stream(6))
        rng = stream(6)
        states, actions, rewards = [env.sample_initial_batch(n, rng)], [], []
        for t in range(1, env.horizon()):
            actions.append(policy.sample_actions_batch(theta, states[-1], rng))
            rewards.append(env.reward_batch(states[-1], actions[-1]))
            states.append(env.sample_transition_batch(states[-1], actions[-1], omega, rng))
        rewards[-1] = rewards[-1] + env.terminal_reward_batch(states[-1])
        want = TrajectoryBatch(np.stack(states, axis=1), np.stack(actions, axis=1), np.stack(rewards, axis=1))
        assert_batches_equal(got, want)

    def test_horizon_one_has_no_steps(self):
        policy = LinearSoftmaxPolicy(onehot_features(4), 1)
        batch = rollout_batch(ConstEnv(horizon=1), policy, np.zeros(policy.param_dim), None, 3, stream(0))
        assert batch.states.shape == (3, 1, 1) and batch.actions.shape == batch.rewards.shape == (3, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_episode_rejected(self, n):
        policy = LinearSoftmaxPolicy(onehot_features(4), 1)
        with pytest.raises(ValueError, match=rf"n must be >= 1, got {n}"):
            rollout_batch(ConstEnv(), policy, np.zeros(policy.param_dim), None, n, stream(0))

    @pytest.mark.parametrize(
        "hook, message",
        [
            ("sample_initial_batch", "^non-finite initial state in batch$"),
            ("sample_transition_batch", "^non-finite state in batch at step 2$"),
        ],
    )
    def test_non_finite_state_rejected(self, hook, message):
        env = ConstEnv(horizon=4)
        hooked = getattr(env, hook)

        def poisoned(*args):
            # a NaN initial state, or a NaN next state on the second step
            states = hooked(*args)
            return np.where(states == (0.0 if hook == "sample_initial_batch" else 2.0), np.nan, states)

        setattr(env, hook, poisoned)
        policy = LinearSoftmaxPolicy(onehot_features(4), 1)
        with pytest.raises(core.RolloutError, match=message):
            rollout_batch(env, policy, np.zeros(policy.param_dim), None, 3, stream(0))


# The exact text the list-of-trajectories writer produced for this batch; the
# file format may not change.
PINNED_JSONL = (
    '{"steps": [[12.5, 7.25, 1.0, 4.0, -8.0, 10.0, 2.5, 2.0], '
    '[10.0, 2.5, 2.0, 7.0, 32.0, 9.1, 0.3, 3.0]]}\n'
    '{"steps": [[0.1, 1e-06, 1.0, 0.0, -8.0, 0.07, 3.3e-07, 2.0], '
    '[0.07, 3.3e-07, 2.0, 9.0, -56.0, 0.05, 1.25e-07, 3.0]]}\n'
)


def pinned_batch() -> TrajectoryBatch:
    return TrajectoryBatch(
        np.array(
            [
                [[12.5, 7.25, 1.0], [10.0, 2.5, 2.0], [9.1, 0.3, 3.0]],
                [[0.1, 1e-06, 1.0], [0.07, 3.3e-07, 2.0], [0.05, 1.25e-07, 3.0]],
            ]
        ),
        np.array([[4, 7], [0, 9]]),
        np.array([[-8.0, 32.0], [-8.0, -56.0]]),
    )


def jsonl_objects(batch: TrajectoryBatch) -> list[dict]:
    """Each trajectory's JSON object, built step by step from the batch's arrays."""
    return [
        {
            "steps": [
                [
                    *batch.states[j, t].tolist(),
                    int(batch.actions[j, t]),
                    float(batch.rewards[j, t]),
                    *batch.states[j, t + 1].tolist(),
                ]
                for t in range(batch.n_steps)
            ],
        }
        for j in range(len(batch))
    ]


class TestSerialization:
    def test_jsonl_round_trip(self, env, mlp_policy, scn, tmp_path):
        theta = mlp_policy.init_params(stream(1))
        batch = rollout_batch(env, mlp_policy, theta, scn.true_model, 5, stream(6))
        write_trajectories_jsonl(batch, tmp_path / "t.jsonl")
        back = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert len(back) == 5
        assert back == jsonl_objects(batch)

    def test_one_json_object_per_line(self, tmp_path):
        write_trajectories_jsonl(make_batch([1.0, 2.0]), tmp_path / "t.jsonl")
        lines = [l for l in (tmp_path / "t.jsonl").read_text().splitlines() if l]
        assert len(lines) == 1

    def test_format_pinned(self, tmp_path):
        write_trajectories_jsonl(pinned_batch(), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_text() == PINNED_JSONL
        assert [json.loads(line) for line in PINNED_JSONL.splitlines()] == jsonl_objects(pinned_batch())


class TestSubstream:
    def test_same_path_same_stream(self):
        assert substream(5, 1, 2).random() == substream(5, 1, 2).random()

    def test_disjoint_paths_differ(self):
        assert substream(5, 1, 2).random() != substream(5, 1, 3).random()

    def test_path_not_prefix_sensitive_to_consumption(self):
        # stream for a path never depends on how much a sibling consumed
        a = substream(5, 1, 2)
        a.random(1000)
        assert substream(5, 1, 3).random() == substream(5, 1, 3).random()

    @pytest.mark.parametrize("seed", [0, 7, 987654321, 2**40 + 3, 2**64 + 5])
    @pytest.mark.parametrize("path", [(), (0,), (3, 499, 2), (1, 2**33, 2)])
    @pytest.mark.parametrize("n_children", [1, 60, 72])
    def test_child_states_match_spawned_streams(self, seed, path, n_children):
        # extending a key by one entry c gives the c-th spawned child stream
        children = np.random.SeedSequence(seed, spawn_key=path).spawn(n_children)
        assert [substream(seed, *path, c).bit_generator.state for c in range(n_children)] == [
            np.random.PCG64(c).state for c in children
        ]

    def test_child_state_reproduces_the_stream(self):
        child = np.random.SeedSequence(11, spawn_key=(2, 9)).spawn(5)[3]
        np.testing.assert_array_equal(
            substream(11, 2, 9, 3).random(7), np.random.Generator(np.random.PCG64(child)).random(7)
        )

    @pytest.mark.parametrize(
        "key",
        [(-1,), (0, -2), (4, 1, -(2**32)), (1.0,), (3, 2.5), ("3",), (None,), (True,), (np.int64(-1),)],
        ids=repr,
    )
    def test_child_states_reject_bad_key_entries(self, key):
        # rejected at the boundary, before numpy sees the key
        with pytest.raises(ValueError, match="nonnegative integers"):
            substream(*key)

