"""Posterior over the transition model: dataset, prior, MH sampler."""

import io

import numpy as np
import pytest

from greensim_rl import bayes
from greensim_rl.bayes import (
    FractionDataset,
    FractionObservation,
    PRIOR_HIGH,
    acceptance_rows,
    log_posterior_pair,
    make_posterior,
    mh_sample,
    read_fractions_csv,
    update_dataset,
    write_fractions_csv,
)
from greensim_rl.bioenv import ETA_L, ETA_U, PSI_L, PSI_U

from conftest import stream


def dataset_from_fractions(step, action, h_values, psi_values):
    obs = tuple(
        FractionObservation(step=step, action=action, h_fraction=float(h), psi_fraction=float(p))
        for h, p in zip(h_values, psi_values)
    )
    return FractionDataset(obs)


class TestLogPosteriorPair:
    def test_uniform_shapes_zero(self):
        assert log_posterior_pair((1.0, 1.0), [0.1, 0.7, 0.4]) == 0.0

    def test_symmetric_shapes_analytic(self):
        assert log_posterior_pair((2.0, 2.0), [0.5]) == pytest.approx(np.log(1.5), abs=1e-12)

    def test_outside_prior_support(self):
        assert log_posterior_pair((350.0, 5.0), [0.5]) == -np.inf
        assert log_posterior_pair((5.0, 0.0), [0.5]) == -np.inf

    def test_additive_in_observations(self):
        single = log_posterior_pair((3.0, 4.0), [0.3])
        assert log_posterior_pair((3.0, 4.0), [0.3, 0.3]) == pytest.approx(2 * single, rel=1e-12)


class TestDataset:
    def test_union_identity_and_counts(self):
        a = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3])
        b = dataset_from_fractions(2, 3, [0.7], [0.2])
        assert len(a.union(FractionDataset())) == 2
        assert len(a.union(b)) == 3

    def test_partition_by_step_action(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3]).union(
            dataset_from_fractions(2, 3, [0.7], [0.2])
        )
        groups = data.partition()
        assert set(groups) == {(1, 0), (2, 3)}
        np.testing.assert_allclose(groups[(1, 0)][0], [0.5, 0.6])
        np.testing.assert_allclose(groups[(2, 3)][1], [0.2])

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            FractionObservation(step=1, action=0, h_fraction=1.0, psi_fraction=0.5)
        with pytest.raises(ValueError):
            FractionObservation(step=3, action=0, h_fraction=0.5, psi_fraction=0.5)

    def test_observation_outside_channel_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_posterior(dataset_from_fractions(2, 0, [0.5], [0.4]), n_steps=1, n_actions=1)
        with pytest.raises(ValueError, match="outside"):
            make_posterior(dataset_from_fractions(1, 3, [0.5], [0.4]), n_steps=2, n_actions=3)

    def test_csv_round_trip(self):
        data = dataset_from_fractions(1, 2, [0.51234567890123, 0.6], [0.4, 0.311111111111])
        buf = io.StringIO()
        write_fractions_csv(data, buf)
        buf.seek(0)
        back = read_fractions_csv(buf)
        assert back == data


class TestMhSampler:
    def test_empty_dataset_prior_mean(self):
        posterior = make_posterior(FractionDataset(), n_steps=1, n_actions=1, burn_in=10, thin=1)
        draws = mh_sample(posterior, 10_000, stream(20))
        alphas = np.array([d.beta_shapes[0, 0, 0] for d in draws])
        se = PRIOR_HIGH / np.sqrt(12) / np.sqrt(len(alphas))
        assert abs(alphas.mean() - 150.0) < 3 * se
        assert np.all(alphas > 0) and np.all(alphas <= PRIOR_HIGH)

    def test_beta_consistency(self):
        rng = stream(21)
        fractions = rng.beta(5.0, 3.0, size=2000)
        data = dataset_from_fractions(1, 0, fractions, rng.beta(2.0, 2.0, size=2000))
        posterior = make_posterior(data, n_steps=1, n_actions=1)
        draws = mh_sample(posterior, 400, stream(22))
        eta = np.array([d.beta_shapes[0, 0, 2:] for d in draws])
        mean = eta.mean(axis=0)
        assert abs(mean[0] - 5.0) / 5.0 < 0.10
        assert abs(mean[1] - 3.0) / 3.0 < 0.10

    def test_fixed_seed_identical_draws(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.7, 0.6], [0.4, 0.5, 0.3])
        a = mh_sample(make_posterior(data, 1, 2, burn_in=50), 5, stream(23))
        b = mh_sample(make_posterior(data, 1, 2, burn_in=50), 5, stream(23))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.beta_shapes, y.beta_shapes)

    def test_all_draws_in_prior_support(self):
        data = dataset_from_fractions(1, 0, [0.9, 0.85, 0.95], [0.1, 0.2, 0.15])
        posterior = make_posterior(data, n_steps=2, n_actions=3, burn_in=100)
        draws = mh_sample(posterior, 200, stream(24))
        for d in draws:
            assert np.all(d.beta_shapes > 0.0)
            assert np.all(d.beta_shapes <= PRIOR_HIGH)

    def test_channel_independence(self):
        # changing one channel's data leaves other channels' draws untouched
        base = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3])
        other_a = base.union(dataset_from_fractions(2, 1, [0.7, 0.8], [0.2, 0.25]))
        other_b = base.union(dataset_from_fractions(2, 1, [0.8, 0.7], [0.25, 0.2]))
        draws_a = mh_sample(make_posterior(other_a, 2, 2, burn_in=20), 20, stream(25))
        draws_b = mh_sample(make_posterior(other_b, 2, 2, burn_in=20), 20, stream(25))
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x.beta_shapes[0, 0], y.beta_shapes[0, 0])
            np.testing.assert_array_equal(x.beta_shapes[0, 1], y.beta_shapes[0, 1])

    def test_random_walk_targets_flat_prior(self):
        # walk (not the independence shortcut) against a flat target, i.e.
        # zero sufficient statistics: the log-transform Jacobian is what
        # keeps it uniform
        ps = make_posterior(FractionDataset(), n_steps=1, n_actions=1, burn_in=0, thin=1)
        ps.log_shapes[0] = np.log([150.0, 150.0])
        rng = stream(26)
        moves = 100_000
        normals = rng.standard_normal((moves, 1, 2))
        log_us = np.log(rng.random((moves, 1)))
        path = bayes._walk(ps, np.array([0]), normals, log_us, set(range(moves)))
        draws = np.exp(np.array([pos[0, 0] for pos in path]))
        hist, _ = np.histogram(draws, bins=20, range=(0.0, PRIOR_HIGH))
        tv = 0.5 * np.sum(np.abs(hist / draws.size - 1.0 / 20))
        assert tv < 0.05


class ScalarReference:
    """Per-channel scalar Metropolis-Hastings sampler: one Python loop per chain and move.

    Written out move by move as the arithmetic the lockstep sampler must
    reproduce bit for bit: the same stream draws per channel, the same
    floating-point operation order and the same adaptation rule.
    """

    def __init__(self, dataset, n_steps, n_actions, burn_in, thin, previous=None):
        self.dataset, self.n_steps, self.n_actions = dataset, n_steps, n_actions
        self.burn_in, self.thin = burn_in, thin
        groups = dataset.partition()
        self.keys = sorted(
            (t, a, c) for t in range(1, n_steps + 1) for a in range(n_actions) for c in ("eta", "psi")
        )
        self.stats, self.chains = {}, {}
        for key in self.keys:
            t, a, channel = key
            fr = groups.get((t, a), (np.array([]), np.array([])))[0 if channel == "eta" else 1]
            self.stats[key] = (0, 0.0, 0.0)
            if fr.size:
                self.stats[key] = (fr.size, float(np.sum(np.log(fr))), float(np.sum(np.log1p(-fr))))
            old = previous.chains[key] if previous else None
            self.chains[key] = dict(
                pos=old["pos"].copy() if old else np.log(np.array([10.0, 10.0])),
                step=old["step"] if old else 0.5,
                accepted=0, proposed=0, steps=0, w_acc=0, w_prop=0, ll=None,
            )

    def update(self, new_data):
        merged = self.dataset.union(new_data)
        return ScalarReference(merged, self.n_steps, self.n_actions, self.burn_in, self.thin, self)

    def _loglik(self, shapes, stats):
        n, sum_log, sum_log1m = stats
        if n == 0:
            return 0.0
        alpha, beta = shapes[0], shapes[1]
        return (alpha - 1.0) * sum_log + (beta - 1.0) * sum_log1m - n * float(bayes.betaln(alpha, beta))

    def _advance(self, ch, stats, n_moves, rng):
        if stats[0] == 0:
            ch["pos"] = np.log(PRIOR_HIGH * (1.0 - rng.random(2)))
            ch["accepted"] += n_moves
            ch["proposed"] += n_moves
            ch["steps"] += n_moves
            return
        normals = rng.standard_normal((n_moves, 2))
        log_us = np.log(rng.random(n_moves))
        if ch["ll"] is None:
            ch["ll"] = self._loglik(np.exp(ch["pos"]), stats)
        for m in range(n_moves):
            prop = ch["pos"] + ch["step"] * normals[m]
            shapes = np.exp(prop)
            if shapes[0] <= PRIOR_HIGH and shapes[1] <= PRIOR_HIGH:
                prop_ll = self._loglik(shapes, stats)
                log_ratio = prop_ll - ch["ll"] + float(np.sum(prop) - np.sum(ch["pos"]))
            else:
                prop_ll = log_ratio = -np.inf
            ch["proposed"] += 1
            ch["w_prop"] += 1
            if log_us[m] < log_ratio:
                ch["pos"], ch["ll"] = prop, prop_ll
                ch["accepted"] += 1
                ch["w_acc"] += 1
            ch["steps"] += 1
            if ch["steps"] <= self.burn_in and ch["w_prop"] >= bayes.ADAPT_EVERY:
                rate = ch["w_acc"] / ch["w_prop"]
                if rate < bayes.ACCEPT_LOW:
                    ch["step"] = max(ch["step"] * 0.7, 1e-3)
                elif rate > bayes.ACCEPT_HIGH:
                    ch["step"] = min(ch["step"] * 1.4, 10.0)
                ch["w_acc"] = ch["w_prop"] = 0

    def sample(self, n, rng):
        per_channel = {}
        for key, child in zip(self.keys, rng.spawn(len(self.keys))):
            ch, stats = self.chains[key], self.stats[key]
            if ch["steps"] < self.burn_in:
                self._advance(ch, stats, self.burn_in - ch["steps"], child)
            per_channel[key] = []
            for _ in range(n):
                self._advance(ch, stats, self.thin, child)
                per_channel[key].append(np.exp(ch["pos"]))
        tables = []
        for d in range(n):
            table = np.zeros((self.n_steps, self.n_actions, 4))
            for (t, a, channel), draws in per_channel.items():
                cols = [ETA_L, ETA_U] if channel == "eta" else [PSI_L, PSI_U]
                table[t - 1, a, cols] = draws[d]
            tables.append(table)
        return tables

    def rows(self):
        return [
            (self.stats[k][0], self.chains[k]["proposed"], self.chains[k]["accepted"], self.chains[k]["step"])
            for k in self.keys
        ]


class TestLockstepMatchesScalarReference:
    def _data(self, seed, cells, size):
        rng = np.random.default_rng(seed)
        obs = []
        for t, a in cells:
            k = int(rng.integers(1, size + 1))
            obs += [
                FractionObservation(t, a, float(h), float(p))
                for h, p in zip(rng.beta(3.0, 2.0, k), rng.beta(2.0, 5.0, k))
            ]
        return FractionDataset(tuple(obs))

    def _assert_same(self, ps, ref, draws, ref_draws):
        for x, y in zip(draws, ref_draws, strict=True):
            np.testing.assert_array_equal(x.beta_shapes, y)
        rows = [(r["n_obs"], r["proposed"], r["accept_rate"], r["step_size"]) for r in acceptance_rows(ps)]
        assert rows == [(n, p, a / p if p else 0.0, s) for n, p, a, s in ref.rows()]
        np.testing.assert_array_equal(ps.step_size, [ch["step"] for ch in ref.chains.values()])
        np.testing.assert_array_equal(ps.log_shapes, [ch["pos"] for ch in ref.chains.values()])

    @pytest.mark.parametrize("burn_in, thin", [(37, 4), (500, 5), (0, 3)])
    def test_draws_rows_and_step_sizes_bit_identical(self, burn_in, thin):
        first = self._data(31, [(1, 0), (1, 2), (2, 1), (2, 2)], 4)
        second = self._data(32, [(1, 0), (1, 1), (2, 2)], 3)
        ps = make_posterior(first, 3, 3, burn_in=burn_in, thin=thin)
        ref = ScalarReference(first, 3, 3, burn_in, thin)
        assert 0 < int(np.sum(ps.n_obs > 0)) < ps.n_obs.size  # data-backed and empty channels
        for call, n in enumerate([1, 3, None, 1, 3]):
            if n is None:
                ps, ref = update_dataset(ps, second), ref.update(second)
                continue
            self._assert_same(ps, ref, mh_sample(ps, n, stream(40, call)), ref.sample(n, stream(40, call)))

    def test_call_resumed_mid_burn_in(self):
        data = self._data(33, [(1, 0), (2, 1), (2, 2)], 5)
        ps = make_posterior(data, 2, 3, burn_in=61, thin=4)
        ref = ScalarReference(data, 2, 3, 61, 4)
        ps.steps_taken = 23  # a restart part-way through burn-in: 38 moves of it remain
        for ch in ref.chains.values():
            ch["steps"] = 23
        self._assert_same(ps, ref, mh_sample(ps, 3, stream(41)), ref.sample(3, stream(41)))
        assert ps.steps_taken == 61 + 3 * 4


class TestNoPerChainLoop:
    def test_one_betaln_call_per_move(self, monkeypatch):
        calls = []
        real = bayes.betaln

        def counting(a, b):
            calls.append(np.size(a))
            return real(a, b)

        monkeypatch.setattr(bayes, "betaln", counting)
        cells = [(t, a) for t in (1, 2) for a in range(4)]
        data = FractionDataset(
            tuple(FractionObservation(t, a, 0.4 + 0.05 * a, 0.3 + 0.1 * t) for t, a in cells)
        )
        ps = make_posterior(data, 2, 4, burn_in=500, thin=5)
        mh_sample(ps, 1, stream(42))
        moves = 500 + 5
        assert int(np.sum(ps.n_obs > 0)) == 16
        # one vectorised call per move plus the start-of-call likelihood,
        # not one per chain per move
        assert len(calls) <= moves + 1
        assert max(calls) == 16


class TestUpdateDataset:
    def test_union_with_empty_keeps_dataset(self):
        data = dataset_from_fractions(1, 0, [0.5], [0.4])
        ps = make_posterior(data, 1, 1)
        updated = update_dataset(ps, FractionDataset())
        assert updated.dataset == data

    def test_observation_counts_add(self):
        ps = make_posterior(dataset_from_fractions(1, 0, [0.5], [0.4]), 1, 1)
        updated = update_dataset(ps, dataset_from_fractions(1, 0, [0.6, 0.7], [0.3, 0.2]))
        assert len(updated.dataset) == 3

    def test_warm_start_positions_kept_stats_reset(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.6, 0.7], [0.4, 0.3, 0.2])
        ps = make_posterior(data, 1, 1, burn_in=50)
        mh_sample(ps, 5, stream(27))
        position, step_size = ps.log_shapes.copy(), ps.step_size.copy()
        assert ps.steps_taken == 50 + 5 * 5
        updated = update_dataset(ps, dataset_from_fractions(1, 0, [0.55], [0.35]))
        np.testing.assert_array_equal(updated.log_shapes, position)
        np.testing.assert_array_equal(updated.step_size, step_size)
        assert updated.log_shapes is not ps.log_shapes
        for counter in ("accepted", "proposed", "window_accepted", "window_proposed"):
            assert not getattr(updated, counter).any()
        assert updated.steps_taken == 0
        np.testing.assert_array_equal(updated.n_obs, [4, 4])

    def test_posterior_concentrates_with_more_data(self):
        rng = stream(28)
        first = rng.beta(4.0, 2.0, size=300)
        second = rng.beta(4.0, 2.0, size=1500)
        psi = rng.beta(2.0, 5.0, size=1500)
        small = dataset_from_fractions(1, 0, first, psi[:300])
        ps_small = make_posterior(small, 1, 1)
        draws_small = mh_sample(ps_small, 400, stream(29))
        ps_big = update_dataset(
            ps_small, dataset_from_fractions(1, 0, second, psi[:1500])
        )
        draws_big = mh_sample(ps_big, 400, stream(29))
        var_small = np.var([d.beta_shapes[0, 0, 2] for d in draws_small])
        var_big = np.var([d.beta_shapes[0, 0, 2] for d in draws_big])
        assert var_big <= var_small


class TestDiagnostics:
    def test_acceptance_rows_cover_channels(self):
        ps = make_posterior(FractionDataset(), n_steps=2, n_actions=3, burn_in=5)
        mh_sample(ps, 3, stream(30))
        rows = acceptance_rows(ps)
        assert len(rows) == 2 * 3 * 2
        assert all(0.0 <= row["accept_rate"] <= 1.0 for row in rows)

    def test_csv_header(self):
        ps = make_posterior(FractionDataset(), n_steps=1, n_actions=1)
        buf = io.StringIO()
        bayes.write_acceptance_csv(ps, buf)
        assert buf.getvalue().splitlines()[0] == "step,action,channel,n_obs,proposed,accept_rate,step_size"
