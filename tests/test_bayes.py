"""Posterior over the transition model: dataset, prior, MH sampler."""

import numpy as np
import pytest

from greensim_rl import bayes
from greensim_rl.bayes import PRIOR_HIGH, acceptance_rows, make_posterior, mean_acceptance, mh_sample, update_dataset
from greensim_rl.bioenv import (
    ETA_L,
    ETA_U,
    PSI_L,
    PSI_U,
    FractionDataset,
    read_fractions_csv,
    write_fractions_csv,
)
from greensim_rl.core import substream

from conftest import SEED, stream


def dataset_from_fractions(step, action, h_values, psi_values):
    n = len(h_values)
    return FractionDataset(np.full(n, step), np.full(n, action), h_values, psi_values)


def assert_same_dataset(a, b):
    for column in ("step", "action", "h", "psi"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


def log_lik(shapes, fractions):
    """Beta log likelihood of ``fractions`` from a one-channel posterior's sufficient statistics."""
    ps = make_posterior(dataset_from_fractions(1, 0, fractions, fractions), n_steps=1, n_actions=1)
    out = np.empty(1)
    bayes._log_lik(np.array(shapes, dtype=np.float64)[:, None], ps.stats[:, :1])(out)
    return float(out[0])


class TestLogPosteriorPair:
    def test_uniform_shapes_zero(self):
        assert log_lik((1.0, 1.0), [0.1, 0.7, 0.4]) == 0.0

    def test_symmetric_shapes_analytic(self):
        assert log_lik((2.0, 2.0), [0.5]) == pytest.approx(np.log(1.5), abs=1e-12)

    def test_outside_prior_support(self):
        # proposals above PRIOR_HIGH or at shape 0 have log posterior -inf: never
        # accepted, not even against a log uniform of -inf
        data = dataset_from_fractions(1, 0, [0.5], [0.5])
        start = np.log([[299.0, 5.0]])
        for increment in ([np.log(350.0 / 299.0), 0.0], [0.0, -1e4]):
            # the eta chain warm-started at start, both chains at step size 1; the psi chain stays put
            warm = np.concatenate([start, np.log([[10.0, 10.0]])])
            ps = bayes.PosteriorState(data, 1, 1, burn_in=500, thin=5, log_shapes=warm, step_size=np.ones(2))
            normals, log_us = np.array([[increment, [0.0, 0.0]]]), np.full((1, 2), -np.inf)
            (pos,) = bayes._walk(ps._chains, 0, normals, log_us, {0})
            ps.steps_taken = 1  # the one move, counted as mh_sample counts its moves
            np.testing.assert_array_equal(pos[:1], start)
            assert acceptance_rows(ps)[0]["accept_rate"] == 0.0

    def test_additive_in_observations(self):
        single = log_lik((3.0, 4.0), [0.3])
        assert log_lik((3.0, 4.0), [0.3, 0.3]) == pytest.approx(2 * single, rel=1e-12)


class TestDataset:
    def test_union_identity_and_counts(self):
        a = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3])
        b = dataset_from_fractions(2, 3, [0.7], [0.2])
        assert len(a.union(FractionDataset())) == 2
        assert len(a.union(b)) == 3

    def test_partition_by_step_action(self):
        # the grouped reduction puts each fraction in its (step, action, species) channel
        data = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3]).union(
            dataset_from_fractions(2, 3, [0.7], [0.2])
        )
        ps = make_posterior(data, n_steps=2, n_actions=4)
        keys = FractionDataset.channel_keys(ps.n_steps, ps.n_actions)
        expected = {
            (1, 0, "eta"): [0.5, 0.6],
            (1, 0, "psi"): [0.4, 0.3],
            (2, 3, "eta"): [0.7],
            (2, 3, "psi"): [0.2],
        }
        for c, key in enumerate(keys):
            fr = np.array(expected.get(key, []))
            assert ps.n_obs[c] == fr.size
            assert ps.stats[1, c] == pytest.approx(np.sum(np.log(fr)), abs=1e-15)
            assert ps.stats[2, c] == pytest.approx(np.sum(np.log1p(-fr)), abs=1e-15)

    def test_statistics_equal_per_channel_sums(self):
        # 8 to 40 interleaved observations per channel: long enough for np.sum's
        # pairwise summation, so only the same values in the same order give the same bits
        rng = np.random.default_rng(34)
        cells = [(t, a) for t in (1, 2) for a in range(10)]
        step, action = np.repeat(np.array(cells), rng.integers(8, 41, size=len(cells)), axis=0).T
        order = rng.permutation(step.size)
        h, psi = rng.beta(5.0, 2.0, step.size), rng.beta(2.0, 5.0, step.size)
        data = FractionDataset(step[order], action[order], h, psi)
        ps = make_posterior(data, n_steps=3, n_actions=10)
        for c, (t, a, channel) in enumerate(FractionDataset.channel_keys(ps.n_steps, ps.n_actions)):
            fr = (data.h if channel == "eta" else data.psi)[(data.step == t) & (data.action == a)]
            assert ps.n_obs[c] == fr.size
            assert ps.stats[1, c] == (np.sum(np.log(fr)) if fr.size else 0.0)
            assert ps.stats[2, c] == (np.sum(np.log1p(-fr)) if fr.size else 0.0)

    def test_fraction_validation(self):
        cases = [
            ([1], [0], [1.0], [0.5]),  # protein fraction at the boundary
            ([1], [0], [0.5], [0.0]),  # impurity fraction at the boundary
            ([1], [0], [np.nan], [0.5]),
            ([3], [0], [0.5], [0.5]),  # no transition from the terminal step
            ([0], [0], [0.5], [0.5]),
            ([1], [-1], [0.5], [0.5]),
            ([1, 2], [0], [0.5], [0.5]),  # ragged columns
            ([[1]], [[0]], [[0.5]], [[0.5]]),  # not 1-D
        ]
        for columns in cases:
            with pytest.raises(ValueError):
                FractionDataset(*columns)

    def test_columns_frozen(self):
        data = dataset_from_fractions(1, 0, np.array([0.5, 0.6]), np.array([0.4, 0.3]))
        for column in ("step", "action", "h", "psi"):
            with pytest.raises(ValueError):
                getattr(data, column)[0] = 0

    def test_csv_format_pinned(self, tmp_path):
        # the exact text the per-observation writer produced for these three rows
        data = FractionDataset(
            [1, 2, 1], [7, 0, 3], [0.9473285161039607, 0.5, 0.1], [1e-05, 0.3333333333333333, 0.25]
        )
        write_fractions_csv(data, tmp_path / "fractions.csv")
        assert (tmp_path / "fractions.csv").read_bytes() == (
            b"step,action,h_fraction,psi_fraction\r\n"
            b"1,7,0.9473285161039607,1e-05\r\n"
            b"2,0,0.5,0.3333333333333333\r\n"
            b"1,3,0.1,0.25\r\n"
        )

    def test_observation_outside_channel_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_posterior(dataset_from_fractions(2, 0, [0.5], [0.4]), n_steps=1, n_actions=1)
        with pytest.raises(ValueError, match="outside"):
            make_posterior(dataset_from_fractions(1, 3, [0.5], [0.4]), n_steps=2, n_actions=3)

    def test_csv_round_trip(self, tmp_path):
        data = dataset_from_fractions(1, 2, [0.51234567890123, 0.6], [0.4, 0.311111111111])
        write_fractions_csv(data, tmp_path / "fractions.csv")
        assert_same_dataset(read_fractions_csv(tmp_path / "fractions.csv"), data)


class TestMhSampler:
    def test_empty_dataset_prior_mean(self):
        posterior = make_posterior(FractionDataset(), n_steps=1, n_actions=1, burn_in=10, thin=1)
        draws = mh_sample(posterior, 10_000, SEED, 20)
        alphas = np.array([d.beta_shapes[0, 0, 0] for d in draws])
        se = PRIOR_HIGH / np.sqrt(12) / np.sqrt(len(alphas))
        assert abs(alphas.mean() - 150.0) < 3 * se
        assert np.all(alphas > 0) and np.all(alphas <= PRIOR_HIGH)

    def test_beta_consistency(self):
        rng = stream(21)
        fractions = rng.beta(5.0, 3.0, size=2000)
        data = dataset_from_fractions(1, 0, fractions, rng.beta(2.0, 2.0, size=2000))
        posterior = make_posterior(data, n_steps=1, n_actions=1)
        draws = mh_sample(posterior, 400, SEED, 22)
        eta = np.array([d.beta_shapes[0, 0, 2:] for d in draws])
        mean = eta.mean(axis=0)
        assert abs(mean[0] - 5.0) / 5.0 < 0.10
        assert abs(mean[1] - 3.0) / 3.0 < 0.10

    def test_fixed_seed_identical_draws(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.7, 0.6], [0.4, 0.5, 0.3])
        a = mh_sample(make_posterior(data, 1, 2, burn_in=50), 5, SEED, 23)
        b = mh_sample(make_posterior(data, 1, 2, burn_in=50), 5, SEED, 23)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.beta_shapes, y.beta_shapes)

    def test_zero_draws_rejected_before_moving(self):
        ps = make_posterior(dataset_from_fractions(1, 0, [0.5], [0.4]), n_steps=1, n_actions=1, burn_in=5)
        with pytest.raises(ValueError, match="n must be >= 1"):
            mh_sample(ps, 0, SEED, 24)
        assert ps.steps_taken == 0

    def test_stream_key_not_generator(self):
        # a draw is named by its key: a Generator or a negative entry is rejected before any move
        ps = make_posterior(FractionDataset(), n_steps=1, n_actions=1, burn_in=5)
        for key in [(stream(23),), (-1,), (SEED, -2)]:
            with pytest.raises(ValueError, match="nonnegative integers"):
                mh_sample(ps, 1, *key)
        assert ps.steps_taken == 0

    @pytest.mark.parametrize("n", [bayes.MAX_MOVES // 5 + 1, 1_000_000_000])
    def test_call_past_max_moves_rejected_before_drawing(self, n):
        # n * thin past bayes.MAX_MOVES is refused before any random number is drawn or
        # any chain moves: the next draws equal those of a twin that never saw the call
        data = dataset_from_fractions(1, 0, [0.5, 0.7, 0.6], [0.4, 0.5, 0.3])
        ps, twin = make_posterior(data, 1, 2, burn_in=30), make_posterior(data, 1, 2, burn_in=30)
        mh_sample(ps, 2, SEED, 47, 0)
        mh_sample(twin, 2, SEED, 47, 0)
        with pytest.raises(ValueError, match=rf"^n \* thin must be <= {bayes.MAX_MOVES} \(bayes.MAX_MOVES\)"):
            mh_sample(ps, n, SEED, 47, 1)
        assert ps.steps_taken == twin.steps_taken == 30 + 2 * 5
        for name in CHAIN_ARRAYS:
            np.testing.assert_array_equal(getattr(ps, name), getattr(twin, name))
        assert acceptance_rows(ps) == acceptance_rows(twin)
        for x, y in zip(mh_sample(ps, 3, SEED, 47, 2), mh_sample(twin, 3, SEED, 47, 2), strict=True):
            np.testing.assert_array_equal(x.beta_shapes, y.beta_shapes)

    def test_all_draws_in_prior_support(self):
        data = dataset_from_fractions(1, 0, [0.9, 0.85, 0.95], [0.1, 0.2, 0.15])
        posterior = make_posterior(data, n_steps=2, n_actions=3, burn_in=100)
        draws = mh_sample(posterior, 200, SEED, 24)
        for d in draws:
            assert np.all(d.beta_shapes > 0.0)
            assert np.all(d.beta_shapes <= PRIOR_HIGH)

    def test_channel_independence(self):
        # changing one channel's data leaves other channels' draws untouched
        base = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3])
        other_a = base.union(dataset_from_fractions(2, 1, [0.7, 0.8], [0.2, 0.25]))
        other_b = base.union(dataset_from_fractions(2, 1, [0.8, 0.7], [0.25, 0.2]))
        draws_a = mh_sample(make_posterior(other_a, 2, 2, burn_in=20), 20, SEED, 25)
        draws_b = mh_sample(make_posterior(other_b, 2, 2, burn_in=20), 20, SEED, 25)
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x.beta_shapes[0, 0], y.beta_shapes[0, 0])
            np.testing.assert_array_equal(x.beta_shapes[0, 1], y.beta_shapes[0, 1])

    def test_live_channel_unmoved_when_empty_channel_gains_data(self):
        # channel (2, 1) goes from prior-only to data-backed; (1, 0)'s chain reads the same columns
        base = dataset_from_fractions(1, 0, [0.5, 0.6], [0.4, 0.3])
        grown = base.union(dataset_from_fractions(2, 1, [0.7, 0.8], [0.2, 0.25]))
        ps_base, ps_grown = make_posterior(base, 2, 2, burn_in=20), make_posterior(grown, 2, 2, burn_in=20)
        for call in range(2):
            draws_base = mh_sample(ps_base, 3, SEED, 25, call)
            draws_grown = mh_sample(ps_grown, 3, SEED, 25, call)
            for x, y in zip(draws_base, draws_grown):
                np.testing.assert_array_equal(x.beta_shapes[0, 0], y.beta_shapes[0, 0])
                assert not np.array_equal(x.beta_shapes[1, 1], y.beta_shapes[1, 1])
        np.testing.assert_array_equal(ps_base.log_shapes[:2], ps_grown.log_shapes[:2])
        np.testing.assert_array_equal(ps_base.step_size[:2], ps_grown.step_size[:2])
        assert ps_base.n_obs[6] == 0 and ps_grown.n_obs[6] == 2

    def test_random_walk_targets_flat_prior(self):
        # walk (not the independence shortcut) against a flat target, i.e.
        # zero sufficient statistics: the log-transform Jacobian is what
        # keeps it uniform
        chains = bayes._Chains(np.zeros((3, 1)), np.log([[150.0, 150.0]]), np.array([0.5]))
        rng = stream(26)
        moves = 100_000
        normals = rng.standard_normal((moves, 1, 2))
        log_us = np.log(rng.random((moves, 1)))
        path = bayes._walk(chains, 0, normals, log_us, set(range(moves)))
        draws = np.exp(np.array([pos[0, 0] for pos in path]))
        hist, _ = np.histogram(draws, bins=20, range=(0.0, PRIOR_HIGH))
        tv = 0.5 * np.sum(np.abs(hist / draws.size - 1.0 / 20))
        assert tv < 0.05


CHAIN_ARRAYS = ("log_shapes", "step_size")


class ScalarReference:
    """Per-channel scalar Metropolis-Hastings sampler: one Python loop per chain and move.

    Written out move by move as the arithmetic the lockstep sampler must
    reproduce bit for bit: the same stream draws per channel (column ``c``
    of each array drawn from the call's one stream), the same
    floating-point operation order and the same adaptation rule.
    """

    def __init__(self, dataset, n_steps, n_actions, burn_in, thin, previous=None):
        self.dataset, self.n_steps, self.n_actions = dataset, n_steps, n_actions
        self.burn_in, self.thin = burn_in, thin
        groups = {}  # (step, action) -> (protein fractions, impurity fractions), in observation order
        for t, a, h, psi in zip(*(getattr(dataset, c).tolist() for c in ("step", "action", "h", "psi"))):
            hs, psis = groups.setdefault((t, a), ([], []))
            hs.append(h)
            psis.append(psi)
        self.keys = sorted(
            (t, a, c) for t in range(1, n_steps + 1) for a in range(n_actions) for c in ("eta", "psi")
        )
        self.stats, self.chains = {}, {}
        for key in self.keys:
            t, a, channel = key
            fr = np.array(groups.get((t, a), ([], []))[0 if channel == "eta" else 1])
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

    def _advance(self, ch, stats, normals, uniforms, prior_point):
        n_moves = len(uniforms)
        if stats[0] == 0:
            ch["pos"] = np.log(PRIOR_HIGH * (1.0 - prior_point))
            ch["accepted"] += n_moves
            ch["proposed"] += n_moves
            ch["steps"] += n_moves
            return
        log_us = np.log(uniforms)
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

    def sample(self, n, root_seed, *path):
        # one stream per call; each block array has a column per channel, drawn in
        # the order normals, uniforms (per block), then the prior points of every block
        rng = substream(root_seed, *path)
        n_chains = len(self.keys)
        steps = {ch["steps"] for ch in self.chains.values()}
        assert len(steps) == 1  # every chain has made the same number of moves
        burn = max(self.burn_in - steps.pop(), 0)
        blocks = ([burn] if burn else []) + [self.thin] * n
        arrays = [(rng.standard_normal((m, n_chains, 2)), rng.random((m, n_chains))) for m in blocks]
        prior = rng.random((len(blocks), n_chains, 2))
        per_channel = {}
        for c, key in enumerate(self.keys):
            ch, stats = self.chains[key], self.stats[key]
            per_channel[key] = []
            for b, (normals, uniforms) in enumerate(arrays):
                self._advance(ch, stats, normals[:, c], uniforms[:, c], prior[b, c])
                if b >= len(blocks) - n:
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


def assert_matches_reference(ps, ref, draws, ref_draws):
    for x, y in zip(draws, ref_draws, strict=True):
        np.testing.assert_array_equal(x.beta_shapes, y)
    rows = [(r["n_obs"], r["proposed"], r["accept_rate"], r["step_size"]) for r in acceptance_rows(ps)]
    assert rows == [(n, p, a / p if p else 0.0, s) for n, p, a, s in ref.rows()]
    np.testing.assert_array_equal(ps.step_size, [ch["step"] for ch in ref.chains.values()])
    np.testing.assert_array_equal(ps.log_shapes, [ch["pos"] for ch in ref.chains.values()])


class TestLockstepMatchesScalarReference:
    def _data(self, seed, cells, size):
        rng = np.random.default_rng(seed)
        data = FractionDataset()
        for t, a in cells:
            k = int(rng.integers(1, size + 1))
            data = data.union(dataset_from_fractions(t, a, rng.beta(3.0, 2.0, k), rng.beta(2.0, 5.0, k)))
        return data

    @pytest.mark.parametrize(
        "burn_in, thin",
        # (60, 30): a draw's thin moves hold a whole adaptation window; burn-ins of 1,
        # 24 and 26 end before, just before and just after the first window fills
        [(37, 4), (500, 5), (0, 3), (60, 30), (1, 3), (24, 4), (26, 4)],
    )
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
            assert_matches_reference(ps, ref, mh_sample(ps, n, SEED, 40, call), ref.sample(n, SEED, 40, call))

    @pytest.mark.parametrize(
        "n_actions, cells",
        [
            (12, [(1, 0), (1, 11), (2, 10), (2, 4)]),  # 3 steps x 12 actions: C = 72
            (10, []),  # only prior-only channels, as posterior-diag without --data
        ],
    )
    def test_more_channel_counts(self, n_actions, cells):
        data = self._data(34, cells, 4)
        ps = make_posterior(data, 3, n_actions, burn_in=40, thin=3)
        ref = ScalarReference(data, 3, n_actions, 40, 3)
        assert ps.n_obs.size == 2 * 3 * n_actions
        for call, n in enumerate([2, 1]):
            assert_matches_reference(ps, ref, mh_sample(ps, n, SEED, 43, call), ref.sample(n, SEED, 43, call))

    def test_every_channel_data_backed(self):
        # no prior-only channel: the walk's work block covers every column
        cells = [(t, a) for t in (1, 2) for a in range(3)]
        data = self._data(36, cells, 4)
        ps = make_posterior(data, 2, 3, burn_in=30, thin=4)
        ref = ScalarReference(data, 2, 3, 30, 4)
        assert ps.live.size == ps.n_obs.size and ps.n_obs.all()
        for call, n in enumerate([1, 3]):
            assert_matches_reference(ps, ref, mh_sample(ps, n, SEED, 45, call), ref.sample(n, SEED, 45, call))

    @pytest.mark.parametrize("burn_in", [0, 30])
    def test_single_chain_walk(self, burn_in):
        # a work block of one column (L = 1): one data-backed chain walked alone, with
        # and without burn-in adaptation, position by position against the reference
        data = self._data(37, [(1, 1)], 5)
        ps = make_posterior(data, 1, 2, burn_in=burn_in, thin=1)
        ref = ScalarReference(data, 1, 2, burn_in, 1)
        c = int(ps.live[0])
        key, chain = ref.keys[c], ref.chains[ref.keys[c]]
        # the eta chain's start position and step size, in a walk state of its own
        one = slice(c, c + 1)
        chains = bayes._Chains(ps.stats[:, one], ps.log_shapes[one], ps.step_size[one])
        rng = stream(46)
        moves = 80
        normals, uniforms = rng.standard_normal((moves, 1, 2)), rng.random((moves, 1))
        path = bayes._walk(chains, burn_in, normals, np.log(uniforms), set(range(moves)))
        assert len(path) == moves
        for m, pos in enumerate(path):
            ref._advance(chain, ref.stats[key], normals[m : m + 1, 0], uniforms[m : m + 1, 0], None)
            np.testing.assert_array_equal(pos, [chain["pos"]])
        assert 0 < chain["accepted"] < moves
        assert (chains.accepted[0], len(path), chains.step[0]) == (chain["accepted"], chain["proposed"], chain["step"])
        if burn_in:
            assert chain["step"] != 0.5  # the window filled and the step size adapted


class TestResidentChains:
    """The per-channel chain arrays are read-only, and reading them changes nothing in the walk state."""

    def test_per_channel_arrays_reject_writes(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.7], [0.4, 0.3])
        ps = make_posterior(data, 2, 2, burn_in=10, thin=2)
        mh_sample(ps, 2, SEED, 48)
        for name in CHAIN_ARRAYS:
            arr = getattr(ps, name)
            assert arr.shape[0] == ps.n_obs.size
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
            with pytest.raises(AttributeError):
                setattr(ps, name, arr.copy())
            np.testing.assert_array_equal(getattr(ps, name), arr)

    @pytest.mark.parametrize("burn_in, thin", [(30, 4), (0, 3)])
    def test_reads_between_draws_change_nothing(self, burn_in, thin):
        # every per-channel array and the acceptance rows read before and after every
        # call, through a warm start that makes the empty channel (1, 1) data-backed:
        # draws, rows and step sizes stay bit-identical to the scalar reference
        first = dataset_from_fractions(1, 0, [0.5, 0.7], [0.4, 0.3]).union(
            dataset_from_fractions(2, 2, [0.6], [0.2])
        )
        second = dataset_from_fractions(1, 1, [0.8, 0.75, 0.9], [0.1, 0.15, 0.05])
        ps = make_posterior(first, 2, 3, burn_in=burn_in, thin=thin)
        ref = ScalarReference(first, 2, 3, burn_in, thin)
        c = FractionDataset.channel_keys(ps.n_steps, ps.n_actions).index((1, 1, "eta"))
        for call, n in enumerate([1, 2, None, 1, 3]):
            reads = [getattr(ps, name) for name in CHAIN_ARRAYS] + [acceptance_rows(ps)]
            if n is None:
                assert ps.n_obs[c] == 0
                ps, ref = update_dataset(ps, second), ref.update(second)
                assert c in ps.live
                np.testing.assert_array_equal(ps.log_shapes[c], reads[0][c])  # the prior point it last took
                continue
            draws = mh_sample(ps, n, SEED, 49, call)
            for name, before in zip(CHAIN_ARRAYS, reads):
                assert getattr(ps, name) is not before
            assert_matches_reference(ps, ref, draws, ref.sample(n, SEED, 49, call))


class TestNoPerChainLoop:
    def test_one_betaln_call_per_move(self, monkeypatch):
        calls = []
        real = bayes.betaln

        def counting(a, b):
            calls.append(np.size(a))
            return real(a, b)

        monkeypatch.setattr(bayes, "betaln", counting)
        cells = [(t, a) for t in (1, 2) for a in range(4)]
        step, action = np.array(cells).T
        data = FractionDataset(step, action, 0.4 + 0.05 * action, 0.3 + 0.1 * step)
        ps = make_posterior(data, 2, 4, burn_in=500, thin=5)
        mh_sample(ps, 1, SEED, 42)
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
        assert_same_dataset(updated.dataset, data)

    def test_observation_counts_add(self):
        ps = make_posterior(dataset_from_fractions(1, 0, [0.5], [0.4]), 1, 1)
        updated = update_dataset(ps, dataset_from_fractions(1, 0, [0.6, 0.7], [0.3, 0.2]))
        assert len(updated.dataset) == 3

    @pytest.mark.parametrize(
        "log_shapes, step_size",
        [(np.zeros((3, 2)), np.ones(2)), (np.zeros((2, 2)), np.ones(3)), (np.zeros(4), np.ones(2))],
        ids=["three-positions", "three-step-sizes", "flat-positions"],
    )
    def test_warm_start_shape_checked(self, log_shapes, step_size):
        # one (step, action) cell has 2 channels: positions (2, 2), step sizes (2,)
        data = dataset_from_fractions(1, 0, [0.5], [0.4])
        with pytest.raises(ValueError, match=r"log_shapes must have shape \(2, 2\) and step_size \(2,\)"):
            bayes.PosteriorState(data, 1, 1, burn_in=5, thin=1, log_shapes=log_shapes, step_size=step_size)

    def test_warm_start_positions_kept_stats_reset(self):
        data = dataset_from_fractions(1, 0, [0.5, 0.6, 0.7], [0.4, 0.3, 0.2])
        ps = make_posterior(data, 1, 1, burn_in=50)
        mh_sample(ps, 5, SEED, 27)
        position, step_size = ps.log_shapes.copy(), ps.step_size.copy()
        assert ps.steps_taken == 50 + 5 * 5
        updated = update_dataset(ps, dataset_from_fractions(1, 0, [0.55], [0.35]))
        np.testing.assert_array_equal(updated.log_shapes, position)
        np.testing.assert_array_equal(updated.step_size, step_size)
        assert updated.log_shapes is not ps.log_shapes
        assert all(row["proposed"] == 0 and row["accept_rate"] == 0.0 for row in acceptance_rows(updated))
        assert updated.steps_taken == 0
        np.testing.assert_array_equal(updated.n_obs, [4, 4])

    def test_posterior_concentrates_with_more_data(self):
        rng = stream(28)
        first = rng.beta(4.0, 2.0, size=300)
        second = rng.beta(4.0, 2.0, size=1500)
        psi = rng.beta(2.0, 5.0, size=1500)
        small = dataset_from_fractions(1, 0, first, psi[:300])
        ps_small = make_posterior(small, 1, 1)
        draws_small = mh_sample(ps_small, 400, SEED, 29)
        ps_big = update_dataset(
            ps_small, dataset_from_fractions(1, 0, second, psi[:1500])
        )
        draws_big = mh_sample(ps_big, 400, SEED, 29)
        var_small = np.var([d.beta_shapes[0, 0, 2] for d in draws_small])
        var_big = np.var([d.beta_shapes[0, 0, 2] for d in draws_big])
        assert var_big <= var_small


class TestDiagnostics:
    def test_acceptance_rows_cover_channels(self):
        ps = make_posterior(FractionDataset(), n_steps=2, n_actions=3, burn_in=5)
        mh_sample(ps, 3, SEED, 30)
        rows = acceptance_rows(ps)
        assert len(rows) == 2 * 3 * 2
        assert all(0.0 <= row["accept_rate"] <= 1.0 for row in rows)

    def test_mean_acceptance_leaves_prior_only_channels_out(self):
        ps = make_posterior(dataset_from_fractions(1, 1, [0.3, 0.6], [0.2, 0.5]), n_steps=2, n_actions=2, burn_in=50)
        mh_sample(ps, 4, SEED, 31)
        rows = acceptance_rows(ps)
        live = [row["accept_rate"] for row in rows if row["n_obs"] > 0]
        assert len(live) == 2 and all(row["accept_rate"] == 1.0 for row in rows if row["n_obs"] == 0)
        assert mean_acceptance(ps) == float(np.mean(live)) < 1.0

    def test_mean_acceptance_zero_without_data_backed_proposals(self):
        prior_only = make_posterior(FractionDataset(), n_steps=2, n_actions=2, burn_in=5)
        mh_sample(prior_only, 2, SEED, 32)
        assert mean_acceptance(prior_only) == 0.0
        # data, but no move proposed yet
        assert mean_acceptance(make_posterior(dataset_from_fractions(1, 0, [0.3], [0.2]), 1, 1)) == 0.0

    def test_mean_acceptance_reads_acceptance_rows_once(self, monkeypatch):
        rows = [
            {"n_obs": 1, "proposed": 4, "accept_rate": 0.25},
            {"n_obs": 0, "proposed": 4, "accept_rate": 1.0},
            {"n_obs": 2, "proposed": 0, "accept_rate": 0.0},
            {"n_obs": 3, "proposed": 4, "accept_rate": 0.5},
        ]
        calls = []
        monkeypatch.setattr(bayes, "acceptance_rows", lambda ps: calls.append(ps) or rows)
        assert mean_acceptance("posterior") == 0.375 and calls == ["posterior"]

    def test_csv_header(self, tmp_path):
        ps = make_posterior(FractionDataset(), n_steps=1, n_actions=1)
        bayes.write_acceptance_csv(ps, tmp_path / "diag.csv")
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[0] == "step,action,channel,n_obs,proposed,accept_rate,step_size"

    def test_csv_format_pinned(self, tmp_path):
        # the exact text the diagnostics writer produces for hand-set chain totals: 3 moves
        # proposed by every channel, 1 and 0 of them accepted by the two data-backed chains
        data = dataset_from_fractions(1, 0, [0.5], [0.4])
        step_size = np.array([0.1, 0.5, 1.2345678901234567, 1e-05])
        ps = bayes.PosteriorState(data, 1, 2, burn_in=5, thin=1, step_size=step_size)
        ps.steps_taken = 3
        ps._chains.accepted[:] = [1, 0]
        bayes.write_acceptance_csv(ps, tmp_path / "diag.csv")
        assert (tmp_path / "diag.csv").read_bytes() == (
            b"step,action,channel,n_obs,proposed,accept_rate,step_size\r\n"
            b"1,0,eta,1,3,0.3333333333333333,0.1\r\n"
            b"1,0,psi,1,3,0.0,0.5\r\n"
            b"1,1,eta,0,3,1.0,1.2345678901234567\r\n"
            b"1,1,psi,0,3,1.0,1e-05\r\n"
        )
