"""Evaluation protocol, curve statistics, comparison grid."""

import csv
import ctypes
import json
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from greensim_rl import harness
from greensim_rl.harness import (
    SummaryRow,
    aggregate_curves,
    evaluate_policy,
    run_comparison,
    summarize_last_window,
)
from greensim_rl.oracle import TabularEnv, TabularMDP
from greensim_rl.policy import LinearSoftmaxPolicy, onehot_features
from greensim_rl.trainer import TrainConfig

from conftest import stream


class TestEvaluatePolicy:
    def test_constant_reward_env(self):
        mdp = TabularMDP(
            transition=np.ones((1, 1, 1)),
            rewards=np.array([[4.0]]),
            initial=np.array([1.0]),
            horizon=3,
        )
        policy = LinearSoftmaxPolicy(onehot_features(1), 1)
        value = evaluate_policy(
            np.zeros(1), TabularEnv(mdp), mdp.transition, policy, 50, stream(50)
        )
        assert value == pytest.approx(8.0)

    def test_seeded_reproducible(self, toy_mdp, tab_policy, rng):
        theta = 0.3 * rng.standard_normal(4)
        env = TabularEnv(toy_mdp)
        a = evaluate_policy(theta, env, toy_mdp.transition, tab_policy, 200, stream(51))
        b = evaluate_policy(theta, env, toy_mdp.transition, tab_policy, 200, stream(51))
        assert a == b

    def test_requires_positive_r_test(self, toy_mdp, tab_policy):
        with pytest.raises(ValueError):
            evaluate_policy(np.zeros(4), TabularEnv(toy_mdp), toy_mdp.transition, tab_policy, 0, stream(52))


class TestAggregateCurves:
    def test_hand_case(self):
        stats = aggregate_curves(np.array([[1.0], [2.0], [3.0]]))
        assert stats.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert stats.se[0] == pytest.approx(np.sqrt(2.0 / 6.0), abs=1e-12)
        assert stats.lo[0] == pytest.approx(2.0 - 1.96 * stats.se[0], abs=1e-12)
        assert stats.hi[0] == pytest.approx(2.0 + 1.96 * stats.se[0], abs=1e-12)

    def test_identical_macros_zero_se(self):
        rewards = np.tile(np.linspace(0, 1, 7), (4, 1))
        stats = aggregate_curves(rewards)
        np.testing.assert_allclose(stats.se, 0.0, atol=1e-15)

    def test_permutation_invariance(self, rng):
        rewards = rng.normal(size=(5, 9))
        a = aggregate_curves(rewards)
        b = aggregate_curves(rewards[::-1])
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-15)
        np.testing.assert_allclose(a.se, b.se, atol=1e-15)

    def test_single_macro_rejected(self):
        with pytest.raises(ValueError):
            aggregate_curves(np.ones((1, 5)))


class TestSummarizeLastWindow:
    def test_constant_curve(self):
        row = summarize_last_window(np.full(300, 2.5), 100)
        assert row.mean == pytest.approx(2.5)
        assert row.se == pytest.approx(0.0, abs=1e-15)

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            summarize_last_window(np.arange(10.0), 1)

    def test_window_longer_than_curve_rejected(self):
        with pytest.raises(ValueError):
            summarize_last_window(np.arange(10.0), 11)

    def test_arithmetic_series(self):
        curve = np.arange(1, 501) / 100.0
        row = summarize_last_window(curve, 100)
        assert row.mean == pytest.approx(4.505, abs=1e-12)
        expected_se = np.sqrt(np.sum((curve[-100:] - 4.505) ** 2) / 99.0) / 10.0
        assert row.se == pytest.approx(expected_se, abs=1e-15)


class TestRunComparison:
    def small_args(self, scn):
        cfg = TrainConfig(
            periods=1,
            iterations_per_period=4,
            replications=3,
            real_data_per_period=3,
            burn_in=10,
            thin=1,
        )
        return dict(
            scn=scn,
            base_cfg=cfg,
            estimator_kinds=["pg", "mlr"],
            n_i_grid=[3],
            macros=2,
            seed=7,
            r_test=5,
            window=2,
        )

    def test_bookkeeping_and_files(self, scn, tmp_path):
        args = self.small_args(scn)
        rows, results, errors = run_comparison(out_dir=tmp_path, **args)
        assert errors == []
        assert {r.estimator for r in rows} == {"pg", "mlr"}
        for result in results:
            assert result.rewards.shape == (2, 4)
        curves = sorted(p.name for p in (tmp_path / "curves").iterdir())
        assert curves == ["mlr_3.csv", "pg_3.csv"]
        lines = (tmp_path / "curves" / "pg_3.csv").read_text().splitlines()
        assert lines[0] == "iteration,mean,se,lo,hi"
        assert len(lines) == 5
        assert (tmp_path / "summary.csv").exists()
        # a library call writes the whole manifest itself, the command included
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "compare" and manifest["errors"] == []
        # every cell reads back, with float, as the value aggregate_curves computed
        for result in results:
            stats = aggregate_curves(result.rewards)
            with open(tmp_path / "curves" / f"{result.estimator}_3.csv", newline="") as fh:
                cells = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
            want = np.column_stack([np.arange(1.0, 5.0), stats.mean, stats.se, stats.lo, stats.hi])
            assert np.array(cells).tobytes() == want.tobytes()

    def test_cell_rewards_independent_of_the_other_cells(self, scn, tmp_path, monkeypatch):
        # common random numbers: the mlr cell draws the same streams whichever cells run beside it
        args = self.small_args(scn)
        monkeypatch.chdir(tmp_path)
        _, alone, _ = run_comparison(**{**args, "estimator_kinds": ["mlr"]})
        _, beside, errors = run_comparison(**args)
        assert errors == []
        assert list(tmp_path.iterdir()) == []  # without out_dir nothing is written
        assert [r.estimator for r in beside] == ["pg", "mlr"]
        assert alone[0].rewards.tobytes() == beside[1].rewards.tobytes()

    def test_macros_below_two_rejected(self, scn):
        args = self.small_args(scn)
        args["macros"] = 1
        with pytest.raises(ValueError):
            run_comparison(**args)

    @pytest.mark.parametrize(
        "change",
        [
            {"window": 1},
            {"window": 5},  # beyond the 4 training iterations
            {"r_test": 0},
            {"n_i_grid": [0]},
            {"n_i_grid": []},
            {"estimator_kinds": ["pg", "zzz"]},
            {"estimator_kinds": ["pg", "mlr", "pg"]},
            {"n_i_grid": [3, 3]},
        ],
        ids=[
            "window-1",
            "window-past-curve",
            "r-test-0",
            "n-i-0",
            "no-n-i",
            "unknown-estimator",
            "repeated-estimator",
            "repeated-n-i",
        ],
    )
    def test_bad_arguments_rejected_before_training(self, scn, change, monkeypatch):
        from greensim_rl import harness

        def train(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(ValueError):
            run_comparison(**{**self.small_args(scn), **change})

    def test_upstream_integrated_once_before_the_pool(self, scn):
        # forked workers inherit the parent's cache instead of each integrating the RK4 again
        from greensim_rl import bioenv

        bioenv._batch_final_biomass.cache_clear()
        run_comparison(threads=2, **self.small_args(scn))
        assert bioenv._batch_final_biomass.cache_info().misses == 1

    @pytest.mark.parametrize("threads", [3, 64])
    def test_pool_never_larger_than_the_task_count(self, scn, threads, monkeypatch):
        # a stub pool that records its size and runs every task inline: no process starts
        from concurrent.futures import Future

        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer=None):
                # running the initializer here would set this process's own BLAS threads: check it only
                sizes.append(max_workers)
                assert initializer is harness._one_blas_thread

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        args = self.small_args(scn)
        rows, results, errors = run_comparison(threads=threads, **args)
        tasks = len(args["estimator_kinds"]) * len(args["n_i_grid"]) * args["macros"]
        assert sizes == [min(threads, tasks)] and errors == []
        serial_rows, _, _ = run_comparison(**args)
        assert rows == serial_rows

    def test_threads_below_one_rejected(self, scn, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness, "train", train)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                run_comparison(threads=threads, **self.small_args(scn))

    def test_parallel_matches_serial(self, scn, tmp_path):
        args = self.small_args(scn)
        rows_serial, results_serial, _ = run_comparison(**args)
        rows_par, results_par, _ = run_comparison(threads=2, **args)
        assert rows_serial == rows_par
        for a, b in zip(results_serial, results_par):
            np.testing.assert_array_equal(a.rewards, b.rewards)


class TestOutputFiles:
    def test_format_pinned(self, tmp_path):
        # the exact text written for hand-built cells: plain numbers, as csv writes floats
        curves = {("pg", 3): aggregate_curves(np.array([[1.0, 2.0], [2.0, 4.5]]))}
        rows = [SummaryRow("pg", 3, 1 / 3, 1e-05), SummaryRow("mlr", 25, -12.5, 0.0)]
        harness._write_outputs(tmp_path, curves, rows)
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"estimator,n_i,mean,se\r\n"
            b"pg,3,0.3333333333333333,1e-05\r\n"
            b"mlr,25,-12.5,0.0\r\n"
        )
        assert (tmp_path / "curves" / "pg_3.csv").read_bytes() == (
            b"iteration,mean,se,lo,hi\r\n"
            b"1,1.5,0.5,0.52,2.48\r\n"
            b"2,3.25,1.25,0.7999999999999998,5.7\r\n"
        )


def blas_thread_getter():
    """The thread-count getter of the OpenBLAS a numpy wheel loads, looked up apart from the harness, or None."""
    for path in Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so"):
        return getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
    return None


def worker_blas_threads() -> tuple[int, int]:
    """This process's BLAS thread count, and its number of OS threads (0 where /proc is absent)."""
    tasks = Path("/proc/self/task")
    return blas_thread_getter()(), len(list(tasks.iterdir())) if tasks.is_dir() else 0


def pool_blas_threads(initializer) -> tuple[int, int]:
    """:func:`worker_blas_threads` in a fresh pool worker started with ``initializer``."""
    pool = ProcessPoolExecutor(max_workers=1, initializer=initializer)
    try:
        return pool.submit(worker_blas_threads).result(timeout=60)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


class TestWorkerBlasThreads:
    def test_worker_runs_one_thread_and_parent_keeps_its_count(self):
        getter = blas_thread_getter()
        if getter is None:
            pytest.skip("numpy's BLAS has no thread-count getter")
        before = getter()
        assert pool_blas_threads(None)[0] == before  # a worker inherits the parent's count
        threads, os_threads = pool_blas_threads(harness._one_blas_thread)
        # one BLAS thread, and no idle BLAS pool thread left beside the worker's own
        assert threads == 1 and os_threads in (0, 1)
        assert getter() == before

    def test_nothing_found_does_nothing(self, tmp_path, monkeypatch):
        getter = blas_thread_getter()
        before = getter() if getter else None
        monkeypatch.setattr(harness, "_NUMPY_LIBS", tmp_path)  # no library at all
        assert harness._numpy_openblas() is None
        assert harness._one_blas_thread() is None
        # a library by that name, but without the setter
        other = sorted(Path(np.__file__).parents[1].glob("numpy.libs/libquadmath*.so*"))
        if other:
            shutil.copy(other[0], tmp_path / "libscipy_openblas64_-other.so")
            assert harness._numpy_openblas() is None
            harness._one_blas_thread()
        assert (getter() if getter else None) == before
