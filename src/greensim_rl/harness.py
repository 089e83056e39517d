"""Experiment protocol: macro replications, convergence curves, summaries.

A comparison grid crosses estimator kinds with replication counts.  Every
cell runs M independent training macro-replications; macro h of every
cell uses the same root seed and macro index, so cells share random
streams (common random numbers) and differences between cells reflect the
estimators, not sampling noise.  Each iteration's post-update policy is
scored by fresh rollouts against the true transition model; curves report
the across-macro mean, standard error and a 95% confidence band.

Outputs are tidy CSV files (one curve file per cell plus a summary table)
whose bytes are a pure function of (scenario, config, seed).

This module lays out every run directory, a comparison's and a ``train``
run's (:func:`write_train_outputs`), and reads its checkpoints back
(:func:`load_checkpoint`).  Each ``manifest.json`` (a run's fields, config,
package version and config digest) comes from :func:`_write_manifest`.  The
digest covers the scenario, the config and the run's digest inputs: a
comparison's ``macros``, ``seed``, ``r_test`` and ``window``, not its
estimator or ``n_i`` grid; a ``train`` run's ``r_test`` when it is scored.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bioenv import (
    ChromatographyEnv,
    IntegrationError,
    Scenario,
    save_scenario,
    scenario_to_jsonable,
    warm_up_fermentation,
    write_fractions_csv,
)
from .core import Environment, Policy, returns, rollout_batch, write_csv
from .policy import load_params, save_params
from .trainer import TrainConfig, TrainHistory, scenario_policy, train

__all__ = [
    "CurveStats",
    "MacroResult",
    "SummaryRow",
    "aggregate_curves",
    "evaluate_policy",
    "load_checkpoint",
    "run_comparison",
    "summarize_last_window",
    "true_model_eval_fn",
    "write_train_outputs",
]


def evaluate_policy(
    theta: np.ndarray,
    env: Environment,
    omega,
    policy: Policy,
    r_test: int,
    rng: np.random.Generator,
    gamma: float = 1.0,
) -> float:
    """Mean return of ``r_test`` rollouts under ``(policy(theta), omega)``."""
    if r_test < 1:
        raise ValueError("r_test must be >= 1")
    rewards = rollout_batch(env, policy, theta, omega, r_test, rng).rewards
    return float(np.mean(returns(rewards, gamma)))


def true_model_eval_fn(scn: Scenario, r_test: int, gamma: float = 1.0):
    """An ``eval_fn`` for :func:`trainer.train`: ``evaluate_policy`` under the true model."""
    env = ChromatographyEnv(scn)

    def eval_fn(theta, policy, rng):
        return evaluate_policy(theta, env, scn.true_model, policy, r_test, rng, gamma)

    return eval_fn


@dataclass(frozen=True)
class CurveStats:
    """Per-iteration across-macro statistics."""

    mean: np.ndarray
    se: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class MacroResult:
    """Raw per-macro evaluation rewards of one grid cell."""

    estimator: str
    n_i: int
    rewards: np.ndarray  # (M, total_iterations)


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    n_i: int
    mean: float
    se: float


def aggregate_curves(rewards: np.ndarray) -> CurveStats:
    """Mean, standard error and 95% band across macro replications.

    ``rewards`` has one row per macro.  The standard error follows the
    across-replication formula ``sqrt(sum (r_h - rbar)^2) / sqrt(M(M-1))``
    and the band is ``mean +/- 1.96 * se``.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 2 or rewards.shape[0] < 2:
        raise ValueError("need a (M, iterations) array with M >= 2")
    m = rewards.shape[0]
    mean = rewards.mean(axis=0)
    se = np.sqrt(np.sum((rewards - mean) ** 2, axis=0)) / np.sqrt(m * (m - 1))
    return CurveStats(mean=mean, se=se, lo=mean - 1.96 * se, hi=mean + 1.96 * se)


def summarize_last_window(
    curve: np.ndarray, window: int = 100, estimator: str = "", n_i: int = 0
) -> SummaryRow:
    """Mean and standard error of the final ``window`` curve values.

    The standard error treats the window as a sample:
    ``sqrt((1/(window-1)) sum (r - mean)^2) / sqrt(window)``; a window of
    1 therefore has no defined standard error and is an error.
    """
    curve = np.asarray(curve, dtype=np.float64)
    if window > curve.shape[0]:
        raise ValueError(f"window {window} exceeds curve length {curve.shape[0]}")
    if window < 2:
        raise ValueError("window must be >= 2 for the standard error to exist")
    tail = curve[-window:]
    mean = float(tail.mean())
    se = float(np.sqrt(np.sum((tail - mean) ** 2) / (window - 1)) / np.sqrt(window))
    return SummaryRow(estimator=estimator, n_i=n_i, mean=mean, se=se)


# --- comparison grid ----------------------------------------------------------


# Where a numpy wheel keeps the OpenBLAS it loaded; the file name carries a build hash.
_NUMPY_LIBS = Path(np.__file__).parents[1] / "numpy.libs"


def _numpy_openblas():
    """The OpenBLAS numpy loaded, or None when ``_NUMPY_LIBS`` holds none with its thread-count setter."""
    for path in _NUMPY_LIBS.glob("libscipy_openblas64_*.so"):
        lib = ctypes.CDLL(str(path))  # the library numpy loaded: the same handle, no second copy
        return lib if hasattr(lib, "scipy_openblas_set_num_threads64_") else None
    return None


def _one_blas_thread() -> None:
    """Pool worker initializer: run numpy's BLAS on one thread; do nothing when its setter is not found.

    A forked worker has loaded OpenBLAS already, so an environment variable
    comes too late.  Two workers of two BLAS threads each on two CPUs run
    slower than one serial process; no result bit depends on the count.
    In a forked process the setter starts OpenBLAS's thread pool again, and
    its idle threads spin before they sleep, taking CPU from the other
    workers; a count of one never uses the pool, so it is stopped at once.
    """
    lib = _numpy_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
        lib.blas_thread_shutdown_()


def _run_macro_task(args) -> np.ndarray:
    scn, cfg, macro, r_test = args
    history = train(scn, cfg, macro=macro, eval_fn=true_model_eval_fn(scn, r_test, cfg.gamma))
    return history.eval_curve()


def run_comparison(
    scn: Scenario,
    base_cfg: TrainConfig,
    estimator_kinds: list[str],
    n_i_grid: list[int],
    macros: int,
    seed: int,
    out_dir: str | Path | None = None,
    r_test: int = 200,
    window: int = 100,
    threads: int | None = None,
) -> tuple[list[SummaryRow], list[MacroResult], list[str]]:
    """Run the full (estimator x n_i) grid with common random numbers.

    Returns summary rows, raw per-cell results, and per-cell error
    strings (failed cells are isolated; the others complete).  An
    :class:`IntegrationError` is the scenario's fault, not a cell's, and
    is raised.  When ``out_dir`` is given, writes
    ``curves/<estimator>_<n_i>.csv``, ``summary.csv`` and, once every
    cell has run, the comparison's one ``manifest.json`` (``"command":
    "compare"`` included) there.  Every argument is checked before any
    cell trains (each cell's config too): bad input, such as an estimator
    or replication count the grid repeats, raises ``ValueError``.
    ``threads`` above 1 runs the cells in a pool of at most ``threads``
    worker processes, never more than there are cells.
    """
    if macros < 2:
        raise ValueError("need at least 2 macro replications")
    if r_test < 1:
        raise ValueError("r_test must be >= 1")
    if not 2 <= window <= base_cfg.total_iterations:
        raise ValueError(
            f"window {window} must be between 2 and the {base_cfg.total_iterations} training iterations"
        )
    if not estimator_kinds or not n_i_grid:
        raise ValueError("the grid needs at least one estimator and one replication count")
    for name, values in (("estimator", estimator_kinds), ("replication count", n_i_grid)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"the grid repeats the {name} {repeated[0]!r}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    tasks = []
    for kind in estimator_kinds:
        for n_i in n_i_grid:
            cfg = replace(base_cfg, estimator=kind, replications=n_i, seed=seed)
            for h in range(macros):
                tasks.append((scn, cfg, h, r_test))

    outcomes: dict[tuple[str, int, int], np.ndarray | Exception] = {}
    with ExitStack() as stack:
        runs = [functools.partial(_run_macro_task, t) for t in tasks]
        if threads is not None and threads > 1:
            warm_up_fermentation(scn.upstream)  # forked workers inherit the upstream RK4 cache
            # The pool starts all max_workers processes at the first submit.
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(threads, len(tasks)), initializer=_one_blas_thread)
            )
            runs = [pool.submit(run).result for run in runs]
        for (_, cfg, h, _), run in zip(tasks, runs):
            key = (cfg.estimator, cfg.replications, h)
            try:
                outcomes[key] = run()
            except IntegrationError:
                raise
            except Exception as exc:  # isolate the failing cell
                outcomes[key] = exc

    rows: list[SummaryRow] = []
    results: list[MacroResult] = []
    curves: dict[tuple[str, int], CurveStats] = {}
    errors: list[str] = []
    for kind in estimator_kinds:
        for n_i in n_i_grid:
            cell = [outcomes[(kind, n_i, h)] for h in range(macros)]
            failed = [c for c in cell if isinstance(c, Exception)]
            if failed:
                errors.append(f"{kind}/n_i={n_i}: {failed[0]!r}")
                continue
            rewards = np.stack(cell)
            results.append(MacroResult(estimator=kind, n_i=n_i, rewards=rewards))
            curves[(kind, n_i)] = stats = aggregate_curves(rewards)
            rows.append(summarize_last_window(stats.mean, window, estimator=kind, n_i=n_i))

    if out_dir is not None:
        _write_outputs(Path(out_dir), curves, rows)
        _write_manifest(
            Path(out_dir),
            scn,
            base_cfg,
            {"macros": macros, "seed": seed, "r_test": r_test, "window": window},
            command="compare",
            estimators=list(estimator_kinds),
            n_i_grid=list(n_i_grid),
            errors=errors,
        )
    return rows, results, errors


# --- run directories ----------------------------------------------------------


def _write_outputs(out_dir: Path, curves: dict[tuple[str, int], CurveStats], rows: list[SummaryRow]) -> None:
    curves_dir = out_dir / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    for (kind, n_i), stats in curves.items():
        write_csv(
            curves_dir / f"{kind}_{n_i}.csv",
            ["iteration", "mean", "se", "lo", "hi"],
            zip(range(1, len(stats.mean) + 1), stats.mean, stats.se, stats.lo, stats.hi),
        )
    summary = ((row.estimator, row.n_i, row.mean, row.se) for row in rows)
    write_csv(out_dir / "summary.csv", ["estimator", "n_i", "mean", "se"], summary)


def _write_manifest(out_dir: Path, scn: Scenario, cfg: TrainConfig, inputs: dict, **fields) -> None:
    """Write ``out_dir/manifest.json`` for a run of ``cfg`` on ``scn``: ``inputs``, ``fields``, ``config``, ``version``.

    Its config digest is the sha256 of the scenario, the config and
    ``inputs``, so two output directories with one digest ran the same
    scenario, config and inputs; ``fields`` are not hashed.  The one
    manifest writer, called once per output directory: by
    :func:`write_train_outputs` and by :func:`run_comparison` after its
    last cell.
    """
    config = cfg.__dict__
    payload = {"scenario": scenario_to_jsonable(scn), "config": config, **inputs}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    manifest = {**inputs, **fields, "config_digest": digest, "config": config, "version": __version__}
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_train_outputs(out_dir: Path, scn: Scenario, history: TrainHistory, r_test: int | None) -> None:
    """Write the ``train`` run of ``history`` on ``scn`` into the existing directory ``out_dir``.

    Its files: ``ckpt/iter_<k>/params.json`` (iteration k's parameters, which
    :func:`load_checkpoint` reads), ``history.csv`` (per-iteration
    diagnostics, with ``eval_reward`` when the run scored its iterations),
    ``periods.csv`` (per-period dataset size and MCMC acceptance),
    ``timings.csv`` (per-phase wall seconds, the one file that differs
    between reruns), ``fractions.csv`` (the real-world observations),
    ``scenario.json`` and ``manifest.json``, whose digest input is
    ``r_test`` for a run scored by ``r_test`` rollouts (none when None).
    """
    cfg = history.config
    for rec in history.iterations:
        step_dir = out_dir / "ckpt" / f"iter_{rec.iteration}"
        step_dir.mkdir(parents=True)
        save_params(step_dir / "params.json", rec.theta, cfg.policy_kind, meta={"hidden_dim": cfg.hidden_dim})
    with_eval = any(rec.eval_reward is not None for rec in history.iterations)
    header = ["iteration", "estimator", "grad_norm", "return_estimate", "max_ratio", "ess"]
    write_csv(
        out_dir / "history.csv",
        header + ["eval_reward"] if with_eval else header,
        (
            [rec.iteration, cfg.estimator, rec.grad_norm, rec.return_estimate, rec.max_ratio, rec.ess]
            + ([rec.eval_reward] if with_eval else [])
            for rec in history.iterations
        ),
    )
    write_csv(
        out_dir / "periods.csv",
        ["period", "dataset_size", "mean_acceptance"],
        ((rec.period, rec.dataset_size, rec.mean_acceptance) for rec in history.periods),
    )
    write_csv(
        out_dir / "timings.csv",
        ["iteration", "posterior_s", "rollout_s", "gradient_s", "eval_s", "wall_s"],
        (
            (rec.iteration, rec.posterior_s, rec.rollout_s, rec.gradient_s, rec.eval_s, rec.wall_time)
            for rec in history.iterations
        ),
    )
    write_fractions_csv(history.dataset, out_dir / "fractions.csv")
    save_scenario(scn, out_dir / "scenario.json")
    _write_manifest(out_dir, scn, cfg, {} if r_test is None else {"r_test": r_test}, command="train", seed=cfg.seed)


def load_checkpoint(path, scn: Scenario) -> tuple[ChromatographyEnv, Policy, np.ndarray]:
    """Environment, policy and parameters of a checkpoint, rebuilt on ``scn`` from the checkpoint's own header.

    ``ValueError`` if the file is malformed or its parameter count does not fit that policy.
    """
    theta, kind, meta = load_params(path)
    hidden_dim = meta.get("hidden_dim", TrainConfig().hidden_dim)
    env, policy = scenario_policy(scn, kind, hidden_dim)
    if theta.shape[0] != policy.param_dim:
        raise ValueError(
            f"it holds {theta.shape[0]} parameters, but a {kind!r} policy "
            f"(hidden_dim {hidden_dim}) on this scenario has {policy.param_dim}"
        )
    return env, policy, theta
