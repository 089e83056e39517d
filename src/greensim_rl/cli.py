"""Command-line interface.

Subcommands: ``simulate`` (export trajectories), ``train`` (one training
run), ``evaluate`` (score a checkpoint), ``compare`` (the estimator
comparison grid), ``oracle-check`` (exactness invariants), and
``posterior-diag`` (MCMC acceptance diagnostics).

Exit codes: 0 success, 2 usage error, 3 missing input file, 4 malformed
scenario/config, 1 runtime failure.  Output directories are populated in
a temporary sibling and renamed into place on success, so a failed run
never leaves a partial directory behind.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bioenv import (
    ChromatographyEnv,
    ScenarioError,
    default_scenario,
    load_scenario,
    save_scenario,
)
from .core import rollout_batch, substream, write_trajectories_jsonl
from .harness import config_digest, evaluate_policy, run_comparison, write_manifest
from .policy import load_params, make_policy, purification_features
from .trainer import (
    ESTIMATOR_KINDS,
    TrainConfig,
    TrainingError,
    load_train_config,
    train,
    write_history_csv,
    write_periods_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _default_threads() -> int:
    env = os.environ.get("GREENSIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CliError(EXIT_BAD_CONFIG, f"GREENSIM_THREADS={env!r} is not an integer")
    return 1


def _load_scenario_arg(path: str | None):
    if path is None:
        return default_scenario()
    if not Path(path).exists():
        raise CliError(EXIT_MISSING_FILE, f"scenario file not found: {path}")
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"invalid scenario {path}: {exc}")


def _load_config_arg(path: str | None) -> TrainConfig:
    if path is None:
        return TrainConfig()
    if not Path(path).exists():
        raise CliError(EXIT_MISSING_FILE, f"config file not found: {path}")
    try:
        return load_train_config(path)
    except ValueError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"invalid config {path}: {exc}")


@contextlib.contextmanager
def _atomic_out_dir(path: str):
    """Populate a temp sibling, rename into place only on success."""
    final = Path(path)
    if final.exists():
        raise CliError(EXIT_BAD_CONFIG, f"output directory already exists: {final}")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    os.replace(tmp, final)


def _build_policy_for(scn, kind: str, hidden_dim: int = 16):
    env = ChromatographyEnv(scn)
    features = purification_features(scn.p_bar, scn.i_bar, env.horizon())
    return env, make_policy(kind, features, env.action_count(), hidden_dim)


def _load_checkpoint(path: str, scn):
    """Environment, policy and parameters of a checkpoint, rebuilt from its own architecture."""
    if not Path(path).exists():
        raise CliError(EXIT_MISSING_FILE, f"checkpoint not found: {path}")
    try:
        theta, kind, meta = load_params(path)
        hidden_dim = meta.get("hidden_dim", 16)
        env, policy = _build_policy_for(scn, kind, hidden_dim)
    except ValueError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"invalid checkpoint {path}: {exc}")
    if theta.shape[0] != policy.param_dim:
        raise CliError(
            EXIT_BAD_CONFIG,
            f"checkpoint {path} holds {theta.shape[0]} parameters, but a {kind!r} policy "
            f"(hidden_dim {hidden_dim}) on this scenario has {policy.param_dim}",
        )
    return env, policy, theta


# --- subcommands --------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    if args.checkpoint:
        env, policy, theta = _load_checkpoint(args.checkpoint, scn)
    else:
        env, policy = _build_policy_for(scn, "mlp")
        theta = policy.init_params(substream(args.seed, 0))
    trajectories = rollout_batch(
        env, policy, theta, scn.true_model, args.n, substream(args.seed, 1)
    )
    with open(args.out, "w") as fh:
        write_trajectories_jsonl(trajectories, fh)
    print(f"wrote {len(trajectories)} trajectories to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    cfg = _load_config_arg(args.config)
    if args.estimator:
        cfg = cfg.__class__(**{**cfg.__dict__, "estimator": args.estimator})
    if args.seed is not None:
        try:
            cfg = cfg.__class__(**{**cfg.__dict__, "seed": args.seed})
        except ValueError as exc:
            raise CliError(EXIT_BAD_CONFIG, f"invalid --seed: {exc}")
    with _atomic_out_dir(args.out) as tmp:
        history = train(scn, cfg, checkpoint_dir=tmp / "ckpt")
        with open(tmp / "history.csv", "w", newline="") as fh:
            write_history_csv(history, fh)
        with open(tmp / "periods.csv", "w", newline="") as fh:
            write_periods_csv(history, fh)
        save_scenario(scn, tmp / "scenario.json")
        write_manifest(
            tmp,
            {
                "command": "train",
                "config_digest": config_digest(scn, cfg, {}),
                "seed": cfg.seed,
                "config": cfg.__dict__,
            },
        )
    final = history.iterations[-1]
    print(
        f"trained {len(history.iterations)} iterations ({cfg.estimator}); "
        f"final training return estimate {final.return_estimate:.3f}"
    )
    print(f"outputs in {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    env, policy, theta = _load_checkpoint(args.checkpoint, scn)
    value = evaluate_policy(
        theta, env, scn.true_model, policy, args.r_test, substream(args.seed, 0)
    )
    print(f"mean reward over {args.r_test} true-model rollouts: {value:.4f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    cfg = _load_config_arg(args.config)
    estimator_kinds = [e.strip() for e in args.estimators.split(",") if e.strip()]
    for kind in estimator_kinds:
        if kind not in ESTIMATOR_KINDS:
            raise CliError(EXIT_BAD_CONFIG, f"unknown estimator {kind!r}")
    n_i_grid = [int(x) for x in args.n_i.split(",") if x.strip()]
    threads = args.threads if args.threads is not None else _default_threads()
    with _atomic_out_dir(args.out) as tmp:
        rows, _, errors = run_comparison(
            scn,
            cfg,
            estimator_kinds,
            n_i_grid,
            macros=args.macros,
            seed=args.seed,
            out_dir=tmp,
            r_test=args.r_test,
            window=args.window,
            threads=threads,
        )
        write_manifest(tmp, {"command": "compare"})
    for row in rows:
        print(f"{row.estimator:>4} n_i={row.n_i:<4} mean={row.mean:8.3f} se={row.se:.3f}")
    for err in errors:
        print(f"cell failed: {err}", file=sys.stderr)
    print(f"outputs in {args.out}")
    return EXIT_OK if not errors else EXIT_RUNTIME


def _cmd_oracle_check(args) -> int:
    from .oracle import run_oracle_checks

    results = run_oracle_checks()
    failures = 0
    for name, passed, detail in results:
        marker = "PASS" if passed else "FAIL"
        print(f"[{marker}] {name} ({detail})")
        failures += 0 if passed else 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def _cmd_posterior_diag(args) -> int:
    from . import bayes

    if args.data:
        if not Path(args.data).exists():
            raise CliError(EXIT_MISSING_FILE, f"data file not found: {args.data}")
        try:
            with open(args.data) as fh:
                posterior = bayes.make_posterior(bayes.read_fractions_csv(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_BAD_CONFIG, f"invalid fraction data {args.data}: {exc!r}")
    else:
        # No data: every channel samples straight from the prior.
        posterior = bayes.make_posterior(bayes.FractionDataset())
    bayes.mh_sample(posterior, args.draws, substream(args.seed, 0))
    with open(args.out, "w", newline="") as fh:
        bayes.write_acceptance_csv(posterior, fh)
    print(f"wrote per-channel acceptance diagnostics to {args.out}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greensim",
        description="Trajectory-reusing policy-gradient training on the purification simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="export true-model rollouts as JSONL")
    p.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--n", type=int, default=100, help="number of trajectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", help="policy checkpoint (default: fresh init)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("train", help="run one training loop")
    p.add_argument("--scenario")
    p.add_argument("--config", help="TrainConfig JSON")
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory (must not exist)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against the true model")
    p.add_argument("--scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--r-test", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("compare", help="estimator comparison grid with CRN")
    p.add_argument("--scenario")
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output directory (must not exist)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="pg,ilr,mlr,tlr")
    p.add_argument("--n-i", default="25", help="comma-separated replication counts")
    p.add_argument("--macros", type=int, default=5)
    p.add_argument("--r-test", type=int, default=200)
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--threads", type=int, help="worker processes (default: GREENSIM_THREADS or 1)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("oracle-check", help="run the exactness invariant suite")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("posterior-diag", help="dump per-channel MCMC acceptance rates")
    p.add_argument("--data", help="fraction observations CSV (default: empty dataset)")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_posterior_diag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort reporting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
