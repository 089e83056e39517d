"""Command-line interface.

Subcommands and the files they write:

- ``simulate``: true-model rollouts into the file ``--out``, one JSON
  object ``{"steps": [...]}`` per trajectory and line; each step is the
  flat array ``state..., action, reward, next_state...``.
- ``train``: one training run, into the directory ``--out``, laid out by
  ``harness.write_train_outputs``: ``history.csv``, ``periods.csv``,
  ``timings.csv``, ``fractions.csv`` (which ``posterior-diag --data``
  reads), ``scenario.json``, ``manifest.json`` and
  ``ckpt/iter_<k>/params.json``.
- ``evaluate``: scores a checkpoint; writes no file.
- ``compare``: the estimator comparison grid, into the directory
  ``--out``: ``curves/<estimator>_<n_i>.csv``, ``summary.csv`` and
  ``manifest.json``; its cells run in a pool of ``--threads`` worker
  processes (default 1, serial).
- ``oracle-check``: exactness invariants; writes no file.
- ``posterior-diag``: per-channel MCMC acceptance diagnostics, the CSV
  file ``--out``; ``--draws`` times the sampler's thin may be at most
  ``bayes.MAX_MOVES``.

``train --seed`` and ``compare --seed`` default to the config's ``seed``
(0 without ``--config``); the manifest records the seed that ran.

A ``manifest.json`` holds the command, the seed, the config, the package
version and the config digest, the sha256 of the scenario, the config
and the run's digest inputs: ``r_test`` for a scored ``train`` run (none
otherwise); ``macros``, ``seed``, ``r_test`` and ``window`` for
``compare``, whose estimators, ``n_i`` grid and cell errors are recorded
but not hashed.

Exit codes: 0 success, 2 usage error, 3 an input path (scenario, config,
checkpoint or fraction data) that is not a file, 4 a malformed scenario,
config, checkpoint or fraction file (a scenario whose upstream fermentation
diverges too), 1 runtime failure.  Output directories are populated in a
temporary sibling and renamed into place on success, so a failed run never
leaves a partial directory behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import shutil
import sys
from pathlib import Path

from . import __version__, bayes
from .bioenv import (
    ChromatographyEnv,
    FractionDataset,
    IntegrationError,
    default_scenario,
    load_scenario,
    read_fractions_csv,
    warm_up_fermentation,
)
from .core import rollout_batch, substream, write_trajectories_jsonl
from .harness import evaluate_policy, load_checkpoint, run_comparison, true_model_eval_fn, write_train_outputs
from .oracle import run_oracle_checks
from .trainer import ESTIMATOR_KINDS, TrainConfig, TrainingError, load_train_config, scenario_policy, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (otherwise a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _replication_counts(text: str) -> list[int]:
    """argparse type: a comma-separated list of positive integers."""
    counts = [_int_at_least(1)(part.strip()) for part in text.split(",") if part.strip()]
    if not counts:
        raise argparse.ArgumentTypeError("needs at least one replication count")
    return counts


def _read_input(what: str, path: str, read):
    """``read(path)``; exit 3 if ``path`` is not a file, exit 4 if ``read`` raises ValueError."""
    if not Path(path).is_file():
        raise CliError(EXIT_MISSING_FILE, f"no {what} file at {path}")
    try:
        return read(path)
    except ValueError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"invalid {what} {path}: {exc}") from exc


def _load_scenario_arg(path: str | None):
    """The scenario at ``path`` (default: built-in), its batch fermentation integrated before any output is written."""
    scn = default_scenario() if path is None else _read_input("scenario", path, load_scenario)
    warm_up_fermentation(scn.upstream)
    return scn


def _load_config_arg(path: str | None) -> TrainConfig:
    return TrainConfig() if path is None else _read_input("config", path, load_train_config)


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


def _load_checkpoint(path: str, scn):
    """:func:`harness.load_checkpoint` of ``path`` on ``scn``, with the input file exit codes."""
    return _read_input("checkpoint", path, lambda p: load_checkpoint(p, scn))


# --- subcommands --------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    if args.checkpoint:
        env, policy, theta = _load_checkpoint(args.checkpoint, scn)
    else:
        cfg = TrainConfig()
        env, policy = scenario_policy(scn, cfg.policy_kind, cfg.hidden_dim)
        theta = policy.init_params(substream(args.seed, 0), cfg.init_scale)
    batch = rollout_batch(env, policy, theta, scn.true_model, args.n, substream(args.seed, 1))
    with open(args.out, "w") as fh:
        write_trajectories_jsonl(batch, fh)
    print(f"wrote {len(batch)} trajectories to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    cfg = _load_config_arg(args.config)
    if args.estimator:
        cfg = dataclasses.replace(cfg, estimator=args.estimator)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    eval_fn = None if args.r_test is None else true_model_eval_fn(scn, args.r_test, cfg.gamma)
    with _atomic_out_dir(args.out) as tmp:
        history = train(scn, cfg, eval_fn=eval_fn)
        write_train_outputs(tmp, scn, history, args.r_test)
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
    with _atomic_out_dir(args.out) as tmp:
        try:
            rows, _, errors = run_comparison(
                scn,
                cfg,
                estimator_kinds,
                args.n_i,
                macros=args.macros,
                seed=cfg.seed if args.seed is None else args.seed,
                out_dir=tmp,
                r_test=args.r_test,
                window=args.window,
                threads=args.threads,
            )
        except ValueError as exc:
            raise CliError(EXIT_BAD_CONFIG, f"invalid comparison: {exc}")
    for row in rows:
        print(f"{row.estimator:>4} n_i={row.n_i:<4} mean={row.mean:8.3f} se={row.se:.3f}")
    for err in errors:
        print(f"cell failed: {err}", file=sys.stderr)
    print(f"outputs in {args.out}")
    return EXIT_OK if not errors else EXIT_RUNTIME


def _cmd_oracle_check(args) -> int:
    results = run_oracle_checks()
    failures = 0
    for name, passed, detail in results:
        marker = "PASS" if passed else "FAIL"
        print(f"[{marker}] {name} ({detail})")
        failures += 0 if passed else 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def _cmd_posterior_diag(args) -> int:
    # the grid, burn-in and thin trainer.train builds its posterior with for this scenario
    env, cfg = ChromatographyEnv(_load_scenario_arg(args.scenario)), TrainConfig()
    sampler = {"burn_in": cfg.burn_in, "thin": cfg.thin}
    if args.data:

        def read(path):
            with open(path) as fh:
                return bayes.make_posterior(read_fractions_csv(fh), *env.model_grid(), **sampler)

        posterior = _read_input("fraction data", args.data, read)
    else:
        # No data: every channel samples straight from the prior.
        posterior = bayes.make_posterior(FractionDataset(), *env.model_grid(), **sampler)
    most = bayes.MAX_MOVES // cfg.thin
    if args.draws > most:
        raise CliError(
            EXIT_USAGE,
            f"--draws must be <= {most} (bayes.MAX_MOVES = {bayes.MAX_MOVES} moves at thin {cfg.thin}), "
            f"got {args.draws}",
        )
    bayes.mh_sample(posterior, args.draws, args.seed, 0)
    bayes.write_acceptance_csv(posterior, args.out)
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
    p.add_argument("--n", type=_int_at_least(1), default=100, help="number of trajectories")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--checkpoint", help="policy checkpoint (default: fresh init)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("train", help="run one training loop")
    p.add_argument("--scenario")
    p.add_argument("--config", help="TrainConfig JSON")
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS)
    p.add_argument("--seed", type=_int_at_least(0), help="root seed (default: the config's seed)")
    p.add_argument(
        "--r-test",
        type=_int_at_least(1),
        help="score every iteration by this many true-model rollouts (history.csv eval_reward)",
    )
    p.add_argument("--out", required=True, help="output directory (must not exist)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against the true model")
    p.add_argument("--scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--r-test", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("compare", help="estimator comparison grid with CRN")
    p.add_argument("--scenario")
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output directory (must not exist)")
    p.add_argument("--seed", type=_int_at_least(0), help="root seed of every cell (default: the config's seed)")
    p.add_argument("--estimators", default="pg,ilr,mlr,tlr")
    p.add_argument(
        "--n-i", type=_replication_counts, default=[25], help="comma-separated replication counts"
    )
    p.add_argument("--macros", type=_int_at_least(2), default=5)
    p.add_argument("--r-test", type=_int_at_least(1), default=200)
    p.add_argument("--window", type=int, default=100, help="last-window length, 2..total iterations")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="worker processes (default: 1, serial)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("oracle-check", help="run the exactness invariant suite")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("posterior-diag", help="dump per-channel MCMC acceptance rates")
    p.add_argument("--scenario", help="scenario whose step x action grid the posterior covers")
    p.add_argument("--data", help="fraction observations CSV (default: empty dataset)")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--draws", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    except IntegrationError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # pragma: no cover - last-resort reporting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
