"""Command-line surface: dispatch, exit codes, atomic outputs."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greensim_rl
from greensim_rl import bayes, bioenv, cli
from greensim_rl.bioenv import (
    MAX_RK4_STEPS,
    ModelParams,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_to_jsonable,
)
from greensim_rl.core import read_json, substream
from greensim_rl.harness import evaluate_policy, load_checkpoint, true_model_eval_fn, write_train_outputs
from greensim_rl.trainer import ESTIMATOR_KINDS, TrainingError, load_train_config, scenario_policy, train

SRC = Path(__file__).resolve().parents[1] / "src"


def scenario_with(path, **upstream):
    """Write the default scenario with ``upstream`` overrides to ``path``."""
    scn = default_scenario()
    save_scenario(dataclasses.replace(scn, upstream=dataclasses.replace(scn.upstream, **upstream)), path)
    return path


def edit_field(section, name, value):
    """A scenario edit that sets ``scenario[section][name] = value``."""
    return lambda s: {**s, section: {**s[section], name: value}}


def assert_manifest(path, scenario_path, cfg, inputs, fields):
    """``path`` holds exactly ``inputs``, ``fields``, ``cfg``, the version and the run's config digest.

    The digest is recomputed from the scenario at ``scenario_path``, ``cfg``
    and the digest ``inputs``, as every manifest defines it.
    """
    manifest = json.loads(Path(path).read_text())
    assert set(manifest) == {*inputs, *fields, "config", "config_digest", "version"}
    assert {name: manifest[name] for name in {**inputs, **fields}} == {**inputs, **fields}
    assert manifest["config"] == dataclasses.asdict(cfg)
    assert manifest["version"] == greensim_rl.__version__
    payload = {"scenario": scenario_to_jsonable(load_scenario(scenario_path)), "config": manifest["config"], **inputs}
    assert manifest["config_digest"] == hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def tree_bytes(root):
    """Every file under ``root`` but ``timings.csv`` (wall seconds), by relative path, with its bytes."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "timings.csv"
    }


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(default_scenario(), path)
    return path


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "periods": 1,
                "iterations_per_period": 3,
                "replications": 3,
                "real_data_per_period": 3,
                "burn_in": 10,
                "thin": 1,
            }
        )
    )
    return path


class TestHelp:
    def test_help_exits_zero_and_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "train", "evaluate", "compare", "oracle-check", "posterior-diag"):
            assert name in out

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--bogus"])
        assert exc.value.code == 2


class TestErrors:
    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == cli.EXIT_MISSING_FILE
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == cli.EXIT_BAD_CONFIG

    def test_malformed_config(self, tmp_path, scenario_file):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"bogus_field": 3}')
        code = cli.main(
            [
                "train",
                "--scenario",
                str(scenario_file),
                "--config",
                str(bad),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "config",
        [
            {"hidden_dim": "8"},
            {"thin": 0},
            {"burn_in": -1},
            {"burn_in": 2.5},
            # past bayes.MAX_MOVES: refused before the sampler would allocate ~900 GiB
            {"thin": 1_000_000_000},
            {"burn_in": 1_000_000_000},
            {"rolling_window": 0},
            {"grad_clip": 0},
        ],
    )
    def test_bad_sampler_and_integer_fields_exit_4(self, tmp_path, scenario_file, config, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = cli.main(["train", "--scenario", str(scenario_file), "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_BAD_CONFIG
        assert next(iter(config)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("reward", "c_f", "nan"),
            ("reward", "price", "inf"),
            ("upstream", "harvest_to_mg", "inf"),
            ("bounds", "p_bar", "inf"),
            ("config", "grad_clip", "nan"),
            ("config", "learning_rate", "inf"),
        ],
    )
    def test_non_finite_number_exits_4(self, tmp_path, tiny_config_file, section, name, value, capsys):
        # json reads NaN and Infinity; they must not reach a run
        scenario = scenario_to_jsonable(default_scenario())
        config = json.loads(tiny_config_file.read_text())
        (config if section == "config" else scenario[section])[name] = float(value)
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        tiny_config_file.write_text(json.dumps(config))
        out = tmp_path / "run"
        argv = ["--scenario", str(tmp_path / "scenario.json"), "--config", str(tiny_config_file), "--out", str(out)]
        assert cli.main(["train", *argv]) == cli.EXIT_BAD_CONFIG
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name",
        [("upstream", "duration"), ("reward", "price"), ("bounds", "i_bar"), ("config", "learning_rate")],
    )
    def test_integer_too_large_for_a_float_exits_4(self, tmp_path, tiny_config_file, section, name, capsys):
        # a JSON integer of 400 digits is exact in Python, but no double holds it
        scenario = scenario_to_jsonable(default_scenario())
        config = json.loads(tiny_config_file.read_text())
        (config if section == "config" else scenario[section])[name] = 10**400
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        tiny_config_file.write_text(json.dumps(config))
        out = tmp_path / "run"
        argv = ["--scenario", str(tmp_path / "scenario.json"), "--config", str(tiny_config_file), "--out", str(out)]
        assert cli.main(["train", *argv]) == cli.EXIT_BAD_CONFIG
        assert f"{name} must be finite, got an integer too large for a float" in capsys.readouterr().err
        assert not out.exists()

    def test_beta_shape_too_large_for_a_float_exits_4(self, tmp_path, capsys):
        scenario = scenario_to_jsonable(default_scenario())
        scenario["true_model"]["beta_shapes"][0][2][1] = 10**400
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        out = tmp_path / "trajs.jsonl"
        argv = ["simulate", "--scenario", str(tmp_path / "scenario.json"), "--n", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert "beta_shapes must be finite, got an integer too large for a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("reward", "c_f", True),
            ("bounds", "p_bar", "30"),
            ("reward", "charge_terminal_op_cost", 1.5),
            ("upstream", "harvest_to_mg", "778"),
            ("upstream", "nu1_mean", [0.11]),
            ("reward", "op_cost", "8"),
            ("true_model", "beta_shapes", [[["2.0", 1.0, 1.0, 1.0]]]),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_mistyped_scenario_field_exits_4(self, tmp_path, section, name, value, capsys):
        scenario = scenario_to_jsonable(default_scenario())
        scenario[section][name] = value
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        out = tmp_path / "trajs.jsonl"
        argv = ["simulate", "--scenario", str(tmp_path / "scenario.json"), "--n", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert f"{name} must be of type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda s: {**s, "bounds": {"i_bar": 30.0}}, "bounds.p_bar"),
            (lambda s: {**s, "true_model": {}}, "true_model.beta_shapes"),
            (lambda s: {**s, "true_model": [1]}, "'true_model'"),
            (lambda s: {**s, "bounds": 5}, "'bounds'"),
            (lambda s: {**s, "bounds": {**s["bounds"], "extra": 1.0}}, "bounds.extra"),
            (lambda s: {**s, "true_model": {**s["true_model"], "extra": 1.0}}, "true_model.extra"),
            (lambda s: 5, "JSON object"),
            (lambda s: {**s, "true_model": {"beta_shapes": s["true_model"]["beta_shapes"][:1]}}, "steps 1 and 2"),
            (lambda s: {k: v for k, v in s.items() if k != "upstream"}, "'scenario.upstream'"),
            (edit_field("upstream", "V", 0.0), "V must be positive"),
            (edit_field("upstream", "dt", -0.02), "dt must be positive"),
            (edit_field("upstream", "duration", 0.0), "duration must be positive"),
            (edit_field("upstream", "q_s_max", 0.0), "q_s_max must be positive"),
            (edit_field("upstream", "nu1_sd", -0.01), "nu1_sd must be nonnegative"),
            (edit_field("upstream", "X0", -0.1), "X0 must be nonnegative"),
            (edit_field("upstream", "S0", -5.0), "S0 must be nonnegative"),
            (edit_field("upstream", "harvest_to_mg", -778.0), "harvest_to_mg must be positive"),
            (edit_field("upstream", "harvest_to_mg", 0.0), "harvest_to_mg must be positive"),
            (edit_field("true_model", "beta_shapes", np.ones((3, 10, 3)).tolist()), "beta_shapes must have shape"),
            (edit_field("reward", "r_d", 1.0), "r_d must be in (0, 1)"),
            (edit_field("reward", "r_d", 0.0), "r_d must be in (0, 1)"),
            (edit_field("reward", "c_l", -1.0), "c_l must be nonnegative"),
            (edit_field("bounds", "i_bar", 0.0), "i_bar must be positive"),
        ],
        ids=[
            "missing-key", "empty-section", "list-section", "number-section", "unknown-key",
            "unknown-model-key", "not-an-object", "one-step-row", "missing-section", "volume-0",
            "dt-negative", "duration-0", "q-s-max-0", "sd-negative", "x0-negative", "s0-negative",
            "harvest-to-mg-negative", "harvest-to-mg-0", "three-shape-columns", "r-d-1", "r-d-0",
            "cost-negative", "bound-0",
        ],
    )
    def test_malformed_scenario_section_exits_4(self, tmp_path, edit, field, capsys):
        scenario = edit(scenario_to_jsonable(default_scenario()))
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        out = tmp_path / "trajs.jsonl"
        argv = ["simulate", "--scenario", str(tmp_path / "scenario.json"), "--n", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_stale_temp_sibling_removed(self, tmp_path, tiny_config_file):
        # a temp sibling left by an earlier process of the same pid is cleared, not merged
        out = tmp_path / "run"
        stale = tmp_path / f"run.tmp{os.getpid()}"
        (stale / "ckpt").mkdir(parents=True)
        (stale / "stale.txt").write_text("left behind\n")
        assert cli.main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == 0
        assert not stale.exists() and not (out / "stale.txt").exists()
        assert (out / "history.csv").is_file()

    def test_negative_seed_exits_2(self, tmp_path, scenario_file, tiny_config_file, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "train",
                    "--scenario",
                    str(scenario_file),
                    "--config",
                    str(tiny_config_file),
                    "--seed",
                    "-1",
                    "--out",
                    str(out),
                ]
            )
        assert exc.value.code == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--out", "OUT"],
            ["train", "--out", "OUT"],
            ["evaluate", "--checkpoint", "OUT"],
            ["compare", "--out", "OUT"],
            ["posterior-diag", "--out", "OUT"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "upstream",
        [{"dt": 300.0}, {"S0": 1e308, "q_s_max": 10.0, "dt": 600.0}],
        ids=["negative-biomass", "non-finite"],
    )
    def test_diverging_upstream_exits_4(self, tmp_path, command, upstream, capsys):
        # dt = 300 h overshoots to a biomass of -1.4e19 g/L, which would clip every harvest to 1e-6 mg
        scenario = scenario_with(tmp_path / "scenario.json", **upstream)
        out = tmp_path / "out"
        argv = [str(out) if arg == "OUT" else arg for arg in command]
        assert cli.main([*argv, "--scenario", str(scenario)]) == cli.EXIT_BAD_CONFIG
        assert "reduce dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [None, "1", "2"], ids=["simulate", "compare-serial", "compare-pool"])
    def test_diverging_fed_batch_exits_4(self, tmp_path, tiny_config_file, threads, capsys):
        # F > 0 is not integrated up front: the first harvest raises, in a
        # compare cell too, where it fails the whole grid rather than one cell
        scenario = scenario_with(tmp_path / "scenario.json", F=0.5, dt=300.0)
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", str(scenario), "--out", str(out)]
        if threads is not None:
            grid = ["--estimators", "pg", "--n-i", "3", "--macros", "2", "--window", "2", "--r-test", "4"]
            argv = ["compare", *argv[1:], "--config", str(tiny_config_file), *grid, "--threads", threads]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert "negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "evaluate", "compare", "posterior-diag"])
    @pytest.mark.parametrize(
        "duration, dt",
        [(1e308, 1e-10), (0.02 * (MAX_RK4_STEPS + 1), 0.02)],
        ids=["overflowing", "just-past-the-bound"],
    )
    def test_step_count_past_the_bound_exits_4(self, tmp_path, tiny_config_file, command, duration, dt, capsys):
        # refused before any integration: an infinite count used to exit 1, a large one ran for minutes
        scenario = scenario_to_jsonable(default_scenario())
        scenario["upstream"].update(duration=duration, dt=dt)
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        out = tmp_path / "out"
        grid = ["--estimators", "pg", "--n-i", "3", "--macros", "2", "--window", "2", "--r-test", "4"]
        argv = {
            "simulate": ["--n", "2", "--out", str(out)],
            "train": ["--config", str(tiny_config_file), "--out", str(out)],
            "evaluate": ["--checkpoint", str(out)],
            "compare": ["--config", str(tiny_config_file), *grid, "--out", str(out)],
            "posterior-diag": ["--out", str(out)],
        }[command]
        assert cli.main([command, "--scenario", str(tmp_path / "scenario.json"), *argv]) == cli.EXIT_BAD_CONFIG
        assert "duration / dt must be at most" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "scenario.json"]

    @pytest.mark.parametrize("fault, code", [("directory", 3), ("not-utf8", 4)])
    @pytest.mark.parametrize("what", ["scenario", "config", "checkpoint", "fraction-data"])
    def test_input_that_is_not_a_readable_file(self, tmp_path, what, fault, code, capsys):
        given = tmp_path / "input"
        if fault == "directory":
            given.mkdir()
        else:
            given.write_bytes(b'{"\xff\xfe": 1}\n')
        out = tmp_path / "out"
        argv = {
            "scenario": ["simulate", "--scenario", str(given), "--n", "2"],
            "config": ["train", "--config", str(given)],
            "checkpoint": ["simulate", "--checkpoint", str(given), "--n", "2"],
            "fraction-data": ["posterior-diag", "--data", str(given)],
        }[what]
        assert cli.main([*argv, "--out", str(out)]) == code
        assert str(given) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]

    def test_existing_out_dir_refused(self, tmp_path, scenario_file, tiny_config_file):
        out = tmp_path / "run"
        out.mkdir()
        code = cli.main(
            [
                "train",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--out",
                str(out),
            ]
        )
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("argv", [["simulate", "--n", "2"], ["posterior-diag", "--draws", "2"]], ids=lambda a: a[0])
    def test_out_file_in_a_missing_directory(self, tmp_path, argv):
        # the command creates the parent directories of --out before its work, as train and compare do
        out = tmp_path / "nodir" / "deeper" / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.is_file() and out.stat().st_size > 0
        # and overwrites an existing --out file
        out.write_text("old\n")
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert "old" not in out.read_text() and out.stat().st_size > 0

    @pytest.mark.parametrize("stub_work", [False, True], ids=["run", "work-stubbed"])
    @pytest.mark.parametrize(
        "out, message",
        [
            ("", "--out must name a file"),
            ("adir", "--out must name a file"),
            ("newdir" + os.sep, "--out must name a file"),
            (os.path.join("afile", "x"), "--out must lie under a directory"),
        ],
        ids=["empty", "existing-dir", "trailing-sep", "under-a-file"],
    )
    @pytest.mark.parametrize("argv", [["simulate", "--n", "2"], ["posterior-diag", "--draws", "2"]], ids=lambda a: a[0])
    def test_unwritable_out_file_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, out, message, stub_work):
        # refused before any rollout or MCMC move, with nothing written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("kept")
        if stub_work:

            def work(*args, **kwargs):
                raise AssertionError("the work ran before --out was checked")

            monkeypatch.setattr(cli, "rollout_batch", work)
            monkeypatch.setattr(bayes, "mh_sample", work)
        assert cli.main([*argv, "--out", out]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert not any((tmp_path / "adir").iterdir()) and (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize(
        "out, message",
        [
            (os.path.join("afile", "run"), "--out must lie under a directory"),
            (os.path.join("afile", "sub", "run"), "--out must lie under a directory"),
            ("", "--out must name a directory, got ''"),
            ("afile", "--out must name a directory, got 'afile'"),
            ("afile" + os.sep, "--out must name a directory"),
        ],
        ids=["parent", "ancestor", "empty", "existing-file", "file-with-sep"],
    )
    @pytest.mark.parametrize("argv", [["train"], ["compare", "--macros", "2"]], ids=lambda a: a[0])
    def test_out_dir_under_a_file_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, out, message):
        # an --out under a file, an empty one or an existing regular file can never be an output
        # directory: exit 2 (not the exit 4 of an existing directory) before any training or
        # comparison cell, with nothing written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept")

        def work(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(cli, "train", work)
        monkeypatch.setattr(cli, "run_comparison", work)
        assert cli.main([*argv, "--out", out]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"] and (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize(
        "argv, what",
        [(["simulate", "--n", "2", "--checkpoint", ""], "checkpoint"), (["posterior-diag", "--data", ""], "fraction data")],
        ids=["simulate-checkpoint", "posterior-diag-data"],
    )
    def test_empty_input_path_is_a_missing_file(self, tmp_path, argv, what, capsys):
        # an empty path names no file: neither a fresh policy nor the prior stands in for it
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_MISSING_FILE
        assert f"no {what} file at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_writes_jsonl(self, tmp_path, scenario_file):
        out = tmp_path / "trajs.jsonl"
        code = cli.main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--n", "7", "--seed", "3"]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l]
        assert len(lines) == 7
        obj = json.loads(lines[0])
        assert set(obj) == {"steps"}

    def test_two_step_rows_suffice(self, tmp_path):
        # transitions read only the rows of steps 1 and 2
        scn = default_scenario()
        two_rows = ModelParams(scn.true_model.beta_shapes[:2])
        save_scenario(dataclasses.replace(scn, true_model=two_rows), tmp_path / "s.json")
        argv = ["simulate", "--scenario", str(tmp_path / "s.json"), "--n", "3", "--out", str(tmp_path / "t.jsonl")]
        assert cli.main(argv) == 0

    def test_fresh_interpreter(self, tmp_path):
        # in-process tests share the warm upstream cache; a new process pays the
        # cold integration and reads the packaged scenario JSON
        packaged = Path(greensim_rl.__file__).parent / "data" / "default_scenario.json"
        out = tmp_path / "trajs.jsonl"
        argv = ["simulate", "--scenario", str(packaged), "--n", "2", "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "greensim_rl.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert len(out.read_text().splitlines()) == 2


class TestTrainCommand:
    def test_default_scenario_written_as_packaged(self, tmp_path, tiny_config_file):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == 0
        packaged = Path(greensim_rl.__file__).parent / "data" / "default_scenario.json"
        assert (out / "scenario.json").read_bytes() == packaged.read_bytes()

    def test_outputs_and_manifest(self, tmp_path, scenario_file, tiny_config_file):
        out = tmp_path / "run"
        code = cli.main(
            [
                "train",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--estimator",
                "pg",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,estimator,grad_norm,return_estimate,max_ratio,ess"
        assert len(history) == 1 + 3
        periods = (out / "periods.csv").read_text().splitlines()
        assert periods[0] == "period,dataset_size,mean_acceptance"
        assert periods[1].split(",")[:2] == ["1", "12"]
        fractions = (out / "fractions.csv").read_text().splitlines()
        assert fractions[0] == "step,action,h_fraction,psi_fraction"
        assert len(fractions) == 1 + 12
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "iteration,posterior_s,rollout_s,gradient_s,eval_s,wall_s"
        assert [line.split(",")[0] for line in timings[1:]] == ["1", "2", "3"]
        assert 0.0 < float(periods[1].split(",")[2]) < 1.0
        # one checkpoint per iteration, holding that iteration's parameters bit for bit
        cfg = dataclasses.replace(load_train_config(tiny_config_file), estimator="pg", seed=5)
        history = train(default_scenario(), cfg)
        assert sorted(p.name for p in (out / "ckpt").iterdir()) == ["iter_1", "iter_2", "iter_3"]
        for rec in history.iterations:
            header = read_json(out / "ckpt" / f"iter_{rec.iteration}" / "params.json", ValueError)
            assert np.array(header["values"]).tobytes() == rec.theta.tobytes()
            assert (header["kind"], header["meta"]) == ("mlp", {"hidden_dim": 16})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["estimator"] == "pg"
        assert not list(tmp_path.glob("run.tmp*"))

    def test_r_test_adds_eval_reward(self, tmp_path, scenario_file, tiny_config_file):
        config = ["--scenario", str(scenario_file), "--config", str(tiny_config_file), "--seed", "5"]
        assert cli.main(["train", *config, "--out", str(tmp_path / "plain")]) == 0
        assert cli.main(["train", *config, "--r-test", "6", "--out", str(tmp_path / "scored")]) == 0
        plain = (tmp_path / "plain" / "history.csv").read_text().splitlines()
        scored = (tmp_path / "scored" / "history.csv").read_text().splitlines()
        assert scored[0] == plain[0] + ",eval_reward"
        assert "r_test" not in json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert json.loads((tmp_path / "scored" / "manifest.json").read_text())["r_test"] == 6
        # the digest covers r_test only when the run is scored
        cfg = dataclasses.replace(load_train_config(tiny_config_file), seed=5)
        for run, inputs in (("plain", {}), ("scored", {"r_test": 6})):
            out = tmp_path / run
            assert_manifest(out / "manifest.json", out / "scenario.json", cfg, inputs, {"command": "train", "seed": 5})
        # scoring draws on its own stream: training is unchanged
        assert [row.rsplit(",", 1)[0] for row in scored] == plain
        scn = default_scenario()
        for row in scored[1:]:
            k = int(row.split(",")[0])
            env, policy, theta = load_checkpoint(tmp_path / "scored" / "ckpt" / f"iter_{k}" / "params.json", scn)
            # the _EVAL stream (purpose 4) of macro 0, iteration k, as compare scores it
            expected = evaluate_policy(theta, env, scn.true_model, policy, 6, substream(5, 0, k, 4))
            assert float(row.rsplit(",", 1)[1]) == expected

    @pytest.mark.parametrize("section, name, value", [("config", "gamma", 1), ("upstream", "V", 1000)])
    def test_float_spelled_as_an_integer_writes_the_same_run(self, tmp_path, tiny_config_file, section, name, value):
        # a float field holds one form, so the files and the manifest's digest do not depend on the spelling
        runs = []
        for spelling in (value, float(value)):
            scenario = scenario_to_jsonable(default_scenario())
            config = json.loads(tiny_config_file.read_text())
            (config if section == "config" else scenario[section])[name] = spelling
            run = tmp_path / repr(spelling)
            run.mkdir()
            (run / "scenario.json").write_text(json.dumps(scenario))
            (run / "config.json").write_text(json.dumps(config))
            argv = ["--scenario", str(run / "scenario.json"), "--config", str(run / "config.json"), "--r-test", "3"]
            assert cli.main(["train", *argv, "--out", str(run / "out")]) == 0
            runs.append(tree_bytes(run / "out"))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("r_test", [None, 4])
    def test_one_writer_lays_out_the_run(self, tmp_path, scenario_file, tiny_config_file, r_test):
        # the command's directory is write_train_outputs' layout of the history train returns
        scoring = [] if r_test is None else ["--r-test", str(r_test)]
        argv = ["--scenario", str(scenario_file), "--config", str(tiny_config_file), "--estimator", "ilr", "--seed", "2"]
        assert cli.main(["train", *argv, *scoring, "--out", str(tmp_path / "cli")]) == 0
        scn = load_scenario(scenario_file)
        cfg = dataclasses.replace(load_train_config(tiny_config_file), estimator="ilr", seed=2)
        eval_fn = None if r_test is None else true_model_eval_fn(scn, r_test, cfg.gamma)
        (tmp_path / "direct").mkdir()
        write_train_outputs(tmp_path / "direct", scn, train(scn, cfg, eval_fn=eval_fn), r_test)
        written = tree_bytes(tmp_path / "cli")
        assert written == tree_bytes(tmp_path / "direct")
        assert ("eval_reward" in written[Path("history.csv")].decode()) == (r_test is not None)
        assert len(written) == 5 + 3  # history, periods, fractions, scenario, manifest and 3 checkpoints

    def test_training_failure_exits_1_without_output(self, tmp_path, scenario_file, monkeypatch, capsys):
        def train(*args, **kwargs):
            raise TrainingError("injected failure")

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "run"
        assert cli.main(["train", "--scenario", str(scenario_file), "--out", str(out)]) == cli.EXIT_RUNTIME
        assert "training failed: injected failure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


class TestEvaluateCommand:
    def test_reports_mean(self, tmp_path, scenario_file, tiny_config_file, capsys):
        out = tmp_path / "run"
        cli.main(
            [
                "train",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--out",
                str(out),
            ]
        )
        code = cli.main(
            [
                "evaluate",
                "--scenario",
                str(scenario_file),
                "--checkpoint",
                str(out / "ckpt" / "iter_3" / "params.json"),
                "--r-test",
                "20",
            ]
        )
        assert code == 0
        assert "mean reward" in capsys.readouterr().out


class TestCheckpointArchitecture:
    @pytest.fixture()
    def hidden8_checkpoint(self, tmp_path, scenario_file, tiny_config_file):
        config = json.loads(tiny_config_file.read_text())
        config_path = tmp_path / "h8.json"
        config_path.write_text(json.dumps({**config, "hidden_dim": 8}))
        out = tmp_path / "run"
        code = cli.main(
            ["train", "--scenario", str(scenario_file), "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        return out / "ckpt" / "iter_3" / "params.json"

    def test_non_default_hidden_dim_round_trips(self, tmp_path, scenario_file, hidden8_checkpoint):
        assert json.loads(hidden8_checkpoint.read_text())["meta"] == {"hidden_dim": 8}
        code = cli.main(
            ["evaluate", "--scenario", str(scenario_file), "--checkpoint", str(hidden8_checkpoint), "--r-test", "5"]
        )
        assert code == 0
        code = cli.main(
            [
                "simulate",
                "--scenario",
                str(scenario_file),
                "--checkpoint",
                str(hidden8_checkpoint),
                "--out",
                str(tmp_path / "t.jsonl"),
                "--n",
                "2",
            ]
        )
        assert code == 0

    def test_architecture_mismatch_exits_4(self, scenario_file, hidden8_checkpoint, capsys):
        payload = json.loads(hidden8_checkpoint.read_text())
        payload["meta"]["hidden_dim"] = 16
        hidden8_checkpoint.write_text(json.dumps(payload))
        for command in ("evaluate", "simulate"):
            args = [command, "--scenario", str(scenario_file), "--checkpoint", str(hidden8_checkpoint)]
            if command == "simulate":
                args += ["--out", str(hidden8_checkpoint.with_suffix(".jsonl"))]
            assert cli.main(args) == cli.EXIT_BAD_CONFIG
            assert "hidden_dim 16" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            "[1, 2]",
            '{"kind": "mlp", "length": 3, "values": [0.0, 1.0]}',
            '{"kind": "mlp", "length": 1, "values": ["x"]}',
            '{"kind": "tabular", "length": 1, "values": [0.0]}',
            '{"kind": "mlp", "length": 1, "values": [0.0], "meta": {"hidden_dim": -2}}',
            # hidden_dim true would be width 1: 24 parameters on the default scenario
            '{"kind": "mlp", "length": 24, "values": [0.0' + ", 0.0" * 23 + '], "meta": {"hidden_dim": true}}',
            # a linear policy on the default scenario has 30 parameters
            '{"kind": "linear", "length": 30, "values": [NaN' + ", 0.0" * 29 + "]}",
            '{"kind": "linear", "length": 30, "values": [Infinity' + ", 0.0" * 29 + "]}",
            '{"kind": "linear", "length": 30, "values": [true' + ", 0.0" * 29 + "]}",
            '{"kind": "mlp", "length": 0, "values": [], "meta": []}',
            '{"kind": "mlp", "length": 0, "values": {}}',
        ],
    )
    def test_malformed_checkpoint_exits_4(self, tmp_path, scenario_file, content, capsys):
        path = tmp_path / "params.json"
        path.write_text(content)
        code = cli.main(["evaluate", "--scenario", str(scenario_file), "--checkpoint", str(path)])
        assert code == cli.EXIT_BAD_CONFIG
        assert "invalid checkpoint" in capsys.readouterr().err

    def test_value_too_large_for_a_float_exits_4(self, tmp_path, scenario_file, capsys):
        # a linear policy on the default scenario has 30 parameters; no double holds 10**400
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"kind": "linear", "length": 30, "values": [10**400] + [0.0] * 29}))
        code = cli.main(["evaluate", "--scenario", str(scenario_file), "--checkpoint", str(path)])
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "invalid checkpoint" in err and "checkpoint value must be finite, got an integer too large" in err

    @pytest.mark.parametrize(
        "content",
        [
            # an MLP on the default scenario has 234 parameters: 234.0 must not pass for it
            '{"kind": "mlp", "length": 234.0, "values": [0.0' + ", 0.0" * 233 + "]}",
            # true must not pass for a length of 1, nor be blamed on the parameter count
            '{"kind": "linear", "length": true, "values": [0.0]}',
        ],
    )
    def test_mistyped_length_exits_4(self, tmp_path, scenario_file, content, capsys):
        path = tmp_path / "params.json"
        path.write_text(content)
        code = cli.main(["evaluate", "--scenario", str(scenario_file), "--checkpoint", str(path)])
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "invalid checkpoint" in err and "checkpoint field 'length' must be of type int" in err


class TestCompareCommand:
    def test_tiny_grid(self, tmp_path, scenario_file, tiny_config_file):
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--out",
                str(out),
                "--estimators",
                "pg,tlr",
                "--n-i",
                "3",
                "--macros",
                "2",
                "--r-test",
                "4",
                "--window",
                "2",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "curves" / "pg_3.csv").exists()
        assert (out / "curves" / "tlr_3.csv").exists()
        # the digest covers the scenario, the base config, macros, seed, r_test and window; not the grid
        assert_manifest(
            out / "manifest.json",
            scenario_file,
            load_train_config(tiny_config_file),
            {"macros": 2, "seed": 9, "r_test": 4, "window": 2},
            {"command": "compare", "estimators": ["pg", "tlr"], "n_i_grid": [3], "errors": []},
        )

    def test_failed_cell_error_kept_in_manifest(self, tmp_path, scenario_file, tiny_config_file, monkeypatch):
        from greensim_rl import harness

        real_train = harness.train

        def train(scn, cfg, *args, **kwargs):
            if cfg.estimator == "tlr":
                raise TrainingError("injected failure")
            return real_train(scn, cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "train", train)
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--out",
                str(out),
                "--estimators",
                "pg,tlr",
                "--n-i",
                "3",
                "--macros",
                "2",
                "--r-test",
                "4",
                "--window",
                "2",
                "--threads",
                "1",
            ]
        )
        assert code == cli.EXIT_RUNTIME
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["errors"]) == 1
        assert manifest["errors"][0].startswith("tlr/n_i=3:")
        assert "injected failure" in manifest["errors"][0]
        assert manifest["command"] == "compare"
        assert manifest["estimators"] == ["pg", "tlr"]
        assert len(manifest["config_digest"]) == 64
        assert (out / "curves" / "pg_3.csv").exists()

    def test_seed_defaults_to_config_seed(self, tmp_path, scenario_file, tiny_config_file):
        # without --seed the config's seed runs, as train --seed does
        config = tmp_path / "config_seed.json"
        config.write_text(json.dumps({**json.loads(tiny_config_file.read_text()), "seed": 7}))
        grid = ["--scenario", str(scenario_file), "--config", str(config), "--estimators", "pg", "--n-i", "3"]
        grid += ["--macros", "2", "--r-test", "4", "--window", "2"]
        assert cli.main(["compare", *grid, "--out", str(tmp_path / "default")]) == 0
        assert cli.main(["compare", *grid, "--seed", "7", "--out", str(tmp_path / "seed7")]) == 0
        for name in ("summary.csv", "curves/pg_3.csv", "manifest.json"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "seed7" / name).read_bytes()
        assert json.loads((tmp_path / "default" / "manifest.json").read_text())["seed"] == 7

    def test_unknown_estimator_rejected(self, tmp_path, scenario_file, capsys):
        code = cli.main(
            ["compare", "--scenario", str(scenario_file), "--out", str(tmp_path / "x"), "--estimators", "zzz"]
        )
        assert code == cli.EXIT_BAD_CONFIG
        assert not (tmp_path / "x").exists()
        assert str(ESTIMATOR_KINDS) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, repeat",
        [(["--estimators", "pg,pg"], "estimator 'pg'"), (["--n-i", "3,3"], "replication count 3")],
        ids=["estimators", "n-i"],
    )
    def test_repeated_grid_entry_rejected(self, tmp_path, scenario_file, capsys, grid, repeat):
        argv = ["compare", "--scenario", str(scenario_file), "--out", str(tmp_path / "x"), *grid]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert not (tmp_path / "x").exists()
        assert f"repeats the {repeat}" in capsys.readouterr().err


class TestOracleCheckCommand:
    def test_passes_and_prints(self, capsys):
        code = cli.main(["oracle-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out


class TestPosteriorDiagCommand:
    def test_writes_acceptance_csv(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = cli.main(["posterior-diag", "--out", str(out), "--draws", "5"])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "step,action,channel,n_obs,proposed,accept_rate,step_size"

    def test_reads_fraction_data(self, tmp_path):
        data = tmp_path / "fractions.csv"
        data.write_text("step,action,h_fraction,psi_fraction\n1,2,0.6,0.3\n1,2,0.7,0.2\n2,0,0.5,0.4\n")
        out = tmp_path / "diag.csv"
        assert cli.main(["posterior-diag", "--data", str(data), "--out", str(out), "--draws", "2"]) == 0
        n_obs = {tuple(r.split(",")[:3]): int(r.split(",")[3]) for r in out.read_text().splitlines()[1:]}
        assert n_obs[("1", "2", "eta")] == 2 and n_obs[("2", "0", "psi")] == 1
        assert sum(n_obs.values()) == 6

    def test_replays_a_training_run(self, tmp_path, scenario_file, tiny_config_file):
        run = tmp_path / "run"
        config = ["--scenario", str(scenario_file), "--config", str(tiny_config_file)]
        assert cli.main(["train", *config, "--out", str(run)]) == 0
        data = bioenv.read_fractions_csv(run / "fractions.csv")
        # the run's whole dataset, bit for bit: 3 trajectories x 2 steps before training and after its period
        history = train(default_scenario(), load_train_config(tiny_config_file))
        assert len(data) == 12
        for column in ("step", "action", "h", "psi"):
            np.testing.assert_array_equal(getattr(data, column), getattr(history.dataset, column))
        out = tmp_path / "diag.csv"
        argv = ["posterior-diag", "--data", str(run / "fractions.csv"), "--out", str(out), "--draws", "2"]
        assert cli.main(argv) == 0
        # the same posterior the run's data builds on the scenario's 3-step, 10-window grid,
        # drawn on posterior-diag's stream
        ps = bayes.make_posterior(data, n_steps=3, n_actions=10)
        bayes.mh_sample(ps, 2, 0, 0)
        bayes.write_acceptance_csv(ps, tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_replays_a_run_on_a_wider_scenario(self, tmp_path, tiny_config_file, capsys):
        # the default scenario widened to 12 pooling windows (two copies of the last one)
        scn = default_scenario()
        shapes = scn.true_model.beta_shapes
        wide = np.concatenate([shapes, shapes[:, -1:], shapes[:, -1:]], axis=1)
        scenario = tmp_path / "wide.json"
        save_scenario(dataclasses.replace(scn, true_model=ModelParams(wide)), scenario)
        run = tmp_path / "run"
        train_argv = ["train", "--scenario", str(scenario), "--config", str(tiny_config_file), "--out", str(run)]
        assert cli.main(train_argv) == 0
        # the run's data plus one observation in the widened grid's last window,
        # so the data reaches past the default 10 windows whatever the run's actions
        data = bioenv.read_fractions_csv(run / "fractions.csv").union(bioenv.FractionDataset([1], [11], [0.6], [0.3]))
        fractions = tmp_path / "fractions.csv"
        bioenv.write_fractions_csv(data, fractions)
        out = tmp_path / "diag.csv"
        argv = ["posterior-diag", "--data", str(fractions), "--out", str(out), "--draws", "2"]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG  # the default 10-window grid
        assert "outside 3 steps x 10 actions" in capsys.readouterr().err
        assert cli.main([*argv, "--scenario", str(scenario)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 * 12 * 2
        assert sum(int(r.split(",")[3]) for r in rows) == 2 * len(data)  # each observation feeds eta and psi
        assert len(data) == 13

    @pytest.mark.parametrize(
        "rows",
        [
            "step,action,h_fraction,psi_fraction\n1,12,0.6,0.3\n",  # action outside the 10 windows
            "step,action,h_fraction,psi_fraction\n1,2,1.5,0.3\n",  # fraction outside (0, 1)
            "step,action,h_fraction\n1,2,0.6\n",  # missing column
            "step,action,h_fraction,psi_fraction\n1,2,0.6\n",  # short row
            "step,action,h_fraction,psi_fraction\n1,2,0.6,0.3,0.9\n",  # long row
        ],
    )
    def test_bad_fraction_data_exits_4(self, tmp_path, rows):
        data = tmp_path / "fractions.csv"
        data.write_text(rows)
        code = cli.main(["posterior-diag", "--data", str(data), "--out", str(tmp_path / "diag.csv")])
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("5\n", "step"),  # no header at all, and no data rows
            ("step,action,h,psi\n", "h_fraction"),  # the dataset's column names, not the file's
            ("", "step"),  # an empty file
        ],
        ids=["number-only", "header-without-rows", "empty-file"],
    )
    def test_header_checked_without_data_rows(self, tmp_path, capsys, text, missing):
        data = tmp_path / "fractions.csv"
        data.write_text(text)
        out = tmp_path / "diag.csv"
        assert cli.main(["posterior-diag", "--data", str(data), "--out", str(out)]) == cli.EXIT_BAD_CONFIG
        assert f"no {missing!r} column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("draws", [bayes.MAX_MOVES // 5 + 1, 1_000_000_000])
    def test_draws_past_the_move_bound_exit_2(self, tmp_path, capsys, draws):
        # --draws times the default thin of 5 may be at most bayes.MAX_MOVES
        out = tmp_path / "diag.csv"
        assert cli.main(["posterior-diag", "--out", str(out), "--draws", str(draws)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--draws must be <= {bayes.MAX_MOVES // 5}" in err and f"got {draws}" in err
        assert "bayes.MAX_MOVES" in err
        assert not out.exists()


class TestNumericArguments:
    """Values that are invalid on their own are usage errors (exit 2) before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "0"],
            ["simulate", "--n", "many"],
            ["posterior-diag", "--draws", "0"],
            ["evaluate", "--checkpoint", "ckpt.json", "--r-test", "0"],
            ["compare", "--r-test", "0"],
            ["compare", "--macros", "1"],
            ["compare", "--n-i", "0"],
            ["compare", "--n-i", "x"],
            ["compare", "--n-i", "25,x"],
            ["compare", "--n-i", ","],
            ["simulate", "--seed", "-1"],
            ["evaluate", "--checkpoint", "ckpt.json", "--seed", "-1"],
            ["compare", "--seed", "-1"],
            ["posterior-diag", "--seed", "-3"],
            ["train", "--r-test", "0"],
            ["compare", "--threads", "0"],
            ["compare", "--threads", "-3"],
        ],
        ids=[
            "simulate-n-0",
            "simulate-n-word",
            "draws-0",
            "evaluate-r-test-0",
            "compare-r-test-0",
            "macros-1",
            "n-i-0",
            "n-i-x",
            "n-i-list-with-x",
            "n-i-empty-list",
            "simulate-seed-negative",
            "evaluate-seed-negative",
            "compare-seed-negative",
            "posterior-diag-seed-negative",
            "train-r-test-0",
            "compare-threads-0",
            "compare-threads-negative",
        ],
    )
    def test_usage_error(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)] if argv[0] != "evaluate" else argv)
        assert exc.value.code == cli.EXIT_USAGE
        assert argv[-2] in capsys.readouterr().err
        assert not out.exists()

    def test_replication_list_parsed(self):
        args = cli.build_parser().parse_args(["compare", "--out", "x", "--n-i", "3, 25,"])
        assert args.n_i == [3, 25]

    @pytest.mark.parametrize("window", ["1", "10"])
    def test_window_outside_curve_exits_4_before_training(
        self, tmp_path, scenario_file, tiny_config_file, window, monkeypatch, capsys
    ):
        from greensim_rl import harness

        def train(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness, "train", train)
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--out",
                str(out),
                "--estimators",
                "pg",
                "--n-i",
                "3",
                "--macros",
                "2",
                "--window",
                window,
                "--threads",
                "1",
            ]
        )
        assert code == cli.EXIT_BAD_CONFIG
        assert f"window {window}" in capsys.readouterr().err
        assert not out.exists()
