"""Command-line surface: dispatch, exit codes, atomic outputs."""

import json

import pytest

from greensim_rl import cli
from greensim_rl.bioenv import default_scenario, save_scenario
from greensim_rl.trainer import TrainingError


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
        "config", [{"hidden_dim": "8"}, {"thin": 0}, {"burn_in": -1}, {"burn_in": 2.5}]
    )
    def test_bad_sampler_and_integer_fields_exit_4(self, tmp_path, scenario_file, config, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = cli.main(["train", "--scenario", str(scenario_file), "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_BAD_CONFIG
        assert next(iter(config)) in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_4(self, tmp_path, scenario_file, tiny_config_file):
        code = cli.main(
            [
                "train",
                "--scenario",
                str(scenario_file),
                "--config",
                str(tiny_config_file),
                "--seed",
                "-1",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == cli.EXIT_BAD_CONFIG

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
        assert set(obj) == {"provenance", "steps"}


class TestTrainCommand:
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
        assert 0.0 < float(periods[1].split(",")[2]) < 1.0
        assert (out / "ckpt" / "iter_3" / "params.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["estimator"] == "pg"
        assert not list(tmp_path.glob("run.tmp*"))


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
        ],
    )
    def test_malformed_checkpoint_exits_4(self, tmp_path, scenario_file, content, capsys):
        path = tmp_path / "params.json"
        path.write_text(content)
        code = cli.main(["evaluate", "--scenario", str(scenario_file), "--checkpoint", str(path)])
        assert code == cli.EXIT_BAD_CONFIG
        assert "invalid checkpoint" in capsys.readouterr().err


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

    def test_unknown_estimator_rejected(self, tmp_path, scenario_file):
        code = cli.main(
            ["compare", "--scenario", str(scenario_file), "--out", str(tmp_path / "x"), "--estimators", "zzz"]
        )
        assert code == cli.EXIT_BAD_CONFIG
        assert not (tmp_path / "x").exists()


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

    @pytest.mark.parametrize(
        "rows",
        [
            "step,action,h_fraction,psi_fraction\n1,12,0.6,0.3\n",  # action outside the 10 windows
            "step,action,h_fraction,psi_fraction\n1,2,1.5,0.3\n",  # fraction outside (0, 1)
            "step,action,h_fraction\n1,2,0.6\n",  # missing column
            "step,action,h_fraction,psi_fraction\n1,2,0.6\n",  # short row
        ],
    )
    def test_bad_fraction_data_exits_4(self, tmp_path, rows):
        data = tmp_path / "fractions.csv"
        data.write_text(rows)
        code = cli.main(["posterior-diag", "--data", str(data), "--out", str(tmp_path / "diag.csv")])
        assert code == cli.EXIT_BAD_CONFIG
