import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import corefed
from corefed import config as config_module
from corefed import simulation
from corefed.cli import main, write_outputs
from corefed.config import (
    ExperimentConfig,
    IdxSource,
    SyntheticSource,
    config_from_dict,
    config_hash,
    dumps_config,
    parse_config,
)
from corefed.errors import ConfigError
from corefed.nn import ModelSpec

SMALL = {
    "rounds": 2,
    "clients": 4,
    "online_per_round": 2,
    "batch_size": 16,
    "seed": 5,
    "dataset": {"kind": "synthetic", "num_classes": 3, "input_dim": 6, "n": 200},
}
SMALL_MODEL = {"input_dim": 6, "hidden_dims": [4], "num_classes": 3}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestParseConfig:
    def test_empty_file_yields_full_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg == ExperimentConfig()
        assert cfg.gamma == 0.5 and cfg.k == 2.0 and cfg.beta == 0.5
        assert cfg.tau_c == 0.07 and cfg.eta0 == 0.1 and cfg.lr_decay == 0.999
        assert cfg.local_epochs == 1

    def test_beta_out_of_range_names_field(self, tmp_path):
        path = write_config(tmp_path, {"beta": 1.5})
        with pytest.raises(ConfigError, match=r"beta must lie in \[0,1\]"):
            parse_config(path)

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = write_config(tmp_path, {"betta": 0.5})
        with pytest.raises(ConfigError, match="betta"):
            parse_config(path)

    def test_unknown_nested_key_is_hard_error(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "synthetic", "size": 10}})
        with pytest.raises(ConfigError, match="size"):
            parse_config(path)

    @pytest.mark.parametrize("text, key", [
        ('{"rounds": 5, "rounds": 7}', "rounds"),
        ('{"dataset": {"n": 100, "n": 200}}', "n"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_hard_error(self, tmp_path, text, key):
        # json.loads alone would keep the last value and run with it
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        message = f"{re.escape(str(path))}: key '{key}' given more than once"
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "rounds": ,\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 2 column"):
            parse_config(path)

    def test_round_trip_identity(self, tmp_path):
        path = write_config(tmp_path, {**SMALL, "algorithm": "cofed", "online_per_round": 0.5,
                                       "model": {"input_dim": 6, "hidden_dims": [8, 4],
                                                 "num_classes": 3}})
        cfg = parse_config(path)
        echoed = tmp_path / "resolved.json"
        echoed.write_text(dumps_config(cfg), encoding="utf-8")
        assert parse_config(echoed) == cfg

    def test_idx_dataset_requires_paths(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "idx"}})
        with pytest.raises(ConfigError, match="images"):
            parse_config(path)
        cfg = config_from_dict({"dataset": {"kind": "idx", "images": "a", "labels": "b"}})
        assert cfg.dataset == IdxSource(images="a", labels="b")
        assert cfg.model.input_dim == 784 and cfg.model.num_classes == 10

    def test_fraction_and_count_online_forms(self):
        assert config_from_dict({"clients": 10, "online_per_round": 0.4}).resolved_online() == 4
        assert config_from_dict({"clients": 10, "online_per_round": 3}).resolved_online() == 3
        with pytest.raises(ConfigError, match="online_per_round"):
            config_from_dict({"clients": 4, "online_per_round": 9})

    def test_model_dataset_dimension_consistency(self):
        with pytest.raises(ConfigError, match="input_dim"):
            config_from_dict({"dataset": {"kind": "synthetic", "input_dim": 8},
                              "model": {"input_dim": 6, "hidden_dims": [4], "num_classes": 4}})

    def test_wrong_value_types_name_the_field(self):
        with pytest.raises(ConfigError, match="eta0"):
            config_from_dict({"eta0": "0.1"})
        with pytest.raises(ConfigError, match="dataset.n"):
            config_from_dict({"dataset": {"kind": "synthetic", "n": 2.5}})
        with pytest.raises(ConfigError, match="hidden_dims"):
            config_from_dict({"dataset": {"kind": "synthetic", "input_dim": 6},
                              "model": {"input_dim": 6, "hidden_dims": [4.5], "num_classes": 4}})

    def test_gamma_that_overflows_the_window_reward_is_rejected(self):
        # 10 clients, 4 online: tau <= 3, and 700 * ln 3 + ln 10 > ln(max float)
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"gamma": 700, "online_per_round": 0.4})
        # 600 * ln 3 + ln 10 = 661.5 stays below ln(max float) = 709.8
        assert config_from_dict({"gamma": 600, "online_per_round": 0.4}).gamma == 600
        # one client per round: tau <= 10, so the bound is 10^gamma * 10
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"gamma": 308, "online_per_round": 1})
        assert config_from_dict({"gamma": 307, "online_per_round": 1}).gamma == 307
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"gamma": 10**400, "online_per_round": 0.4})

    def test_k_that_underflows_the_alignment_reward_is_rejected(self):
        # exp(-k * rho) at rho = -1 overflows once k > ln(max float) = 709.78
        with pytest.raises(ConfigError, match="k must be at most"):
            config_from_dict({"k": 1000.0})
        assert config_from_dict({"k": 709.78}).k == 709.78

    def test_learning_rate_that_reaches_zero_is_rejected(self):
        # 0.1 * 0.001^108 and 0.1 * 0.5^1072 lie below the least subnormal
        # float, so rounds 109 and 1073 would train at rate 0
        for raw in ({"lr_decay": 0.001, "rounds": 120}, {"lr_decay": 0.5, "rounds": 1073}):
            with pytest.raises(ConfigError, match="reaches 0 before the last round"):
                config_from_dict(raw)
        assert config_from_dict({"lr_decay": 0.001, "rounds": 108}).rounds == 108
        assert config_from_dict({"lr_decay": 0.5, "rounds": 1072}).rounds == 1072
        assert config_from_dict({"lr_decay": 1e-300, "rounds": 0}).rounds == 0

    def test_tau_c_whose_contrastive_scores_overflow_is_rejected(self):
        # scores cos/tau_c (|cos| <= 1) and their differences stay finite
        # only for tau_c >= 2 / max float = 1.1e-308
        with pytest.raises(ConfigError, match="tau_c must be at least"):
            config_from_dict({"tau_c": 1e-310})
        assert config_from_dict({"tau_c": 2e-308}).tau_c == 2e-308

    _DATASET_SIZES_POSITIVE = "dataset.num_classes, dataset.input_dim and dataset.n must be positive"
    # a valid model of its own, so that the dataset rule, not the model's, rejects a 0
    _MODEL = {"input_dim": 32, "hidden_dims": [8], "num_classes": 4}
    _HIDDEN_DIMS_NON_EMPTY = "model.hidden_dims must be a non-empty list of positive widths"

    @pytest.mark.parametrize("raw, message", [
        ({"tau_c": 0.0}, "tau_c must be positive"),
        ({"beta": -0.1}, r"beta must lie in \[0,1\]"),
        ({"eta0": 0}, "eta0 must be positive"),
        ({"lr_decay": 0.0}, r"lr_decay must lie in \(0, 1\]"),
        ({"gamma": -0.5}, "gamma must be non-negative"),
        ({"k": -1.0}, "k must be non-negative"),
        ({"batch_size": 0}, "batch_size must be a positive integer"),
        ({"online_per_round": 0}, r"online_per_round must lie in \[1, clients\]"),
        ({"test_fraction": 0.0}, "test_fraction must lie strictly between 0 and 1"),
        ({"test_fraction": 1.0}, "test_fraction must lie strictly between 0 and 1"),
        ({"dirichlet_alpha": 0}, "dirichlet_alpha must be positive"),
        ({"dataset": {"n": 0}}, _DATASET_SIZES_POSITIVE),
        ({"dataset": {"num_classes": 0}, "model": _MODEL}, _DATASET_SIZES_POSITIVE),
        ({"dataset": {"input_dim": 0}, "model": _MODEL}, _DATASET_SIZES_POSITIVE),
        # no model: the dataset is checked before the default model is derived from it
        ({"dataset": {"num_classes": 0}}, _DATASET_SIZES_POSITIVE),
        ({"dataset": {"input_dim": 0}}, _DATASET_SIZES_POSITIVE),
        ({"dataset": {"input_dim": "x"}}, "dataset.input_dim must be an integer"),
        ({"model": {**_MODEL, "hidden_dims": []}}, _HIDDEN_DIMS_NON_EMPTY),
        ({"model": {**_MODEL, "activation": "tanh"}}, "unsupported model.activation 'tanh'"),
        ({"model": {**_MODEL, "hidden_dims": [3.5]}},
         "model.hidden_dims must be a positive integer"),
        ({"model": {**_MODEL, "input_dim": "4"}}, "model.input_dim must be a positive integer"),
        ({"model": {**_MODEL, "hidden_dims": [8, True]}},
         "model.hidden_dims must be a positive integer"),
        # built in Python, not parsed: ModelSpec itself checks nothing
        (lambda: ExperimentConfig(model=ModelSpec(0, (3,), 2)),
         "model.input_dim must be a positive integer"),
        (lambda: ExperimentConfig(model=ModelSpec(np.int64(32), (np.int64(8),), np.int64(4))),
         "model.input_dim must be a positive integer"),
        (lambda: ExperimentConfig(model=ModelSpec(32, [8], 4)), _HIDDEN_DIMS_NON_EMPTY),
        ({"dataset": {"kind": "idx", "images": "a", "labels": ""}},
         "dataset.labels must be a non-empty path string"),
        # a Path would build, then fail to serialize in dumps_config
        (lambda: ExperimentConfig(dataset=IdxSource(Path("a"), Path("b"))),
         "dataset.images must be a non-empty path string"),
        (lambda: ExperimentConfig(dataset={"kind": "synthetic"}),
         "dataset must be a SyntheticSource or an IdxSource"),
    ], ids=["tau_c", "beta", "eta0", "lr_decay", "gamma", "k", "batch_size", "online_per_round",
            "test_fraction_0", "test_fraction_1", "dirichlet_alpha", "dataset_n",
            "dataset_num_classes", "dataset_input_dim", "dataset_num_classes_default_model",
            "dataset_input_dim_default_model", "dataset_input_dim_type_default_model",
            "model_hidden_empty", "model_activation", "model_width_float", "model_input_str",
            "model_width_bool", "py_model_zero", "py_model_numpy", "py_model_list",
            "idx_labels_empty", "py_idx_paths", "py_dataset_dict"])
    def test_value_the_round_pipeline_trusts_is_rejected(self, raw, message):
        # nn, embedding, aggregation and data take these values without a check of their own
        with pytest.raises(ConfigError, match=message):
            raw() if callable(raw) else config_from_dict(raw)

    def test_more_clients_than_samples_is_rejected(self, tmp_path):
        path = write_config(tmp_path, {"clients": 3000, "dataset": {"n": 2000}})
        with pytest.raises(ConfigError, match=r"clients \(3000\) must be at most dataset.n"):
            parse_config(path)
        assert config_from_dict({"clients": 2000, "dataset": {"n": 2000}}).clients == 2000

    def test_non_finite_reals_are_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"eta0": Infinity, "rounds": 2}', encoding="utf-8")
        with pytest.raises(ConfigError, match="eta0 must be finite"):
            parse_config(path)
        for name in ("eta0", "lr_decay", "gamma", "k", "beta", "tau_c", "dirichlet_alpha",
                     "test_fraction"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigError, match=f"{name} must be finite"):
                    config_from_dict({name: value})

    def test_booleans_are_not_integers(self):
        for name in ("rounds", "clients", "local_epochs", "batch_size", "seed",
                     "checkpoint_interval"):
            with pytest.raises(ConfigError, match=f"{name} must be a"):
                config_from_dict({name: True})

    def test_malformed_algorithm_and_hidden_dims_are_config_errors(self):
        with pytest.raises(ConfigError, match="algorithm must be one of"):
            config_from_dict({"algorithm": ["x"]})
        with pytest.raises(ConfigError, match="hidden_dims"):
            config_from_dict({"model": {"input_dim": 32, "hidden_dims": 5, "num_classes": 4}})

    @pytest.mark.parametrize("raw, message", [
        ({"dataset": {"kind": "idx", "images": "a"}}, "missing required key(s): dataset.labels"),
        *(({**SMALL, "model": {k: v for k, v in SMALL_MODEL.items() if k != key}},
           f"missing required key(s): model.{key}") for key in SMALL_MODEL),
        ({"dataset": {"kind": []}}, "dataset.kind must be 'synthetic' or 'idx', got []"),
        ({"dataset": {"kind": "csv"}}, "dataset.kind must be 'synthetic' or 'idx', got 'csv'"),
        ({"dataset": {"kind": None}}, "dataset.kind must be 'synthetic' or 'idx', got None"),
        ({"dataset": ["synthetic"]}, "dataset must be an object"),
        ({"model": [6, [4], 3]}, "model must be an object"),
        ({"model": None}, "model must be an object"),
        ({"dataset": {"kind": "idx", "images": "a", "labels": "b", "n": 3}},
         "unknown dataset key(s): n"),
        ({"model": {**SMALL_MODEL, "depth": 2}}, "unknown model key(s): depth"),
        ({1: 2}, "unknown config key(s): 1"),
    ], ids=["idx-labels", "model-input_dim", "model-hidden_dims", "model-num_classes",
            "kind-list", "kind-unknown", "kind-null", "dataset-list", "model-list", "model-null",
            "dataset-key", "model-key", "key-not-a-string"])
    def test_malformed_object_is_a_config_error_naming_the_key(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            config_from_dict(raw)

    def test_hash_is_stable_content_hash(self):
        a = config_from_dict(dict(SMALL))
        b = config_from_dict(dict(SMALL))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(config_from_dict({**SMALL, "seed": 6}))


class TestConfigBoundary:
    # The numerical layers trust validated config values; a rule that names
    # ConfigError there is a config rule living outside config.py.
    TRUSTING = ("nn.py", "embedding.py", "aggregation.py", "metrics.py", "data.py",
                "checkpoint.py", "rng.py")

    @pytest.mark.parametrize("module", TRUSTING)
    def test_numerical_layer_does_not_name_config_error(self, module):
        tree = ast.parse((Path(corefed.__file__).parent / module).read_text(encoding="utf-8"))
        named = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Name) and node.id == "ConfigError")
                 or (isinstance(node, ast.Attribute) and node.attr == "ConfigError")
                 or (isinstance(node, ast.ImportFrom)
                     and any(alias.name == "ConfigError" for alias in node.names))]
        assert named == [], f"{module} names ConfigError on line(s) {named}"


class TestCmdRun:
    def test_smoke_run_writes_all_outputs(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--run-id", "smoke"]) == 0
        run_dir = out / "smoke"
        rounds = (run_dir / "rounds.csv").read_text().splitlines()
        assert rounds[0] == ("round,mean_accuracy,d_cosine_mean,d_manhattan_mean,"
                             "learning_rate,num_online,mean_contrastive_loss")
        assert len(rounds) == 2
        assert (run_dir / "per_client_accuracy.csv").exists()
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "config.json").exists()

    def test_existing_run_id_refused_without_overwrite(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        args = ["run", "--config", str(config), "--out", str(out), "--run-id", "dup"]
        assert main(args) == 0
        assert main(args) == 1
        assert main(args + ["--overwrite"]) == 0

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--algorithms", "fedavg"]])
    @pytest.mark.parametrize("run_id", ["../victim", "<absolute victim>", "", ".", "..", "a/b"])
    def test_run_id_must_be_one_plain_directory_name(self, tmp_path, capsys, command, run_id):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        victim = tmp_path / "victim"
        victim.mkdir()
        (victim / "keep.txt").write_text("kept", encoding="utf-8")
        out = tmp_path / "out"
        run_id = str(victim) if run_id == "<absolute victim>" else run_id
        code = main([*command, "--config", str(config), "--out", str(out),
                     "--run-id", run_id, "--overwrite"])
        assert code == 1
        assert "--run-id must be one plain directory name" in capsys.readouterr().err
        assert (victim / "keep.txt").read_text(encoding="utf-8") == "kept"
        assert not out.exists()

    def test_learning_rate_is_formatted_by_column_not_by_type(self, tmp_path):
        # An integer eta0 with lr_decay 1 makes the rate an int: rounds.csv
        # still prints it as a float column, summary.json keeps the int.
        config = write_config(tmp_path, {"algorithm": "fedavg", "rounds": 1, "local_epochs": 0,
                                         "eta0": 100000000000000000, "lr_decay": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--run-id", "r"]) == 0
        header, row = (out / "r" / "rounds.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["learning_rate"] == "1e+17"
        summary = (out / "r" / "summary.json").read_text()
        assert '"learning_rate": 100000000000000000,' in summary

    def test_summary_final_matches_last_csv_row(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "r"])
        run_dir = out / "r"
        last = (run_dir / "rounds.csv").read_text().splitlines()[-1].split(",")
        summary = json.loads((run_dir / "summary.json").read_text())
        final = summary["final"]
        assert int(last[0]) == final["round"]
        assert float(last[1]) == final["mean_accuracy"]
        assert float(last[2]) == final["d_cosine_mean"]
        assert float(last[3]) == final["d_manhattan_mean"]
        assert float(last[4]) == final["learning_rate"]
        assert int(last[5]) == final["num_online"]
        assert float(last[6]) == final["mean_contrastive_loss"]

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "r"])
        rows = (out / "r" / "rounds.csv").read_text().splitlines()[1:]
        for row in rows:
            for field in row.split(",")[1:5]:
                assert format(float(field), ".17g") == field

    def test_resolved_config_is_reusable(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "r"])
        cfg = parse_config(out / "r" / "config.json")
        assert cfg == parse_config(config)

    def test_checkpoint_interval_produces_round_dirs(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "checkpoint_interval": 1})
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "ck"])
        assert (out / "ck" / "round_2" / "global.bin").exists()

    def test_per_client_rows_ascend_by_id_whatever_the_shard_order(self, tmp_path):
        cfg = config_from_dict({**SMALL, "clients": 6, "rounds": 3})
        shards = simulation.build_shards(cfg)[::-1]
        reports = simulation.run_simulation(cfg, shards=shards).reports
        tested = sorted(s.client_id for s in shards if len(s.test))
        assert reports[0].client_ids == tuple(tested)
        write_outputs(tmp_path, cfg, "r", reports)
        rows = (tmp_path / "per_client_accuracy.csv").read_text().splitlines()[1:]
        got = [(int(t), int(cid), float(a)) for t, cid, a in (row.split(",") for row in rows)]
        want = [(r.round, cid, dict(zip(r.client_ids, r.accuracies))[cid])
                for r in reports for cid in tested]
        assert got == want


class TestCmdSweep:
    def test_sweep_writes_comparison_in_declared_order(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--algorithms", "corefed,cofed,refed", "--run-id", "sw"])
        assert code == 0
        lines = (out / "sw" / "comparison.csv").read_text().splitlines()
        assert lines[0] == "algorithm,accuracy,d_cosine,d_manhattan"
        assert [line.split(",")[0] for line in lines[1:]] == ["corefed", "cofed", "refed"]
        for algorithm in ("corefed", "cofed", "refed"):
            assert (out / "sw" / algorithm / "rounds.csv").exists()

    def test_sweep_of_one_matches_cmd_run(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "single"])
        main(["sweep", "--config", str(config), "--out", str(out),
              "--algorithms", "corefed", "--run-id", "sw1"])
        direct = (out / "single" / "rounds.csv").read_text()
        swept = (out / "sw1" / "corefed" / "rounds.csv").read_text()
        assert direct == swept

    def test_sweep_reruns_are_stable(self, tmp_path):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        args = ["sweep", "--config", str(config), "--out", str(out),
                "--algorithms", "fedavg,corefed", "--run-id", "sw"]
        main(args)
        first = (out / "sw" / "comparison.csv").read_text()
        main(args + ["--overwrite"])
        assert (out / "sw" / "comparison.csv").read_text() == first

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--algorithms", "corefed,qfedavg"])
        assert code == 1
        assert "algorithm must be one of corefed, cofed, refed, fedavg" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_builds_the_data_once(self, tmp_path, monkeypatch):
        built = []
        gen_synthetic = simulation.gen_synthetic

        def counted(*args, **kwargs):
            built.append(args)
            return gen_synthetic(*args, **kwargs)

        monkeypatch.setattr(simulation, "gen_synthetic", counted)
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--algorithms", "corefed,cofed,refed,fedavg"]) == 0
        assert len(built) == 1

    def test_repeated_algorithm_rejected_before_any_run(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--algorithms", "corefed,fedavg,corefed"])
        assert code == 1
        assert "more than once: corefed" in capsys.readouterr().err
        assert not out.exists()


def run_module(*args):
    """``python -m corefed *args`` in a subprocess that imports this checkout, without a seed override."""
    env = {name: value for name, value in os.environ.items() if name != "COREFED_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(corefed.__file__).parent.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-m", "corefed", *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestValidateAndEnv:
    def test_validate_echoes_resolved_config(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["gamma"] == 0.5
        assert echoed["dataset"]["kind"] == "synthetic"

    def test_module_entry_point_validates_an_empty_config(self, tmp_path):
        # `python -m corefed` is how every cold benchmark run starts.
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        done = run_module("validate", "--config", str(path))
        assert done.returncode == 0, done.stderr
        assert done.stdout == dumps_config(ExperimentConfig())

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rounds": 2, "x": "\xff"}')
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 20")):
            parse_config(path)

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"beta": -1})
        assert main(["validate", "--config", str(path)]) == 1
        assert "beta" in capsys.readouterr().err

    def test_validate_rejects_overflowing_gamma(self, tmp_path, capsys):
        path = write_config(tmp_path, {"gamma": 700, "online_per_round": 0.4})
        assert main(["validate", "--config", str(path)]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_validate_rejects_overflowing_k(self, tmp_path, capsys):
        path = write_config(tmp_path, {"k": 1000.0})
        assert main(["validate", "--config", str(path)]) == 1
        assert "k must be at most" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"eta0": Infinity, "rounds": 2}',
        '{"clients": true}',
        '{"algorithm": ["x"]}',
        '{"model": {"input_dim": 32, "hidden_dims": 5, "num_classes": 4}}',
        '{"lr_decay": 0.001, "rounds": 120}',
        '{"tau_c": 1e-310}',
        '{"clients": 3000, "dataset": {"n": 2000}}',
        # null and 5 are not paths; they must not reach `run` as "None" and "5"
        '{"dataset": {"kind": "idx", "images": null, "labels": 5}}',
    ])
    def test_validate_rejects_malformed_values(self, tmp_path, capsys, text):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_seed_env_var_overrides_config(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {**SMALL, "seed": 5})
        monkeypatch.setenv("COREFED_SEED", "123")
        from corefed.cli import load_config
        assert load_config(path).seed == 123
        monkeypatch.setenv("COREFED_SEED", "not-an-int")
        with pytest.raises(ConfigError, match="COREFED_SEED"):
            load_config(path)

    def test_env_override_changes_run_output(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, {**SMALL, "rounds": 1})
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "a"])
        monkeypatch.setenv("COREFED_SEED", "99")
        main(["run", "--config", str(config), "--out", str(out), "--run-id", "b"])
        assert ((out / "a" / "rounds.csv").read_text()
                != (out / "b" / "rounds.csv").read_text())
        assert json.loads((out / "b" / "config.json").read_text())["seed"] == 99


class TestSyntheticDefaults:
    def test_default_config_runs(self):
        cfg = ExperimentConfig(rounds=1, dataset=SyntheticSource(num_classes=2, input_dim=4, n=80),
                               clients=2, online_per_round=2, batch_size=8)
        from corefed.simulation import run_simulation
        assert len(run_simulation(cfg).reports) == 1


def write_idx_config(tmp_path, n, clients, input_dim=16, num_classes=3):
    """A small image/label pair in the binary IDX layout (16 dims, 3 classes)
    and a config that reads it with the given model widths."""
    import struct

    import numpy as np

    from corefed.data import IDX1_MAGIC, IDX3_MAGIC, gen_synthetic

    ds = gen_synthetic(3, 16, n, seed=4)
    pixels = (ds.inputs * 255).astype(np.uint8).tobytes()
    (tmp_path / "imgs.idx3").write_bytes(struct.pack(">IIII", IDX3_MAGIC, n, 4, 4) + pixels)
    (tmp_path / "labs.idx1").write_bytes(struct.pack(">II", IDX1_MAGIC, n)
                                         + ds.labels.astype(np.uint8).tobytes())
    return write_config(tmp_path, {
        "rounds": 2, "clients": clients, "online_per_round": 2, "batch_size": 16, "seed": 2,
        "dataset": {"kind": "idx", "images": str(tmp_path / "imgs.idx3"),
                    "labels": str(tmp_path / "labs.idx1")},
        "model": {"input_dim": input_dim, "hidden_dims": [8, 8], "num_classes": num_classes},
    })


class TestIdxEndToEnd:
    def test_run_from_idx_files(self, tmp_path):
        # drive a full 2-round experiment from IDX files through the CLI
        config = write_idx_config(tmp_path, n=240, clients=3)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--run-id", "idx"]) == 0
        rows = (out / "idx" / "rounds.csv").read_text().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--algorithms", "fedavg"]])
    def test_failed_run_leaves_no_directory_and_reruns_the_same(self, tmp_path, capsys, command):
        config = write_idx_config(tmp_path, n=6, clients=7)
        out = tmp_path / "out"
        args = [*command, "--config", str(config), "--out", str(out), "--run-id", "x"]
        for _ in range(2):
            assert main(args) == 1
            assert "clients (7) must be at most the 6 loaded" in capsys.readouterr().err
            assert not (out / "x").exists()

    def test_image_file_cut_short_stops_the_command_line_run(self, tmp_path):
        # cli.main turns every error into one stderr line; a short file is a FormatError
        config = write_idx_config(tmp_path, n=24, clients=2)
        images, out = tmp_path / "imgs.idx3", tmp_path / "out"
        images.write_bytes(images.read_bytes()[:-5])
        done = run_module("run", "--config", str(config), "--out", str(out), "--run-id", "x")
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"error: {images}: truncated while reading pixel data (wanted 384 bytes, 379 left)"]
        assert not any(out.iterdir())

    def test_refused_run_keeps_the_existing_directory(self, tmp_path):
        config = write_idx_config(tmp_path, n=6, clients=7)
        (tmp_path / "out" / "x").mkdir(parents=True)
        (tmp_path / "out" / "x" / "keep.txt").write_text("mine")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--run-id", "x"]) == 1
        assert (tmp_path / "out" / "x" / "keep.txt").read_text() == "mine"

    def test_more_clients_than_loaded_samples_is_rejected(self, tmp_path):
        from corefed.simulation import build_shards

        cfg = parse_config(write_idx_config(tmp_path, n=6, clients=7))
        with pytest.raises(ConfigError, match=r"clients \(7\) must be at most the 6 loaded"):
            build_shards(cfg)

    def test_model_input_dim_unlike_the_loaded_dimension_is_rejected(self, tmp_path):
        from corefed.simulation import build_shards

        cfg = parse_config(write_idx_config(tmp_path, n=24, clients=2, input_dim=15))
        with pytest.raises(ConfigError, match=r"^model\.input_dim 15 does not match loaded data "
                                              r"dimension 16$"):
            build_shards(cfg)

    def test_model_with_fewer_classes_than_the_loaded_labels_is_rejected(self, tmp_path):
        from corefed.simulation import build_shards

        cfg = parse_config(write_idx_config(tmp_path, n=24, clients=2, num_classes=2))
        with pytest.raises(ConfigError, match=r"^model\.num_classes 2 is too small for loaded "
                                              r"labels \(3 classes\)$"):
            build_shards(cfg)

    def test_model_with_more_classes_than_the_loaded_labels_runs(self, tmp_path):
        config = write_idx_config(tmp_path, n=24, clients=2, num_classes=5)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--algorithms", "fedavg,corefed"]])
    def test_failed_overwrite_keeps_the_previous_run(self, tmp_path, command):
        config = write_idx_config(tmp_path, n=24, clients=2)
        out = tmp_path / "out"
        args = [*command, "--config", str(config), "--out", str(out), "--run-id", "x"]
        assert main(args) == 0
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        (tmp_path / "imgs.idx3").unlink()
        assert main(args + ["--overwrite"]) == 1
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == ["x"]


class TestDeadLastLayerRun:
    def test_run_exits_1_and_leaves_no_run_directory(self, tmp_path, capsys):
        # the desk setting at eta0 = 50 kills every hidden relu by round 2
        config = write_config(tmp_path, {
            "algorithm": "corefed", "rounds": 3, "clients": 10, "online_per_round": 0.4,
            "batch_size": 50, "dirichlet_alpha": 0.5, "eta0": 50, "seed": 1,
            "dataset": {"kind": "synthetic", "num_classes": 4, "input_dim": 32, "n": 2000}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "error: round 2: client 2: all" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the CLI does not raise them
    def test_fedavg_run_whose_model_overflows_exits_1(self, tmp_path, capsys):
        # fedavg runs no embedding pass; the finite check after aggregation
        # stops the run instead of writing nan d_cos rows and NaN summary tokens
        config = write_config(tmp_path, {
            "algorithm": "fedavg", "rounds": 3, "clients": 10, "online_per_round": 0.4,
            "batch_size": 50, "dirichlet_alpha": 0.5, "eta0": 1e300, "seed": 1,
            "dataset": {"kind": "synthetic", "num_classes": 4, "input_dim": 32, "n": 2000}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "error: round 1: client 2: local model is not finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_fedavg_run_whose_model_dies_exits_1(self, tmp_path, capsys):
        # fedavg runs no embedding pass; scoring the new global model finds
        # no test row with a positive last hidden activation from round 2 on
        config = write_config(tmp_path, {
            "algorithm": "fedavg", "rounds": 3, "clients": 10, "online_per_round": 0.4,
            "batch_size": 50, "dirichlet_alpha": 0.5, "eta0": 50, "seed": 1,
            "dataset": {"kind": "synthetic", "num_classes": 4, "input_dim": 32, "n": 2000}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert ("error: round 2: global model: last hidden layer is dead on all 400 test rows"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []


# sha256 of each algorithm's output files for GOLDEN_CONFIG. Recorded before
# the algorithms became two switches over one round pipeline; every byte
# stayed the same. The fedavg/refed ledger checkpoints are left out because
# they no longer carry a gradient or similarity cache.
GOLDEN_CONFIG = {**SMALL, "rounds": 5, "checkpoint_interval": 5}
GOLDEN_SHA256 = {
    "corefed": {
        "rounds.csv": "4cae1f8b77f41f1ebf0b088edd05aea967f7479df53fe0139c595a48e9678589",
        "per_client_accuracy.csv": "afa5864034c5ecc1ab8708b414c5eaa5031ea62af62896f11e922d8b6e82f856",
        "summary.json": "56ba67e3161b4069df68035e451a3a65c19a562855616475585d4f3b1bc80a17",
        "config.json": "fc78f0be116a00e5059ff08cf7d98f4ecbd46cf05f5c88a394aa66a2c24cf813",
        "round_5/global.bin": "fe84ab021a81acc9d58dcccec041ab50f51f92c9163179548ccc9b8a31f7a562",
        "round_5/ledger.json": "2aac6a55c7521389768e3ee0bcd4698cd5dd070a2562be8c6f3053162fb55081",
        "round_5/gradients.bin": "9c279682ed8672f1f755e1dcf93ef1a06ed29c000ba5acb6eb47cf09c7826b28",
    },
    "cofed": {
        "rounds.csv": "4dcb18d7d8564b5f7c76e984b30d35e5250b4660b08a4e9b6d59a1393337155e",
        "per_client_accuracy.csv": "afa5864034c5ecc1ab8708b414c5eaa5031ea62af62896f11e922d8b6e82f856",
        "summary.json": "a34bdcf5694938c6ea82990715dd65019261ac0245de55f0ce5e3ac14a7772ea",
        "config.json": "d52c440774d3de3531032614e3f2590975d52142b836bb2527100c8fc33d4d65",
        "round_5/global.bin": "1a0123ae1416fc69a3c98c629b45a66115d5c8dce53c14addfeb91b3c838ec51",
        "round_5/ledger.json": "56acb0c32ac1ef0ed27d3aae166180aff291591c3196a52ae26ab99bf4cba72d",
        "round_5/gradients.bin": "aacce01c63eb7b7231b09100616c390c0b131799e4790955230e7e11f13acdae",
    },
    "refed": {
        "rounds.csv": "2a9a6b1fd3e8a06cea3cb5f3babac57cfa572351b57907f4d393f279fb4258f3",
        "per_client_accuracy.csv": "661c65c60b15debf92977fda40c865ada5dbe1f6c6b3afca02239ef63cd12051",
        "summary.json": "0be140ed3fab77bb5c7173f42cfd0aea2369ee23dcf771fde571d07f4097dfbb",
        "config.json": "747f875ce2f48e43d06f363743851311ff92600c3aefae83853cd2b1d5ef4051",
        "round_5/global.bin": "fb4ef17d13f893fe940beb90c9711c53f1beab876fd59ede08a85caf23f9adfe",
    },
    "fedavg": {
        "rounds.csv": "b89803df5ecf13e6b6b8a726e1bebcc6a3a00180332d459966335d047a6616c9",
        "per_client_accuracy.csv": "661c65c60b15debf92977fda40c865ada5dbe1f6c6b3afca02239ef63cd12051",
        "summary.json": "1c22c697ff4912e6965b5b421ba609d8b82148d0df3e0cf9140bc672b8104a99",
        "config.json": "0f9f538956c32cc39940703ca3d4eb0c60a99305887fa073d9cb921d5141398a",
        "round_5/global.bin": "fb4ef17d13f893fe940beb90c9711c53f1beab876fd59ede08a85caf23f9adfe",
    },
}


# sha256 of the ledger checkpoints GOLDEN_SHA256 leaves out. refed and fedavg
# cache no gradient, so their ledger.json has an empty "last_similarity" and
# "gradient_cache" and their gradients.bin is empty. Recorded before
# ledger.json was written without the json module; every byte stayed the same.
EMPTY_CACHE_SHA256 = {
    f"{algorithm}/round_5/{name}": digest
    for algorithm in ("refed", "fedavg")
    for name, digest in (
        ("ledger.json", "a7a2bcc422899d2aaccb56cc71cb6a56492442ba98cb19c0753e3e37af6da330"),
        ("gradients.bin", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    )
}


class TestEmptyCacheBytes:
    def test_ledger_checkpoints_without_a_cache_are_pinned(self, tmp_path, byte_scope):
        config = write_config(tmp_path, GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--run-id", "golden",
                     "--algorithms", "refed,fedavg"]) == 0
        for name, digest in EMPTY_CACHE_SHA256.items():
            data = (out / "golden" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{name}: {byte_scope}"


# `corefed run` of GOLDEN_CONFIG with no --run-id: the directory name is the
# config hash, and every file except summary.json (which names the run) is
# the corefed sweep member's.
GOLDEN_RUN_DIR = "run-2b9485235826"
GOLDEN_RUN_SHA256 = {
    **GOLDEN_SHA256["corefed"],
    "summary.json": "e00e2b46e736bd979af3354a614c8b56999daee85c8799b23954d004ec43c49b",
}


class TestGoldenBytes:
    def test_run_outputs_are_pinned(self, tmp_path, byte_scope):
        config = write_config(tmp_path, GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [GOLDEN_RUN_DIR]
        for name, digest in GOLDEN_RUN_SHA256.items():
            data = (out / GOLDEN_RUN_DIR / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{name}: {byte_scope}"

    def test_sweep_outputs_are_pinned(self, tmp_path, byte_scope):
        config = write_config(tmp_path, GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--run-id", "golden",
                     "--algorithms", "corefed,cofed,refed,fedavg"]) == 0
        for algorithm, files in GOLDEN_SHA256.items():
            for name, digest in files.items():
                data = (out / "golden" / algorithm / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, \
                    f"{algorithm}/{name}: {byte_scope}"

        def ledger(algorithm):
            path = out / "golden" / algorithm / "round_5" / "ledger.json"
            return json.loads(path.read_text(encoding="utf-8"))

        fair = ledger("corefed")
        assert fair["gradient_cache"] and fair["last_similarity"]
        for algorithm in ("refed", "fedavg"):
            plain = ledger(algorithm)
            assert plain["history"] == fair["history"]
            assert plain["last_participation"] == fair["last_participation"]
            assert plain["gradient_cache"] == [] and plain["last_similarity"] == {}
            assert (out / "golden" / algorithm / "round_5" / "gradients.bin").read_bytes() == b""


@dataclass(frozen=True)
class GrownModel(ModelSpec):
    dropout: float = 0.0


@dataclass(frozen=True)
class GrownConfig(ExperimentConfig):
    mu: float = 0.0


class TestAddedFields:
    """A field added to the schema is left out of config.json while it holds its default."""

    GOLDEN_MODEL = {"input_dim": 6, "hidden_dims": [64, 64], "num_classes": 3}

    @pytest.fixture
    def grown(self, monkeypatch):
        """The schema with one throwaway field added at the top level and one in ``model``."""
        monkeypatch.setattr(config_module, "_ADDED_FIELDS",
                            config_module._ADDED_FIELDS | {"mu", "model.dropout"})
        monkeypatch.setattr(config_module, "ExperimentConfig", GrownConfig)
        monkeypatch.setitem(config_module._OBJECTS, "model", GrownModel)

    @pytest.mark.parametrize("model", [None, GOLDEN_MODEL], ids=["model-derived", "model-given"])
    def test_default_values_keep_the_golden_config_bytes(self, grown, model):
        cfg = config_from_dict({**GOLDEN_CONFIG, **({"model": model} if model else {})})
        assert isinstance(cfg, GrownConfig) and cfg.mu == 0.0
        assert isinstance(cfg.model, GrownModel) == bool(model)
        text = dumps_config(cfg).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == GOLDEN_SHA256["corefed"]["config.json"]
        assert f"run-{config_hash(cfg)[:12]}" == GOLDEN_RUN_DIR

    @pytest.mark.parametrize("added, where, key, value", [
        ({"mu": 0.25}, None, "mu", 0.25),
        ({"model": {**GOLDEN_MODEL, "dropout": 0.5}}, "model", "dropout", 0.5),
    ], ids=["top-level", "nested"])
    def test_other_values_round_trip_and_change_the_hash(self, grown, added, where, key, value):
        default = config_from_dict({**GOLDEN_CONFIG, "model": self.GOLDEN_MODEL})
        cfg = config_from_dict({**GOLDEN_CONFIG, "model": self.GOLDEN_MODEL, **added})
        written = json.loads(dumps_config(cfg))
        assert (written[where] if where else written)[key] == value
        assert config_from_dict(written) == cfg
        assert config_hash(cfg) != config_hash(default)
