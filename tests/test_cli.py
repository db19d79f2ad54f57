"""Unit tests for config parsing and the command-line harness."""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dualmargin.cli import (
    ABLATION_GRIDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    verification_rows,
)
from dualmargin import cli, config
from dualmargin.config import (
    ConfigError,
    ExperimentConfig,
    assemble,
    parse_config,
    parse_config_text,
    valid_keys,
)
from dualmargin.core import NumericalError
from dualmargin.experiment import build_dataset, run_id_for
from dualmargin.synthdata import SPLIT_NAMES, SyntheticSpec, generate, open_set_partition, split

FAST_CONFIG = """
# Small, fast experiment for harness tests.
data.classes = 4
data.dim = 6
data.head_count = 60
data.imbalance_ratio = 10
data.cluster_spread = 0.25
train.epochs = 2
train.batch_size = 16
train.oversample_size = 4
train.hidden_dims = 16
train.embed_dim = 8
partition.head_threshold = 40
partition.tail_threshold = 10
"""

WORKLOADS = sorted((pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "workloads")
                   .glob("*.ini"))


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.train.margin.s == 32.0
        assert cfg.train.margin.m == 0.15
        assert cfg.train.margin.lam == 5.0
        assert cfg.train.margin.beta == 0.9
        assert cfg.train.batch_size == 32
        assert cfg.train.oversample_size == 8
        assert cfg.train.oversample_prob == 0.1

    def test_single_override(self):
        cfg = parse_config_text("margin.m = 0.20")
        assert cfg.train.margin.m == 0.20
        assert cfg.train.margin.s == 32.0

    def test_typed_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*margin\.m"):
            parse_config_text("\nmargin.m = banana")

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("margin.q = 1")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words")

    def test_section_headers_and_comments_tolerated(self):
        cfg = parse_config_text("[margin]\n# comment\nmargin.s = 16\n")
        assert cfg.train.margin.s == 16.0

    def test_partition_thresholds_shared_with_trainer(self):
        cfg = parse_config_text(
            "partition.head_threshold = 500\npartition.tail_threshold = 50"
        )
        assert cfg.train.head_threshold == 500
        assert cfg.train.tail_threshold == 50

    def test_run_id_pinned(self):
        # The run id hashes the flat config; moving a key's field must not
        # change it.
        assert run_id_for(ExperimentConfig()) == "0c6080e1b6c6"
        cfg = parse_config_text(
            "partition.head_threshold = 500\npartition.tail_threshold = 50")
        assert run_id_for(cfg) == "4fd53c88db3b"

    def test_flat_dict_roundtrip(self):
        # ``with_seed`` and every ablation variant are built as
        # assemble({**cfg.to_flat_dict(), **overrides}), tuple and choice
        # keys included; that must give back the config and its overrides.
        assert len(WORKLOADS) == 3
        for path in WORKLOADS:
            cfg = parse_config(str(path))
            flat = cfg.to_flat_dict()
            assert assemble(flat) == cfg, path.name
            for variants in ABLATION_GRIDS.values():
                for overrides in variants.values():
                    variant = assemble({**flat, **overrides})
                    assert variant.to_flat_dict() == {**flat, **overrides}, (path.name, overrides)
                    assert assemble(variant.to_flat_dict()) == variant

    def test_valid_keys_cover_registry(self):
        keys = valid_keys()
        assert len(keys) == 35
        assert "margin.lambda" in keys
        assert "data.classes" in keys
        assert "eval.target_tpr" in keys

    def test_rejected_value_names_its_key(self):
        # Every int and float key, with values out of most keys' range,
        # through config assembly and dataset generation: a rejection names
        # the key that was set.
        for key, (caster, *_) in config._REGISTRY.items():
            values = {int: ("0", "-1", "1"), float: ("0", "-1", "1.5", "1e5")}.get(caster, ())
            for value in values:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # split's small-class warning
                        build_dataset(parse_config_text(f"{key} = {value}\n"))
                except ConfigError as exc:
                    assert key in str(exc), (key, value, str(exc))

    def test_non_finite_float_is_rejected_naming_its_key(self):
        float_keys = [key for key, (caster, *_) in config._REGISTRY.items() if caster is float]
        assert len(float_keys) == 18
        for key in float_keys:
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite"):
                    parse_config_text(f"{key} = {value}\n")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            assemble({"margin.m": 2.0})

    def test_default_config_assembles(self):
        cfg = assemble({})
        assert cfg == ExperimentConfig()
        assert (cfg.data.train_frac, cfg.data.val_frac, cfg.data.test_frac) == (0.8, 0.1, 0.1)


class TestCliCommands:
    def _write_config(self, tmp_path, text=FAST_CONFIG):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    def test_generate(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "gen")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "dataset.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_train_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma lazily, which costs every train process
        # about 7 ms; nothing that train or evaluate does needs it.
        cfg = self._write_config(tmp_path, FAST_CONFIG.replace("train.epochs = 2",
                                                               "train.epochs = 1"))
        out = str(tmp_path / "run")
        code = ("import sys\n"
                "import numpy\n"
                "with_numpy = 'numpy.ma' in sys.modules\n"
                "from dualmargin.cli import main\n"
                f"code = main(['train', '--config', {cfg!r}, '--out', {out!r}])\n"
                "print(with_numpy, code, 'numpy.ma' in sys.modules)\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        with_numpy, code, after_train = result.stdout.splitlines()[-1].split()
        if with_numpy == "True":
            pytest.skip("this NumPy imports numpy.ma together with numpy")
        assert code == str(EXIT_OK)
        assert after_train == "False"

    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_blas_threads_default_to_one_before_numpy_loads(self, user_value):
        # The count NumPy's import sees is the one BLAS keeps; a user's wins.
        code = ("import os, sys\n"
                "seen = []\n"
                "class Hook:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name == 'numpy' and not seen:\n"
                "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                "sys.meta_path.insert(0, Hook())\n"
                "import dualmargin.cli\n"
                "print(seen[0], os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if user_value:
            env["OPENBLAS_NUM_THREADS"] = user_value
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [user_value or "1", "1", "1"]

    def test_train_writes_artifacts(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["checkpoint.json", "history.jsonl",
                                           "manifest.json", "metrics.csv",
                                           "metrics.json", "plans.jsonl"]
        header = pathlib.Path(out, "metrics.csv").read_text().splitlines()[0]
        assert header == ("run_id,mode,seed,rank1,macro_recall,macro_precision,"
                          "macro_f1,recall_head,recall_between,recall_tail,tpr,tnr,acc")

    def test_artifact_key_order(self, tmp_path):
        # The dataclass fields are the artifacts' schema: reordering a field
        # reorders these keys.
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK

        def load(name):
            with open(os.path.join(out, name)) as fh:
                return json.load(fh)

        assert list(load("metrics.json")) == [
            "rank1", "per_class_recall", "per_class_precision", "per_class_f1",
            "macro_recall", "macro_precision", "macro_f1", "group_recall", "group_sizes",
            "open_set"]
        checkpoint = load("checkpoint.json")
        assert list(checkpoint) == ["encoder", "prototypes", "gamma", "epoch", "step",
                                    "best_val_recall", "class_stats"]
        assert checkpoint["encoder"]["activation"] == "tanh"
        assert list(checkpoint["encoder"]) == ["activation", "weights", "biases"]
        assert list(checkpoint["class_stats"]) == [
            "counts", "priors", "effective_numbers", "effective_priors", "deltas",
            "num_classes"]
        assert list(load("dataset.json")["spec"]) == [
            "num_classes", "dim", "imbalance_ratio", "head_count",
            "cluster_spread", "unknown_class_count", "seed", "min_angle",
            "train_frac", "val_frac", "test_frac"]

    def test_dataset_json_reproduces_the_split(self, tmp_path):
        # The sidecar's spec alone gives back the csv's split column and the
        # unknown pool, fractions and held-out classes included.
        cfg = self._write_config(tmp_path, (
            "data.classes = 5\ndata.dim = 6\ndata.head_count = 200\n"
            "data.imbalance_ratio = 10\ndata.unknown_classes = 2\ndata.seed = 3\n"
            "data.train_frac = 0.6\ndata.val_frac = 0.25\ndata.test_frac = 0.15\n"))
        out = tmp_path / "gen"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "dataset.json").read_text())
        with open(out / "dataset.csv", newline="") as fh:
            column = [row["split"] for row in csv.DictReader(fh)]
        ds = open_set_partition(split(generate(SyntheticSpec(**sidecar["spec"]))))
        assert column == [SPLIT_NAMES[int(sp)] for sp in ds.split]
        assert sidecar["known_mask"] == ds.known_mask.tolist()
        assert {"val", "unknown"} <= set(column)
        assert sidecar["spec"]["val_frac"] == 0.25

    def test_metrics_json_counts_classes_per_group(self, tmp_path):
        # No class has more than 100 training samples, so the head group is
        # empty: its recall is NaN and its size 0.
        cfg = self._write_config(tmp_path, FAST_CONFIG.replace(
            "partition.head_threshold = 40", "partition.head_threshold = 100"))
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "metrics.json")) as fh:
            report = json.load(fh)
        sizes = report["group_sizes"]
        assert sizes["head"] == 0 and np.isnan(report["group_recall"]["head"])
        assert sizes["between"] > 0 and sizes["tail"] > 0
        assert sum(sizes.values()) == np.count_nonzero(~np.isnan(report["per_class_recall"]))

    @pytest.mark.parametrize("key", ["train.optimizer", "train.gamma_shares_schedule",
                                     "margin.use_effective_priors", "data.decay",
                                     "eval.score", "margin.epsilon"])
    def test_deleted_key_is_unknown(self, tmp_path, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CONFIG + f"{key} = sgd\n")
        out = tmp_path / "err"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        payload = json.loads((out / "error.json").read_text())
        assert f"unknown key {key!r}" in payload["error"]
        assert not (out / "history.jsonl").exists()

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["train", "--config", cfg, "--out", out_a])
        main(["train", "--config", cfg, "--out", out_b])
        bytes_a = pathlib.Path(out_a, "metrics.csv").read_bytes()
        bytes_b = pathlib.Path(out_b, "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_seed_override_changes_run(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["train", "--config", cfg, "--out", out_a, "--seed", "1"])
        main(["train", "--config", cfg, "--out", out_b, "--seed", "2"])
        row_a = pathlib.Path(out_a, "metrics.csv").read_text().splitlines()[1]
        row_b = pathlib.Path(out_b, "metrics.csv").read_text().splitlines()[1]
        assert row_a != row_b

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("margin.m = banana\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_CONFIG
        assert os.listdir(out) == ["error.json"]
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_CONFIG
        stderr = capsys.readouterr().err
        assert json.loads(stderr.strip())["exit_code"] == EXIT_CONFIG

    @pytest.mark.parametrize("line, message", [
        ("train.batch_size = 0", "batch_size must be >= 1, got 0"),
        ("train.embed_dim = 0", "embed_dim must be >= 1, got 0"),
        ("train.hidden_dims = 16, 0", "hidden_dims entries must be >= 1, got (16, 0)"),
        ("train.oversample_size = -2", "oversample_size must be >= 0, got -2"),
        ("train.oversample_prob = 1.5", "oversample_prob must be in [0, 1], got 1.5"),
        ("train.perturb_prob = -1", "perturb_prob must be in [0, 1], got -1.0"),
        ("eval.target_tpr = 1.5", "target_tpr must be in (0, 1], got 1.5"),
        ("eval.target_tpr = 0", "target_tpr must be in (0, 1], got 0.0"),
        ("train.lr_decay_factor = -1", "lr_decay_factor must be > 0, got -1.0"),
        ("train.lr_decay_factor = 0", "lr_decay_factor must be > 0, got 0.0"),
        ("train.weight_decay = -1", "weight_decay must be >= 0, got -1.0"),
        ("data.min_angle = -1", "min_angle must be >= 0, got -1.0"),
        ("data.classes = 1", "classes must be >= 2, got 1"),
        ("data.dim = 1", "dim must be >= 2, got 1"),
        ("data.imbalance_ratio = 0.5", "imbalance_ratio must be >= 1, got 0.5"),
        ("data.cluster_spread = 0", "cluster_spread must be > 0, got 0.0"),
        ("data.test_frac = 0", "test_frac must be > 0, got 0.0"),
        # Training gets every row validation and test leave, so a sum
        # other than 1 is rejected, not silently changed.
        ("data.train_frac = 0.5", "train_frac + data.val_frac + data.test_frac must be 1, "
                                  "got 0.7"),
        ("data.unknown_classes = 3", "unknown_classes = 3 leaves 1 of data.classes = 4 "
                                     "known; training needs at least 2 known classes"),
        ("margin.mode = x", "mode must be one of ('dual_margin', 'am_softmax', 'ce'), got 'x'"),
        ("margin.eq5_sign = x", "eq5_sign must be one of ('literal', 'magnitude'), got 'x'"),
        ("train.selection = x", "selection must be one of ('norm_guided', 'random'), got 'x'"),
    ])
    def test_unusable_setting_is_config_error(self, tmp_path, line, message):
        # Every command checks the config before it runs anything: exit 2,
        # and error.json is the only file written.
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CONFIG + line + "\n")
        # The message is the full key, its section then its name, and what
        # is wrong with the value.
        section = line.split(".", 1)[0]
        for command in ("train", "verify", "generate"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(bad), "--out", out]) == EXIT_CONFIG
            assert os.listdir(out) == ["error.json"]
            payload = json.loads(pathlib.Path(out, "error.json").read_text())
            assert payload["exit_code"] == EXIT_CONFIG
            assert payload["error"] == f"{section}.{message}", command

    @pytest.mark.parametrize("lines, keys", [
        ("partition.head_threshold = 50\npartition.tail_threshold = 100",
         ("partition.tail_threshold", "partition.head_threshold")),
        ("train.perturb_strength = -0.5\ntrain.oversample_prob = 1.0",
         ("perturb_strength",)),
        ("margin.s = nan", ("margin.s",)),
        ("train.batch_size = 1000", ("train.batch_size",)),
        ("data.train_frac = -1", ("data.train_frac",)),
        ("data.val_frac = 0.95", ("data.train_frac", "data.val_frac", "data.test_frac")),
        ("data.classes = 40\ndata.head_count = 1\ndata.imbalance_ratio = 1\ntrain.epochs = 1",
         ("data.head_count", "data.test_frac")),
        ("data.classes = 2\ndata.unknown_classes = 1\ntrain.epochs = 1",
         ("data.unknown_classes", "data.classes")),
        ("data.unknown_classes = -1\ntrain.epochs = 1", ("data.unknown_classes",)),
        ("train.lr_decay_epochs = -1\ntrain.epochs = 1", ("train.lr_decay_epochs",)),
        ("data.head_count = -5\ntrain.epochs = 1", ("data.head_count",)),
        ("data.seed = -1\ntrain.epochs = 1", ("data.seed",)),
        ("train.seed = -1\ntrain.epochs = 1", ("train.seed",)),
    ], ids=["crossed_thresholds", "negative_perturb_strength", "non_finite_float",
            "batch_above_training_split", "non_positive_fraction", "fractions_above_one",
            "empty_test_split", "one_known_class", "negative_unknown_classes",
            "negative_lr_decay_epoch", "negative_head_count", "negative_data_seed",
            "negative_train_seed"])
    def test_bad_setting_stops_before_training(self, tmp_path, lines, keys):
        # Config validation, not a failure inside train(), must reject
        # these: exit 2, and nothing of a training run written.
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CONFIG + lines + "\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_CONFIG
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_CONFIG
        for key in keys:
            assert key in payload["error"]
        assert not os.path.exists(os.path.join(out, "history.jsonl"))
        assert not os.path.exists(os.path.join(out, "plans.jsonl"))
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    def test_negative_seed_override_is_config_error(self, tmp_path):
        out = str(tmp_path / "err")
        assert main(["verify", "--seed", "-1", "--out", out]) == EXIT_CONFIG
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["error"] == "data.seed must be >= 0, got -1"
        assert os.listdir(out) == ["error.json"]

    def test_infeasible_dataset_is_config_error(self, tmp_path):
        bad = tmp_path / "angle.ini"
        bad.write_text("data.min_angle = 80\ndata.dim = 2\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_CONFIG
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_CONFIG
        assert "cannot place" in payload["error"]

    def test_non_finite_generated_data_is_config_error(self, tmp_path):
        bad = tmp_path / "spread.ini"
        bad.write_text("data.cluster_spread = 1e308\n")
        for command in ("generate", "train"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(bad), "--out", out]) == EXIT_CONFIG
            assert os.listdir(out) == ["error.json"]
            payload = json.loads(pathlib.Path(out, "error.json").read_text())
            assert payload["error"].startswith("data.cluster_spread = 1e+308"), command

    def test_small_open_set_validation_split_is_config_error(self, tmp_path):
        # 15 known validation samples cannot calibrate the open-set
        # threshold; the run must stop before training, not after it.
        bad = tmp_path / "small_val.ini"
        bad.write_text("data.head_count = 30\ndata.unknown_classes = 1\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_CONFIG
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_CONFIG
        assert "data.val_frac" in payload["error"]
        assert "data.head_count" in payload["error"]
        assert not os.path.exists(os.path.join(out, "history.jsonl"))

    def test_divergence_writes_snapshot(self, tmp_path):
        bad = tmp_path / "diverge.ini"
        bad.write_text("margin.lambda = 1e9\ntrain.epochs = 1\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_NUMERICAL
        # The run stopped inside training: no model, no metrics.
        assert sorted(os.listdir(out)) == ["error.json", "history.jsonl", "plans.jsonl"]
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_NUMERICAL
        assert set(payload["snapshot"]) == {"epoch", "step", "loss", "lr", "gamma"}
        assert payload["snapshot"]["step"] == 0

    def test_huge_finite_scale_diverges_at_step_zero(self, tmp_path):
        # No static bound on s would also cover margin.lambda = 1e300 or
        # train.base_lr = 1e300, so a huge finite setting is validated by
        # the divergence check at step 0: exit 3, with its snapshot.
        bad = tmp_path / "huge_s.ini"
        bad.write_text(FAST_CONFIG + "margin.s = 1e200\n")
        out = str(tmp_path / "err")
        assert main(["train", "--config", str(bad), "--out", out]) == EXIT_NUMERICAL
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert payload["exit_code"] == EXIT_NUMERICAL
        assert (payload["snapshot"]["epoch"], payload["snapshot"]["step"]) == (0, 0)
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    def test_inf_gamma_gradient_snapshot_names_gamma(self, tmp_path, monkeypatch):
        import dualmargin.trainer

        margin_loss = dualmargin.trainer.margin_loss

        def inf_gamma_grad(*args, **kwargs):
            out = margin_loss(*args, **kwargs)
            out.grad_gamma = float("inf")
            return out

        monkeypatch.setattr(dualmargin.trainer, "margin_loss", inf_gamma_grad)
        out = str(tmp_path / "err")
        cfg = self._write_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
        payload = json.loads(pathlib.Path(out, "error.json").read_text())
        assert "parameter 'gamma' at epoch 0 step 0" in payload["error"]
        assert payload["snapshot"] == {"param": "gamma", "epoch": 0, "step": 0,
                                       "lr": 0.001, "gamma": 0.0}

    def test_late_failure_keeps_trained_model(self, tmp_path, monkeypatch):
        import dualmargin.experiment

        def failing_evaluation(*args):
            raise NumericalError("evaluation failed")

        monkeypatch.setattr(dualmargin.experiment, "evaluate_state", failing_evaluation)
        out = str(tmp_path / "late")
        cfg = self._write_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
        with open(os.path.join(out, "checkpoint.json")) as fh:
            payload = json.load(fh)
        assert payload["epoch"] == 2
        assert sorted(os.listdir(out)) == ["checkpoint.json", "error.json", "history.jsonl",
                                           "manifest.json", "plans.jsonl"]

    def test_plain_value_error_is_not_numerical(self, tmp_path, monkeypatch):
        # Only a NumericalError means exit 3. Any other ValueError is a bug:
        # it propagates, and no error.json reports it as numerical.
        import dualmargin.experiment

        def buggy_evaluation(*args):
            raise ValueError("a bug")

        monkeypatch.setattr(dualmargin.experiment, "evaluate_state", buggy_evaluation)
        out = str(tmp_path / "bug")
        cfg = self._write_config(tmp_path)
        with pytest.raises(ValueError, match="a bug"):
            main(["train", "--config", cfg, "--out", out])
        assert sorted(os.listdir(out)) == ["checkpoint.json", "history.jsonl",
                                           "manifest.json", "plans.jsonl"]

    def test_missing_config_file(self, tmp_path):
        out = str(tmp_path / "err")
        code = main(["train", "--config", str(tmp_path / "nope.ini"), "--out", out])
        assert code == EXIT_CONFIG

    def test_verify_passes_on_defaults(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["manifest.json", "verify.csv"]
        lines = pathlib.Path(out, "verify.csv").read_text().splitlines()
        assert lines[0] == "check,statistic,value,threshold,passed"
        checks = {line.split(",")[0] for line in lines[1:]}
        assert checks == {"gradcheck", "prototype_alignment", "deviation_bound"}
        assert all(line.endswith("True") for line in lines[1:])
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 3

    def test_failed_verification_exits_4(self, tmp_path, monkeypatch, capsys):
        # A broken oracle (every numeric gradient zero) fails the gradient
        # check; the report is still written, and nothing reports an error.
        monkeypatch.setattr(cli, "central_difference",
                            lambda f, x, h, stacked: np.zeros_like(x))
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out]) == EXIT_VERIFY
        assert sorted(os.listdir(out)) == ["manifest.json", "verify.csv"]
        lines = pathlib.Path(out, "verify.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["False", "True", "True"]
        assert capsys.readouterr().out.count("-> FAIL") == 1

    def test_ablate_seeds_writes_rows(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "ablate")
        assert main(["ablate", "seeds", "--config", cfg, "--out", out]) == EXIT_OK
        lines = pathlib.Path(out, "ablate.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 seeds
        assert lines[0] == ("variant,run_id,mode,seed,rank1,macro_recall,macro_precision,"
                            "macro_f1,recall_head,recall_between,recall_tail,tpr,tnr,acc")
        variants = [line.split(",")[0] for line in lines[1:]]
        assert variants == ["seed=0", "seed=1", "seed=42", "seed=2025"]

    def test_ablate_configs_covers_presets(self, tmp_path):
        import csv

        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "ablate_cfg")
        assert main(["ablate", "configs", "--config", cfg, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "ablate.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        variants = {row[0] for row in rows[1:]}
        assert variants == {"A,C", "B,C", "B,D", "B,E", "B,E,F"}


class TestVerificationRows:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, *range(100, 110)])
    def test_full_rows_pass_across_seeds(self, seed):
        rows = verification_rows(seed=seed)
        assert [row[0] for row in rows] == ["gradcheck", "prototype_alignment", "deviation_bound"]
        assert all(row[4] for row in rows), rows
