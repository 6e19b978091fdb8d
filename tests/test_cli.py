"""CLI behavior: parameter accounting, runs, analysis, exit codes, determinism."""

import argparse
import csv
import json

import numpy as np
import pytest

from golden_tables import DOMAINS, matrix_rows
from mole.allocation import parse_alloc_spec
from mole.analysis import AccuracyMatrix
from mole.checkpoint import load, save
from mole.cli import CONTINUAL_DEFAULTS, TRAIN_DEFAULTS, build_parser, main
from mole.model import AdaptedModel, ToyTransformerConfig
from mole.tensor import Rng


def run_cli(*argv):
    return main(list(argv))


class TestParams:
    def test_reference_dims_inverted(self, capsys):
        assert run_cli("params", "--dims", "llama2-7b", "--alloc", "inverted:2468") == 0
        out = capsys.readouterr().out
        assert "trainable_params 105635840" in out
        assert "total_experts 160" in out

    def test_reference_dims_rectangle(self, capsys):
        assert run_cli("params", "--dims", "llama2-7b", "--alloc", "rect:5555") == 0
        assert "trainable_params 105635840" in capsys.readouterr().out

    def test_toy_counts_matches_summation_oracle(self, capsys):
        # oracle: explicit summation over the toy preset's seven matrices
        slope = sum(8 * (i + o) + i for i, o in
                    [(64, 64)] * 4 + [(64, 172), (64, 172), (172, 64)])
        assert run_cli("params", "--dims", "toy-default",
                       "--alloc", "counts=1,1,3,3", "--k", "1") == 0
        out = capsys.readouterr().out
        assert f"trainable_params {slope * 8}" in out

    def test_bad_alloc_is_usage_error(self, capsys):
        assert run_cli("params", "--dims", "llama2-7b", "--alloc", "blob:9") == 1
        # fewer experts than the top-K in a layer: mole train refuses this plan too
        capsys.readouterr()
        assert run_cli("params", "--dims", "toy-default", "--alloc", "counts=1,1,3,3",
                       "--k", "5") == 1
        captured = capsys.readouterr()
        assert "layer 0: expert count 1 < top-K 5" in captured.err
        assert captured.out == ""

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_dims_file(self, tmp_path, capsys):
        plan = ("--alloc", "counts=1,1,3,3", "--k", "1")
        assert run_cli("params", "--dims", "toy-default", *plan) == 0
        preset = capsys.readouterr().out
        dims = tmp_path / "dims.cfg"
        dims.write_text("num_layers = 4\nd-model = 64\nd_ffn = 172\nrank = 8\n")
        assert run_cli("params", "--dims", str(dims), *plan) == 0
        assert capsys.readouterr().out == preset
        dims.write_text("num_layers = 4\nd_model = 64\nrank = 8\n")
        assert run_cli("params", "--dims", str(dims), *plan) == 1
        assert "missing key 'd_ffn'" in capsys.readouterr().err


def train_args(tmp_path, **over):
    args = {"dataset": "modular_add", "data_size": "49", "alloc": "counts=2,2,2,2",
            "k": "1", "steps": "30", "batch-size": "16", "seed": "11",
            "out": str(tmp_path / "runs"), "metrics-every": "10"}
    args.update(over)
    argv = ["train"]
    for key, value in args.items():
        if value is not None:       # None leaves the flag out
            argv += [f"--{key.replace('_', '-')}", value]
    return argv


def jsonl_args(tmp_path, data, **over):
    """`train_args` on the JSONL file `data`, which takes no data_size."""
    return train_args(tmp_path, data_size=None, dataset=f"jsonl:{data}", **over)


class TestTrain:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        assert run_cli(*train_args(tmp_path)) == 0
        out = capsys.readouterr().out
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "config.json").exists()
        assert "train_accuracy" in out

    def test_metric_log_deterministic(self, tmp_path):
        assert run_cli(*train_args(tmp_path, out=str(tmp_path / "a"))) == 0
        assert run_cli(*train_args(tmp_path, out=str(tmp_path / "b"))) == 0
        a = next((tmp_path / "a").iterdir()) / "metrics.csv"
        b = next((tmp_path / "b").iterdir()) / "metrics.csv"
        assert a.read_bytes() == b.read_bytes()
        ckpt_a = next((tmp_path / "a").iterdir()) / "model.ckpt"
        ckpt_b = next((tmp_path / "b").iterdir()) / "model.ckpt"
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    def test_two_slot_dropout_runs_are_byte_identical(self, tmp_path):
        # K=2 with up to four times more experts than K in a layer: every
        # step trains each token's two dropout slots as rows of one product
        args = dict(dataset="copy", data_size="40", alloc="inverted:2468", k="2", steps="4",
                    metrics_every="1", seed="1")
        for out in ("a", "b"):
            assert run_cli(*train_args(tmp_path, out=str(tmp_path / out), **args)) == 0
        for name in ("metrics.csv", "model.ckpt"):
            a, b = (next((tmp_path / out).iterdir()) / name for out in ("a", "b"))
            assert a.read_bytes() == b.read_bytes(), name

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        assert run_cli(*train_args(tmp_path, steps="0")) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        restored = load(run_dir / "model.ckpt")
        fresh = AdaptedModel.build(restored.config)
        for name, p in fresh.named_parameters().items():
            assert p.data.tobytes() == restored.named_parameters()[name].data.tobytes(), name

    def test_zero_epochs_same_contract(self, tmp_path):
        assert run_cli(*train_args(tmp_path, epochs="0")) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert load(run_dir / "model.ckpt").step == 0

    def test_diverged_run_keeps_logged_metrics(self, tmp_path, monkeypatch, capsys):
        # a run that diverges at step 30 still leaves its step-25 row on disk
        import mole.model
        from mole.model import TrainingDiverged

        step = mole.model.train_step

        def diverge_at_30(model, *args, **kwargs):
            if model.step == 29:
                raise TrainingDiverged("injected divergence at step 30")
            return step(model, *args, **kwargs)

        monkeypatch.setattr(mole.model, "train_step", diverge_at_30)
        assert run_cli(*train_args(tmp_path, steps="40", **{"metrics-every": "25"})) == 2
        assert "injected divergence" in capsys.readouterr().err
        run_dir = next((tmp_path / "runs").iterdir())
        rows = list(csv.DictReader((run_dir / "metrics.csv").open()))
        assert [row["step"] for row in rows] == ["25"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [("batch_size", "0"), ("metrics_every", "0"),
                                            ("cutoff_len", "0"), ("cutoff_len", "-2"),
                                            ("cutoff_len", "65"),
                                            ("steps", "-3"), ("epochs", "-1"),
                                            ("lr_decay", "2"), ("lr_decay", "-0.5"),
                                            ("lr", "-1"), ("weight_decay", "-1"),
                                            ("lambda_aux", "-1"), ("dropout", "1.5"),
                                            ("dropout", "-0.1"), ("alpha", "0"),
                                            ("num_heads", "0"), ("num_heads", "-1"),
                                            ("vocab_size", "0"), ("max_seq_len", "0"),
                                            ("vocab_size", "48"), ("lr", "nan"),
                                            ("weight_decay", "inf"), ("alpha", "inf"),
                                            ("alpha", "nan"), ("lambda_aux", "inf"),
                                            ("dropout", "nan"), ("target_acc", "nan"),
                                            ("target_acc", "1.5"), ("target_acc", "-0.1")])
    def test_non_positive_run_lengths_rejected(self, tmp_path, capsys, source, key, value):
        # out-of-range run lengths, lr_decay outside [0, 1], negative learning
        # settings, model sizes below 1, a vocabulary that misses a dataset
        # token (modular_add uses ids 43 to 61), adapter settings the model
        # rejects, nan or infinite settings, which pass every range check, and
        # a target accuracy outside [0, 1] all fail before the run directory
        # exists, from a flag or a config file
        flag = "--" + key.replace("_", "-")
        argv = train_args(tmp_path)
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_seed_mandatory(self, tmp_path, capsys):
        argv = [a for a in train_args(tmp_path)]
        i = argv.index("--seed")
        del argv[i:i + 2]
        assert run_cli(*argv) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset = modular_add\ndata_size = 49\nsteps = 5\n"
                       "k = 1\nseed = 3\nbatch_size = 8\n")
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "runs")) == 0

    def test_config_file_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\ndataset = modular_add  # the task\n   \n"
                       "data_size = 49\nsteps = 0\nseed = 3\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "runs")) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        resolved = json.loads((run_dir / "config.json").read_text())
        assert (resolved["dataset"], resolved["data_size"], resolved["seed"]) == \
            ("modular_add", 49, 3)

    def test_unusable_config_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nsteps 5\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "runs")) == 1
        assert "line 2: expected key = value" in capsys.readouterr().err
        assert run_cli("train", "--config", str(tmp_path / "absent.cfg"),
                       "--out", str(tmp_path / "runs")) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unusable_dataset_rejected(self, tmp_path, capsys):
        assert run_cli(*train_args(tmp_path, dataset="sorting")) == 1
        assert "unknown dataset spec 'sorting'" in capsys.readouterr().err
        assert run_cli(*jsonl_args(tmp_path, tmp_path / "absent.jsonl")) == 1
        assert "cannot read dataset" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_out_mandatory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = train_args(tmp_path, steps="0")
        i = argv.index("--out")
        del argv[i:i + 2]
        assert run_cli(*argv) == 1
        assert "output directory is mandatory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # a removed key (router_mode) must fail loudly, not be silently ignored
        for key, value in (("flux_capacitor", "1"), ("router_mode", "subset")):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {value}\nseed = 3\n")
            assert run_cli("train", "--config", str(cfg),
                           "--out", str(tmp_path / "runs")) == 1
            assert key in capsys.readouterr().err

    def test_model_config_defaults_come_from_the_dataclass(self, tmp_path):
        # no model flags: every model field must keep its ToyTransformerConfig default
        assert run_cli("train", "--dataset", "modular_add", "--data-size", "49",
                       "--alloc", "counts=1,1,3,3", "--k", "1", "--steps", "0",
                       "--seed", "11", "--out", str(tmp_path / "runs")) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        layers = ToyTransformerConfig(seed=0).num_layers
        allocation = parse_alloc_spec("counts=1,1,3,3", layers, k=1)
        assert load(run_dir / "model.ckpt").config == ToyTransformerConfig(
            allocation=allocation, seed=11)

    def test_default_allocation_follows_the_layer_count(self, tmp_path):
        # no --alloc: two experts in every layer at the default K, whatever the layer count
        for layers in ("4", "8"):
            out = tmp_path / layers
            assert run_cli("train", "--num-layers", layers, "--steps", "1", "--data-size", "20",
                           "--seed", "1", "--out", str(out)) == 0
            run_dir = next(out.iterdir())
            config = json.loads((run_dir / "config.json").read_text())
            assert (config["alloc"], config["k"]) == ("counts=" + ",".join(["2"] * int(layers)), 2)
            assert load(run_dir / "model.ckpt").config.allocation.counts == (2,) * int(layers)

    def test_every_settings_key_has_a_flag(self):
        # exactly one flag per key the command reads, plus --seed, --out and
        # --config: a key no command reads has no flag to hide behind
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command, defaults in (("train", TRAIN_DEFAULTS), ("continual", CONTINUAL_DEFAULTS)):
            flags = [flag for action in commands[command]._actions
                     for flag in action.option_strings if flag not in ("-h", "--help")]
            assert sorted(flags) == sorted(f"--{key.replace('_', '-')}" for key in
                                           [*defaults, "seed", "out", "config"]), command

    def test_model_keys_settable_by_flag(self, tmp_path):
        assert run_cli(*train_args(tmp_path, steps="0", precision="f32", **{
            "num-heads": "2", "vocab-size": "128", "max-seq-len": "16"})) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        config = load(run_dir / "model.ckpt").config
        assert (config.precision, config.num_heads, config.vocab_size,
                config.max_seq_len) == ("f32", 2, 128, 16)
        # the default cutoff (64) shrinks to the shorter max_seq_len
        assert json.loads((run_dir / "config.json").read_text())["cutoff_len"] == 16

    def test_bad_config_values_rejected(self, tmp_path, capsys):
        # values outside a key's type or choices fail like the same bad flag would
        for line in ("eval_split = bogus", "identical_domains = maybe", "steps = many",
                     "precision = f16"):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(line + "\n")
            assert run_cli("continual", "--config", str(cfg), "--domains", "2",
                           "--domain-size", "20", "--steps", "2", "--seed", "1",
                           "--out", str(tmp_path / "out")) == 1, line
            assert line.split()[0] in capsys.readouterr().err, line
        assert not (tmp_path / "out").exists()

    def test_jsonl_dataset(self, tmp_path):
        data = tmp_path / "data.jsonl"
        lines = [json.dumps({"prompt": f"{c}x=", "label": c, "choices": ["a", "b"]})
                 for c in "ab" * 4]
        data.write_text("\n".join(lines) + "\n")
        assert run_cli(*jsonl_args(tmp_path, data, steps="3")) == 0
        # prompts of two lengths: each step groups its batch by length
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(json.dumps({"prompt": p, "label": p[0]}) + "\n"
                                 for p in ("ab=", "abcd=", "b=", "bcde=")))
        for out in ("a", "b"):
            assert run_cli(*jsonl_args(tmp_path, mixed, steps="3",
                                       seed="1", out=str(tmp_path / out))) == 0
        for name in ("metrics.csv", "model.ckpt"):
            a, b = (next((tmp_path / out).iterdir()) / name for out in ("a", "b"))
            assert a.read_bytes() == b.read_bytes(), name

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jsonl_dataset_refuses_a_data_size(self, tmp_path, capsys, source):
        # the file is the data: a size would change only the run directory's name
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"prompt": "ax=", "label": "a"}) + "\n")
        argv = jsonl_args(tmp_path, data, steps="1")
        if source == "flag":
            argv += ["--data-size", "5000"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("data_size = 5000\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert "data_size" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("dataset, count", [("modular_add", 49), ("parity", 256)])
    def test_data_size_above_the_distinct_examples(self, tmp_path, capsys, dataset, count):
        # a given size above the task's distinct examples is refused before
        # the run directory exists; the default shrinks to the count
        assert run_cli(*train_args(tmp_path, dataset=dataset, data_size=str(count + 1),
                                   steps="0")) == 1
        assert f"data_size {count + 1}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert run_cli(*train_args(tmp_path, dataset=dataset, data_size=None, steps="0")) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert json.loads((run_dir / "config.json").read_text())["data_size"] == min(count, 200)

    def test_jsonl_lines_evaluated_once_per_logged_row(self, tmp_path, monkeypatch):
        # a JSONL file is both splits: each row evaluates it once and logs
        # that accuracy for both
        import mole.model

        calls = []
        evaluate = mole.model.evaluate

        def counted(model, examples):
            calls.append(len(examples))
            return evaluate(model, examples)

        monkeypatch.setattr(mole.model, "evaluate", counted)
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"prompt": f"{c}x=", "label": c}) + "\n"
                                for c in "ab" * 3))
        assert run_cli(*jsonl_args(tmp_path, data, steps="2",
                                   **{"metrics-every": "1"})) == 0
        assert calls == [6, 6]
        run_dir = next((tmp_path / "runs").iterdir())
        rows = list(csv.DictReader((run_dir / "metrics.csv").open()))
        assert all(row["train_accuracy"] == row["eval_accuracy"] for row in rows)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["eval_accuracy"] == summary["train_accuracy"]

    def test_empty_jsonl_prompt_rejected_before_the_run(self, tmp_path, capsys):
        data = tmp_path / "empty_prompt.jsonl"
        data.write_text('{"prompt": "", "label": "a"}\n{"prompt": "ab=", "label": "b"}\n')
        assert run_cli(*jsonl_args(tmp_path, data, steps="2")) == 1
        assert "line 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_jsonl_label_outside_the_vocabulary_rejected_before_the_run(self, tmp_path, capsys):
        data = tmp_path / "euro_label.jsonl"
        data.write_text('{"prompt": "ab=", "label": "\\u20ac"}\n')
        assert run_cli(*jsonl_args(tmp_path, data, seed="1", steps="2",
                                   batch_size="2")) == 1
        assert "line 1: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_non_string_jsonl_prompt_rejected_before_the_run(self, tmp_path, capsys):
        data = tmp_path / "int_prompt.jsonl"
        data.write_text('{"prompt": "ab=", "label": "b"}\n{"prompt": 5, "label": "a"}\n')
        assert run_cli(*jsonl_args(tmp_path, data, steps="2")) == 1
        assert "line 2: prompt must be a string" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_final_accuracies_come_from_the_last_logged_row(self, tmp_path, monkeypatch):
        # the summary reuses the accuracies logged on the final weights; only a
        # run that logged no row evaluates again
        import mole.model

        calls = []
        evaluate = mole.model.evaluate

        def counted(model, examples):
            calls.append(model.step)
            return evaluate(model, examples)

        monkeypatch.setattr(mole.model, "evaluate", counted)
        assert run_cli(*train_args(tmp_path, out=str(tmp_path / "a"))) == 0
        assert calls == [10, 10, 20, 20, 30, 30]
        run_dir = next((tmp_path / "a").iterdir())
        last = list(csv.DictReader((run_dir / "metrics.csv").open()))[-1]
        summary = json.loads((run_dir / "summary.json").read_text())
        assert repr(summary["train_accuracy"]) == last["train_accuracy"]
        assert repr(summary["eval_accuracy"]) == last["eval_accuracy"]
        calls.clear()
        assert run_cli(*train_args(tmp_path, steps="0", out=str(tmp_path / "b"))) == 0
        assert calls == [0, 0]


class TestAnalyze:
    @pytest.fixture()
    def init_ckpt(self, tmp_path):
        assert run_cli(*train_args(tmp_path, steps="0")) == 0
        return next((tmp_path / "runs").iterdir()) / "model.ckpt"

    def test_init_checkpoint_redundancy_all_zero(self, init_ckpt, tmp_path, capsys):
        assert run_cli("analyze", "--checkpoint", str(init_ckpt)) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["value"] == 0.0 for entry in report["redundancy"])

    def test_trained_checkpoint_positive_redundancy(self, tmp_path, capsys):
        assert run_cli(*train_args(tmp_path, steps="30")) == 0
        capsys.readouterr()
        ckpt = next((tmp_path / "runs").iterdir()) / "model.ckpt"
        assert run_cli("analyze", "--checkpoint", str(ckpt)) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["value"] > 0.0 for entry in report["redundancy"])

    def test_router_stats_with_dataset(self, init_ckpt, tmp_path, capsys):
        assert run_cli("analyze", "--checkpoint", str(init_ckpt),
                       "--dataset", "modular_add") == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["router_stats"]) == 4 * 7
        for entry in report["router_stats"]:
            assert sum(entry["selection_counts"]) == entry["tokens"]  # K=1

    def test_missing_checkpoint_clean_error(self, tmp_path, capsys):
        assert run_cli("analyze", "--checkpoint", str(tmp_path / "no.ckpt")) == 1
        assert "not found" in capsys.readouterr().err

    def test_matrix_reproduces_reference_scores(self, tmp_path, capsys):
        matrix = AccuracyMatrix.from_rows(matrix_rows("lora"), DOMAINS)
        path = tmp_path / "matrix.csv"
        matrix.to_csv(path)
        assert run_cli("analyze", "--matrix", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metrics"]["overall_performance"] * 100 == pytest.approx(78.67, abs=0.01)
        assert report["metrics"]["performance_drop"] * 100 == pytest.approx(-2.17, abs=0.01)

    def test_csv_output_written(self, init_ckpt, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli("analyze", "--checkpoint", str(init_ckpt),
                       "--format", "csv", "--out", str(out)) == 0
        rows = [r for r in csv.reader(out.open()) if r]
        assert any(r[0] == "layer" for r in rows)

    def test_needs_some_input(self, capsys):
        assert run_cli("analyze") == 1

    def test_dataset_without_checkpoint_is_usage_error(self, tmp_path, capsys):
        """A dataset only feeds the checkpoint's routers, so with a matrix
        alone it would be dropped; the run stops instead and names it."""
        path = tmp_path / "matrix.csv"
        AccuracyMatrix.from_rows(matrix_rows("lora"), DOMAINS).to_csv(path)
        assert run_cli("analyze", "--matrix", str(path), "--dataset", "nonsense") == 1
        captured = capsys.readouterr()
        assert "--dataset needs --checkpoint" in captured.err and captured.out == ""

    def test_empty_dataset_is_usage_error(self, init_ckpt, capsys):
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt), "--dataset", "") == 1
        captured = capsys.readouterr()
        assert "unknown dataset spec ''" in captured.err and captured.out == ""

    def test_seed_without_dataset_is_usage_error(self, init_ckpt, capsys):
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt), "--seed", "3") == 1
        captured = capsys.readouterr()
        assert "--seed needs --dataset" in captured.err and captured.out == ""

    def test_seed_with_a_jsonl_dataset_is_usage_error(self, init_ckpt, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"prompt": "ax=", "label": "a"}) + "\n")
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt), "--dataset", f"jsonl:{data}",
                       "--seed", "99") == 1
        captured = capsys.readouterr()
        assert "--seed needs --dataset of a task kind" in captured.err and captured.out == ""

    def test_missing_matrix_clean_error(self, tmp_path, capsys):
        assert run_cli("analyze", "--matrix", str(tmp_path / "no.csv")) == 1
        assert "matrix file not found" in capsys.readouterr().err

    def test_csv_needs_an_output_file(self, init_ckpt, capsys):
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt), "--format", "csv") == 1
        captured = capsys.readouterr()
        assert "csv output needs --out" in captured.err and captured.out == ""

    def test_csv_without_out_is_refused_before_the_checkpoint_is_read(self, tmp_path, capsys):
        assert run_cli("analyze", "--checkpoint", str(tmp_path / "no.ckpt"),
                       "--format", "csv") == 1
        captured = capsys.readouterr()
        assert "csv output needs --out" in captured.err and captured.out == ""

    def test_header_of_the_wrong_shape_is_runtime_failure(self, init_ckpt, capsys):
        # valid JSON that is not a header object: a CorruptHeaderError, no traceback
        raw = init_ckpt.read_bytes()
        text = b"[5]"
        init_ckpt.write_bytes(raw[:12] + len(text).to_bytes(8, "little") + text)
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt)) == 2
        assert "malformed header" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_runtime_failure(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"MOLECKPTgarbage-that-is-not-a-checkpoint")
        assert run_cli("analyze", "--checkpoint", str(bogus)) == 2
        assert "error" in capsys.readouterr().err

    def test_base_digest_mismatch_is_runtime_failure(self, init_ckpt, capsys):
        raw = init_ckpt.read_bytes()
        at = raw.index(b'"base_sha256": "') + len(b'"base_sha256": "')
        flipped = b"1" if raw[at:at + 1] == b"0" else b"0"
        init_ckpt.write_bytes(raw[:at] + flipped + raw[at + 1:])
        assert run_cli("analyze", "--checkpoint", str(init_ckpt)) == 2
        assert "digest" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_router_is_runtime_failure(self, init_ckpt, capsys):
        # a checkpoint that loads but whose router yields NaN logits fails at
        # inference, a runtime failure rather than a usage error
        model = load(init_ckpt)
        model.blocks[0].adapted["q"].router.weight.data[:] = np.inf
        save(model, init_ckpt)
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(init_ckpt), "--dataset", "copy") == 2
        assert "non-finite" in capsys.readouterr().err

    def test_cutoff_left_truncates_long_prompts(self, tmp_path):
        data = tmp_path / "long.jsonl"
        lines = [json.dumps({"prompt": "x" * 90 + f"{c}=", "label": c})
                 for c in "ab" * 3]
        data.write_text("\n".join(lines) + "\n")
        assert run_cli(*jsonl_args(tmp_path, data, steps="2",
                                   **{"cutoff-len": "32"})) == 0

    def test_dataset_cut_at_the_checkpoint_max_seq_len(self, tmp_path, capsys):
        # prompts of 21 tokens: training cuts them to max_seq_len 16, and so
        # must the analysis of its checkpoint
        data = tmp_path / "long.jsonl"
        data.write_text("".join(json.dumps({"prompt": "x" * 19 + f"{c}=", "label": c}) + "\n"
                                for c in "ab" * 3))
        assert run_cli(*jsonl_args(tmp_path, data, steps="2",
                                   **{"max-seq-len": "16"})) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "model.ckpt"
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(ckpt), "--dataset", f"jsonl:{data}") == 0
        report = json.loads(capsys.readouterr().out)
        # every router saw whole prompts of 16 tokens
        assert all(entry["tokens"] > 0 and entry["tokens"] % 16 == 0
                   for entry in report["router_stats"])


    def test_jsonl_lines_counted_once(self, tmp_path, capsys):
        # six 16-token prompts: every router sees 96 tokens, not two copies
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"prompt": "x" * 14 + f"{c}=", "label": c}) + "\n"
                                for c in "ab" * 3))
        assert run_cli(*jsonl_args(tmp_path, data, steps="0")) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "model.ckpt"
        capsys.readouterr()
        assert run_cli("analyze", "--checkpoint", str(ckpt), "--dataset", f"jsonl:{data}") == 0
        report = json.loads(capsys.readouterr().out)
        assert {entry["tokens"] for entry in report["router_stats"]} == {6 * 16}

class TestContinual:
    def test_identical_domains_flag_repeats_first_domain(self, tmp_path, capsys):
        # same domain twice: the harness runs and reports a drop score
        assert run_cli("continual", "--domains", "2", "--domain-size", "40",
                       "--steps", "15", "--k", "1", "--alloc", "counts=2,2,2,2",
                       "--eval-split", "train", "--seed", "7",
                       "--out", str(tmp_path / "c"), "--identical-domains") == 0
        run_dir = next((tmp_path / "c").iterdir())
        matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
        assert matrix.domains == ("stage0", "stage1")

    @pytest.mark.parametrize("key, value", [("dropout", "1.5"), ("alpha", "0"), ("lr", "-1"),
                                            ("num_heads", "0"), ("max_seq_len", "0"),
                                            ("vocab_size", "64"), ("lr", "nan"),
                                            ("weight_decay", "inf"), ("alpha", "inf"),
                                            ("lambda_aux", "inf"), ("target_acc", "nan"),
                                            ("target_acc", "1.5")])
    def test_bad_settings_rejected_before_the_run_directory(self, tmp_path, capsys, key, value):
        assert run_cli("continual", "--domains", "2", "--domain-size", "40", "--steps", "2",
                       "--seed", "7", "--out", str(tmp_path / "c"),
                       "--" + key.replace("_", "-"), value) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_default_allocation_follows_the_layer_count(self, tmp_path):
        assert run_cli("continual", "--num-layers", "8", "--domains", "2", "--domain-size", "20",
                       "--steps", "1", "--seed", "7", "--out", str(tmp_path / "c")) == 0
        run_dir = next((tmp_path / "c").iterdir())
        config = json.loads((run_dir / "config.json").read_text())
        assert config["alloc"] == "counts=2,2,2,2,2,2,2,2"
        assert load(run_dir / "model.ckpt").config.allocation.counts == (2,) * 8

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [("dataset", "copy"), ("data_size", "40"),
                                            ("cutoff_len", "8")])
    def test_dataset_keys_rejected(self, tmp_path, capsys, source, key, value):
        # continual generates its own domains: mole train's data keys are refused
        argv = ["continual", "--domains", "2", "--domain-size", "20", "--steps", "2",
                "--seed", "7", "--out", str(tmp_path / "c")]
        named = "--" + key.replace("_", "-")
        if source == "flag":
            argv += [named, value]
        else:
            named = repr(key)
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_diverged_stage_keeps_the_finished_stages(self, tmp_path, monkeypatch, capsys):
        # the second domain diverges: exit 2, and matrix.csv keeps the first stage's row
        import mole.model
        from mole.model import TrainingDiverged

        step = mole.model.train_step

        def diverge_in_stage_two(model, *args, **kwargs):
            if model.step == 5:
                raise TrainingDiverged("injected divergence")
            return step(model, *args, **kwargs)

        monkeypatch.setattr(mole.model, "train_step", diverge_in_stage_two)
        assert run_cli("continual", "--domains", "2", "--domain-size", "40", "--steps", "4",
                       "--seed", "1", "--out", str(tmp_path / "c")) == 2
        assert "continual run halted in domain1: " in capsys.readouterr().err
        run_dir = next((tmp_path / "c").iterdir())
        matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
        assert np.isfinite(matrix.values[0, 0])
        assert not np.isfinite(matrix.values[1]).any()
        assert not (run_dir / "report.json").exists()

    def test_small_sequence_emits_matrix_and_metrics(self, tmp_path, capsys):
        code = run_cli("continual", "--domains", "2", "--domain-size", "40",
                       "--steps", "20", "--k", "1", "--alloc", "counts=1,1,2,2",
                       "--seed", "9", "--out", str(tmp_path / "c"))
        assert code == 0
        out = capsys.readouterr().out
        run_dir = next((tmp_path / "c").iterdir())
        matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
        assert matrix.num_domains == 2
        assert np.isfinite(matrix.values[1]).all()
        assert not np.isfinite(matrix.values[0, 1])  # upper triangle absent
        report = json.loads((run_dir / "report.json").read_text())
        assert np.isfinite(report["metrics"]["performance_drop"])
        assert "overall_performance" in out

    @pytest.mark.parametrize("split, calls", [("eval", 5), ("train", 5), ("all", 7)])
    def test_current_domain_reuses_the_logged_accuracy(self, tmp_path, monkeypatch,
                                                       split, calls):
        # each stage logs the current domain's accuracies on its final weights;
        # the matrix takes that entry from the log unless the pool is both splits;
        # fit and the CLI each bind evaluate, so both names are counted
        import mole.cli
        import mole.model

        counted = []
        evaluate = mole.model.evaluate

        def counting(model, examples):
            counted.append(len(examples))
            return evaluate(model, examples)

        monkeypatch.setattr(mole.model, "evaluate", counting)
        monkeypatch.setattr(mole.cli, "evaluate", counting)
        assert run_cli("continual", "--domains", "2", "--domain-size", "40", "--steps", "4",
                       "--eval-split", split, "--seed", "1", "--out", str(tmp_path / "c")) == 0
        assert len(counted) == calls
        run_dir = next((tmp_path / "c").iterdir())
        matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
        logged = list(csv.DictReader((run_dir / "metrics.csv").open()))
        column = {"eval": "eval_accuracy", "train": "train_accuracy"}.get(split)
        if column:
            assert [repr(float(matrix.values[k, k])) for k in range(2)] == [
                logged[0][column], logged[1][column]]
