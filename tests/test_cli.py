"""CLI harness: determinism, atomicity, exit codes, manifests."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emofuse import cli, data
from emofuse.checkpoint import (
    MAGIC,
    load_checkpoint,
    load_encoder_checkpoint,
    save_checkpoint,
    save_fusion_checkpoint,
)
from emofuse.cli import _check_freeze, build_parser, main, parse_args
from emofuse.encoder import EncoderConfig
from emofuse.errors import UsageError
from emofuse.fileio import sha256_file
from emofuse.data import load_jsonl
from emofuse.fusion import FUSION_KINDS, FusionModel

TINY_ARCH = [
    "--speech-layers", "1", "--speech-dim", "16", "--speech-heads", "2",
    "--speech-ff", "32", "--speech-max-len", "64",
    "--text-layers", "1", "--text-dim", "16", "--text-heads", "2",
    "--text-ff", "32", "--text-max-len", "16",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + prepared artifacts shared by the quick tests."""
    root = tmp_path_factory.mktemp("cliws")
    out = str(root)
    assert main(["gen-data", "--out-dir", out, "--n", "48", "--seed", "3"]) == 0
    assert main(["prepare", "--dataset", f"{out}/dataset.jsonl", "--out-dir", out,
                 "--vocab-size", "64", "--codebook-size", "12", "--seed", "3"]) == 0
    return root


class TestGenData:
    def test_same_seed_same_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-data", "--out-dir", str(tmp_path / sub),
                         "--n", "40", "--seed", "5"]) == 0
        assert (tmp_path / "a/dataset.jsonl").read_bytes() == (tmp_path / "b/dataset.jsonl").read_bytes()

    def test_manifest_records_output_digest(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(out), "--n", "40", "--seed", "1"]) == 0
        manifest = json.loads((out / "gen-data.manifest.json").read_text())
        digest = manifest["outputs"][str(out / "dataset.jsonl")]
        assert digest == sha256_file(out / "dataset.jsonl")
        assert manifest["seed"] == 1

    @pytest.mark.parametrize("name", ["../../../x.jsonl", "sub/x.jsonl", "/tmp/x.jsonl", ".", ".."])
    def test_name_with_directory_part_is_usage_error(self, tmp_path, capsys, name):
        capsys.readouterr()
        assert main(["gen-data", "--out-dir", str(tmp_path / "a/b/c"), "--n", "40",
                     "--name", name]) == 1
        assert "--name" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        capsys.readouterr()
        assert main(["gen-data", "--out-dir", str(tmp_path), "--n", "40", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "must be at least 0" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_artifact_mode_matches_plain_open(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            assert main(["gen-data", "--out-dir", str(tmp_path), "--n", "40", "--seed", "1"]) == 0
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old_umask)
        want = os.stat(tmp_path / "plain.txt").st_mode
        assert os.stat(tmp_path / "dataset.jsonl").st_mode == want
        assert os.stat(tmp_path / "gen-data.manifest.json").st_mode == want


class TestPrepare:
    def test_deterministic_artifacts(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert main(["prepare", "--dataset", f"{workspace}/dataset.jsonl",
                     "--out-dir", str(out), "--vocab-size", "64",
                     "--codebook-size", "12", "--seed", "3"]) == 0
        assert sha256_file(out / "vocab.txt") == sha256_file(workspace / "vocab.txt")
        assert sha256_file(out / "codebook.bin") == sha256_file(workspace / "codebook.bin")

    def test_oversized_codebook_leaves_no_partial_files(self, workspace, tmp_path):
        out = tmp_path / "fail"
        code = main(["prepare", "--dataset", f"{workspace}/dataset.jsonl",
                     "--out-dir", str(out), "--codebook-size", "99999"])
        assert code == 2
        assert not (out / "vocab.txt").exists()
        assert not (out / "codebook.bin").exists()

    def test_small_corpus_vocabulary(self, tmp_path):
        rows = [
            {"id": "a", "frames": [[0.0] * 4] * 3, "text": "one two", "label": 0, "split": "train"},
            {"id": "b", "frames": [[0.5] * 4] * 3, "text": "one", "label": 1, "split": "train"},
            {"id": "c", "frames": [[1.0] * 4] * 3, "text": "three", "label": 2, "split": "train"},
        ]
        data = tmp_path / "tiny.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["prepare", "--dataset", str(data), "--out-dir", str(tmp_path),
                     "--vocab-size", "64", "--codebook-size", "3"]) == 0
        vocab_lines = (tmp_path / "vocab.txt").read_text().splitlines()
        corpus_tokens = [ln for ln in vocab_lines if not ln.startswith("#")]
        assert len(corpus_tokens) <= 3


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("command", ["prepare", "pretrain"])
def test_dataset_without_examples_exits_2_naming_file(workspace, tmp_path, capsys,
                                                      command, content):
    data = tmp_path / "dataset.jsonl"
    data.write_text(content)
    extra = ["--codebook", f"{workspace}/codebook.bin", "--steps", "1"] \
        if command == "pretrain" else []
    capsys.readouterr()
    code = main([command, "--dataset", str(data), "--out-dir", str(tmp_path / "out"), *extra])
    assert code == 2
    assert str(data) in capsys.readouterr().err


class TestPretrain:
    def test_loss_log_and_resume(self, workspace, tmp_path):
        out = tmp_path / "pre"
        base = ["--dataset", f"{workspace}/dataset.jsonl",
                "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(out),
                "--batch-size", "2", "--lr", "1e-3", "--warmup-steps", "2",
                "--seed", "0", *TINY_ARCH]
        assert main(["pretrain", *base, "--steps", "4", "--checkpoint-interval", "2"]) == 0
        _, meta, extras = load_encoder_checkpoint(out / "speech_encoder.ckpt")
        assert meta["step"] == 4
        assert any(name.startswith("adam.m.") for name in extras)
        first_log = (out / "pretrain.log").read_text().splitlines()
        assert first_log[0].startswith("1 ")
        # Initial loss near ln(vocab) = ln(17).
        first_loss = float(first_log[0].split()[2])
        assert abs(first_loss - np.log(17)) < 0.05 * np.log(17)

        assert main(["pretrain", *base, "--steps", "7", "--dropout", "0.2",
                     "--resume", str(out / "speech_encoder.ckpt")]) == 0
        state, meta, _ = load_encoder_checkpoint(out / "speech_encoder.ckpt")
        assert meta["step"] == 7
        assert state.cfg.dropout_rate == 0.2  # --dropout applies to a resumed encoder
        resumed_log = (out / "pretrain.log").read_text().splitlines()
        assert resumed_log[0].startswith("5 ")

    def test_resume_after_an_interrupt_matches_the_straight_run(self, workspace, tmp_path,
                                                               monkeypatch):
        """Stopped after its step-4 checkpoint and resumed, a run writes the checkpoint
        and the log lines of steps 5-8 that an uninterrupted run writes, byte for byte."""
        base = ["pretrain", "--dataset", f"{workspace}/dataset.jsonl",
                "--codebook", f"{workspace}/codebook.bin", "--batch-size", "2",
                "--lr", "1e-3", "--seed", "0", "--checkpoint-interval", "2", "--steps", "8",
                *TINY_ARCH]
        assert main([*base, "--out-dir", str(tmp_path / "straight")]) == 0
        save = cli.save_encoder_checkpoint

        def stop_after_step_4(path, state, extra_meta, **kwargs):
            save(path, state, extra_meta=extra_meta, **kwargs)
            if extra_meta["step"] == 4:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_encoder_checkpoint", stop_after_step_4)
        with pytest.raises(KeyboardInterrupt):
            main([*base, "--out-dir", str(tmp_path / "stopped")])
        monkeypatch.setattr(cli, "save_encoder_checkpoint", save)
        assert main([*base, "--out-dir", str(tmp_path / "resumed"),
                     "--resume", str(tmp_path / "stopped" / "speech_encoder.ckpt")]) == 0
        straight, resumed = (tmp_path / "straight", tmp_path / "resumed")
        assert ((resumed / "speech_encoder.ckpt").read_bytes()
                == (straight / "speech_encoder.ckpt").read_bytes())
        lines = (straight / "pretrain.log").read_text().splitlines()
        assert (resumed / "pretrain.log").read_text().splitlines() == lines[4:]
        assert lines[4].startswith("5 ") and len(lines) == 8

    @pytest.mark.parametrize("steps", [2, 4])
    def test_resume_to_no_later_step_exits_1_and_writes_nothing(self, workspace, tmp_path,
                                                               capsys, steps):
        """--steps at or below the checkpoint's step is a usage error naming --steps and
        both steps; the checkpoint, log and manifest stay as they were."""
        out = tmp_path / "pre"
        argv = ["pretrain", "--dataset", f"{workspace}/dataset.jsonl",
                "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(out),
                "--batch-size", "2", "--seed", "0", *TINY_ARCH]
        assert main([*argv, "--steps", "4"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        code = main([*argv, "--steps", str(steps), "--resume", str(out / "speech_encoder.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"usage error: --steps {steps} must exceed step 4, the step of "
                       f"{out / 'speech_encoder.ckpt'} to resume from\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("drop", ["step", "adam"])
    def test_resume_without_optimizer_state_exits_2(self, workspace, tmp_path, capsys, drop):
        base = ["--dataset", f"{workspace}/dataset.jsonl",
                "--codebook", f"{workspace}/codebook.bin", "--batch-size", "2",
                "--seed", "0", *TINY_ARCH]
        pre = tmp_path / "pre"
        assert main(["pretrain", *base, "--out-dir", str(pre), "--steps", "1"]) == 0
        meta, blocks = load_checkpoint(pre / "speech_encoder.ckpt")
        if drop == "step":
            del meta["step"]
        else:
            blocks = {n: a for n, a in blocks.items() if not n.startswith("adam.")}
        plain = tmp_path / "plain.ckpt"
        save_checkpoint(plain, meta, blocks)
        capsys.readouterr()
        code = main(["pretrain", *base, "--out-dir", str(tmp_path / "again"),
                     "--steps", "2", "--resume", str(plain)])
        assert code == 2
        assert str(plain) in capsys.readouterr().err


class TestFinetune:
    def run_finetune(self, workspace, out, extra):
        return main(["finetune", "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(out),
                     "--epochs", "1", "--lr", "1e-3", "--batch-size", "8",
                     "--seed", "0", *TINY_ARCH, *extra])

    def test_freeze_both_keeps_speech_blocks_bitwise(self, workspace, tmp_path):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--dataset", f"{workspace}/dataset.jsonl",
                     "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(pre),
                     "--steps", "2", "--batch-size", "2", "--lr", "1e-3",
                     "--warmup-steps", "1", "--seed", "0", *TINY_ARCH]) == 0
        out = tmp_path / "ft"
        assert self.run_finetune(workspace, out, [
            "--freeze", "both", "--speech-checkpoint", str(pre / "speech_encoder.ckpt")]) == 0
        _, enc_blocks = load_checkpoint(pre / "speech_encoder.ckpt")
        _, model_blocks = load_checkpoint(out / "model.ckpt")
        for name, arr in enc_blocks.items():
            if name.startswith("adam."):
                continue
            assert np.array_equal(model_blocks[f"speech.{name}"], arr), name

    def test_missing_pretrained_checkpoint_errors(self, workspace, tmp_path):
        assert self.run_finetune(
            workspace, tmp_path, ["--speech-checkpoint", str(tmp_path / "nope.ckpt")]) == 2

    @pytest.mark.parametrize("command", ["finetune", "pretrain"])
    def test_pretrained_config_mismatch_is_input_error(self, workspace, tmp_path, capsys,
                                                       command):
        """A speech checkpoint whose sizes contradict the --speech-* flags exits 2 naming
        the file and the field: finetune's --speech-checkpoint, or pretrain --resume."""
        pretrain = ["pretrain", "--dataset", f"{workspace}/dataset.jsonl",
                    "--codebook", f"{workspace}/codebook.bin", "--batch-size", "2",
                    "--seed", "0", *TINY_ARCH]
        pre = tmp_path / "pre"
        assert main([*pretrain, "--out-dir", str(pre), "--steps", "1",
                     "--speech-layers", "2"]) == 0
        ckpt = pre / "speech_encoder.ckpt"
        capsys.readouterr()
        out = tmp_path / "again"
        if command == "finetune":
            code = self.run_finetune(workspace, out, ["--speech-checkpoint", str(ckpt)])
        else:
            code = main([*pretrain, "--out-dir", str(out), "--steps", "2", "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "n_layers" in err
        assert not list(out.glob("*.ckpt"))

    def test_incoherent_freeze_combo_is_usage_error(self, workspace, tmp_path):
        assert self.run_finetune(
            workspace, tmp_path, ["--fusion", "speech-only", "--freeze", "text"]) == 1

    @pytest.mark.parametrize("fusion, freeze, unused", [
        ("speech-only", "text", "text"), ("speech-only", "both", "text"),
        ("text-only", "speech", "speech"), ("text-only", "both", "speech")])
    def test_freeze_of_unread_encoder_names_it(self, fusion, freeze, unused):
        with pytest.raises(UsageError) as err:
            _check_freeze(fusion, freeze)
        assert str(err.value) == (f"--freeze {freeze} references the {unused} encoder, "
                                  f"unused by {fusion}")

    def test_same_seed_identical_model(self, workspace, tmp_path):
        for sub in ("a", "b"):
            assert self.run_finetune(workspace, tmp_path / sub, ["--fusion", "text-only"]) == 0
        assert sha256_file(tmp_path / "a/model.ckpt") == sha256_file(tmp_path / "b/model.ckpt")
        assert sha256_file(tmp_path / "a/metrics.csv") == sha256_file(tmp_path / "b/metrics.csv")

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nlr = 0.5\n# comment\n")
        out = tmp_path / "cfgrun"
        assert main(["finetune", "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(out),
                     "--config", str(cfg), "--lr", "1e-3", "--batch-size", "8",
                     "--seed", "0", *TINY_ARCH]) == 0
        manifest = json.loads((out / "finetune.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2     # from config file
        assert manifest["config"]["lr"] == 1e-3      # flag wins over config

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_option = 1\n")
        assert self.run_finetune(workspace, tmp_path, ["--config", str(cfg)]) == 2


class TestScoreMode:
    def test_end_to_end_score_pipeline(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen-data", "--out-dir", out, "--n", "40", "--mode", "score",
                     "--seed", "2"]) == 0
        assert main(["prepare", "--dataset", f"{out}/dataset.jsonl", "--out-dir", out,
                     "--vocab-size", "64", "--codebook-size", "8", "--seed", "2"]) == 0
        assert main(["finetune", "--dataset", f"{out}/dataset.jsonl",
                     "--vocab", f"{out}/vocab.txt", "--codebook", f"{out}/codebook.bin",
                     "--out-dir", out, "--epochs", "1", "--lr", "1e-3",
                     "--batch-size", "8", "--seed", "2", *TINY_ARCH]) == 0
        metrics = (tmp_path / "metrics.csv").read_text()
        assert "mae" in metrics and "acc7" in metrics
        assert main(["evaluate", "--model", f"{out}/model.ckpt",
                     "--dataset", f"{out}/dataset.jsonl", "--vocab", f"{out}/vocab.txt",
                     "--codebook", f"{out}/codebook.bin", "--out-dir", out,
                     "--split", "valid"]) == 0
        assert "mae" in (tmp_path / "eval_metrics.csv").read_text()
        # The ablation grid is defined for categorical labels only.
        assert main(["ablate", "--dataset", f"{out}/dataset.jsonl",
                     "--vocab", f"{out}/vocab.txt", "--codebook", f"{out}/codebook.bin",
                     "--out-dir", out, "--reps", "1", "--epochs", "1", *TINY_ARCH]) == 2

    def test_label_mode_mismatch_rejected(self, workspace, tmp_path):
        out = str(tmp_path)
        assert main(["gen-data", "--out-dir", out, "--n", "40", "--mode", "score",
                     "--seed", "2"]) == 0
        assert TestFinetune().run_finetune(workspace, out, []) == 0
        assert main(["evaluate", "--model", f"{out}/model.ckpt",
                     "--dataset", f"{out}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", out]) == 2


class TestEvaluate:
    def test_round_trip(self, workspace, tmp_path):
        out = tmp_path / "ft"
        assert TestFinetune().run_finetune(workspace, out, []) == 0
        assert main(["evaluate", "--model", str(out / "model.ckpt"),
                     "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", str(out), "--split", "test"]) == 0
        lines = (out / "eval_metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,metric,value"
        assert any("accuracy4" in ln for ln in lines)

    def test_unimodal_model(self, workspace, tmp_path):
        out = tmp_path / "uni"
        assert TestFinetune().run_finetune(workspace, out, ["--fusion", "speech-only"]) == 0
        assert main(["evaluate", "--model", str(out / "model.ckpt"),
                     "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", str(out), "--split", "test"]) == 0

    def test_malformed_checkpoint_header_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MAGIC + (5).to_bytes(4, "little") + b"{nope")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(bad),
                     "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", str(tmp_path), "--split", "test"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def evaluate(self, workspace, model, out):
        return main(["evaluate", "--model", str(model),
                     "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", str(out), "--split", "test"])

    @pytest.mark.parametrize("fusion", ["text-only", "speech-only", "shallow"])
    def test_tokenizes_only_the_modalities_the_model_reads(self, workspace, tmp_path,
                                                            monkeypatch, fusion):
        out = tmp_path / "ft"
        assert TestFinetune().run_finetune(workspace, out, ["--fusion", fusion]) == 0
        calls = {"discretize": 0, "encode": 0}
        for name in calls:
            original = getattr(data, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(data, name, counted)
        assert self.evaluate(workspace, out / "model.ckpt", out) == 0
        n = len(load_jsonl(f"{workspace}/dataset.jsonl").subset("test"))
        reads = FUSION_KINDS[fusion]
        assert calls == {"discretize": n if "speech" in reads else 0,
                         "encode": n if "text" in reads else 0}

    @pytest.mark.parametrize("n_outputs, edit", [
        (8, lambda meta: meta.pop("label_mode")),
        (1, lambda meta: None),  # a categorical checkpoint with a 1-output head
    ])
    def test_label_mode_that_does_not_fit_the_head_exits_2(self, workspace, tmp_path, capsys,
                                                          n_outputs, edit):
        cfg = EncoderConfig(1, 16, 2, 32, 17, 64)
        path = tmp_path / "model.ckpt"
        model = FusionModel.init("shallow", cfg, cfg, n_outputs, 0, np.random.default_rng(0))
        save_fusion_checkpoint(path, model, label_mode="categorical")
        meta, blocks = load_checkpoint(path)
        edit(meta)
        save_checkpoint(path, meta, blocks)
        capsys.readouterr()
        assert self.evaluate(workspace, path, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "eval_metrics.csv").exists()

    def test_missing_split_rejected(self, workspace, tmp_path, capsys):
        """An unknown --split exits 2 naming the dataset file and the splits it has."""
        cfg = EncoderConfig(1, 16, 2, 32, 17, 64)
        path = tmp_path / "model.ckpt"
        model = FusionModel.init("shallow", cfg, cfg, 8, 0, np.random.default_rng(0))
        save_fusion_checkpoint(path, model, label_mode="categorical")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(path),
                     "--dataset", f"{workspace}/dataset.jsonl",
                     "--vocab", f"{workspace}/vocab.txt",
                     "--codebook", f"{workspace}/codebook.bin",
                     "--out-dir", str(tmp_path), "--split", "nope"]) == 2
        assert capsys.readouterr().err == (
            f"input error: {workspace}/dataset.jsonl: no split 'nope'; the file has "
            "'test', 'train', 'valid'\n")
        assert not (tmp_path / "eval_metrics.csv").exists()


class TestAblate:
    def test_grid_rows_and_manifest(self, workspace, tmp_path):
        out = tmp_path / "abl"
        argv = ["ablate", "--dataset", f"{workspace}/dataset.jsonl",
                "--vocab", f"{workspace}/vocab.txt",
                "--codebook", f"{workspace}/codebook.bin", "--out-dir", str(out),
                "--reps", "1", "--epochs", "1", "--lr", "1e-3",
                "--batch-size", "8", "--seed", "0", *TINY_ARCH]
        assert main(argv) == 0
        first_digest = sha256_file(out / "ablation.csv")
        # The same manifest (same flags, same seed) reproduces every row.
        assert main(argv) == 0
        assert sha256_file(out / "ablation.csv") == first_digest
        table = (out / "ablation.txt").read_text()
        for cell in ("shallow-ft", "coattn-ft", "speech-only", "text-only",
                     "shallow-frozen", "coattn-frozen"):
            assert cell in table
        manifest = json.loads((out / "ablate.manifest.json").read_text())
        assert set(manifest["observations"]) == {
            "finetuned_ge_frozen_shallow", "coattn_beats_shallow_when_frozen",
            "bimodal_beats_unimodal"}
        csv_lines = (out / "ablation.csv").read_text().splitlines()
        assert csv_lines[0] == "cell,rep,seed,metric,value"
        assert len(csv_lines) == 1 + 6 * 9  # 6 cells x (acc4 + 4 BA + 4 F1)

    def test_cell_trains_like_finetune(self, workspace, tmp_path):
        # 8 epochs of 4 steps: the 6% default warmup is 1 step, so a cell
        # that dropped --warmup-steps 5 would train on another schedule.
        common = ["--dataset", f"{workspace}/dataset.jsonl",
                  "--vocab", f"{workspace}/vocab.txt",
                  "--codebook", f"{workspace}/codebook.bin",
                  "--epochs", "8", "--lr", "1e-2", "--batch-size", "8", "--seed", "0",
                  "--warmup-steps", "5", *TINY_ARCH]
        assert main(["finetune", "--out-dir", str(tmp_path / "ft"),
                     "--fusion", "coattn", *common]) == 0
        assert main(["ablate", "--out-dir", str(tmp_path / "abl"), "--reps", "1", *common]) == 0
        finetune = {row[2]: row[3] for row in
                    (ln.split(",") for ln in (tmp_path / "ft/metrics.csv").read_text().splitlines())
                    if row[:2] == ["final", "test"]}
        cell = {row[3]: row[4] for row in
                (ln.split(",") for ln in (tmp_path / "abl/ablation.csv").read_text().splitlines())
                if row[0] == "coattn-ft"}
        assert cell.pop("acc4") == finetune["accuracy4"]
        for metric, value in cell.items():
            assert finetune[metric.replace("ba[", "binary_accuracy[")] == value, metric


# Out-of-range numbers: (command, flag, value, text the message must contain).
# Each is a usage error, exit 1, before any training. The message names the
# flag when the parser rejects the value, else the checked field.
BAD_NUMBERS = [
    *[("gen-data", "--n", value, "--n") for value in ("10", "-3")],
    ("ablate", "--reps", "0", "--reps"),
    ("ablate", "--epochs", "0", "--epochs"),
    ("finetune", "--epochs", "0", "--epochs"),
    ("pretrain", "--checkpoint-interval", "-1", "--checkpoint-interval"),
    *[(command, "--grad-clip", value, "grad_clip")
      for command in ("finetune", "pretrain") for value in ("-1", "0", "nan", "inf")],
    *[(command, "--lr", value, "peak_lr")
      for command in ("finetune", "pretrain") for value in ("nan", "inf")],
    *[(command, "--warmup-steps", "-1", "warmup_steps") for command in ("finetune", "pretrain")],
    *[("pretrain", "--mask-rate", value, "mask_rate") for value in ("0", "nan", "1.5")],
    ("prepare", "--codebook-size", "0", "--codebook-size"),
    *[("prepare", "--vocab-size", value, "--vocab-size") for value in ("0", "5")],
    *[("pretrain", "--steps", value, "--steps") for value in ("0", "-2")],
    *[(command, "--batch-size", "0", "--batch-size")
      for command in ("pretrain", "finetune", "ablate")],
    ("finetune", "--coattn-heads", "0", "--coattn-heads"),
    *[(command, f"--{modality}-{size}", "0", f"--{modality}-{size}")
      for command, modality in (("pretrain", "speech"), ("finetune", "text"))
      for size in ("layers", "dim", "heads", "ff")],
    *[("finetune", f"--{modality}-max-len", "1", f"--{modality}-max-len")
      for modality in ("speech", "text")],
]


def _training_argv(workspace, command, out):
    """A quick run of a training command on the shared workspace."""
    if command == "gen-data":
        return [command, "--out-dir", str(out)]
    if command == "prepare":
        return [command, "--dataset", f"{workspace}/dataset.jsonl", "--out-dir", str(out)]
    inputs = ["--dataset", f"{workspace}/dataset.jsonl", "--codebook", f"{workspace}/codebook.bin"]
    if command == "pretrain":
        inputs += ["--steps", "2", "--batch-size", "2"]
    else:
        inputs += ["--vocab", f"{workspace}/vocab.txt", "--epochs", "1", "--batch-size", "8"]
    if command == "ablate":
        inputs += ["--reps", "1"]
    return [command, *inputs, "--out-dir", str(out), *TINY_ARCH]


@pytest.mark.parametrize("command, flag, value, names", BAD_NUMBERS)
def test_out_of_range_number_exits_1(workspace, tmp_path, capsys, command, flag, value, names):
    capsys.readouterr()
    code = main([*_training_argv(workspace, command, tmp_path), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert names in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


# Bad config-file lines: (command, line, exit code, text the message must
# contain). A line the parser rejects is an input error naming path:line; a
# value it accepts but a range check rejects is a usage error naming the field.
BAD_CONFIG_LINES = [
    *[(command, f"{flag[2:].replace('-', '_')} = {value}", 2 if names == flag else 1, names)
      for command, flag, value, names in BAD_NUMBERS],
    ("finetune", "epochs = abc", 2, "invalid int value"),
    ("finetune", "batch_size = 2.5", 2, "invalid int value"),
    ("finetune", "freeze = 3", 2, "invalid choice"),
    ("finetune", "seed = [1,2]", 2, "invalid int value"),
    ("finetune", 'lr = "1e-3"', 2, "invalid float value"),
    ("finetune", "func = 1", 2, "unrecognized arguments"),
    ("finetune", "epochs 2", 2, "expected 'key = value'"),
    ("finetune", "config = other.cfg", 2, "cannot name another config file"),
]


@pytest.mark.parametrize("command, line, code, names", BAD_CONFIG_LINES)
def test_bad_config_line(workspace, tmp_path, capsys, command, line, code, names):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\nseed = 0\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main([*_training_argv(workspace, command, out), "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert code == 1 or f"{cfg}:3:" in err
    assert names in err and "Traceback" not in err
    assert not any(out.iterdir())


def test_required_flags_from_config_file(workspace, tmp_path, capsys):
    """A required flag may come from argv or the config file; missing from both is exit 1."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {workspace}/dataset.jsonl\nvocab_size = 64\n"
                   "codebook_size = 12\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg), "--out-dir", str(out)]) == 0
    for name in ("vocab.txt", "codebook.bin"):  # as the workspace's flags made them
        assert (out / name).read_bytes() == (workspace / name).read_bytes()
    cfg.write_text("vocab_size = 64\n")
    capsys.readouterr()
    assert main(["prepare", "--config", str(cfg), "--out-dir", str(tmp_path / "none")]) == 1
    err = capsys.readouterr().err
    assert "required: --dataset" in err and "Traceback" not in err
    assert not (tmp_path / "none").exists()


def test_unreadable_config_file_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"lr = \xff\n")
    capsys.readouterr()
    code = main([*_training_argv(workspace, "finetune", tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(cfg) in err and "Traceback" not in err


def _other_value(action) -> str:
    """A value for ``action`` that its parser accepts and that is not its default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    if action.type is float:
        return "-0.25"  # a leading minus must not read as an option
    if action.type is None:
        return "some/path"
    return str((action.default or 0) + 3)


def _subparsers():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [pytest.param(name, sub, id=name) for name, sub in commands.choices.items()]


@pytest.mark.parametrize("command, sub", _subparsers())
def test_config_line_parses_like_flag(tmp_path, command, sub):
    # A stray % in a help string fails here, not at a user's --help; a help
    # string that states its default gets no second "(default: ...)".
    assert not re.search(r"\(default: [^)]*\) \(default:", " ".join(sub.format_help().split()))
    options = [a for a in sub._actions if a.dest not in ("help", "config")]
    required = [tok for a in options if a.required for tok in (a.option_strings[0], "given")]
    cfg = tmp_path / "run.cfg"
    for action in options:
        assert action.nargs is None, action.dest  # every flag takes exactly one value
        value = _other_value(action)
        argv = [command, *required]
        if action.required:
            argv[argv.index(action.option_strings[0]) + 1] = value
        cfg.write_text(f"{action.dest} = {value}\n")
        by_flag = vars(parse_args([*argv, action.option_strings[0], value]))
        by_config = vars(parse_args([*argv, "--config", str(cfg)]))
        assert by_flag.pop("config") is None and by_config.pop("config") == str(cfg)
        assert by_config == by_flag, action.dest
        assert by_flag[action.dest] != action.default, action.dest


INPUT_CHECKS = ["finetune-without-train", "ablate-score-mode", "ablate-without-valid",
                "evaluate-label-mode-mismatch"]


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_dataset_unfit_for_command_exits_2_naming_files(workspace, tmp_path, capsys, case):
    rows = (workspace / "dataset.jsonl").read_text().splitlines()
    data = tmp_path / "data.jsonl"
    if case in ("ablate-score-mode", "evaluate-label-mode-mismatch"):
        assert main(["gen-data", "--out-dir", str(tmp_path), "--n", "40", "--mode", "score",
                     "--name", data.name]) == 0
    else:
        drop = "train" if case == "finetune-without-train" else "valid"
        data.write_text("".join(r + "\n" for r in rows if json.loads(r)["split"] != drop))
    names = [str(data)]
    if case.startswith("evaluate"):
        model = tmp_path / "model.ckpt"
        cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=70, max_len=16)
        save_fusion_checkpoint(model, FusionModel.init("text-only", None, cfg, 8, 2, None),
                               label_mode="categorical")
        argv = ["evaluate", "--model", str(model), "--dataset", str(data),
                "--vocab", f"{workspace}/vocab.txt", "--codebook", f"{workspace}/codebook.bin",
                "--out-dir", str(tmp_path / "out")]
        names.append(str(model))
    else:
        argv = _training_argv(workspace, case.split("-")[0], tmp_path / "out")
        argv[argv.index("--dataset") + 1] = str(data)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("pin", [False, True], ids=["one-lane", "blas-pinned"])
def test_numeric_failure_prints_only_its_message(workspace, tmp_path, pin):
    """NumPy's overflow warnings stay off stderr, from the worker process too: with BLAS
    pinned on two or more CPUs, training runs on two lanes."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                         env.get("PYTHONPATH", "")])
    if pin:
        env["OPENBLAS_NUM_THREADS"] = "1"
    argv = [*_training_argv(workspace, "finetune", tmp_path / "out"), "--lr", "1e308"]
    proc = subprocess.run([sys.executable, "-m", "emofuse.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: optimizer step 2: softmax_rows: NaN or +inf in input\n"
    assert not (tmp_path / "out" / "model.ckpt").exists()


class TestExitCodesAndHelp:
    def test_missing_dataset_is_input_error(self, tmp_path):
        assert main(["prepare", "--dataset", str(tmp_path / "none.jsonl"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--out-dir", str(tmp_path), "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_lists_reference_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["finetune", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "1e-05" in text       # peak learning rate
        assert "0.1" in text         # dropout
        assert "default: 16" in text  # effective batch size
