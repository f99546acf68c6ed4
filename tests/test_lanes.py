"""The helper lane: one lane or two give the same bits, and no helper work
outlives an error."""

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from emofuse import encoder, lanes, training
from emofuse.cli import main
from emofuse.data import HEAD_OUTPUTS, TokenizedExample, generate_synthetic, tokenize_examples
from emofuse.encoder import EncoderConfig, EncoderState
from emofuse.errors import NumericError
from emofuse.fusion import FusionModel
from emofuse.speech import train_codebook
from emofuse.text import build_vocab
from emofuse.tokens import CLS, TokenSequence
from emofuse.training import (
    AdamState,
    TrainConfig,
    evaluate_model,
    overfit_one_batch,
    run_finetune,
    run_pretraining,
)

ROOT = Path(__file__).resolve().parents[1]
TINY = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                     vocab_size=11, max_len=12, dropout_rate=0.1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def across_lanes(set_lanes, run):
    """``run()`` on one lane, then on two."""
    results = []
    for n in (1, 2):
        set_lanes(n)
        results.append(run())
    return results


def assert_same_arrays(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@functools.lru_cache(maxsize=None)
def splits(label_mode):
    ds = generate_synthetic(40, seed=3, mode=label_mode)
    train = ds.subset("train")
    cb = train_codebook(np.concatenate([ex.frames for ex in train]), k=8, seed=3)
    vocab = build_vocab([ex.text for ex in train], max_size=64)
    tok = {s: tokenize_examples(ds.subset(s), cb, vocab, speech_max_len=64, text_max_len=16)
           for s in ("train", "valid")}
    return tok, 5 + cb.k, vocab.size


@pytest.mark.parametrize("kind, frozen, label_mode", [
    ("coattn", None, "categorical"),
    ("shallow", "speech", "categorical"),
    ("coattn", None, "score"),
])
def test_run_finetune_bitwise_across_lanes(set_lanes, kind, frozen, label_mode):
    tok, speech_vocab, text_vocab = splits(label_mode)

    def run():
        model = FusionModel.init(
            kind, EncoderConfig(1, 16, 2, 32, speech_vocab, 64, dropout_rate=0.1),
            EncoderConfig(1, 16, 2, 32, text_vocab, 16, dropout_rate=0.1),
            HEAD_OUTPUTS[label_mode], 2, np.random.default_rng(4), fusion_dropout=0.1)
        cfg = TrainConfig(peak_lr=3e-3, batch_size=4, seed=4, freeze_speech=frozen == "speech")
        result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=2,
                              label_mode=label_mode)
        params = {n: p.data.copy() for n, p in model.named_params().items()}
        return params, result.optimizer, result.history, result.best_epoch

    (params1, opt1, hist1, best1), (params2, opt2, hist2, best2) = across_lanes(set_lanes, run)
    assert_same_arrays(params1, params2)
    assert_same_arrays(opt1.m, opt2.m)
    assert_same_arrays(opt1.v, opt2.v)
    assert opt1.step == opt2.step > 0
    assert hist1 == hist2 and best1 == best2


def corpus():
    rng = np.random.default_rng(6)
    return [TokenSequence("speech", (CLS, *rng.integers(5, TINY.vocab_size, size=n)))
            for n in (3, 8, 5, 8, 9)]


def test_run_pretraining_bitwise_across_lanes(set_lanes):
    def run():
        state = EncoderState.init(TINY, np.random.default_rng(0))
        opt = AdamState.fresh(state.params)
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=6, batch_size=3, seed=5)
        losses = run_pretraining(corpus(), state, cfg, opt=opt)
        return {n: p.data.copy() for n, p in state.params.items()}, opt, losses

    (params1, opt1, losses1), (params2, opt2, losses2) = across_lanes(set_lanes, run)
    assert losses1 == losses2
    assert_same_arrays(params1, params2)
    assert_same_arrays(opt1.m, opt2.m)
    assert_same_arrays(opt1.v, opt2.v)


def test_overfit_one_batch_bitwise_across_lanes(set_lanes):
    def run():
        state = EncoderState.init(TINY, np.random.default_rng(0))
        cfg = TrainConfig(peak_lr=3e-3, warmup_steps=2, total_steps=6, batch_size=4)
        losses = overfit_one_batch(state, corpus()[:4], cfg, seed=2)
        return {n: p.data.copy() for n, p in state.params.items()}, losses

    (params1, losses1), (params2, losses2) = across_lanes(set_lanes, run)
    assert losses1 == losses2
    assert_same_arrays(params1, params2)


def test_evaluate_model_logits_bitwise_across_lanes(set_lanes, monkeypatch):
    text_cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                             max_len=16, dropout_rate=0.1)
    rng = np.random.default_rng(7)
    model = FusionModel.init("coattn", TINY, text_cfg, HEAD_OUTPUTS["categorical"], 2, rng)
    for p in model.named_params().values():
        p.data = rng.normal(0.0, 0.5, size=p.data.shape)
    # Speech lengths 2-5 and text lengths 2-4, in mixed order.
    examples = [TokenizedExample(f"e{i}", TokenSequence("speech", (CLS, *[5] * (1 + i % 4))),
                                 TokenSequence("text", (CLS, *[6] * (1 + i % 3))), i % 4)
                for i in range(24)]
    # One row a stack, so both lanes take stacks.
    monkeypatch.setattr(encoder, "STACK_BYTES", 1)
    seen = []
    predict = training.predict_class
    monkeypatch.setattr(training, "predict_class", lambda lg: seen.append(lg) or predict(lg))

    def run():
        seen.clear()
        report = evaluate_model(model, examples, "categorical")
        return report, list(seen)

    (report1, logits1), (report2, logits2) = across_lanes(set_lanes, run)
    assert report1 == report2
    assert len(logits1) == len(logits2) == len(examples)
    assert all(np.array_equal(a, b) for a, b in zip(logits1, logits2))


def test_share_keeps_order_and_stops_claiming_after_an_error(set_lanes):
    set_lanes(2)
    assert lanes.share(lambda i: i * i, list(range(50))) == [i * i for i in range(50)]
    claimed = []

    def fn(i):
        claimed.append(i)
        if i == 3:
            raise NumericError("item 3")
        time.sleep(0.01)
        return i

    with pytest.raises(NumericError, match="item 3"):
        lanes.share(fn, list(range(50)))
    assert len(claimed) < 10
    assert lanes.submit(len, claimed).result() == len(claimed)  # the helper is idle


@pytest.mark.parametrize("env, pinned", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({}, False),
])
def test_blas_pin_is_the_count_openblas_reads(monkeypatch, env, pinned):
    if "mkl" in str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]):
        pytest.skip("numpy's BLAS here is MKL")
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert lanes._blas_pinned() is pinned


def _child_env(pin: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return dict(env, OPENBLAS_NUM_THREADS="1") if pin else env


def test_finetune_with_blas_pinned_writes_the_same_model(tmp_path):
    work = str(tmp_path)
    inputs = [f"--dataset={work}/dataset.jsonl", f"--vocab={work}/vocab.txt",
              f"--codebook={work}/codebook.bin"]
    assert main(["gen-data", "--n=40", "--seed=0", f"--out-dir={work}"]) == 0
    assert main(["prepare", inputs[0], "--vocab-size=64", "--codebook-size=8", "--seed=0",
                 f"--out-dir={work}"]) == 0
    arch = [f"--{m}-{flag}={value}" for m in ("speech", "text")
            for flag, value in (("layers", 1), ("dim", 16), ("heads", 2), ("ff", 32))]
    models = []
    for pin in (False, True):
        env = _child_env(pin)
        lanes_used = subprocess.run(
            [sys.executable, "-c", "from emofuse import lanes; print(2 if lanes.helper else 1)"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        assert lanes_used == ("2" if pin and lanes._CPUS >= 2 else "1")
        out = tmp_path / f"pin{int(pin)}"
        subprocess.run([sys.executable, "-m", "emofuse.cli", "finetune", *inputs, *arch,
                        "--fusion=coattn", "--epochs=2", "--batch-size=4", "--seed=1",
                        f"--out-dir={out}"], env=env, check=True, capture_output=True,
                       timeout=300)
        models.append((out / "model.ckpt").read_bytes())
    assert models[0] == models[1]
