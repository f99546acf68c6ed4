"""Optimizer, schedule, pretraining and fine-tuning loops."""

import math
import tempfile
import tracemalloc
import types

import numpy as np
import pytest

from emofuse import tensor as T
from emofuse import training
from emofuse.data import HEAD_OUTPUTS, TokenizedExample, generate_synthetic, tokenize_examples
from emofuse.encoder import EncoderConfig, EncoderState, forward, forward_many
from emofuse.errors import ConfigError, EmofuseError, InputError, NumericError, UsageError
from emofuse.fusion import FUSION_KINDS, FusionModel, LinearHead
from emofuse.metrics import evaluate_classification, evaluate_scores
from emofuse.speech import train_codebook
from emofuse.text import build_vocab
from emofuse.tokens import CLS, TokenSequence
from emofuse.training import (
    AdamState,
    EPS,
    TrainConfig,
    _model_outputs,
    adam_step,
    classification_loss,
    collect_gradients,
    evaluate_model,
    lr_at,
    overfit_one_batch,
    predict_class,
    predict_score,
    run_finetune,
    run_pretraining,
)

from conftest import copy_arrays, out_of_place_adam_step

TINY = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                     vocab_size=11, max_len=16, dropout_rate=0.1)


class TestLrSchedule:
    def cfg(self, **kw):
        base = dict(peak_lr=1e-5, warmup_steps=100, total_steps=1000)
        base.update(kw)
        return TrainConfig(**base)

    def test_ramp_start_is_zero(self):
        assert lr_at(0, self.cfg()) == 0.0

    def test_peak_at_warmup_boundary(self):
        assert lr_at(100, self.cfg()) == 1e-5

    def test_linear_midpoint_is_half_peak(self):
        assert abs(lr_at(550, self.cfg()) - 0.5e-5) < 1e-20

    def test_continuous_at_boundary(self):
        cfg = self.cfg()
        before = lr_at(99, cfg)
        at = lr_at(100, cfg)
        after = lr_at(101, cfg)
        assert before < at and abs(at - cfg.peak_lr) == 0.0
        assert abs(after - at) < 2 * cfg.peak_lr / (cfg.total_steps - cfg.warmup_steps)

    def test_decays_to_zero(self):
        assert lr_at(1000, self.cfg()) == 0.0

    def test_out_of_range_step(self):
        with pytest.raises(UsageError):
            lr_at(1001, self.cfg())
        with pytest.raises(UsageError):
            lr_at(-1, self.cfg())

    def test_warmup_must_precede_total(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=10, total_steps=10)

    @pytest.mark.parametrize("field, value", [
        ("peak_lr", -1e-3), ("peak_lr", math.nan), ("peak_lr", math.inf),
        ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", math.nan), ("grad_clip", math.inf),
    ])
    def test_bad_lr_or_clip_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)

    def test_default_warmup_is_six_percent(self):
        cfg = TrainConfig(total_steps=1000).resolved()
        assert cfg.warmup_steps == 60


class TestAdam:
    def make(self, values, grads):
        params = {"w": T.Tensor(np.array(values), requires_grad=True)}
        return params, {"w": np.array(grads)}, AdamState.fresh(params)

    def test_first_step_closed_form(self):
        params, grads, opt = self.make([1.0, -2.0, 3.0], [0.5, -1.0, 2.0])
        lr = 1e-3
        g = grads["w"].copy()
        expected = np.array([1.0, -2.0, 3.0]) - lr * g / (np.abs(g) + EPS)
        adam_step(params, grads, opt, lr)
        assert np.abs(params["w"].data - expected).max() < 1e-12
        assert opt.step == 1

    def test_zero_gradient_leaves_params(self):
        params, grads, opt = self.make([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        adam_step(params, grads, opt, 1e-2)
        assert np.array_equal(params["w"].data, [1.0, 2.0, 3.0])

    def test_zero_lr_updates_moments_only(self):
        params, grads, opt = self.make([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        adam_step(params, grads, opt, 0.0)
        assert np.array_equal(params["w"].data, [1.0, 2.0, 3.0])
        assert opt.m["w"].any() and opt.v["w"].any()

    @pytest.mark.parametrize("lrs", [[1e-3, 3e-2, 1e-3, 5e-4, 1e-2], [0.0, 0.0, 1e-3, 0.0]])
    def test_bitwise_equal_to_out_of_place_formula(self, rng, lrs):
        shapes = {"w": (5, 3), "b": (1, 3), "s": ()}
        start = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
        runs = []
        for step_fn in (adam_step, out_of_place_adam_step):
            params = {n: T.Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
            opt = AdamState.fresh(params)
            draws = np.random.default_rng(5)
            for lr in lrs:
                grads = {n: draws.standard_normal(shape) * 10.0 ** draws.integers(-9, 3)
                         for n, shape in shapes.items()}
                step_fn(params, grads, opt, lr)
            runs.append((params, opt))
        (params, opt), (ref_params, ref_opt) = runs
        assert opt.step == ref_opt.step == len(lrs)
        for n in shapes:
            assert np.array_equal(params[n].data, ref_params[n].data)
            assert np.array_equal(opt.m[n], ref_opt.m[n])
            assert np.array_equal(opt.v[n], ref_opt.v[n])

    def test_nan_lr_rejected(self):
        params, grads, opt = self.make([1.0], [0.5])
        with pytest.raises(UsageError):
            adam_step(params, grads, opt, math.nan)

    def test_nan_gradient_names_parameter(self):
        for bad in (np.nan, np.inf, -np.inf):
            params, grads, opt = self.make([1.0], [bad])
            with pytest.raises(NumericError) as err:
                adam_step(params, grads, opt, 1e-3)
            assert "'w'" in str(err.value)
            assert params["w"].data[0] == 1.0

    def test_nan_in_last_gradient_changes_nothing(self):
        params = {n: T.Tensor(np.full(3, float(i)), requires_grad=True)
                  for i, n in enumerate(("a", "b", "c"))}
        opt = AdamState.fresh(params)
        adam_step(params, {n: np.ones(3) for n in params}, opt, 1e-3)
        before = [{n: a.copy() for n, a in arrays.items()}
                  for arrays in ({n: p.data for n, p in params.items()}, opt.m, opt.v)]
        grads = {"a": np.ones(3), "b": np.ones(3), "c": np.array([1.0, np.nan, 1.0])}
        with pytest.raises(NumericError, match="'c'"):
            adam_step(params, grads, opt, 1e-3)
        assert opt.step == 1
        after = ({n: p.data for n, p in params.items()}, opt.m, opt.v)
        for old, new in zip(before, after):
            assert all(np.array_equal(old[n], new[n]) for n in params)


def tiny_corpus(rng, n_seqs=4, body=8):
    out = []
    for _ in range(n_seqs):
        ids = rng.integers(5, TINY.vocab_size, size=body)
        out.append(TokenSequence("speech", (CLS, *ids)))
    return out


class TestPretraining:
    def test_initial_loss_near_log_vocab(self, rng):
        state = EncoderState.init(TINY, np.random.default_rng(0))
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=5, batch_size=4, seed=1)
        losses = run_pretraining(tiny_corpus(rng), state, cfg)
        assert abs(losses[0] - math.log(TINY.vocab_size)) < 0.05 * math.log(TINY.vocab_size)

    def test_overfit_single_repeated_batch(self, rng):
        state = EncoderState.init(TINY, np.random.default_rng(0))
        corpus = tiny_corpus(rng, n_seqs=1)
        cfg = TrainConfig(peak_lr=3e-3, warmup_steps=30, total_steps=500, batch_size=4, seed=2)
        losses = run_pretraining(corpus, state, cfg)
        assert losses[-1] < 0.1 * math.log(TINY.vocab_size)

    def test_overfit_smoothed_loss_monotone_after_step_50(self, rng):
        state = EncoderState.init(TINY, np.random.default_rng(0))
        batch = tiny_corpus(rng, n_seqs=4)
        cfg = TrainConfig(peak_lr=3e-3, warmup_steps=30, total_steps=300, batch_size=4, seed=2)
        losses = overfit_one_batch(state, batch, cfg, seed=2)
        assert losses[-1] < 0.1 * math.log(TINY.vocab_size)
        windows = [np.mean(losses[i : i + 10]) for i in range(50, len(losses) - 10, 10)]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + 1e-9

    def test_memorizes_single_repeated_token(self):
        state = EncoderState.init(TINY, np.random.default_rng(0))
        seq = TokenSequence("speech", (CLS, 7, 7, 7, 7, 7, 7))
        cfg = TrainConfig(peak_lr=3e-3, warmup_steps=20, total_steps=200, batch_size=4, seed=4)
        losses = overfit_one_batch(state, [seq] * 4, cfg, mask_rate=0.3, seed=4)
        assert losses[-1] < 0.05

    def test_same_seed_identical_curves(self, rng):
        corpus = tiny_corpus(rng)
        curves = []
        for _ in range(2):
            state = EncoderState.init(TINY, np.random.default_rng(0))
            cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=8, batch_size=2, seed=5)
            curves.append(run_pretraining(corpus, state, cfg))
        assert curves[0] == curves[1]

    def test_resume_continues_step_counter(self, rng):
        corpus = tiny_corpus(rng)
        state = EncoderState.init(TINY, np.random.default_rng(0))
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=10, batch_size=2, seed=5)
        opt = AdamState.fresh(state.params)
        run_pretraining(corpus, state, cfg, opt=opt)
        assert opt.step == 10
        more = run_pretraining(corpus, state, TrainConfig(
            peak_lr=1e-3, warmup_steps=2, total_steps=14, batch_size=2, seed=5),
            opt=opt)
        assert opt.step == 14 and len(more) == 4

    def test_each_example_draws_from_its_own_counter_seeded_generator(self, rng, set_lanes,
                                                                      monkeypatch):
        """Step s draws its batch from the generator of (seed, s), and the example at
        position k masks from that of (seed, s, k), whatever its neighbours draw."""
        set_lanes(1)  # the worker's examples would be recorded in the worker
        corpus = tiny_corpus(rng)
        drawn, mask_corrupt = [], training.mask_corrupt

        def recording(seq, rate, gen, vocab_size):
            drawn.append((seq, gen.bit_generator.state))
            return mask_corrupt(seq, rate, gen, vocab_size)

        monkeypatch.setattr(training, "mask_corrupt", recording)
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=1, total_steps=3, batch_size=3, seed=5)
        run_pretraining(corpus, EncoderState.init(TINY, np.random.default_rng(0)), cfg)
        batches = {s: training._generator(5, s).integers(0, len(corpus), size=3)
                   for s in (1, 2, 3)}
        assert drawn == [(corpus[i], training._generator(5, s, k).bit_generator.state)
                         for s, batch in batches.items() for k, i in enumerate(batch)]

    def test_resume_from_a_mid_run_copy_matches_the_straight_run(self, rng):
        corpus = tiny_corpus(rng)
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=8, batch_size=2, seed=5)
        state = EncoderState.init(TINY, np.random.default_rng(0))
        opt = AdamState.fresh(state.params)
        saved = {}

        def keep_step_4(step, lr, loss):
            if step == 4:
                saved.update(params=copy_arrays(state), step=opt.step,
                             m={n: a.copy() for n, a in opt.m.items()},
                             v={n: a.copy() for n, a in opt.v.items()})

        straight = run_pretraining(corpus, state, cfg, log_fn=keep_step_4, opt=opt)
        resumed_state = EncoderState.init(TINY, None)
        for name, p in resumed_state.params.items():
            p.data = saved["params"][name]
        resumed_opt = AdamState(saved["m"], saved["v"], step=saved["step"])
        resumed = run_pretraining(corpus, resumed_state, cfg, opt=resumed_opt)
        assert resumed == straight[4:]
        assert all(np.array_equal(p.data, resumed_state.params[n].data)
                   for n, p in state.params.items())


def build_finetune_fixture(n=80, seed=0, d_s=16, d_t=16):
    ds = generate_synthetic(n, seed=seed)
    train = ds.subset("train")
    frames = np.concatenate([ex.frames for ex in train])
    cb = train_codebook(frames, k=8, seed=seed)
    vocab = build_vocab([ex.text for ex in train], max_size=64)
    cfg_s = EncoderConfig(2, d_s, 2, 4 * d_s, 5 + cb.k, 64, dropout_rate=0.1)
    cfg_t = EncoderConfig(2, d_t, 2, 4 * d_t, vocab.size, 16, dropout_rate=0.1)
    rng = np.random.default_rng(seed + 1)
    speech = EncoderState.init(cfg_s, rng)
    text = EncoderState.init(cfg_t, rng)
    tok = {
        split: tokenize_examples(ds.subset(split), cb, vocab, speech_max_len=64, text_max_len=16)
        for split in ("train", "valid", "test")
    }
    return tok, speech, text


def softmax_regression_oracle(features, labels, n_classes=4):
    """Plain full-batch gradient-descent softmax regression on raw arrays."""
    x = np.asarray(features)
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-8)
    x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    y = np.asarray(labels)
    w = np.zeros((x.shape[1], n_classes))
    onehot = np.eye(n_classes)[y]
    for _ in range(500):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= 0.5 * x.T @ (p - onehot) / len(x)
    preds = np.argmax(x @ w, axis=1)
    return float((preds == y).mean())


class TestFinetune:
    def test_freeze_both_keeps_encoders_bitwise(self):
        tok, speech, text = build_finetune_fixture(n=40)
        model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                            speech=speech, text=text)
        before_s = copy_arrays(speech)
        before_t = copy_arrays(text)
        cfg = TrainConfig(peak_lr=1e-2, batch_size=8, seed=0,
                          freeze_speech=True, freeze_text=True)
        run_finetune(tok["train"], tok["valid"], model, cfg, epochs=2)
        after_s = copy_arrays(speech)
        after_t = copy_arrays(text)
        assert all(np.array_equal(before_s[k], after_s[k]) for k in before_s)
        assert all(np.array_equal(before_t[k], after_t[k]) for k in before_t)

    def test_frozen_params_receive_no_optimizer_state(self):
        tok, speech, text = build_finetune_fixture(n=40)
        model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                            speech=speech, text=text)
        cfg = TrainConfig(peak_lr=1e-2, batch_size=8, seed=0, freeze_speech=True)
        result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=1)
        assert result.history
        assert not any(name.startswith("speech.") for name in result.optimizer.m)
        assert any(name.startswith("text.") for name in result.optimizer.m)
        assert any(name.startswith("fusion.") for name in result.optimizer.m)

    def test_separable_dataset_reaches_high_train_accuracy(self):
        tok, speech, text = build_finetune_fixture(n=80)

        # Independent separability oracle: softmax regression on the frozen
        # CLS features must already classify the training split.
        from emofuse.encoder import forward

        feats, labels = [], []
        for ex in tok["train"]:
            cls_s = forward(ex.speech, speech).cls.data[0]
            cls_t = forward(ex.text, text).cls.data[0]
            feats.append(np.concatenate([cls_s, cls_t]))
            labels.append(int(ex.target))
        assert softmax_regression_oracle(feats, labels) >= 0.9

        model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(3)),
                            speech=speech, text=text)
        cfg = TrainConfig(peak_lr=1e-3, batch_size=8, seed=1)
        run_finetune(tok["train"], [], model, cfg, epochs=20)
        report = evaluate_model(model, tok["train"], "categorical")
        assert report.accuracy4 >= 0.99

    def test_same_seed_identical_history(self):
        histories = []
        for _ in range(2):
            tok, speech, text = build_finetune_fixture(n=40)
            model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                                speech=speech, text=text)
            cfg = TrainConfig(peak_lr=1e-2, batch_size=8, seed=9)
            result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=2)
            histories.append(result.history)
        assert histories[0] == histories[1]

    def test_batch_factoring_invariance(self):
        tok, speech, text = build_finetune_fixture(n=40)
        batch = tok["train"][:16]

        def grads_with_chunks(n_chunks):
            rng = np.random.default_rng(4)
            model = FusionModel("shallow", LinearHead.init(32, 8, rng),
                                speech=speech, text=text)
            params = model.named_params()
            T.zero_grads(params.values())
            chunk = len(batch) // n_chunks
            from emofuse.encoder import forward

            for c in range(n_chunks):
                for ex in batch[c * chunk : (c + 1) * chunk]:
                    out = model.fuse(forward(ex.speech, speech), forward(ex.text, text))
                    T.backward(classification_loss(out.logits, int(ex.target)))
            grads = collect_gradients(params, len(batch))
            T.zero_grads(params.values())
            return grads

        one = grads_with_chunks(1)
        four = grads_with_chunks(4)
        assert all(np.array_equal(one[k], four[k]) for k in one)

    def test_empty_train_rejected(self):
        tok, speech, text = build_finetune_fixture(n=40)
        model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                            speech=speech, text=text)
        with pytest.raises(Exception):
            run_finetune([], tok["valid"], model, TrainConfig(), epochs=1)

    def test_score_mode_trains_against_mae(self):
        ds = generate_synthetic(40, seed=6, mode="score")
        frames = np.concatenate([ex.frames for ex in ds.subset("train")])
        cb = train_codebook(frames, k=8, seed=6)
        vocab = build_vocab([ex.text for ex in ds.examples], max_size=64)
        tok = {s: tokenize_examples(ds.subset(s), cb, vocab, speech_max_len=64, text_max_len=16)
               for s in ("train", "valid")}
        rng = np.random.default_rng(6)
        cfg_s = EncoderConfig(1, 16, 2, 32, 5 + cb.k, 64, dropout_rate=0.1)
        cfg_t = EncoderConfig(1, 16, 2, 32, vocab.size, 16, dropout_rate=0.1)
        model = FusionModel("shallow", LinearHead.init(32, 1, rng),
                            speech=EncoderState.init(cfg_s, rng),
                            text=EncoderState.init(cfg_t, rng))
        cfg = TrainConfig(peak_lr=3e-3, batch_size=8, seed=6)
        result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=4,
                              label_mode="score")
        valid_rows = [h for h in result.history if h["split"] == "valid"]
        assert all(row["metric"] == "mae" for row in valid_rows)
        assert result.best_metric == min(row["value"] for row in valid_rows)
        report = evaluate_model(model, tok["valid"], "score")
        assert report.mae is not None and report.acc7 is not None
        losses = [h["value"] for h in result.history if h["metric"] == "loss"]
        assert losses[-1] < losses[0]


def params_of(model):
    return {name: p.data.copy() for name, p in model.named_params().items()}


def spy_temporary_files(monkeypatch):
    """The files ``tempfile.TemporaryFile`` opens from here on, in order."""
    opened, real = [], tempfile.TemporaryFile

    def counted(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    return opened


class TestBestEpochFile:
    """A best validation epoch before the last is kept in an unnamed temporary file and
    read back into the parameters when no later epoch improves on it."""

    def run(self, monkeypatch, accuracies, epochs=None, valid=True, at_validation=None):
        """A shallow fine-tune whose validation accuracies are ``accuracies`` in turn;
        returns the result, each epoch's parameters at its validation, the final
        parameters and the files opened. ``at_validation(epoch)`` runs at each."""
        tok, speech, text = build_finetune_fixture(n=40)
        model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                            speech=speech, text=text)
        scores, after, opened = iter(accuracies), [], spy_temporary_files(monkeypatch)

        def scripted(*args, **kwargs):
            after.append(params_of(model))
            if at_validation is not None:
                at_validation(len(after))
            return types.SimpleNamespace(accuracy4=next(scores))

        monkeypatch.setattr(training, "evaluate_model", scripted)
        cfg = TrainConfig(peak_lr=1e-2, batch_size=8, seed=0)
        result = run_finetune(tok["train"], tok["valid"] if valid else [], model, cfg,
                              epochs=epochs or len(accuracies))
        assert all(f.closed for f in opened)
        return result, after, params_of(model), opened

    @pytest.mark.parametrize("n_lanes", [1, 2])
    @pytest.mark.parametrize("last", [0.5, 0.75], ids=["worse", "tie"])
    def test_a_later_epoch_no_better_restores_the_best_bitwise(self, monkeypatch, set_lanes,
                                                               n_lanes, last):
        """A tie is no improvement."""
        set_lanes(n_lanes)
        result, after, final, opened = self.run(monkeypatch, [0.5, 0.75, last])
        assert result.best_epoch == 2 and result.best_metric == 0.75
        assert all(np.array_equal(final[n], after[1][n]) for n in final)
        assert not all(np.array_equal(final[n], after[2][n]) for n in final)
        assert len(opened) == 1

    @pytest.mark.parametrize("accuracies, epochs, valid, files", [
        ([0.5], 1, True, 0),
        ([], 2, False, 0),
        ([0.5, 0.75], 2, True, 1),  # epoch 1's bytes, never read back
        ([0.5, 0.6, 0.75], 3, True, 1),  # one file, rewritten
    ], ids=["one-epoch", "no-valid-split", "last-best", "each-better"])
    def test_files_opened(self, monkeypatch, accuracies, epochs, valid, files):
        result, after, final, opened = self.run(monkeypatch, accuracies, epochs, valid)
        assert len(opened) == files
        assert result.best_epoch == len(accuracies)
        if after:
            assert all(np.array_equal(final[n], after[-1][n]) for n in final)

    def test_a_truncated_file_is_an_error_naming_it(self, monkeypatch):
        opened = spy_temporary_files(monkeypatch)

        def truncate(epoch):
            if epoch == 2:
                opened[0].truncate(8)

        with pytest.raises(EmofuseError, match="best-epoch file in .*: the file ends early"):
            self.run(monkeypatch, [0.5, 0.25], at_validation=truncate)
        assert len(opened) == 1 and opened[0].closed

    def test_a_numeric_error_after_a_spill_leaves_no_open_file(self, monkeypatch):
        example_loss, validated = training._example_loss, []
        opened = spy_temporary_files(monkeypatch)

        def failing(*args):
            if validated:
                raise NumericError("went non-finite")
            return example_loss(*args)

        monkeypatch.setattr(training, "_example_loss", failing)
        with pytest.raises(NumericError, match="optimizer step 4: went non-finite"):
            self.run(monkeypatch, [0.5, 0.75], at_validation=validated.append)
        assert len(opened) == 1 and opened[0].closed

    def test_the_best_epoch_takes_no_second_copy_of_the_parameters(self, set_lanes):
        """With a valid split, the traced peak stays within half the trainable bytes of
        the peak without one: the best epoch's parameters are not held in memory."""
        set_lanes(1)
        peaks = []
        for valid in (False, True):
            tok, speech, text = build_finetune_fixture(n=40)
            model = FusionModel("shallow", LinearHead.init(32, 8, np.random.default_rng(2)),
                                speech=speech, text=text)
            cfg = TrainConfig(peak_lr=1e-2, batch_size=8, seed=0)
            tracemalloc.start()
            try:
                run_finetune(tok["train"], tok["valid"] if valid else [], model, cfg, epochs=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        size = sum(p.data.nbytes for p in model.named_params().values())
        assert peaks[1] - peaks[0] < size / 2


class TestEvaluationRecordsNoGraph:
    def _coattn_model(self):
        text_cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                                 vocab_size=11, max_len=16, dropout_rate=0.1)
        return FusionModel.init("coattn", TINY, text_cfg, 8, 2, np.random.default_rng(6))

    def _example(self, i):
        return TokenizedExample(f"e{i}", TokenSequence("speech", (CLS, 5 + i, 6, 7)),
                                TokenSequence("text", (CLS, 8, 5 + i)), i % 4)

    def test_no_grad_logits_bitwise_equal_to_recorded(self):
        model = self._coattn_model()
        ex = self._example(1)

        def logits():
            return model.fuse(*_model_outputs(model, ex, False, None, {})).logits

        recorded = logits()
        with T.no_grad():
            bare = logits()
        assert recorded.op is not None and bare.op is None
        assert np.array_equal(bare.data, recorded.data)

    def test_evaluate_model_forwards_record_nothing(self, monkeypatch, set_lanes):
        set_lanes(1)  # a worker's outputs would be recorded in the worker
        outputs = []

        def recording_forward_many(*args, **kwargs):
            outputs.extend(forward_many(*args, **kwargs))
            return outputs[-len(args[0]):]

        monkeypatch.setattr(training, "forward_many", recording_forward_many)
        evaluate_model(self._coattn_model(), [self._example(i) for i in range(3)], "categorical")
        assert len(outputs) == 6
        assert all(out.hidden.op is None for out in outputs)
        x = T.Tensor([[1.0]], requires_grad=True)
        assert (x + x).op is not None


class TestEvaluateInLengthGroups:
    """evaluate_model against one ``forward`` per example and modality, then ``fuse``."""

    TEXT = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                         vocab_size=11, max_len=16, dropout_rate=0.1)
    # Speech lengths 4, 2, 4, 7, 2, 4, 3 and text lengths 3, 3, 5, 3, 2, 5, 6:
    # shared and unique lengths in both modalities, grouped differently.
    SPEECH = ([5, 6, 7], [8], [9, 5, 6], [5, 6, 7, 8, 9, 10], [7], [6, 6, 6], [5, 9])
    TEXT_IDS = ([8, 5], [9, 9], [5, 6, 7, 8], [10, 6], [7], [5, 5, 5, 5], [6, 7, 8, 9, 10])

    def _examples(self, label_mode):
        return [TokenizedExample(f"e{i}", TokenSequence("speech", (CLS, *s)),
                                 TokenSequence("text", (CLS, *t)),
                                 i % 4 if label_mode == "categorical" else i / 3.0)
                for i, (s, t) in enumerate(zip(self.SPEECH, self.TEXT_IDS))]

    def _model(self, kind, label_mode):
        rng = np.random.default_rng(7)
        model = FusionModel.init(kind, TINY, self.TEXT, HEAD_OUTPUTS[label_mode], 2, rng)
        for p in model.named_params().values():  # off the near-zero init and zero biases
            p.data = rng.normal(0.0, 0.5, size=p.data.shape)
        return model

    @pytest.mark.parametrize("kind, label_mode, frozen", [
        *((kind, "categorical", None) for kind in FUSION_KINDS),
        ("coattn", "score", None),
        ("shallow", "categorical", "speech"),
        ("coattn", "score", "text"),
    ])
    def test_reports_and_logits_match_per_example_forwards(self, monkeypatch, set_lanes, kind,
                                                           label_mode, frozen):
        set_lanes(1)  # the chunks a worker encodes would be counted in the worker
        model = self._model(kind, label_mode)
        examples = self._examples(label_mode)
        with T.no_grad():
            reference = [model.fuse(*(forward(getattr(ex, m), state)
                                      for m, state in model.encoders().items())).logits.data
                         for ex in examples]
        if label_mode == "categorical":
            expected = evaluate_classification([predict_class(lg) for lg in reference],
                                               [ex.target for ex in examples])
        else:
            expected = evaluate_scores([predict_score(lg) for lg in reference],
                                       [ex.target for ex in examples])

        seen, calls = [], []
        for name in ("predict_class", "predict_score"):
            original = getattr(training, name)
            monkeypatch.setattr(training, name, lambda lg, _f=original: seen.append(lg) or _f(lg))
        monkeypatch.setattr(training, "forward_many",
                            lambda seqs, state: calls.append(len(seqs)) or forward_many(seqs, state))
        # Each example's outputs take 8 bytes x max_len x d_model per encoder.
        width = 8 * sum(state.cfg.max_len * state.cfg.d_model for state in model.encoders().values())
        for budget, sizes in ((training.EVAL_BYTES, [7]), (3 * width + 1, [3, 3, 1])):
            monkeypatch.setattr(training, "EVAL_BYTES", budget)
            seen.clear()
            calls.clear()
            tables = {frozen: {getattr(ex, frozen).ids: forward(getattr(ex, frozen),
                                                                getattr(model, frozen))
                               for ex in examples}} if frozen else None
            report = evaluate_model(model, examples, label_mode, tables=tables)
            assert report == expected
            assert len(seen) == len(examples)
            assert all(np.array_equal(got, want) for got, want in zip(seen, reference))
            assert sorted(calls) == sorted(sizes * (len(model.encoders()) - bool(frozen)))

    def test_unknown_label_mode_rejected(self):
        with pytest.raises(InputError, match="label mode"):
            evaluate_model(self._model("shallow", "score"), self._examples("score"), "ordinal")


class TestEncoderCache:
    def test_duplicate_ids_keep_their_own_features(self, monkeypatch):
        """Two examples with one example id and different speech: a frozen encoder's
        table serves each its own sequence's features."""
        state = EncoderState.init(TINY, np.random.default_rng(0))
        model = FusionModel("speech-only", LinearHead.init(16, 8, np.random.default_rng(1)),
                            speech=state)
        text = TokenSequence("text", (CLS, 7))
        first = TokenizedExample("dup", TokenSequence("speech", (CLS, 5, 6)), text, 0)
        second = TokenizedExample("dup", TokenSequence("speech", (CLS, 9, 8, 7)), text, 1)
        served, outputs = {}, training._model_outputs

        def spy(model, ex, *rest):
            [out] = outputs(model, ex, *rest)
            served[ex.speech.ids] = out.hidden.data
            return [out]

        monkeypatch.setattr(training, "_model_outputs", spy)
        # One example a step, so every example runs in this process on two lanes too.
        cfg = TrainConfig(peak_lr=1e-3, batch_size=1, freeze_speech=True)
        run_finetune([first, second], [], model, cfg, epochs=1)
        assert len(served) == 2
        for ex in (first, second):
            want = forward(ex.speech, state).hidden.data
            assert np.array_equal(served[ex.speech.ids], want)


class TestClassificationHead:
    def test_loss_and_prediction_consistency(self, rng):
        logits = T.Tensor(rng.standard_normal((1, 8)), requires_grad=True)
        loss = classification_loss(logits, 2)
        assert loss.item() > 0.0
        T.backward(loss)
        assert logits.grad is not None

    def test_predict_class_uses_pair_margins(self):
        data = np.array([[0.0, 1.0, 0.0, 5.0, 0.0, -1.0, 0.0, 0.0]])
        assert predict_class(data) == 1

    def test_odd_logit_count_rejected(self):
        with pytest.raises(ConfigError):
            classification_loss(T.Tensor(np.zeros((1, 7))), 0)
