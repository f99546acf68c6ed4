"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The slow criteria (5 and 6) train small models; the whole module
stays within its stated runtime budgets on a desktop CPU.
"""

import math
import time

import numpy as np
import pytest

from emofuse import tensor as T
from emofuse.cli import main as cli_main
from emofuse.checkpoint import (
    load_checkpoint,
    load_encoder_checkpoint,
    save_checkpoint,
    save_encoder_checkpoint,
)
from emofuse.data import generate_synthetic, tokenize_examples
from emofuse.encoder import (
    EncoderConfig,
    EncoderState,
    EncoderOutput,
    SPEECH_FULL_SCALE,
    TEXT_FULL_SCALE,
    forward,
    mask_corrupt,
    masked_lm_loss,
    param_count,
    parameter_shapes,
)
from emofuse.fileio import sha256_file
from emofuse.fusion import (
    CoAttentionBlock,
    FusionModel,
    LinearHead,
    coattention_param_count,
    fuse,
    shallow_head_param_count,
)
from emofuse.metrics import acc7, binary_accuracy, f1_score, mae
from emofuse.speech import Codebook, discretize, train_codebook
from emofuse.text import build_vocab
from emofuse.tokens import CLS, TokenSequence
from emofuse.training import (
    TrainConfig,
    classification_loss,
    evaluate_model,
    overfit_one_batch,
    regression_loss,
    run_finetune,
    run_pretraining,
)

from conftest import assert_grads_match, randomize_state

TINY = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                     vocab_size=11, max_len=12, dropout_rate=0.1)


def announce(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


def test_criterion_1_parameter_count_claims():
    start = time.time()
    assert shallow_head_param_count(768, 1024, 8) == 14_344
    head = LinearHead.init(768 + 1024, 8, None)
    assert head.param_count() == 14_344

    block = CoAttentionBlock.init(768, 1024, n_heads=8, rng=None)
    enumerated = sum(p.size for p in block.params.values())
    assert enumerated == 6_429_696
    assert coattention_param_count(768, 1024) == enumerated
    assert 5_500_000 <= enumerated <= 7_000_000
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(1, f"shallow head 14,344 and co-attention 6,429,696 parameters "
                f"(band [5.5M, 7.0M]) by enumeration in {elapsed:.2f}s")


def test_criterion_2_architecture_shape_claims():
    start = time.time()
    speech = EncoderState.init(SPEECH_FULL_SCALE, None)
    text = EncoderState.init(TEXT_FULL_SCALE, None)
    assert (speech.cfg.n_layers, speech.cfg.d_model, speech.cfg.max_len) == (12, 768, 2048)
    assert (text.cfg.n_layers, text.cfg.d_model, text.cfg.max_len) == (24, 1024, 512)
    for state in (speech, text):
        assert state.actual_param_count() == param_count(state.cfg)
        layer_names = {n.split(".")[1] for n in state.params if n.startswith("layers.")}
        assert len(layer_names) == state.cfg.n_layers

    rng = np.random.default_rng(77)
    for _ in range(5):
        heads = int(rng.integers(1, 4))
        cfg = EncoderConfig(
            n_layers=int(rng.integers(1, 5)),
            d_model=int(heads * rng.integers(2, 10)),
            n_heads=heads,
            d_ff=int(rng.integers(4, 64)),
            vocab_size=int(rng.integers(7, 64)),
            max_len=int(rng.integers(2, 40)),
        )
        by_shapes = sum(int(np.prod(s)) for _, s, _ in parameter_shapes(cfg))
        by_arrays = EncoderState.init(cfg, rng).actual_param_count()
        assert param_count(cfg) == by_shapes == by_arrays
    elapsed = time.time() - start
    assert elapsed < 5.0
    announce(2, f"full-scale encoders report 12/768 (max 2048) and 24/1024 (max 512); "
                f"closed-form counts match enumeration on 5 random configs in {elapsed:.2f}s")


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(13)

    # Masked-token loss through the full encoder, every parameter. States are
    # moved to a generic well-conditioned point first (see randomize_state).
    state = randomize_state(EncoderState.init(TINY, np.random.default_rng(7)), rng)
    seq = TokenSequence("speech", (CLS, 5, 6, 7, 8))
    corrupted, targets = mask_corrupt(seq, 0.6, seed=2, vocab_size=TINY.vocab_size)
    assert_grads_match(lambda: masked_lm_loss(state, corrupted, targets),
                       list(state.params.values()))

    # Shallow-fusion classification loss end to end through both encoders.
    text_cfg = EncoderConfig(2, 16, 2, 32, 13, 12, dropout_rate=0.1)
    speech_state = randomize_state(EncoderState.init(TINY, np.random.default_rng(8)), rng)
    text_state = randomize_state(EncoderState.init(text_cfg, np.random.default_rng(9)), rng)
    head = LinearHead.init(32, 8, rng)
    speech_seq = TokenSequence("speech", (CLS, 5, 9, 6))
    text_seq = TokenSequence("text", (CLS, 7, 8))

    def shallow_loss():
        out = fuse([forward(speech_seq, speech_state),
                    forward(text_seq, text_state)], head)
        return classification_loss(out.logits, 2)

    leaves = list(speech_state.params.values()) + list(text_state.params.values()) \
        + [head.w, head.b]
    assert_grads_match(shallow_loss, leaves)

    # Co-attention path: block, head, and both hidden sequences.
    block = CoAttentionBlock.init(16, 16, n_heads=2, rng=rng)
    hidden_s = T.Tensor(rng.standard_normal((4, 16)), requires_grad=True)
    hidden_t = T.Tensor(rng.standard_normal((3, 16)), requires_grad=True)
    co_head = LinearHead.init(32, 8, rng)

    def coattn_loss():
        out = fuse([EncoderOutput(hidden=hidden_s),
                    EncoderOutput(hidden=hidden_t)], co_head, block)
        return classification_loss(out.logits, 1)

    assert_grads_match(coattn_loss,
                       [hidden_s, hidden_t, co_head.w, co_head.b, *block.params.values()])

    # Regression (L1) head path.
    reg_head = LinearHead.init(16, 1, rng)
    cls_vec = T.Tensor(rng.standard_normal((1, 16)), requires_grad=True)
    assert_grads_match(lambda: regression_loss(reg_head.apply(cls_vec), 1.25),
                       [cls_vec, reg_head.w, reg_head.b])

    elapsed = time.time() - start
    assert elapsed < 60.0
    announce(3, f"all loss paths match central finite differences "
                f"(rel err < 1e-4, double precision) in {elapsed:.1f}s")


def test_criterion_4_zero_init_equivalence():
    start = time.time()
    rng = np.random.default_rng(4)
    head = LinearHead.init(128 + 160, 8, rng)
    block = CoAttentionBlock.init(128, 160, n_heads=4, rng=None)
    for _ in range(100):
        speech = EncoderOutput(hidden=T.Tensor(rng.standard_normal((int(rng.integers(1, 24)), 128))))
        text = EncoderOutput(hidden=T.Tensor(rng.standard_normal((int(rng.integers(1, 12)), 160))))
        co = fuse([speech, text], head, block).logits.data
        sh = fuse([speech, text], head).logits.data
        assert np.array_equal(co, sh)
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(4, f"zero-initialized co-attention equals shallow fusion bitwise on "
                f"100 random inputs in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def pretraining_corpus():
    ds = generate_synthetic(40, seed=21)
    frames = np.concatenate([ex.frames for ex in ds.examples])
    cb = train_codebook(frames, k=256, seed=21)
    return [discretize(ex.frames, cb, max_len=256) for ex in ds.examples]


def test_criterion_5_pretraining_sanity(pretraining_corpus):
    start = time.time()
    cfg_enc = EncoderConfig(4, 128, 4, 512, 5 + 256, 256, dropout_rate=0.1)
    log_v = math.log(cfg_enc.vocab_size)

    state = EncoderState.init(cfg_enc, np.random.default_rng(21))
    warm = TrainConfig(peak_lr=3e-4, warmup_steps=2, total_steps=3, batch_size=4, seed=0)
    losses = run_pretraining(pretraining_corpus[:8], state, warm)
    assert abs(losses[0] - log_v) < 0.05 * log_v

    state2 = EncoderState.init(cfg_enc, np.random.default_rng(22))
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=50, total_steps=500, batch_size=4, seed=1)
    curve = overfit_one_batch(state2, pretraining_corpus[:4], cfg, seed=3)
    assert min(curve) < 0.1 * log_v
    assert curve[-1] < 0.1 * log_v
    elapsed = time.time() - start
    assert elapsed < 300.0
    announce(5, f"initial masked-LM loss {losses[0]:.3f} within 5% of ln V = {log_v:.3f}; "
                f"overfit-one-batch loss {curve[-1]:.4f} < 0.1 ln V after 500 steps "
                f"({elapsed:.0f}s)")


@pytest.fixture(scope="module")
def ablation_fixture():
    ds = generate_synthetic(400, seed=11)
    train_ex = ds.subset("train")
    frames = np.concatenate([ex.frames for ex in train_ex])
    cb = train_codebook(frames, k=32, seed=11)
    vocab = build_vocab([ex.text for ex in train_ex], max_size=64)
    tok = {s: tokenize_examples(ds.subset(s), cb, vocab, speech_max_len=64, text_max_len=16)
           for s in ("train", "valid", "test")}
    cfg_s = EncoderConfig(2, 32, 2, 128, 5 + cb.k, 64, dropout_rate=0.1)
    cfg_t = EncoderConfig(2, 32, 2, 128, vocab.size, 16, dropout_rate=0.1)
    return tok, cfg_s, cfg_t


def _ablation_cell(tok, cfg_s, cfg_t, fusion, frozen, seed):
    model = FusionModel.init(fusion, cfg_s, cfg_t, n_outputs=8, coattn_heads=2,
                             rng=np.random.default_rng(seed), fusion_dropout=0.1)
    cfg = TrainConfig(peak_lr=1e-3, batch_size=16, seed=seed,
                      freeze_speech=frozen, freeze_text=frozen)
    run_finetune(tok["train"], tok["valid"], model, cfg, epochs=10)
    return evaluate_model(model, tok["test"], "categorical").accuracy4


def test_criterion_6_ablation_direction(ablation_fixture):
    start = time.time()
    tok, cfg_s, cfg_t = ablation_fixture
    seeds = (100, 101, 102)  # fixed seeds, 3 repetitions, means gated

    means = {}
    for fusion, frozen, name in (
        ("shallow", False, "shallow-ft"),
        ("speech-only", False, "speech-only"),
        ("text-only", False, "text-only"),
        ("shallow", True, "shallow-frozen"),
        ("coattn", True, "coattn-frozen"),
    ):
        accs = [_ablation_cell(tok, cfg_s, cfg_t, fusion, frozen, s) for s in seeds]
        means[name] = float(np.mean(accs))
        print(f"  {name}: accs={[round(a, 3) for a in accs]} mean={means[name]:.3f}")

    # (a) bimodal strictly beats both unimodal runs, with the stated bands.
    assert means["shallow-ft"] >= 0.9
    assert means["speech-only"] <= 0.8
    assert means["text-only"] <= 0.8
    assert means["shallow-ft"] > means["speech-only"]
    assert means["shallow-ft"] > means["text-only"]
    # (b) fine-tuned at least matches frozen for shallow fusion.
    assert means["shallow-ft"] >= means["shallow-frozen"]
    # Logged, not gated: the frozen-encoder comparison between mechanisms.
    relation = ">" if means["coattn-frozen"] > means["shallow-frozen"] else "<="
    print(f"  logged (not gated): coattn-frozen {means['coattn-frozen']:.3f} "
          f"{relation} shallow-frozen {means['shallow-frozen']:.3f} (seeds {seeds})")

    elapsed = time.time() - start
    assert elapsed < 1800.0
    announce(6, f"bimodal {means['shallow-ft']:.3f} > unimodal "
                f"({means['speech-only']:.3f} speech, {means['text-only']:.3f} text); "
                f"fine-tuned {means['shallow-ft']:.3f} >= frozen "
                f"{means['shallow-frozen']:.3f} ({elapsed:.0f}s)")


def test_criterion_7_metric_oracles():
    start = time.time()

    def oracle_confusion(preds, golds, n):
        m = np.zeros((n, n), dtype=int)
        for p, g in zip(preds, golds):
            m[g][p] += 1
        return m

    rng = np.random.default_rng(70)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 4, size=n).tolist()
        golds = rng.integers(0, 4, size=n).tolist()
        m = oracle_confusion(preds, golds, 4)
        for cls in range(4):
            tp = m[cls][cls]
            fp = m[:, cls].sum() - tp
            fn = m[cls, :].sum() - tp
            tn = n - tp - fp - fn
            assert binary_accuracy(preds, golds, cls) == (tp + tn) / n
            if tp == 0:
                expected_f1 = 0.0
            else:
                precision = tp / (tp + fp)
                recall = tp / (tp + fn)
                expected_f1 = 2 * precision * recall / (precision + recall)
            assert abs(f1_score(preds, golds, cls) - expected_f1) < 1e-12

        scores_p = rng.uniform(-3.5, 3.5, size=n)
        scores_g = rng.uniform(-3, 3, size=n)
        bins_p = np.clip(np.copysign(np.floor(np.abs(scores_p) + 0.5), scores_p), -3, 3)
        bins_g = np.clip(np.copysign(np.floor(np.abs(scores_g) + 0.5), scores_g), -3, 3)
        assert acc7(scores_p, scores_g) == float((bins_p == bins_g).mean())
        assert abs(mae(scores_p, scores_g) - np.abs(scores_p - scores_g).mean()) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(7, f"BA/F1/acc7/MAE match the brute-force confusion-matrix oracle on "
                f"1000 random vectors in {elapsed:.1f}s")


def test_criterion_8_determinism_and_persistence(tmp_path):
    start = time.time()

    # Identical manifests (same command, same seed) -> identical artifacts.
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli_main(["gen-data", "--out-dir", out, "--n", "40", "--seed", "8"]) == 0
        assert cli_main(["prepare", "--dataset", f"{out}/dataset.jsonl", "--out-dir", out,
                         "--vocab-size", "32", "--codebook-size", "8", "--seed", "8"]) == 0
        assert cli_main(["finetune", "--dataset", f"{out}/dataset.jsonl",
                         "--vocab", f"{out}/vocab.txt", "--codebook", f"{out}/codebook.bin",
                         "--out-dir", out, "--epochs", "1", "--lr", "1e-3",
                         "--batch-size", "8", "--seed", "8",
                         "--speech-layers", "1", "--speech-dim", "16", "--speech-heads", "2",
                         "--speech-ff", "32", "--speech-max-len", "64",
                         "--text-layers", "1", "--text-dim", "16", "--text-heads", "2",
                         "--text-ff", "32", "--text-max-len", "16"]) == 0
    for name in ("dataset.jsonl", "vocab.txt", "codebook.bin", "model.ckpt", "metrics.csv"):
        assert sha256_file(tmp_path / "a" / name) == sha256_file(tmp_path / "b" / name), name

    # Save -> load is the identity for every persisted artifact kind.
    rng = np.random.default_rng(80)
    cb = Codebook(rng.standard_normal((6, 5)))
    cb.save(tmp_path / "cb.bin")
    assert np.array_equal(Codebook.load(tmp_path / "cb.bin").centroids, cb.centroids)

    vocab = build_vocab(["alpha beta gamma", "beta gamma"], max_size=16)
    vocab.save(tmp_path / "v.txt")
    from emofuse.text import Vocabulary

    loaded_vocab = Vocabulary.load(tmp_path / "v.txt")
    assert loaded_vocab.size == vocab.size
    assert loaded_vocab.id_of("beta") == vocab.id_of("beta")

    state = EncoderState.init(TINY, rng)
    save_encoder_checkpoint(tmp_path / "enc.ckpt", state, extra_meta={"step": 3})
    loaded_state, meta, _ = load_encoder_checkpoint(tmp_path / "enc.ckpt")
    assert meta["step"] == 3
    for name, p in state.params.items():
        assert np.array_equal(p.data, loaded_state.params[name].data)
    save_encoder_checkpoint(tmp_path / "enc2.ckpt", loaded_state, extra_meta={"step": 3})
    assert sha256_file(tmp_path / "enc.ckpt") == sha256_file(tmp_path / "enc2.ckpt")

    blocks = {"x": rng.standard_normal((3, 3))}
    save_checkpoint(tmp_path / "raw.ckpt", {"kind": "raw"}, blocks)
    meta2, blocks2 = load_checkpoint(tmp_path / "raw.ckpt")
    save_checkpoint(tmp_path / "raw2.ckpt", meta2, blocks2)
    assert sha256_file(tmp_path / "raw.ckpt") == sha256_file(tmp_path / "raw2.ckpt")

    elapsed = time.time() - start
    assert elapsed < 60.0
    announce(8, f"identical manifests reproduce bitwise-identical artifacts; "
                f"save/load is the identity for all formats ({elapsed:.0f}s)")
