"""Fusion mechanisms: parameter counts, zero-init equivalence, attention behavior."""

import numpy as np
import pytest

from emofuse import tensor as T
from emofuse.encoder import EncoderConfig, EncoderState, EncoderOutput, forward
from emofuse.errors import ConfigError
from emofuse.fusion import (
    CoAttentionBlock,
    FusionModel,
    LinearHead,
    FUSION_KINDS,
    co_attend,
    coattention_param_count,
    fuse,
    shallow_head_param_count,
)
from emofuse.tokens import CLS, TokenSequence

from conftest import assert_grads_match, per_head_attention

D_S, D_T = 8, 12


def fake_output(rng, length, dim):
    return EncoderOutput(hidden=T.Tensor(rng.standard_normal((length, dim))))


class TestParameterCounts:
    def test_shallow_head_full_scale_dims(self):
        assert shallow_head_param_count(768, 1024, 8) == 14_344
        head = LinearHead.init(768 + 1024, 8, None)
        assert head.param_count() == 14_344

    def test_unimodal_head_count(self):
        head = LinearHead.init(768, 8, None)
        assert head.param_count() == 768 * 8 + 8

    def test_coattention_full_scale_closed_form_and_enumeration(self):
        assert coattention_param_count(768, 1024) == 6_429_696
        block = CoAttentionBlock.init(768, 1024, n_heads=8, rng=None)
        assert block.param_count() == 6_429_696
        assert 5_500_000 <= block.param_count() <= 7_000_000

    def test_coattention_count_head_invariant(self):
        for heads in (1, 2, 4):
            block = CoAttentionBlock.init(D_S, D_T, n_heads=heads, rng=None)
            assert block.param_count() == coattention_param_count(D_S, D_T)

    def test_head_count_must_divide_dims(self):
        with pytest.raises(ConfigError):
            CoAttentionBlock.init(D_S, D_T, n_heads=5, rng=None)


class TestShallowFuse:
    def test_zero_head_annihilates(self, rng):
        head = LinearHead.init(D_S + D_T, 8, None)
        out = fuse([fake_output(rng, 4, D_S), fake_output(rng, 3, D_T)], head)
        assert np.array_equal(out.logits.data, np.zeros((1, 8)))

    def test_speech_block_comes_first(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 3, D_T)
        zero_text = EncoderOutput(hidden=T.Tensor(np.zeros((3, D_T))))
        got = fuse([speech, zero_text], head).logits.data
        manual = speech.cls.data @ head.w.data[:D_S] + head.b.data
        assert np.allclose(got, manual, atol=1e-12)
        # And zeroing text leaves only the speech block of W active.
        full = fuse([speech, text], head).logits.data
        assert not np.allclose(full, got, atol=1e-9)

    def test_dim_mismatch_rejected(self, rng):
        head = LinearHead.init(D_S + D_T + 1, 8, None)
        with pytest.raises(ConfigError):
            fuse([fake_output(rng, 2, D_S), fake_output(rng, 2, D_T)], head)


class TestUnimodalHead:
    def test_zero_weights_zero_logits(self, rng):
        out = fuse([fake_output(rng, 5, D_S)], LinearHead.init(D_S, 8, None))
        assert np.array_equal(out.logits.data, np.zeros((1, 8)))

    def test_embeds_into_bimodal_head(self, rng):
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 3, D_T)
        uni = LinearHead.init(D_S, 8, rng)
        bi = LinearHead.init(D_S + D_T, 8, None)
        bi.w.data[:D_S] = uni.w.data
        bi.b.data[:] = uni.b.data
        assert np.allclose(
            fuse([speech], uni).logits.data,
            fuse([speech, text], bi).logits.data,
            atol=1e-12,
        )


class TestCoAttend:
    def test_singleton_sequence_gets_full_attention(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 1, D_T)
        _, _, attn = co_attend(speech, text, block)
        assert np.array_equal(attn["speech_to_text"], np.ones((2, 1)))

    def test_identical_keys_give_uniform_attention(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = fake_output(rng, 4, D_S)
        row = rng.standard_normal(D_T)
        text = EncoderOutput(hidden=T.Tensor(np.tile(row, (6, 1))))
        _, _, attn = co_attend(speech, text, block)
        assert np.allclose(attn["speech_to_text"], 1.0 / 6.0, atol=1e-12)

    def test_identical_keys_output_is_residual_plus_projected_mean(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = fake_output(rng, 4, D_S)
        row = rng.standard_normal(D_T)
        text = EncoderOutput(hidden=T.Tensor(np.tile(row, (6, 1))))
        cls_s, _, _ = co_attend(speech, text, block)
        p = block.params
        mean_value = row @ p["sq.v_w"].data + p["sq.v_b"].data
        expected = speech.cls.data + mean_value @ p["sq.o_w"].data + p["sq.o_b"].data
        assert np.allclose(cls_s.data, expected, atol=1e-9)

    def test_attention_rows_sum_to_one(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=4, rng=rng)
        _, _, attn = co_attend(fake_output(rng, 9, D_S), fake_output(rng, 7, D_T), block)
        for direction in attn.values():
            assert np.all(direction >= 0.0)
            assert np.allclose(direction.sum(axis=1), 1.0, atol=1e-6)

    def test_set_attention_is_permutation_invariant(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = fake_output(rng, 4, D_S)
        text_rows = rng.standard_normal((6, D_T))
        perm = rng.permutation(6)
        base, _, _ = co_attend(speech, EncoderOutput(hidden=T.Tensor(text_rows)), block)
        shuffled, _, _ = co_attend(speech, EncoderOutput(hidden=T.Tensor(text_rows[perm])), block)
        assert np.allclose(base.data, shuffled.data, atol=1e-10)

    def test_each_direction_matches_per_head_oracle(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = fake_output(rng, 5, D_S)
        text = fake_output(rng, 7, D_T)
        cls_s, cls_t, attn = co_attend(speech, text, block)
        names = ("q_w", "q_b", "k_w", "k_b", "v_w", "v_b", "o_w", "o_b")
        for prefix, query, other, got, weights in (
            ("sq", speech, text, cls_s, attn["speech_to_text"]),
            ("tq", text, speech, cls_t, attn["text_to_speech"]),
        ):
            ref, ref_weights = per_head_attention(
                query.cls, other.hidden, *(block.params[f"{prefix}.{n}"] for n in names), 2)
            assert np.array_equal(got.data, query.cls.data + ref.data)
            assert np.array_equal(weights, ref_weights[:, 0])

    def test_zero_block_returns_original_cls(self, rng):
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=None)
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 5, D_T)
        cls_s, cls_t, _ = co_attend(speech, text, block)
        assert np.array_equal(cls_s.data, speech.cls.data)
        assert np.array_equal(cls_t.data, text.cls.data)


class TestCoAttentionFuse:
    def test_zero_init_equivalence_bitwise(self, rng):
        head = LinearHead.init(D_S + D_T, 8, rng)
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=None)
        for _ in range(100):
            speech = fake_output(rng, int(rng.integers(1, 10)), D_S)
            text = fake_output(rng, int(rng.integers(1, 10)), D_T)
            co = fuse([speech, text], head, block).logits.data
            sh = fuse([speech, text], head).logits.data
            assert np.array_equal(co, sh)

    def test_logits_finite_at_desk_dims(self, rng):
        head = LinearHead.init(128 + 160, 8, rng)
        block = CoAttentionBlock.init(128, 160, n_heads=4, rng=rng)
        out = fuse([fake_output(rng, 40, 128), fake_output(rng, 12, 160)], head, block)
        assert np.isfinite(out.logits.data).all()
        assert out.attention is not None

    def test_gradients_match_finite_differences(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = EncoderOutput(hidden=T.Tensor(rng.standard_normal((3, D_S)), requires_grad=True))
        text = EncoderOutput(hidden=T.Tensor(rng.standard_normal((4, D_T)), requires_grad=True))
        leaves = [speech.hidden, text.hidden, head.w, head.b, *block.params.values()]

        def loss():
            out = fuse([speech, text], head, block)
            return T.cross_entropy_rows(out.logits, [2])

        assert_grads_match(loss, leaves)

    def test_shallow_gradients_match_finite_differences(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        speech = EncoderOutput(hidden=T.Tensor(rng.standard_normal((3, D_S)), requires_grad=True))
        text = EncoderOutput(hidden=T.Tensor(rng.standard_normal((4, D_T)), requires_grad=True))

        def loss():
            out = fuse([speech, text], head)
            return T.cross_entropy_rows(out.logits, [1])

        assert_grads_match(loss, [speech.hidden, text.hidden, head.w, head.b])


class TestFusionModel:
    def setup_method(self):
        rng = np.random.default_rng(0)
        cfg_s = EncoderConfig(1, 8, 2, 16, 11, 8, dropout_rate=0.0)
        cfg_t = EncoderConfig(1, 12, 2, 16, 13, 8, dropout_rate=0.0)
        self.speech_state = EncoderState.init(cfg_s, rng)
        self.text_state = EncoderState.init(cfg_t, rng)
        self.rng = rng

    def seqs(self):
        return (TokenSequence("speech", (CLS, 5, 6)), TokenSequence("text", (CLS, 7, 8, 9)))

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            FusionModel("bogus", LinearHead.init(8, 8, None))
        with pytest.raises(ConfigError):
            FusionModel("shallow", LinearHead.init(20, 8, None), speech=self.speech_state)
        with pytest.raises(ConfigError):
            FusionModel("coattn", LinearHead.init(20, 8, None),
                        speech=self.speech_state, text=self.text_state)

    def test_head_width_must_match_kind(self):
        with pytest.raises(ConfigError):
            FusionModel("shallow", LinearHead.init(8, 8, None),
                        speech=self.speech_state, text=self.text_state)
        with pytest.raises(ConfigError):
            FusionModel("text-only", LinearHead.init(20, 8, None), text=self.text_state)

    def test_init_draw_order(self):
        cfg_s, cfg_t = self.speech_state.cfg, self.text_state.cfg
        for kind in ("shallow", "coattn", "speech-only", "text-only"):
            model = FusionModel.init(kind, cfg_s, cfg_t, n_outputs=8, coattn_heads=2,
                                     rng=np.random.default_rng(5), fusion_dropout=0.1)
            rng = np.random.default_rng(5)
            speech = EncoderState.init(cfg_s, rng) if kind != "text-only" else None
            text = EncoderState.init(cfg_t, rng) if kind != "speech-only" else None
            width = {"speech-only": 8, "text-only": 12}.get(kind, 20)
            head = LinearHead.init(width, 8, rng)
            block = CoAttentionBlock.init(8, 12, 2, rng) if kind == "coattn" else None
            manual = FusionModel(kind, head, speech=speech, text=text, block=block)
            assert model.fusion_dropout == 0.1
            ours, theirs = model.named_params(), manual.named_params()
            assert list(ours) == list(theirs)
            assert all(np.array_equal(ours[n].data, theirs[n].data) for n in ours), kind

    def test_named_params_cover_components(self):
        block = CoAttentionBlock.init(8, 12, n_heads=2, rng=None)
        model = FusionModel("coattn", LinearHead.init(20, 8, None),
                            speech=self.speech_state, text=self.text_state, block=block)
        names = model.named_params()
        assert any(n.startswith("speech.") for n in names)
        assert any(n.startswith("text.") for n in names)
        assert any(n.startswith("fusion.block.") for n in names)
        assert {"fusion.head.w", "fusion.head.b"} <= set(names)

    def test_fuse_dispatch(self):
        speech_seq, text_seq = self.seqs()
        outputs = {"speech": forward(speech_seq, self.speech_state),
                   "text": forward(text_seq, self.text_state)}
        shallow = FusionModel("shallow", LinearHead.init(20, 8, self.rng),
                              speech=self.speech_state, text=self.text_state)
        uni_s = FusionModel("speech-only", LinearHead.init(8, 8, self.rng),
                            speech=self.speech_state)
        uni_t = FusionModel("text-only", LinearHead.init(12, 8, self.rng),
                            text=self.text_state)
        for model, reads in ((shallow, ("speech", "text")), (uni_s, ("speech",)),
                             (uni_t, ("text",))):
            assert tuple(model.encoders()) == reads
            out = model.fuse(*(outputs[modality] for modality in model.encoders()))
            assert out.logits.data.shape == (1, 8)

    def test_rejects_unread_encoder_and_stray_block(self):
        with pytest.raises(ConfigError, match="does not read a text encoder"):
            FusionModel("speech-only", LinearHead.init(8, 8, None),
                        speech=self.speech_state, text=self.text_state)
        with pytest.raises(ConfigError, match="takes no CoAttentionBlock"):
            FusionModel("shallow", LinearHead.init(20, 8, None),
                        speech=self.speech_state, text=self.text_state,
                        block=CoAttentionBlock.init(8, 12, n_heads=2, rng=None))

    @pytest.mark.parametrize("kind", list(FUSION_KINDS))
    def test_fuse_is_head_of_concatenated_cls(self, kind):
        """Bitwise: the head applied to the (co-attended) CLS vectors, speech first."""
        model = FusionModel.init(kind, self.speech_state.cfg, self.text_state.cfg, n_outputs=8,
                                 coattn_heads=2, rng=np.random.default_rng(3))
        seqs = dict(zip(("speech", "text"), self.seqs()))
        outputs = [forward(seqs[modality], state) for modality, state in model.encoders().items()]
        cls_vecs = [out.cls for out in outputs]
        if kind == "coattn":
            cls_vecs = list(co_attend(*outputs, model.block)[:2])
        features = T.concat_cols(cls_vecs) if len(cls_vecs) == 2 else cls_vecs[0]
        expected = T.linear(features, model.head.w, model.head.b)
        assert np.array_equal(model.fuse(*outputs).logits.data, expected.data)
