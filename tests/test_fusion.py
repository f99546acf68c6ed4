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
    co_attend,
    co_attention_fuse,
    coattention_param_count,
    shallow_fuse,
    shallow_head_param_count,
    unimodal_head,
)
from emofuse.tokens import CLS, TokenSequence

from conftest import assert_grads_match, per_head_attention

D_S, D_T = 8, 12


def fake_output(rng, length, dim):
    return EncoderOutput(hidden=T.Tensor(rng.standard_normal((length, dim))))


class TestParameterCounts:
    def test_shallow_head_full_scale_dims(self):
        assert shallow_head_param_count(768, 1024, 8) == 14_344
        head = LinearHead.zeros(768 + 1024, 8)
        assert head.param_count() == 14_344

    def test_unimodal_head_count(self):
        head = LinearHead.zeros(768, 8)
        assert head.param_count() == 768 * 8 + 8

    def test_coattention_full_scale_closed_form_and_enumeration(self):
        assert coattention_param_count(768, 1024) == 6_429_696
        block = CoAttentionBlock.zeros(768, 1024, n_heads=8)
        assert block.param_count() == 6_429_696
        assert 5_500_000 <= block.param_count() <= 7_000_000

    def test_coattention_count_head_invariant(self):
        for heads in (1, 2, 4):
            block = CoAttentionBlock.zeros(D_S, D_T, n_heads=heads)
            assert block.param_count() == coattention_param_count(D_S, D_T)

    def test_head_count_must_divide_dims(self):
        with pytest.raises(ConfigError):
            CoAttentionBlock.zeros(D_S, D_T, n_heads=5)


class TestShallowFuse:
    def test_zero_head_annihilates(self, rng):
        head = LinearHead.zeros(D_S + D_T, 8)
        out = shallow_fuse(fake_output(rng, 4, D_S), fake_output(rng, 3, D_T), head)
        assert np.array_equal(out.logits.data, np.zeros((1, 8)))

    def test_speech_block_comes_first(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 3, D_T)
        zero_text = EncoderOutput(hidden=T.Tensor(np.zeros((3, D_T))))
        got = shallow_fuse(speech, zero_text, head).logits.data
        manual = speech.cls.data @ head.w.data[:D_S] + head.b.data
        assert np.allclose(got, manual, atol=1e-12)
        # And zeroing text leaves only the speech block of W active.
        full = shallow_fuse(speech, text, head).logits.data
        assert not np.allclose(full, got, atol=1e-9)

    def test_dim_mismatch_rejected(self, rng):
        head = LinearHead.zeros(D_S + D_T + 1, 8)
        with pytest.raises(ConfigError):
            shallow_fuse(fake_output(rng, 2, D_S), fake_output(rng, 2, D_T), head)


class TestUnimodalHead:
    def test_zero_weights_zero_logits(self, rng):
        out = unimodal_head(fake_output(rng, 5, D_S).cls, LinearHead.zeros(D_S, 8))
        assert np.array_equal(out.logits.data, np.zeros((1, 8)))

    def test_embeds_into_bimodal_head(self, rng):
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 3, D_T)
        uni = LinearHead.init(D_S, 8, rng)
        bi = LinearHead.zeros(D_S + D_T, 8)
        bi.w.data[:D_S] = uni.w.data
        bi.b.data[:] = uni.b.data
        assert np.allclose(
            unimodal_head(speech.cls, uni).logits.data,
            shallow_fuse(speech, text, bi).logits.data,
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
        block = CoAttentionBlock.zeros(D_S, D_T, n_heads=2)
        speech = fake_output(rng, 4, D_S)
        text = fake_output(rng, 5, D_T)
        cls_s, cls_t, _ = co_attend(speech, text, block)
        assert np.array_equal(cls_s.data, speech.cls.data)
        assert np.array_equal(cls_t.data, text.cls.data)


class TestCoAttentionFuse:
    def test_zero_init_equivalence_bitwise(self, rng):
        head = LinearHead.init(D_S + D_T, 8, rng)
        block = CoAttentionBlock.zeros(D_S, D_T, n_heads=2)
        for _ in range(100):
            speech = fake_output(rng, int(rng.integers(1, 10)), D_S)
            text = fake_output(rng, int(rng.integers(1, 10)), D_T)
            co = co_attention_fuse(speech, text, block, head).logits.data
            sh = shallow_fuse(speech, text, head).logits.data
            assert np.array_equal(co, sh)

    def test_logits_finite_at_desk_dims(self, rng):
        head = LinearHead.init(128 + 160, 8, rng)
        block = CoAttentionBlock.init(128, 160, n_heads=4, rng=rng)
        out = co_attention_fuse(fake_output(rng, 40, 128), fake_output(rng, 12, 160), block, head)
        assert np.isfinite(out.logits.data).all()
        assert out.attention is not None

    def test_gradients_match_finite_differences(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        block = CoAttentionBlock.init(D_S, D_T, n_heads=2, rng=rng)
        speech = EncoderOutput(hidden=T.Tensor(rng.standard_normal((3, D_S)), requires_grad=True))
        text = EncoderOutput(hidden=T.Tensor(rng.standard_normal((4, D_T)), requires_grad=True))
        leaves = [speech.hidden, text.hidden, head.w, head.b, *block.params.values()]

        def loss():
            out = co_attention_fuse(speech, text, block, head)
            return T.cross_entropy_rows(out.logits, [2])

        assert_grads_match(loss, leaves)

    def test_shallow_gradients_match_finite_differences(self, rng):
        head = LinearHead.init(D_S + D_T, 4, rng)
        speech = EncoderOutput(hidden=T.Tensor(rng.standard_normal((3, D_S)), requires_grad=True))
        text = EncoderOutput(hidden=T.Tensor(rng.standard_normal((4, D_T)), requires_grad=True))

        def loss():
            out = shallow_fuse(speech, text, head)
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
            FusionModel("bogus", LinearHead.zeros(8, 8))
        with pytest.raises(ConfigError):
            FusionModel("shallow", LinearHead.zeros(20, 8), speech=self.speech_state)
        with pytest.raises(ConfigError):
            FusionModel("coattn", LinearHead.zeros(20, 8),
                        speech=self.speech_state, text=self.text_state)

    def test_head_width_must_match_kind(self):
        with pytest.raises(ConfigError):
            FusionModel("shallow", LinearHead.zeros(8, 8),
                        speech=self.speech_state, text=self.text_state)
        with pytest.raises(ConfigError):
            FusionModel("text-only", LinearHead.zeros(20, 8), text=self.text_state)

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
        block = CoAttentionBlock.zeros(8, 12, n_heads=2)
        model = FusionModel("coattn", LinearHead.zeros(20, 8),
                            speech=self.speech_state, text=self.text_state, block=block)
        names = model.named_params()
        assert any(n.startswith("speech.") for n in names)
        assert any(n.startswith("text.") for n in names)
        assert any(n.startswith("fusion.block.") for n in names)
        assert {"fusion.head.w", "fusion.head.b"} <= set(names)

    def test_fuse_dispatch(self):
        speech_seq, text_seq = self.seqs()
        speech_out = forward(speech_seq, self.speech_state)
        text_out = forward(text_seq, self.text_state)
        shallow = FusionModel("shallow", LinearHead.init(20, 8, self.rng),
                              speech=self.speech_state, text=self.text_state)
        uni_s = FusionModel("speech-only", LinearHead.init(8, 8, self.rng),
                            speech=self.speech_state)
        uni_t = FusionModel("text-only", LinearHead.init(12, 8, self.rng),
                            text=self.text_state)
        for model, needs in ((shallow, (True, True)), (uni_s, (True, False)), (uni_t, (False, True))):
            assert (model.needs_speech, model.needs_text) == needs
            out = model.fuse(speech_out if model.needs_speech else None,
                             text_out if model.needs_text else None)
            assert out.logits.data.shape == (1, 8)
