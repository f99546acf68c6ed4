"""Checkpoint container: byte-exact save/load for encoders and fusion models."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from emofuse.checkpoint import (
    MAGIC,
    load_checkpoint,
    load_encoder_checkpoint,
    load_fusion_checkpoint,
    save_checkpoint,
    save_encoder_checkpoint,
    save_fusion_checkpoint,
)
from emofuse.encoder import EncoderConfig, EncoderState
from emofuse.errors import InputError
from emofuse.fusion import CoAttentionBlock, FusionModel, LinearHead

CFG = EncoderConfig(2, 16, 2, 32, 11, 12, dropout_rate=0.1)


def _header(obj) -> bytes:
    text = json.dumps(obj).encode()
    return struct.pack("<I", len(text)) + text


# What follows the magic in each malformed checkpoint.
MALFORMED_HEADERS = {
    "short": b"\x05\x00",
    "not_utf8": struct.pack("<I", 2) + b"\xff\xfe",
    "not_json": struct.pack("<I", 5) + b"{nope",
    "past_end": struct.pack("<I", 40) + b"{}",
    "no_meta": _header({"blocks": []}),
    "no_blocks": _header({"meta": {}}),
    "meta_not_object": _header({"meta": [], "blocks": []}),
    "entry_without_shape": _header({"meta": {}, "blocks": [{"name": "w"}]}),
    "entry_without_name": _header({"meta": {}, "blocks": [{"shape": [1]}]}),
    "entry_shape_not_ints": _header({"meta": {}, "blocks": [{"name": "w", "shape": ["2"]}]}),
    "entry_negative_shape": _header({"meta": {}, "blocks": [{"name": "w", "shape": [-1]}]}),
    "entry_shape_too_large": _header({"meta": {}, "blocks": [{"name": "w", "shape": [2**70, 0]}]}),
    "entry_not_object": _header({"meta": {}, "blocks": ["w"]}),
    "entry_repeated": _header({"meta": {}, "blocks": [{"name": "w", "shape": []}] * 2})
    + b"\x00" * 16,
}


class TestRawContainer:
    def test_round_trip(self, tmp_path, rng):
        blocks = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2,)),
                  "empty": np.zeros((0,)), "empty2d": np.zeros((3, 0))}
        meta = {"kind": "test", "note": 7}
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, blocks)
        meta2, blocks2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(blocks2) == set(blocks)
        for k in blocks:
            assert blocks2[k].shape == blocks[k].shape
            assert np.array_equal(blocks[k], blocks2[k])

    def test_save_load_save_is_bitwise_identity(self, tmp_path, rng):
        blocks = {"w": rng.standard_normal((5, 5))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"kind": "t"}, blocks)
        meta, loaded = load_checkpoint(p1)
        save_checkpoint(p2, meta, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONG!!!" + b"\x00" * 16)
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {}, {"w": rng.standard_normal((4, 4))})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(InputError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_HEADERS))
    def test_malformed_header_is_input_error_naming_file(self, tmp_path, name):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + MALFORMED_HEADERS[name])
        with pytest.raises(InputError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_blocks_stream_to_and_from_disk(self, tmp_path, rng):
        """Saving copies no block; loading allocates each block once, in its returned array."""
        mib = 2**20
        blocks = {f"w{i}": rng.standard_normal((512, 1024)) for i in range(4)}  # 16 MiB
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, {"kind": "t"}, blocks)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, loaded = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < 1 * mib
        assert load_peak <= 17 * mib
        assert all(np.array_equal(blocks[k], loaded[k]) for k in blocks)

    def test_trailing_garbage_detected(self, tmp_path, rng):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {}, {"w": rng.standard_normal((4, 4))})
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(InputError):
            load_checkpoint(path)


class TestEncoderCheckpoint:
    def test_round_trip_identity(self, tmp_path):
        state = EncoderState.init(CFG, np.random.default_rng(3))
        path = tmp_path / "enc.ckpt"
        save_encoder_checkpoint(path, state, extra_meta={"step": 42},
                                extra_blocks={"adam.m.tok_emb": np.zeros((11, 16))})
        loaded, meta, extras = load_encoder_checkpoint(path)
        assert meta["step"] == 42
        assert loaded.cfg == CFG
        assert "adam.m.tok_emb" in extras
        for name, p in state.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)

    def test_missing_block_is_input_error_naming_file_and_block(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_encoder_checkpoint(path, EncoderState.init(CFG, np.random.default_rng(3)))
        meta, blocks = load_checkpoint(path)
        del blocks["tok_emb"]
        save_checkpoint(path, meta, blocks)
        with pytest.raises(InputError) as err:
            load_encoder_checkpoint(path)
        assert str(path) in str(err.value) and "'tok_emb'" in str(err.value)
        assert "(11, 16)" in str(err.value)

    def test_wrong_kind_rejected(self, tmp_path, rng):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"kind": "fusion"}, {"w": rng.standard_normal((2, 2))})
        with pytest.raises(InputError):
            load_encoder_checkpoint(path)


class TestFusionCheckpoint:
    def build_model(self):
        rng = np.random.default_rng(5)
        speech = EncoderState.init(CFG, rng)
        text_cfg = EncoderConfig(1, 8, 2, 16, 9, 12, dropout_rate=0.0)
        text = EncoderState.init(text_cfg, rng)
        block = CoAttentionBlock.init(16, 8, n_heads=2, rng=rng)
        head = LinearHead.init(24, 8, rng)
        return FusionModel("coattn", head, speech=speech, text=text, block=block,
                           fusion_dropout=0.1)

    def test_round_trip_identity(self, tmp_path):
        model = self.build_model()
        path = tmp_path / "model.ckpt"
        save_fusion_checkpoint(path, model, label_mode="categorical")
        loaded, meta = load_fusion_checkpoint(path)
        assert meta["label_mode"] == "categorical"
        assert loaded.kind == "coattn"
        assert loaded.fusion_dropout == 0.1
        ours = model.named_params()
        theirs = loaded.named_params()
        assert set(ours) == set(theirs)
        for name in ours:
            assert np.array_equal(ours[name].data, theirs[name].data)

    def test_save_load_save_is_bitwise_identity(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_fusion_checkpoint(p1, self.build_model(), label_mode="categorical")
        loaded, meta = load_fusion_checkpoint(p1)
        save_fusion_checkpoint(p2, loaded, label_mode=meta["label_mode"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        model = self.build_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_fusion_checkpoint(p1, model, label_mode="categorical")
        save_fusion_checkpoint(p2, model, label_mode="categorical")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("speech_config"),
        lambda meta: meta["text_config"].update(n_heads=3),
        lambda meta: meta["coattn"].pop("n_heads"),
        lambda meta: meta["speech_config"].update(bogus=1),
        lambda meta: meta["speech_config"].update(n_heads=0),
        lambda meta: meta["coattn"].update(n_heads=0),
        lambda meta: meta.update(fusion="bogus"),
        lambda meta: meta.update(fusion="text-only", text_config=None),
        lambda meta: meta.pop("label_mode"),
        lambda meta: meta.update(label_mode="ordinal"),
        lambda meta: meta.update(label_mode=["categorical"]),
        lambda meta: meta.update(label_mode="score"),  # 8 outputs, where a score has 1
        lambda meta: meta.pop("n_outputs"),
    ])
    def test_metadata_that_builds_no_model_is_input_error(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_fusion_checkpoint(path, self.build_model(), label_mode="categorical")
        meta, blocks = load_checkpoint(path)
        edit(meta)
        save_checkpoint(path, meta, blocks)
        with pytest.raises(InputError) as err:
            load_fusion_checkpoint(path)
        assert str(path) in str(err.value)

    def test_head_width_mismatch_rejected_at_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_fusion_checkpoint(path, self.build_model(), label_mode="categorical")
        meta, blocks = load_checkpoint(path)
        blocks["fusion.head.w"] = np.zeros((16, 8))  # coattn over 16 + 8 needs 24 rows
        save_checkpoint(path, meta, blocks)
        with pytest.raises(InputError) as err:
            load_fusion_checkpoint(path)
        assert str(path) in str(err.value) and "24" in str(err.value)

    @pytest.mark.parametrize("name, replacement, expected", [
        ("fusion.block.sq.q_w", np.zeros((16, 8)), "(16, 16)"),  # speech queries are 16 wide
        ("speech.tok_emb", None, "(11, 16)"),
        ("text.layers.0.ff.w1", np.zeros((16, 8)), "(8, 16)"),
        ("fusion.head.b", None, "(1, 8)"),
    ], ids=["coattn-misshapen", "speech-missing", "text-misshapen", "head-missing"])
    def test_bad_block_rejected_at_load(self, tmp_path, name, replacement, expected):
        path = tmp_path / "model.ckpt"
        save_fusion_checkpoint(path, self.build_model(), label_mode="categorical")
        meta, blocks = load_checkpoint(path)
        if replacement is None:
            del blocks[name]
        else:
            blocks[name] = replacement
        save_checkpoint(path, meta, blocks)
        with pytest.raises(InputError) as err:
            load_fusion_checkpoint(path)
        message = str(err.value)
        assert str(path) in message and repr(name) in message and expected in message

    def test_unimodal_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        speech = EncoderState.init(CFG, rng)
        model = FusionModel("speech-only", LinearHead.init(16, 8, rng), speech=speech)
        path = tmp_path / "uni.ckpt"
        save_fusion_checkpoint(path, model, label_mode="categorical")
        loaded, _ = load_fusion_checkpoint(path)
        assert loaded.kind == "speech-only"
        assert loaded.text is None and loaded.block is None
