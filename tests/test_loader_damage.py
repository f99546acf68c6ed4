"""Damaged files: every loader either loads a truncated or bit-flipped file or raises InputError."""

from collections import Counter

import numpy as np
import pytest

from emofuse.checkpoint import (
    load_encoder_checkpoint,
    load_fusion_checkpoint,
    save_encoder_checkpoint,
    save_fusion_checkpoint,
)
from emofuse.data import Dataset, LabeledExample, load_jsonl, save_jsonl
from emofuse.encoder import EncoderConfig, EncoderState
from emofuse.errors import InputError
from emofuse.fusion import FusionModel
from emofuse.speech import Codebook
from emofuse.text import Vocabulary, build_vocab

TINY = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=11, max_len=8)

# Files up to this size get every single-bit flip; larger ones a seeded sample.
ALL_FLIPS_MAX_BYTES = 1024
SAMPLED_FLIPS = 4096
RANDOM_CUTS = 32


def save_dataset(path, rng):
    examples = [
        LabeledExample(id=f"ex{i}", frames=rng.standard_normal((2, 3)), text=f"i feel {w}",
                       label=i % 4)
        for i, w in enumerate(("steady", "cheerful", "gloomy", "furious"))
    ]
    save_jsonl(Dataset(examples, "categorical", {"train": [0, 1], "test": [2, 3]}), path)


def save_codebook(path, rng):
    Codebook(rng.standard_normal((8, 4))).save(path)


def save_vocab(path, rng):
    build_vocab(["i feel steady", "that was a cheerful thing to say"], max_size=32).save(path)


def save_model(path, rng):
    model = FusionModel.init("coattn", TINY, TINY, 8, 2, rng)  # a categorical head: 4 pairs
    save_fusion_checkpoint(path, model, label_mode="categorical")


def save_encoder(path, rng):
    """A resumable pretraining checkpoint: step meta plus both Adam moments per parameter."""
    state = EncoderState.init(TINY, rng)
    moments = {f"adam.{k}.{name}": rng.standard_normal(p.data.shape)
               for name, p in state.params.items() for k in "mv"}
    save_encoder_checkpoint(path, state, extra_meta={"step": 3}, extra_blocks=moments)


FORMATS = {
    "dataset.jsonl": (save_dataset, load_jsonl),
    "codebook.bin": (save_codebook, Codebook.load),
    "vocab.txt": (save_vocab, Vocabulary.load),
    "model.ckpt": (save_model, load_fusion_checkpoint),
    "speech_encoder.ckpt": (save_encoder, load_encoder_checkpoint),
}


def damaged_copies(raw: bytes, rng):
    """Every prefix of up to 64 bytes, random cut points, then single-bit flips."""
    for n in range(min(64, len(raw))):
        yield raw[:n]
    for n in rng.integers(0, len(raw), size=RANDOM_CUTS):
        yield raw[:n]
    n_bits = len(raw) * 8
    if len(raw) <= ALL_FLIPS_MAX_BYTES:
        bits = range(n_bits)
    else:
        bits = rng.choice(n_bits, size=SAMPLED_FLIPS, replace=False)
    for bit in bits:
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_damaged_file_loads_or_raises_input_error(tmp_path, name):
    save, load = FORMATS[name]
    rng = np.random.default_rng(7)
    path = tmp_path / name
    save(path, rng)
    raw = path.read_bytes()
    load(path)
    other: Counter[str] = Counter()
    for copy in damaged_copies(raw, rng):
        path.write_bytes(copy)
        try:
            load(path)
        except InputError:
            pass
        except Exception as err:  # noqa: BLE001 - any other type is the failure
            other[f"{type(err).__name__}: {err}"[:120]] += 1
    assert not other, f"{sum(other.values())} non-InputError outcomes: {other.most_common(5)}"
