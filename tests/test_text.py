"""Text tokenizer: vocabulary building, encode/decode, persistence."""

import pytest

from emofuse.errors import InputError
from emofuse.text import Vocabulary, build_vocab, decode, encode, tokenize_text
from emofuse.tokens import CLS, N_SPECIALS, UNK


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = build_vocab(["a b", "a"], max_size=8)
        assert "a" in vocab and "b" in vocab
        assert vocab.id_of("a") < vocab.id_of("b")

    def test_corpus_closure_never_emits_unk(self):
        corpus = ["red green blue", "blue red", "green"]
        vocab = build_vocab(corpus, max_size=8)
        for line in corpus:
            seq = encode(line, vocab)
            assert UNK not in seq.ids

    def test_tie_breaks_lexicographically(self):
        vocab = build_vocab(["zebra apple", "apple zebra"], max_size=8)
        assert vocab.id_of("apple") < vocab.id_of("zebra")

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            build_vocab([], max_size=8)

    def test_max_size_caps_vocabulary(self):
        vocab = build_vocab(["a a a b b c"], max_size=N_SPECIALS + 2)
        assert vocab.size == N_SPECIALS + 2
        assert vocab.id_of("c") == UNK

    def test_specials_not_producible_from_corpus(self):
        vocab = build_vocab(["<cls> <mask> hello"], max_size=16)
        # Angle brackets split away, so corpus text cannot inject a special.
        assert all(i >= N_SPECIALS for i in encode("<cls> <mask>", vocab).ids[1:])


class TestEncode:
    def test_empty_text_is_cls_only(self):
        vocab = build_vocab(["x"], max_size=8)
        seq = encode("", vocab)
        assert seq.ids == (CLS,)

    def test_round_trip_on_known_text(self):
        vocab = build_vocab(["hello world"], max_size=8)
        assert decode(encode("hello world", vocab).ids, vocab) == "hello world"

    def test_normalization_round_trip(self):
        vocab = build_vocab(["hello world"], max_size=8)
        assert decode(encode("Hello, WORLD!", vocab).ids, vocab) == "hello world"

    def test_out_of_vocabulary_maps_to_unk(self):
        vocab = build_vocab(["hello"], max_size=8)
        seq = encode("goodbye", vocab)
        assert seq.ids == (CLS, UNK)

    def test_truncation_to_max_len(self):
        vocab = build_vocab(["w"], max_size=8)
        seq = encode(" ".join(["w"] * 100), vocab, max_len=16)
        assert len(seq) == 16

    def test_deterministic(self):
        vocab = build_vocab(["some words here", "words here"], max_size=16)
        assert encode("some words", vocab) == encode("some words", vocab)

    def test_all_ids_below_vocab_size(self):
        vocab = build_vocab(["a b c d"], max_size=8)
        seq = encode("a b c d e f", vocab)
        assert all(0 <= i < vocab.size for i in seq.ids)


class TestDecode:
    def test_specials_omitted(self):
        vocab = build_vocab(["word"], max_size=8)
        assert decode([CLS], vocab) == ""
        assert decode([CLS, vocab.id_of("word"), UNK], vocab) == "word"

    def test_unknown_id_rejected(self):
        vocab = build_vocab(["word"], max_size=8)
        with pytest.raises(InputError):
            decode([vocab.size], vocab)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["the quick brown fox", "the lazy dog"], max_size=32)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.size == vocab.size
        for word in ("the", "quick", "lazy"):
            assert loaded.id_of(word) == vocab.id_of(word)

    def test_save_is_deterministic(self, tmp_path):
        vocab = build_vocab(["b a", "a"], max_size=8)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        vocab.save(p1)
        vocab.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_utf8_rejected_naming_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        build_vocab(["the lazy dog"], max_size=16).save(path)
        path.write_bytes(path.read_bytes() + b"caf\xe9\n")
        with pytest.raises(InputError) as err:
            Vocabulary.load(path)
        assert str(path) in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a vocab\n")
        with pytest.raises(InputError):
            Vocabulary.load(path)


def test_tokenize_keeps_apostrophes():
    assert tokenize_text("Don't stop") == ["don't", "stop"]
