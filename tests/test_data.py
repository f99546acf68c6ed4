"""Synthetic dataset generator and JSONL persistence."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from emofuse.data import (
    HINT_FLIP_PROB,
    KEYWORDS,
    TONE_PITCHES_HZ,
    closed_form_bayes_rates,
    generate_synthetic,
    load_jsonl,
    sample_factors,
    save_jsonl,
    tokenize_examples,
)
from emofuse.errors import InputError
from emofuse.speech import train_codebook
from emofuse.text import build_vocab
from emofuse.tokens import CLS


def enumerate_bayes_rates():
    """Independent oracle: exhaustive enumeration over the generative factors.

    States are (a, b, flip_s, flip_t) with probabilities
    1/4 * flip^k * (1-flip)^(2-k). Speech observes (a, hint_s), text observes
    (b, hint_t); the optimal rule picks the posterior-mode label per
    observation.
    """
    flip = HINT_FLIP_PROB
    states = []
    for a, b, fs, ft in itertools.product((0, 1), repeat=4):
        prob = 0.25 * (flip if fs else 1 - flip) * (flip if ft else 1 - flip)
        label = 2 * a + b
        speech_obs = (a, b ^ fs)
        text_obs = (b, a ^ ft)
        states.append((prob, label, speech_obs, text_obs))

    def best_rate(obs_index):
        posterior: dict = {}
        for prob, label, sobs, tobs in states:
            obs = (sobs, tobs, (sobs, tobs))[obs_index]
            posterior.setdefault(obs, {}).setdefault(label, 0.0)
            posterior[obs][label] += prob
        return sum(max(dist.values()) for dist in posterior.values())

    return {"speech_only": best_rate(0), "text_only": best_rate(1), "bimodal": best_rate(2)}


class TestFactors:
    def test_bayes_rates_match_enumeration_oracle(self):
        oracle = enumerate_bayes_rates()
        closed = closed_form_bayes_rates()
        assert abs(oracle["speech_only"] - 0.75) < 1e-12
        assert abs(oracle["text_only"] - 0.75) < 1e-12
        assert abs(oracle["bimodal"] - 1.0) < 1e-12
        for key in oracle:
            assert abs(oracle[key] - closed[key]) < 1e-12

    def test_empirical_rates_over_1e5_samples(self):
        factors = sample_factors(100_000, seed=12)
        # The optimal unimodal rules read off the known bit and trust the hint.
        speech_pred = 2 * factors["a"] + factors["speech_hint"]
        text_pred = 2 * factors["text_hint"] + factors["b"]
        bimodal_pred = 2 * factors["a"] + factors["b"]
        closed = closed_form_bayes_rates()
        assert abs((speech_pred == factors["label"]).mean() - closed["speech_only"]) < 0.01
        assert abs((text_pred == factors["label"]).mean() - closed["text_only"]) < 0.01
        assert (bimodal_pred == factors["label"]).mean() == 1.0

    def test_exact_class_balance(self):
        factors = sample_factors(400, seed=3)
        counts = np.bincount(factors["label"], minlength=4)
        assert list(counts) == [100, 100, 100, 100]


class TestGenerateSynthetic:
    def test_majority_baseline_is_quarter(self):
        ds = generate_synthetic(80, seed=0)
        labels = [ex.label for ex in ds.examples]
        counts = np.bincount(labels, minlength=4)
        assert counts.max() / len(labels) == 0.25

    def test_minimum_size_enforced(self):
        with pytest.raises(InputError):
            generate_synthetic(39, seed=0)

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            save_jsonl(generate_synthetic(40, seed=77), tmp_path / name)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_splits_disjoint_and_stratified(self):
        ds = generate_synthetic(200, seed=5)
        all_indices = sorted(i for members in ds.splits.values() for i in members)
        assert all_indices == list(range(200))
        for split in ("train", "valid", "test"):
            labels = [ds.examples[i].label for i in ds.splits[split]]
            counts = np.bincount(labels, minlength=4)
            assert counts.min() == counts.max()

    def test_score_mode_bounds(self):
        ds = generate_synthetic(40, seed=1, mode="score")
        for ex in ds.examples:
            assert ex.label is None
            assert -3.0 <= ex.score <= 3.0

    def test_keyword_always_present(self):
        ds = generate_synthetic(40, seed=2)
        for ex in ds.examples:
            assert sum(kw in ex.text for kw in KEYWORDS) == 1

    def test_tone_recoverable_from_frames(self):
        # The dominant mel band must separate the four pitches, otherwise the
        # speech modality would not carry its factor losslessly.
        ds = generate_synthetic(80, seed=4)
        factors = sample_factors(80, seed=4)
        peak_band = {}
        for ex, pitch_idx in zip(ds.examples, 2 * factors["a"] + factors["speech_hint"]):
            band = int(np.argmax(ex.frames.mean(axis=0)))
            peak_band.setdefault(int(pitch_idx), set()).add(band)
        bands = [frozenset(v) for _, v in sorted(peak_band.items())]
        assert len(bands) == len(TONE_PITCHES_HZ)
        for x, y in itertools.combinations(bands, 2):
            assert not (x & y)


class TestJsonl:
    def test_round_trip_identity(self, tmp_path):
        ds = generate_synthetic(40, seed=9)
        path = tmp_path / "data.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path)
        assert loaded.label_mode == ds.label_mode
        assert loaded.splits == ds.splits
        for a, b in zip(ds.examples, loaded.examples):
            assert a.id == b.id and a.text == b.text and a.label == b.label
            assert np.array_equal(a.frames, b.frames)
        save_jsonl(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ds = load_jsonl(path)
        assert ds.examples == []

    def test_out_of_range_score_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = [
            {"id": "a", "frames": [[0.0]], "text": "x", "score": 1.0},
            {"id": "b", "frames": [[0.0]], "text": "y", "score": 4.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert ":2:" in str(err.value)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "x", "label": 0}) + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert ":1:" in str(err.value)

    def test_mixed_modes_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        rows = [
            {"id": "a", "frames": [[0.0]], "text": "x", "label": 0},
            {"id": "b", "frames": [[0.0]], "text": "y", "score": 1.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(InputError):
            load_jsonl(path)

    def test_audio_path_variant(self, tmp_path):
        samples = np.sin(np.arange(4000) * 0.1)
        np.save(tmp_path / "clip.npy", samples)
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "audio_path": "clip.npy", "text": "hi", "label": 1}) + "\n")
        ds = load_jsonl(path)
        assert ds.examples[0].frames.shape[1] == 40

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_jsonl(tmp_path / "nope.jsonl")

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "frames": [[0.0]], "text": "x", "label": 0})
        path.write_bytes(good.encode() + b"\n" + b'{"id": "b\xff"}\n')
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert f"{path}:2:" in str(err.value)

    def test_missing_audio_file_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "audio_path": "gone.npy", "text": "hi", "label": 1}) + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert f"{path}:1:" in str(err.value) and "gone.npy" in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_frames_name_line(self, tmp_path, literal):
        # Python's json accepts these literals; the frames must still be finite.
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "frames": [[0.0]], "text": "x", "label": 0})
        bad = good.replace('"a"', '"b"').replace("[[0.0]]", f"[[0.0], [{literal}]]")
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert f"{path}:2:" in str(err.value)

    @pytest.mark.parametrize("samples", [
        np.where(np.arange(4000) == 1234, np.nan, 0.5),
        np.where(np.arange(4000) == 1234, np.inf, 0.5),
        np.zeros(100),  # shorter than one window
    ])
    def test_unusable_audio_samples_name_line(self, tmp_path, samples):
        np.save(tmp_path / "clip.npy", samples)
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "audio_path": "clip.npy", "text": "hi", "label": 1}) + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert f"{path}:1:" in str(err.value) and "clip.npy" in str(err.value)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = [
            {"id": "a", "frames": [[0.0]], "text": "x", "label": 0},
            {"id": "b", "frames": [[0.0]], "text": "y", "label": 1},
            {"id": "a", "frames": [[1.0]], "text": "z", "label": 2},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        assert f"{path}:3:" in str(err.value) and "line 1" in str(err.value)

    @pytest.mark.parametrize("bad", range(7))
    def test_error_lines_count_every_line_break(self, tmp_path, bad):
        """``\n``, ``\r\n`` and a bare ``\r`` each end a line and blank lines count:
        an error names the line that ``bytes.splitlines`` gives the whole file."""
        rows = [json.dumps({"id": f"e{i}", "frames": [[0.0]], "text": "x", "label": 0}).encode()
                for i in range(7)]
        rows[bad] = b'{"id": "broken"'
        breaks = [b"\r\n", b"\r", b"\n", b"\r\r\n", b"\n\r", b"\r\n\r\n", b""]
        blob = b"".join(row + end for row, end in zip(rows, breaks))
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(blob)
        with pytest.raises(InputError) as err:
            load_jsonl(path)
        line = blob.splitlines().index(rows[bad]) + 1
        assert str(err.value).startswith(f"{path}:{line}: invalid JSON")

    def test_loading_streams_the_file(self, tmp_path):
        """The traced peak while loading stays below half the file's size: the loaded
        frames take about 0.41 of it, and one line at a time the rest."""
        path = tmp_path / "data.jsonl"
        save_jsonl(generate_synthetic(200, seed=3), path)
        tracemalloc.start()
        try:
            load_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


class TestTokenize:
    def test_tokenized_sequences_valid(self):
        ds = generate_synthetic(40, seed=11)
        frames = np.concatenate([ex.frames for ex in ds.examples[:20]])
        cb = train_codebook(frames, k=16, seed=0)
        vocab = build_vocab([ex.text for ex in ds.examples], max_size=64)
        toks = tokenize_examples(ds.examples, cb, vocab, speech_max_len=64, text_max_len=16)
        assert len(toks) == 40
        for tok, ex in zip(toks, ds.examples):
            assert tok.speech.ids[0] == CLS and tok.text.ids[0] == CLS
            assert len(tok.speech) <= 64 and len(tok.text) <= 16
            assert tok.target == ex.label
