"""Datasets: the synthetic bimodal generator, JSONL persistence, tokenization.

Generator construction. Each example carries two label bits (a, b) and two
hint bits. The speech waveform encodes (a, speech_hint) as one of four tone
pitches; the transcript encodes (b, text_hint) as one of four keywords. The
label is 2a + b, and each hint equals the *other* modality's label bit
flipped with probability HINT_FLIP_PROB = 0.25. A speech-only observer
therefore knows a exactly and guesses b from its hint, so its best possible
accuracy is exactly 0.75; text-only is symmetric, and both modalities
together determine the label, so the bimodal ceiling is 1.0. Classes are
balanced by construction (labels cycle 0..3 before shuffling). Everything
else in the signals (phase, amplitude, duration, template choice, low-level
noise) is nuisance that carries no label information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .fileio import atomic_write_text
from .speech import FrameFeaturizerConfig, Codebook, discretize, featurize
from .text import Vocabulary, encode
from .tokens import TokenSequence

CLASS_NAMES = ("neutral", "happy", "sad", "angry")
# Head outputs per label mode: a (negative, positive) logit pair per class, or one score.
HEAD_OUTPUTS = {"categorical": 2 * len(CLASS_NAMES), "score": 1}

HINT_FLIP_PROB = 0.25

# Indexed by 2*a + speech_hint; all four sit exactly on rfft bins of the
# default 400-sample window at 16 kHz, so tones quantize cleanly.
TONE_PITCHES_HZ = (400.0, 600.0, 800.0, 1000.0)

# Indexed by 2*b + text_hint.
KEYWORDS = ("steady", "cheerful", "gloomy", "furious")

TEMPLATES = (
    "i feel {} right now",
    "that was a {} thing to say",
    "what a {} day this has been",
    "it all sounds {} to me",
)

SPLIT_FRACTIONS = {"train": 0.6, "valid": 0.2, "test": 0.2}

LABEL_MODES = ("categorical", "score")

SCORE_OFFSET = 1.5  # score = (2a + b) - 1.5, inside the [-3, 3] band


@dataclass
class LabeledExample:
    """One dataset row: frame features, transcript, and a label or score."""

    id: str
    frames: np.ndarray
    text: str
    label: int | None = None
    score: float | None = None


@dataclass
class Dataset:
    examples: list[LabeledExample]
    label_mode: str
    splits: dict[str, list[int]]

    def subset(self, split: str) -> list[LabeledExample]:
        if split not in self.splits:
            raise InputError(f"dataset has no split {split!r}")
        return [self.examples[i] for i in self.splits[split]]


def closed_form_bayes_rates(flip_prob: float = HINT_FLIP_PROB) -> dict[str, float]:
    """Best achievable accuracy per observation set, from the generator design."""
    return {
        "speech_only": 1.0 - flip_prob,
        "text_only": 1.0 - flip_prob,
        "bimodal": 1.0,
        "majority": 0.25,
    }


def sample_factors(n: int, seed) -> dict[str, np.ndarray]:
    """Draw the discrete generative factors for n examples.

    Labels cycle through the four classes before a seeded shuffle, so class
    counts are exactly balanced whenever n is a multiple of 4.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 4)
    a = labels >> 1
    b = labels & 1
    speech_hint = b ^ (rng.random(n) < HINT_FLIP_PROB)
    text_hint = a ^ (rng.random(n) < HINT_FLIP_PROB)
    return {
        "label": labels,
        "a": a,
        "b": b,
        "speech_hint": speech_hint.astype(np.int64),
        "text_hint": text_hint.astype(np.int64),
    }


def synth_waveform(pitch_hz: float, rng: np.random.Generator,
                   cfg: FrameFeaturizerConfig) -> np.ndarray:
    """An amplitude-modulated tone with nuisance phase/level/duration/noise."""
    duration = rng.uniform(0.45, 0.6)
    t = np.arange(int(duration * cfg.sample_rate)) / cfg.sample_rate
    amplitude = rng.uniform(0.4, 0.7)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    am = 1.0 + 0.3 * np.sin(2.0 * np.pi * 4.0 * t)
    return amplitude * am * np.sin(2.0 * np.pi * pitch_hz * t + phase) + 0.005 * rng.standard_normal(len(t))


def generate_synthetic(
    n: int,
    seed,
    mode: str = "categorical",
    featurizer: FrameFeaturizerConfig | None = None,
) -> Dataset:
    """Generate a synthetic bimodal dataset with known Bayes rates.

    Splits are stratified by class at 60/20/20 so every split stays balanced.
    """
    if n < 40:
        raise InputError(f"need n >= 40 synthetic examples, got {n}")
    if mode not in LABEL_MODES:
        raise InputError(f"mode must be one of {LABEL_MODES}, got {mode!r}")
    cfg = featurizer or FrameFeaturizerConfig()
    rng = np.random.default_rng(seed)
    factors = sample_factors(n, rng)
    examples = []
    for i in range(n):
        pitch = TONE_PITCHES_HZ[2 * factors["a"][i] + factors["speech_hint"][i]]
        frames = featurize(synth_waveform(pitch, rng, cfg), cfg)
        keyword = KEYWORDS[2 * factors["b"][i] + factors["text_hint"][i]]
        template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
        label = int(factors["label"][i])
        examples.append(LabeledExample(
            id=f"ex{i:05d}",
            frames=frames,
            text=template.format(keyword),
            label=label if mode == "categorical" else None,
            score=(label - SCORE_OFFSET) if mode == "score" else None,
        ))
    splits = _stratified_splits(factors["label"], rng)
    return Dataset(examples=examples, label_mode=mode, splits=splits)


def _stratified_splits(labels: np.ndarray, rng: np.random.Generator) -> dict[str, list[int]]:
    splits: dict[str, list[int]] = {name: [] for name in SPLIT_FRACTIONS}
    for cls in range(4):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(len(idx) * SPLIT_FRACTIONS["train"]))
        n_valid = int(round(len(idx) * SPLIT_FRACTIONS["valid"]))
        splits["train"] += idx[:n_train].tolist()
        splits["valid"] += idx[n_train : n_train + n_valid].tolist()
        splits["test"] += idx[n_train + n_valid :].tolist()
    return {name: sorted(members) for name, members in splits.items()}


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    """One JSON object per line; floats keep full precision so reloads are exact."""
    split_of = {i: name for name, members in dataset.splits.items() for i in members}
    lines = []
    for i, ex in enumerate(dataset.examples):
        record: dict = {"id": ex.id, "frames": ex.frames.tolist(), "text": ex.text}
        if dataset.label_mode == "categorical":
            record["label"] = ex.label
        else:
            record["score"] = ex.score
        if i in split_of:
            record["split"] = split_of[i]
        lines.append(json.dumps(record, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def _lines(path: Path):
    """The lines of ``path`` as ``bytes.splitlines`` numbers them, read one at a time."""
    with open(path, "rb") as fh:
        for chunk in fh:  # a chunk ends at b"\n", so it never splits a b"\r\n"
            yield from chunk.splitlines()


def load_jsonl(path: str | Path, featurizer: FrameFeaturizerConfig | None = None) -> Dataset:
    """Load and validate a dataset file; errors name the offending line.

    Each record needs id, text, exactly one of frames (inline [T x n]) or
    audio_path (a .npy of raw samples, featurized on load), and exactly one
    of label (int in 0..3) or score (float in [-3, 3]). An optional split
    field assigns the example to a named split; without it, examples land in
    "train".
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file {path} does not exist")
    examples: list[LabeledExample] = []
    splits: dict[str, list[int]] = {}
    label_mode: str | None = None
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise InputError(f"{path}:{lineno}: a record must be a JSON object")
        for field in ("id", "text"):
            if field not in record:
                raise InputError(f"{path}:{lineno}: missing field {field!r}")
        if ("frames" in record) == ("audio_path" in record):
            raise InputError(f"{path}:{lineno}: need exactly one of frames or audio_path")
        if ("label" in record) == ("score" in record):
            raise InputError(f"{path}:{lineno}: need exactly one of label or score")
        mode = "categorical" if "label" in record else "score"
        if label_mode is None:
            label_mode = mode
        elif label_mode != mode:
            raise InputError(f"{path}:{lineno}: mixes label and score records")
        example_id = str(record["id"])
        first = first_line.setdefault(example_id, lineno)
        if first != lineno:
            raise InputError(f"{path}:{lineno}: duplicate id {example_id!r} (first on line {first})")
        if "frames" in record:
            try:
                frames = np.asarray(record["frames"], dtype=np.float64)
            except (TypeError, ValueError):
                frames = None
            if frames is None or frames.ndim != 2:
                raise InputError(f"{path}:{lineno}: frames must be a 2-D list of numbers")
            if not np.isfinite(frames).all():
                raise InputError(f"{path}:{lineno}: frames contain non-finite values")
        else:
            audio = record["audio_path"]
            try:
                samples = np.asarray(np.load(path.parent / audio), dtype=np.float64)
            except (OSError, TypeError, ValueError) as exc:
                raise InputError(f"{path}:{lineno}: cannot load audio_path {audio!r} ({exc})") from None
            if not np.isfinite(samples).all():
                raise InputError(f"{path}:{lineno}: audio_path {audio!r} has non-finite samples")
            try:
                frames = featurize(samples, featurizer or FrameFeaturizerConfig())
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: audio_path {audio!r}: {exc}") from None
        label = score = None
        if mode == "categorical":
            label = record["label"]
            if isinstance(label, bool) or not isinstance(label, int) or not (0 <= label < 4):
                raise InputError(f"{path}:{lineno}: label must be an integer in 0..3")
        else:
            score = record["score"]
            if type(score) not in (int, float) or not (-3.0 <= score <= 3.0):
                raise InputError(f"{path}:{lineno}: score {score!r} is not a number in [-3, 3]")
            score = float(score)
        splits.setdefault(record.get("split", "train"), []).append(len(examples))
        examples.append(LabeledExample(
            id=example_id, frames=frames, text=str(record["text"]),
            label=label, score=score,
        ))
    return Dataset(examples=examples, label_mode=label_mode or "categorical", splits=splits)


@dataclass
class TokenizedExample:
    """A dataset row after the front ends have run; an untokenized modality is None."""

    id: str
    speech: TokenSequence | None
    text: TokenSequence | None
    target: int | float


def tokenize_examples(
    examples: list[LabeledExample],
    codebook: Codebook,
    vocab: Vocabulary,
    speech_max_len: int | None,
    text_max_len: int | None,
) -> list[TokenizedExample]:
    """Tokenize each example's speech and text; a max_len of None skips that modality."""
    out = []
    for ex in examples:
        target = ex.label if ex.label is not None else ex.score
        out.append(TokenizedExample(
            id=ex.id,
            speech=None if speech_max_len is None else discretize(ex.frames, codebook, speech_max_len),
            text=None if text_max_len is None else encode(ex.text, vocab, max_len=text_max_len),
            target=target,
        ))
    return out
