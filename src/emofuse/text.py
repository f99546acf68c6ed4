"""Word-level text tokenization: vocabulary building, encode, decode.

Text is lowercased and split on whitespace and punctuation; apostrophes are
kept inside words. The vocabulary maps the most frequent corpus types to IDs
above the reserved specials, so corpus tokenization can never produce a
special ID by itself. The word-level scheme is deliberately simple; anything
implementing the same three functions can be slotted in as a replacement.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError
from .fileio import atomic_write_text
from .tokens import CLS, N_SPECIALS, SPECIAL_TOKENS, UNK, TokenSequence

TEXT_MAX_LEN = 512

_WORD_RE = re.compile(r"[a-z0-9']+")

_VOCAB_HEADER = "#emofuse-vocab v1"


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split into word tokens, dropping punctuation."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Bijective token <-> ID map with the reserved specials at fixed low IDs."""

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if len(set(tokens)) != len(tokens):
            raise InputError("vocabulary tokens must be unique")
        self._tokens = tokens
        self._ids = {tok: N_SPECIALS + i for i, tok in enumerate(tokens)}

    @property
    def size(self) -> int:
        """Total ID count including the specials."""
        return N_SPECIALS + len(self._tokens)

    def id_of(self, token: str) -> int:
        """ID for a corpus token, or UNK when out of vocabulary."""
        return self._ids.get(token, UNK)

    def token_of(self, token_id: int) -> str:
        if 0 <= token_id < N_SPECIALS:
            return SPECIAL_TOKENS[token_id]
        if N_SPECIALS <= token_id < self.size:
            return self._tokens[token_id - N_SPECIALS]
        raise InputError(f"token id {token_id} outside vocabulary of size {self.size}")

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def save(self, path: str | Path) -> None:
        """Write the line-oriented vocabulary file (specials header, one token per line)."""
        lines = [_VOCAB_HEADER]
        lines += [f"#special {i} {tok}" for i, tok in enumerate(SPECIAL_TOKENS)]
        lines += self._tokens
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            lines = Path(path).read_bytes().decode("utf-8").splitlines()
        except UnicodeDecodeError as err:
            raise InputError(f"{path}: vocabulary is not UTF-8 ({err})") from None
        if not lines or lines[0] != _VOCAB_HEADER:
            raise InputError(f"{path}: not a vocabulary file")
        tokens = [ln for ln in lines[1:] if not ln.startswith("#special")]
        try:
            return cls(tokens)
        except InputError as err:
            raise InputError(f"{path}: {err}") from None


def build_vocab(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Build a vocabulary from the most frequent corpus types.

    Keeps at most max_size - N_SPECIALS types; frequency ties break
    lexicographically, so the result is independent of corpus order.
    """
    counts: Counter[str] = Counter()
    n_docs = 0
    for line in corpus:
        n_docs += 1
        counts.update(tokenize_text(line))
    if n_docs == 0:
        raise InputError("cannot build a vocabulary from an empty corpus")
    if max_size <= N_SPECIALS:
        raise InputError(f"max_size must exceed the {N_SPECIALS} reserved specials")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - N_SPECIALS]]
    return Vocabulary(kept)


def encode(text: str, vocab: Vocabulary, max_len: int = TEXT_MAX_LEN) -> TokenSequence:
    """Map text to a CLS-prefixed token sequence, truncated to max_len."""
    body = [vocab.id_of(tok) for tok in tokenize_text(text)]
    return TokenSequence("text", (CLS, *body[: max_len - 1]))


def decode(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Space-join the token strings for the given IDs, omitting specials."""
    words = []
    for i in ids:
        tok = vocab.token_of(int(i))
        if int(i) >= N_SPECIALS:
            words.append(tok)
    return " ".join(words)
