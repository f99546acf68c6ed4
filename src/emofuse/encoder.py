"""Bidirectional transformer encoder over token sequences, plus the masked-token objective.

The same encoder is instantiated twice in the pipeline: once over discretized
speech tokens and once over text tokens. Blocks use pre-norm residual
ordering (attention then feed-forward), learned positional embeddings, and a
masked-prediction head weight-tied to the token embedding table, so the head
only adds a per-vocabulary bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError, UsageError
from .tokens import MASK, N_SPECIALS, TokenSequence

INIT_STD = 0.02

_ATTN_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
# Most bytes of the largest float64 intermediate of one forward_many stack.
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters of one encoder."""

    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_len: int
    dropout_rate: float = 0.1

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_heads, self.d_ff, self.vocab_size) < 1:
            raise ConfigError("all size fields must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


# Desk-scale defaults; the full-scale configs below stay constructible for
# shape and parameter-count checks but are never trained here.
SPEECH_DESK = EncoderConfig(n_layers=4, d_model=128, n_heads=4, d_ff=512,
                            vocab_size=N_SPECIALS + 256, max_len=256)
TEXT_DESK = EncoderConfig(n_layers=4, d_model=160, n_heads=4, d_ff=640,
                          vocab_size=2000, max_len=64)
SPEECH_FULL_SCALE = EncoderConfig(n_layers=12, d_model=768, n_heads=12, d_ff=3072,
                                  vocab_size=N_SPECIALS + 256, max_len=2048)
TEXT_FULL_SCALE = EncoderConfig(n_layers=24, d_model=1024, n_heads=16, d_ff=4096,
                                vocab_size=2000, max_len=512)


def parameter_shapes(cfg: EncoderConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Yield (name, shape, kind) for every parameter, in checkpoint order.

    kind is one of "weight" (normal init), "bias" (zeros), "gain" (ones).
    """
    d, f = cfg.d_model, cfg.d_ff
    yield "tok_emb", (cfg.vocab_size, d), "weight"
    yield "pos_emb", (cfg.max_len, d), "weight"
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        yield f"{p}.ln1.g", (1, d), "gain"
        yield f"{p}.ln1.b", (1, d), "bias"
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{p}.attn.{proj}", (d, d), "weight"
        for b in ("bq", "bk", "bv", "bo"):
            yield f"{p}.attn.{b}", (1, d), "bias"
        yield f"{p}.ln2.g", (1, d), "gain"
        yield f"{p}.ln2.b", (1, d), "bias"
        yield f"{p}.ff.w1", (d, f), "weight"
        yield f"{p}.ff.b1", (1, f), "bias"
        yield f"{p}.ff.w2", (f, d), "weight"
        yield f"{p}.ff.b2", (1, d), "bias"
    yield "final_ln.g", (1, d), "gain"
    yield "final_ln.b", (1, d), "bias"
    yield "mlm_bias", (1, cfg.vocab_size), "bias"


def param_count(cfg: EncoderConfig) -> int:
    """Exact parameter count as a closed form of the config.

    vocab*d (tied embeddings/output) + max_len*d (positions)
    + n_layers * (4d^2 + 4d attention, 4d for the two norms,
                  2*d*d_ff + d_ff + d feed-forward)
    + 2d final norm + vocab output bias.
    """
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    per_layer = 4 * d * d + 4 * d + 4 * d + 2 * d * f + f + d
    return v * d + cfg.max_len * d + cfg.n_layers * per_layer + 2 * d + v


def init_params(shapes, rng: np.random.Generator | None) -> dict[str, T.Tensor]:
    """Trainable tensors for (name, shape, kind) triples, created in the order given.

    A "weight" is drawn as normal(0, INIT_STD) from ``rng``, a "gain" is all
    ones and a "bias" all zeros. With ``rng=None`` every parameter is zero:
    the blank a checkpoint is loaded into.
    """
    params: dict[str, T.Tensor] = {}
    for name, shape, kind in shapes:
        if rng is None or kind == "bias":
            data = np.zeros(shape)
        elif kind == "weight":
            data = rng.normal(0.0, INIT_STD, size=shape)
        else:
            data = np.ones(shape)
        params[name] = T.Tensor(data, requires_grad=True)
    return params


class EncoderState:
    """Learnable parameters of one encoder, keyed by name in checkpoint order."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, T.Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator | None) -> "EncoderState":
        """Fresh state from ``init_params``; all zeros with ``rng=None``."""
        return cls(cfg, init_params(parameter_shapes(cfg), rng))

    def actual_param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag


@dataclass
class EncoderOutput:
    """Hidden states [L x d_model], row 0 the CLS vector (those of ``forward``'s ``rows``)."""

    hidden: T.Tensor

    @property
    def cls(self) -> T.Tensor:
        return T.gather_rows(self.hidden, np.array([0]))


def multi_head_attention(x, kv, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Scaled dot-product attention of the rows of ``x`` over the rows of ``kv``.

    Self-attention passes ``kv = x``; co-attention passes the other modality's
    sequence. The heads run as one [n_heads x L x d_head] batch, split from and
    merged back into the projections' columns, behind any leading batch axes.
    Returns the output [Lq x d] and the weights [n_heads x Lq x Lkv].
    """
    dh = wq.data.shape[1] // n_heads
    q = T.split_heads(T.linear(x, wq, bq), n_heads)
    k = T.split_heads(T.linear(kv, wk, bk), n_heads)
    v = T.split_heads(T.linear(kv, wv, bv), n_heads)
    k_t = T.transpose(k, (*range(k.data.ndim - 2), k.data.ndim - 1, k.data.ndim - 2))
    attn = T.softmax_rows(T.scale(T.matmul(q, k_t), 1.0 / math.sqrt(dh)))
    return T.linear(T.merge_heads(T.matmul(attn, v)), wo, bo), attn.data


def _checked_ids(seq: TokenSequence, cfg: EncoderConfig) -> np.ndarray:
    """The IDs of ``seq``; overlong sequences and IDs outside the vocabulary are rejected."""
    if len(seq) > cfg.max_len:
        raise InputError(f"sequence of length {len(seq)} exceeds max_len {cfg.max_len}")
    ids = np.asarray(seq.ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"token id outside vocabulary of size {cfg.vocab_size}")
    return ids


def _body(ids: np.ndarray, state: EncoderState, drop: float, rng, train_mode: bool,
          rows: np.ndarray | None = None) -> T.Tensor:
    """Hidden states of one sequence [L] or a stack of equal-length sequences [B x L].

    With ``rows`` (one sequence only) the result is [len(rows) x d], the states of
    those rows in that order. The last layer's keys and values still read every
    row; its queries, residual, dropouts, feed-forward and the final norm run at
    those rows alone, each dropout drawing its mask as for all L rows.
    """
    cfg, prms = state.cfg, state.params
    x = (T.gather_rows(prms["tok_emb"], ids)
         + T.gather_rows(prms["pos_emb"], np.arange(ids.shape[-1])))
    x = T.dropout(x, drop, rng, train_mode)
    keep = None
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        h = q = T.layer_norm(x, prms[f"{p}.ln1.g"], prms[f"{p}.ln1.b"])
        if rows is not None and i == cfg.n_layers - 1:
            keep = (ids.shape[-1], rows)
            x, q = T.gather_rows(x, rows), T.gather_rows(h, rows)
        a, _ = multi_head_attention(q, h, *(prms[f"{p}.attn.{n}"] for n in _ATTN_PARAMS),
                                    cfg.n_heads)
        x = x + T.dropout(a, drop, rng, train_mode, keep)
        h2 = T.layer_norm(x, prms[f"{p}.ln2.g"], prms[f"{p}.ln2.b"])
        f = T.gelu(T.linear(h2, prms[f"{p}.ff.w1"], prms[f"{p}.ff.b1"]))
        f = T.linear(f, prms[f"{p}.ff.w2"], prms[f"{p}.ff.b2"])
        x = x + T.dropout(f, drop, rng, train_mode, keep)
    return T.layer_norm(x, prms["final_ln.g"], prms["final_ln.b"])


def forward(
    seq: TokenSequence,
    state: EncoderState,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> EncoderOutput:
    """Run the encoder over one sequence.

    Dropout applies only in train mode and draws from the caller's rng, so
    eval-mode forward is a pure function of (state, seq). Overlong sequences
    are rejected; truncation is the tokenizers' job. Given ``rows``, ``hidden``
    holds those rows alone (see ``_body``), equal to the full rows up to rounding.
    """
    ids = _checked_ids(seq, state.cfg)
    drop = state.cfg.dropout_rate if train_mode else 0.0
    if drop > 0.0 and rng is None:
        raise UsageError("train-mode forward with dropout needs an rng")
    return EncoderOutput(hidden=_body(ids, state, drop, rng, train_mode, rows))


def forward_many(seqs: list[TokenSequence], state: EncoderState) -> list[EncoderOutput]:
    """Eval-mode ``forward`` of each sequence, run in length groups and recording no graph.

    Each distinct sequence runs once. Equal-length ones run as [B x L] stacks whose
    largest intermediate, the attention scores [B x h x L x L] or the feed-forward
    [B x L x d_ff], takes at most STACK_BYTES when B > 1; the stacks run one after
    another. Each output, in input order, is bitwise its own ``forward``; its
    ``hidden`` is a row view of its stack, the same view for equal sequences.
    """
    ids = [_checked_ids(seq, state.cfg) for seq in seqs]
    first: dict[tuple[int, ...], int] = {}  # each distinct sequence's first position
    for i, seq in enumerate(seqs):
        first.setdefault(seq.ids, i)
    groups: dict[int, list[int]] = {}
    for i in first.values():
        groups.setdefault(len(ids[i]), []).append(i)
    stacks = []
    for n, members in groups.items():
        rows = max(1, STACK_BYTES // (8 * n * max(state.cfg.n_heads * n, state.cfg.d_ff)))
        stacks += [members[s : s + rows] for s in range(0, len(members), rows)]
    with T.no_grad():
        hiddens = [_body(np.stack([ids[i] for i in stack]), state, 0.0, None, False)
                   for stack in stacks]
    row_of = {i: h.data[r] for stack, h in zip(stacks, hiddens) for r, i in enumerate(stack)}
    return [EncoderOutput(T.Tensor(row_of[first[seq.ids]])) for seq in seqs]


def mask_corrupt(
    seq: TokenSequence,
    mask_rate: float,
    seed,
    vocab_size: int,
) -> tuple[TokenSequence, tuple[tuple[int, int], ...]]:
    """BERT-style corruption over non-special positions.

    Each eligible position is targeted independently with probability
    mask_rate; at least one is always targeted. Of the targeted positions,
    80% become MASK, 10% a random non-special token, 10% stay unchanged.
    Returns the corrupted sequence and (position, original_id) targets.
    seed accepts an int or an existing numpy Generator.
    """
    if not (0.0 < mask_rate <= 1.0):
        raise UsageError(f"mask_rate must be in (0, 1], got {mask_rate}")
    if len(seq.body) < 1:
        raise InputError("cannot corrupt a CLS-only sequence")
    eligible = [i for i in range(1, len(seq)) if seq.ids[i] >= N_SPECIALS]
    if not eligible:
        raise InputError("sequence has no maskable (non-special) positions")
    rng = np.random.default_rng(seed)
    draws = rng.random(len(eligible))
    selected = [pos for pos, u in zip(eligible, draws) if u < mask_rate]
    if not selected:
        selected = [eligible[int(rng.integers(len(eligible)))]]
    new_ids = list(seq.ids)
    targets = []
    for pos in selected:
        targets.append((pos, seq.ids[pos]))
        r = rng.random()
        if r < 0.8:
            new_ids[pos] = MASK
        elif r < 0.9:
            new_ids[pos] = int(rng.integers(N_SPECIALS, vocab_size))
    return TokenSequence(seq.modality, tuple(new_ids)), tuple(targets)


def masked_lm_loss(
    state: EncoderState,
    corrupted: TokenSequence,
    targets: tuple[tuple[int, int], ...],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> T.Tensor:
    """Mean cross-entropy at the target positions against the original IDs.

    Prediction logits come from the weight-tied head: hidden @ tok_emb^T
    plus the per-vocabulary bias, at the target rows, the only ones computed.
    """
    if not targets:
        raise InputError("masked_lm_loss needs at least one target position")
    for pos, orig in targets:
        for value, what, end in ((pos, "position", len(corrupted)),
                                 (orig, "original id", state.cfg.vocab_size)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < end:
                raise InputError(f"masked-LM target {(pos, orig)!r}: {what} {value!r} is "
                                 f"not an integer in [0, {end})")
    positions = np.array([p for p, _ in targets], dtype=np.int64)
    originals = np.array([o for _, o in targets], dtype=np.int64)
    out = forward(corrupted, state, train_mode=train_mode, rng=rng, rows=positions)
    logits = T.linear(out.hidden, T.transpose(state.params["tok_emb"]), state.params["mlm_bias"])
    return T.cross_entropy_rows(logits, originals)
