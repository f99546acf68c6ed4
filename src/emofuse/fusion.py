"""Fusing the encoders: one table of fusion kinds and one ``fuse``.

``FUSION_KINDS`` maps each kind to the modalities whose encoders it reads:
"shallow" and "coattn" read both, each unimodal kind its own.
``FusionModel`` is built from that table, and every kind goes through
``fuse``: it takes each encoder output's CLS vector (speech first), lets
them co-attend when the kind has a co-attention block, concatenates them
(a single CLS goes as it is) and applies one linear head.

In co-attention each modality's CLS attends, as a single multi-head query,
over the other modality's full hidden sequence; the attended vector is
projected and added residually onto the original CLS. With zero-initialized
attention parameters the residual path makes co-attentional fusion collapse
exactly onto shallow fusion.

Internally each direction projects the other modality's sequence into the
query modality's dimension, so per-direction parameter counts are
2*d_q^2 + 2*d_q*d_kv + 4*d_q regardless of head count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import EncoderConfig, EncoderOutput, EncoderState, init_params, multi_head_attention
from .errors import ConfigError, InputError

# Each fusion kind and the modalities whose encoders it reads, speech first.
FUSION_KINDS = {"shallow": ("speech", "text"), "coattn": ("speech", "text"),
                "speech-only": ("speech",), "text-only": ("text",)}


class LinearHead:
    """Single fully connected layer from a feature vector to logits."""

    def __init__(self, w: T.Tensor, b: T.Tensor):
        if w.data.ndim != 2 or b.data.shape != (1, w.data.shape[1]):
            raise ConfigError(f"inconsistent head shapes {w.shape} / {b.shape}")
        self.w = w
        self.b = b

    @classmethod
    def init(cls, in_dim: int, n_outputs: int, rng: np.random.Generator | None) -> "LinearHead":
        return cls(**init_params([("w", (in_dim, n_outputs), "weight"),
                                  ("b", (1, n_outputs), "bias")], rng))

    @property
    def in_dim(self) -> int:
        return self.w.data.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.w.data.shape[1]

    def param_count(self) -> int:
        return self.w.size + self.b.size

    def params(self) -> dict[str, T.Tensor]:
        return {"w": self.w, "b": self.b}

    def apply(self, features: T.Tensor) -> T.Tensor:
        if features.data.shape[1] != self.in_dim:
            raise ConfigError(
                f"head expects {self.in_dim} input features, got {features.data.shape[1]}"
            )
        return T.linear(features, self.w, self.b)


def shallow_head_param_count(d_speech: int, d_text: int, n_outputs: int) -> int:
    """(d_speech + d_text) * n_outputs weights plus n_outputs biases."""
    return (d_speech + d_text) * n_outputs + n_outputs


@dataclass
class FusionOutput:
    """Logits for one example, with optional per-direction attention weights."""

    logits: T.Tensor
    attention: dict[str, np.ndarray] | None = None


class CoAttentionBlock:
    """Cross-modal attention parameters for both directions.

    Direction names: "sq" queries from the speech CLS over the text sequence,
    "tq" queries from the text CLS over the speech sequence.
    """

    def __init__(self, d_speech: int, d_text: int, n_heads: int, params: dict[str, T.Tensor]):
        if n_heads < 1 or d_speech % n_heads != 0 or d_text % n_heads != 0:
            raise ConfigError(
                f"n_heads {n_heads} must divide both d_speech {d_speech} and d_text {d_text}"
            )
        self.d_speech = d_speech
        self.d_text = d_text
        self.n_heads = n_heads
        self.params = params

    @classmethod
    def shapes(cls, d_speech: int, d_text: int) -> list[tuple[str, tuple[int, int], str]]:
        """(name, shape, kind) of every parameter, in checkpoint order."""
        out: list[tuple[str, tuple[int, int], str]] = []
        for pfx, d_q, d_kv in (("sq", d_speech, d_text), ("tq", d_text, d_speech)):
            for proj, d_in in (("q", d_q), ("k", d_kv), ("v", d_kv), ("o", d_q)):
                out += [(f"{pfx}.{proj}_w", (d_in, d_q), "weight"),
                        (f"{pfx}.{proj}_b", (1, d_q), "bias")]
        return out

    @classmethod
    def init(cls, d_speech: int, d_text: int, n_heads: int,
             rng: np.random.Generator | None) -> "CoAttentionBlock":
        return cls(d_speech, d_text, n_heads, init_params(cls.shapes(d_speech, d_text), rng))

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())


def coattention_param_count(d_speech: int, d_text: int) -> int:
    """Closed form for the block above; head count does not enter."""
    per_dir = lambda d_q, d_kv: 2 * d_q * d_q + 2 * d_q * d_kv + 4 * d_q
    return per_dir(d_speech, d_text) + per_dir(d_text, d_speech)


def co_attend(
    speech_out: EncoderOutput,
    text_out: EncoderOutput,
    block: CoAttentionBlock,
    drop_rate: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[T.Tensor, T.Tensor, dict[str, np.ndarray]]:
    """Modify both CLS vectors by single-query cross-attention with residual add.

    Returns (modified speech CLS, modified text CLS, attention weights per
    direction, each [n_heads x other_sequence_length]).
    """
    if speech_out.hidden.data.shape[0] < 1 or text_out.hidden.data.shape[0] < 1:
        raise InputError("co_attend needs non-empty sequences in both modalities")
    out = []
    for prefix, query, other in (("sq", speech_out, text_out), ("tq", text_out, speech_out)):
        cls_vec = query.cls
        params = (block.params[f"{prefix}.{p}_{kind}"] for p in "qkvo" for kind in "wb")
        projected, weights = multi_head_attention(cls_vec, other.hidden, *params, block.n_heads)
        out.append((cls_vec + T.dropout(projected, drop_rate, rng, train_mode), weights[:, 0]))
    (cls_s, attn_s), (cls_t, attn_t) = out
    return cls_s, cls_t, {"speech_to_text": attn_s, "text_to_speech": attn_t}


def fuse(outputs: list[EncoderOutput], head: LinearHead, block: CoAttentionBlock | None = None,
         drop_rate: float = 0.0, train_mode: bool = False,
         rng: np.random.Generator | None = None) -> FusionOutput:
    """Logits from the encoder outputs, speech first: each output's CLS,
    co-attended when there is a block, concatenated into the head. A single
    CLS goes to the head as it is."""
    attention = None
    if block is not None:
        *cls_vecs, attention = co_attend(*outputs, block, drop_rate, train_mode, rng)
    else:
        cls_vecs = [out.cls for out in outputs]
    features = T.concat_cols(cls_vecs) if len(cls_vecs) > 1 else cls_vecs[0]
    return FusionOutput(logits=head.apply(features), attention=attention)


def _read_by(kind: str, speech, text) -> dict:
    """The encoders (or their configs) that ``kind`` reads, by modality, speech first."""
    if kind not in FUSION_KINDS:
        raise ConfigError(f"fusion kind must be one of {tuple(FUSION_KINDS)}, got {kind!r}")
    given = {"speech": speech, "text": text}
    for modality in FUSION_KINDS[kind]:
        if given[modality] is None:
            raise ConfigError(f"{kind} fusion needs a {modality} encoder")
    return {modality: given[modality] for modality in FUSION_KINDS[kind]}


class FusionModel:
    """The encoders a fusion kind reads, its co-attention block (``coattn``
    only) and the classification head."""

    def __init__(self, kind: str, head: LinearHead, speech: EncoderState | None = None,
                 text: EncoderState | None = None, block: CoAttentionBlock | None = None,
                 fusion_dropout: float = 0.0):
        encoders = _read_by(kind, speech, text)
        for modality, state in (("speech", speech), ("text", text)):
            if state is not None and modality not in encoders:
                raise ConfigError(f"{kind} fusion does not read a {modality} encoder")
        if (block is None) == (kind == "coattn"):
            raise ConfigError("coattn fusion needs a CoAttentionBlock" if block is None
                              else f"{kind} fusion takes no CoAttentionBlock")
        width = sum(state.cfg.d_model for state in encoders.values())
        if head.in_dim != width:
            raise ConfigError(
                f"{kind} fusion needs a head with {width} input features, got {head.in_dim}")
        self.kind = kind
        self.head = head
        self.speech = speech
        self.text = text
        self.block = block
        self.fusion_dropout = fusion_dropout

    @classmethod
    def init(cls, kind: str, speech_cfg: EncoderConfig | None, text_cfg: EncoderConfig | None,
             n_outputs: int, coattn_heads: int, rng: np.random.Generator | None,
             fusion_dropout: float = 0.0) -> "FusionModel":
        """Fresh model of ``kind``; only the encoders it reads are built.

        Draws from ``rng`` in a fixed order: speech encoder, text encoder,
        head, co-attention block. With ``rng=None`` every parameter is zero,
        the blank that ``load_fusion_checkpoint`` fills.
        """
        encoders = {modality: EncoderState.init(cfg, rng)
                    for modality, cfg in _read_by(kind, speech_cfg, text_cfg).items()}
        width = sum(state.cfg.d_model for state in encoders.values())
        head = LinearHead.init(width, n_outputs, rng)
        block = (CoAttentionBlock.init(speech_cfg.d_model, text_cfg.d_model, coattn_heads, rng)
                 if kind == "coattn" else None)
        return cls(kind, head, **encoders, block=block, fusion_dropout=fusion_dropout)

    def encoders(self) -> dict[str, EncoderState]:
        """The encoders the kind reads, by modality, speech first."""
        return {modality: getattr(self, modality) for modality in FUSION_KINDS[self.kind]}

    def named_params(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for modality, state in self.encoders().items():
            out.update({f"{modality}.{n}": p for n, p in state.params.items()})
        if self.block is not None:
            out.update({f"fusion.block.{n}": p for n, p in self.block.params.items()})
        out.update({f"fusion.head.{n}": p for n, p in self.head.params().items()})
        return out

    def fuse(self, *outputs: EncoderOutput, train_mode: bool = False,
             rng: np.random.Generator | None = None) -> FusionOutput:
        """Logits from the outputs of ``encoders()``, in that order."""
        return fuse(list(outputs), self.head, self.block, self.fusion_dropout, train_mode, rng)
