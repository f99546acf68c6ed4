"""Checkpoint files: a JSON header plus named float64 parameter blocks.

Layout, byte-exact so save -> load is the identity:

    bytes 0..7    magic "EMFCKPT1"
    bytes 8..11   u32 little-endian header length H
    bytes 12..    H bytes of UTF-8 JSON: {"meta": {...},
                   "blocks": [{"name": str, "shape": [int, ...]}, ...]}
    then          for each block, in listed order, C-order float64
                  little-endian data

The same container stores encoder states, fusion models, and optimizer
moments; meta carries the configs needed to rebuild them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import HEAD_OUTPUTS
from .encoder import EncoderConfig, EncoderState
from .errors import ConfigError, InputError
from .fileio import atomic_write_bytes
from .fusion import FusionModel

MAGIC = b"EMFCKPT1"


def save_checkpoint(path: str | Path, meta: dict, blocks: dict[str, np.ndarray]) -> None:
    """Write the header, then each block straight from its own array.

    A block that is already a C-contiguous little-endian float64 array, as
    every parameter and optimizer moment is, is written without a copy.
    """
    entries = [{"name": name, "shape": list(arr.shape)} for name, arr in blocks.items()]
    header = json.dumps({"meta": meta, "blocks": entries}, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, [MAGIC, struct.pack("<I", len(header)), header,
                              *(np.ascontiguousarray(arr, dtype="<f8") for arr in blocks.values())])


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read the header, then each block straight into the array it is returned in."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:8] != MAGIC:
            raise InputError(f"{path}: not a checkpoint file")
        offset = 12 + int.from_bytes(head[8:12], "little")
        if len(head) < 12 or offset > size:
            raise InputError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(offset - 12).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise InputError(f"{path}: unreadable checkpoint header ({err})") from None
        if (not isinstance(header, dict) or not isinstance(header.get("meta"), dict)
                or not isinstance(header.get("blocks"), list)):
            raise InputError(f"{path}: checkpoint header needs a 'meta' object and a 'blocks' list")
        blocks: dict[str, np.ndarray] = {}
        for entry in header["blocks"]:
            if not _valid_block_entry(entry) or entry["name"] in blocks:
                raise InputError(f"{path}: malformed or repeated block entry {entry!r}")
            shape = tuple(entry["shape"])
            end = offset + math.prod(shape) * 8
            if end > size:
                raise InputError(f"{path}: truncated checkpoint at block {entry['name']!r}")
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError as err:  # a zero-size shape past NumPy's dimension limits
                raise InputError(f"{path}: block {entry['name']!r}: {err}") from None
            # Read through a flat byte view: memoryview cannot cast a zero-size block.
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise InputError(f"{path}: truncated checkpoint at block {entry['name']!r}")
            blocks[entry["name"]] = arr
            offset = end
    if offset != size:
        raise InputError(f"{path}: {size - offset} trailing bytes after last block")
    return header["meta"], blocks


def _valid_block_entry(entry) -> bool:
    """A ``{"name": str, "shape": [non-negative int, ...]}`` header entry."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"]))


@contextmanager
def _metadata_errors(path: str | Path):
    """Report a config that the header's metadata cannot build as an InputError."""
    try:
        yield
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise InputError(f"{path}: invalid checkpoint metadata ({type(err).__name__}: {err})") from None


def checked_block(path: str | Path, blocks: dict[str, np.ndarray], name: str,
                  shape: tuple[int, ...]) -> np.ndarray:
    """The block ``name`` of the checkpoint at ``path``, which must exist with ``shape``."""
    arr = blocks.get(name)
    if arr is None or arr.shape != shape:
        found = "is missing" if arr is None else f"has shape {arr.shape}"
        raise InputError(f"{path}: parameter block {name!r} {found}, expected shape {shape}")
    return arr


def save_encoder_checkpoint(
    path: str | Path,
    state: EncoderState,
    extra_meta: dict | None = None,
    extra_blocks: dict[str, np.ndarray] | None = None,
) -> None:
    meta = {"kind": "encoder", "config": asdict(state.cfg)}
    if extra_meta:
        meta.update(extra_meta)
    blocks = {name: p.data for name, p in state.params.items()}
    if extra_blocks:
        blocks.update(extra_blocks)
    save_checkpoint(path, meta, blocks)


def load_encoder_checkpoint(path: str | Path) -> tuple[EncoderState, dict, dict[str, np.ndarray]]:
    meta, blocks = load_checkpoint(path)
    if meta.get("kind") != "encoder":
        raise InputError(f"{path}: not an encoder checkpoint")
    with _metadata_errors(path):
        state = EncoderState.init(EncoderConfig(**meta["config"]), rng=None)
    for name, p in state.params.items():
        p.data = checked_block(path, blocks, name, p.data.shape)
    extras = {n: a for n, a in blocks.items() if n not in state.params}
    return state, meta, extras


def save_fusion_checkpoint(path: str | Path, model: FusionModel, label_mode: str,
                           extra_meta: dict | None = None) -> None:
    meta = {
        "kind": "fusion",
        "fusion": model.kind,
        "label_mode": label_mode,
        "n_outputs": model.head.n_outputs,
        "head_in_dim": model.head.in_dim,
        "fusion_dropout": model.fusion_dropout,
        "speech_config": asdict(model.speech.cfg) if model.speech else None,
        "text_config": asdict(model.text.cfg) if model.text else None,
        "coattn": (
            {"d_speech": model.block.d_speech, "d_text": model.block.d_text,
             "n_heads": model.block.n_heads}
            if model.block else None
        ),
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, meta, {name: p.data for name, p in model.named_params().items()})


def load_fusion_checkpoint(path: str | Path) -> tuple[FusionModel, dict]:
    """Rebuild the model its metadata describes, then give each parameter its block.

    Head and co-attention shapes follow from the encoder configs; the
    ``head_in_dim`` and ``coattn`` widths in the metadata are written, not read.
    """
    meta, blocks = load_checkpoint(path)
    if meta.get("kind") != "fusion":
        raise InputError(f"{path}: not a fusion checkpoint")
    with _metadata_errors(path):
        if HEAD_OUTPUTS.get(meta.get("label_mode")) != meta["n_outputs"]:
            raise InputError(f"{path}: label mode {meta.get('label_mode')!r} with "
                             f"{meta['n_outputs']!r} head outputs; want one of {HEAD_OUTPUTS}")
        config = lambda key: EncoderConfig(**meta[key]) if meta[key] is not None else None
        kind = meta["fusion"]
        model = FusionModel.init(kind, config("speech_config"), config("text_config"),
                                 meta["n_outputs"],
                                 meta["coattn"]["n_heads"] if kind == "coattn" else 0,
                                 rng=None, fusion_dropout=meta.get("fusion_dropout", 0.0))
    for name, p in model.named_params().items():
        p.data = checked_block(path, blocks, name, p.data.shape)
    return model, meta
