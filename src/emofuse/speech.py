"""Speech discretization: frame featurizer, k-means codebook, nearest-centroid tokens.

The featurizer slices the signal into overlapping frames and computes
log-compressed mel filterbank energies from the frame periodogram (no
analysis window, so an exactly bin-centered tone is stationary across
frames). A k-means codebook over those frame vectors then plays the role of
a pretrained vector quantizer: each frame becomes the ID of its nearest
centroid, offset past the reserved special tokens. The codebook stays frozen
once trained.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .fileio import atomic_write_bytes
from .tokens import CLS, N_SPECIALS, TokenSequence

SPEECH_MAX_LEN = 2048

LOG_FLOOR = 1e-10

_CODEBOOK_MAGIC = b"EMFCBOOK"


@dataclass(frozen=True)
class FrameFeaturizerConfig:
    """Framing and filterbank parameters for the speech front end."""

    sample_rate: int = 16000
    window_length: int = 400
    hop_length: int = 160
    n_features: int = 40

    def __post_init__(self):
        if self.hop_length > self.window_length:
            raise ConfigError("hop_length must not exceed window_length")
        if self.hop_length < 1 or self.window_length < 2:
            raise ConfigError("window and hop lengths must be positive")
        if self.n_features < 1:
            raise ConfigError("n_features must be at least 1")


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_features: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel-spaced filters over the rfft bins, shape [n_features x n_bins]."""
    n_bins = n_fft // 2 + 1
    edges = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_features + 2))
    freqs = np.arange(n_bins) * (sample_rate / n_fft)
    bank = np.zeros((n_features, n_bins))
    for i in range(n_features):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def featurize(signal, cfg: FrameFeaturizerConfig) -> np.ndarray:
    """Log mel filterbank energies per frame, shape [T x n_features].

    T = 1 + floor((len - window) / hop). Energies are floored at LOG_FLOOR
    before the log, so silence maps to a constant log-floor frame.
    """
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim != 1:
        raise InputError(f"signal must be 1-D, got shape {sig.shape}")
    if len(sig) < cfg.window_length:
        raise InputError(
            f"signal of {len(sig)} samples is shorter than one window ({cfg.window_length})"
        )
    n_frames = 1 + (len(sig) - cfg.window_length) // cfg.hop_length
    bank = mel_filterbank(cfg.n_features, cfg.window_length, cfg.sample_rate)
    feats = np.empty((n_frames, cfg.n_features))
    for t in range(n_frames):
        frame = sig[t * cfg.hop_length : t * cfg.hop_length + cfg.window_length]
        power = np.abs(np.fft.rfft(frame)) ** 2 / cfg.window_length
        feats[t] = np.log(bank @ power + LOG_FLOOR)
    if not np.isfinite(feats).all():
        raise InputError("featurize produced non-finite values")
    return feats


class Codebook:
    """K centroid vectors used to discretize frame features."""

    def __init__(self, centroids: np.ndarray, version: str = "1"):
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] < 1:
            raise InputError(f"centroids must be a [K x dim] matrix, got {centroids.shape}")
        if len(np.unique(centroids, axis=0)) != centroids.shape[0]:
            raise InputError("codebook contains duplicate centroids")
        self.centroids = centroids
        self.version = version

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def save(self, path: str | Path) -> None:
        """Binary layout: magic, version u32, K u32, dim u32, row-major float64 LE centroids."""
        header = struct.pack("<III", int(self.version), self.k, self.dim)
        body = self.centroids.astype("<f8").tobytes(order="C")
        atomic_write_bytes(path, _CODEBOOK_MAGIC + header + body)

    @classmethod
    def load(cls, path: str | Path) -> "Codebook":
        raw = Path(path).read_bytes()
        if raw[:8] != _CODEBOOK_MAGIC:
            raise InputError(f"{path}: not a codebook file")
        if len(raw) < 20:
            raise InputError(f"{path}: truncated codebook header ({len(raw)} bytes)")
        version, k, dim = struct.unpack("<III", raw[8:20])
        expected = 20 + k * dim * 8
        if len(raw) != expected:
            raise InputError(f"{path}: truncated codebook (want {expected} bytes, have {len(raw)})")
        cents = np.frombuffer(raw[20:], dtype="<f8").reshape(k, dim).copy()
        return cls(cents, version=str(version))


def _squared_distances(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = frames[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def nearest_centroid(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid per frame; ties go to the lowest index."""
    return np.argmin(_squared_distances(frames, centroids), axis=1)


def _kmeans_pp_init(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    chosen = [int(rng.integers(len(frames)))]
    d2 = np.sum((frames - frames[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise InputError("k-means++ ran out of distinct frames; lower K")
        nxt = int(rng.choice(len(frames), p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((frames - frames[nxt]) ** 2, axis=1))
    return frames[chosen].copy()


def train_codebook(
    frames: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> Codebook:
    """Lloyd's k-means with k-means++ initialization.

    Stops when the largest centroid shift drops below tol or after max_iters.
    A cluster that loses all members is re-seeded from the point currently
    farthest from its assigned centroid, keeping centroids distinct.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise InputError(f"frames must be a [T x dim] matrix, got shape {frames.shape}")
    if k < 1 or len(frames) < k:
        raise InputError(f"need at least K={k} frames, got {len(frames)}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(frames, k, rng)
    for _ in range(max_iters):
        d2 = _squared_distances(frames, centroids)
        assign = np.argmin(d2, axis=1)
        new = centroids.copy()
        empties = []
        for j in range(k):
            members = frames[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
                empties.append(j)
        if empties:
            # Hand each empty cluster the point worst served by its centroid.
            own = d2[np.arange(len(frames)), assign]
            order = np.argsort(-own, kind="stable")
            for rank, j in enumerate(empties):
                new[j] = frames[order[rank]]
        shift = np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()
        centroids = new
        if shift < tol:
            break
    return Codebook(centroids)


def discretize(frames: np.ndarray, codebook: Codebook, max_len: int = SPEECH_MAX_LEN) -> TokenSequence:
    """Map frames to nearest-centroid token IDs, CLS-prefixed and truncated.

    Token IDs are offset by N_SPECIALS, so they lie in
    [N_SPECIALS, N_SPECIALS + K).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != codebook.dim:
        raise InputError(
            f"frames of dim {frames.shape[1] if frames.ndim == 2 else '?'} do not match "
            f"codebook dim {codebook.dim}"
        )
    ids = nearest_centroid(frames, codebook.centroids) + N_SPECIALS
    return TokenSequence("speech", (CLS, *ids[: max_len - 1].tolist()))
