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
        if not np.isfinite(centroids).all():
            raise InputError("codebook contains non-finite centroid values")
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
        body = np.ascontiguousarray(self.centroids, dtype="<f8")
        atomic_write_bytes(path, [_CODEBOOK_MAGIC, header, body])

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
        try:
            return cls(cents, version=str(version))
        except InputError as err:
            raise InputError(f"{path}: {err}") from None


# Rows per chunk are sized so that a chunk's distance temporaries hold about
# this many float64 values (2 MB), whatever N and K are.
_CHUNK_FLOATS = 1 << 18


def _squared_distances(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared distances from the differences; an [N x K x D] temporary."""
    diff = frames[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _exact_nearest(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """argmin of ``_squared_distances``, over chunks of at most _CHUNK_FLOATS diffs."""
    step = max(1, _CHUNK_FLOATS // centroids.size)
    return np.concatenate([
        np.argmin(_squared_distances(frames[lo : lo + step], centroids), axis=1)
        for lo in range(0, len(frames), step)
    ])


def nearest_centroid(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid per frame; ties go to the lowest index.

    The result is the argmin of the exact ``_squared_distances``, bit for
    bit, found without building its [N x K x D] temporary. Each chunk of
    rows is screened with one GEMM, ||x||^2 - 2 x.c + ||c||^2. To first
    order, each form is within (D + 2) * eps/2 * (||x|| + max ||c||)^2 of
    the true distance; when the screen's best-to-second gap exceeds twice
    the two errors' sum, both forms rank the same centroid strictly first.
    The gap is compared with twice that again, 4 (D + 3) eps (...)^2, and
    rows with a smaller or non-finite gap are recomputed with the exact
    form, so ties still go to the lowest index.
    """
    n, dim = frames.shape
    sq_c = np.einsum("kd,kd->k", centroids, centroids)
    scale = 4.0 * (dim + 3) * np.finfo(np.float64).eps
    max_c = np.sqrt(sq_c.max())
    out = np.empty(n, dtype=np.intp)
    step = max(1, _CHUNK_FLOATS // len(centroids))
    for lo in range(0, n, step):
        x = frames[lo : lo + step]
        rows = np.arange(len(x))
        # A non-finite screen value only sends its row to the exact re-check.
        with np.errstate(invalid="ignore", over="ignore"):
            sq_x = np.einsum("nd,nd->n", x, x)
            d2 = x @ centroids.T
            d2 *= -2.0
            d2 += sq_x[:, None]
            d2 += sq_c
            best = np.argmin(d2, axis=1)
            best_d2 = d2[rows, best]
            d2[rows, best] = np.inf
            gap = d2.min(axis=1) - best_d2
            bound = scale * (np.sqrt(sq_x) + max_c) ** 2
        recheck = np.flatnonzero(~(np.isfinite(gap) & (gap > bound)))
        if len(recheck):
            best[recheck] = _exact_nearest(x[recheck], centroids)
        out[lo : lo + step] = best
    return out


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
    if k < 1:
        raise InputError(f"codebook size K must be at least 1, got {k}")
    if len(frames) < k:
        raise InputError(f"need at least K={k} frames, got {len(frames)}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(frames, k, rng)
    for _ in range(max_iters):
        assign = nearest_centroid(frames, centroids)
        # Sum each cluster's members from 0.0 in frame order, as members.mean
        # does, so the codebook bytes do not depend on how the sum is grouped.
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, frames)
        new = centroids.copy()
        filled = counts > 0
        new[filled] = sums[filled] / counts[filled, None]
        empties = np.flatnonzero(~filled)
        if len(empties):
            # Hand each empty cluster the point worst served by its centroid,
            # by the same exact distance as _squared_distances.
            diff = frames - centroids[assign]
            own = np.einsum("nd,nd->n", diff, diff)
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
