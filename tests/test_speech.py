"""Speech front end: framing, filterbank features, k-means codebook, discretize."""

import struct
import tracemalloc

import numpy as np
import pytest

from conftest import full_tensor_lloyd, full_tensor_nearest_centroid
from emofuse import speech
from emofuse.errors import InputError
from emofuse.speech import (
    LOG_FLOOR,
    Codebook,
    FrameFeaturizerConfig,
    discretize,
    featurize,
    nearest_centroid,
    train_codebook,
)
from emofuse.tokens import CLS, N_SPECIALS


def kmeans_objective(frames, centroids):
    d2 = ((frames[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


class TestFeaturize:
    def test_silence_gives_constant_log_floor(self):
        cfg = FrameFeaturizerConfig()
        feats = featurize(np.zeros(3200), cfg)
        assert np.allclose(feats, np.log(LOG_FLOOR), atol=1e-12)
        assert np.all(feats == feats[0])

    def test_pure_tone_is_stationary(self):
        # 440 Hz sits exactly on a bin of the 400-sample window at 16 kHz.
        cfg = FrameFeaturizerConfig()
        t = np.arange(8000) / cfg.sample_rate
        sig = 0.6 * np.sin(2.0 * np.pi * 440.0 * t + 0.7)
        feats = featurize(sig, cfg)
        assert np.abs(feats - feats[0]).max() < 1e-6

    def test_frame_count_formula(self):
        cfg = FrameFeaturizerConfig(sample_rate=8000, window_length=200, hop_length=100,
                                    n_features=8)
        feats = featurize(np.random.default_rng(0).standard_normal(400), cfg)
        assert feats.shape == (3, 8)

    def test_too_short_signal_rejected(self):
        cfg = FrameFeaturizerConfig()
        with pytest.raises(InputError):
            featurize(np.zeros(cfg.window_length - 1), cfg)

    def test_features_finite_for_noise(self, rng):
        cfg = FrameFeaturizerConfig()
        feats = featurize(rng.standard_normal(4000), cfg)
        assert np.isfinite(feats).all()

    def test_bad_config_rejected(self):
        with pytest.raises(Exception):
            FrameFeaturizerConfig(hop_length=500, window_length=400)


class TestTrainCodebook:
    def test_two_separated_blobs(self, rng):
        blob_a = rng.standard_normal((200, 3)) * 0.05 + np.array([0.0, 0.0, 0.0])
        blob_b = rng.standard_normal((200, 3)) * 0.05 + np.array([5.0, 5.0, 5.0])
        frames = np.concatenate([blob_a, blob_b])
        cb = train_codebook(frames, k=2, seed=0)
        means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda m: m[0])
        cents = sorted(cb.centroids, key=lambda c: c[0])
        for cent, mean in zip(cents, means):
            assert np.linalg.norm(cent - mean) < 0.1

    def test_k_equals_one_gives_global_mean(self, rng):
        frames = rng.standard_normal((50, 4))
        cb = train_codebook(frames, k=1, seed=0)
        assert np.allclose(cb.centroids[0], frames.mean(axis=0), atol=1e-9)

    def test_k_equals_distinct_frames(self):
        frames = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        cb = train_codebook(frames, k=4, seed=1)
        assert kmeans_objective(frames, cb.centroids) == 0.0
        ids = sorted(int(discretize(frames[i : i + 1], cb).ids[1]) - N_SPECIALS for i in range(4))
        assert ids == [0, 1, 2, 3]

    def test_fewer_frames_than_k_rejected(self, rng):
        with pytest.raises(InputError):
            train_codebook(rng.standard_normal((3, 2)), k=4, seed=0)

    def test_k_below_one_rejected_as_such(self, rng):
        with pytest.raises(InputError, match="must be at least 1, got 0"):
            train_codebook(rng.standard_normal((3, 2)), k=0, seed=0)

    def test_objective_non_increasing(self, rng):
        frames = rng.standard_normal((120, 5))
        previous = None
        for iters in range(1, 12):
            cb = train_codebook(frames, k=6, seed=3, max_iters=iters, tol=0.0)
            obj = kmeans_objective(frames, cb.centroids)
            if previous is not None:
                assert obj <= previous + 1e-9
            previous = obj

    def test_deterministic_given_seed(self, rng):
        frames = rng.standard_normal((80, 4))
        a = train_codebook(frames, k=5, seed=9)
        b = train_codebook(frames, k=5, seed=9)
        assert np.array_equal(a.centroids, b.centroids)


@pytest.fixture
def rechecked(monkeypatch):
    """Record the number of rows each exact re-check of nearest_centroid gets."""
    calls = []
    exact = speech._exact_nearest

    def spy(frames, centroids):
        calls.append(len(frames))
        return exact(frames, centroids)

    monkeypatch.setattr(speech, "_exact_nearest", spy)
    return calls


def near_tie_frames(rng, n, dim):
    """Frames within 3 ulps of the bisector of centroids 0 and 1 below.

    Centroids 0 and 1 differ only in coordinate 0 (0 and 2); every frame has
    1 + j ulp there, j in -3..3, so its two distances agree to a few ulps.
    """
    shared = rng.standard_normal(dim)
    cents = np.stack([shared, shared, rng.standard_normal(dim) + 5.0])
    cents[0, 0], cents[1, 0] = 0.0, 2.0
    frames = shared + rng.standard_normal((n, dim)) * 1e-3
    frames[:, 0] = 1.0 + (np.arange(n) % 7 - 3) * np.spacing(1.0)
    return frames, cents


class TestNearestCentroid:
    """The GEMM-screened search against the full-tensor oracle, bit for bit."""

    def test_random_matches_oracle(self, rng):
        for _ in range(40):
            n, k, dim = rng.integers(1, 300), rng.integers(1, 70), rng.integers(1, 45)
            frames = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 30.0])
            cents = rng.standard_normal((k, dim))
            assert np.array_equal(nearest_centroid(frames, cents),
                                  full_tensor_nearest_centroid(frames, cents))

    def test_exact_ties_match_oracle(self, rng, rechecked):
        # Half-integer frames against integer centroids: many exact ties.
        cents = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
        frames = rng.integers(-2, 14, size=(400, 2)) / 2.0
        got = nearest_centroid(frames, cents)
        assert np.array_equal(got, full_tensor_nearest_centroid(frames, cents))
        assert sum(rechecked) > 0

    def test_one_ulp_near_ties_match_oracle(self, rng, rechecked):
        frames, cents = near_tie_frames(rng, 70, 40)
        want = full_tensor_nearest_centroid(frames, cents)
        assert set(want.tolist()) == {0, 1}
        assert np.array_equal(nearest_centroid(frames, cents), want)
        assert sum(rechecked) == len(frames)

    def test_large_offset_matches_oracle(self, rng, rechecked):
        # Near 1e6 the screen's ||x||^2 - 2x.c + ||c||^2 cancels ~13 digits.
        frames = 1e6 + rng.standard_normal((600, 40))
        cents = 1e6 + rng.standard_normal((32, 40))
        assert np.array_equal(nearest_centroid(frames, cents),
                              full_tensor_nearest_centroid(frames, cents))
        assert sum(rechecked) > 0

    def test_single_centroid(self, rng):
        frames = rng.standard_normal((25, 3))
        got = nearest_centroid(frames, rng.standard_normal((1, 3)))
        assert np.array_equal(got, np.zeros(25, dtype=got.dtype))

    def test_partial_last_chunk_matches_oracle(self, rng, monkeypatch):
        frames, cents = near_tie_frames(rng, 50, 6)
        frames = np.concatenate([frames, rng.standard_normal((53, 6))])
        cents = np.concatenate([cents, rng.standard_normal((4, 6))])
        # 7 rows per screen chunk (103 = 14 * 7 + 5) and 1 per exact chunk.
        monkeypatch.setattr(speech, "_CHUNK_FLOATS", 7 * len(cents) + 3)
        assert np.array_equal(nearest_centroid(frames, cents),
                              full_tensor_nearest_centroid(frames, cents))

    def test_non_finite_rows_match_oracle(self, rng):
        frames = rng.standard_normal((9, 4))
        frames[2, 1], frames[5, 0], frames[7, 3] = np.nan, np.inf, -np.inf
        cents = rng.standard_normal((6, 4))
        assert np.array_equal(nearest_centroid(frames, cents),
                              full_tensor_nearest_centroid(frames, cents))


class TestLloydMatchesOracle:
    """train_codebook against the full-tensor Lloyd loop from the same init."""

    def check(self, frames, k, seed, max_iters=30, tol=1e-8):
        init = speech._kmeans_pp_init(frames, k, np.random.default_rng(seed))
        want, reseeded = full_tensor_lloyd(frames, init, max_iters, tol)
        got = train_codebook(frames, k=k, seed=seed, max_iters=max_iters, tol=tol)
        assert np.array_equal(got.centroids, want)
        return reseeded

    def test_random_data(self, rng):
        for seed in range(4):
            self.check(rng.standard_normal((300, 8)), k=12, seed=seed)

    def test_exact_ties(self, rng):
        self.check(rng.integers(0, 5, size=(200, 2)) / 2.0, k=6, seed=1)

    def test_large_offset(self, rng):
        self.check(1e6 + rng.standard_normal((400, 40)), k=16, seed=2, max_iters=5)

    def test_forced_empty_cluster(self, monkeypatch):
        # Centroid 0 starts between two pairs, each nearer its own centroid,
        # so it gets no members in the first step and is reseeded.
        frames = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
        init = np.array([[5.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        monkeypatch.setattr(speech, "_kmeans_pp_init", lambda frames, k, rng: init.copy())
        assert self.check(frames, k=3, seed=0) >= 1

    def test_peak_memory_is_bounded(self, rng):
        # The full-tensor loop peaks near 12k * 256 * 40 * 8 B, about 1 GB.
        frames = rng.standard_normal((12_000, 40))
        tracemalloc.start()
        try:
            train_codebook(frames, k=256, seed=0, max_iters=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestDiscretize:
    def test_exact_centroid_maps_to_its_token(self):
        cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]]))
        seq = discretize(cb.centroids[3:4], cb)
        assert seq.ids == (CLS, N_SPECIALS + 3)

    def test_nearest_neighbor(self):
        cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
        seq = discretize(np.array([[0.9, 0.8]]), cb)
        assert seq.ids[1] == N_SPECIALS + 1

    def test_tie_breaks_to_lowest_id(self):
        cents = np.array([[5.0, 0.0], [9.0, 0.0], [0.0, 0.0], [6.0, 6.0], [7.0, 7.0], [2.0, 0.0]])
        cb = Codebook(cents)
        # (1, 0) is exactly distance 1 from centroid 2 at (0,0) and centroid 5 at (2,0).
        seq = discretize(np.array([[1.0, 0.0]]), cb)
        assert seq.ids[1] == N_SPECIALS + 2

    def test_idempotent_on_centroids(self, rng):
        cb = Codebook(rng.standard_normal((10, 4)))
        seq = discretize(cb.centroids, cb)
        assert list(seq.body) == [N_SPECIALS + i for i in range(10)]

    def test_token_range_property(self, rng):
        cb = Codebook(rng.standard_normal((7, 3)))
        seq = discretize(rng.standard_normal((40, 3)), cb)
        assert all(N_SPECIALS <= t < N_SPECIALS + 7 for t in seq.body)

    def test_truncation_to_max_len(self, rng):
        cb = Codebook(rng.standard_normal((4, 2)))
        seq = discretize(rng.standard_normal((100, 2)), cb, max_len=16)
        assert len(seq) == 16

    def test_dim_mismatch_rejected(self, rng):
        cb = Codebook(rng.standard_normal((4, 3)))
        with pytest.raises(InputError):
            discretize(rng.standard_normal((5, 2)), cb)


class TestCodebookPersistence:
    def test_save_load_round_trip_bitwise(self, tmp_path, rng):
        cb = Codebook(rng.standard_normal((12, 6)), version="1")
        path = tmp_path / "codebook.bin"
        cb.save(path)
        loaded = Codebook.load(path)
        assert loaded.k == 12 and loaded.dim == 6
        assert np.array_equal(loaded.centroids, cb.centroids)
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTACODE" + b"\x00" * 32)
        with pytest.raises(InputError):
            Codebook.load(path)

    def test_truncated_file_rejected(self, tmp_path, rng):
        cb = Codebook(rng.standard_normal((4, 2)))
        path = tmp_path / "codebook.bin"
        cb.save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputError):
            Codebook.load(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "codebook.bin"
        path.write_bytes(b"EMFCBOOK" + b"\x01\x00\x00\x00\x04")
        with pytest.raises(InputError) as err:
            Codebook.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centroids_rejected(self, bad):
        with pytest.raises(InputError):
            Codebook(np.array([[1.0, 2.0], [bad, 0.0]]))

    def test_non_finite_file_rejected_naming_file(self, tmp_path):
        path = tmp_path / "codebook.bin"
        body = np.array([[1.0, 2.0], [np.inf, 0.0]]).astype("<f8").tobytes()
        path.write_bytes(b"EMFCBOOK" + struct.pack("<III", 1, 2, 2) + body)
        with pytest.raises(InputError) as err:
            Codebook.load(path)
        assert str(path) in str(err.value)

    def test_duplicate_centroids_rejected(self):
        with pytest.raises(InputError):
            Codebook(np.array([[1.0, 2.0], [1.0, 2.0]]))
