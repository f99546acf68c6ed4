"""Speech front end: framing, filterbank features, k-means codebook, discretize."""

import numpy as np
import pytest

from emofuse.errors import InputError
from emofuse.speech import (
    LOG_FLOOR,
    Codebook,
    FrameFeaturizerConfig,
    discretize,
    featurize,
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

    def test_duplicate_centroids_rejected(self):
        with pytest.raises(InputError):
            Codebook(np.array([[1.0, 2.0], [1.0, 2.0]]))
