import warnings

import numpy as np
import pytest
from scipy.fft import dct, idct

import frame_reference
from conftest import analyse, frames_of, segment_audio
from specvalley.baseline import (
    N_FILTERS,
    N_COEFFS,
    NFFT,
    MlpModel,
    dct_basis,
    load_model,
    loss_and_gradients,
    mel_filterbank,
    mfcc,
    predict,
    save_model,
    segment_mfcc_matrix,
    train_mlp,
)
from specvalley.classify import PipelineConfig
from specvalley.errors import DegenerateInputError

FS = 16000.0


class TestMfcc:
    def _frame(self, seed=0, n=320):
        return np.random.default_rng(seed).standard_normal(n)

    def test_gain_moves_only_c0(self):
        frame = self._frame()
        a = mfcc(frame[None, :], FS)[0]
        b = mfcc(frame[None, :] * 12.5, FS)[0]
        assert len(a) == 12
        assert np.max(np.abs(a - b)) < 1e-9

    def test_noise_and_tone_differ(self):
        t = np.arange(320) / FS
        tone = np.sin(2 * np.pi * 1000.0 * t)
        a = mfcc(self._frame()[None, :], FS)[0]
        b = mfcc(tone[None, :], FS)[0]
        assert np.linalg.norm(a - b) > 0.1

    def test_dct_orthogonality(self):
        basis = dct_basis(N_FILTERS)
        assert np.max(np.abs(basis @ basis.T - np.eye(N_FILTERS))) < 1e-12
        x = self._frame(3, N_FILTERS)
        assert np.max(np.abs(idct(basis @ x, norm="ortho") - x)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 12, N_FILTERS, 40])
    def test_dct_basis_is_scipys_orthonormal_dct_ii(self, n):
        basis = dct_basis(n)
        assert np.max(np.abs(basis - dct(np.eye(n), type=2, norm="ortho", axis=0))) < 1e-12
        assert dct_basis(n) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_equals_the_scipy_dct_of_the_log_energies(self):
        frames = np.random.default_rng(4).standard_normal((20, 320))
        spectrum = np.abs(np.fft.rfft(frames, NFFT, axis=-1)) ** 2
        log_e = np.log(np.maximum(spectrum @ mel_filterbank(FS, NFFT).T, 1e-300))
        expected = dct(log_e, type=2, norm="ortho", axis=-1)[:, 1 : N_COEFFS + 1]
        assert np.max(np.abs(mfcc(frames, FS) - expected)) < 1e-12

    @pytest.mark.parametrize("frame_len, n_fft", [(960, 1024), (1024, 1024), (1025, 2048)])
    def test_a_frame_longer_than_nfft_keeps_every_sample(self, frame_len, n_fft):
        # 60 ms at 16 kHz is 960 samples: the FFT grows to the next power of
        # two, so the samples from NFFT on count
        frames = np.random.default_rng(6).standard_normal((3, frame_len))
        cut = frames.copy()
        cut[:, NFFT:] = 0.0
        assert not np.any(np.all(mfcc(frames, FS) == mfcc(cut, FS), axis=1))
        spectrum = np.abs(np.fft.rfft(frames, n_fft, axis=-1)) ** 2
        log_e = np.log(spectrum @ mel_filterbank(FS, n_fft).T)
        expected = dct(log_e, type=2, norm="ortho", axis=-1)[:, 1 : N_COEFFS + 1]
        assert np.max(np.abs(mfcc(frames, FS) - expected)) < 1e-12

    def test_stacked_rows_equal_one_frame_results(self):
        frames = np.random.default_rng(5).standard_normal((30, 320))
        stacked = mfcc(frames, FS)
        assert stacked.shape == (30, N_COEFFS)
        for row, frame in zip(stacked, frames):
            assert np.array_equal(row, mfcc(frame[None, :], FS)[0])

    def test_zero_frame_rejected(self):
        with pytest.raises(DegenerateInputError):
            mfcc(np.zeros((1, 320)), FS)

    def test_one_frame_is_a_one_row_stack(self):
        with pytest.raises(ValueError, match=r"\(n_frames, frame_len\) stack"):
            mfcc(self._frame(), FS)

    def test_segment_matrix_shape(self):
        sig = np.random.default_rng(1).standard_normal(1600) * 0.1
        mat = segment_mfcc_matrix(frames_of((sig, FS)), FS)
        assert mat.shape == (9, 12)

    def test_filterbank_built_once_per_rate_and_size(self):
        fb = mel_filterbank(FS, NFFT)
        assert mel_filterbank(FS, NFFT) is fb
        assert mel_filterbank(8000.0, NFFT) is not fb
        assert fb.shape == (N_FILTERS, NFFT // 2 + 1)
        assert np.array_equal(fb, mel_filterbank.__wrapped__(FS, NFFT))
        assert mel_filterbank(FS, 2 * NFFT).shape == (N_FILTERS, NFFT + 1)
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


def blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([-2.0, 0.0], 0.4, size=(n // 2, 2))
    b = rng.normal([+2.0, 0.0], 0.4, size=(n // 2, 2))
    x = np.vstack([a, b])
    y = ["front"] * (n // 2) + ["back"] * (n // 2)
    return x, y


class TestTrainMlp:
    def test_separable_blobs(self):
        x, y = blobs()
        model = train_mlp(x, y, hidden_units=4, seed=1, epochs=200)
        preds = [predict(model, row)[0] for row in x]
        acc = np.mean([p == t for p, t in zip(preds, y)])
        assert acc >= 0.99

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 3))
        y = (rng.random(40) > 0.5).astype(float)
        w1 = rng.standard_normal((5, 3)) * 0.3
        b1 = rng.standard_normal(5) * 0.1
        w2 = rng.standard_normal(5) * 0.3
        b2 = 0.05
        _, (gw1, gb1, gw2, gb2) = loss_and_gradients(w1, b1, w2, b2, x, y)
        eps = 1e-6

        def loss_with(dw1=0.0, db1=0.0, dw2=0.0, db2=0.0):
            return loss_and_gradients(w1 + dw1, b1 + db1, w2 + dw2, b2 + db2, x, y)[0]

        for arr, grad, name in ((w1, gw1, "w1"), (b1, gb1, "b1"), (w2, gw2, "w2")):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                d = np.zeros_like(arr)
                d[idx] = eps
                num = (loss_with(**{f"d{name}": d}) - loss_with(**{f"d{name}": -d})) / (2 * eps)
                ana = grad[idx]
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
                assert rel <= 1e-5, f"{name}{idx}: {num} vs {ana}"
        num = (loss_with(db2=eps) - loss_with(db2=-eps)) / (2 * eps)
        assert abs(num - gb2) / max(abs(num), abs(gb2), 1e-8) <= 1e-5

    def test_seed_determinism(self):
        x, y = blobs(seed=2)
        m1 = train_mlp(x, y, hidden_units=6, seed=9)
        m2 = train_mlp(x, y, hidden_units=6, seed=9)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.w2, m2.w2)
        assert m1.b2 == m2.b2

    def test_single_class_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError):
            train_mlp(x, ["front"] * 10)


# train_mlp as it was before the weights became one flat vector: a list of
# per-layer velocities and four updates per step, with the forward pass and
# gradients it used: the one exact oracle of the flat-vector loop
def _list_forward(w1, b1, w2, b2, x):
    h = np.tanh(x @ w1.T + b1)
    z = h @ w2 + b2
    return h, 1.0 / (1.0 + np.exp(-z))


def _list_loss(p, y, eps=1e-12):
    return -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))


def _list_gradients(w2, x, y, h, p):
    dz = (p - y) / len(y)
    dh = np.outer(dz, w2) * (1.0 - h * h)
    return dh.T @ x, dh.sum(axis=0), h.T @ dz, float(np.sum(dz))


def _list_train_mlp(samples, labels, hidden_units, seed, epochs, learning_rate=0.1,
                    momentum=0.9, batch_size=32, holdout_fraction=0.1, patience=30):
    """(w1, b1, w2, b2, mean, scale, epochs run)."""
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray([{"front": 0.0, "back": 1.0}[l] for l in labels])
    rng = np.random.default_rng(seed)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xn = (x - mean) / scale
    n_hold = max(1, int(round(holdout_fraction * len(xn))))
    perm = rng.permutation(len(xn))
    hold, tr = perm[:n_hold], perm[n_hold:]
    d = xn.shape[1]
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden_units, d))
    b1 = np.zeros(hidden_units)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_units), size=hidden_units)
    b2 = 0.0
    vel = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    best = (np.inf, w1.copy(), b1.copy(), w2.copy(), b2)
    stale = 0
    for epoch in range(epochs):
        order = rng.permutation(len(tr))
        for start in range(0, len(order), batch_size):
            idx = tr[order[start : start + batch_size]]
            xb = xn[idx]
            h, p = _list_forward(w1, b1, w2, b2, xb)
            grads = _list_gradients(w2, xb, y[idx], h, p)
            for slot, g in enumerate(grads):
                vel[slot] = momentum * vel[slot] - learning_rate * g
            w1 += vel[0]
            b1 += vel[1]
            w2 += vel[2]
            b2 += vel[3]
        val_loss = _list_loss(_list_forward(w1, b1, w2, b2, xn[hold])[1], y[hold])
        if val_loss < best[0] - 1e-9:
            best = (val_loss, w1.copy(), b1.copy(), w2.copy(), b2)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    _, w1, b1, w2, b2 = best
    return w1, b1, w2, b2, mean, scale, epoch + 1


@pytest.mark.parametrize("n, dim, hidden, seed, epochs, blob_seed, stops_early", [
    (200, 2, 4, 1, 60, 1, False),  # separable blobs: every epoch runs
    (200, 2, 6, 9, 300, 2, False),  # other blobs: all 300 epochs
    (350, 3, 10, 0, 300, None, True),  # noisy labels: the holdout loss stalls
    (350, 3, 10, 0, 40, None, True),  # the same labels stall within 40 epochs
    (350, 12, 10, 3, 300, None, True),  # as wide as the MFCC vectors
    (71, 5, 1, 5, 80, None, None),  # one hidden unit; 64 training rows, two full batches
    (101, 4, 4, 11, 80, None, None),  # 91 training rows: a partial last batch
    (362, 12, 10, 20240801, 120, None, None),
])
def test_flat_training_equals_the_per_layer_reference(n, dim, hidden, seed, epochs, blob_seed,
                                                      stops_early):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    labels = ["back" if v > 0 else "front" for v in x[:, 0] + 0.8 * rng.standard_normal(n)]
    if blob_seed is not None:
        x, labels = blobs(n, seed=blob_seed)
    model = train_mlp(x, labels, hidden_units=hidden, seed=seed, epochs=epochs)
    w1, b1, w2, b2, mean, scale, ran = _list_train_mlp(x, labels, hidden, seed, epochs)
    if stops_early is not None:
        assert (ran < epochs) == stops_early
    assert np.array_equal(model.w1, w1) and np.array_equal(model.b1, b1)
    assert np.array_equal(model.w2, w2) and model.b2 == b2
    assert np.array_equal(model.feature_mean, mean)
    assert np.array_equal(model.feature_scale, scale)

class TestPredict:
    def _neutral_model(self):
        return MlpModel(
            input_dim=2, hidden_units=2,
            w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=0.0,
            feature_mean=np.zeros(2), feature_scale=np.ones(2),
        )

    def test_exact_half_reads_front(self):
        label, prob = predict(self._neutral_model(), np.array([1.0, -1.0]))
        assert prob == 0.5
        assert label == "front"

    def test_saturated_outputs(self):
        m = self._neutral_model()
        m.b2 = 50.0
        assert predict(m, np.zeros(2))[0] == "back"
        m.b2 = -50.0
        assert predict(m, np.zeros(2))[0] == "front"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(self._neutral_model(), np.zeros(3))

    def test_an_overflowing_logistic_raises_no_warning(self):
        # z = -1000 overflows exp(-z) to inf, which gives the limit p = 0
        m = self._neutral_model()
        m.b2 = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(m, np.zeros(2)) == ("front", 0.0)


def test_loss_and_gradients_overflow_raises_no_warning():
    x = np.ones((4, 3))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    w1, b1, w2 = np.zeros((2, 3)), np.zeros(2), np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, (g_w1, g_b1, g_w2, g_b2) = loss_and_gradients(w1, b1, w2, -1000.0, x, y)
    # p = 0 for every row: half the labels are 1, each costing -log(1e-12)
    assert loss == pytest.approx(-0.5 * np.log(1e-12))
    assert g_b2 == -0.5


class TestOnSyntheticCorpus:
    def _features(self, table):
        cfg = PipelineConfig()
        feats_mfcc, feats_v3, diffs, truths = [], [], [], []
        for fb_class, audio in zip(table.fb_class.tolist(), segment_audio(table)):
            if fb_class == "central":
                continue
            mat = segment_mfcc_matrix(frames_of(audio, cfg), audio[1])
            valid = [f for f in frame_reference.rows(analyse(audio, cfg)) if f.valid]
            if len(mat) == 0 or not valid:
                continue
            v1 = float(np.mean([f.v1_db for f in valid]))
            v2 = float(np.mean([f.v2_db for f in valid]))
            feats_mfcc.append(mat.mean(axis=0))
            feats_v3.append([v1, v2, v1 - v2])
            diffs.append(v1 - v2)
            truths.append(fb_class)
        return np.array(feats_mfcc), np.array(feats_v3), np.array(diffs), truths

    def test_both_feature_sets_track_the_threshold_rule(self, corpus_table):
        x_mfcc, x_v3, diffs, truths = self._features(corpus_table)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(truths))
        test_idx = perm[: int(0.3 * len(truths))]
        train_idx = perm[int(0.3 * len(truths)):]
        rule_acc = 100.0 * np.mean(
            [("back" if diffs[i] > 5.0 else "front") == truths[i] for i in test_idx]
        )
        for x in (x_mfcc, x_v3):
            model = train_mlp(x[train_idx], [truths[i] for i in train_idx],
                              hidden_units=10, seed=0, epochs=300)
            preds = [predict(model, x[i])[0] for i in test_idx]
            acc = 100.0 * np.mean([p == truths[i] for p, i in zip(preds, test_idx)])
            assert acc >= 90.0
            assert abs(acc - rule_acc) <= 5.0


class TestPersistence:
    def test_exact_round_trip(self, tmp_path):
        x, y = blobs(seed=5)
        model = train_mlp(x, y, hidden_units=3, seed=4, epochs=50)
        p = tmp_path / "model.txt"
        save_model(model, p)
        loaded = load_model(p)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.b1, model.b1)
        assert np.array_equal(loaded.w2, model.w2)
        assert loaded.b2 == model.b2
        assert np.array_equal(loaded.feature_mean, model.feature_mean)
        for row in x[:5]:
            assert predict(loaded, row) == predict(model, row)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(p)
