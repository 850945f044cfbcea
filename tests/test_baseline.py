import numpy as np
import pytest
from scipy.fft import dct, idct

from specvalley.baseline import (
    N_FILTERS,
    NFFT,
    MlpModel,
    load_model,
    loss_and_gradients,
    mel_filterbank,
    mfcc,
    predict,
    save_model,
    segment_mfcc_matrix,
    train_mlp,
)
from specvalley.errors import DegenerateInputError
from specvalley.types import SignalBuffer

FS = 16000.0


class TestMfcc:
    def _frame(self, seed=0, n=320):
        return np.random.default_rng(seed).standard_normal(n)

    def test_gain_moves_only_c0(self):
        frame = self._frame()
        a = mfcc(frame, FS)
        b = mfcc(frame * 12.5, FS)
        assert len(a) == 12
        assert np.max(np.abs(a - b)) < 1e-9

    def test_noise_and_tone_differ(self):
        t = np.arange(320) / FS
        tone = np.sin(2 * np.pi * 1000.0 * t)
        a = mfcc(self._frame(), FS)
        b = mfcc(tone, FS)
        assert np.linalg.norm(a - b) > 0.1

    def test_dct_orthogonality(self):
        x = self._frame(3, 26)
        assert np.max(np.abs(idct(dct(x, norm="ortho"), norm="ortho") - x)) < 1e-9

    def test_zero_frame_rejected(self):
        with pytest.raises(DegenerateInputError):
            mfcc(np.zeros(320), FS)

    def test_segment_matrix_shape(self):
        sig = SignalBuffer(np.random.default_rng(1).standard_normal(1600) * 0.1, FS)
        mat = segment_mfcc_matrix(sig)
        assert mat.shape == (9, 12)

    def test_filterbank_built_once_per_rate_and_config(self):
        fb = mel_filterbank(FS)
        assert mel_filterbank(FS) is fb
        assert mel_filterbank(8000.0) is not fb
        assert fb.shape == (N_FILTERS, NFFT // 2 + 1)
        assert np.array_equal(fb, mel_filterbank.__wrapped__(FS))
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


# train_mlp as it was when every step also computed the loss it discarded,
# kept as the exact reference for the gradient-only steps
def _reference_train_mlp(samples, labels, hidden_units=10, seed=0, epochs=300,
                         learning_rate=0.1, momentum=0.9, batch_size=32,
                         holdout_fraction=0.1, patience=30):
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
    for _ in range(epochs):
        order = rng.permutation(len(tr))
        for start in range(0, len(order), batch_size):
            idx = tr[order[start : start + batch_size]]
            _, grads = loss_and_gradients(w1, b1, w2, b2, xn[idx], y[idx])
            for slot, g in enumerate(grads):
                vel[slot] = momentum * vel[slot] - learning_rate * g
            w1 += vel[0]
            b1 += vel[1]
            w2 += vel[2]
            b2 += vel[3]
        val_loss, _ = loss_and_gradients(w1, b1, w2, b2, xn[hold], y[hold])
        if val_loss < best[0] - 1e-9:
            best = (val_loss, w1.copy(), b1.copy(), w2.copy(), b2)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    _, w1, b1, w2, b2 = best
    return w1, b1, w2, b2, mean, scale


@pytest.mark.parametrize("dim, hidden, seed, epochs", [
    (2, 6, 9, 300),  # separable blobs: all 300 epochs
    (3, 10, 0, 40),  # noisy labels: the holdout loss stalls and training stops early
    (12, 10, 3, 300),  # as wide as the MFCC vectors; stops early too
])
def test_training_equals_the_loss_computing_reference(dim, hidden, seed, epochs):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((350, dim))
    labels = ["back" if v > 0 else "front" for v in x[:, 0] + 0.8 * rng.standard_normal(350)]
    if dim == 2:
        x, labels = blobs(seed=2)
    model = train_mlp(x, labels, hidden_units=hidden, seed=seed, epochs=epochs)
    w1, b1, w2, b2, mean, scale = _reference_train_mlp(x, labels, hidden, seed, epochs)
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


class TestOnSyntheticCorpus:
    def _features(self, corpus_dir):
        from specvalley import classify
        from specvalley.corpus import collect_segments, timit_inventory

        cfg = classify.PipelineConfig()
        feats_mfcc, feats_v3, diffs, truths = [], [], [], []
        for seg in collect_segments(corpus_dir, ".phn", timit_inventory()):
            if seg.fb_class == "central":
                continue
            mat = segment_mfcc_matrix(seg.audio)
            valid = [f for f in classify.frame_pipeline(seg, cfg) if f.valid]
            if len(mat) == 0 or not valid:
                continue
            v1 = float(np.mean([f.v1_db for f in valid]))
            v2 = float(np.mean([f.v2_db for f in valid]))
            feats_mfcc.append(mat.mean(axis=0))
            feats_v3.append([v1, v2, v1 - v2])
            diffs.append(v1 - v2)
            truths.append(seg.fb_class)
        return np.array(feats_mfcc), np.array(feats_v3), np.array(diffs), truths

    def test_both_feature_sets_track_the_threshold_rule(self, corpus_dir):
        x_mfcc, x_v3, diffs, truths = self._features(corpus_dir)
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
