import numpy as np
import pytest
from scipy.fft import dct, idct

from specvalley.baseline import (
    MfccConfig,
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
        fb = mel_filterbank(FS, MfccConfig())
        assert mel_filterbank(FS, MfccConfig()) is fb
        assert mel_filterbank(8000.0, MfccConfig()) is not fb
        assert mel_filterbank(FS, MfccConfig(n_filters=20)).shape == (20, 257)
        assert np.array_equal(fb, mel_filterbank.__wrapped__(FS, MfccConfig()))
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        with pytest.raises(AttributeError):
            MfccConfig().nfft = 1024


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
