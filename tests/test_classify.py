import numpy as np
import pytest
from scipy.optimize import brentq

import frame_reference
from conftest import analyse, frames_of, segment_audio
from specvalley.classify import (
    MAX_HISTOGRAM_BINS,
    REASONS,
    VALID,
    FrameTable,
    PipelineConfig,
    decide_segment,
    frame_pipeline,
    normalized_histogram,
    score,
)
from specvalley.scales import hz_to_bark
from specvalley.synth import synthesize_cascades

FS = 16000.0


def synth_segment(freqs, bws=None, f0=120.0, dur=0.15):
    bws = bws or [100.0] * len(freqs)
    x = synthesize_cascades([freqs], [bws], [f0], FS, [round(dur * FS)], tilted=True)[0]
    return x / np.max(np.abs(x)) * 0.3, FS


def fake_features(n_valid, v1=0.0, v2=0.0, formants=(500.0, 1500.0, 2500.0), n_invalid=0):
    """A table of n_valid valid frames, then n_invalid with too few formants."""
    table = FrameTable.empty(n_valid + n_invalid, len(formants))
    table.reason[:] = REASONS.index("fewer than three formants")
    table.reason[:n_valid] = VALID
    table.v1[:n_valid], table.v2[:n_valid] = v1, v2
    table.freqs[:n_valid], table.bandwidths[:n_valid] = formants, 100.0
    table.counts[:n_valid] = len(formants)
    return table


class TestFramePipeline:
    def test_back_vowel_geometry(self):
        seg = synth_segment([300.0, 870.0, 2240.0, 3500.0, 4500.0])
        feats = frame_reference.rows(analyse(seg))
        valid = [f for f in feats if f.valid]
        assert len(valid) > len(feats) / 2
        assert np.mean([f.v1_db for f in valid]) > np.mean([f.v2_db for f in valid])

    def test_front_vowel_geometry(self):
        seg = synth_segment([270.0, 2290.0, 3010.0, 3500.0, 4500.0])
        feats = frame_reference.rows(analyse(seg))
        valid = [f for f in feats if f.valid]
        assert valid
        assert np.mean([f.v1_db for f in valid]) < np.mean([f.v2_db for f in valid])

    def test_silence_gives_invalid_frames(self):
        feats = analyse((np.zeros(3200), FS))
        assert feats and all(not f.valid for f in feats)

    def test_default_order_scales_with_rate(self):
        assert PipelineConfig().order_for(16000.0) == 18
        assert PipelineConfig().order_for(10000.0) == 12
        assert PipelineConfig().order_for(8000.0) == 10

    def test_frame_beyond_a_float64_array_is_refused(self):
        # 2**60 samples of 8 bytes exceed the largest array NumPy can address
        assert PipelineConfig(frame_ms=2.0**60 - 128).order_for(1000.0) == 3
        with pytest.raises(ValueError, match=r"^a 1\.15292e\+18 ms frame at 1000 Hz "
                           r"\(1152921504606846976 samples\) does not fit a float64 array$"):
            PipelineConfig(frame_ms=2.0**60).order_for(1000.0)

    def test_lp_order_must_be_below_frame_length(self):
        silence = (np.zeros(3200), FS)
        with pytest.raises(ValueError, match="frame length"):
            analyse(silence, PipelineConfig(lp_order=320))
        with pytest.raises(ValueError, match="at least 1"):
            analyse(silence, PipelineConfig(lp_order=0))
        assert len(analyse(silence, PipelineConfig(lp_order=319))) == 19

    def test_orders_below_three_give_frames_without_three_formants(self):
        seg = synth_segment([300.0, 870.0, 2240.0, 3500.0, 4500.0])
        for order in (1, 2):
            frames = list(analyse(seg, PipelineConfig(lp_order=order)))
            assert len(frames) == len(analyse(seg))
            assert {f.fail_reason for f in frames} == {"fewer than three formants"}

    def test_deterministic(self):
        seg = synth_segment([300.0, 870.0, 2240.0, 3500.0, 4500.0])
        a = frame_reference.rows(analyse(seg))
        b = frame_reference.rows(analyse(seg))
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.valid == fb.valid
            if fa.valid:
                assert fa.v1_db == fb.v1_db and fa.v2_db == fb.v2_db

    def test_gain_invariant_predictions(self):
        seg = synth_segment([570.0, 840.0, 2410.0, 3500.0, 4500.0])
        for gain in (0.125, 8.0):
            scaled = (seg[0] * gain, FS)
            d0 = decide_segment(analyse(seg))
            d1 = decide_segment(analyse(scaled))
            assert d1.predicted == d0.predicted
            assert abs(d1.mean_diff - d0.mean_diff) < 1e-6

    def test_list_gives_every_segment_frames_in_order(self):
        segs = [synth_segment([300.0, 870.0, 2240.0, 3500.0, 4500.0]),
                (np.zeros(3200), FS),
                (np.full(300, 0.2), FS),  # shorter than one frame
                synth_segment([270.0, 2290.0, 3010.0, 3500.0, 4500.0], f0=210.0)]
        expected = [f for seg in segs for f in frame_reference.rows(analyse(seg))]
        assert frame_reference.rows(analyse(segs)) == expected
        assert len(expected) == sum(len(analyse(seg)) for seg in segs)
        assert frame_reference.rows(analyse(segs[:1])) == frame_reference.rows(analyse(segs[0]))
        assert list(analyse([segs[2]])) == []
        assert list(frame_pipeline(np.empty((0, 320)), FS)) == []

    @pytest.mark.parametrize("frames", [np.zeros(320), np.zeros((1, 1, 320))],
                             ids=["one_frame", "3d"])
    def test_frames_must_be_a_stack(self, frames):
        with pytest.raises(ValueError, match=r"frames must be an \(n, 320\) stack"):
            frame_pipeline(frames, FS)

    @pytest.mark.parametrize("rate", [0.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            frame_pipeline(np.zeros((2, 320)), rate)

    def test_frame_width_must_match_the_rate(self):
        frames = frames_of((np.ones(3200), FS))
        with pytest.raises(ValueError, match=r"\(n, 160\) .* at 8000 Hz, got shape \(19, 320\)"):
            frame_pipeline(frames, 8000.0)
        with pytest.raises(ValueError, match=r"\(n, 800\) stack of 50 ms"):
            frame_pipeline(frames, FS, PipelineConfig(frame_ms=50.0))


class TestDecideSegment:
    def test_above_threshold_is_back(self):
        d = decide_segment(fake_features(4, v1=3.0, v2=-4.0))
        assert d.predicted == "back"
        assert abs(d.mean_diff - 7.0) < 1e-12

    def test_exactly_at_threshold_is_front(self):
        d = decide_segment(fake_features(4, v1=2.0, v2=-3.0))
        assert d.mean_diff == 5.0
        assert d.predicted == "front"

    def test_negative_difference_is_front(self):
        assert decide_segment(fake_features(3, v1=-1.0, v2=1.0)).predicted == "front"

    def test_counts_frames(self):
        d = decide_segment(fake_features(3, v1=9.0, v2=0.0, n_invalid=2))
        assert d.frames_used == 3
        assert d.frames_discarded == 2

    def test_no_valid_frames(self):
        assert decide_segment(fake_features(0, n_invalid=3)) is None

    def test_threshold_monotonicity(self):
        seg = synth_segment([640.0, 1190.0, 2390.0, 3500.0, 4500.0])
        feats = analyse(seg)
        previous_front = False
        for thr in (-10.0, 0.0, 3.0, 5.0, 8.0, 15.0):
            pred = decide_segment(feats, threshold_db=thr).predicted
            if previous_front:
                assert pred == "front"
            previous_front = pred == "front"


def hz_at_bark(z):
    """The frequency in Hz whose critical-band rate is z bark."""
    return brentq(lambda f: hz_to_bark(f) - z, 0.0, 24000.0, xtol=1e-9)


class TestSpacingRules:
    def _features_with_spacing(self, f3_minus_f2_bark):
        f2 = 1400.0
        f3 = hz_at_bark(hz_to_bark(f2) + f3_minus_f2_bark)
        return fake_features(3, v1=1.0, v2=-1.0, formants=(500.0, f2, f3))

    def test_two_bark_is_front(self):
        d = decide_segment(self._features_with_spacing(2.0), None, "f3f2_3bark")
        assert d.predicted == "front"

    def test_four_bark_is_back(self):
        d = decide_segment(self._features_with_spacing(4.0), None, "f3f2_3bark")
        assert d.predicted == "back"

    def test_f2f1_rule_reads_lower_pair(self):
        f1 = 500.0
        f2 = hz_at_bark(hz_to_bark(f1) + 2.0)
        feats = fake_features(2, formants=(f1, f2, 3000.0))
        assert decide_segment(feats, None, "f2f1_bark").predicted == "front"

    def test_single_valley_rules(self):
        feats = fake_features(2, v1=4.0, v2=-6.0)
        assert decide_segment(feats, None, "v1_only").predicted == "back"
        assert decide_segment(feats, None, "v2_only").predicted == "back"
        feats = fake_features(2, v1=-4.0, v2=6.0)
        assert decide_segment(feats, None, "v1_only").predicted == "front"
        assert decide_segment(feats, None, "v2_only").predicted == "front"

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            decide_segment(fake_features(1), None, "f5f4")


class TestThreeBarkRuleOnMeanRows:
    def test_accuracy_on_mean_formant_rows(self, pb_entries):
        # the spacing rule applied straight to the mean formant rows of the
        # bundled table separates front from back essentially perfectly
        from specvalley.synthetic import CLASSIFIED_VOWELS

        decisions, truths = [], []
        for e in pb_entries:
            cls = CLASSIFIED_VOWELS.get(e.vowel)
            if cls is None:
                continue
            feats = fake_features(1, formants=(e.f1, e.f2, e.f3))
            decisions.append(decide_segment(feats, None, "f3f2_3bark"))
            truths.append(cls)
        r = score(decisions, truths)
        assert abs(r.overall_accuracy - 99.2) <= 1.5


class TestScore:
    def test_all_correct(self):
        decisions = ["front"] * 3 + ["back"] * 3
        truths = ["front"] * 3 + ["back"] * 3
        r = score(decisions, truths)
        assert (r.front_accuracy, r.back_accuracy, r.overall_accuracy) == (100.0, 100.0, 100.0)

    def test_half_front_wrong(self):
        decisions = ["front", "back", "front", "back", "back", "back", "back", "back"]
        truths = ["front"] * 4 + ["back"] * 4
        r = score(decisions, truths)
        assert r.front_accuracy == 50.0
        assert r.back_accuracy == 100.0
        assert r.overall_accuracy == 75.0

    def test_undecided_segments_are_counted(self):
        decisions = ["front", "back", None, "front"]
        truths = ["front", "front", "back", "back"]
        r = score(decisions, truths)
        assert (r.n_front, r.n_back, r.n_undecided) == (2, 2, 1)
        assert r.overall_accuracy == 25.0

    def test_absent_class_has_no_accuracy(self):
        r = score(["front", "back", None], ["front", "front", "front"])
        assert r.front_accuracy == 100.0 / 3
        assert r.back_accuracy is None
        assert (r.n_front, r.n_back) == (3, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score([], [])


class TestNormalizedHistogram:
    def test_single_value(self):
        h = normalized_histogram([2.5], 1.0, (0.0, 10.0))
        assert h.frequencies.sum() == 1.0
        assert h.frequencies[2] == 1.0

    def test_uniform_four_bins(self):
        values = [0.5, 1.5, 2.5, 3.5]
        h = normalized_histogram(values, 1.0, (0.0, 4.0))
        assert np.allclose(h.frequencies, 0.25)

    def test_out_of_range_counted(self):
        h = normalized_histogram([-5.0, 0.5, 99.0], 1.0, (0.0, 10.0))
        assert h.n_out_of_range == 2
        assert h.frequencies.sum() == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_histogram([], 1.0, (0.0, 1.0))

    def test_bin_count_limit(self):
        h = normalized_histogram([0.5], 1.0, (0.0, float(MAX_HISTOGRAM_BINS)))
        assert len(h.bin_centers) == MAX_HISTOGRAM_BINS
        with pytest.raises(ValueError, match="bins"):
            normalized_histogram([0.5], 1.0, (0.0, MAX_HISTOGRAM_BINS + 1.0))


class TestOnSyntheticCorpus:
    def test_histogram_crossover_near_threshold(self, clean_segment_features):
        diffs = {"front": [], "back": []}
        for truth, feats, _ in clean_segment_features:
            d = decide_segment(feats)
            if d is not None:
                diffs[truth].append(d.mean_diff)
        hf = normalized_histogram(diffs["front"], 1.0, (-30.0, 40.0))
        hb = normalized_histogram(diffs["back"], 1.0, (-30.0, 40.0))
        both = (hf.frequencies > 0) & (hb.frequencies > 0)
        crossing = None
        for i in range(len(both) - 1, -1, -1):
            if hf.frequencies[i] > 0 and hb.frequencies[i] >= hf.frequencies[i]:
                crossing = hf.bin_centers[i]
        # front and back mass separate close to the 5 dB decision point
        upper_front = max(c for c, f in zip(hf.bin_centers, hf.frequencies) if f > 0)
        lower_back = min(c for c, f in zip(hb.bin_centers, hb.frequencies) if f > 0)
        assert lower_back < 10.0 and upper_front > 0.0
        if crossing is not None:
            assert 0.0 <= crossing <= 10.0


RULES = tuple(frame_reference.DEFAULT_THRESHOLDS)


@pytest.fixture(scope="module")
def white_0db_features(corpus_table, noisy_corpus):
    """Frames of every corpus segment under white noise at 0 dB SNR."""
    cfg = PipelineConfig()
    return [analyse(audio, cfg)
            for audio in segment_audio(corpus_table, noisy_corpus("white", 0.0))]


class TestDecisionRuleTable:
    """Every rule of the table decides as `frame_reference.decide_segment`, ties included."""

    def _check(self, segments):
        tied = dict.fromkeys(RULES, 0)
        for table in segments:
            frames = frame_reference.rows(table)  # the reference reads FrameFeatures
            for rule in RULES:
                decided = frame_reference.decide_segment(frames, None, rule)
                if decided is None:
                    for thr in (None, 0.0):
                        assert decide_segment(table, thr, rule) is None
                    continue
                # at the rule default, and exactly at the segment's own statistic
                assert decide_segment(table, None, rule) == decided, rule
                tie = decided.statistic
                assert decide_segment(table, tie, rule) == frame_reference.decide_segment(
                    frames, tie, rule), (rule, tie)
                tied[rule] += 1
        return tied

    def test_clean_corpus(self, clean_segment_features):
        tied = self._check([feats for _, feats, _ in clean_segment_features])
        assert all(n == len(clean_segment_features) for n in tied.values())

    def test_white_noise_0db(self, white_0db_features):
        frames = [f for feats in white_0db_features for f in feats]
        invalid = sum(not f.valid for f in frames) / len(frames)
        assert 0.25 < invalid < 0.5  # the decisions average over partly invalid segments
        self._check(white_0db_features)

    def test_no_valid_frames(self):
        tied = self._check([fake_features(0), fake_features(0, n_invalid=4)])
        assert not any(tied.values())

    def test_both_sides_of_every_threshold(self, clean_segment_features):
        # the default thresholds split the corpus, so an inverted comparison shows
        for rule in RULES:
            predicted = {decide_segment(feats, None, rule).predicted
                         for _, feats, _ in clean_segment_features}
            assert predicted == {"front", "back"}, rule

    def test_derived_tables(self):
        from specvalley.classify import DEFAULT_THRESHOLDS

        assert DEFAULT_THRESHOLDS == frame_reference.DEFAULT_THRESHOLDS


@pytest.mark.parametrize("corpus", ["small_corpus_dir", "corpus_dir"])
def test_segment_blocks_frame_as_the_per_segment_reference(request, corpus):
    # each block is converted from the table's PCM, pre-emphasized and framed
    # at once; its frames must be those of each segment loaded and framed alone
    from specvalley.classify import segment_blocks
    from specvalley.corpus import collect_segments, load_wav, timit_inventory

    root = request.getfixturevalue(corpus)
    table = collect_segments(root, ".phn", timit_inventory())
    cfg = PipelineConfig()
    seen = []
    for rows, _, frames, counts, rate in segment_blocks(table, cfg, include_central=True):
        expected = []
        for i in rows.tolist():
            samples, wav_rate = load_wav(root / f"{table.utterance_id[i]}.wav")
            start = table.start_sample[i]
            stop = start + table.offsets[i + 1] - table.offsets[i]
            expected.append(frame_reference.frames((samples[start:stop], wav_rate), cfg))
        assert counts.tolist() == [len(f) for f in expected] and rate == wav_rate
        expected = np.concatenate(expected)
        assert frames.shape == expected.shape and frames.tobytes() == expected.tobytes()
        seen += rows.tolist()
    assert seen == list(range(len(table)))
