import hashlib

import numpy as np
import pytest

from cascade_reference import analytic_cascade_spectrum, source_tilt_db
from conftest import cascade_rows, peak_levels
from specvalley import synth
from specvalley.sigproc import resonator_taps
from specvalley.synth import calibrate_bandwidth_rows, synthesize_cascades


class TestResonator:
    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match=r"formant at 4000\.0 Hz is at or above Nyquist "
                                             r"\(4000\.0 Hz\)"):
            synthesize_cascades([[4000.0]], [[100.0]], [0.0], 8000.0, [16])

    def test_stable_poles(self):
        a1, a2 = resonator_taps(2200.0, 80.0, 8000.0)
        assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_huge_bandwidth_is_nearly_flat(self):
        _, levels_db = analytic_cascade_spectrum(np.array([(1000.0, 20000.0)]), 8000.0, 512)
        assert levels_db.max() - levels_db.min() < 1.0

    def test_realized_peak_near_center(self):
        freqs, levels_db = analytic_cascade_spectrum(np.array([(1400.0, 200.0)]), 10000.0)
        f, _, missing = peak_levels(freqs, levels_db[None, :], [1400.0])
        assert not missing[0]
        assert abs(f[0] - 1400.0) < 2 * (freqs[1] - freqs[0])


class TestSynthesize:
    def test_impulse_passthrough_with_no_formants(self):
        out = synthesize_cascades([[]], [[]], [0.0], 8000.0, [16])[0]
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(out, expected)

    def test_matches_analytic_spectrum(self):
        fs = 10000.0
        fm = np.array([(700.0, 90.0), (1500.0, 180.0)])
        x = cascade_rows(fm, [0.0], fs, 32768)[0]
        oracle = 20 * np.log10(np.abs(np.fft.rfft(x)))
        _, levels_db = analytic_cascade_spectrum(fm, fs, 16385)
        assert np.max(np.abs(levels_db - oracle)) < 0.1

    def test_impulse_train_spacing(self):
        out = synthesize_cascades([[]], [[]], [100.0], 8000.0, [400])[0]
        nz = np.flatnonzero(out)
        assert np.array_equal(nz, np.arange(0, 400, 80))

    def test_output_is_bounded(self):
        fm = np.array([(f, 60.0) for f in (300.0, 900.0, 2200.0, 3400.0)])
        out = cascade_rows(fm, [120.0], 8000.0, 4000)[0]
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) < 1e6

    def test_cascade_order_does_not_change_spectrum(self):
        fs = 8000.0
        fm = np.array([(500.0, 100.0), (1500.0, 120.0), (2500.0, 90.0)])
        a = cascade_rows(fm, [0.0], fs, 4096)[0]
        b = cascade_rows(fm[::-1], [0.0], fs, 4096)[0]
        sa = np.abs(np.fft.rfft(a))
        sb = np.abs(np.fft.rfft(b))
        assert np.allclose(sa, sb, rtol=1e-8, atol=1e-12)


def _cascade_stack(height, tilted, seed):
    """(frequencies, bandwidths, f0s, lengths) of `height` five-formant cascades at 16 kHz.

    Row 0 has a 40 Hz bandwidth, whose 7640-sample tail takes an 8192-point
    grid; the other rows fit 4096 points. Row 1, where there is one, is an
    impulse response (F0 of 0).
    """
    rng = np.random.default_rng(seed)
    freqs = np.sort(rng.uniform(300.0, 4800.0, (height, 5)), axis=1) + 60.0 * np.arange(5)
    bws = rng.uniform(80.0, 250.0, (height, 5))
    bws[0, 1] = 40.0
    f0s = rng.uniform(100.0, 250.0, height)
    f0s[1:2] = 0.0
    lengths = rng.integers(1280, 3201, height)
    return freqs, bws, f0s, lengths


@pytest.mark.parametrize("workspace", ["default", "one_row"])
@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("height", [1, 2, 8, 9])
def test_stacked_cascades_equal_their_one_row_calls(height, tilted, workspace, monkeypatch):
    freqs, bws, f0s, lengths = _cascade_stack(height, tilted, seed=height)
    if workspace == "one_row":  # every chunk of a grid's rows is one row
        monkeypatch.setattr(synth, "WORKSPACE_BYTES", 1)
    sizes = []

    def record(sample_rate, size):
        sizes.append(size)
        return rfft_grid(sample_rate, size)

    rfft_grid = synth._rfft_grid
    monkeypatch.setattr(synth, "_rfft_grid", record)
    rows = synthesize_cascades(freqs, bws, f0s, 16000.0, lengths, tilted)
    # the rows of one grid share one call, and so one irfft
    assert sizes == ([8192] if height == 1 else [4096, 8192])
    assert [len(row) for row in rows] == lengths.tolist()
    for r, row in enumerate(rows):
        alone = synthesize_cascades(freqs[r:r + 1], bws[r:r + 1], f0s[r:r + 1], 16000.0,
                                    lengths[r:r + 1], tilted)
        assert np.array_equal(row, alone[0]), r


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("order, distinct", [
    ([0] * 7, 1),  # the f0 study: one cascade at 7 F0s
    ([0, 1, 0, 1, 0, 2, 1], 3),  # repeats interleaved with other cascades
], ids=["one_cascade", "interleaved"])
def test_repeated_cascades_share_one_impulse_response(order, distinct, tilted, monkeypatch):
    freqs = np.array([[400.0, 700.0, 2500.0, 3500.0], [600.0, 1300.0, 2500.0, 3500.0],
                      [400.0, 700.0, 2500.0, 3400.0]])
    bws = np.full_like(freqs, 100.0)
    f0s = [100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0]
    lengths = [4000, 4000, 3000, 3500, 4000, 2500, 4000]
    heights = []

    def record(a1, *args):
        heights.append(len(a1))
        return grid_responses(a1, *args)

    grid_responses = synth._grid_responses
    monkeypatch.setattr(synth, "_grid_responses", record)
    rows = synthesize_cascades(freqs[order], bws[order], f0s, 8000.0, lengths, tilted)
    # every row fits one 4096-point grid, and each distinct cascade is one row of it
    assert heights == [distinct]
    for r, (c, f0, n) in enumerate(zip(order, f0s, lengths)):
        alone = synthesize_cascades(freqs[c:c + 1], bws[c:c + 1], [f0], 8000.0, [n], tilted)
        assert np.array_equal(rows[r], alone[0]), r


@pytest.mark.parametrize("args, message", [
    (([[500.0]], [[100.0]], [100.0, 120.0], 8000.0, [800]), "must be \\(k, m\\)"),
    (([[500.0]], [[100.0, 90.0]], [100.0], 8000.0, [800]), "must be \\(k, m\\)"),
    (([[500.0]], [[100.0]], [100.0], 8000.0, [0]), "n_samples must be positive"),
    (([[500.0]], [[100.0]], [-1.0], 8000.0, [800]), "f0 must be finite and not negative"),
    (([[500.0]], [[100.0]], [100.0], 8000.0, [79]), "duration too short for one period"),
    (([[500.0]], [[0.0]], [100.0], 8000.0, [800]), "bandwidth must be positive"),
    (([[-5.0]], [[100.0]], [100.0], 8000.0, [800]), "frequency must be positive"),
    (([[4000.0]], [[100.0]], [100.0], 8000.0, [800]),
     r"formant at 4000\.0 Hz is at or above Nyquist \(4000\.0 Hz\)"),
    # the first formant above Nyquist section by section, as the calibration meets them
    (([[500.0, 4500.0], [4200.0, 4900.0]], [[100.0] * 2] * 2, [100.0] * 2, 8000.0, [800] * 2),
     r"formant at 4200\.0 Hz"),
    (([[500.0]], [[0.1]], [100.0], 16000.0, [800]), "more than 1048576"),
])
def test_synthesize_cascades_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        synthesize_cascades(*args)


def _files_digest(paths):
    """First 16 hex digits of the sha256 of each file's name, a NUL and its bytes, by path."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def test_corpus_and_babble_keep_their_bytes(corpus_dir, golden_inputs):
    # pinned without SciPy: test_synth_reference.py compares against lfilter
    golden_corpus, babble = golden_inputs
    assert len(list(corpus_dir.iterdir())) == 1000
    assert {
        "acceptance": _files_digest(corpus_dir.iterdir()),
        "golden": _files_digest(golden_corpus.iterdir()),
        "babble": _files_digest([babble]),
    } == {"acceptance": "a1a030e13221b0ee", "golden": "9887fc9629a9664b",
          "babble": "71cbd5aac927fcd0"}


def _spectral_slope_db_per_octave(x, f_low=500.0, f_high=2000.0):
    samples, rate = x
    spec = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1.0 / rate)
    def band_level(f):
        sel = (freqs > f / 1.3) & (freqs < f * 1.3)
        return 10 * np.log10(np.mean(spec[sel]))
    octaves = np.log2(f_high / f_low)
    return (band_level(f_high) - band_level(f_low)) / octaves


def _tilted_train(fs=16000.0):
    """400 periods of a 100 Hz pulse train through the source tilt."""
    n = int(400 * fs / 100.0)
    return synthesize_cascades([[]], [[]], [100.0], fs, [n], tilted=True)[0], fs


class TestSourceTilt:
    def test_minus_six_db_per_octave(self):
        slope = _spectral_slope_db_per_octave(_tilted_train())
        assert abs(slope - (-6.0)) < 1.0
        freqs = np.array([500.0, 2000.0])
        response = source_tilt_db(freqs, 16000.0)
        assert abs((response[1] - response[0]) / 2.0 - (-6.0)) < 1.0


def _formant_levels(env, formants, window_hz=200.0):
    """`peak_levels` of one (freqs, levels) envelope at each formant: (levels, missing)."""
    nominal = formants[None, :, 0]
    freqs, levels_db = env
    _, level, missing = peak_levels(freqs, levels_db[None, :], nominal, window_hz)
    return level[0], missing[0]


class TestMeasureFormantLevels:
    def test_single_resonator_level_is_global_max(self):
        env = analytic_cascade_spectrum(np.array([(1200.0, 120.0)]), 8000.0)
        lv, missing = _formant_levels(env, np.array([(1200.0, 120.0)]))
        assert not missing.any()
        assert abs(lv[0] - env[1].max()) < 0.01

    def test_widening_b1_lowers_l1_relative_to_l2(self):
        fs = 8000.0
        prev = None
        for b1 in (60.0, 120.0, 240.0):
            fm = np.array([(600.0, b1), (1800.0, 100.0)])
            env = analytic_cascade_spectrum(fm, fs)
            lv, missing = _formant_levels(env, fm)
            assert not missing.any()
            rel = lv[0] - lv[1]
            if prev is not None:
                assert rel < prev
            prev = rel

    def test_uniform_tube_has_downward_tilt(self):
        # at 8 kHz the tube's pole angles are mirror-symmetric and L1 == L4
        # exactly; any higher rate breaks the symmetry into a downward tilt
        fm = np.array([(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)])
        env = analytic_cascade_spectrum(fm, 16000.0, 4096)
        lv, missing = _formant_levels(env, fm)
        assert not missing.any()
        assert lv[0] > lv[3]

    def test_merged_peak_is_marked_missing(self):
        fm = np.array([(500.0, 400.0), (620.0, 400.0)])
        env = analytic_cascade_spectrum(fm, 8000.0)
        _, missing = _formant_levels(env, fm, window_hz=60.0)
        assert missing.any()


class TestCalibrateBandwidths:
    FREQS = (600.0, 1200.0, 2400.0)

    def _measured_relative_levels(self, bws, fs=10000.0):
        """Relative peak levels of the cascade plus the source tilt, as calibrated."""
        fm = np.column_stack((self.FREQS, bws))
        freqs, levels_db = analytic_cascade_spectrum(fm, fs, 2048)
        lv, missing = _formant_levels((freqs, levels_db + source_tilt_db(freqs, fs)), fm)
        assert not missing.any()
        return [lv[i] - lv[0] for i in range(3)]

    def _calibrated(self, targets):
        fit = calibrate_bandwidth_rows([self.FREQS], [targets], 10000.0)
        assert fit.converged[0]
        return fit.bandwidths[0]

    def test_fixed_point(self):
        rel = self._measured_relative_levels([100.0, 100.0, 100.0])
        bws = self._calibrated([0.0, rel[1], rel[2]])
        assert np.allclose(bws, 100.0, atol=8.0)

    def test_lower_l2_target_widens_b2(self):
        rel = self._measured_relative_levels([100.0, 100.0, 100.0])
        base = self._calibrated([0.0, rel[1], rel[2]])
        wider = self._calibrated([0.0, rel[1] - 6.0, rel[2]])
        assert wider[1] > base[1]

    def test_convergence_self_check(self):
        bws = self._calibrated([-3.0, -15.0, -25.0])
        rel = self._measured_relative_levels(bws)
        for got, want in zip(rel[1:], [-12.0, -22.0]):
            assert abs(got - want) <= 0.5

    def test_unreachable_target_reports_residuals(self, monkeypatch):
        monkeypatch.setattr(synth, "MAX_ROUNDS", 5)
        fit = calibrate_bandwidth_rows([self.FREQS], [(0.0, +40.0, -10.0)], 10000.0)
        assert not fit.converged[0]
        assert fit.residuals_db.shape == (1, 3)
        assert np.all(np.isfinite(fit.residuals_db[0]))
        assert abs(fit.residuals_db[0, 1]) > 0.5
