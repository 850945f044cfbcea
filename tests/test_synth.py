import numpy as np
import pytest

from specvalley.envelope import locate_peak
from specvalley.errors import CalibrationError, PeakNotFoundError
from specvalley.sigproc import analytic_cascade_spectrum
from specvalley.synth import (
    Excitation,
    apply_source_tilt,
    calibrate_bandwidths,
    measure_formant_levels,
    resonator_coefficients,
    synthesize,
)
from specvalley.types import FormantSpec, SignalBuffer


class TestResonator:
    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            resonator_coefficients(FormantSpec(4000.0, 100.0), 8000.0)

    def test_stable_poles(self):
        b, a = resonator_coefficients(FormantSpec(2200.0, 80.0), 8000.0)
        assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_huge_bandwidth_is_nearly_flat(self):
        env = analytic_cascade_spectrum([FormantSpec(1000.0, 20000.0)], 8000.0, 512)
        assert env.levels_db.max() - env.levels_db.min() < 1.0

    def test_realized_peak_near_center(self):
        env = analytic_cascade_spectrum([FormantSpec(1400.0, 200.0)], 10000.0)
        f, _ = locate_peak(env, 1400.0)
        assert abs(f - 1400.0) < 2 * env.grid_spacing_hz


class TestSynthesize:
    def test_impulse_passthrough_with_no_formants(self):
        out = synthesize([], Excitation("unit-impulse"), 8000.0, n_samples=16)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(out.samples, expected)

    def test_matches_analytic_spectrum(self):
        fs = 10000.0
        fm = [FormantSpec(700.0, 90.0), FormantSpec(1500.0, 180.0)]
        sig = synthesize(fm, Excitation("unit-impulse"), fs, n_samples=32768)
        oracle = 20 * np.log10(np.abs(np.fft.rfft(sig.samples)))
        env = analytic_cascade_spectrum(fm, fs, 16385)
        assert np.max(np.abs(env.levels_db - oracle)) < 0.1

    def test_impulse_train_spacing(self):
        out = synthesize([], Excitation("impulse-train", f0=100.0), 8000.0, n_samples=400)
        nz = np.flatnonzero(out.samples)
        assert np.array_equal(nz, np.arange(0, 400, 80))

    def test_output_is_bounded(self):
        fm = [FormantSpec(f, 60.0) for f in (300.0, 900.0, 2200.0, 3400.0)]
        out = synthesize(fm, Excitation("impulse-train", f0=120.0, duration_s=0.5), 8000.0)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) < 1e6

    def test_cascade_order_does_not_change_spectrum(self):
        fs = 8000.0
        fm = [FormantSpec(500.0, 100.0), FormantSpec(1500.0, 120.0), FormantSpec(2500.0, 90.0)]
        a = synthesize(fm, Excitation("unit-impulse"), fs, n_samples=4096)
        b = synthesize(fm[::-1], Excitation("unit-impulse"), fs, n_samples=4096)
        sa = np.abs(np.fft.rfft(a.samples))
        sb = np.abs(np.fft.rfft(b.samples))
        assert np.allclose(sa, sb, rtol=1e-8, atol=1e-12)


def _spectral_slope_db_per_octave(x: SignalBuffer, f_low=500.0, f_high=2000.0):
    spec = np.abs(np.fft.rfft(x.samples)) ** 2
    freqs = np.fft.rfftfreq(len(x.samples), 1.0 / x.sample_rate)
    def band_level(f):
        sel = (freqs > f / 1.3) & (freqs < f * 1.3)
        return 10 * np.log10(np.mean(spec[sel]))
    octaves = np.log2(f_high / f_low)
    return (band_level(f_high) - band_level(f_low)) / octaves


class TestSourceTilt:
    def test_zero_tilt_is_identity(self):
        x = SignalBuffer(np.random.default_rng(0).standard_normal(512), 8000.0)
        assert np.array_equal(apply_source_tilt(x, 0.0).samples, x.samples)

    def test_minus_six_db_per_octave(self):
        rng = np.random.default_rng(1)
        x = SignalBuffer(rng.standard_normal(1 << 16), 16000.0)
        slope = _spectral_slope_db_per_octave(apply_source_tilt(x, -6.0))
        assert abs(slope - (-6.0)) < 1.0

    def test_two_applications_double_the_slope(self):
        rng = np.random.default_rng(2)
        x = SignalBuffer(rng.standard_normal(1 << 16), 16000.0)
        y = apply_source_tilt(apply_source_tilt(x, -6.0), -6.0)
        assert abs(_spectral_slope_db_per_octave(y) - (-12.0)) < 1.0

    def test_positive_tilt_rejected(self):
        with pytest.raises(ValueError):
            apply_source_tilt(SignalBuffer(np.ones(8), 8000.0), 3.0)


class TestMeasureFormantLevels:
    def test_single_resonator_level_is_global_max(self):
        env = analytic_cascade_spectrum([FormantSpec(1200.0, 120.0)], 8000.0)
        lv = measure_formant_levels(env, [FormantSpec(1200.0, 120.0)])
        assert abs(lv[0] - env.levels_db.max()) < 0.01

    def test_widening_b1_lowers_l1_relative_to_l2(self):
        fs = 8000.0
        prev = None
        for b1 in (60.0, 120.0, 240.0):
            fm = [FormantSpec(600.0, b1), FormantSpec(1800.0, 100.0)]
            env = analytic_cascade_spectrum(fm, fs)
            lv = measure_formant_levels(env, fm)
            rel = lv[0] - lv[1]
            if prev is not None:
                assert rel < prev
            prev = rel

    def test_uniform_tube_has_downward_tilt(self):
        # at 8 kHz the tube's pole angles are mirror-symmetric and L1 == L4
        # exactly; any higher rate breaks the symmetry into a downward tilt
        fm = [FormantSpec(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)]
        env = analytic_cascade_spectrum(fm, 16000.0, 4096)
        lv = measure_formant_levels(env, fm)
        assert lv[0] > lv[3]

    def test_merged_peak_error_carries_index(self):
        fm = [FormantSpec(500.0, 400.0), FormantSpec(620.0, 400.0)]
        env = analytic_cascade_spectrum(fm, 8000.0)
        with pytest.raises(PeakNotFoundError) as err:
            measure_formant_levels(env, fm, window_hz=60.0)
        assert err.value.formant_index in (0, 1)


class TestCalibrateBandwidths:
    FREQS = (600.0, 1200.0, 2400.0)

    def _measured_relative_levels(self, bws, exc, fs=10000.0):
        fm = [FormantSpec(f, b) for f, b in zip(self.FREQS, bws)]
        env = analytic_cascade_spectrum(fm, fs, 2048)
        if exc.kind == "tilted-train":
            from specvalley.synth import source_tilt_db
            from specvalley.types import SpectralEnvelope

            env = SpectralEnvelope(
                env.freqs,
                env.levels_db + source_tilt_db(env.freqs, fs, exc.tilt_db_per_octave),
            )
        lv = measure_formant_levels(env, fm)
        return [lv[i] - lv[0] for i in range(3)]

    def test_fixed_point(self):
        exc = Excitation("unit-impulse")
        rel = self._measured_relative_levels([100.0, 100.0, 100.0], exc)
        targets = [0.0, rel[1], rel[2]]
        bws = calibrate_bandwidths(self.FREQS, targets, exc, 10000.0)
        assert np.allclose(bws, 100.0, atol=8.0)

    def test_lower_l2_target_widens_b2(self):
        exc = Excitation("unit-impulse")
        rel = self._measured_relative_levels([100.0, 100.0, 100.0], exc)
        base = calibrate_bandwidths(
            self.FREQS, [0.0, rel[1], rel[2]], exc, 10000.0
        )
        wider = calibrate_bandwidths(
            self.FREQS, [0.0, rel[1] - 6.0, rel[2]], exc, 10000.0
        )
        assert wider[1] > base[1]

    def test_convergence_self_check(self):
        exc = Excitation("tilted-train", f0=100.0, tilt_db_per_octave=-6.0)
        targets = [-3.0, -15.0, -25.0]
        bws = calibrate_bandwidths(self.FREQS, targets, exc, 10000.0)
        rel = self._measured_relative_levels(bws, exc)
        for got, want in zip(rel[1:], [-12.0, -22.0]):
            assert abs(got - want) <= 0.5

    def test_unreachable_target_reports_residuals(self):
        exc = Excitation("unit-impulse")
        with pytest.raises(CalibrationError) as err:
            calibrate_bandwidths(
                self.FREQS, [0.0, +40.0, -10.0], exc, 10000.0,
                max_rounds=5,
            )
        assert len(err.value.residuals_db) == 3
