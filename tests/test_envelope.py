import numpy as np
import pytest

from specvalley.envelope import peak_levels, valley_minima
from specvalley.experiments import measure_pair_rlsv
from specvalley.sigproc import analytic_cascade_spectrum
from specvalley.types import FormantSpec, SpectralEnvelope, power_mean_db

TUBE = [FormantSpec(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)]


def flat_env(level, n=256, fs=8000.0):
    return SpectralEnvelope(np.linspace(0, fs / 2, n), np.full(n, float(level)))


def shifted(env, gain_db):
    return SpectralEnvelope(env.freqs, env.levels_db + gain_db)


def spacing(env):
    return env.freqs[1] - env.freqs[0]


class TestMeanSpectralLevel:
    def test_flat_envelope(self):
        assert abs(power_mean_db(flat_env(-7.25).levels_db) + 7.25) < 1e-12

    def test_constant_shift(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        m0 = power_mean_db(env.levels_db)
        m1 = power_mean_db(shifted(env, +11.5).levels_db)
        assert abs(m1 - m0 - 11.5) < 1e-9

    def test_matches_independent_summation(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        total = 0.0
        for level in env.levels_db:
            total += 10.0 ** (level / 10.0)
        oracle = 10.0 * np.log10(total / len(env.levels_db))
        assert abs(power_mean_db(env.levels_db) - oracle) < 1e-9
        assert abs(env.mean_level_db - oracle) < 1e-9


class TestLocatePeak:
    """The peak search of one envelope: `peak_levels` on a one-row stack."""

    def test_single_resonator(self):
        env = analytic_cascade_spectrum([FormantSpec(1400.0, 200.0)], 10000.0)
        f, level, missing = peak_levels(env.freqs, env.levels_db[None, :], [1400.0])
        assert not missing[0]
        assert abs(f[0] - 1400.0) < 2 * spacing(env)
        assert level[0] >= env.levels_db.max() - 0.05

    def test_merged_formants_surface_as_missing_peak(self):
        # close pair with wide bandwidths: the upper peak disappears
        env = analytic_cascade_spectrum(
            [FormantSpec(500.0, 350.0), FormantSpec(640.0, 350.0)], 8000.0
        )
        _, _, missing = peak_levels(env.freqs, env.levels_db[None, :], [640.0], window_hz=60.0)
        assert missing[0]

    def test_parabolic_refinement_on_synthetic_parabola(self):
        n, fs = 512, 8000.0
        freqs = np.linspace(0, fs / 2, n)
        true_peak = 1003.7  # deliberately between bins
        levels = -0.001 * (freqs - true_peak) ** 2
        env = SpectralEnvelope(freqs, levels)
        f, _, missing = peak_levels(env.freqs, env.levels_db[None, :], [1000.0])
        assert not missing[0]
        assert abs(f[0] - true_peak) < 0.1 * spacing(env)

    def test_window_must_exceed_grid_spacing(self):
        env = flat_env(0.0, n=64)
        with pytest.raises(ValueError):
            peak_levels(env.freqs, env.levels_db[None, :], [1000.0], window_hz=10.0)


class TestRlsv:
    """Mean level minus the level of the valley between two located peaks, as
    the sweeps measure it: one `peak_levels` call for the pair of nominal
    frequencies, then `valley_minima` between the two peaks."""

    def test_four_formant_near_zero_point(self):
        fm = [FormantSpec(725.0, 100.0), FormantSpec(1275.0, 100.0)] + TUBE[2:]
        env = analytic_cascade_spectrum(fm, 8000.0, 4096)
        levels = env.levels_db[None, :]
        f, _, missing = peak_levels(env.freqs, levels, [[725.0, 1275.0]])
        _, valley, narrow = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert abs(env.mean_level_db - valley[0]) <= 0.5

    def test_four_formant_negative_below_crossing(self):
        fm = [FormantSpec(800.0, 100.0), FormantSpec(1200.0, 100.0)] + TUBE[2:]
        env = analytic_cascade_spectrum(fm, 8000.0, 4096)
        levels = env.levels_db[None, :]
        f, _, missing = peak_levels(env.freqs, levels, [[800.0, 1200.0]])
        _, valley, narrow = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert env.mean_level_db - valley[0] < 0

    def test_wide_spacing_positive(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 4096)
        levels = env.levels_db[None, :]
        f, _, missing = peak_levels(env.freqs, levels, [[500.0, 1500.0]])
        _, valley, narrow = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert env.mean_level_db - valley[0] > 0

    def test_gain_invariance(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        louder = shifted(env, -23.0)
        levels = np.array([env.levels_db, louder.levels_db])
        f, _, missing = peak_levels(env.freqs, levels[:1], [[500.0, 1500.0]])
        assert not missing.any()
        _, valley, narrow = valley_minima(env.freqs, levels, f[[0, 0], 0], f[[0, 0], 1])
        assert not narrow.any()
        v = np.array([env.mean_level_db, louder.mean_level_db]) - valley
        assert abs(v[0] - v[1]) < 1e-9

    def test_valley_bracketing_invariants(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 2048)
        levels = env.levels_db[None, :]
        f, peak, missing = peak_levels(env.freqs, levels, [[1500.0, 2500.0]])
        idx, valley, narrow = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert f[0, 0] < env.freqs[idx[0]] < f[0, 1]
        assert valley[0] <= peak[0, 0] and valley[0] <= peak[0, 1]

    def test_too_close_peaks(self):
        env = analytic_cascade_spectrum(TUBE, 8000.0, 256)
        _, _, narrow = valley_minima(env.freqs, env.levels_db[None, :], [1500.0], [1520.0])
        assert narrow[0]

    def test_order_checked(self):
        # a reversed nominal pair is the caller's mistake, not an unmeasurable valley
        with pytest.raises(ValueError, match="ordered lower < upper"):
            measure_pair_rlsv([FormantSpec(1500.0, 100.0), FormantSpec(500.0, 100.0)],
                              (0, 1), 8000.0, 256)


class TestMeasureV1V2:
    """V_I and V_II as the frame pipeline takes them: the `valley_minima` level
    between two formants minus the mean level (valley minus mean)."""

    FS = 10000.0

    def _v1_v2(self, freqs):
        fm = [FormantSpec(f, 100.0) for f in freqs]
        env = analytic_cascade_spectrum(fm, self.FS, 2048)
        levels = env.levels_db[None, :]
        f = np.array([freqs[:3]])
        _, v1, narrow1 = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        _, v2, narrow2 = valley_minima(env.freqs, levels, f[:, 1], f[:, 2])
        assert not (narrow1[0] or narrow2[0])
        return env, v1[0] - env.mean_level_db, v2[0] - env.mean_level_db

    def test_back_vowel_geometry(self):
        # close F1-F2, far F2-F3: first valley high, second low
        _, v1, v2 = self._v1_v2([300.0, 870.0, 2240.0, 3500.0])
        assert v1 > v2

    def test_front_vowel_geometry(self):
        _, v1, v2 = self._v1_v2([270.0, 2290.0, 3010.0, 3500.0])
        assert v1 < v2

    def test_neutral_vowel_small_but_nonzero_difference(self):
        _, v1, v2 = self._v1_v2([500.0, 1500.0, 2500.0, 3500.0])
        diff = v1 - v2
        assert diff != 0.0
        assert abs(diff) < 3.0

    def test_sign_relation_to_rlsv(self):
        # V_I is the first valley's level relative to the mean: the negation
        # of the mean-minus-valley convention used for sweep measurements
        env, v1, _ = self._v1_v2([500.0, 1500.0, 2500.0, 3500.0])
        levels = env.levels_db[None, :]
        f, _, missing = peak_levels(env.freqs, levels, [[500.0, 1500.0]])
        _, valley, narrow = valley_minima(env.freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert abs(v1 + (env.mean_level_db - valley[0])) < 0.2
