import numpy as np
import pytest

import kernel_reference as ref
from cascade_reference import analytic_cascade_spectrum
from conftest import peak_levels
from specvalley.envelope import (
    gathered_peaks,
    peak_windows,
    valley_minima,
    window_bins,
    window_peaks,
)
from specvalley.experiments import PairMeter, _banded_mean_db, power_mean_db

TUBE = np.array([(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)])


def flat_env(level, n=256, fs=8000.0):
    return np.linspace(0, fs / 2, n), np.full(n, float(level))


def spacing(freqs):
    return freqs[1] - freqs[0]


class TestMeanSpectralLevel:
    def test_flat_envelope(self):
        assert abs(power_mean_db(flat_env(-7.25)[1]) + 7.25) < 1e-12

    def test_constant_shift(self):
        _, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        m0 = power_mean_db(levels_db)
        m1 = power_mean_db(levels_db + 11.5)
        assert abs(m1 - m0 - 11.5) < 1e-9

    def test_matches_independent_summation(self):
        freqs, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        total = 0.0
        for level in levels_db:
            total += 10.0 ** (level / 10.0)
        oracle = 10.0 * np.log10(total / len(levels_db))
        assert abs(power_mean_db(levels_db) - oracle) < 1e-9
        assert abs(_banded_mean_db(freqs, levels_db, None) - oracle) < 1e-9

    def test_full_grid_mean_of_the_experiments_is_power_mean_db(self):
        # the mean the sweeps and studies take without a band is `power_mean_db`
        # of the same levels, bit for bit
        for fm, fs, n in ((TUBE, 8000.0, 4096), (TUBE[:2], 10000.0, 1024), ([], 8000.0, 64)):
            freqs, levels_db = analytic_cascade_spectrum(fm, fs, n)
            assert _banded_mean_db(freqs, levels_db, None) == power_mean_db(levels_db)


class TestLocatePeak:
    """The peak search of one envelope: `window_peaks` on a one-row stack, through
    the `conftest.peak_levels` helper."""

    def test_single_resonator(self):
        freqs, levels_db = analytic_cascade_spectrum(np.array([(1400.0, 200.0)]), 10000.0)
        f, level, missing = peak_levels(freqs, levels_db[None, :], [1400.0])
        assert not missing[0]
        assert abs(f[0] - 1400.0) < 2 * spacing(freqs)
        assert level[0] >= levels_db.max() - 0.05

    def test_merged_formants_surface_as_missing_peak(self):
        # close pair with wide bandwidths: the upper peak disappears
        freqs, levels_db = analytic_cascade_spectrum(
            np.array([(500.0, 350.0), (640.0, 350.0)]), 8000.0
        )
        _, _, missing = peak_levels(freqs, levels_db[None, :], [640.0], window_hz=60.0)
        assert missing[0]

    def test_parabolic_refinement_on_synthetic_parabola(self):
        n, fs = 512, 8000.0
        freqs = np.linspace(0, fs / 2, n)
        true_peak = 1003.7  # deliberately between bins
        levels = -0.001 * (freqs - true_peak) ** 2
        f, _, missing = peak_levels(freqs, levels[None, :], [1000.0])
        assert not missing[0]
        assert abs(f[0] - true_peak) < 0.1 * spacing(freqs)

    def test_window_must_exceed_grid_spacing(self):
        freqs, levels_db = flat_env(0.0, n=64)
        with pytest.raises(ValueError):
            peak_levels(freqs, levels_db[None, :], [1000.0], window_hz=10.0)


@pytest.mark.parametrize("seed", range(40))
def test_window_peaks_equal_the_reference_gather(seed):
    # coarse levels make plateaus and ties; windows differ in width, some
    # reach the grid's last interior bin, and some hold no bin at all
    rng = np.random.default_rng(seed)
    n_bins, n, k = int(rng.integers(8, 200)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    freqs = np.linspace(0.0, 4000.0, n_bins)
    levels_db = np.round(rng.normal(size=(n, n_bins)) * rng.choice([0.5, 3.0]))
    lo = rng.integers(1, n_bins - 1, size=(n, k))
    hi = np.minimum(lo + rng.integers(-2, n_bins // 2, size=(n, k)), n_bins - 1)
    got, want = window_peaks(freqs, levels_db, lo, hi), ref.window_peaks(freqs, levels_db, lo, hi)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n, k)
        np.testing.assert_array_equal(g, w)


def test_window_peaks_without_bins_equal_the_reference():
    freqs = np.linspace(0.0, 4000.0, 64)
    levels_db = np.zeros((2, 64))
    lo = np.array([[5, 30], [63, 10]])
    for hi in (lo, lo - 1):  # every window empty: width <= 0
        for g, w in zip(window_peaks(freqs, levels_db, lo, hi),
                        ref.window_peaks(freqs, levels_db, lo, hi)):
            np.testing.assert_array_equal(g, w)


def _read_set_only(levels_db, idx):
    """`levels_db` with NaN at every bin of a row that no window of the row reads."""
    rows = np.arange(len(levels_db))[:, None, None]
    kept = np.full(levels_db.shape, np.nan)
    kept[rows, idx] = levels_db[rows, idx]
    return kept


@pytest.mark.parametrize("seed", range(20))
def test_the_search_reads_exactly_the_read_set(seed):
    # per row, a window clipped at bin 1, one at the last interior bin, an
    # empty one and a random one; coarse levels make plateaus and ties
    rng = np.random.default_rng(seed)
    n_bins, n, k = int(rng.integers(16, 200)), int(rng.integers(1, 6)), 4
    freqs = np.linspace(0.0, 4000.0, n_bins)
    levels_db = np.round(rng.normal(size=(n, n_bins)) * rng.choice([0.5, 3.0]))
    lo = rng.integers(1, n_bins - 1, size=(n, k))
    hi = np.minimum(lo + rng.integers(-2, n_bins // 2, size=(n, k)), n_bins - 1)
    lo[:, 0], hi[:, 1] = 1, n_bins - 1
    lo[:, 1] = np.minimum(lo[:, 1], n_bins - 3)
    hi[:, 2] = lo[:, 2] - rng.integers(0, 2, n)
    idx, inside = window_bins(lo, hi, n_bins)
    assert inside.shape == lo.shape + (idx.shape[-1] - 2,)
    full = window_peaks(freqs, levels_db, lo, hi)
    for got, read_set, want in zip(full,
                                   window_peaks(freqs, _read_set_only(levels_db, idx), lo, hi),
                                   ref.window_peaks(freqs, levels_db, lo, hi)):
        np.testing.assert_array_equal(got, read_set)
        np.testing.assert_array_equal(got, want)
    k_max, shift, level, missing = gathered_peaks(
        levels_db[np.arange(n)[:, None, None], idx], inside)
    np.testing.assert_array_equal(lo + k_max, full[0])
    np.testing.assert_array_equal(freqs[lo + k_max] + shift * spacing(freqs), full[1])
    np.testing.assert_array_equal(level, full[2])
    np.testing.assert_array_equal(missing, full[3])
    # `peak_levels` through the windows `peak_windows` gives, against both grid edges
    nominal = rng.uniform(0.0, 4000.0, (n, 3))
    nominal[:, 0], nominal[:, 1] = 0.0, 4000.0
    window_hz = float(rng.uniform(1.2, 20.0)) * spacing(freqs)
    idx, _ = window_bins(*peak_windows(freqs, nominal, window_hz), n_bins)
    for got, read_set in zip(peak_levels(freqs, levels_db, nominal, window_hz),
                             peak_levels(freqs, _read_set_only(levels_db, idx), nominal,
                                         window_hz)):
        np.testing.assert_array_equal(got, read_set)


class TestRlsv:
    """Mean level minus the level of the valley between two located peaks, as
    the sweeps measure it: one `window_peaks` call for the pair of nominal
    frequencies, then `valley_minima` between the two peaks."""

    def test_four_formant_near_zero_point(self):
        fm = np.vstack([[(725.0, 100.0), (1275.0, 100.0)], TUBE[2:]])
        freqs, levels_db = analytic_cascade_spectrum(fm, 8000.0, 4096)
        levels = levels_db[None, :]
        f, _, missing = peak_levels(freqs, levels, [[725.0, 1275.0]])
        _, valley, narrow = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert abs(power_mean_db(levels_db) - valley[0]) <= 0.5

    def test_four_formant_negative_below_crossing(self):
        fm = np.vstack([[(800.0, 100.0), (1200.0, 100.0)], TUBE[2:]])
        freqs, levels_db = analytic_cascade_spectrum(fm, 8000.0, 4096)
        levels = levels_db[None, :]
        f, _, missing = peak_levels(freqs, levels, [[800.0, 1200.0]])
        _, valley, narrow = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert power_mean_db(levels_db) - valley[0] < 0

    def test_wide_spacing_positive(self):
        freqs, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 4096)
        levels = levels_db[None, :]
        f, _, missing = peak_levels(freqs, levels, [[500.0, 1500.0]])
        _, valley, narrow = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert power_mean_db(levels_db) - valley[0] > 0

    def test_gain_invariance(self):
        freqs, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 1024)
        louder = levels_db - 23.0
        levels = np.array([levels_db, louder])
        f, _, missing = peak_levels(freqs, levels[:1], [[500.0, 1500.0]])
        assert not missing.any()
        _, valley, narrow = valley_minima(freqs, levels, f[[0, 0], 0], f[[0, 0], 1])
        assert not narrow.any()
        v = np.array([power_mean_db(levels_db), power_mean_db(louder)]) - valley
        assert abs(v[0] - v[1]) < 1e-9

    def test_valley_bracketing_invariants(self):
        freqs, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 2048)
        levels = levels_db[None, :]
        f, peak, missing = peak_levels(freqs, levels, [[1500.0, 2500.0]])
        idx, valley, narrow = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert f[0, 0] < freqs[idx[0]] < f[0, 1]
        assert valley[0] <= peak[0, 0] and valley[0] <= peak[0, 1]

    def test_too_close_peaks(self):
        freqs, levels_db = analytic_cascade_spectrum(TUBE, 8000.0, 256)
        _, _, narrow = valley_minima(freqs, levels_db[None, :], [1500.0], [1520.0])
        assert narrow[0]

    def test_order_checked(self):
        # a reversed nominal pair is the caller's mistake, not an unmeasurable valley
        with pytest.raises(ValueError, match="ordered lower < upper"):
            PairMeter(np.array([(1500.0, 100.0), (500.0, 100.0)]),
                      (0, 1), 8000.0, 256).measure((1500.0, 100.0), (500.0, 100.0))


class TestMeasureV1V2:
    """V_I and V_II as the frame pipeline takes them: the `valley_minima` level
    between two formants minus the mean level (valley minus mean)."""

    FS = 10000.0

    def _v1_v2(self, formants):
        fm = np.array([(f, 100.0) for f in formants])
        freqs, levels_db = analytic_cascade_spectrum(fm, self.FS, 2048)
        levels = levels_db[None, :]
        f = np.array([formants[:3]])
        _, v1, narrow1 = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        _, v2, narrow2 = valley_minima(freqs, levels, f[:, 1], f[:, 2])
        assert not (narrow1[0] or narrow2[0])
        mean_db = power_mean_db(levels_db)
        return (freqs, levels_db), v1[0] - mean_db, v2[0] - mean_db

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
        (freqs, levels_db), v1, _ = self._v1_v2([500.0, 1500.0, 2500.0, 3500.0])
        levels = levels_db[None, :]
        f, _, missing = peak_levels(freqs, levels, [[500.0, 1500.0]])
        _, valley, narrow = valley_minima(freqs, levels, f[:, 0], f[:, 1])
        assert not (missing.any() or narrow[0])
        assert abs(v1 + (power_mean_db(levels_db) - valley[0])) < 0.2
