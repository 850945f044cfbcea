"""The peak, valley, mean-level and resonator kernels and the unit-circle table
give the bits of their plain NumPy forms in `kernel_reference.py`, and the
cascade grid is shared read-only.

Every comparison is `np.array_equal`: the kernels keep the same arithmetic in
the same order, so not a single bit may move.
"""

import numpy as np
import pytest

import kernel_reference as ref
from specvalley.envelope import gathered_peaks, valley_minima, window_bins
from specvalley.experiments import power_mean_db
from specvalley.sigproc import _unit_circle_table, cascade_grid, resonator_db


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.array_equal(g, w, equal_nan=True)


def _window_stack(rng, n, k, n_bins):
    """(lo, hi) of k windows on n rows: the first clipped at bin 1, the second
    at the last interior bin, the third empty, the rest random."""
    lo = rng.integers(1, n_bins - 1, size=(n, k))
    hi = np.minimum(lo + rng.integers(-2, n_bins // 2, size=(n, k)), n_bins - 1)
    lo[:, 0], hi[:, 0] = 1, np.maximum(hi[:, 0], 3)
    if k > 1:
        lo[:, 1], hi[:, 1] = np.minimum(lo[:, 1], n_bins - 3), n_bins - 1
    if k > 2:
        hi[:, 2] = lo[:, 2] - rng.integers(0, 2, n)
    return lo, hi


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("shape", [(1, 2), (5, 3)], ids=["one_row_pair", "rows_of_three"])
def test_gathered_peaks_keep_the_bits_of_the_reference(seed, shape):
    # coarse levels make plateaus, ties and flat triples
    rng = np.random.default_rng(seed)
    n_bins = int(rng.integers(8, 200))
    levels_db = np.round(rng.normal(size=(shape[0], n_bins)) * rng.choice([0.5, 3.0]))
    lo, hi = _window_stack(rng, *shape, n_bins)
    idx, inside = window_bins(lo, hi, n_bins)
    db = levels_db[np.arange(shape[0])[:, None, None], idx]
    assert_same_bits(gathered_peaks(db, inside), ref.gathered_peaks(db, inside))


@pytest.mark.parametrize("seed", range(10))
def test_gathered_peaks_keep_the_bits_on_calibration_stacks(seed):
    # the calibration's (n, 3, W + 2) stacks of smooth levels, and random
    # candidate masks, some of which hold no candidate at all
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(1, 20)), int(rng.integers(1, 60))
    db = np.cumsum(rng.normal(size=(n, 3, width + 2)), axis=-1)
    inside = rng.random((n, 3, width)) < rng.uniform(0.0, 1.0)
    inside[0, 0] = False
    got = gathered_peaks(db, inside)
    assert_same_bits(got, ref.gathered_peaks(db, inside))
    assert got[3][0, 0]


def test_the_first_of_equal_maxima_wins_and_a_flat_triple_does_not_shift():
    db = np.array([[[0.0, 5.0, 5.0, 5.0, 0.0, 7.0, 7.0, 1.0],
                    [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]])
    inside = np.ones((1, 2, 6), dtype=bool)
    got = gathered_peaks(db, inside)
    assert_same_bits(got, ref.gathered_peaks(db, inside))
    k, shift, level, missing = got
    assert k.tolist() == [[4, 0]]  # the first 7 of the plateau, and the first 2
    assert shift.tolist() == [[0.5, 0.0]] and level.tolist() == [[7.875, 2.0]]
    assert not missing.any()


@pytest.mark.parametrize("seed", range(30))
def test_valley_minima_keep_the_bits_of_the_reference(seed):
    # brackets of every width, some under two bins, some past the grid's ends
    rng = np.random.default_rng(seed)
    n, n_bins = int(rng.integers(1, 8)), int(rng.integers(4, 300))
    freqs = np.linspace(0.0, 4000.0, n_bins)
    levels_db = np.round(rng.normal(size=(n, n_bins)) * rng.choice([0.5, 3.0]))
    f_lo = rng.uniform(-100.0, 4100.0, n)
    f_hi = f_lo + rng.uniform(-50.0, 3000.0, n) * rng.choice([0.01, 1.0], n)
    got = valley_minima(freqs, levels_db, f_lo, f_hi)
    assert_same_bits(got, ref.valley_minima(freqs, levels_db, f_lo, f_hi))


@pytest.mark.parametrize("n", [1, 4])
def test_valley_minima_keep_the_bits_when_every_bracket_is_too_narrow(n):
    freqs = np.linspace(0.0, 4000.0, 101)
    levels_db = np.arange(n * 101.0).reshape(n, 101)
    f_lo = 40.0 * np.arange(3, 3 + 7 * n, 7)  # on bins of the 40 Hz grid
    for width in (0.0, 40.0, 79.0, 80.0):  # no bin strictly inside, then one
        got = valley_minima(freqs, levels_db, f_lo, f_lo + width)
        assert_same_bits(got, ref.valley_minima(freqs, levels_db, f_lo, f_lo + width))
        assert got[2].all()


@pytest.mark.parametrize("seed", range(10))
def test_power_mean_db_keeps_the_bits_of_the_reference(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5000))
    levels_db = rng.normal(size=(int(rng.integers(1, 6)), m)) * 30.0
    assert_same_bits([power_mean_db(levels_db)], [ref.power_mean_db(levels_db)])
    one = power_mean_db(levels_db[0])
    assert type(one) is float and one == ref.power_mean_db(levels_db[0])
    listed = levels_db[0].tolist()
    assert power_mean_db(listed) == ref.power_mean_db(listed)


@pytest.mark.parametrize("seed", range(10))
def test_resonator_db_keeps_the_bits_of_the_reference(seed):
    rng = np.random.default_rng(seed)
    fs = float(rng.choice([8000.0, 10000.0, 16000.0]))
    _, zinv = cascade_grid(fs, int(rng.integers(64, 5000)))
    f, b = rng.uniform(50.0, 0.45 * fs), rng.uniform(20.0, 600.0)
    assert_same_bits([resonator_db(f, b, zinv, fs)], [ref.resonator_db(f, b, zinv, fs)])
    # rows of resonators, each on its own bins, as the calibration evaluates them
    n = int(rng.integers(1, 10))
    f, b = rng.uniform(50.0, 0.45 * fs, (n, 1)), rng.uniform(20.0, 600.0, (n, 1))
    rows = zinv[rng.integers(0, len(zinv), (n, 3, 40))]
    assert_same_bits([resonator_db(f, b, rows, fs)], [ref.resonator_db(f, b, rows, fs)])


def test_a_pole_on_the_grid_is_refused_before_any_division():
    # at so narrow a bandwidth the pole radius rounds to 1; at 2000 Hz of
    # 8000 Hz the pole's angle is a grid point of a 4097-point grid
    _, zinv = cascade_grid(8000.0, 4097)
    with pytest.raises(ValueError, match=r"^resonator at 2000 Hz with bandwidth 1e-300 Hz "
                                         r"has a pole on the frequency grid at sample rate "
                                         r"8000 Hz$"):
        resonator_db(np.array([[900.0], [2000.0]]), np.array([[100.0], [1e-300]]), zinv, 8000.0)


def test_cascade_grid_is_shared_read_only():
    freqs, zinv = cascade_grid(8000.0, 4096)
    again = cascade_grid(8000.0, 4096)
    assert again[0] is freqs and again[1] is zinv
    for a in (freqs, zinv):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    other = cascade_grid(10000.0, 4096)
    assert other[0] is not freqs and other[0][-1] == 5000.0


@pytest.mark.parametrize("taps, n_points", [(19, 512), (2, 512), (9, 4096), (9, 8192),
                                            (13, 1024), (1001, 1024), (2, 64)])
def test_unit_circle_table_keeps_the_bits_of_the_reference(taps, n_points):
    # the uncached builder, so no test table stays in the cache
    table = _unit_circle_table.__wrapped__(taps, n_points)
    want = ref.unit_circle_table(taps, n_points)
    assert table.shape == want.shape and table.dtype == want.dtype
    assert table.tobytes() == want.tobytes()
    assert not table.flags.writeable
