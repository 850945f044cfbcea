"""The peak, valley, mean-level and resonator kernels, and the unit-circle
table, in their plain NumPy form: the one oracle of each.

Each function below computes what its library counterpart computes with
`take_along_axis`, `np.clip`, `np.mean`, `np.concatenate` and one expression
per line, with no in-place step. `test_kernel_bits.py` checks that the library
kernels give the same bits. `window_peaks` and `peak_levels` gather the
windows of a level stack themselves and search them with `gathered_peaks`:
`test_envelope.py` and `test_calibration.py` check the library's peak search
against them.
"""

import numpy as np


def gathered_peaks(db, inside):
    """`envelope.gathered_peaks`: (k, shift, level, missing) of each window."""
    center = db[..., 1:-1]
    is_max = (center >= db[..., :-2]) & (center >= db[..., 2:]) & inside
    k = np.argmax(np.where(is_max, center, -np.inf), axis=-1)[..., None]
    ym, y0, yp = np.moveaxis(np.take_along_axis(db, k + np.arange(3), axis=-1), -1, 0)
    denom = ym - 2.0 * y0 + yp
    shift = np.zeros(denom.shape)
    np.divide(0.5 * (ym - yp), denom, out=shift, where=denom < 0)
    shift = np.clip(shift, -0.5, 0.5)
    return k[..., 0], shift, y0 - 0.25 * (ym - yp) * shift, ~is_max.any(axis=-1)


def window_peaks(freqs, levels_db, lo, hi):
    """`envelope.window_peaks`: (bin, freq, level, missing) of each window [lo, hi)
    of each row, its bins lo-1 .. lo+width gathered by `take_along_axis`."""
    width = int((hi - lo).max())
    if width <= 0:
        nothing = np.full(lo.shape, np.nan)
        return np.zeros(lo.shape, dtype=int), nothing, nothing.copy(), np.ones(lo.shape, dtype=bool)
    idx = np.minimum(lo[..., None] + np.arange(-1, width + 1), len(freqs) - 1)
    db = np.take_along_axis(levels_db, idx.reshape(len(lo), -1), axis=1).reshape(idx.shape)
    k, shift, level, missing = gathered_peaks(db, np.arange(width) < (hi - lo)[..., None])
    return lo + k, freqs[lo + k] + shift * float(freqs[1] - freqs[0]), level, missing


def peak_levels(freqs, levels_db, nominal_f, window_hz=200.0):
    """`conftest.peak_levels` on (n, k) nominal frequencies: (freq, level, missing)
    of each window, its bins within +/-window_hz of the nominal frequency and
    one bin inside each end of the grid."""
    lo = np.maximum(np.searchsorted(freqs, nominal_f - window_hz), 1)
    hi = np.minimum(np.searchsorted(freqs, nominal_f + window_hz, side="right"), len(freqs) - 1)
    return window_peaks(freqs, levels_db, lo, hi)[1:]


def valley_minima(freqs, levels_db, f_lo, f_hi):
    """`envelope.valley_minima`: (index, level, too_narrow) of each row's bracket."""
    lo = np.searchsorted(freqs, f_lo, side="right")
    hi = np.searchsorted(freqs, f_hi, side="left")
    too_narrow = hi - lo < 2
    n = len(lo)
    if too_narrow.all():
        return np.zeros(n, dtype=int), np.full(n, np.nan), too_narrow
    start, stop = int(lo.min()), int(hi.max())
    cols = np.arange(start, stop)
    inside = (cols >= lo[:, None]) & (cols < hi[:, None])
    masked = np.where(inside, levels_db[:, start:stop], np.inf)
    k = np.argmin(masked, axis=1)
    return start + k, masked[np.arange(n), k], too_narrow


def power_mean_db(levels_db):
    """`experiments.power_mean_db`: the level of the average power, in dB."""
    levels_db = np.asarray(levels_db, dtype=np.float64)
    mean_db = 10.0 * np.log10(np.mean(10.0 ** (levels_db / 10.0), axis=-1))
    return float(mean_db) if levels_db.ndim == 1 else mean_db


def resonator_db(frequency, bandwidth, zinv, sample_rate):
    """`sigproc.resonator_db` for resonators below Nyquist with a nonzero DC gain."""
    radius = np.exp(-np.pi * np.asarray(bandwidth, dtype=np.float64)[..., None] / sample_rate)
    theta = 2 * np.pi * np.asarray(frequency, dtype=np.float64)[..., None] / sample_rate
    a1, a2 = -2.0 * radius * np.cos(theta), radius * radius
    gain = 1.0 + a1 + a2
    return 20.0 * np.log10(gain / np.abs(1.0 + a1 * zinv + a2 * zinv * zinv))


def unit_circle_table(taps, n_points):
    """`sigproc._unit_circle_table`: the cos and sin halves built apart, then joined."""
    half = n_points - 1
    mk = np.outer(np.arange(taps), np.arange(n_points)) % (2 * half)
    angle = mk * (np.pi / half)
    cos, sin = np.cos(angle), np.sin(angle)
    cos[mk == 0] = 1.0
    cos[mk == half] = -1.0
    sin[mk % half == 0] = 0.0
    return np.concatenate((cos, sin), axis=1)
