"""Peak and valley analysis of spectral envelopes.

`window_peaks` and `valley_minima` read the peaks and valleys of a stack of
envelopes (one envelope is a one-row stack). A peak search reads the bins of
`window_bins` alone, which is all the bandwidth calibration evaluates.
"""

import numpy as np

# a peak is searched within +/-PEAK_WINDOW_HZ of its nominal formant frequency
PEAK_WINDOW_HZ = 200.0


def peak_windows(freqs: np.ndarray, nominal_f, window_hz: float):
    """Candidate bins [lo, hi) of the peak search around each nominal frequency.

    The bins lie within +/-window_hz of nominal_f and leave one neighbour on
    each side inside the grid, so a search reads bins lo-1 .. hi. Raises
    ValueError for a nominal_f off the grid or a window_hz not above its spacing.
    """
    nominal_f = np.asarray(nominal_f, dtype=np.float64)
    outside = ~((freqs[0] <= nominal_f) & (nominal_f <= freqs[-1]))
    if outside.any():
        raise ValueError(
            f"nominal frequency {float(nominal_f[outside][0])} outside envelope grid"
        )
    if window_hz <= float(freqs[1] - freqs[0]):
        raise ValueError("search window must exceed the grid spacing")
    lo = freqs.searchsorted(nominal_f - window_hz)
    hi = freqs.searchsorted(nominal_f + window_hz, side="right")
    np.maximum(lo, 1, out=lo)
    return lo, np.minimum(hi, len(freqs) - 1, out=hi)


def window_bins(lo: np.ndarray, hi: np.ndarray, n_bins: int):
    """The bins a search of the windows [lo, hi) reads, and its candidates: (idx, inside).

    `idx` holds each window's bins lo-1 .. lo+width, width the widest window,
    clipped to the last of `n_bins`; `inside` marks idx[..., 1:-1] below hi.
    """
    span = hi - lo
    width = int(span.max())
    idx = lo[..., None] + np.arange(-1, width + 1)
    np.minimum(idx, n_bins - 1, out=idx)
    return idx, np.arange(width) < span[..., None]


def gathered_peaks(db: np.ndarray, inside: np.ndarray):
    """The search of `window_peaks` on the levels `db` at the `idx` of `window_bins`.

    Returns (k, shift, level, missing), each inside.shape[:-1]: the maximum's
    offset from lo, its parabolic shift in bins, its refined level, and the
    windows with no candidate maximum (their k, shift and level mean nothing).
    """
    center = db[..., 1:-1]
    is_max = center >= db[..., :-2]
    is_max &= center >= db[..., 2:]
    is_max &= inside
    k = np.where(is_max, center, -np.inf).argmax(axis=-1)
    # the parabola's three bins, read by their offsets into the flat levels
    at = np.arange(0, k.size * db.shape[-1], db.shape[-1]).reshape(k.shape)
    at += k
    flat = db.reshape(-1)
    ym, y0, yp = flat[at], flat[at + 1], flat[at + 2]
    denom = ym - 2.0 * y0 + yp
    slope = ym - yp
    shift = np.zeros(denom.shape)
    np.divide(0.5 * slope, denom, out=shift, where=denom < 0)
    np.maximum(shift, -0.5, out=shift)
    np.minimum(shift, 0.5, out=shift)
    return k, shift, y0 - 0.25 * slope * shift, ~is_max.any(axis=-1)


def window_peaks(freqs: np.ndarray, levels_db: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Highest local maximum among the bins [lo, hi) of each window of a level stack.

    `lo` and `hi` are (n, k) bin bounds of k windows on each of the n rows of
    `levels_db`, as `peak_windows` gives them (1 <= lo, hi <= len(freqs) - 1).
    A local maximum is a bin at least as high as both neighbours, the first
    of equal ones wins, and a parabola through its three bins refines it.
    Returns (bin, peak_freq, peak_level, missing), each (n, k): the grid index
    of each maximum before refinement, the frequency and level after it, and
    the windows with no interior local maximum (their values mean nothing).
    """
    idx, inside = window_bins(lo, hi, len(freqs))
    if not inside.shape[-1]:  # every window is empty
        nothing = np.full(lo.shape, np.nan)
        return np.zeros(lo.shape, dtype=int), nothing, nothing.copy(), np.ones(lo.shape, dtype=bool)
    k, shift, peak_level, missing = gathered_peaks(
        levels_db[np.arange(len(lo))[:, None, None], idx], inside)
    peak_bin = lo + k
    peak_freq = freqs[peak_bin] + shift * float(freqs[1] - freqs[0])
    return peak_bin, peak_freq, peak_level, missing


def valley_minima(freqs: np.ndarray, levels_db: np.ndarray, f_lo, f_hi):
    """Lowest level strictly between f_lo and f_hi on each row of a level stack.

    `levels_db` is (n, len(freqs)) on the grid `freqs`; `f_lo` and `f_hi` are
    (n,) bracket edges. The bracket holds the bins above f_lo and below f_hi.
    Returns (index, level, too_narrow): the grid index and level of each
    row's first minimum, and a mask of the rows whose bracket holds fewer
    than two bins (their index and level mean nothing).
    """
    lo = freqs.searchsorted(f_lo, side="right")
    hi = freqs.searchsorted(f_hi, side="left")
    too_narrow = hi - lo < 2
    n = len(lo)
    if too_narrow.all():
        return np.zeros(n, dtype=int), np.full(n, np.nan), too_narrow
    # only the columns some bracket covers take part in the masked minimum
    start, stop = int(lo.min()), int(hi.max())
    cols = np.arange(start, stop)
    inside = cols >= lo[:, None]
    inside &= cols < hi[:, None]
    masked = np.where(inside, levels_db[:, start:stop], np.inf)
    k = masked.argmin(axis=1)
    return start + k, masked[np.arange(n), k], too_narrow
