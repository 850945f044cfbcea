"""Peak and valley analysis of spectral envelopes.

`peak_levels` and `valley_minima` read the peaks and valleys of a stack of
envelopes; the frame pipeline, the bandwidth calibration and the sweeps
(one envelope as a one-row stack) run them.
"""

import numpy as np

# a peak is searched within +/-PEAK_WINDOW_HZ of its nominal formant frequency
PEAK_WINDOW_HZ = 200.0


def peak_windows(freqs: np.ndarray, nominal_f, window_hz: float):
    """Candidate bins [lo, hi) of the peak search around each nominal frequency.

    The bins lie within +/-window_hz of nominal_f and leave one neighbour on
    each side inside the grid, so a search reads bins lo-1 .. hi.
    """
    lo = np.maximum(np.searchsorted(freqs, np.subtract(nominal_f, window_hz)), 1)
    hi = np.searchsorted(freqs, np.add(nominal_f, window_hz), side="right")
    return lo, np.minimum(hi, len(freqs) - 1)


def peak_levels(freqs: np.ndarray, levels_db: np.ndarray, nominal_f,
                window_hz: float = PEAK_WINDOW_HZ):
    """Highest local maximum within +/-window_hz of nominal_f on each row of a level stack.

    `levels_db` is (n, len(freqs)) finite levels on the uniform grid
    `freqs`; `nominal_f` is (n,), or (n, k) for k peaks per row. A bin is a
    local maximum when it is at least as high as both neighbours; the first
    of equal maxima wins, and the peak is refined by a parabola through its
    three bins. Only the window bins and their neighbours are read. Returns
    (peak_freq, peak_level, missing), each shaped like `nominal_f`;
    `missing` marks the windows with no interior local maximum (their
    frequency and level mean nothing).
    """
    nominal_f = np.asarray(nominal_f, dtype=np.float64)
    outside = ~((freqs[0] <= nominal_f) & (nominal_f <= freqs[-1]))
    if outside.any():
        raise ValueError(
            f"nominal frequency {float(nominal_f[outside][0])} outside envelope grid"
        )
    spacing = float(freqs[1] - freqs[0])
    if window_hz <= spacing:
        raise ValueError("search window must exceed the grid spacing")
    n = len(levels_db)
    lo, hi = peak_windows(freqs, nominal_f.reshape(n, -1), window_hz)
    _, peak_freq, peak_level, missing = window_peaks(freqs, levels_db, lo, hi)
    shape = nominal_f.shape
    return peak_freq.reshape(shape), peak_level.reshape(shape), missing.reshape(shape)


def window_peaks(freqs: np.ndarray, levels_db: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Highest local maximum among the bins [lo, hi) of each window of a level stack.

    `lo` and `hi` are (n, k) bin bounds of k windows on each of the n rows of
    `levels_db`, as `peak_windows` gives them (1 <= lo, hi <= len(freqs) - 1).
    The search and refinement are those of `peak_levels`. Returns (bin,
    peak_freq, peak_level, missing), each (n, k): the grid index of each
    maximum before refinement, and the frequency and level after it.
    """
    width = int((hi - lo).max())
    if width <= 0:
        nothing = np.full(lo.shape, np.nan)
        return np.zeros(lo.shape, dtype=int), nothing, nothing.copy(), np.ones(lo.shape, dtype=bool)
    # each window's bins lo-1 .. lo+width; bins past a short window's end
    # are clipped to the grid and masked out
    idx = np.minimum(lo[..., None] + np.arange(-1, width + 1), len(freqs) - 1)
    db = levels_db[np.arange(len(lo))[:, None, None], idx]
    center = db[..., 1:-1]
    is_max = (
        (center >= db[..., :-2]) & (center >= db[..., 2:])
        & (np.arange(width) < (hi - lo)[..., None])
    )
    k = np.argmax(np.where(is_max, center, -np.inf), axis=-1)[..., None]
    ym, y0, yp = np.moveaxis(np.take_along_axis(db, k + np.arange(3), axis=-1), -1, 0)
    denom = ym - 2.0 * y0 + yp
    shift = np.zeros(denom.shape)
    np.divide(0.5 * (ym - yp), denom, out=shift, where=denom < 0)
    shift = np.clip(shift, -0.5, 0.5)
    peak_bin = lo + k[..., 0]
    peak_freq = freqs[peak_bin] + shift * float(freqs[1] - freqs[0])
    peak_level = y0 - 0.25 * (ym - yp) * shift
    return peak_bin, peak_freq, peak_level, ~is_max.any(axis=-1)


def valley_minima(freqs: np.ndarray, levels_db: np.ndarray, f_lo, f_hi):
    """Lowest level strictly between f_lo and f_hi on each row of a level stack.

    `levels_db` is (n, len(freqs)) on the grid `freqs`; `f_lo` and `f_hi` are
    (n,) bracket edges. The bracket holds the bins above f_lo and below f_hi.
    Returns (index, level, too_narrow): the grid index and level of each
    row's first minimum, and a mask of the rows whose bracket holds fewer
    than two bins (their index and level mean nothing).
    """
    lo = np.searchsorted(freqs, f_lo, side="right")
    hi = np.searchsorted(freqs, f_hi, side="left")
    too_narrow = hi - lo < 2
    n = len(lo)
    if too_narrow.all():
        return np.zeros(n, dtype=int), np.full(n, np.nan), too_narrow
    # only the columns some bracket covers take part in the masked minimum
    start, stop = int(lo.min()), int(hi.max())
    cols = np.arange(start, stop)
    inside = (cols >= lo[:, None]) & (cols < hi[:, None])
    masked = np.where(inside, levels_db[:, start:stop], np.inf)
    k = np.argmin(masked, axis=1)
    return start + k, masked[np.arange(n), k], too_narrow
