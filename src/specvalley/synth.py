"""Cascaded formant synthesis and bandwidth-to-level calibration."""

import functools
import operator
from typing import NamedTuple

import numpy as np

from .envelope import PEAK_WINDOW_HZ, gathered_peaks, peak_windows, window_bins
from .sigproc import (cascade_grid, cascade_levels, check_formants, resonator_db,
                      resonator_denominator, resonator_taps)

# corner of the single-pole lowpass that gives a tilted train its -6 dB/octave
TILT_CORNER_HZ = 50.0

# the cascade's impulse response is taken from an FFT grid at least as long
# as the signal and as TAIL_TIME_CONSTANTS time constants of its slowest pole
# (a decay of e^-60), so the response that wraps around the grid falls far
# below rounding; a bandwidth whose tail exceeds MAX_TAIL_SAMPLES is refused
TAIL_TIME_CONSTANTS = 60
MAX_TAIL_SAMPLES = 1 << 20
# the rows of one grid share a product of denominators and an irfft in chunks
# whose complex workspace, three arrays of (rows, bins), stays within
# WORKSPACE_BYTES: a stack of 8 corpus tokens is one chunk, and a 4 s babble
# voice (65536 points) is a chunk to itself, so memory does not grow with
# the number of long rows
WORKSPACE_BYTES = 1 << 21

# bandwidth calibration: B1..B3 start at INITIAL_BANDWIDTH Hz (B1 stays there),
# B2 and B3 are bisected over SEARCH_RANGE_HZ in BISECTION_STEPS halvings per
# round, in at most MAX_ROUNDS rounds, until every relative level is within
# TOLERANCE_DB of its target; peaks are read within +/-envelope.PEAK_WINDOW_HZ
# of each formant on a CALIBRATION_POINTS grid from 0 Hz to Nyquist
INITIAL_BANDWIDTH = 100.0
SEARCH_RANGE_HZ = (30.0, 600.0)
TOLERANCE_DB = 0.5
BISECTION_STEPS = 36
MAX_ROUNDS = 50
CALIBRATION_POINTS = 2048


def source_tilt_response(zinv: np.ndarray, sample_rate: float) -> np.ndarray:
    """(1 - p)/(1 - p*z^-1), the source-tilt lowpass, at the points `zinv` = e^(-jw)."""
    pole = np.exp(-2 * np.pi * TILT_CORNER_HZ / sample_rate)
    return (1.0 - pole) / (1.0 - pole * zinv)


@functools.lru_cache(maxsize=8)
def _rfft_grid(sample_rate: float, size: int):
    """(e^(-jw), source-tilt response) at the size // 2 + 1 frequencies of a `size`-point
    rfft; cached read-only per (sample_rate, size)."""
    zinv = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
    tilt = source_tilt_response(zinv, sample_rate)
    zinv.setflags(write=False)
    tilt.setflags(write=False)
    return zinv, tilt


def _period(f0, sample_rate: float, n_samples: int) -> int:
    """Samples between the pulses of an F0 train; an F0 of 0 gives n_samples, one pulse."""
    f0 = float(f0)
    if not (np.isfinite(f0) and f0 >= 0):
        raise ValueError(f"f0 must be finite and not negative, got {f0}")
    if f0 and n_samples * f0 < sample_rate:
        raise ValueError("duration too short for one period")
    period = round(sample_rate / f0) if f0 else n_samples
    if period < 1:
        raise ValueError(f"f0 {f0} Hz too high for sample rate {sample_rate}")
    return period


def _impulse_responses(frequencies: np.ndarray, bandwidths: np.ndarray, sample_rate: float,
                       lengths, tilted: bool):
    """Yield (r, h): h the first lengths[r] samples of the impulse response of cascade r.

    `frequencies` and `bandwidths` are (k, m): m sections a row, in cascade
    order. Row r's frequency response, the product of its sections' gains
    over the product of their denominators (times the source tilt), is taken
    on a power-of-two grid L at or above both lengths[r] and
    TAIL_TIME_CONSTANTS time constants of its slowest pole. Rows of one L
    whose taps are equal share one response, computed once; the distinct
    cascades of one L share one product of denominators and one irfft, in
    chunks whose workspace stays within WORKSPACE_BYTES, and a chunk's rows
    are yielded before the next chunk is computed. With no section and no
    tilt a response is the unit impulse.
    """
    if not frequencies.shape[1] and not tilted:
        yield from enumerate(np.eye(1, n)[0] for n in lengths)
        return
    # the tilt pole exp(-2*pi*TILT_CORNER_HZ/fs) decays as a resonator of twice that bandwidth
    narrowest = np.min(bandwidths, axis=1, initial=2.0 * TILT_CORNER_HZ if tilted else np.inf)
    tails = np.ceil(TAIL_TIME_CONSTANTS * sample_rate / (np.pi * narrowest))
    too_long = np.flatnonzero(tails > MAX_TAIL_SAMPLES)
    if too_long.size:
        r = too_long[0]
        raise ValueError(
            f"bandwidth {narrowest[r]} Hz at {sample_rate} Hz needs a {tails[r]:.0f}-sample "
            f"tail, more than {MAX_TAIL_SAMPLES}"
        )
    sizes = [1 << (int(max(n, t)) - 1).bit_length() for n, t in zip(lengths, tails)]
    a1, a2 = resonator_taps(frequencies, bandwidths, sample_rate)
    for size in sorted(set(sizes)):
        zinv, tilt = _rfft_grid(sample_rate, size)
        cascades = {}  # the taps of a distinct cascade -> its rows
        for r, row_size in enumerate(sizes):
            if row_size == size:
                cascades.setdefault(a1[r].tobytes() + a2[r].tobytes(), []).append(r)
        groups = list(cascades.values())
        height = max(1, WORKSPACE_BYTES // (3 * 16 * len(zinv)))
        for first in range(0, len(groups), height):
            chunk = groups[first : first + height]
            distinct = [rows[0] for rows in chunk]
            h = _grid_responses(a1[distinct], a2[distinct], zinv, tilt if tilted else None, size)
            for rows, response in zip(chunk, h):
                for r in rows:
                    yield r, response[:lengths[r]]


def _grid_responses(a1, a2, zinv, tilt, size: int) -> np.ndarray:
    """(rows, size) impulse responses of the cascades whose taps are the rows of (rows, m)
    `a1` and `a2`, from the irfft of their frequency responses at `zinv`, times `tilt`
    unless it is None."""
    # the product of the denominators, from 1, and a section's two scratch arrays are one
    # allocation: for a stack of tokens each is hundreds of KB, and three arrays that size
    # go back to the OS when freed and are faulted in again by the next call
    response, section, work = np.empty((3, len(a1), len(zinv)), dtype=np.complex128)
    response[...] = 1.0
    gain = np.ones(len(a1))
    for s in range(a1.shape[1]):
        gain *= 1.0 + a1[:, s] + a2[:, s]
        response *= resonator_denominator(a1[:, s, None], a2[:, s, None], zinv, section, work)
    np.divide(gain[:, None], response, out=response)
    if tilt is not None:
        response *= tilt
    return np.fft.irfft(response, size, axis=1)


def _fold(h: np.ndarray, period: int) -> np.ndarray:
    """h summed with itself shifted by period, 2*period, ...: its response to a pulse train.

    h is padded to whole periods, reshaped to one period a row, and summed
    down the rows; a period of len(h) or more gives h itself.
    """
    n_samples = len(h)
    folded = np.zeros(-(-n_samples // period) * period)
    folded[:n_samples] = h
    return folded.reshape(-1, period).cumsum(axis=0).ravel()[:n_samples]


def synthesize_cascades(frequencies, bandwidths, f0s, sample_rate: float, n_samples,
                        tilted: bool = False) -> list:
    """Run pulse train r through cascade r for n_samples[r] samples: a list of k rows.

    `frequencies` and `bandwidths` are (k, m) in Hz, row r the m resonators
    of cascade r in cascade order, each g / (1 + a1*z^-1 + a2*z^-2) with the
    taps of `sigproc.resonator_taps` and unity gain at 0 Hz; `tilted` adds
    the source-tilt lowpass. Row r has a unit pulse every
    round(sample_rate / f0s[r]) samples from sample 0, and an F0 of 0 leaves
    the one at sample 0: cascade r's impulse response h. Row r is h (see
    `_impulse_responses`) summed with itself shifted by whole periods, and
    equals what its cascade, F0 and length give alone; one vowel at several
    F0s is its cascade repeated once per F0, and its rows share one h.

    Raises ValueError for arrays whose shapes do not agree, a length that is
    not positive, a negative or non-finite F0, a train shorter than its
    period, a frequency or bandwidth that is not positive and finite, a
    formant at or above Nyquist, and a bandwidth whose tail would take more
    than MAX_TAIL_SAMPLES samples.
    """
    frequencies = np.asarray(frequencies, dtype=np.float64)
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    lengths = [operator.index(n) for n in n_samples]
    if (frequencies.ndim != 2 or bandwidths.shape != frequencies.shape
            or not len(f0s) == len(lengths) == len(frequencies)):
        raise ValueError("frequencies and bandwidths must be (k, m), with k F0s and k lengths")
    if min(lengths, default=1) <= 0:
        raise ValueError("n_samples must be positive")
    periods = [_period(f0, sample_rate, n) for f0, n in zip(f0s, lengths)]
    check_formants(frequencies, bandwidths, sample_rate)
    rows = [None] * len(lengths)
    for r, h in _impulse_responses(frequencies, bandwidths, sample_rate, lengths, tilted):
        rows[r] = _fold(h, periods[r])
    return rows


class BandwidthCalibration(NamedTuple):
    """Row-wise results of `calibrate_bandwidth_rows`."""

    bandwidths: np.ndarray  # (n, 3) B1..B3 in Hz; the last values tried where not converged
    rounds: np.ndarray  # (n,) calibration rounds run
    residuals_db: np.ndarray  # (n, 3) measured minus target relative level; inf if never measured
    converged: np.ndarray  # (n,) every residual within the tolerance


def calibrate_bandwidth_rows(formant_freqs, target_levels, sample_rate: float,
                             extra_formants=None) -> BandwidthCalibration:
    """Find, row by row, bandwidths whose relative peak levels match the targets.

    Row r calibrates the three formants `formant_freqs[r]` against the three
    `target_levels[r]`, above the fixed `extra_formants[r]`: an (n, k, 2)
    array of (frequency, bandwidth) pairs, k per row (default: none).
    The targets count relative to L1, which leaves B1 unconstrained: B1
    stays at INITIAL_BANDWIDTH, while B2 and B3 are bisected over
    SEARCH_RANGE_HZ against the analytic cascade spectrum plus the source
    tilt (that of `synthesize_cascades(..., tilted=True)`), for up to
    MAX_ROUNDS rounds, until the relative levels land within TOLERANCE_DB.
    All rows bisect in lockstep, and a row leaves the stack after the round
    in which it converges. Only the formant being bisected is re-evaluated,
    and only on the bins `envelope.window_bins` gives, which
    `envelope.gathered_peaks` searches.
    A row's resonator terms are summed in the order given, F1..F3 and then
    its extra formants, and the tilt last. Raises ValueError for a malformed
    `extra_formants`, for a frequency or bandwidth the synthesis refuses, and
    for a row whose frequencies in that order do not ascend.
    """
    freqs3 = np.asarray(formant_freqs, dtype=np.float64)
    levels = np.asarray(target_levels, dtype=np.float64)
    if freqs3.ndim != 2 or freqs3.shape[1] != 3:
        raise ValueError("three formant frequencies are required")
    n = len(freqs3)
    if levels.shape != (n, 3):
        raise ValueError("three target levels are required for every row")
    targets = levels - levels[:, :1]
    try:
        extras = np.asarray(np.empty((n, 0, 2)) if extra_formants is None else extra_formants,
                            dtype=np.float64)
    except (TypeError, ValueError):
        extras = None
    if extras is None or extras.ndim != 3 or len(extras) != n or extras.shape[2] != 2:
        raise ValueError(f"extra_formants must be an (n, k, 2) array of (frequency, "
                         f"bandwidth) pairs, n = {n} rows")
    bws = np.full((n, 3), INITIAL_BANDWIDTH)
    cascade_f = np.hstack([freqs3, extras[..., 0]])
    cascade_b = np.hstack([bws, extras[..., 1]])
    check_formants(cascade_f, cascade_b, sample_rate)
    descending = np.flatnonzero((np.diff(cascade_f, axis=1) < 0).any(axis=1))
    if descending.size:
        r = descending[0]
        raise ValueError(f"row {r}: formants must ascend, got {cascade_f[r].tolist()} Hz")

    grid, zinv = cascade_grid(sample_rate, CALIBRATION_POINTS)
    bins, inside = window_bins(*peak_windows(grid, freqs3, PEAK_WINDOW_HZ), CALIBRATION_POINTS)
    zinv = zinv[bins]
    terms = [resonator_db(cascade_f[:, s, None], cascade_b[:, s, None], zinv, sample_rate)
             for s in range(cascade_f.shape[1])]
    terms.append(20.0 * np.log10(np.abs(source_tilt_response(zinv, sample_rate))))

    rounds = np.zeros(n, dtype=int)
    residuals = np.full((n, 3), np.inf)
    converged = np.zeros(n, dtype=bool)
    # the stack holds the rows still calibrating; `stack` maps them to input rows
    stack, tg = np.arange(n), targets

    def relative_levels():
        """Peak levels relative to L1, and a mask of rows with all three peaks."""
        _, _, lv, missing = gathered_peaks(cascade_levels(terms, zinv.shape), inside)
        return lv - lv[:, :1], ~missing.any(axis=1)

    def set_bandwidth(i, value):
        bws[stack, i] = value
        terms[i] = resonator_db(freqs3[stack, i, None], value[:, None], zinv, sample_rate)

    for round_no in range(1, MAX_ROUNDS + 1):
        if not stack.size:
            break
        for i in (1, 2):
            lo = np.full(len(stack), SEARCH_RANGE_HZ[0])
            hi = np.full(len(stack), SEARCH_RANGE_HZ[1])
            for _ in range(BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                set_bandwidth(i, mid)
                rel, found = relative_levels()
                # above target: widen; merged peak or at/below target: narrow
                widen = found & (rel[:, i] > tg[:, i])
                lo, hi = np.where(widen, mid, lo), np.where(widen, hi, mid)
            set_bandwidth(i, 0.5 * (lo + hi))
        rel, found = relative_levels()
        res = rel - tg
        residuals[stack[found]] = res[found]
        rounds[stack] = round_no
        done = found & np.all(np.abs(res) <= TOLERANCE_DB, axis=1)
        converged[stack[done]] = True
        keep = ~done
        stack, tg, inside, zinv = (a[keep] for a in (stack, tg, inside, zinv))
        terms = [t[keep] for t in terms]
    return BandwidthCalibration(bws, rounds, residuals, converged)
