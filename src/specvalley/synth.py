"""Cascaded formant synthesis and bandwidth-to-level calibration."""

import functools
from typing import NamedTuple

import numpy as np

from .envelope import PEAK_WINDOW_HZ, gathered_peaks, peak_windows, window_bins
from .sigproc import (cascade_grid, cascade_levels, resonator_db, resonator_denominator,
                      resonator_taps)
from .types import FormantSpec

# corner of the single-pole lowpass that gives a tilted train its -6 dB/octave
TILT_CORNER_HZ = 50.0

# the cascade's impulse response is taken from an FFT grid at least as long
# as the signal and as TAIL_TIME_CONSTANTS time constants of its slowest pole
# (a decay of e^-60), so the response that wraps around the grid falls far
# below rounding; a bandwidth whose tail exceeds MAX_TAIL_SAMPLES is refused
TAIL_TIME_CONSTANTS = 60
MAX_TAIL_SAMPLES = 1 << 20

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
def _rfft_zinv(size: int) -> np.ndarray:
    """e^(-jw) at the size // 2 + 1 frequencies of a `size`-point rfft; cached read-only."""
    zinv = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
    zinv.setflags(write=False)
    return zinv


def _impulse_response(formants, sample_rate: float, n_samples: int, tilted: bool) -> np.ndarray:
    """The first `n_samples` samples of the cascade's impulse response, from one irfft."""
    # the tilt pole exp(-2*pi*TILT_CORNER_HZ/fs) decays as a resonator of twice that bandwidth
    bandwidths = [f.bandwidth for f in formants] + ([2.0 * TILT_CORNER_HZ] if tilted else [])
    if not bandwidths:
        return np.eye(1, n_samples)[0]
    narrowest = min(bandwidths)
    tail = int(np.ceil(TAIL_TIME_CONSTANTS * sample_rate / (np.pi * narrowest)))
    if tail > MAX_TAIL_SAMPLES:
        raise ValueError(
            f"bandwidth {narrowest} Hz at {sample_rate} Hz needs a {tail}-sample tail, "
            f"more than {MAX_TAIL_SAMPLES}"
        )
    size = 1 << (max(n_samples, tail) - 1).bit_length()
    zinv = _rfft_zinv(size)
    gain, denominator = 1.0, 1.0
    for f in formants:
        a1, a2 = resonator_taps(f.frequency, f.bandwidth, sample_rate)
        gain *= 1.0 + a1 + a2
        denominator = denominator * resonator_denominator(a1, a2, zinv)
    response = gain / denominator
    if tilted:
        response *= source_tilt_response(zinv, sample_rate)
    return np.fft.irfft(response, size)[:n_samples]


def synthesize_rows(formants, f0s, sample_rate: float, n_samples: int,
                    tilted: bool = False) -> np.ndarray:
    """Run a pulse train per F0 serially through one resonator per formant: (k, n_samples).

    Row r has a unit pulse every round(sample_rate / f0s[r]) samples from
    sample 0, and an F0 of 0 leaves the single pulse at sample 0. Every
    resonator has unity gain at 0 Hz, g / (1 + a1*z^-1 + a2*z^-2) with the
    taps of `sigproc.resonator_taps`, and `tilted` adds the source-tilt
    lowpass. The cascade is linear and time-invariant, so its impulse
    response h is computed once: its frequency response, the product of the
    sections' gains over the product of their denominators, goes through one
    irfft on a power-of-two grid L at or above both `n_samples` and
    TAIL_TIME_CONSTANTS time constants of the slowest pole. A train of period
    P is then h summed with itself shifted by P, 2P, ...: h padded to whole
    periods, reshaped to one period a row, and summed down the rows. A row
    does not depend on the rows stacked with it. With no formant and no tilt
    h is the unit impulse, and the pulses come back unfiltered.

    Raises ValueError for a negative or non-finite F0, a train shorter than
    its period (n_samples * f0 < sample_rate), a formant at or above Nyquist,
    and a bandwidth whose tail would take more than MAX_TAIL_SAMPLES samples.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    periods = []
    for f0 in map(float, f0s):
        if not (np.isfinite(f0) and f0 >= 0):
            raise ValueError(f"f0 must be finite and not negative, got {f0}")
        if f0 and n_samples * f0 < sample_rate:
            raise ValueError("duration too short for one period")
        period = round(sample_rate / f0) if f0 else n_samples
        if period < 1:
            raise ValueError(f"f0 {f0} Hz too high for sample rate {sample_rate}")
        periods.append(period)
    for f in formants:
        if f.frequency >= sample_rate / 2.0:
            raise ValueError(f"resonator frequency {f.frequency} Hz must be below Nyquist")
    h = _impulse_response(formants, sample_rate, n_samples, tilted)
    rows = np.empty((len(periods), n_samples))
    for row, period in zip(rows, periods):
        folded = np.zeros(-(-n_samples // period) * period)
        folded[:n_samples] = h
        row[:] = folded.reshape(-1, period).cumsum(axis=0).ravel()[:n_samples]
    return rows


class BandwidthCalibration(NamedTuple):
    """Row-wise results of `calibrate_bandwidth_rows`."""

    bandwidths: np.ndarray  # (n, 3) B1..B3 in Hz; the last values tried where not converged
    rounds: np.ndarray  # (n,) calibration rounds run
    residuals_db: np.ndarray  # (n, 3) measured minus target relative level; inf if never measured
    converged: np.ndarray  # (n,) every residual within the tolerance


def calibrate_bandwidth_rows(
    formant_freqs,
    target_levels,
    sample_rate: float,
    extra_formants=None,
) -> BandwidthCalibration:
    """Find, row by row, bandwidths whose relative peak levels match the targets.

    Row r calibrates the three formants `formant_freqs[r]` against the three
    `target_levels[r]`, above the fixed `extra_formants[r]` (default: none).
    The targets count relative to L1, which leaves B1 unconstrained: B1
    stays at INITIAL_BANDWIDTH, while B2 and B3 are bisected over
    SEARCH_RANGE_HZ against the analytic cascade spectrum plus the source
    tilt (the tilted source of `synthesize_rows`), for up to MAX_ROUNDS
    rounds, until the relative levels land within TOLERANCE_DB. All rows
    bisect in lockstep, and a row leaves the stack after the round in which
    it converges. Only the formant being bisected is re-evaluated, and only
    on the bins `envelope.window_bins` gives, which `envelope.gathered_peaks`
    searches.
    A row's resonator terms are summed in the order given, F1..F3 and then
    its extra formants, and the tilt last; raises ValueError for a row whose
    frequencies in that order do not ascend.
    """
    freqs3 = np.asarray(formant_freqs, dtype=np.float64)
    levels = np.asarray(target_levels, dtype=np.float64)
    if freqs3.ndim != 2 or freqs3.shape[1] != 3:
        raise ValueError("three formant frequencies are required")
    n = len(freqs3)
    if levels.shape != (n, 3):
        raise ValueError("three target levels are required for every row")
    targets = levels - levels[:, :1]
    extras = [list(e) for e in (extra_formants if extra_formants is not None else [()] * n)]
    if len(extras) != n or len({len(e) for e in extras}) > 1:
        raise ValueError("extra_formants needs one sequence per row, all of one length")
    for f in freqs3.flat:  # the checks a FormantSpec makes
        FormantSpec(float(f), INITIAL_BANDWIDTH)
    bws = np.full((n, 3), INITIAL_BANDWIDTH)
    cascade_f = np.hstack([freqs3, [[e.frequency for e in row] for row in extras]])
    cascade_b = np.hstack([bws, [[e.bandwidth for e in row] for row in extras]])
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
