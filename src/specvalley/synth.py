"""Cascaded formant synthesis and bandwidth-to-level calibration."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter  # at import, so the first synthesis pays no import

from .envelope import locate_peak, peak_levels, peak_windows
from .errors import CalibrationError, PeakNotFoundError
from .sigproc import resonator_db, resonator_taps
from .types import FormantSpec, SignalBuffer, SpectralEnvelope

EXCITATION_KINDS = ("unit-impulse", "impulse-train", "tilted-train")

# default corner of the single-pole source-tilt lowpass
TILT_CORNER_HZ = 50.0

# bandwidth calibration: B1..B3 start at INITIAL_BANDWIDTH Hz (B1 stays
# there), halvings of the search range per bandwidth and round, and peaks read
# within +/-PEAK_WINDOW_HZ of each formant on a CALIBRATION_POINTS grid from
# 0 Hz to Nyquist
INITIAL_BANDWIDTH = 100.0
BISECTION_STEPS = 36
PEAK_WINDOW_HZ = 200.0
CALIBRATION_POINTS = 2048


@dataclass
class Excitation:
    """Synthesizer source: a single impulse or a (possibly tilted) pulse train."""

    kind: str = "unit-impulse"
    f0: float = 0.0
    tilt_db_per_octave: float = 0.0
    duration_s: float = 0.5

    def __post_init__(self):
        if self.kind not in EXCITATION_KINDS:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        if self.kind != "unit-impulse" and self.f0 <= 0:
            raise ValueError("pulse trains need a positive f0")
        if self.kind != "unit-impulse" and self.duration_s < 1.0 / self.f0:
            raise ValueError("duration too short for one period")


def resonator_coefficients(f: FormantSpec, sample_rate: float):
    """Second-order recursive resonator as (b, a) filter taps.

    Poles at radius exp(-pi*B/fs) and angles +/-2*pi*F/fs; the numerator is
    scaled for unity gain at 0 Hz, keeping cascades well inside float range.
    """
    if f.frequency >= sample_rate / 2.0:
        raise ValueError(
            f"resonator frequency {f.frequency} Hz must be below Nyquist"
        )
    a1, a2 = resonator_taps(f.frequency, f.bandwidth, sample_rate)
    return np.array([1.0 + a1 + a2]), np.array([1.0, a1, a2])


def _excitation_signal(exc: Excitation, sample_rate: float, n_samples: int) -> np.ndarray:
    x = np.zeros(n_samples)
    if exc.kind == "unit-impulse":
        x[0] = 1.0
        return x
    period = int(round(sample_rate / exc.f0))
    if period < 1:
        raise ValueError(f"f0 {exc.f0} Hz too high for sample rate {sample_rate}")
    x[::period] = 1.0
    if exc.kind == "tilted-train" and exc.tilt_db_per_octave != 0.0:
        x = _tilt_filter(x, sample_rate, exc.tilt_db_per_octave)
    return x


def _tilt_stages(db_per_octave: float) -> int:
    if db_per_octave > 0:
        raise ValueError("spectral tilt must be <= 0 dB/octave")
    stages = int(round(-db_per_octave / 6.0))
    if abs(-db_per_octave - 6.0 * stages) > 1e-9:
        raise ValueError("tilt is realized in -6 dB/octave stages; use a multiple of 6")
    return stages


def _tilt_filter(x: np.ndarray, sample_rate: float, db_per_octave: float) -> np.ndarray:
    pole = np.exp(-2 * np.pi * TILT_CORNER_HZ / sample_rate)
    for _ in range(_tilt_stages(db_per_octave)):
        x = lfilter([1.0 - pole], [1.0, -pole], x)
    return x


def source_tilt_db(freqs: np.ndarray, sample_rate: float, db_per_octave: float) -> np.ndarray:
    """dB response of the source-tilt lowpass on the given frequency grid."""
    stages = _tilt_stages(db_per_octave)
    if stages == 0:
        return np.zeros(len(freqs))
    pole = np.exp(-2 * np.pi * TILT_CORNER_HZ / sample_rate)
    zinv = np.exp(-2j * np.pi * np.asarray(freqs) / sample_rate)
    mag = np.abs((1.0 - pole) / (1.0 - pole * zinv))
    return stages * 20.0 * np.log10(mag)


def apply_source_tilt(x: SignalBuffer, db_per_octave: float) -> SignalBuffer:
    """Impose a falling source spectrum of db_per_octave (a multiple of -6).

    Realized as one single-pole lowpass (corner ~50 Hz) per -6 dB/octave, so
    only the mid-band slope is shaped; 0 is the identity.
    """
    if db_per_octave == 0.0:
        return SignalBuffer(x.samples.copy(), x.sample_rate)
    y = _tilt_filter(x.samples, x.sample_rate, db_per_octave)
    return SignalBuffer(y, x.sample_rate)


def synthesize(
    formants, exc: Excitation, sample_rate: float, n_samples: int | None = None
) -> SignalBuffer:
    """Run the excitation serially through one resonator per formant."""
    if n_samples is None:
        n_samples = int(round(exc.duration_s * sample_rate))
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    x = _excitation_signal(exc, sample_rate, n_samples)
    for f in formants:
        b, a = resonator_coefficients(f, sample_rate)
        x = lfilter(b, a, x)
    return SignalBuffer(x, sample_rate)


def measure_formant_levels(env: SpectralEnvelope, formants, window_hz: float = 200.0) -> list:
    """Peak level nearest each formant frequency, within +/-window_hz."""
    levels = []
    for i, f in enumerate(formants):
        try:
            _, level = locate_peak(env, f.frequency, window_hz)
        except PeakNotFoundError as exc:
            raise PeakNotFoundError(
                f"formant {i + 1} at {f.frequency:.0f} Hz: {exc}", formant_index=i
            ) from exc
        levels.append(level)
    return levels


class BandwidthCalibration(NamedTuple):
    """Row-wise results of `calibrate_bandwidth_rows`."""

    bandwidths: np.ndarray  # (n, 3) B1..B3 in Hz; the last values tried where not converged
    rounds: np.ndarray  # (n,) calibration rounds run
    residuals_db: np.ndarray  # (n, 3) measured minus target relative level; inf if never measured
    converged: np.ndarray  # (n,) every residual within the tolerance


def _check_bandwidths(bandwidths):
    bad = ~(np.isfinite(bandwidths) & (bandwidths > 0))
    if bad.any():
        raise ValueError(f"formant bandwidth must be positive, got {bandwidths[bad][0]}")


def calibrate_bandwidth_rows(
    formant_freqs,
    target_levels,
    exc: Excitation,
    sample_rate: float,
    extra_formants=None,
    search_range=(30.0, 600.0),
    tolerance_db: float = 0.5,
    max_rounds: int = 50,
) -> BandwidthCalibration:
    """Calibrate a stack of formant sets, one row per set, in one bisection.

    Row r calibrates the first three of `formant_freqs[r]` against the
    first three of `target_levels[r]`, above the fixed `extra_formants[r]`
    (default: none); the method is that of `calibrate_bandwidths`. All rows
    bisect in lockstep, and a row leaves the stack after the round in which
    it converges. Only the formant being bisected is re-evaluated, and only
    on the grid bins that the peak searches read.
    """
    freqs3 = np.asarray(formant_freqs, dtype=np.float64)
    levels = np.asarray(target_levels, dtype=np.float64)
    if freqs3.ndim != 2 or freqs3.shape[1] < 3:
        raise ValueError("three formant frequencies are required")
    n = len(freqs3)
    if levels.ndim != 2 or len(levels) != n or levels.shape[1] < 3:
        raise ValueError("three target levels are required for every row")
    freqs3 = freqs3[:, :3]
    targets = levels[:, :3] - levels[:, :1]
    extras = [list(e) for e in (extra_formants if extra_formants is not None else [()] * n)]
    if len(extras) != n or len({len(e) for e in extras}) > 1:
        raise ValueError("extra_formants needs one sequence per row, all of one length")
    for f in freqs3.flat:  # the checks a FormantSpec makes
        FormantSpec(float(f), INITIAL_BANDWIDTH)
    bws = np.full((n, 3), INITIAL_BANDWIDTH)
    lo_b, hi_b = search_range

    # each row's resonator terms are summed in ascending formant frequency,
    # the order a sorted analytic cascade adds them in, so the levels match
    # that cascade bit for bit
    cascades = [[(f, b) for f, b in zip(freqs3[r], bws[r])]
                + [(e.frequency, e.bandwidth) for e in extras[r]] for r in range(n)]
    orders = [sorted(range(len(c)), key=lambda j: c[j][0]) for c in cascades]
    slots = np.array([[c[j] for j in order] for c, order in zip(cascades, orders)])
    slot_of = np.array([[order.index(i) for i in range(3)] for order in orders])

    grid = np.linspace(0.0, sample_rate / 2.0, CALIBRATION_POINTS)
    # per row, the bins its peak searches read: each window and one
    # neighbour on each side; short rows repeat their last bin
    win_lo, win_hi = peak_windows(grid, freqs3, PEAK_WINDOW_HZ)
    row_bins = [np.unique(np.concatenate([np.arange(a - 1, b + 1) for a, b in zip(lo, hi)]))
                for lo, hi in zip(win_lo, win_hi)]
    width = max(len(r) for r in row_bins)
    bins = np.array([np.pad(r, (0, width - len(r)), mode="edge") for r in row_bins])
    zinv = np.exp(-2j * np.pi * grid / sample_rate)[bins]
    tilt = None
    if exc.kind == "tilted-train" and exc.tilt_db_per_octave != 0.0:
        tilt = source_tilt_db(grid, sample_rate, exc.tilt_db_per_octave)[bins]
    terms = np.stack(
        [resonator_db(slots[:, s, 0], slots[:, s, 1], zinv, sample_rate)
         for s in range(slots.shape[1])],
        axis=1,
    )

    rounds = np.zeros(n, dtype=int)
    residuals = np.full((n, 3), np.inf)
    converged = np.zeros(n, dtype=bool)
    # the stack holds the rows still calibrating; `stack` maps them to input rows
    stack, bw, f3, tg, slot = np.arange(n), bws.copy(), freqs3, targets, slot_of

    def relative_levels():
        """Peak levels relative to L1, and a mask of rows with all three peaks."""
        summed = np.zeros(bins.shape)
        for s in range(terms.shape[1]):
            summed += terms[:, s]
        grid_levels[rows[:, None], bins] = summed if tilt is None else summed + tilt
        _, lv, missing = peak_levels(grid, grid_levels, f3, PEAK_WINDOW_HZ)
        return lv - lv[:, :1], ~missing.any(axis=1)

    def set_bandwidth(i, value):
        _check_bandwidths(value)
        bw[:, i] = value
        terms[rows, slot[:, i]] = resonator_db(f3[:, i], value, zinv, sample_rate)

    for round_no in range(1, max_rounds + 1):
        if not stack.size:
            break
        rows = np.arange(len(stack))
        grid_levels = np.full((len(stack), CALIBRATION_POINTS), np.nan)
        for i in (1, 2):
            lo = np.full(len(stack), float(lo_b))
            hi = np.full(len(stack), float(hi_b))
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
        bws[stack] = bw
        done = found & np.all(np.abs(res) <= tolerance_db, axis=1)
        converged[stack[done]] = True
        keep = ~done
        stack, bw, f3, tg, slot, terms, bins, zinv = (
            a[keep] for a in (stack, bw, f3, tg, slot, terms, bins, zinv)
        )
        if tilt is not None:
            tilt = tilt[keep]
    return BandwidthCalibration(bws, rounds, residuals, converged)


def calibrate_bandwidths(
    formant_freqs,
    target_levels,
    exc: Excitation,
    sample_rate: float,
    extra_formants=(),
    search_range=(30.0, 600.0),
    tolerance_db: float = 0.5,
    max_rounds: int = 50,
) -> np.ndarray:
    """Find bandwidths whose measured relative peak levels match the targets.

    Targets (any sequence of at least three levels) are interpreted relative
    to L1, which leaves B1 unconstrained; B1 anchors at INITIAL_BANDWIDTH while B2
    and B3 are bisected over `search_range` against the analytic cascade
    spectrum (plus the excitation's source tilt), iterating until the
    relative levels land within `tolerance_db`. The one-row case of
    `calibrate_bandwidth_rows`. Raises CalibrationError listing the best
    residuals when a target is unreachable.
    """
    freqs3 = [float(f) for f in formant_freqs[:3]]
    if len(freqs3) != 3:
        raise ValueError("three formant frequencies are required")
    fit = calibrate_bandwidth_rows(
        [freqs3], [[target_levels[i] for i in range(3)]], exc, sample_rate,
        [extra_formants], search_range, tolerance_db, max_rounds,
    )
    if not fit.converged[0]:
        raise CalibrationError(
            "bandwidth calibration did not reach the level targets",
            residuals_db=fit.residuals_db[0].tolist(),
        )
    return fit.bandwidths[0]
