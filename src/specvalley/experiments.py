"""Sweep drivers: OCD measurement, level and F0 influence, per-vowel tables."""

from dataclasses import dataclass, field

import numpy as np

from .envelope import PEAK_WINDOW_HZ, peak_levels, peak_windows, valley_minima, window_peaks
from .errors import (
    DegenerateInputError,
    NoCrossingError,
    PeakNotFoundError,
    SingularEnvelopeError,
    UnstableModelError,
    ValleyUndefinedError,
)
from .scales import hz_to_bark
from .sigproc import (
    autocorrelation,
    cascade_grid,
    cascade_levels,
    levinson_failure,
    levinson_rows,
    lpc_levels,
    resonator_db,
)
from .types import FormantSpec, power_mean_db

# Critical-distance band reported by perceptual matching studies, in bark.
# Used only as a read-only comparison band for measured OCD values.
PERCEPTUAL_CRITICAL_DISTANCE_BARK = (3.1, 4.3)

FRONT_VOWELS = ("iy", "ih", "eh", "ae")
BACK_VOWELS = ("aa", "ao", "uh", "uw", "ah")

# neutral-tract reference: equally spaced resonances of a uniform tube
UNIFORM_TUBE_FORMANTS_HZ = (500.0, 1500.0, 2500.0, 3500.0)

# frequencies from 0 Hz to Nyquist on which the studies evaluate envelopes
GRID_POINTS = 4096

# the most steps a sweep takes after its start
MAX_SWEEP_STEPS = 100000

# the F0 study drops the first F0_SETTLE_S of each pulse-train response and
# analyses the F0_ANALYSIS_S after it
F0_SETTLE_S = 0.1
F0_ANALYSIS_S = 0.4


@dataclass
class SweepConfig:
    """Configuration for a formant-spacing sweep on the analytic spectrum.

    `pair` indexes the two adjacent formants whose spacing is swept. By
    default both move (the lower up, the upper down); clearing `move_upper`
    pins the upper formant, which is how the two-formant experiment runs.
    `mean_band_hz` optionally restricts the mean-level band (the valley and
    peaks always live inside it); None means the full grid to Nyquist.
    """

    formants: list
    sample_rate: float
    pair: tuple = (0, 1)
    step_hz: float = 25.0
    move_upper: bool = True
    n_points: int = GRID_POINTS
    mean_band_hz: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.step_hz) and self.step_hz > 0):
            raise ValueError("step_hz must be positive")
        i, j = self.pair
        if j != i + 1:
            raise ValueError("swept pair must be adjacent formants")


@dataclass
class OcdResult:
    """Measured objective critical distance with its sweep trace."""

    ocd_bark: float
    sweep: list = field(default_factory=list)  # (spacing_bark, v_db) pairs
    crossing_interpolated: bool = True
    basis: str = "V12"
    widened: bool = False  # True when the pair had to move apart to find v=0
    pair_trace: list = field(default_factory=list)  # (f_low, f_high) per step


def _banded_mean_db(freqs, levels, band_hz):
    """Mean level of the grid up to `band_hz`, or of the whole grid when it is None."""
    if band_hz is None:
        return power_mean_db(levels)
    sel = freqs <= band_hz
    if not np.any(sel):
        raise ValueError("mean band excludes the whole grid")
    return power_mean_db(levels[sel])


def _peak_pair_rlsv(freqs, levels, f_lo, f_hi):
    """(L_lo, L_hi, valley level) in dB of the two peaks located near f_lo < f_hi.

    One `peak_levels` call finds the highest peak within +/-PEAK_WINDOW_HZ of
    each nominal frequency, and one `valley_minima` call the lowest level
    strictly between the two peaks. When both windows find the same maximum,
    the window whose nominal frequency is nearer keeps it, and the other takes
    its highest local maximum on its own side, at least two bins away (peak
    picking on LP spectra, McCandless 1974). Raises PeakNotFoundError when a
    window holds no peak, or the other window none on its side, and
    ValleyUndefinedError when fewer than two grid bins lie between the peaks.
    """
    if f_lo >= f_hi:
        raise ValueError(f"nominal frequencies must be ordered lower < upper, "
                         f"got {f_lo} and {f_hi}")
    stack, nominal = levels[None, :], np.array([[f_lo, f_hi]])
    peak, level, missing = peak_levels(freqs, stack, nominal)
    for f, gone in zip((f_lo, f_hi), missing[0]):
        if gone:
            raise PeakNotFoundError(f"no spectral peak within {PEAK_WINDOW_HZ} Hz of {f} Hz")
    if peak[0, 0] >= peak[0, 1]:
        shared = float(peak[0, 0])
        lo, hi = peak_windows(freqs, nominal, PEAK_WINDOW_HZ)
        k = int(window_peaks(freqs, stack, lo, hi)[0][0, 0])
        if shared - f_lo <= f_hi - shared:
            lo[0, 1] = min(k + 2, hi[0, 1])
        else:
            hi[0, 0] = max(k - 1, lo[0, 0])
        _, peak, level, missing = window_peaks(freqs, stack, lo, hi)
        if missing.any():
            raise PeakNotFoundError(f"no separate spectral peaks within {PEAK_WINDOW_HZ} Hz of "
                                    f"{f_lo} Hz and {f_hi} Hz: both windows find the peak at "
                                    f"{shared:.1f} Hz")
    p_lo, p_hi = peak[:, 0], peak[:, 1]
    _, valley, too_narrow = valley_minima(freqs, stack, p_lo, p_hi)
    if too_narrow[0]:
        raise ValleyUndefinedError(f"fewer than two grid bins between {p_lo[0]:.1f} and "
                                   f"{p_hi[0]:.1f} Hz")
    return float(level[0, 0]), float(level[0, 1]), float(valley[0])


class PairMeter:
    """Levels and RLSV of one formant pair of a fixed analytic cascade as the pair moves.

    Built once per sweep or grid: the grid, e^-jw and the dB term of each
    formant outside `pair` are made here. Each `measure` computes only the two
    pair terms and sums all terms from zeros in formant order, as
    `analytic_cascade_spectrum` does, so each level is the same float. The
    RLSV is the mean level (up to `mean_band_hz`, or the whole grid when it is
    None) minus the valley level.
    """

    def __init__(self, formants, pair, sample_rate, n_points: int = GRID_POINTS,
                 mean_band_hz=None):
        self.freqs, self._zinv = cascade_grid(sample_rate, n_points)
        self._rate, self._pair, self._band = sample_rate, pair, mean_band_hz
        self._terms = [None if k in pair else
                       resonator_db(f.frequency, f.bandwidth, self._zinv, sample_rate)
                       for k, f in enumerate(formants)]

    def measure(self, lo, hi):
        """(L_lo, L_hi, RLSV) in dB with the pair at `lo` and `hi`, each (frequency, bandwidth).

        Each member is checked as a `FormantSpec` is. Raises PeakNotFoundError
        or ValleyUndefinedError (see `_peak_pair_rlsv`) when the pair cannot be
        measured.
        """
        for k, member in zip(self._pair, (lo, hi)):
            f = FormantSpec(*member)
            self._terms[k] = resonator_db(f.frequency, f.bandwidth, self._zinv, self._rate)
        levels = cascade_levels(self._terms, len(self.freqs))
        l_lo, l_hi, valley = _peak_pair_rlsv(self.freqs, levels, lo[0], hi[0])
        return l_lo, l_hi, _banded_mean_db(self.freqs, levels, self._band) - valley


def _step_is_legal(formants, pair, f_lo, f_hi, sample_rate, step):
    i, j = pair
    if f_lo + step >= f_hi - step:
        return False
    if f_lo <= 0 or f_hi >= sample_rate / 2.0:
        return False
    if i > 0 and f_lo <= formants[i - 1].frequency:
        return False
    if j < len(formants) - 1 and f_hi >= formants[j + 1].frequency:
        return False
    return True


def _sweep_to_crossing(cfg: SweepConfig, allow_widening: bool, label: str) -> OcdResult:
    """Step the pair until the RLSV reaches or crosses zero.

    The sign of the start's RLSV sets the direction: positive narrows, negative
    widens (only with `allow_widening`). A start that cannot be measured raises
    as it is; a later step that cannot be, or leaves the geometry, ends in
    NoCrossingError.
    """
    lower, upper = (cfg.formants[k] for k in cfg.pair)
    f_lo, f_hi = lower.frequency, upper.frequency
    meter = PairMeter(cfg.formants, cfg.pair, cfg.sample_rate, cfg.n_points, cfg.mean_band_hz)
    pairs, rlsv = [], []

    def measure(lo, hi):
        v = meter.measure((lo, lower.bandwidth), (hi, upper.bandwidth))[2]
        pairs.append((lo, hi))
        rlsv.append(v)
        return v

    def trace():
        """(spacing in bark, RLSV) per measured step, the barks in one call."""
        bark = hz_to_bark(np.array(pairs))
        return list(zip((bark[:, 1] - bark[:, 0]).tolist(), rlsv))

    v0 = v = measure(f_lo, f_hi)
    if v0 < 0 and not allow_widening:
        raise ValueError(
            f"initial RLSV must be positive for an inward sweep, got {v0:.3f} dB"
        )
    step = cfg.step_hz if v0 > 0 else -cfg.step_hz
    while v != 0.0 and (v > 0) == (v0 > 0):
        if len(pairs) > MAX_SWEEP_STEPS:  # the start and MAX_SWEEP_STEPS steps
            raise NoCrossingError("sweep exceeded the step budget", trace=trace())
        f_lo += step
        if cfg.move_upper:
            f_hi -= step
        if not _step_is_legal(cfg.formants, cfg.pair, f_lo, f_hi, cfg.sample_rate, cfg.step_hz):
            raise NoCrossingError(
                "sweep hit a geometry limit before the RLSV changed sign", trace=trace()
            )
        try:
            v = measure(f_lo, f_hi)
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            raise NoCrossingError(
                f"valley became unmeasurable before crossing: {exc}", trace=trace()
            ) from exc
    sweep = trace()
    if v == 0.0:
        return OcdResult(sweep[-1][0], sweep, crossing_interpolated=False,
                         basis=label, widened=v0 < 0, pair_trace=pairs)
    (s_prev, v_prev), (s_cur, v_cur) = sweep[-2], sweep[-1]
    ocd = s_prev + (0.0 - v_prev) * (s_cur - s_prev) / (v_cur - v_prev)
    return OcdResult(float(ocd), sweep, crossing_interpolated=True,
                     basis=label, widened=v0 < 0, pair_trace=pairs)


def ocd_sweep(cfg: SweepConfig, label: str = "V12") -> OcdResult:
    """Narrow the swept pair until the valley meets the mean level.

    Starts from a configuration with RLSV > 0 (valley below the mean), steps
    the pair inward, and linearly interpolates the bark spacing at which the
    RLSV crosses zero; a start exactly at the crossing is its own OCD. Raises
    ValueError when the start is below the crossing and NoCrossingError
    (with the trace) when the sweep runs out of room.
    """
    return _sweep_to_crossing(cfg, allow_widening=False, label=label)


@dataclass
class LevelCell:
    """One (B1, B2) grid point of the formant-level experiment."""

    b1: float
    b2: float
    l1_db: float | None
    l2_db: float | None
    v_db: float | None
    error: str | None = None

    @property
    def level_diff_db(self):
        if self.l1_db is None or self.l2_db is None:
            return None
        return self.l1_db - self.l2_db


def level_influence_experiment(
    case_formants,
    b1_values=(70.0, 100.0, 140.0),
    b2_values=(50.0, 80.0, 120.0, 180.0),
    sample_rate: float = 8000.0,
):
    """Sweep (B1, B2) and record peak levels L1, L2 and the F1-F2 RLSV.

    `case_formants` fixes the four formant frequencies (bandwidths of the
    upper two are kept as given). Cells whose peaks merge are flagged via
    `error`, never dropped.
    """
    meter = PairMeter(case_formants, (0, 1), sample_rate)
    f1, f2 = case_formants[0].frequency, case_formants[1].frequency
    cells = []
    for b1 in b1_values:
        for b2 in b2_values:
            try:
                cells.append(LevelCell(b1, b2, *meter.measure((f1, b1), (f2, b2))))
            except (PeakNotFoundError, ValleyUndefinedError) as exc:
                cells.append(LevelCell(b1, b2, None, None, None, error=str(exc)))
    return cells


@dataclass
class F0Row:
    """Reference vs LP-envelope RLSV at one fundamental frequency."""

    f0: float
    v_ref_db: float
    v_f0_db: float

    @property
    def diff_db(self) -> float:
        return self.v_ref_db - self.v_f0_db


def lp_envelope_of_signal(
    samples: np.ndarray,
    order: int,
    lag_window_half_length: int | None = None,
) -> tuple[np.ndarray, float]:
    """(levels, mean_db): the autocorrelation-method LP envelope in dB.

    The levels lie on `GRID_POINTS` frequencies from 0 Hz to the Nyquist
    frequency of `samples`; `mean_db` is their mean level, which
    `sigproc.lpc_levels` takes from the power. The optional lag window tapers
    the autocorrelation with the upper half of a Hamming window of half-length
    L lags before the Levinson solve, trading a little spectral resolution for
    envelope smoothness.
    """
    r = autocorrelation(samples, order)
    if lag_window_half_length:
        L = lag_window_half_length
        if L < order:
            raise ValueError("lag window half-length must cover the model order")
        r = r * np.hamming(2 * L + 1)[L : L + order + 1]
    if r[0] <= 0:
        raise DegenerateInputError(f"zero-lag autocorrelation must be positive, got {r[0]}")
    fit = levinson_rows(r[None, :], order)
    if fit.stage[0]:
        raise UnstableModelError(levinson_failure(fit, 0), stage=int(fit.stage[0]))
    env = lpc_levels(fit.a, np.sqrt(np.maximum(fit.error, 0.0)), GRID_POINTS)
    if env.singular[0]:
        raise SingularEnvelopeError("predictor has a root on the evaluation grid "
                                    "or a non-finite dB level")
    return env.levels[0], float(env.mean_db[0])


def f0_influence_experiment(
    case_formants,
    f0_values=(100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0),
    sample_rate: float = 8000.0,
    lp_order: int = 8,
    lag_window_half_length: int | None = 24,
):
    """Compare impulse-response RLSV against the LP envelope of a pulse train.

    For each F0 the cascade is driven by an impulse train, the steady portion
    is analyzed with an order-`lp_order` LP envelope (lag-windowed by
    default), and the F1-F2 RLSV of that envelope is subtracted from the
    analytic reference. With the lag window disabled the LP fit recovers the
    all-pole model exactly and the difference collapses toward zero as the
    harmonics densify.
    """
    from .synth import Excitation, synthesize  # scipy.signal: only this study synthesizes

    fm = sorted(case_formants, key=lambda f: f.frequency)
    f1, f2 = fm[0].frequency, fm[1].frequency
    reference = PairMeter(fm, (0, 1), sample_rate)
    v_ref = reference.measure((f1, fm[0].bandwidth), (f2, fm[1].bandwidth))[2]
    rows = []
    for f0 in f0_values:
        exc = Excitation("impulse-train", f0=f0, duration_s=F0_SETTLE_S + F0_ANALYSIS_S)
        sig = synthesize(fm, exc, sample_rate)
        seg = sig.samples[int(F0_SETTLE_S * sample_rate):]
        levels, mean_db = lp_envelope_of_signal(seg, lp_order, lag_window_half_length)
        v_f0 = mean_db - _peak_pair_rlsv(reference.freqs, levels, f1, f2)[2]
        rows.append(F0Row(f0, v_ref, v_f0))
    return rows


@dataclass
class VowelOcd:
    """Per-vowel OCD outcome; `error` is set when the sweep found no crossing,
    or, with `unmeasurable` set, when its start could not be measured."""

    vowel: str
    basis: str
    result: OcdResult | None
    error: str | None = None
    unmeasurable: bool = False


def pb_defaults(gender: str):
    """The (sample rate, F4) in Hz that `pb_ocd_table` takes for `gender` when not given."""
    return (8000.0, 3500.0) if gender == "male" else (10000.0, 4200.0)


def pb_ocd_table(
    mean_formants: dict,
    gender: str,
    sample_rate: float | None = None,
    f4: float | None = None,
    bandwidth_hz: float = 100.0,
    step_hz: float = 25.0,
):
    """Per-vowel OCD from mean formant data, equal bandwidths everywhere.

    `mean_formants` maps vowel label to (F1, F2, F3) in Hz. Back vowels sweep
    the (F1, F2) pair and report a V12-based OCD; front vowels sweep (F2, F3)
    for a V23-based OCD. Pairs starting below the crossing are widened
    instead of narrowed (symmetric steps either way). The uniform-tube
    reference rows sweep both pairs of `UNIFORM_TUBE_FORMANTS_HZ` (F4 at
    3500 Hz) at 8 kHz, whatever the gender. A sweep that ends without a
    crossing, or whose start cannot be measured, is its vowel's error row.
    """
    default_rate, default_f4 = pb_defaults(gender)
    sample_rate = default_rate if sample_rate is None else sample_rate
    f4 = default_f4 if f4 is None else f4
    sweeps = []
    for vowel, (f1, f2, f3) in mean_formants.items():
        pair, label = ((1, 2), "V23") if vowel in FRONT_VOWELS else ((0, 1), "V12")
        sweeps.append((vowel, (f1, f2, f3, f4), sample_rate, pair, label))
    for pair, label in (((0, 1), "V12"), ((1, 2), "V23")):
        sweeps.append(("tube", UNIFORM_TUBE_FORMANTS_HZ, 8000.0, pair, label))
    rows = []
    for vowel, freqs, rate, pair, label in sweeps:
        fm = [FormantSpec(f, bandwidth_hz) for f in freqs]
        cfg = SweepConfig(fm, rate, pair=pair, step_hz=step_hz)
        try:
            res = _sweep_to_crossing(cfg, allow_widening=True, label=label)
            rows.append(VowelOcd(vowel, label, res))
        except NoCrossingError as exc:
            rows.append(VowelOcd(vowel, label, None, error=str(exc)))
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            rows.append(VowelOcd(vowel, label, None, error=str(exc), unmeasurable=True))
    return rows
