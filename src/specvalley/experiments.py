"""Sweep drivers: OCD measurement, level and F0 influence, per-vowel tables."""

from dataclasses import dataclass, field

import numpy as np

from .envelope import PEAK_WINDOW_HZ, peak_windows, valley_minima, window_peaks
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
    check_formants,
    levinson_failure,
    levinson_rows,
    lpc_levels,
    resonator_db,
)

FRONT_VOWELS = ("iy", "ih", "eh", "ae")
BACK_VOWELS = ("aa", "ao", "uh", "uw", "ah")

# neutral-tract reference: equally spaced resonances of a uniform tube
UNIFORM_TUBE_FORMANTS_HZ = (500.0, 1500.0, 2500.0, 3500.0)

# frequencies from 0 Hz to Nyquist on which the studies evaluate envelopes
GRID_POINTS = 4096

# the most grid points a sweep command accepts: a four-formant PairMeter on
# this grid holds about 100 MB
MAX_GRID_POINTS = 1 << 20

# the most steps a sweep takes after its start
MAX_SWEEP_STEPS = 100000

# the F0 study drops the first F0_SETTLE_S of each pulse-train response and
# analyses the F0_ANALYSIS_S after it
F0_SETTLE_S = 0.1
F0_ANALYSIS_S = 0.4


@dataclass
class SweepConfig:
    """Configuration for a formant-spacing sweep on the analytic spectrum.

    `formants` is an (m, 2) array of (frequency, bandwidth) rows in Hz, and
    `pair` indexes the two adjacent formants whose spacing is swept. By
    default both move (the lower up, the upper down); clearing `move_upper`
    pins the upper formant, which is how the two-formant experiment runs.
    `mean_band_hz` optionally restricts the mean-level band (the valley and
    peaks always live inside it); None means the full grid to Nyquist.
    `allow_widening` lets a sweep that starts below the crossing move the pair
    apart instead of failing.
    """

    formants: np.ndarray
    sample_rate: float
    pair: tuple = (0, 1)
    step_hz: float = 25.0
    move_upper: bool = True
    n_points: int = GRID_POINTS
    mean_band_hz: float | None = None
    allow_widening: bool = False

    def __post_init__(self):
        self.formants = np.asarray(self.formants, dtype=np.float64)
        if not (np.isfinite(self.step_hz) and self.step_hz > 0):
            raise ValueError("step_hz must be positive")
        i, j = self.pair
        if j != i + 1:
            raise ValueError("swept pair must be adjacent formants")

    @property
    def basis(self) -> str:
        """The valley the sweep measures, as in "V12" for the pair (0, 1)."""
        i, j = self.pair
        return f"V{i + 1}{j + 1}"


@dataclass
class OcdResult:
    """Measured objective critical distance with its sweep trace.

    The OCD is interpolated unless the last RLSV of `sweep` is 0.0, and the
    pair moved apart where the first is negative.
    """

    ocd_bark: float
    sweep: list = field(default_factory=list)  # (spacing_bark, v_db) pairs
    pair_trace: list = field(default_factory=list)  # (f_low, f_high) per step


def power_mean_db(levels_db: np.ndarray):
    """Level of the average spectral power, in dB.

    The average is taken in the linear power domain. Averaging the dB values
    themselves would sit far below every peak for resonant spectra and could
    never equal a valley level, which is the crossing this analysis is built on.
    A 1-D input gives a float; an (n, m) stack gives one level per row.
    """
    levels_db = np.asarray(levels_db, dtype=np.float64)
    power = levels_db / 10.0
    np.power(10.0, power, out=power)
    mean_db = 10.0 * np.log10(power.mean(axis=-1))
    return float(mean_db) if levels_db.ndim == 1 else mean_db


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

    One `window_peaks` call finds the highest peak within +/-PEAK_WINDOW_HZ of
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
    stack = levels[None, :]
    lo, hi = peak_windows(freqs, np.array([[f_lo, f_hi]]), PEAK_WINDOW_HZ)
    k, peak, level, missing = window_peaks(freqs, stack, lo, hi)
    for f, gone in zip((f_lo, f_hi), missing[0]):
        if gone:
            raise PeakNotFoundError(f"no spectral peak within {PEAK_WINDOW_HZ} Hz of {f} Hz")
    if peak[0, 0] >= peak[0, 1]:
        shared, k = float(peak[0, 0]), int(k[0, 0])
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

    Built once per sweep or grid from `formants`, an (m, 2) array of
    (frequency, bandwidth) rows in cascade order, kept as `self.formants`:
    every row is checked (`sigproc.check_formants`), and the grid, e^-jw and
    the dB term of each formant outside `pair` are made here. Each `measure`
    computes only the two pair terms and sums all terms from zeros in formant
    order (`cascade_levels`), so each level is the float the whole cascade
    gives. The RLSV is the mean level (up to `mean_band_hz`, or the whole grid
    when it is None) minus the valley level.
    """

    def __init__(self, formants, pair, sample_rate, n_points: int = GRID_POINTS,
                 mean_band_hz=None):
        self.freqs, self._zinv = cascade_grid(sample_rate, n_points)
        formants = np.asarray(formants, dtype=np.float64)
        if formants.ndim != 2 or formants.shape[1] != 2:
            raise ValueError("formants must be an (m, 2) array of (frequency, bandwidth) rows")
        check_formants(formants[:, 0], formants[:, 1], sample_rate)
        self.formants = formants
        self._rate, self._pair, self._band = sample_rate, pair, mean_band_hz
        self._terms = [None if k in pair else resonator_db(f, b, self._zinv, sample_rate)
                       for k, (f, b) in enumerate(formants)]

    def measure(self, lo, hi):
        """(L_lo, L_hi, RLSV) in dB with the pair at `lo` and `hi`, each (frequency, bandwidth).

        Both members are checked as the formants of `__init__` are. Raises
        PeakNotFoundError or ValleyUndefinedError (see `_peak_pair_rlsv`) when
        the pair cannot be measured.
        """
        members = np.array((lo, hi), dtype=np.float64)
        check_formants(members[:, 0], members[:, 1], self._rate)
        for k, (f, b) in zip(self._pair, members):
            self._terms[k] = resonator_db(f, b, self._zinv, self._rate)
        levels = cascade_levels(self._terms, len(self.freqs))
        l_lo, l_hi, valley = _peak_pair_rlsv(self.freqs, levels, lo[0], hi[0])
        return l_lo, l_hi, _banded_mean_db(self.freqs, levels, self._band) - valley


def _step_is_legal(formants, pair, f_lo, f_hi, sample_rate, step):
    i, j = pair
    if f_lo + step >= f_hi - step:
        return False
    if f_lo <= 0 or f_hi >= sample_rate / 2.0:
        return False
    if i > 0 and f_lo <= formants[i - 1, 0]:
        return False
    if j < len(formants) - 1 and f_hi >= formants[j + 1, 0]:
        return False
    return True


def sweep_step_bound(cfg: SweepConfig) -> float:
    """An upper bound on the steps a sweep of `cfg` can take after its start.

    Each step must leave the pair legal (see `_step_is_legal`). Narrowing,
    the pair's gap shrinks by one step (two when the upper formant moves
    too) and stays above two steps. Widening, which only `cfg.allow_widening`
    allows, keeps the lower formant above its lower neighbour (or 0 Hz) and
    a moving upper one below its upper neighbour (or Nyquist). The bound
    exceeds the steps of the direction that allows more by at most one.
    """
    i, j = cfg.pair
    freqs = cfg.formants[:, 0].tolist()  # Python floats: a bound past 1e308 is inf, silently
    lo, hi = freqs[i], freqs[j]
    bound = ((hi - lo) / cfg.step_hz - 2.0) / (2 if cfg.move_upper else 1)
    if cfg.allow_widening:
        room = lo - (freqs[i - 1] if i > 0 else 0.0)
        if cfg.move_upper:
            ceiling = freqs[j + 1] if j + 1 < len(freqs) else cfg.sample_rate / 2.0
            room = min(room, ceiling - hi)
        bound = max(bound, room / cfg.step_hz)
    return bound


def ocd_sweep(cfg: SweepConfig) -> OcdResult:
    """Step the swept pair until its RLSV reaches zero: the valley meets the mean level.

    A positive start (valley below the mean) steps the pair inward; a negative
    one moves it apart if `cfg.allow_widening`, and raises ValueError if not.
    The OCD is the bark spacing of a step that lands on zero, the start
    included, or else interpolated linearly between the two steps around the
    crossing. A start that cannot be measured raises as it is; a later step
    that cannot be, leaves the geometry or exceeds MAX_SWEEP_STEPS ends in
    NoCrossingError with the trace.
    """
    (f_lo, b_lo), (f_hi, b_hi) = cfg.formants[list(cfg.pair)].tolist()
    meter = PairMeter(cfg.formants, cfg.pair, cfg.sample_rate, cfg.n_points, cfg.mean_band_hz)
    pairs, rlsv = [], []

    def measure(lo, hi):
        v = meter.measure((lo, b_lo), (hi, b_hi))[2]
        pairs.append((lo, hi))
        rlsv.append(v)
        return v

    def trace():
        """(spacing in bark, RLSV) per measured step, the barks in one call."""
        bark = hz_to_bark(np.array(pairs))
        return list(zip((bark[:, 1] - bark[:, 0]).tolist(), rlsv))

    v0 = v = measure(f_lo, f_hi)
    if v0 < 0 and not cfg.allow_widening:
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
        return OcdResult(sweep[-1][0], sweep, pair_trace=pairs)
    (s_prev, v_prev), (s_cur, v_cur) = sweep[-2], sweep[-1]
    ocd = s_prev + (0.0 - v_prev) * (s_cur - s_prev) / (v_cur - v_prev)
    return OcdResult(float(ocd), sweep, pair_trace=pairs)


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

    `case_formants`, an (m, 2) array of (frequency, bandwidth) rows, fixes
    the formant frequencies (bandwidths past F2 are kept as given). Cells
    whose peaks merge are flagged via `error`, never dropped.
    """
    meter = PairMeter(case_formants, (0, 1), sample_rate)
    f1, f2 = meter.formants[:2, 0].tolist()
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
) -> tuple[np.ndarray, np.ndarray]:
    """(levels, mean_db): the autocorrelation-method LP envelopes in dB of a stack of signals.

    `samples` is (n, length); the levels are (n, `GRID_POINTS`) from 0 Hz to
    the signals' Nyquist frequency, and `mean_db` (n,) their mean levels, which
    `sigproc.lpc_levels` takes from the power. The optional lag window tapers
    the autocorrelation with the upper half of a Hamming window of half-length
    L lags before the Levinson solve, trading a little spectral resolution for
    envelope smoothness. The first row that fails raises the error it would
    alone: DegenerateInputError, UnstableModelError, then SingularEnvelopeError.
    """
    r = autocorrelation(samples, order)
    if lag_window_half_length:
        L = lag_window_half_length
        if L < order:
            raise ValueError("lag window half-length must cover the model order")
        # taps L .. L + order of np.hamming(2 * L + 1), by its own expression
        r = r * (0.54 + 0.46 * np.cos(np.pi * np.arange(0.0, 2 * order + 1, 2.0) / (2 * L)))
    fit = levinson_rows(r, order)
    env = lpc_levels(fit.a, np.sqrt(np.maximum(fit.error, 0.0)), GRID_POINTS)
    failed = np.flatnonzero((r[:, 0] <= 0) | (fit.stage > 0) | env.singular)
    if failed.size:
        i = failed[0]
        if r[i, 0] <= 0:
            raise DegenerateInputError(f"zero-lag autocorrelation must be positive, got {r[i, 0]}")
        if fit.stage[i]:
            raise UnstableModelError(levinson_failure(fit, i), stage=int(fit.stage[i]))
        raise SingularEnvelopeError("predictor has a root on the evaluation grid "
                                    "or a non-finite dB level")
    return env.levels, env.mean_db


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
    harmonics densify. `case_formants` is an (m, 2) array of (frequency,
    bandwidth) rows, taken in the order given; F1 must be below F2.
    """
    from .synth import synthesize_cascades

    reference = PairMeter(case_formants, (0, 1), sample_rate)
    lower, upper = reference.formants[:2].tolist()
    f1, f2 = lower[0], upper[0]
    v_ref = reference.measure(lower, upper)[2]
    n_samples = int(round((F0_SETTLE_S + F0_ANALYSIS_S) * sample_rate))
    # the one cascade once per F0, its rows stacked
    k = len(f0_values)
    cascade = np.tile(reference.formants, (k, 1, 1))
    signals = np.reshape(synthesize_cascades(cascade[..., 0], cascade[..., 1], f0_values,
                                             sample_rate, [n_samples] * k), (k, n_samples))
    levels, mean_db = lp_envelope_of_signal(signals[:, int(F0_SETTLE_S * sample_rate):], lp_order,
                                            lag_window_half_length)
    return [F0Row(f0, v_ref, m - _peak_pair_rlsv(reference.freqs, row, f1, f2)[2])
            for f0, row, m in zip(f0_values, levels, mean_db.tolist())]


@dataclass
class VowelOcd:
    """Per-vowel OCD outcome; `error` is set when the sweep found no crossing,
    or, with `unmeasurable` set, when its start could not be measured."""

    vowel: str
    basis: str
    result: OcdResult | None
    error: str | None = None
    unmeasurable: bool = False


def pb_sweeps(
    mean_formants: dict,
    gender: str,
    sample_rate: float | None = None,
    f4: float | None = None,
    bandwidth_hz: float = 100.0,
    step_hz: float = 25.0,
):
    """(vowel, SweepConfig) of each per-vowel OCD sweep, equal bandwidths everywhere.

    `mean_formants` maps vowel label to (F1, F2, F3) in Hz; `sample_rate` and
    `f4` default to 8000 and 3500 Hz for "male", else to 10000 and 4200 Hz.
    The sweeps come in the order `pb-ocd` prints them: each of FRONT_VOWELS
    the table has, sweeping (F2, F3) for a V23-based OCD; the uniform tube's
    V12 and V23 reference sweeps (`UNIFORM_TUBE_FORMANTS_HZ` at 8 kHz, whatever
    the gender); then each of BACK_VOWELS the table has, sweeping (F1, F2)
    for a V12-based OCD. Other vowels have no sweep. Every sweep may widen a
    pair that starts below the crossing.
    """
    default_rate, default_f4 = (8000.0, 3500.0) if gender == "male" else (10000.0, 4200.0)
    sample_rate = default_rate if sample_rate is None else sample_rate
    f4 = default_f4 if f4 is None else f4
    sweeps = [(v, (*mean_formants[v], f4), sample_rate, (1, 2))
              for v in FRONT_VOWELS if v in mean_formants]
    sweeps += [("tube", UNIFORM_TUBE_FORMANTS_HZ, 8000.0, pair) for pair in ((0, 1), (1, 2))]
    sweeps += [(v, (*mean_formants[v], f4), sample_rate, (0, 1))
               for v in BACK_VOWELS if v in mean_formants]
    return [(vowel, SweepConfig(np.column_stack((freqs, np.full(len(freqs), bandwidth_hz))),
                                rate, pair=pair, step_hz=step_hz, allow_widening=True))
            for vowel, freqs, rate, pair in sweeps]


def pb_ocd_table(sweeps):
    """One `VowelOcd` per (vowel, SweepConfig) of `sweeps` (see `pb_sweeps`), in order.

    A sweep that ends without a crossing, or whose start cannot be measured,
    is its vowel's error row.
    """
    rows = []
    for vowel, cfg in sweeps:
        try:
            rows.append(VowelOcd(vowel, cfg.basis, ocd_sweep(cfg)))
        except NoCrossingError as exc:
            rows.append(VowelOcd(vowel, cfg.basis, None, error=str(exc)))
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            rows.append(VowelOcd(vowel, cfg.basis, None, error=str(exc), unmeasurable=True))
    return rows
