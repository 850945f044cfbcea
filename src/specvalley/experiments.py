"""Sweep drivers: OCD measurement, level and F0 influence, per-vowel tables."""

from dataclasses import dataclass, field

import numpy as np

from .envelope import locate_peak, rlsv
from .errors import NoCrossingError, PeakNotFoundError, ValleyUndefinedError
from .scales import hz_to_bark
from .sigproc import analytic_cascade_spectrum, autocorrelation, levinson, lpc_envelope
from .types import FormantSpec, SpectralEnvelope, power_mean_db

# Critical-distance band reported by perceptual matching studies, in bark.
# Used only as a read-only comparison band for measured OCD values.
PERCEPTUAL_CRITICAL_DISTANCE_BARK = (3.1, 4.3)

FRONT_VOWELS = ("iy", "ih", "eh", "ae")
BACK_VOWELS = ("aa", "ao", "uh", "uw", "ah")

# neutral-tract reference: equally spaced resonances of a uniform tube
UNIFORM_TUBE_FORMANTS_HZ = (500.0, 1500.0, 2500.0, 3500.0)

# frequencies from 0 Hz to Nyquist on which the studies evaluate envelopes
GRID_POINTS = 4096

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


def _banded_mean_db(env: SpectralEnvelope, band_hz):
    if band_hz is None:
        return env.mean_level_db
    sel = env.freqs <= band_hz
    if not np.any(sel):
        raise ValueError("mean band excludes the whole grid")
    return power_mean_db(env.levels_db[sel])


def _peak_pair_rlsv(env: SpectralEnvelope, f_lo, f_hi):
    """(L_lo, L_hi, RLSV measurement) of the peaks located near f_lo and f_hi."""
    p_lo, l_lo = locate_peak(env, f_lo)
    p_hi, l_hi = locate_peak(env, f_hi)
    return l_lo, l_hi, rlsv(env, p_lo, p_hi)


def measure_pair_rlsv(formants, pair, sample_rate, n_points: int = GRID_POINTS,
                      mean_band_hz=None):
    """RLSV (mean - valley, dB) between two formants of an analytic cascade."""
    env = analytic_cascade_spectrum(formants, sample_rate, n_points)
    i, j = pair
    _, _, m = _peak_pair_rlsv(env, formants[i].frequency, formants[j].frequency)
    valley_level = env.mean_level_db - m.v_db
    return _banded_mean_db(env, mean_band_hz) - valley_level


def _replace_pair(formants, pair, f_lo, f_hi):
    i, j = pair
    out = list(formants)
    out[i] = FormantSpec(f_lo, formants[i].bandwidth)
    out[j] = FormantSpec(f_hi, formants[j].bandwidth)
    return out


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
    i, j = cfg.pair
    f_lo = cfg.formants[i].frequency
    f_hi = cfg.formants[j].frequency
    trace, pairs = [], []

    def measure(lo, hi):
        fm = _replace_pair(cfg.formants, cfg.pair, lo, hi)
        v = measure_pair_rlsv(fm, cfg.pair, cfg.sample_rate, cfg.n_points, cfg.mean_band_hz)
        trace.append((hz_to_bark(hi) - hz_to_bark(lo), v))
        pairs.append((lo, hi))
        return v

    v0 = v = measure(f_lo, f_hi)
    if v0 < 0 and not allow_widening:
        raise ValueError(
            f"initial RLSV must be positive for an inward sweep, got {v0:.3f} dB"
        )
    step = cfg.step_hz if v0 > 0 else -cfg.step_hz
    while v != 0.0 and (v > 0) == (v0 > 0):
        if len(trace) > 100000:  # the start and 100000 steps
            raise NoCrossingError("sweep exceeded the step budget", trace=trace)
        f_lo += step
        if cfg.move_upper:
            f_hi -= step
        if not _step_is_legal(cfg.formants, cfg.pair, f_lo, f_hi, cfg.sample_rate, cfg.step_hz):
            raise NoCrossingError(
                "sweep hit a geometry limit before the RLSV changed sign", trace=trace
            )
        try:
            v = measure(f_lo, f_hi)
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            raise NoCrossingError(
                f"valley became unmeasurable before crossing: {exc}", trace=trace
            ) from exc
    if v == 0.0:
        return OcdResult(trace[-1][0], trace, crossing_interpolated=False,
                         basis=label, widened=v0 < 0, pair_trace=pairs)
    (s_prev, v_prev), (s_cur, v_cur) = trace[-2], trace[-1]
    ocd = s_prev + (0.0 - v_prev) * (s_cur - s_prev) / (v_cur - v_prev)
    return OcdResult(float(ocd), trace, crossing_interpolated=True,
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


def two_formant_curve(
    f1_values,
    f2: float,
    b1: float,
    b2: float,
    sample_rate: float = 10000.0,
    n_points: int = GRID_POINTS,
    mean_band_hz: float | None = 2500.0,
):
    """RLSV of the F1-F2 valley for each F1, with F2 fixed.

    Returns (spacing_bark, v_db) pairs tracing how the valley level falls as
    the pair narrows. The default 2.5 kHz mean band matches the band this
    two-formant configuration is analyzed over.
    """
    out = []
    for f1 in f1_values:
        if f1 >= f2:
            raise ValueError(f"F1 {f1} must stay below F2 {f2}")
        fm = [FormantSpec(f1, b1), FormantSpec(f2, b2)]
        v = measure_pair_rlsv(fm, (0, 1), sample_rate, n_points, mean_band_hz)
        out.append((hz_to_bark(f2) - hz_to_bark(f1), v))
    return out


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
    cells = []
    for b1 in b1_values:
        for b2 in b2_values:
            fm = [
                FormantSpec(case_formants[0].frequency, b1),
                FormantSpec(case_formants[1].frequency, b2),
            ] + list(case_formants[2:])
            try:
                env = analytic_cascade_spectrum(fm, sample_rate, GRID_POINTS)
                l1, l2, m = _peak_pair_rlsv(env, fm[0].frequency, fm[1].frequency)
                cells.append(LevelCell(b1, b2, l1, l2, m.v_db))
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
    sample_rate: float,
    order: int,
    lag_window_half_length: int | None = None,
) -> SpectralEnvelope:
    """Autocorrelation-method LP envelope, optionally with a lag window.

    The lag window tapers the autocorrelation with the upper half of a
    Hamming window of half-length L lags before the Levinson solve, trading
    a little spectral resolution for envelope smoothness.
    """
    r = autocorrelation(samples, order)
    if lag_window_half_length:
        L = lag_window_half_length
        if L < order:
            raise ValueError("lag window half-length must cover the model order")
        r = r * np.hamming(2 * L + 1)[L : L + order + 1]
    model = levinson(r, order, sample_rate)
    return lpc_envelope(model, GRID_POINTS)


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
    env_ref = analytic_cascade_spectrum(fm, sample_rate, GRID_POINTS)
    v_ref = _peak_pair_rlsv(env_ref, fm[0].frequency, fm[1].frequency)[2].v_db
    rows = []
    for f0 in f0_values:
        exc = Excitation("impulse-train", f0=f0, duration_s=F0_SETTLE_S + F0_ANALYSIS_S)
        sig = synthesize(fm, exc, sample_rate)
        seg = sig.samples[int(F0_SETTLE_S * sample_rate):]
        env = lp_envelope_of_signal(seg, sample_rate, lp_order, lag_window_half_length)
        v_f0 = _peak_pair_rlsv(env, fm[0].frequency, fm[1].frequency)[2].v_db
        rows.append(F0Row(f0, v_ref, v_f0))
    return rows


@dataclass
class VowelOcd:
    """Per-vowel OCD outcome; `error` is set when the sweep found no crossing."""

    vowel: str
    basis: str
    result: OcdResult | None
    error: str | None = None


def pb_ocd_table(
    mean_formants: dict,
    gender: str,
    sample_rate: float | None = None,
    f4: float | None = None,
    bandwidth_hz: float = 100.0,
    step_hz: float = 25.0,
    include_tube: bool = True,
):
    """Per-vowel OCD from mean formant data, equal bandwidths everywhere.

    `mean_formants` maps vowel label to (F1, F2, F3) in Hz. Back vowels sweep
    the (F1, F2) pair and report a V12-based OCD; front vowels sweep (F2, F3)
    for a V23-based OCD. Pairs starting below the crossing are widened
    instead of narrowed (symmetric steps either way). The uniform-tube
    reference rows sweep both pairs of `UNIFORM_TUBE_FORMANTS_HZ` (F4 at
    3500 Hz) at 8 kHz, whatever the gender.
    """
    if sample_rate is None:
        sample_rate = 8000.0 if gender == "male" else 10000.0
    if f4 is None:
        f4 = 3500.0 if gender == "male" else 4200.0
    sweeps = []
    for vowel, (f1, f2, f3) in mean_formants.items():
        pair, label = ((1, 2), "V23") if vowel in FRONT_VOWELS else ((0, 1), "V12")
        sweeps.append((vowel, (f1, f2, f3, f4), sample_rate, pair, label))
    if include_tube:
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
    return rows
