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
    move_lower: bool = True
    move_upper: bool = True
    n_points: int = 4096
    mean_band_hz: float | None = None

    def __post_init__(self):
        if self.step_hz <= 0:
            raise ValueError("step_hz must be positive")
        i, j = self.pair
        if j != i + 1:
            raise ValueError("swept pair must be adjacent formants")
        if not (self.move_lower or self.move_upper):
            raise ValueError("at least one side of the pair must move")


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


def measure_pair_rlsv(
    formants,
    pair,
    sample_rate,
    n_points: int = 4096,
    mean_band_hz=None,
    label: str = "V12",
):
    """RLSV (mean - valley, dB) between two formants of an analytic cascade."""
    env = analytic_cascade_spectrum(formants, sample_rate, n_points)
    i, j = pair
    f_lo, _ = locate_peak(env, formants[i].frequency)
    f_hi, _ = locate_peak(env, formants[j].frequency)
    m = rlsv(env, f_lo, f_hi, label)
    valley_level = env.mean_level_db - m.v_db
    return _banded_mean_db(env, mean_band_hz) - valley_level


def _pair_spacing_bark(formants, pair):
    i, j = pair
    return hz_to_bark(formants[j].frequency) - hz_to_bark(formants[i].frequency)


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
    i, j = cfg.pair
    f_lo = cfg.formants[i].frequency
    f_hi = cfg.formants[j].frequency

    def v_at(lo, hi):
        fm = _replace_pair(cfg.formants, cfg.pair, lo, hi)
        return measure_pair_rlsv(
            fm, cfg.pair, cfg.sample_rate, cfg.n_points, cfg.mean_band_hz, label
        )

    trace = []
    pairs = []
    v0 = v_at(f_lo, f_hi)
    spacing0 = hz_to_bark(f_hi) - hz_to_bark(f_lo)
    trace.append((spacing0, v0))
    pairs.append((f_lo, f_hi))
    if v0 == 0.0:
        return OcdResult(spacing0, trace, crossing_interpolated=False, basis=label,
                         pair_trace=pairs)
    if v0 < 0 and not allow_widening:
        raise ValueError(
            f"initial RLSV must be positive for an inward sweep, got {v0:.3f} dB"
        )
    narrowing = v0 > 0
    step = cfg.step_hz if narrowing else -cfg.step_hz
    for _ in range(100000):
        nxt_lo = f_lo + step if cfg.move_lower else f_lo
        nxt_hi = f_hi - step if cfg.move_upper else f_hi
        if not _step_is_legal(cfg.formants, cfg.pair, nxt_lo, nxt_hi, cfg.sample_rate, cfg.step_hz):
            raise NoCrossingError(
                "sweep hit a geometry limit before the RLSV changed sign", trace=trace
            )
        try:
            v = v_at(nxt_lo, nxt_hi)
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            raise NoCrossingError(
                f"valley became unmeasurable before crossing: {exc}", trace=trace
            ) from exc
        spacing = hz_to_bark(nxt_hi) - hz_to_bark(nxt_lo)
        trace.append((spacing, v))
        pairs.append((nxt_lo, nxt_hi))
        if v == 0.0:
            return OcdResult(spacing, trace, crossing_interpolated=False,
                             basis=label, widened=not narrowing, pair_trace=pairs)
        if (v > 0) != (v0 > 0):
            (s_prev, v_prev), (s_cur, v_cur) = trace[-2], trace[-1]
            ocd = s_prev + (0.0 - v_prev) * (s_cur - s_prev) / (v_cur - v_prev)
            return OcdResult(float(ocd), trace, crossing_interpolated=True,
                             basis=label, widened=not narrowing, pair_trace=pairs)
        f_lo, f_hi = nxt_lo, nxt_hi
    raise NoCrossingError("sweep exceeded the step budget", trace=trace)


def ocd_sweep(cfg: SweepConfig, label: str = "V12") -> OcdResult:
    """Narrow the swept pair until the valley meets the mean level.

    Starts from a configuration with RLSV > 0 (valley below the mean), steps
    the pair inward, and linearly interpolates the bark spacing at which the
    RLSV crosses zero. Raises ValueError when the start is already at or
    below the crossing and NoCrossingError (with the trace) when the sweep
    runs out of room.
    """
    return _sweep_to_crossing(cfg, allow_widening=False, label=label)


def two_formant_curve(
    f1_values,
    f2: float,
    b1: float,
    b2: float,
    sample_rate: float = 10000.0,
    n_points: int = 4096,
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
    n_points: int = 4096,
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
                env = analytic_cascade_spectrum(fm, sample_rate, n_points)
                f1p, l1 = locate_peak(env, fm[0].frequency)
                f2p, l2 = locate_peak(env, fm[1].frequency)
                v = rlsv(env, f1p, f2p).v_db
                cells.append(LevelCell(b1, b2, l1, l2, v))
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
    n_points: int = 4096,
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
    return lpc_envelope(model, n_points)


def f0_influence_experiment(
    case_formants,
    f0_values=(100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0),
    sample_rate: float = 8000.0,
    lp_order: int = 8,
    lag_window_half_length: int | None = 24,
    settle_s: float = 0.1,
    analysis_s: float = 0.4,
    n_points: int = 4096,
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
    env_ref = analytic_cascade_spectrum(fm, sample_rate, n_points)
    f1p, _ = locate_peak(env_ref, fm[0].frequency)
    f2p, _ = locate_peak(env_ref, fm[1].frequency)
    v_ref = rlsv(env_ref, f1p, f2p).v_db
    rows = []
    for f0 in f0_values:
        exc = Excitation("impulse-train", f0=f0, duration_s=settle_s + analysis_s)
        sig = synthesize(fm, exc, sample_rate)
        seg = sig.samples[int(settle_s * sample_rate):]
        env = lp_envelope_of_signal(
            seg, sample_rate, lp_order, n_points, lag_window_half_length
        )
        p1, _ = locate_peak(env, fm[0].frequency)
        p2, _ = locate_peak(env, fm[1].frequency)
        v_f0 = rlsv(env, p1, p2).v_db
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
    front_vowels=FRONT_VOWELS,
    include_tube: bool = True,
    tube_sample_rate: float = 8000.0,
    tube_f4: float = 3500.0,
):
    """Per-vowel OCD from mean formant data, equal bandwidths everywhere.

    `mean_formants` maps vowel label to (F1, F2, F3) in Hz. Back vowels sweep
    the (F1, F2) pair and report a V12-based OCD; front vowels sweep (F2, F3)
    for a V23-based OCD. Pairs starting below the crossing are widened
    instead of narrowed (symmetric steps either way). The uniform-tube
    reference rows are computed both ways at the fixed tube configuration,
    which is gender-independent.
    """
    if sample_rate is None:
        sample_rate = 8000.0 if gender == "male" else 10000.0
    if f4 is None:
        f4 = 3500.0 if gender == "male" else 4200.0
    rows = []
    for vowel, (f1, f2, f3) in mean_formants.items():
        freqs = [f1, f2, f3, f4]
        fm = [FormantSpec(f, bandwidth_hz) for f in freqs]
        if vowel in front_vowels:
            pair, label = (1, 2), "V23"
        else:
            pair, label = (0, 1), "V12"
        cfg = SweepConfig(fm, sample_rate, pair=pair, step_hz=step_hz)
        try:
            res = _sweep_to_crossing(cfg, allow_widening=True, label=label)
            rows.append(VowelOcd(vowel, label, res))
        except NoCrossingError as exc:
            rows.append(VowelOcd(vowel, label, None, error=str(exc)))
    if include_tube:
        tube = [FormantSpec(f, bandwidth_hz) for f in UNIFORM_TUBE_FORMANTS_HZ[:3]] + [
            FormantSpec(tube_f4, bandwidth_hz)
        ]
        for pair, label in (((0, 1), "V12"), ((1, 2), "V23")):
            cfg = SweepConfig(tube, tube_sample_rate, pair=pair, step_hz=step_hz)
            try:
                res = _sweep_to_crossing(cfg, allow_widening=True, label=label)
                rows.append(VowelOcd("tube", label, res))
            except NoCrossingError as exc:
                rows.append(VowelOcd("tube", label, None, error=str(exc)))
    return rows
