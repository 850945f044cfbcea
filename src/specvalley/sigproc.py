"""Core signal processing: framing, linear prediction, roots, and spectra."""

import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericFailureError

# the formant gate: a root is a candidate from MIN_FREQUENCY to
# fs/2 - NYQUIST_MARGIN, with a bandwidth below MAX_BANDWIDTH (all in Hz)
MIN_FREQUENCY = 150.0
NYQUIST_MARGIN = 100.0
MAX_BANDWIDTH = 500.0
# Newton seeds for the formant anchors are the envelope peaks on this circle:
# inside the unit circle, peaks of neighbouring poles that merge there stand
# apart (McCandless 1974)
SEED_RADIUS = 0.97
SEED_POINTS = 512
NEWTON_STEPS = 8  # most seeds settle in 4-6 steps; rows that need more are left to eigvals
CIRCLE_MARGIN = 1e-9  # a reflection coefficient this close to +/-1 leaves a root count in doubt
DUPLICATE_DISTANCE = 1e-8  # polished roots this close together are one root
# rows per BLAS product of `stacked_product`: 8-row tiles keep the envelope
# table in cache across rows, and a lone row pays for 7 rows of zeros
TILE_ROWS = 8
# rows per pass of the stages that build a (rows, grid) array from a stack
# (the seed dips, the frame envelopes and valleys, the MFCC spectra): a
# 64-row chunk of the 1024-column envelope product is 512 KiB, where a
# 256-frame block's is 2 MiB. 32-row chunks left the peak RSS of `classify`
# and `baseline` where 64 do and cost frame_pipeline about 15 % more time in
# per-call overhead (Xeon, one BLAS thread). Every row of those stages is
# computed alone, so the chunks change no bit, and a multiple of TILE_ROWS
# pads no more tiles
CHUNK_ROWS = 64
# the highest LP order `--lp-order` and `f0 --order` accept: far past the rate/1000 + 2 a
# vowel needs, and `f0` then peaks near 250 MB building its 66 MB envelope table
MAX_LP_ORDER = 1000


def preemphasize(x: np.ndarray, alpha: float, starts=0) -> np.ndarray:
    """First-difference high-pass: y[n] = x[n] - alpha*x[n-1], restarted with
    y = x at each segment start of `starts` (by default one segment, from 0)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"pre-emphasis coefficient must be in [0, 1), got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    y = np.empty_like(x)
    if len(x):
        np.multiply(x[:-1], alpha, out=y[1:])  # in place: no temporary the size of x
        np.subtract(x[1:], y[1:], out=y[1:])
        y[starts] = x[starts]
    return y


def frame_length(frame_ms: float, sample_rate: float) -> int:
    """Samples in one frame of `frame_ms` milliseconds, rounded to the nearest."""
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    if not (np.isfinite(sample_rate) and sample_rate > 0):
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    # Python floats overflow to inf without a warning; NaN and inf fail the test
    samples = float(frame_ms) / 1000.0 * float(sample_rate)
    if not samples < 2.0**63:  # rounds to at most the largest int64
        raise ValueError(f"a {frame_ms:g} ms frame at {sample_rate:g} Hz does not fit "
                         "an int64 sample count")
    frame_len = round(samples)
    if frame_len < 1:
        raise ValueError("frame shorter than one sample")
    return frame_len


def frame_counts(lengths, sample_rate: float, frame_ms: float, overlap_fraction: float):
    """(frame_len, hop, counts): the frame geometry, and the whole frames each
    segment of `lengths` samples holds (a trailing partial frame is dropped).
    Hop is frame_len*(1 - overlap_fraction), rounded to the nearest sample."""
    frame_len = frame_length(frame_ms, sample_rate)
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    hop = max(int(round(frame_len * (1.0 - overlap_fraction))), 1)
    lengths = np.asarray(lengths)
    return frame_len, hop, np.where(lengths < frame_len, 0, 1 + (lengths - frame_len) // hop)


def frame_signal(x: np.ndarray, sample_rate: float, frame_ms: float,
                 overlap_fraction: float, spans=None):
    """(frames, counts): the frames of each [start, stop) segment of `spans` (by
    default all of `x`), back to back in one (n_frames, frame_len) copy, and
    the frame count of each segment, as `frame_counts` counts them."""
    x = np.asarray(x, dtype=np.float64)
    spans = np.array([[0, len(x)]]) if spans is None else np.asarray(spans).reshape(-1, 2)
    frame_len, hop, counts = frame_counts(spans[:, 1] - spans[:, 0], sample_rate, frame_ms,
                                          overlap_fraction)
    if not counts.any():
        return np.empty((0, frame_len)), counts
    # frame g of the stack, the k-th of its segment, starts at start + hop*k
    first = np.repeat(spans[:, 0] - hop * (np.cumsum(counts) - counts), counts)
    starts = first + hop * np.arange(len(first))
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[starts], counts


def window(frame: np.ndarray) -> np.ndarray:
    """Apply the Hamming window along the last axis."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        raise ValueError("frame must be non-empty")
    n = frame.shape[-1]
    w = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1)) if n > 1 else np.ones(1)
    return frame * w


def autocorrelation(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """r[:, k] = sum_n x[:, n]*x[:, n+k] for k = 0..max_lag, one row per frame.

    `frames` is an (n_frames, frame_len) stack. Each lag is one row-wise dot
    product, so the cost is O(frame_len * max_lag).
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"frames must be an (n_frames, frame_len) stack, got shape {x.shape}")
    n = x.shape[1]
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be < frame length {n}")
    r = np.empty((len(x), max_lag + 1))
    for k in range(max_lag + 1):
        r[:, k] = np.einsum("ij,ij->i", x[:, : n - k], x[:, k:])
    return r


class LevinsonRows(NamedTuple):
    """Row-wise Levinson-Durbin results for a stack of autocorrelation rows."""

    a: np.ndarray  # (n, order+1) error-filter taps [1, -a_1, ..., -a_p]
    error: np.ndarray  # (n,) prediction error after the last completed stage
    reflection: np.ndarray  # (n, order) reflection coefficients
    stage: np.ndarray  # (n,) 0 for a full fit, else the stage that failed


def levinson_rows(r: np.ndarray, order: int) -> LevinsonRows:
    """Solve the autocorrelation normal equations of every row at once.

    `r` is (n, >= order+1). A row fails at stage m when its prediction error
    is no longer positive or its reflection coefficient leaves [-1, 1]
    (tolerance 1e-12); so a row with r[0] <= 0 fails at stage 1. A failed
    row keeps the taps and error of stage m-1, its `stage` entry records m,
    and its reflection coefficients from m on are 0, except the rejected
    one, which is kept at m.
    """
    r = np.asarray(r, dtype=np.float64)
    if order < 1:
        raise ValueError("order must be >= 1")
    if r.ndim != 2 or r.shape[1] < order + 1:
        raise ValueError(f"need an (n, {order + 1}) stack of autocorrelation lags")
    n = r.shape[0]
    # flipped[:, order - k] = r[:, k], so r[m], ..., r[1] is a contiguous slice
    flipped = np.ascontiguousarray(r[:, order::-1])
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    reflection = np.zeros((n, order))
    stage = np.zeros(n, dtype=int)
    live = np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, order + 1):
            # one BLAS dot per row, as np.dot(a[:m], r[m:0:-1]) does for one row
            dot = (a[:, None, :m] @ flipped[:, order - m : order, None])[:, 0, 0]
            k = np.where(live & (err > 0), -dot / err, 0.0)
            reflection[:, m - 1] = k
            failed = live & ((err <= 0) | (np.abs(k) > 1.0 + 1e-12))
            if failed.any():
                stage[failed] = m
                live &= ~failed
                k[failed] = 0.0
            a[:, : m + 1] += k[:, None] * a[:, m::-1]
            err *= 1.0 - k * k
    return LevinsonRows(a, err, reflection, stage)


def levinson_failure(fit, row: int) -> str:
    """Why row `row` of a stacked fit stopped at its `stage`, read from `fit.stage`
    and `fit.reflection` alone (a vanished error leaves that stage's k at 0)."""
    m = int(fit.stage[row])
    k = fit.reflection[row, m - 1]
    if k == 0:
        return f"prediction error vanished at stage {m}"
    return f"reflection coefficient {k:.6g} outside [-1, 1] at stage {m}"


@functools.lru_cache(maxsize=8)
def _unit_circle_table(taps: int, n_points: int) -> np.ndarray:
    """(taps, 2*n_points) read-only table of cos(m*w_k) | sin(m*w_k).

    w_k = pi*k/(n_points-1) for k = 0..n_points-1 and m = 0..taps-1. Each
    m*k is reduced modulo 2*(n_points-1) before it is scaled to an angle,
    and the DC and Nyquist columns hold exactly 0 and +/-1, as the twiddles
    of an rfft there do.
    """
    half = n_points - 1
    mk = np.outer(np.arange(taps), np.arange(n_points))
    np.remainder(mk, 2 * half, out=mk)
    table = np.empty((taps, 2 * n_points))
    cos, sin = table[:, :n_points], table[:, n_points:]
    np.multiply(mk, np.pi / half, out=sin)  # the angles, until their sines replace them
    np.cos(sin, out=cos)
    np.sin(sin, out=sin)
    dc, nyquist = mk == 0, mk == half
    cos[dc] = 1.0
    cos[nyquist] = -1.0
    sin[dc | nyquist] = 0.0
    table.flags.writeable = False
    return table


def stacked_product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix for an (n, k) stack of rows and a (k, m) matrix, as (n, m).

    The stack is zero-padded to whole tiles of TILE_ROWS rows, and each tile
    is one BLAS matrix product. A product's blocking, and so its rounding,
    follows from its shape alone; every product here has the same shape, so
    a row's values depend neither on the rows beside it nor on the height of
    the stack, and one row gives what it gives as a one-row stack.
    """
    n, k = rows.shape
    tiles = np.zeros((-(-n // TILE_ROWS), TILE_ROWS, k))
    tiles.reshape(-1, k)[:n] = rows
    return (tiles @ matrix).reshape(-1, matrix.shape[1])[:n]


def _grid_power(a: np.ndarray, n_points: int) -> np.ndarray:
    """|A(e^jw)|^2 of an (n, taps) stack on n_points frequencies from 0 to Nyquist."""
    re_im = stacked_product(a, _unit_circle_table(a.shape[-1], n_points))
    re_im *= re_im
    return re_im[:, :n_points] + re_im[:, n_points:]


class EnvelopeLevels(NamedTuple):
    """dB envelopes of a stack of error filters, with their mean levels."""

    levels: np.ndarray  # (n, n_points) dB levels from 0 Hz to Nyquist
    mean_db: np.ndarray  # (n,) level of each row's mean power, in dB
    singular: np.ndarray  # (n,) rows whose levels mean nothing


def lpc_levels(a: np.ndarray, gain: np.ndarray, n_points: int) -> EnvelopeLevels:
    """dB envelopes 20*log10(gain/|A(e^jw)|) of a stack of error filters.

    `a` is (n, order+1) taps and `gain` (n,); the levels are (n, n_points)
    on uniform frequencies from 0 to Nyquist. Each row's taps times a cached
    cos|sin table give Re and Im of A(e^jw) on the grid, and the power
    gain^2/(Re^2 + Im^2) gives both the levels and the row's mean level,
    10*log10(mean power). `singular` marks rows whose A vanishes on the grid
    or whose levels are not finite; their levels and mean level mean nothing.
    """
    if n_points < 64:
        raise ValueError("n_points must be >= 64")
    power = _grid_power(np.asarray(a, dtype=np.float64), n_points)
    singular = np.any(power == 0.0, axis=-1)
    gain = np.asarray(gain, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide((gain * gain)[:, None], power, out=power)
        mean_db = 10.0 * np.log10(np.mean(power, axis=-1))
        levels = np.log10(power, out=power)
        levels *= 10.0
    singular |= ~np.all(np.isfinite(levels), axis=-1)
    return EnvelopeLevels(levels, mean_db, singular)


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of an (n, degree+1) stack of real polynomials, as (n, degree).

    Highest degree first; every leading coefficient must be nonzero and the
    degree at least 1. The stack's real companion matrices are solved by one
    stacked eigenvalue call.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] < 2:
        raise ValueError(f"coeffs must be an (n, degree+1) stack of degree >= 1, got {c.shape}")
    lead = c[:, :1]
    if np.any(lead == 0):
        raise ValueError("leading coefficient must be nonzero")
    n = c.shape[1] - 1
    companion = np.zeros((len(c), n, n))
    companion[:, 0, :] = -c[:, 1:] / lead
    companion[:, np.arange(1, n), np.arange(0, n - 1)] = 1.0
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:  # LAPACK rarely fails here
        raise NumericFailureError(f"eigenvalue iteration failed: {exc}") from exc
    return roots.astype(np.complex128, copy=False)


def formant_candidates(roots: np.ndarray, sample_rate: float):
    """Gate an (n, p) stack of roots to formant candidates, row by row.

    Each root r*e^(j*theta) with theta > 0 and 0 < r < 1 maps to
    F = theta*fs/(2*pi) and B = -fs*ln(r)/pi, and is kept when F lies in
    [MIN_FREQUENCY, fs/2 - NYQUIST_MARGIN] and 0 < B < MAX_BANDWIDTH.
    Returns (freqs, bandwidths, counts): (n, p) arrays with each row's
    candidates first, ascending in frequency, and NaN after them, and the
    number of candidates per row.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    theta = np.angle(roots)
    radius = np.hypot(roots.real, roots.imag)  # equals abs() of each root, bit for bit
    with np.errstate(divide="ignore"):
        freq = theta * sample_rate / (2 * np.pi)
        bw = -sample_rate * np.log(radius) / np.pi
    keep = (
        (theta > 0) & (radius > 0) & (radius < 1)
        & (freq >= MIN_FREQUENCY) & (freq <= sample_rate / 2.0 - NYQUIST_MARGIN)
        & (bw > 0) & (bw < MAX_BANDWIDTH)
    )
    order = np.argsort(np.where(keep, freq, np.inf), axis=-1, kind="stable")
    keep = np.take_along_axis(keep, order, axis=-1)
    freqs = np.where(keep, np.take_along_axis(freq, order, axis=-1), np.nan)
    bandwidths = np.where(keep, np.take_along_axis(bw, order, axis=-1), np.nan)
    return freqs, bandwidths, keep.sum(axis=-1)


def _roots_outside_unit_circle(c: np.ndarray):
    """(count, doubtful) per row of an (n, degree+1) stack, highest degree first.

    `count` is the number of roots with |z| > 1, from the Schur-Cohn
    step-down: k_m = c_m/c_0, then c_i -= k_m*c_(m-i) for m = degree..1. A
    step with |k_m| > 1 swaps the roots inside and outside the circle of the
    degree-m polynomial, so N_m = N_(m-1) if |k_m| < 1, else m - N_(m-1).
    `doubtful` marks rows with a |k| within CIRCLE_MARGIN of 1, or not
    finite, whose count rounding may have flipped.
    """
    c = np.array(c, dtype=np.float64)
    n, degree = c.shape[0], c.shape[1] - 1
    k = np.empty((n, degree))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(degree, 0, -1):
            k[:, m - 1] = c[:, m] / c[:, 0]
            c[:, :m] -= k[:, m - 1, None] * c[:, m:0:-1]
    k = np.abs(k)
    count = np.zeros(n, dtype=int)
    for m in range(1, degree + 1):
        count = np.where(k[:, m - 1] < 1.0, count, m - count)
    return count, ~np.all(np.abs(k - 1.0) > CIRCLE_MARGIN, axis=1)


def _peak_seeds(a: np.ndarray):
    """(row, z): one seed per local maximum of 1/|A|^2 on the SEED_RADIUS circle.

    The maxima are taken on SEED_POINTS angles from 0 to pi, DC and Nyquist
    included (each compared with its one neighbour), CHUNK_ROWS rows at a time;
    a seed sits at SEED_RADIUS times the peak's grid point, so the two ends
    give real seeds.
    """
    table = _unit_circle_table(2, SEED_POINTS)
    # A(SEED_RADIUS*e^jw) has the taps a_m * SEED_RADIUS^-m
    scaled = a * SEED_RADIUS ** -np.arange(a.shape[1])
    dip = np.empty((len(a), SEED_POINTS), dtype=bool)
    for first in range(0, len(a), CHUNK_ROWS):
        power = _grid_power(scaled[first:first + CHUNK_ROWS], SEED_POINTS)
        chunk = dip[first:first + CHUNK_ROWS]
        chunk[:, 1:-1] = (power[:, 1:-1] < power[:, :-2]) & (power[:, 1:-1] <= power[:, 2:])
        chunk[:, 0] = power[:, 0] < power[:, 1]
        chunk[:, -1] = power[:, -1] < power[:, -2]
    rows, bins = np.nonzero(dip)
    return rows, SEED_RADIUS * (table[1, bins] + 1j * table[1, SEED_POINTS + bins])


def _newton_roots(a: np.ndarray, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polish seed z[i] towards a root of a[rows[i]] by Newton's method.

    All seeds step together, and a seed leaves once its step is at most
    1e-13*|z|; a seed that has not settled after NEWTON_STEPS steps gives NaN.
    """
    roots = np.full(z.shape, np.nan, dtype=np.complex128)
    seed = np.arange(z.size)
    taps = np.ascontiguousarray(a[rows].T, dtype=np.complex128)
    for _ in range(NEWTON_STEPS):
        if not seed.size:
            break
        # P and P' by Horner's rule. The products out of place: NumPy
        # multiplies a complex array of one element in place with other
        # rounding than a longer one. The sums in place, each to a new product
        p, dp = taps[0], np.zeros(seed.size, dtype=np.complex128)
        for tap in taps[1:]:
            dp = dp * z
            dp += p
            p = p * z
            p += tap
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = p / dp
            z = z - step
            settled = np.abs(step) <= 1e-13 * np.abs(z)
        roots[seed[settled]] = z[settled]
        going = ~settled & np.isfinite(z)
        seed, z, taps = seed[going], z[going], taps[:, going]
    return roots


def formant_anchors(a: np.ndarray, reflection: np.ndarray, sample_rate: float):
    """`formant_candidates(polynomial_roots(a), sample_rate)` without the full root set.

    `a` is an (n, p+1) stack of error-filter taps and `reflection` its
    (n, p) Levinson reflection coefficients. The gate keeps roots with
    B < MAX_BANDWIDTH, which is the annulus rho < |z| < 1 with
    rho = exp(-pi*MAX_BANDWIDTH/fs). Per row:
    1. count the roots there: the Schur-Cohn count of roots with |z| > rho
       (taps scaled by rho^-m); the reflection coefficients show none lies on
       or outside |z| = 1;
    2. seed Newton's method at the peaks of 1/|A|^2 on the SEED_RADIUS circle
       and polish every seed at once (Snell & Milinazzo 1993);
    3. fold the settled roots into the upper half-plane, keep those inside the
       annulus and drop duplicates; a root counts twice, once if real.
    A row whose roots add up to its count keeps them. The rest, and the rows
    in doubt (a reflection coefficient of the fit or of the count within
    CIRCLE_MARGIN of +/-1), take theirs from `polynomial_roots`; then every
    row passes one `formant_candidates` gate. Every row gives what it gives
    alone, whatever stack it is in.
    """
    a = np.asarray(a, dtype=np.float64)
    n, p = a.shape[0], a.shape[1] - 1
    rho = np.exp(-np.pi * MAX_BANDWIDTH / sample_rate)
    in_annulus, doubtful = _roots_outside_unit_circle(a * rho ** -np.arange(p + 1))
    doubtful |= np.any(np.abs(reflection) >= 1.0 - CIRCLE_MARGIN, axis=1)

    rows, z = _peak_seeds(a)
    z = _newton_roots(a, rows, z)
    z = np.where(z.imag < 0, z.conj(), z)
    radius = np.abs(z)
    inside = (radius > rho) & (radius < 1.0)
    rows, z, radius = rows[inside], z[inside], radius[inside]
    order = np.lexsort((radius, np.angle(z), rows))
    rows, z = rows[order], z[order]
    new = np.ones(z.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (np.abs(z[1:] - z[:-1]) >= DUPLICATE_DISTANCE)
    rows, z = rows[new], z[new]
    found = np.bincount(rows, weights=np.where(z.imag == 0, 1, 2), minlength=n)
    fallback = doubtful | (found != in_annulus)

    solved = ~fallback[rows]
    rows, z = rows[solved], z[solved]
    roots = np.zeros((n, p), dtype=np.complex128)  # a zero root never passes the gate
    roots[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = z
    rest = np.flatnonzero(fallback)
    if rest.size:
        roots[rest] = polynomial_roots(a[rest])
    return formant_candidates(roots, sample_rate)


def check_formants(frequencies: np.ndarray, bandwidths: np.ndarray, sample_rate: float):
    """Raise ValueError for a formant frequency or bandwidth that is not positive and
    finite, and, as `resonator_db` would, for a frequency at or above Nyquist (the
    first such in column order, section by section, of (k, m) arrays)."""
    # each bound is one reduction (a NaN fails it); only a failed bound looks for
    # its first offender, with the same comparison
    nyquist = sample_rate / 2.0
    for name, values in (("frequency", frequencies), ("bandwidth", bandwidths)):
        if not (np.minimum.reduce(values, None, initial=np.inf) > 0
                and np.maximum.reduce(values, None, initial=0.0) < np.inf):
            bad = ~((values > 0) & (values < np.inf))
            raise ValueError(f"formant {name} must be positive, got {values[bad][0]}")
    if not np.maximum.reduce(frequencies, None, initial=0.0) < nyquist:
        above = ~(frequencies.T < nyquist)
        raise ValueError(f"formant at {frequencies.T[above][0]} Hz is at or above Nyquist "
                         f"({nyquist} Hz)")


def resonator_taps(frequency, bandwidth, sample_rate: float):
    """Feedback taps (a1, a2) of two-pole resonators at F Hz with bandwidth B Hz.

    The poles sit at radius exp(-pi*B/fs) and angles +/-2*pi*F/fs. Scalars
    give scalars; arrays give arrays of their broadcast shape.
    """
    radius = np.exp(-np.pi * np.asarray(bandwidth, dtype=np.float64) / sample_rate)
    theta = 2 * np.pi * np.asarray(frequency, dtype=np.float64) / sample_rate
    return -2.0 * radius * np.cos(theta), radius * radius


def resonator_denominator(a1, a2, zinv, out=None, work=None):
    """1 + a1*z^-1 + a2*z^-2: the feedback polynomial of two-pole resonators at `zinv`.

    `out` and `work`, complex arrays of the result's shape, take the result
    and the a2*z^-2 term in place of new arrays.
    """
    denominator = np.multiply(a1, zinv, out=out)
    denominator += 1.0
    curve = np.multiply(a2, zinv, out=work)
    curve *= zinv
    denominator += curve
    return denominator


def _first_resonator(frequency, bandwidth, where):
    """(F, B) of the first resonator that `where`, a mask of its levels' shape, marks."""
    return (np.broadcast_to(np.asarray(x)[..., None], where.shape)[where][0]
            for x in (frequency, bandwidth))


def resonator_db(frequency, bandwidth, zinv: np.ndarray, sample_rate: float) -> np.ndarray:
    """dB response of unity-DC-gain two-pole resonators at the points `zinv`.

    `frequency` and `bandwidth` are equal-shaped arrays of resonators and
    `zinv` holds e^(-jw) for each evaluation frequency w: one (K,) grid
    for all resonators, giving frequency.shape + (K,) levels, or grids that
    broadcast against frequency.shape + (1,). Raises ValueError for a
    resonator at or above Nyquist, for one whose DC gain is 0, as when the
    rate is so far above its frequency and bandwidth that its poles round to 1,
    and for one with a pole on a point of `zinv`, as when its bandwidth is so
    narrow that the pole radius rounds to 1.
    """
    frequency = np.asarray(frequency, dtype=np.float64)
    above = frequency >= sample_rate / 2.0
    if above.any():
        raise ValueError(
            f"formant at {float(frequency[above].flat[0])} Hz is at or above Nyquist "
            f"({sample_rate / 2.0} Hz)"
        )
    a1, a2 = resonator_taps(frequency[..., None], np.asarray(bandwidth)[..., None], sample_rate)
    gain = 1.0 + a1 + a2
    if not gain.all():
        f, b = _first_resonator(frequency, bandwidth, gain == 0)
        raise ValueError(f"resonator at {f:g} Hz with bandwidth {b:g} Hz has zero DC gain "
                         f"at sample rate {sample_rate:g} Hz")
    levels = np.abs(resonator_denominator(a1, a2, zinv))
    if not levels.all():
        f, b = _first_resonator(frequency, bandwidth, levels == 0)
        raise ValueError(f"resonator at {f:g} Hz with bandwidth {b:g} Hz has a pole on the "
                         f"frequency grid at sample rate {sample_rate:g} Hz")
    np.divide(gain, levels, out=levels)
    np.log10(levels, out=levels)
    levels *= 20.0
    return levels


@functools.lru_cache(maxsize=8)
def cascade_grid(sample_rate: float, n_points: int):
    """(freqs, zinv): `n_points` frequencies from 0 Hz to Nyquist and e^(-jw) at each.

    Cached read-only per (sample_rate, n_points), as sweeps and calibrations
    at one rate share one grid.
    """
    if n_points < 64:
        raise ValueError("n_points must be >= 64")
    if not (np.isfinite(sample_rate) and sample_rate > 0):
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    freqs = np.linspace(0.0, sample_rate / 2.0, n_points)
    zinv = np.exp(-2j * np.pi * freqs / sample_rate)
    freqs.flags.writeable = False
    zinv.flags.writeable = False
    return freqs, zinv


def cascade_levels(terms, shape) -> np.ndarray:
    """Sum of dB terms of one `shape`, from zeros in the given order; raises unless finite."""
    levels = np.zeros(shape)
    for term in terms:
        levels += term
    if not np.isfinite(levels).all():
        raise ValueError("envelope levels must be finite")
    return levels
