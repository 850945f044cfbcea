"""Frame-based front/back vowel classification from valley-level features."""

import operator
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .corpus import pcm_to_float
from .envelope import valley_minima
from .errors import NoDecisionError
from .scales import hz_to_bark
from .sigproc import (
    CHUNK_ROWS,
    autocorrelation,
    formant_anchors,
    frame_counts,
    frame_length,
    frame_signal,
    levinson_failure,
    levinson_rows,
    lpc_levels,
    preemphasize,
    window,
)


ENVELOPE_POINTS = 512  # LP envelope grid points from 0 Hz to Nyquist
# Most frames per frame_pipeline call of the corpus stage (a longer segment is
# analysed alone). Stacks from 256 frames up run as fast as one whole-corpus
# stack, which would hold about 55 MB more at its peak (`classify` on the
# 500-segment acceptance corpus, peak RSS 93 MB against 38 MB).
STACK_FRAMES = 256
MAX_HISTOGRAM_BINS = 10_000


@dataclass
class PipelineConfig:
    """Frame analysis settings for the classification pipeline.

    `lp_order=None` scales the order with the sample rate (rate/1000 + 2,
    which is 18 at 16 kHz). Valley brackets are anchored at the root-derived
    formant frequencies, so merged envelope peaks do not invalidate a frame.
    The rest of the analysis is fixed: a Hamming window, the formant gating
    of `sigproc.formant_candidates`, three formants for a valid frame and an
    ENVELOPE_POINTS-point envelope.
    """

    frame_ms: float = 20.0
    overlap_fraction: float = 0.5
    preemphasis: float = 0.97
    lp_order: int | None = None

    def order_for(self, sample_rate: float) -> int:
        """The LP order at `sample_rate`; it must be at least 1 and below the frame
        length, and a frame of float64 samples must fit an array."""
        if self.lp_order is not None:
            order = self.lp_order
        else:
            order = int(round(sample_rate / 1000.0)) + 2
        frame_len = frame_length(self.frame_ms, sample_rate)
        if frame_len > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
            raise ValueError(f"a {self.frame_ms:g} ms frame at {sample_rate:g} Hz "
                             f"({frame_len} samples) does not fit a float64 array")
        if not 1 <= order < frame_len:
            raise ValueError(
                f"LP order {order} must be at least 1 and below the frame length "
                f"({frame_len} samples at {sample_rate:g} Hz)"
            )
        return order


class FrameStatus(NamedTuple):
    """Whether a frame is valid, and if not, why: its reason text, with the
    Levinson stage of an unstable fit."""

    valid: bool
    fail_reason: str | None = None


REASONS = ("silent frame", "unstable LP fit", "fewer than three formants",
           "singular envelope", "valley bracket too narrow")
VALID = -1
SILENT, UNSTABLE, FEW_FORMANTS, SINGULAR, NARROW = range(len(REASONS))


@dataclass(eq=False)
class FrameTable:
    """The frames of a `frame_pipeline` call as columns, one row per frame.

    `table[i]` and iteration give each frame's `FrameStatus` (iteration goes
    through `table[i]`); `table[a:b]` is the table of frames a to b, with
    views of the columns. The frame's values are read from the columns.
    """

    v1: np.ndarray  # (n,) V_I in dB relative to the mean level; NaN where invalid
    v2: np.ndarray  # (n,) V_II likewise
    freqs: np.ndarray  # (n, p) formant candidates ascending, NaN after `counts`
    bandwidths: np.ndarray  # (n, p) their bandwidths
    counts: np.ndarray  # (n,) formant candidates per frame
    reason: np.ndarray  # (n,) int8: VALID or an index into REASONS
    stage: np.ndarray  # (n,) the Levinson stage that failed, else 0
    reflection: np.ndarray  # (n, order) Levinson reflection coefficients

    @classmethod
    def empty(cls, n: int, order: int) -> "FrameTable":
        """n silent frames: NaN levels, no formants, no Levinson fit."""
        nan, zeros = np.full((n, order), np.nan), np.zeros(n, dtype=int)
        return cls(np.full(n, np.nan), np.full(n, np.nan), nan, nan.copy(), zeros,
                   np.full(n, SILENT, dtype=np.int8), zeros.copy(), np.zeros((n, order)))

    def __len__(self):
        return len(self.reason)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return FrameTable(*(getattr(self, f.name)[key] for f in fields(self)))
        i = range(len(self))[key]
        code = int(self.reason[i])
        if code == VALID:
            return FrameStatus(True)
        why = REASONS[code] + (f": {levinson_failure(self, i)}" if code == UNSTABLE else "")
        return FrameStatus(False, why)


@dataclass
class SegmentDecision:
    """Segment-level decision from frame means."""

    mean_v1: float
    mean_v2: float
    mean_diff: float
    predicted: str
    frames_used: int
    frames_discarded: int
    statistic: float  # the value the rule compared with its threshold


@dataclass
class ClassificationReport:
    """Per-class and overall accuracy, and the segments counted."""

    front_accuracy: float | None  # None when the class has no segments
    back_accuracy: float | None
    overall_accuracy: float
    n_front: int = 0
    n_back: int = 0
    n_undecided: int = 0


def frame_pipeline(frames: np.ndarray, sample_rate: float,
                   cfg: PipelineConfig | None = None) -> FrameTable:
    """Window, fit LP, and measure V_I/V_II per frame.

    `frames` is an (n, frame_len) stack of pre-emphasized frames at
    `sample_rate`, as `segment_blocks` gives them; the stacks of several segments
    may be concatenated. All frames go through each stage as one stacked
    array, except that the envelopes and valleys, and the seed dips of
    `formant_anchors`, are taken `sigproc.CHUNK_ROWS` rows at a time, so no
    (frames, grid) array of the whole stack is held. Frames that do not yield
    three in-range formant candidates (or whose valley brackets collapse)
    come back invalid with a reason; nothing is interpolated across frames.
    """
    cfg = cfg or PipelineConfig()
    frame_len = frame_length(cfg.frame_ms, sample_rate)
    if np.ndim(frames) != 2 or np.shape(frames)[1] != frame_len:
        raise ValueError(f"frames must be an (n, {frame_len}) stack of {cfg.frame_ms:g} ms "
                         f"frames at {sample_rate:g} Hz, got shape {np.shape(frames)}")
    order = cfg.order_for(sample_rate)
    table = FrameTable.empty(len(frames), order)
    if len(frames) == 0:
        return table
    lags = autocorrelation(window(frames), order)

    # live[i] is the frame index of row i of the stack still being analysed
    live = np.flatnonzero(lags[:, 0] > 0)
    fit = levinson_rows(lags[live], order)
    table.stage[live], table.reflection[live] = fit.stage, fit.reflection
    fitted = fit.stage == 0
    table.reason[live[~fitted]] = UNSTABLE
    live, a, err = live[fitted], fit.a[fitted], fit.error[fitted]

    freqs, bws, counts = formant_anchors(a, fit.reflection[fitted], sample_rate)
    table.freqs[live], table.bandwidths[live], table.counts[live] = freqs, bws, counts
    enough = counts >= 3
    table.reason[live[~enough]] = FEW_FORMANTS
    live, a, err, freqs = live[enough], a[enough], err[enough], freqs[enough]
    if live.size == 0:  # no frame can be valid; below LP order 3 freqs has < 3 columns
        return table
    gain = np.sqrt(np.maximum(err, 1e-300))
    grid = np.linspace(0.0, sample_rate / 2.0, ENVELOPE_POINTS)
    mean_db, v1, v2 = np.empty((3, live.size))
    singular, narrow1, narrow2 = np.empty((3, live.size), dtype=bool)
    for first in range(0, live.size, CHUNK_ROWS):
        rows = slice(first, first + CHUNK_ROWS)
        env_db, mean_db[rows], singular[rows] = lpc_levels(a[rows], gain[rows], ENVELOPE_POINTS)
        f = freqs[rows]
        _, v1[rows], narrow1[rows] = valley_minima(grid, env_db, f[:, 0], f[:, 1])
        _, v2[rows], narrow2[rows] = valley_minima(grid, env_db, f[:, 1], f[:, 2])
    table.reason[live] = np.where(singular, SINGULAR,
                                  np.where(narrow1 | narrow2, NARROW, VALID))
    ok = table.reason[live] == VALID
    table.v1[live[ok]] = (v1 - mean_db)[ok]
    table.v2[live[ok]] = (v2 - mean_db)[ok]
    return table


def _bark_spacing(lo, hi):
    def spacing(freqs, mean_v1, mean_v2):
        bark = hz_to_bark(freqs[:, [lo, hi]])
        return float(np.mean(bark[:, 1] - bark[:, 0]))
    return spacing


class DecisionRule(NamedTuple):
    """One segment decision rule: back iff reads_back(statistic, threshold)."""

    statistic: Callable  # (formants of the valid frames, mean V_I, mean V_II) -> compared value
    reads_back: Callable  # (statistic, threshold) -> True for back
    default_threshold: float  # dB for the valley rules, bark for the spacing rules


# the spacing rules read front iff spacing < threshold, so a tie reads back
DECISION_RULES = {
    "valley": DecisionRule(lambda freqs, v1, v2: v1 - v2, operator.gt, 5.0),
    "f3f2_3bark": DecisionRule(_bark_spacing(1, 2), lambda s, t: not s < t, 3.0),
    "f2f1_bark": DecisionRule(_bark_spacing(0, 1), lambda s, t: not s < t, 3.0),
    "v1_only": DecisionRule(lambda freqs, v1, v2: v1, operator.gt, 0.0),
    "v2_only": DecisionRule(lambda freqs, v1, v2: v2, operator.lt, 0.0),
}
DEFAULT_THRESHOLDS = {rule: r.default_threshold for rule, r in DECISION_RULES.items()}


def decide_segment(table: FrameTable, threshold_db: float | None = None,
                   rule: str = "valley") -> SegmentDecision:
    """Decide front or back from the means over a segment's valid frames.

    `table` holds the frames of one segment, as a slice of a `frame_pipeline` table.
    valley:     back iff mean(V_I) - mean(V_II) > threshold (dB, default 5).
    f3f2_3bark: front iff mean bark(F3) - bark(F2) < threshold (bark, default 3).
    f2f1_bark:  the same rule applied to (F1, F2).
    v1_only:    back iff mean V_I > threshold (dB, default 0).
    v2_only:    back iff mean V_II < threshold (dB, default 0).

    The threshold's unit follows the rule; None applies the rule's default.
    """
    if rule not in DECISION_RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {tuple(DECISION_RULES)}")
    statistic, reads_back, default = DECISION_RULES[rule]
    valid = table.reason == VALID
    n_valid = int(np.count_nonzero(valid))
    if not n_valid:
        raise NoDecisionError("no valid frames in segment")
    # the mean of the contiguous copy equals the mean of the same values as a list
    mean_v1 = float(np.mean(table.v1[valid]))
    mean_v2 = float(np.mean(table.v2[valid]))
    value = statistic(table.freqs[valid], mean_v1, mean_v2)
    thr = default if threshold_db is None else threshold_db
    return SegmentDecision(mean_v1=mean_v1, mean_v2=mean_v2, mean_diff=mean_v1 - mean_v2,
                           predicted="back" if reads_back(value, thr) else "front",
                           frames_used=n_valid, frames_discarded=len(table) - n_valid,
                           statistic=value)


def scored_rows(table, include_central: bool = False):
    """(rows, truths): the indices of the scored segments of a `corpus.SegmentTable`
    and their classes. Central vowels are skipped, or with `include_central` back."""
    central = table.fb_class == "central"
    rows = np.arange(len(table)) if include_central else np.flatnonzero(~central)
    return rows, np.where(central[rows], "back", table.fb_class[rows]).tolist()


def segment_blocks(table, cfg: PipelineConfig, include_central: bool = False, mix=None):
    """(rows, truths, frames, counts, sample_rate) per block of the scored segments
    of `table`, in corpus order: `frames` stacks the pre-emphasized frames of the
    segments `rows`, `counts` holds their number per segment. A block holds whole
    segments at one rate, at most STACK_FRAMES frames unless it is one longer
    segment. Only the block being framed is converted from the table's PCM to
    floats. `mix(i, x)`, when given, returns the samples segment i is analysed
    with, from its float samples x.
    """
    rows, truths = scored_rows(table, include_central)
    starts, stops, rates = table.offsets[rows], table.offsets[rows + 1], table.rate[rows]
    counts = np.zeros(len(rows), dtype=int)
    for rate in sorted(set(rates.tolist())):
        counts[rates == rate] = frame_counts((stops - starts)[rates == rate], rate,
                                             cfg.frame_ms, cfg.overlap_fraction)[2]

    def block(a, b):
        # each segment's pre-emphasis starts afresh at its first sample
        spans = np.column_stack([starts[a:b], stops[a:b]]) - starts[a]
        x = pcm_to_float(table.pcm[starts[a]:stops[b - 1]])
        if mix is not None:
            for i, (lo, hi) in zip(rows[a:b].tolist(), spans.tolist()):
                x[lo:hi] = mix(i, x[lo:hi])
        x = preemphasize(x, cfg.preemphasis, spans[:, 0])
        rate = float(rates[a])
        frames, n = frame_signal(x, rate, cfg.frame_ms, cfg.overlap_fraction, spans)
        return rows[a:b], truths[a:b], frames, n, rate

    first, n_frames = 0, 0
    for k, n in enumerate(counts.tolist()):
        if k > first and (n_frames + n > STACK_FRAMES or rates[k] != rates[first]):
            yield block(first, k)
            first, n_frames = k, 0
        n_frames += n
    if len(rows):
        yield block(first, len(rows))


def segment_decisions(table, cfg: PipelineConfig, rule: str = "valley",
                      threshold: float | None = None, include_central: bool = False,
                      mix=None):
    """(segment index, truth, decision or None) per scored segment of `table`, in
    corpus order: the analysis stage of the corpus commands. Each block of
    `segment_blocks` is one `frame_pipeline` call, whose table `decide_segment`
    reads segment by segment before the next block is framed."""
    for rows, truths, frames, counts, rate in segment_blocks(table, cfg, include_central, mix):
        frame_table = frame_pipeline(frames, rate, cfg)
        start = 0
        for i, truth, n in zip(rows.tolist(), truths, counts.tolist()):
            try:
                decision = decide_segment(frame_table[start:start + n], threshold, rule)
            except NoDecisionError:
                decision = None
            start += n
            yield i, truth, decision


def score(decisions, truths) -> ClassificationReport:
    """Accuracy bookkeeping; undecided segments (None) count as errors."""
    if len(decisions) != len(truths):
        raise ValueError("decisions and truths must have equal length")
    if not decisions:
        raise ValueError("nothing to score")
    counts = {"front": 0, "back": 0}
    correct = {"front": 0, "back": 0}
    undecided = 0
    for dec, truth in zip(decisions, truths):
        if truth not in counts:
            raise ValueError(f"truth label {truth!r} must be front or back")
        pred = dec.predicted if isinstance(dec, SegmentDecision) else dec
        undecided += pred is None
        counts[truth] += 1
        correct[truth] += pred == truth
    def acc(cls):
        return 100.0 * correct[cls] / counts[cls] if counts[cls] else None
    total = counts["front"] + counts["back"]
    return ClassificationReport(
        front_accuracy=acc("front"),
        back_accuracy=acc("back"),
        overall_accuracy=100.0 * (correct["front"] + correct["back"]) / total,
        n_front=counts["front"],
        n_back=counts["back"],
        n_undecided=undecided,
    )


@dataclass
class Histogram:
    """Normalized histogram; frequencies sum to 1 over in-range values."""

    bin_centers: np.ndarray
    frequencies: np.ndarray
    n_out_of_range: int


def normalized_histogram(values, bin_width: float, value_range) -> Histogram:
    """Fixed-width histogram over `value_range`; out-of-range values counted."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values to histogram")
    lo, hi = value_range
    if hi <= lo:
        raise ValueError("empty value range")
    if (hi - lo) / bin_width > MAX_HISTOGRAM_BINS:
        raise ValueError(f"more than {MAX_HISTOGRAM_BINS} bins of width {bin_width:g}")
    n_bins = int(np.ceil((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(n_bins + 1)
    in_range = values[(values >= lo) & (values < edges[-1])]
    counts, _ = np.histogram(in_range, bins=edges)
    freqs = counts / in_range.size if in_range.size else counts.astype(float)
    centers = edges[:-1] + bin_width / 2.0
    return Histogram(centers, freqs, int(values.size - in_range.size))
