"""The corpus stage as it was before the frame table, kept as the exact reference.

`frame_pipeline` builds one `FrameFeatures` per frame, its formants an (n, 2)
array of (frequency, bandwidth) rows checked by `sigproc.check_formants`, from
the same stacked LP core the table is built from;
`decide_segment` averages the valid frames as Python lists. The table and the
decisions taken from its slices must equal these bit for bit: `rows(table)`
reads a `FrameTable` back as the same `FrameFeatures`. The reference
pre-emphasizes and frames each segment by itself, with the code those steps
had before they worked on segment tables, so the comparison checks
the pre-emphasis and framing of the corpus stage's blocks as well.
"""

import operator
from dataclasses import dataclass

import numpy as np

from specvalley.classify import ENVELOPE_POINTS, PipelineConfig, SegmentDecision
from specvalley.envelope import valley_minima
from specvalley.errors import NoDecisionError
from specvalley.scales import hz_to_bark
from specvalley.sigproc import (
    autocorrelation,
    check_formants,
    formant_anchors,
    frame_length,
    levinson_rows,
    lpc_levels,
    window,
)


@dataclass
class FrameFeatures:
    """Per-frame relative valley levels and the first three formants, an (n, 2)
    array of (frequency, bandwidth) rows."""

    v1_db: float | None
    v2_db: float | None
    formants: np.ndarray
    valid: bool
    fail_reason: str | None = None

    def __eq__(self, other):
        """Field by field, the formants value by value."""
        return ((self.v1_db, self.v2_db, self.valid, self.fail_reason)
                == (other.v1_db, other.v2_db, other.valid, other.fail_reason)
                and np.array_equal(self.formants, other.formants))


def formant_rows(freqs, bandwidths):
    """The (n, 2) array of (frequency, bandwidth) rows of a frame's formants, each
    checked to be positive and finite (no rate, so no Nyquist limit)."""
    check_formants(freqs, bandwidths, np.inf)
    return np.column_stack((freqs, bandwidths))


NO_FORMANTS = np.empty((0, 2))


def rows(table):
    """list[FrameFeatures] of the frames of a `classify.FrameTable`, from its
    columns: a valid frame keeps its first three formants, an invalid one every
    candidate, and the reason text is the table's own `table[i].fail_reason`."""
    out = []
    for i, status in enumerate(table):
        n = int(table.counts[i]) if not status.valid else min(int(table.counts[i]), 3)
        formants = formant_rows(table.freqs[i, :n], table.bandwidths[i, :n])
        if status.valid:
            out.append(FrameFeatures(float(table.v1[i]), float(table.v2[i]), formants, True))
        else:
            out.append(FrameFeatures(None, None, formants, False, status.fail_reason))
    return out


def _levinson_failure(fit, row):
    m = int(fit.stage[row])
    if fit.error[row] <= 0:
        return f"prediction error vanished at stage {m}"
    return f"reflection coefficient {fit.reflection[row, m - 1]:.6g} outside [-1, 1] at stage {m}"


def preemphasize(x, alpha):
    """y[n] = x[n] - alpha*x[n-1], y[0] = x[0], of one segment."""
    y = np.empty_like(x)
    if len(x):
        y[0] = x[0]
        y[1:] = x[1:] - alpha * x[:-1]
    return y


def frame_signal(x, sample_rate, frame_ms, overlap_fraction):
    """The hop-spaced whole frames of one segment, as a read-only view."""
    frame_len = frame_length(frame_ms, sample_rate)
    hop = max(int(round(frame_len * (1.0 - overlap_fraction))), 1)
    count = 0 if len(x) < frame_len else 1 + (len(x) - frame_len) // hop
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(x, (count, frame_len), (hop * step, step),
                                           writeable=False)


def frames(audio, cfg=None):
    """The pre-emphasized frames of one (samples, rate) audio, framed by itself."""
    cfg = cfg or PipelineConfig()
    samples, rate = audio
    return frame_signal(preemphasize(samples, cfg.preemphasis), rate,
                        cfg.frame_ms, cfg.overlap_fraction)


def frame_pipeline(segments, cfg=None):
    """list[FrameFeatures] of every frame of `segments` (one (samples, rate) audio
    or a list of them at one rate), in input order."""
    cfg = cfg or PipelineConfig()
    audios = segments if isinstance(segments, list) else [segments]
    if not audios:
        return []
    fs = audios[0][1]
    order = cfg.order_for(fs)
    stack = np.concatenate([frames(audio, cfg) for audio in audios])
    if stack.shape[0] == 0:
        return []
    lags = autocorrelation(window(stack), order)
    out = [FrameFeatures(None, None, NO_FORMANTS, False, "silent frame") if r0 <= 0 else None
           for r0 in lags[:, 0].tolist()]

    live = np.flatnonzero(lags[:, 0] > 0)
    fit = levinson_rows(lags[live], order)
    for i in np.flatnonzero(fit.stage):
        out[live[i]] = FrameFeatures(
            None, None, NO_FORMANTS, False, f"unstable LP fit: {_levinson_failure(fit, i)}"
        )
    fitted = fit.stage == 0
    live, a, err = live[fitted], fit.a[fitted], fit.error[fitted]

    freqs, bws, counts = formant_anchors(a, fit.reflection[fitted], fs)

    def formants(i, limit=None):
        n = counts[i] if limit is None else min(counts[i], limit)
        return formant_rows(freqs[i, :n], bws[i, :n])

    enough = counts >= 3
    for i in np.flatnonzero(~enough):
        out[live[i]] = FrameFeatures(None, None, formants(i), False, "fewer than three formants")
    rows = np.flatnonzero(enough)
    if rows.size == 0:
        return out

    env_db, mean_db, singular = lpc_levels(a[rows], np.sqrt(np.maximum(err[rows], 1e-300)),
                                           ENVELOPE_POINTS)
    grid = np.linspace(0.0, fs / 2.0, ENVELOPE_POINTS)
    _, v1, narrow1 = valley_minima(grid, env_db, freqs[rows, 0], freqs[rows, 1])
    _, v2, narrow2 = valley_minima(grid, env_db, freqs[rows, 1], freqs[rows, 2])
    v1, v2 = (v1 - mean_db).tolist(), (v2 - mean_db).tolist()
    for j, i in enumerate(rows.tolist()):
        if singular[j]:
            out[live[i]] = FrameFeatures(None, None, formants(i), False, "singular envelope")
        elif narrow1[j] or narrow2[j]:
            out[live[i]] = FrameFeatures(
                None, None, formants(i), False, "valley bracket too narrow"
            )
        else:
            out[live[i]] = FrameFeatures(v1[j], v2[j], formants(i, 3), True)
    return out


def _bark_spacing(lo, hi):
    def spacing(valid, mean_v1, mean_v2):
        return float(np.mean([
            hz_to_bark(f.formants[hi, 0]) - hz_to_bark(f.formants[lo, 0])
            for f in valid
        ]))
    return spacing


# rule -> (statistic, reads_back, default threshold)
DECISION_RULES = {
    "valley": (lambda valid, v1, v2: v1 - v2, operator.gt, 5.0),
    "f3f2_3bark": (_bark_spacing(1, 2), lambda s, t: not s < t, 3.0),
    "f2f1_bark": (_bark_spacing(0, 1), lambda s, t: not s < t, 3.0),
    "v1_only": (lambda valid, v1, v2: v1, operator.gt, 0.0),
    "v2_only": (lambda valid, v1, v2: v2, operator.lt, 0.0),
}


def decide_segment(features, threshold_db=None, rule="valley"):
    """The segment decision from a list of `FrameFeatures`."""
    statistic, reads_back, default = DECISION_RULES[rule]
    valid = [f for f in features if f.valid]
    if not valid:
        raise NoDecisionError("no valid frames in segment")
    mean_v1 = float(np.mean([f.v1_db for f in valid]))
    mean_v2 = float(np.mean([f.v2_db for f in valid]))
    value = statistic(valid, mean_v1, mean_v2)
    thr = default if threshold_db is None else threshold_db
    return SegmentDecision(
        mean_v1=mean_v1,
        mean_v2=mean_v2,
        mean_diff=mean_v1 - mean_v2,
        predicted="back" if reads_back(value, thr) else "front",
        frames_used=len(valid),
        frames_discarded=len(features) - len(valid),
        statistic=value,
    )
