"""The exact oracle of the corpus stage: per-frame features and segment decisions.

`frame_pipeline` builds one `FrameFeatures` per frame, each segment
pre-emphasized and framed by itself with the code those steps had before they
worked on segment tables. Each frame is fitted by the scalar Levinson
recursion of `levinson`, one `np.dot` per stage, which stops at the stage and
with the reason text of `sigproc.levinson_rows`. The fitted frames are
anchored as one `formant_anchors` stack (`test_formant_anchors` checks the
anchors against the companion-matrix roots, and that a row gives the same
alone as in any stack). Each envelope is the frame's taps times the plain
unit-circle table of `kernel_reference` (`test_lpc_levels_match_the_fft_oracle`
anchors that product to the rfft), and each valley is the bracket minimum of
`kernel_reference.valley_minima`. `decide_segment` averages the valid frames
as Python lists and decides rule by rule.

`rows(table)` reads a `classify.FrameTable` back as the same `FrameFeatures`:
the table, and the decisions taken from its slices, must equal these bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from kernel_reference import unit_circle_table, valley_minima
from specvalley.classify import ENVELOPE_POINTS, PipelineConfig, SegmentDecision
from specvalley.scales import hz_to_bark
from specvalley.sigproc import (
    autocorrelation,
    check_formants,
    formant_anchors,
    frame_length,
    stacked_product,
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


def formant_pairs(freqs, bandwidths, counts):
    """(n, p, 2) (frequency, bandwidth) pairs of an (n, p) stack of formants, the
    first counts[i] of row i checked to be positive and finite (no rate, so no
    Nyquist limit)."""
    read = np.arange(freqs.shape[1]) < counts[:, None]
    check_formants(freqs[read], bandwidths[read], np.inf)
    return np.stack((freqs, bandwidths), axis=-1)


NO_FORMANTS = np.empty((0, 2))


def rows(table):
    """list[FrameFeatures] of the frames of a `classify.FrameTable`, from its
    columns: a valid frame keeps its first three formants, an invalid one every
    candidate, and the reason text is the table's own `table[i].fail_reason`."""
    statuses = list(table)
    counts = np.array([min(n, 3) if status.valid else n
                       for n, status in zip(table.counts.tolist(), statuses)], dtype=int)
    pairs = formant_pairs(table.freqs, table.bandwidths, counts)
    out = []
    for i, status in enumerate(statuses):
        if status.valid:
            out.append(FrameFeatures(float(table.v1[i]), float(table.v2[i]),
                                     pairs[i, :counts[i]], True))
        else:
            out.append(FrameFeatures(None, None, pairs[i, :counts[i]], False,
                                     status.fail_reason))
    return out


def levinson(r, order):
    """(a, error, reflection, failure) of one autocorrelation row r[0..order].

    A row fails at stage m, as in `levinson_rows`, when its prediction error
    is no longer positive or its reflection coefficient has |k| > 1 + 1e-12;
    `failure` is then the reason text, else None.
    """
    a = np.zeros(order + 1)
    a[0] = 1.0
    e = float(r[0])  # Python floats round as float64 scalars do, and cost less
    ks = np.zeros(order)
    flipped = r[order::-1].copy()  # flipped[order - m:order] is r[m], ..., r[1]
    for m in range(1, order + 1):
        if e <= 0:
            return a, e, ks, f"prediction error vanished at stage {m}"
        k = ks[m - 1] = -float(np.dot(a[:m], flipped[order - m:order])) / e
        if abs(k) > 1.0 + 1e-12:
            return a, e, ks, f"reflection coefficient {k:.6g} outside [-1, 1] at stage {m}"
        a[: m + 1] += k * a[m::-1]
        e *= 1.0 - k * k
    return a, e, ks, None


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


@functools.lru_cache(maxsize=8)
def _envelope_table(taps):
    return unit_circle_table(taps, ENVELOPE_POINTS)


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
    out, fitted = [], []
    for i, r in enumerate(autocorrelation(window(stack), order)):
        if r[0] <= 0:
            out.append(FrameFeatures(None, None, NO_FORMANTS, False, "silent frame"))
            continue
        a, e, ks, failure = levinson(r, order)
        if failure:
            out.append(FrameFeatures(None, None, NO_FORMANTS, False,
                                     f"unstable LP fit: {failure}"))
        else:
            out.append(None)
            fitted.append((i, a, e, ks))
    if not fitted:
        return out

    index, a, err, ks = (np.array(column) for column in zip(*fitted))
    freqs, bws, counts = formant_anchors(a, ks, fs)
    re_im = stacked_product(a, _envelope_table(order + 1))
    gain = np.sqrt(np.maximum(err, 1e-300))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        power = (gain * gain)[:, None] / (re_im[:, :ENVELOPE_POINTS] ** 2
                                          + re_im[:, ENVELOPE_POINTS:] ** 2)
        env_db = 10.0 * np.log10(power)
        mean_db = 10.0 * np.log10(np.mean(power, axis=-1))
    finite = np.isfinite(env_db).all(axis=1)
    # the valleys of the rows with three formants and a finite envelope
    judged = (counts >= 3) & finite
    v1, v2 = np.full(len(index), np.nan), np.full(len(index), np.nan)
    narrow = np.ones(len(index), dtype=bool)
    if judged.any():
        grid = np.linspace(0.0, fs / 2.0, ENVELOPE_POINTS)
        f = freqs[judged]
        _, v1[judged], narrow1 = valley_minima(grid, env_db[judged], f[:, 0], f[:, 1])
        _, v2[judged], narrow2 = valley_minima(grid, env_db[judged], f[:, 1], f[:, 2])
        narrow[judged] = narrow1 | narrow2
    pairs = formant_pairs(freqs, bws, counts)
    for j, i in enumerate(index.tolist()):
        formants = pairs[j, : counts[j]]
        if counts[j] < 3:
            out[i] = FrameFeatures(None, None, formants, False, "fewer than three formants")
        elif not finite[j]:
            out[i] = FrameFeatures(None, None, formants, False, "singular envelope")
        elif narrow[j]:
            out[i] = FrameFeatures(None, None, formants, False, "valley bracket too narrow")
        else:
            out[i] = FrameFeatures(float(v1[j] - mean_db[j]), float(v2[j] - mean_db[j]),
                                   formants[:3], True)
    return out


# the rule defaults: dB for the valley rules, bark for the spacing rules
DEFAULT_THRESHOLDS = {"valley": 5.0, "f3f2_3bark": 3.0, "f2f1_bark": 3.0,
                      "v1_only": 0.0, "v2_only": 0.0}


def _spacing(valid, lo, hi):
    """The mean bark distance from formant lo to formant hi over the valid frames."""
    return float(np.mean([hz_to_bark(f.formants[hi, 0]) - hz_to_bark(f.formants[lo, 0])
                          for f in valid]))


def decide_segment(features, threshold=None, rule="valley"):
    """The `SegmentDecision` from a list of `FrameFeatures`, or None when no frame
    is valid (an undecided segment)."""
    valid = [f for f in features if f.valid]
    if not valid:
        return None
    mean_v1 = float(np.mean([f.v1_db for f in valid]))
    mean_v2 = float(np.mean([f.v2_db for f in valid]))
    thr = DEFAULT_THRESHOLDS[rule] if threshold is None else threshold
    if rule == "valley":
        statistic = mean_v1 - mean_v2
        predicted = "back" if statistic > thr else "front"
    elif rule in ("f3f2_3bark", "f2f1_bark"):
        statistic = _spacing(valid, *((1, 2) if rule == "f3f2_3bark" else (0, 1)))
        predicted = "front" if statistic < thr else "back"
    elif rule == "v1_only":
        statistic = mean_v1
        predicted = "back" if statistic > thr else "front"
    else:
        statistic = mean_v2
        predicted = "back" if statistic < thr else "front"
    return SegmentDecision(mean_v1=mean_v1, mean_v2=mean_v2, mean_diff=mean_v1 - mean_v2,
                           predicted=predicted, frames_used=len(valid),
                           frames_discarded=len(features) - len(valid), statistic=statistic)
