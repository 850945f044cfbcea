"""The frame table against the per-frame oracle, bit for bit.

`frame_reference` builds one `FrameFeatures` per frame and decides each
segment from Python lists. On the acceptance corpus, clean and under the
white and babble 20 dB conditions of the noise harness, every frame of the
table must read back as the reference frame (its values through
`frame_reference.rows`, its status through `table[i]`), and every segment
decision taken from a table slice must equal the reference decision;
crafted segments add the discard reasons the corpus does not reach.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

import frame_reference
from conftest import analyse, segment_audio
from specvalley import classify
from specvalley.classify import REASONS, UNSTABLE, VALID, FrameStatus, FrameTable, decide_segment
from specvalley.sigproc import levinson_failure, levinson_rows

FS = 16000.0
BLOCK_SEGMENTS = 50  # segments per frame_pipeline call: small stacks, several calls
# every rule on the clean corpus; the noisy conditions skip the two spacing
# rules, whose per-frame bark conversions cost more than the rest of the test
RULES = {"clean": tuple(classify.DECISION_RULES), "noisy": ("valley", "v1_only", "v2_only")}


@pytest.fixture(scope="module", params=["clean", "white 20 dB", "babble 20 dB"])
def condition_audio(request, corpus_table, noisy_corpus):
    """(rules, audio of every scored corpus segment) under one condition, with
    the noise seeded as the noise harness of the acceptance gates seeds it."""
    if request.param == "clean":
        return RULES["clean"], segment_audio(corpus_table)
    return RULES["noisy"], segment_audio(corpus_table,
                                         noisy_corpus(request.param.split()[0], 20.0))


def _statuses(features):
    return [(f.valid, f.fail_reason) for f in features]


def _assert_table_is(table, expected):
    # v1, v2, formants, validity and reason text of every frame
    assert frame_reference.rows(table) == expected
    assert list(table) == _statuses(expected)
    invalid = np.array([not f.valid for f in expected])
    assert np.array_equal(np.isnan(table.v1), invalid)
    assert np.array_equal(np.isnan(table.v2), invalid)


def test_table_and_decisions_equal_the_per_frame_reference(condition_audio):
    rules, condition_audio = condition_audio
    cfg = classify.PipelineConfig()
    decided = 0
    for first in range(0, len(condition_audio), BLOCK_SEGMENTS):
        block = condition_audio[first:first + BLOCK_SEGMENTS]
        table = analyse(block, cfg)
        expected = frame_reference.frame_pipeline(block, cfg)
        _assert_table_is(table, expected)
        start = 0
        for audio in block:
            n = len(frame_reference.frames(audio, cfg))
            part, reference = table[start:start + n], expected[start:start + n]
            start += n
            for rule in rules:
                expected_decision = frame_reference.decide_segment(reference, None, rule)
                assert decide_segment(part, None, rule) == expected_decision, rule
                decided += expected_decision is not None
        assert start == len(table)
    assert decided > 0.8 * len(rules) * len(condition_audio)


def _close_resonances(seed):
    """Noise through resonances at 0.12, 0.54, 0.548 and 1.6 rad at 16 kHz: the
    two 20 Hz apart leave some frames a valley bracket under two grid bins."""
    poles = [0.99 * np.exp(1j * t) for t in (0.12, 0.54, 0.548, 1.6)]
    a = np.real(np.poly(poles + [np.conj(p) for p in poles]))
    x = lfilter([1.0], a, np.random.default_rng(seed).standard_normal(4800))
    return x / np.std(x), FS


def test_every_discard_reason_of_the_pipeline_equals_the_reference():
    segments = [_close_resonances(seed) for seed in range(1, 6)]
    segments.insert(2, (np.zeros(1600), FS))
    cfg = classify.PipelineConfig(lp_order=18)
    expected = frame_reference.frame_pipeline(segments, cfg)
    assert {f.fail_reason for f in expected} == {
        None, "silent frame", "fewer than three formants", "valley bracket too narrow"}
    _assert_table_is(analyse(segments, cfg), expected)


def test_rows_slices_and_iteration():
    table = FrameTable.empty(4, 3)
    table.reason[1:] = VALID, REASONS.index("fewer than three formants"), UNSTABLE
    table.v1[1], table.v2[1] = 2.5, -1.5
    table.freqs[1:3] = [500.0, 1500.0, 2500.0], [700.0, 1200.0, np.nan]
    table.bandwidths[1:3] = [80.0, 90.0, 100.0], [60.0, 70.0, np.nan]
    table.counts[1:3] = 3, 2
    table.stage[3], table.reflection[3, 1] = 2, 1.25
    rows = frame_reference.rows(table)
    assert [f.valid for f in rows] == [False, True, False, False]
    assert [f.fail_reason for f in rows] == [
        "silent frame", None, "fewer than three formants",
        "unstable LP fit: reflection coefficient 1.25 outside [-1, 1] at stage 2"]
    assert (rows[1].v1_db, rows[1].v2_db) == (2.5, -1.5)
    assert rows[2].formants.tolist() == [[700.0, 60.0], [1200.0, 70.0]]
    assert list(table) == _statuses(rows) and table[-1] == _statuses(rows)[3]
    assert all(isinstance(status, FrameStatus) for status in table)
    with pytest.raises(IndexError):
        table[4]
    part = table[1:3]
    assert isinstance(part, FrameTable) and frame_reference.rows(part) == rows[1:3]
    assert list(part) == _statuses(rows[1:3])
    assert np.shares_memory(part.v1, table.v1)
    assert len(FrameTable.empty(0, 0)) == 0 and list(FrameTable.empty(0, 0)) == []
    assert frame_reference.rows(FrameTable.empty(0, 0)) == []


def test_failure_text_from_stage_and_reflection_equals_the_error_based_text():
    # rows that are no autocorrelation sequences fail at every stage, in both ways;
    # the scalar recursion, which reads its own error, stops where the stacked
    # fit does, with the same text, and a failed row keeps the error of stage
    # m-1, which is not positive exactly when the rejected k is stored as 0
    rng = np.random.default_rng(8)
    lags = rng.uniform(-1.0, 1.0, (400, 9))
    lags[:, 0] = np.abs(lags[:, 0]) + 0.05
    # a perfectly predictable row: k = -1 at stage 1 leaves no prediction error
    lags[:2] = [1.0, 1.0, 0.5, 0, 0, 0, 0, 0, 0], [2.0, -2.0, 2.0, -2.0, 0, 0, 0, 0, 0]
    fit = levinson_rows(lags, 8)
    failed = np.flatnonzero(fit.stage)
    texts = [levinson_failure(fit, i) for i in failed]
    scalar = [frame_reference.levinson(r, 8) for r in lags]
    assert [failure for _, _, _, failure in scalar] == [
        levinson_failure(fit, i) if fit.stage[i] else None for i in range(len(lags))]
    assert [error for _, error, _, _ in scalar] == fit.error.tolist()
    assert (fit.error[failed] <= 0).tolist() == [
        t.startswith("prediction error vanished") for t in texts]
    assert any(t.startswith("prediction error vanished") for t in texts)
    assert any(t.startswith("reflection coefficient") for t in texts)
    assert len(set(fit.stage[failed].tolist())) > 3
