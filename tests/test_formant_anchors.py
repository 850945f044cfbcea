"""`sigproc.formant_anchors` against the companion-matrix roots it stands in for.

The oracle is `formant_candidates(polynomial_roots(a), fs)`: every row must
give its candidate count and NaN pattern exactly, and its frequencies and
bandwidths within 1e-8 Hz; the rows the primitive leaves to
`polynomial_roots` must give the oracle bit for bit; and a row must give the
same anchors alone as inside any stack. On the acceptance corpus, clean and
under white and babble noise, the share of rows left to `polynomial_roots`
is bounded: a wrong Schur-Cohn count or a duplicate root that is not dropped
sends far more rows there. The frame pipeline, anchored either way, must
read every frame the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STACK_HEIGHTS, analyse, frames_of, segment_audio
from specvalley import classify, sigproc
from specvalley.sigproc import (
    autocorrelation,
    formant_anchors,
    formant_candidates,
    levinson_rows,
    polynomial_roots,
    window,
)
from test_frame_table import _close_resonances

FS = 16000.0
RHO = np.exp(-np.pi * sigproc.MAX_BANDWIDTH / FS)
TOL_HZ = 1e-8
BLOCK_SEGMENTS = 20  # segments per frame_pipeline call, about STACK_FRAMES frames
# criterion 8's conditions (40, 25 and 20 dB), and 0 dB, where babble leaves
# the most rows to polynomial_roots; with the share of rows each may leave
# there (measured: 2.0 % clean, white 1.4-3.8 % and 0.03 % at 0 dB, babble
# 2.1-2.9 % and 6.6 % at 0 dB)
FALLBACK_SHARE = {"clean": 0.03, "white 40": 0.05, "white 25": 0.05, "white 20": 0.05,
                  "white 0": 0.01, "babble 40": 0.05, "babble 25": 0.05, "babble 20": 0.05,
                  "babble 0": 0.09}


def _eigvals_anchors(a, reflection, sample_rate):
    return formant_candidates(polynomial_roots(a), sample_rate)


def _assert_matches_the_oracle(got, expected):
    freqs, bws, counts = got
    assert np.array_equal(counts, expected[2])
    assert np.array_equal(np.isnan(freqs), np.isnan(expected[0]))
    assert np.array_equal(np.isnan(bws), np.isnan(expected[1]))
    assert np.nanmax(np.abs(freqs - expected[0]), initial=0.0) <= TOL_HZ
    assert np.nanmax(np.abs(bws - expected[1]), initial=0.0) <= TOL_HZ


def _same(x, y):
    return all(np.array_equal(u, v, equal_nan=True) for u, v in zip(x, y))


def _record_eigvals_calls(mp):
    """The list of stacks sigproc sends to `polynomial_roots` from now on."""
    sent = []
    mp.setattr(sigproc, "polynomial_roots", lambda c: sent.append(c) or polynomial_roots(c))
    return sent


def _rows_sent(a, sent):
    """Indices into `a` of the rows in the recorded stacks."""
    row_of = {row.tobytes(): i for i, row in enumerate(a)}
    return np.array([row_of[row.tobytes()] for c in sent for row in c], dtype=int)


def _pipeline_columns(blocks, cfg):
    tables = [analyse(block, cfg) for block in blocks]
    return {name: np.concatenate([getattr(t, name) for t in tables])
            for name in ("reason", "counts", "v1", "v2", "freqs", "bandwidths")}


def _corpus_blocks(condition, corpus_table, noisy_corpus):
    """The corpus audio under a condition ("clean", or "<noise> <snr>"), in
    blocks of BLOCK_SEGMENTS segments."""
    mix = None
    if condition != "clean":
        kind, snr = condition.split()
        mix = noisy_corpus(kind, float(snr))
    audio = segment_audio(corpus_table, mix)
    return [audio[i:i + BLOCK_SEGMENTS] for i in range(0, len(audio), BLOCK_SEGMENTS)]


# the conditions whose anchored stacks the Newton test reads again
NEWTON_CONDITIONS = ("clean", "white 0", "babble 0")


@pytest.fixture(scope="module")
def anchored_stacks():
    """condition -> the stacks the pipeline sent to `formant_anchors` under it,
    kept by `both_ways` for NEWTON_CONDITIONS alone, so each condition is
    analysed once and only one condition's full result is held at a time."""
    return {}


def _analyse(condition, corpus_table, noisy_corpus, anchored_stacks):
    result = _anchored_both_ways(_corpus_blocks(condition, corpus_table, noisy_corpus))
    if condition in NEWTON_CONDITIONS:
        anchored_stacks[condition] = [a for a, _, _ in result[2]["anchors"]]
    return result


@pytest.fixture(scope="module", params=list(FALLBACK_SHARE))
def both_ways(request, corpus_table, noisy_corpus, anchored_stacks):
    return (request.param,
            *_analyse(request.param, corpus_table, noisy_corpus, anchored_stacks))


def _anchored_both_ways(blocks):
    """(anchored, reference, calls, sent): the pipeline's columns anchored by
    `formant_anchors` and at eigvals, every anchor call's input and output, and
    the stacks sent to eigvals."""
    cfg = classify.PipelineConfig()
    calls = {"anchors": [], "eigvals": []}

    def recorded(name, anchors):
        def call(a, reflection, sample_rate):
            out = anchors(a, reflection, sample_rate)
            calls[name].append((a, reflection, out))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "formant_anchors", recorded("anchors", formant_anchors))
        sent = _record_eigvals_calls(mp)
        anchored = _pipeline_columns(blocks, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "formant_anchors", recorded("eigvals", _eigvals_anchors))
        reference = _pipeline_columns(blocks, cfg)
    return anchored, reference, calls, sent


def test_anchors_equal_the_eigvals_gating_on_the_corpus(both_ways):
    condition, _, _, calls, sent = both_ways
    a = np.concatenate([call[0] for call in calls["anchors"]])
    assert len(a) > 6000
    # the pipeline fed both anchor steps the same fitted rows
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(calls["anchors"], calls["eigvals"]))
    got, expected = ([np.concatenate(col) for col in zip(*[call[2] for call in calls[name]])]
                     for name in ("anchors", "eigvals"))
    _assert_matches_the_oracle(got, expected)

    left = _rows_sent(a, sent)
    assert _same([x[left] for x in got], [x[left] for x in expected])
    assert left.size <= FALLBACK_SHARE[condition] * len(a), (condition, left.size)


def test_pipeline_reads_each_frame_as_when_anchored_at_eigvals(both_ways):
    _, anchored, reference, _, _ = both_ways
    for name in ("reason", "counts", "v1", "v2"):
        assert np.array_equal(anchored[name], reference[name], equal_nan=True), name
    _assert_matches_the_oracle(
        (anchored["freqs"], anchored["bandwidths"], anchored["counts"]),
        (reference["freqs"], reference["bandwidths"], reference["counts"]))
    assert np.count_nonzero(anchored["reason"] == classify.VALID) > 0.6 * len(anchored["reason"])


PREFIX_ROWS = 3 * classify.STACK_FRAMES  # corpus rows stacked at every height


@pytest.fixture(scope="module")
def corpus_fit(clean_segment_features):
    """The order-18 Levinson fit of every frame of the acceptance corpus, the
    rows held alone (the first PREFIX_ROWS, then every 8th), and the anchors
    of each as a one-row stack, stacked."""
    cfg = classify.PipelineConfig()
    frames = np.concatenate([frames_of(audio, cfg) for _, _, audio in clean_segment_features])
    fit = levinson_rows(autocorrelation(window(frames), 18), 18)
    assert not fit.stage.any()
    rows = np.concatenate([np.arange(PREFIX_ROWS), np.arange(PREFIX_ROWS, len(fit.a), 8)])
    alone = [formant_anchors(fit.a[i:i + 1], fit.reflection[i:i + 1], FS) for i in rows]
    return fit, rows, [np.concatenate(column) for column in zip(*alone)]


@pytest.mark.parametrize("height", STACK_HEIGHTS + (classify.STACK_FRAMES,))
def test_a_corpus_row_gives_the_same_anchors_alone(corpus_fit, height):
    # the first PREFIX_ROWS rows in stacks of `height` (one empty stack for
    # 0), and every row of the corpus in STACK_FRAMES stacks
    fit, rows, alone = corpus_fit
    end = len(fit.a) if height == classify.STACK_FRAMES else PREFIX_ROWS
    for first in range(0, end, height) if height else [0]:
        stacked = formant_anchors(fit.a[first:first + height], fit.reflection[first:first + height], FS)
        assert len(stacked[2]) == len(fit.a[first:first + height])
        held = (rows >= first) & (rows < first + height)
        assert _same([x[rows[held] - first] for x in stacked], [x[held] for x in alone])


def _out_of_place_newton(a, rows, z):
    """`sigproc._newton_roots` with every Horner product and sum out of place,
    each float tap cast to complex as it is added; kept as its exact reference."""
    roots = np.full(z.shape, np.nan, dtype=np.complex128)
    seed = np.arange(z.size)
    taps = np.ascontiguousarray(a[rows].T)
    for _ in range(sigproc.NEWTON_STEPS):
        if not seed.size:
            break
        p, dp = taps[0] + 0j, np.zeros(seed.size, dtype=np.complex128)
        for tap in taps[1:]:
            dp = dp * z + p
            p = p * z + tap
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = p / dp
            z = z - step
            settled = np.abs(step) <= 1e-13 * np.abs(z)
        roots[seed[settled]] = z[settled]
        going = ~settled & np.isfinite(z)
        seed, z, taps = seed[going], z[going], taps[:, going]
    return roots


def _assert_newton_equals_the_reference(a, rows, z):
    got = sigproc._newton_roots(a, rows, z)
    assert got.dtype == np.complex128 and got.shape == z.shape
    assert np.array_equal(got, _out_of_place_newton(a, rows, z), equal_nan=True)


@pytest.mark.parametrize("condition", NEWTON_CONDITIONS)
def test_newton_equals_the_out_of_place_horner_on_the_corpus(
        condition, corpus_table, noisy_corpus, anchored_stacks):
    # the stacks the pipeline anchored under the condition; analysed here only
    # when the corpus tests above did not run
    if condition not in anchored_stacks:
        _analyse(condition, corpus_table, noisy_corpus, anchored_stacks)
    fitted = anchored_stacks[condition]
    assert sum(len(a) for a in fitted) > 6000
    for a in fitted:
        _assert_newton_equals_the_reference(a, *sigproc._peak_seeds(a))


def test_newton_equals_the_out_of_place_horner_on_one_seed_and_none():
    a = _stack(2, 18, ["close"])
    rows, z = sigproc._peak_seeds(a)
    for k in range(len(z)):
        _assert_newton_equals_the_reference(a, rows[k:k + 1], z[k:k + 1])
    _assert_newton_equals_the_reference(a, rows[:0], z[:0])


def _reflection(a):
    """Reflection coefficients of stable error filters, by the step-down."""
    c = np.array(a, dtype=np.float64)
    p = c.shape[1] - 1
    k = np.empty((len(c), p))
    for m in range(p, 0, -1):
        k[:, m - 1] = c[:, m]
        c[:, :m] = (c[:, :m] - k[:, m - 1, None] * c[:, m:0:-1]) / (1.0 - k[:, m - 1, None] ** 2)
    return k


def _row(rng, order, kind):
    """The roots of one crafted error filter of even order.

    Its conjugate pairs sit one to a sector of (0, pi), so no two roots crowd
    and the companion roots stay accurate to far below 1e-8 Hz. The named
    kind shapes the first pairs: "unit" puts a pair just inside |z| = 1,
    "rho" one just inside or outside the gate's circle |z| = rho, "close" two
    pairs 20 Hz apart, "real" two real roots near +1 and -1.
    """
    pairs = order // 2
    theta = (np.arange(pairs) + rng.uniform(0.2, 0.8, pairs)) * np.pi / pairs
    radius = rng.uniform(0.5, 0.98, pairs)
    if kind == "unit":
        radius[0] = 1.0 - 10.0 ** rng.uniform(-7, -3)
    elif kind == "rho":
        radius[0] = RHO * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7, -3))
    elif kind == "close":
        radius[:2] = rng.uniform(0.9, 0.995)
        theta[1] = theta[0] + 2 * np.pi * 20.0 / FS
    poles = radius * np.exp(1j * theta)
    roots = np.concatenate((poles, poles.conj()))
    if kind == "real":
        near = 1.0 - 10.0 ** rng.uniform(-6, -2, 2)
        roots[0], roots[pairs] = near[0], -near[1]
    return roots


def _stack(seed, order, kinds):
    """One crafted error filter of the given order per kind."""
    rng = np.random.default_rng(seed)
    return np.array([np.real(np.poly(_row(rng, order, kind))) for kind in kinds])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([10, 18, 24]),
       kinds=st.lists(st.sampled_from(["free", "unit", "close", "real", "rho"]),
                      min_size=1, max_size=12))
def test_anchors_equal_the_eigvals_gating_on_crafted_stacks(seed, order, kinds):
    a = _stack(seed, order, kinds)
    reflection = _reflection(a)
    got = formant_anchors(a, reflection, FS)
    _assert_matches_the_oracle(got, _eigvals_anchors(a, reflection, FS))
    for i in range(len(a)):
        alone = formant_anchors(a[i:i + 1], reflection[i:i + 1], FS)
        assert _same([x[i] for x in got], [x[0] for x in alone])


def test_rows_left_to_eigvals_equal_it_bit_for_bit(monkeypatch):
    # close resonances 20 Hz apart at radius 0.99: some frames' seeds miss a root
    cfg = classify.PipelineConfig(lp_order=18)
    frames = np.concatenate([frames_of(_close_resonances(seed), cfg) for seed in range(1, 6)])
    fit = levinson_rows(autocorrelation(window(frames), 18), 18)
    assert not fit.stage.any()
    sent = _record_eigvals_calls(monkeypatch)
    got = formant_anchors(fit.a, fit.reflection, FS)
    expected = _eigvals_anchors(fit.a, fit.reflection, FS)
    _assert_matches_the_oracle(got, expected)
    left = _rows_sent(fit.a, sent)
    assert 0 < left.size < len(fit.a)
    assert _same([x[left] for x in got], [x[left] for x in expected])


def test_seeds_that_reach_one_root_count_it_once(monkeypatch):
    # every seed twice, once mirrored below the real axis: Newton takes the
    # mirrored seed to the mirrored root, which folds onto the other one
    a = _stack(5, 18, ["free", "close", "unit", "real", "rho", "free"])
    reflection = _reflection(a)

    def anchors():
        with monkeypatch.context() as mp:
            sent = _record_eigvals_calls(mp)
            return formant_anchors(a, reflection, FS), sum(len(c) for c in sent)

    once, left_once = anchors()
    seeds = sigproc._peak_seeds

    def seeds_twice(a):
        rows, z = seeds(a)
        return np.concatenate((rows, rows)), np.concatenate((z, z.conj()))

    monkeypatch.setattr(sigproc, "_peak_seeds", seeds_twice)
    twice, left_twice = anchors()
    assert left_once < len(a) and left_twice == left_once
    assert _same(twice, once)


def test_a_row_in_doubt_is_left_to_eigvals(monkeypatch):
    a = _stack(3, 18, ["free", "free", "free"])
    reflection = _reflection(a)
    reflection[1, 4] = 1.0 - 1e-10  # the Levinson fit says a root may sit on |z| = 1
    sent = _record_eigvals_calls(monkeypatch)
    got = formant_anchors(a, reflection, FS)
    assert len(sent) == 1 and np.array_equal(sent[0], a[1:2])
    _assert_matches_the_oracle(got, _eigvals_anchors(a, reflection, FS))


def test_schur_cohn_counts_the_roots_outside_the_unit_circle():
    rng = np.random.default_rng(4)
    checked = 0
    for degree in (1, 2, 5, 10, 18, 24):
        for _ in range(50):
            roots = rng.uniform(0.2, 1.8, degree) * np.exp(1j * rng.uniform(-np.pi, np.pi, degree))
            half = degree // 2
            roots[half:2 * half] = np.conj(roots[:half])  # real coefficients
            if degree % 2:
                roots[-1] = roots[-1].real
            c = np.real(np.poly(roots)) * rng.uniform(0.5, 2.0)
            count, doubtful = sigproc._roots_outside_unit_circle(c[None, :])
            if not doubtful[0]:
                assert count[0] == np.count_nonzero(np.abs(np.roots(c)) > 1.0)
                checked += 1
    assert checked > 0.95 * 6 * 50


def test_no_rows():
    freqs, bws, counts = formant_anchors(np.zeros((0, 19)), np.zeros((0, 18)), FS)
    assert freqs.shape == bws.shape == (0, 18) and counts.shape == (0,)
