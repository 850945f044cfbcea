"""The stacked (n_frames, ...) analysis agrees with one-row stacks.

The frame pipeline runs each analysis step on a stack of frames, and the
sweeps and the `f0` study run the same routines on one envelope or one
autocorrelation row as a one-row stack. Each row of a stack must give what
the step gives for that row alone: `levinson_rows`, `lpc_levels`,
`polynomial_roots`, `formant_candidates`, `valley_minima` and `mfcc` on a
one-row input, and `window_peaks` (through `conftest.peak_levels`) with one
nominal frequency per call. These tests check that row by row, including on
silent and unstable rows, and that `frame_pipeline` gives what
`frame_reference.frame_pipeline`, the corpus stage's oracle, gives frame by
frame. The stacks take heights on each side of a `sigproc.CHUNK_ROWS`
boundary, and one block's `frame_pipeline` and `segment_mfcc_matrix` calls
must not hold a grid array of the whole block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import frame_reference
from conftest import STACK_HEIGHTS, frames_of, peak_levels
from specvalley import experiments
from specvalley.baseline import NFFT, mfcc, segment_mfcc_matrix
from specvalley.classify import ENVELOPE_POINTS, STACK_FRAMES, PipelineConfig, frame_pipeline
from specvalley.cli import run
from specvalley.envelope import valley_minima
from specvalley.errors import DegenerateInputError, UnstableModelError
from specvalley.experiments import lp_envelope_of_signal, power_mean_db
from specvalley.sigproc import (
    CHUNK_ROWS,
    autocorrelation,
    formant_candidates,
    frame_signal,
    levinson_failure,
    levinson_rows,
    lpc_levels,
    polynomial_roots,
    preemphasize,
    window,
)

FS = 16000.0
N_POINTS = 512
TOL = 1e-9


def _ar_frame(rng, order, frame_len=320):
    """A Hamming-windowed frame of a stable AR(order) process."""
    poles = []
    for _ in range(order // 2):
        radius = rng.uniform(0.5, 0.995)
        theta = rng.uniform(0.05, np.pi - 0.05)
        poles += [radius * np.exp(1j * theta), radius * np.exp(-1j * theta)]
    if order % 2:
        poles.append(rng.uniform(-0.9, 0.9))
    a_true = np.real(np.poly(poles))
    return window(lfilter([1.0], a_true, rng.standard_normal(frame_len)))


def _lag_stack(rng, order, kinds):
    """Autocorrelation rows: AR frames, silent (all-zero) rows, and rows made
    indefinite by one lag larger than the zero lag."""
    rows = []
    for kind in kinds:
        r = autocorrelation(_ar_frame(rng, order)[None], order)[0]
        if kind == "silent":
            r = np.zeros(order + 1)
        elif kind == "unstable":
            m = int(rng.integers(1, order + 1))
            r[m] = r[0] * rng.uniform(1.01, 2.0) * rng.choice([-1.0, 1.0])
        rows.append(r)
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(2, 20),
    kinds=st.lists(st.sampled_from(["ar", "ar", "silent", "unstable"]), min_size=1, max_size=12),
)
def test_stacked_lp_analysis_matches_one_row_calls(seed, order, kinds):
    rng = np.random.default_rng(seed)
    lags = _lag_stack(rng, order, kinds)
    fit = levinson_rows(lags, order)
    fitted = []
    for i, r in enumerate(lags):
        one = levinson_rows(r[None, :], order)
        assert fit.stage[i] == one.stage[0]
        if r[0] <= 0:
            assert fit.stage[i] == 1
            continue
        if one.stage[0]:
            assert levinson_failure(fit, i) == levinson_failure(one, 0)
            continue
        gain = np.sqrt(max(one.error[0], 0.0))
        assert np.max(np.abs(fit.a[i] - one.a[0])) <= TOL
        assert abs(np.sqrt(max(fit.error[i], 0.0)) - gain) <= TOL * gain
        fitted.append((i, one.a, gain))

    rows = np.array([i for i, _, _ in fitted], dtype=int)
    roots = polynomial_roots(fit.a[rows])
    freqs, bws, counts = formant_candidates(roots, FS)
    gains = np.sqrt(np.maximum(fit.error[rows], 0.0))
    levels, mean_db, singular = lpc_levels(fit.a[rows], gains, N_POINTS)
    grid = np.linspace(0.0, FS / 2.0, N_POINTS)
    three = np.flatnonzero(counts >= 3)
    if three.size:
        f = freqs[three]
        v1 = valley_minima(grid, levels[three], f[:, 0], f[:, 1])
        v2 = valley_minima(grid, levels[three], f[:, 1], f[:, 2])
        mean_db = mean_db[three]

    j = 0
    for row, (i, a, gain) in enumerate(fitted):
        one = polynomial_roots(a)
        assert np.max(np.abs(np.sort_complex(roots[row]) - np.sort_complex(one))) <= TOL
        one_f, one_b, one_n = formant_candidates(one, FS)
        assert counts[row] == one_n[0]
        for k in range(one_n[0]):
            assert abs(freqs[row, k] - one_f[0, k]) <= TOL * one_f[0, k]
            assert abs(bws[row, k] - one_b[0, k]) <= TOL * one_b[0, k]
        assert not singular[row]
        env = lpc_levels(a, np.array([gain]), N_POINTS)
        assert not env.singular[0]
        assert np.max(np.abs(levels[row] - env.levels[0])) <= TOL
        if one_n[0] < 3:
            continue
        one_v1 = valley_minima(grid, env.levels, one_f[:, 0], one_f[:, 1])
        one_v2 = valley_minima(grid, env.levels, one_f[:, 1], one_f[:, 2])
        assert (v1[2][j], v2[2][j]) == (one_v1[2][0], one_v2[2][0])
        if not (one_v1[2][0] or one_v2[2][0]):
            assert abs(v1[1][j] - mean_db[j] - (one_v1[1][0] - env.mean_db[0])) <= TOL
            assert abs(v2[1][j] - mean_db[j] - (one_v2[1][0] - env.mean_db[0])) <= TOL
            assert v1[0][j] == one_v1[0][0]
            assert v2[0][j] == one_v2[0][0]
        j += 1


@pytest.fixture(scope="module")
def corpus_frames(clean_segment_features):
    """The pre-emphasized frames of the acceptance corpus, segment after segment."""
    cfg = PipelineConfig()
    return np.concatenate([frames_of(audio, cfg) for _, _, audio in clean_segment_features])


@pytest.fixture(scope="module")
def corpus_lags(corpus_frames):
    """Order-18 autocorrelation rows of every frame of the acceptance corpus."""
    return autocorrelation(window(corpus_frames), 18)


@pytest.mark.parametrize("order, n_points, stride", [(18, 512, 1), (8, 4096, 8), (10, 1024, 2)])
def test_lpc_levels_match_the_fft_oracle(corpus_lags, order, n_points, stride):
    # every stride-th frame (every frame at the corpus settings), against
    # 20*log10(gain/|rfft of the taps|) and the power mean of those levels;
    # in row chunks to keep the rfft small
    assert len(corpus_lags) == 6167
    fit = levinson_rows(corpus_lags[::stride, : order + 1], order)
    assert not fit.stage.any()
    a, gain = fit.a, np.sqrt(np.maximum(fit.error, 1e-300))
    for rows in np.array_split(np.arange(len(a)), max(1, len(a) * n_points // 2**20)):
        levels, mean_db, singular = lpc_levels(a[rows], gain[rows], n_points)
        mag = np.abs(np.fft.rfft(a[rows], 2 * (n_points - 1), axis=-1))
        oracle = 20.0 * np.log10(gain[rows, None] / mag)
        assert np.array_equal(singular, np.any(mag == 0.0, axis=-1))
        assert not singular.any()
        assert np.max(np.abs(levels - oracle)) <= 1e-9
        assert np.max(np.abs(mean_db - power_mean_db(oracle))) <= 1e-9


def test_a_block_holds_no_grid_of_the_whole_block(corpus_frames):
    # the corpus stage's working set, traced: one STACK_FRAMES block's
    # frame_pipeline call holds more than its input (the windowed copy) and
    # less than one (block, 2 * ENVELOPE_POINTS) float64 grid product, and its
    # segment_mfcc_matrix call less than one (block, NFFT) float64 spectrum
    block = corpus_frames[:STACK_FRAMES].copy()
    calls = (lambda: frame_pipeline(block, FS), lambda: segment_mfcc_matrix(block, FS))
    peaks = []
    for call in calls:
        call()  # the cached tables are built outside the trace
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert block.nbytes < peaks[0] < STACK_FRAMES * 2 * ENVELOPE_POINTS * 8
    assert peaks[1] < STACK_FRAMES * NFFT * 8


def _test_segment(seed, noise, voiced_samples=2400):
    """Voiced frames, then silence, then white noise, all under extra noise."""
    rng = np.random.default_rng(seed)
    voiced = lfilter([1.0], np.real(np.poly(
        [0.97 * np.exp(1j * t) for t in (0.15, -0.15, 0.6, -0.6, 1.1, -1.1)])),
        rng.standard_normal(voiced_samples))
    samples = np.concatenate([voiced, np.zeros(640), rng.standard_normal(960)])
    samples += noise * np.std(voiced) * rng.standard_normal(len(samples))
    return samples, FS


def _features(seg, cfg):
    return frame_reference.rows(frame_pipeline(frames_of(seg, cfg), seg[1], cfg))


# the stacked pipeline does the same arithmetic as the per-frame loop of
# `frame_reference`, so it must give the same numbers bit for bit, not just
# within a tolerance

def _first_frames(samples, height):
    """The samples of the first `height` default 20 ms frames at FS (hop 10 ms)."""
    return samples[:320 + 160 * (height - 1)]


@pytest.mark.parametrize("height", STACK_HEIGHTS + (None,))
def test_frame_pipeline_equals_the_per_frame_loop(height):
    # the test segment (None), and the first `height` frames of one whose
    # voiced start fills the envelope chunks, each frame also read as a
    # one-row stack
    seg = _test_segment(4, 0.0)
    if height is not None:
        seg = (_first_frames(_test_segment(4, 0.0, 12000)[0], height), FS)
    cfg = PipelineConfig()
    expected = frame_reference.frame_pipeline(seg, cfg)
    assert _features(seg, cfg) == expected
    if height is None:
        reasons = {f.fail_reason for f in expected}
        assert reasons == {None, "silent frame", "fewer than three formants"}
        return
    frames = frames_of(seg, cfg)
    assert len(frames) == height
    assert expected == [f for i in range(height)
                        for f in frame_reference.rows(frame_pipeline(frames[i:i + 1], FS, cfg))]
    if height > CHUNK_ROWS:
        assert sum(f.valid for f in expected) > CHUNK_ROWS


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 0.3, 3.0]),
       order=st.sampled_from([None, 10, 24]))
def test_frame_pipeline_equals_the_per_frame_loop_on_random_segments(seed, noise, order):
    seg = _test_segment(seed, noise)
    cfg = PipelineConfig(lp_order=order)
    assert _features(seg, cfg) == frame_reference.frame_pipeline(seg, cfg)


def test_unstable_row_reason_matches_levinson_error(monkeypatch):
    # the pipeline's "unstable LP fit" reason and the f0 study's error are
    # both built from this text
    lags = np.array([[1.0, 1.2, 0.0], [1.0, 0.5, 0.1]])
    fit = levinson_rows(lags, 2)
    assert list(fit.stage) == [1, 0]
    assert levinson_failure(fit, 0) == "reflection coefficient -1.2 outside [-1, 1] at stage 1"
    monkeypatch.setattr(experiments, "autocorrelation", lambda samples, order: lags[:1])
    with pytest.raises(UnstableModelError) as err:
        lp_envelope_of_signal(np.ones((1, 8)), 2)
    assert str(err.value) == levinson_failure(fit, 0)
    assert err.value.stage == 1


@pytest.mark.parametrize("height", STACK_HEIGHTS)
def test_stacked_mfcc_rows_match_single_frames(height):
    rng = np.random.default_rng(9)
    samples = np.concatenate([rng.standard_normal(1600), np.zeros(640), rng.standard_normal(800)])
    samples = _first_frames(np.tile(samples * 0.1, 4), height)
    mat = segment_mfcc_matrix(frames_of((samples, FS)), FS)
    frames = frame_signal(preemphasize(samples, 0.97), FS, 20.0, 0.5)[0]
    assert len(frames) == height
    singles = np.array([mfcc(window(f)[None], FS)[0] for f in frames if np.any(f)]).reshape(-1, 12)
    if height > 12:
        assert len(singles) < len(frames)  # frames 11 and 12 are silent and skipped
    assert np.array_equal(mat, singles)


@pytest.mark.parametrize("rate", [16000.0, 8000.0])
def test_mfcc_matrix_of_the_config_frames_is_the_default_framing(rate):
    # what segment_mfcc_matrix computed when it framed the audio itself with
    # its defaults: 20 ms frames, overlap 0.5, pre-emphasis 0.97
    rng = np.random.default_rng(5)
    samples = np.concatenate([rng.standard_normal(2000), np.zeros(800), rng.standard_normal(900)])
    samples *= 0.1
    frames = frame_signal(preemphasize(samples, 0.97), rate, 20.0, 0.5)[0]
    frames = frames[np.any(frames, axis=1)]
    expected = mfcc(window(frames), rate)
    assert np.array_equal(segment_mfcc_matrix(frames_of((samples, rate)), rate), expected)


def test_stacked_mfcc_rejects_a_zero_row():
    frames = np.random.default_rng(2).standard_normal((3, 320))
    frames[1] = 0.0
    with pytest.raises(DegenerateInputError):
        mfcc(frames, FS)


@pytest.mark.parametrize("height", STACK_HEIGHTS)
def test_one_row_levinson_model_is_the_stacked_row(height):
    # a one-row fit, as the f0 study makes it, is its row of a taller stack bit
    # for bit, and so is the envelope it gives
    rng = np.random.default_rng(1)
    lags = np.array([autocorrelation(_ar_frame(rng, 10)[None], 10)[0]
                     for _ in range(height)]).reshape(height, 11)
    fit = levinson_rows(lags, 10)
    stack = lpc_levels(fit.a, np.sqrt(fit.error), N_POINTS)
    assert stack.levels.shape == (height, N_POINTS)
    for i in range(height):
        one = levinson_rows(lags[i:i + 1], 10)
        for got, stacked in zip(one, fit):
            assert np.array_equal(got[0], stacked[i])
        env = lpc_levels(one.a, np.sqrt(one.error), N_POINTS)
        assert np.array_equal(env.levels[0], stack.levels[i])
        assert env.mean_db[0] == stack.mean_db[i]
        assert env.singular[0] == stack.singular[i]


@pytest.mark.parametrize("argv", [
    ["ocd2", "--f2", "1400", "--b1", "100", "--b2", "200", "--fs", "10000"],
    ["ocd4", "--formants", "500,1500,2500,3500", "--bw", "100", "--fs", "8000", "--step", "25"],
    ["levels", "--case", "a"],
    ["levels", "--case", "b"],
], ids=lambda argv: "-".join(argv[:3]))
def test_peak_pair_call_equals_two_one_peak_calls(argv, monkeypatch, capsys):
    # the sweeps find both peaks of a pair in one (1, 2) `window_peaks` call;
    # on every envelope the README runs measure, that is two (1, 1) calls
    measured = []
    pair_rlsv = experiments._peak_pair_rlsv

    def record(freqs, levels_db, f_lo, f_hi):
        measured.append((freqs, levels_db, f_lo, f_hi))
        return pair_rlsv(freqs, levels_db, f_lo, f_hi)

    monkeypatch.setattr(experiments, "_peak_pair_rlsv", record)
    assert run(argv + ["--no-timestamp"]) == 0
    capsys.readouterr()
    assert measured
    for freqs, levels_db, f_lo, f_hi in measured:
        levels = levels_db[None, :]
        pair = peak_levels(freqs, levels, np.array([[f_lo, f_hi]]))
        for k, f in enumerate((f_lo, f_hi)):
            one = peak_levels(freqs, levels, np.array([[f]]))
            for got, want in zip(pair, one):
                assert np.array_equal(got[:, k], want[:, 0])
