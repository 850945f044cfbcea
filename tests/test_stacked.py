"""The stacked (n_frames, ...) analysis agrees with the one-row library calls.

Every stacked routine has a one-row form the rest of the library uses
(`levinson`, `polynomial_roots` on one polynomial, `roots_to_formants`,
`lpc_envelope`, `measure_v1_v2`, `mfcc` on one frame). These tests check the
two agree row by row, including on silent and unstable rows, and that
`frame_pipeline` gives what the frame-at-a-time loop it replaced gave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from specvalley.baseline import mfcc, segment_mfcc_matrix
from specvalley.classify import PipelineConfig, frame_pipeline
from specvalley.envelope import measure_v1_v2, valley_minima
from specvalley.errors import DegenerateInputError, UnstableModelError, ValleyUndefinedError
from specvalley.sigproc import (
    LpcModel,
    autocorrelation,
    formant_anchors,
    formant_candidates,
    frame_signal,
    levinson,
    levinson_failure,
    levinson_rows,
    lpc_envelope,
    lpc_levels,
    polynomial_roots,
    preemphasize,
    roots_to_formants,
    window,
    _unit_circle_table,
)
from specvalley.types import SignalBuffer, power_mean_db

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
        r = autocorrelation(_ar_frame(rng, order), order)
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
        if r[0] <= 0:
            with pytest.raises(DegenerateInputError):
                levinson(r, order, FS)
            assert fit.stage[i] == 1
            continue
        try:
            model = levinson(r, order, FS)
        except UnstableModelError as exc:
            assert fit.stage[i] == exc.stage
            assert levinson_failure(fit, i) == str(exc)
            continue
        assert fit.stage[i] == 0
        assert np.max(np.abs(fit.a[i] - model.a_polynomial)) <= TOL
        assert abs(np.sqrt(max(fit.error[i], 0.0)) - model.gain) <= TOL * model.gain
        fitted.append((i, model))

    rows = np.array([i for i, _ in fitted], dtype=int)
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
    for row, (i, model) in enumerate(fitted):
        one = polynomial_roots(model.a_polynomial)
        assert np.max(np.abs(np.sort_complex(roots[row]) - np.sort_complex(one))) <= TOL
        formants = roots_to_formants(one, FS)
        assert counts[row] == len(formants)
        for k, f in enumerate(formants):
            assert abs(freqs[row, k] - f.frequency) <= TOL * f.frequency
            assert abs(bws[row, k] - f.bandwidth) <= TOL * f.bandwidth
        assert not singular[row]
        env = lpc_envelope(model, N_POINTS)
        assert np.max(np.abs(levels[row] - env.levels_db)) <= TOL
        if len(formants) < 3:
            continue
        try:
            one_v1, one_v2 = measure_v1_v2(env, formants)
        except ValleyUndefinedError:
            assert v1[2][j] or v2[2][j]
        else:
            assert not (v1[2][j] or v2[2][j])
            assert abs(v1[1][j] - mean_db[j] - one_v1.v_db) <= TOL
            assert abs(v2[1][j] - mean_db[j] - one_v2.v_db) <= TOL
            assert grid[v1[0][j]] == one_v1.valley_freq
            assert grid[v2[0][j]] == one_v2.valley_freq
        j += 1


@pytest.fixture(scope="module")
def corpus_lags(clean_segment_features):
    """Order-18 autocorrelation rows of every frame of the acceptance corpus."""
    cfg = PipelineConfig()
    frames = np.concatenate([frame_signal(preemphasize(seg.audio, cfg.preemphasis), cfg.frame_ms,
                                          cfg.overlap_fraction)
                             for _, _, seg in clean_segment_features])
    return autocorrelation(window(frames), 18)


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


def _per_frame_reference(seg, cfg, order):
    """The frame-at-a-time loop `frame_pipeline` replaced, kept as a reference:
    np.dot Levinson and one `formant_anchors` call per frame (the
    autocorrelation was already computed one lag at a time over the stack).
    `test_formant_anchors` anchors the roots to companion-matrix eigenvalues.
    Each frame's envelope is its taps times the cos|sin table, as in
    `lpc_levels`; `test_lpc_levels_match_the_fft_oracle` anchors that to the rfft."""
    frames = window(frame_signal(preemphasize(seg, cfg.preemphasis), cfg.frame_ms,
                                 cfg.overlap_fraction))
    n = frames.shape[1]
    table = _unit_circle_table(order + 1, 512)
    grid = np.linspace(0.0, FS / 2.0, 512)
    lags = np.empty((frames.shape[0], order + 1))
    for k in range(order + 1):
        lags[:, k] = np.einsum("ij,ij->i", frames[:, : n - k], frames[:, k:])
    out = []
    for r in lags:
        if r[0] <= 0:
            out.append((None, None, [], "silent frame"))
            continue
        a = np.zeros(order + 1)
        a[0] = 1.0
        e = r[0]
        ks = np.empty(order)
        for m in range(1, order + 1):
            k = ks[m - 1] = -np.dot(a[:m], r[m:0:-1]) / e
            a[: m + 1] += k * a[m::-1]
            e *= 1.0 - k * k
        freqs, bws, count = formant_anchors(a[None, :], ks[None, :], FS)
        formants = list(zip(freqs[0, : count[0]].tolist(), bws[0, : count[0]].tolist()))
        if len(formants) < 3:
            out.append((None, None, formants, "fewer than three formants"))
            continue
        gain = np.sqrt(max(e, 1e-300))
        re_im = a @ table
        power = gain * gain / (re_im[:512] ** 2 + re_im[512:] ** 2)
        env_db = 10.0 * np.log10(power)
        mean_db = 10.0 * np.log10(np.mean(power))
        vals = []
        for (f_lo, _), (f_hi, _) in ((formants[0], formants[1]), (formants[1], formants[2])):
            lo = int(np.searchsorted(grid, f_lo, side="right"))
            hi = int(np.searchsorted(grid, f_hi, side="left"))
            vals.append(float(env_db[lo:hi].min() - mean_db) if hi - lo >= 2 else None)
        if None in vals:
            out.append((None, None, formants, "valley bracket too narrow"))
        else:
            out.append((vals[0], vals[1], formants[:3], None))
    return out


def _test_segment(seed, noise):
    """Voiced frames, then silence, then white noise, all under extra noise."""
    rng = np.random.default_rng(seed)
    voiced = lfilter([1.0], np.real(np.poly(
        [0.97 * np.exp(1j * t) for t in (0.15, -0.15, 0.6, -0.6, 1.1, -1.1)])),
        rng.standard_normal(2400))
    samples = np.concatenate([voiced, np.zeros(640), rng.standard_normal(960)])
    samples += noise * np.std(voiced) * rng.standard_normal(len(samples))
    return SignalBuffer(samples, FS)


def _features(seg, cfg):
    return [(f.v1_db, f.v2_db, [(x.frequency, x.bandwidth) for x in f.formants], f.fail_reason)
            for f in frame_pipeline(seg, cfg)]


# the stacked pipeline does the same arithmetic as the loop, so it must give
# the same numbers bit for bit, not just within a tolerance

def test_frame_pipeline_equals_the_per_frame_loop():
    seg = _test_segment(4, 0.0)
    cfg = PipelineConfig()
    expected = _per_frame_reference(seg, cfg, 18)
    assert _features(seg, cfg) == expected
    reasons = {reason for *_, reason in expected}
    assert reasons == {None, "silent frame", "fewer than three formants"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 0.3, 3.0]),
       order=st.sampled_from([None, 10, 24]))
def test_frame_pipeline_equals_the_per_frame_loop_on_random_segments(seed, noise, order):
    seg = _test_segment(seed, noise)
    cfg = PipelineConfig(lp_order=order)
    assert _features(seg, cfg) == _per_frame_reference(seg, cfg, cfg.order_for(FS))


def test_unstable_row_reason_matches_levinson_error():
    # the pipeline's "unstable LP fit" reason is built from this text
    lags = np.array([[1.0, 1.2, 0.0], [1.0, 0.5, 0.1]])
    fit = levinson_rows(lags, 2)
    assert list(fit.stage) == [1, 0]
    with pytest.raises(UnstableModelError) as err:
        levinson(lags[0], 2, FS)
    assert str(err.value) == levinson_failure(fit, 0)
    assert err.value.stage == 1


def test_stacked_mfcc_rows_match_single_frames():
    rng = np.random.default_rng(9)
    samples = np.concatenate([rng.standard_normal(1600), np.zeros(640), rng.standard_normal(800)])
    audio = SignalBuffer(samples * 0.1, FS)
    mat = segment_mfcc_matrix(audio)
    frames = frame_signal(preemphasize(audio, 0.97), 20.0, 0.5)
    singles = [mfcc(window(f), FS) for f in frames if np.any(f)]
    assert len(singles) < len(frames)  # the silent frames were skipped
    assert mat.shape == (len(singles), 12)
    assert np.max(np.abs(mat - np.array(singles))) <= 1e-12


def test_stacked_mfcc_rejects_a_zero_row():
    frames = np.random.default_rng(2).standard_normal((3, 320))
    frames[1] = 0.0
    with pytest.raises(DegenerateInputError):
        mfcc(frames, FS)


def test_one_row_levinson_model_is_the_stacked_row():
    r = autocorrelation(_ar_frame(np.random.default_rng(1), 10), 10)
    fit = levinson_rows(r[None, :], 10)
    model = levinson(r, 10, FS)
    assert isinstance(model, LpcModel)
    assert np.array_equal(model.a_polynomial, fit.a[0])
