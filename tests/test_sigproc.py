import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from cascade_reference import analytic_cascade_spectrum
from conftest import cascade_rows, peak_levels
from specvalley import experiments
from specvalley import synth as synth_module
from specvalley.errors import DegenerateInputError, NumericFailureError, SingularEnvelopeError
from specvalley.experiments import lp_envelope_of_signal
from specvalley.sigproc import (
    MAX_BANDWIDTH,
    MIN_FREQUENCY,
    NYQUIST_MARGIN,
    autocorrelation,
    cascade_levels,
    check_formants,
    formant_anchors,
    formant_candidates,
    frame_length,
    frame_signal,
    levinson_failure,
    levinson_rows,
    lpc_levels,
    polynomial_roots,
    preemphasize,
    resonator_taps,
    window,
)
from test_formant_anchors import _reflection


class TestPreemphasize:
    def test_zero_alpha_is_identity(self):
        x = np.array([0.3, -0.2, 0.9])
        assert np.array_equal(preemphasize(x, 0.0), x)

    def test_direct_formula(self):
        y = preemphasize(np.array([1.0, 1.0, 1.0]), 0.97)
        assert np.allclose(y, [1.0, 0.03, 0.03])

    def test_near_one_alpha_cancels_constant(self):
        eps = 1e-3
        y = preemphasize(np.full(10, 2.0), 1.0 - eps)
        assert np.allclose(y[1:], eps * 2.0)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            preemphasize(np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            preemphasize(np.array([1.0]), -0.1)

    def test_each_segment_restarts_as_if_alone(self):
        x = np.random.default_rng(3).standard_normal(700)
        starts = [0, 200, 201, 450]
        y = preemphasize(x, 0.97, starts)
        for a, b in zip(starts, starts[1:] + [len(x)]):
            assert np.array_equal(y[a:b], preemphasize(x[a:b], 0.97))
        assert len(preemphasize(np.empty(0), 0.97, [0])) == 0


@pytest.mark.parametrize("sample_rate", [0.0, -8000.0, float("nan"), float("inf")])
def test_frame_signal_rate_must_be_finite_and_positive(sample_rate):
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        frame_signal(np.zeros(4), sample_rate, 20.0, 0.5)


class TestFrameSignal:
    def test_hundred_ms_gives_nine_frames(self):
        frames, counts = frame_signal(np.zeros(1600), 16000.0, 20.0, 0.5)
        assert frames.shape == (9, 320) and counts.tolist() == [9]

    def test_exact_frame_gives_one(self):
        assert frame_signal(np.zeros(320), 16000.0, 20.0, 0.5)[0].shape[0] == 1

    def test_short_signal_gives_zero_frames(self):
        frames, counts = frame_signal(np.zeros(304), 16000.0, 20.0, 0.5)
        assert frames.shape == (0, 320) and counts.tolist() == [0]

    @pytest.mark.parametrize("frame_ms, rate", [
        (1e308, 16000.0), (1e20, 16000.0), (float("nan"), 16000.0), (1000.0, 2.0**63),
    ])
    def test_frame_beyond_an_int64_count_is_refused(self, frame_ms, rate):
        # a corpus gives its rates as NumPy floats, whose overflow would warn;
        # at 1000 ms the count is the rate, and 2**63 is one past int64's range
        with pytest.raises(ValueError, match="does not fit an int64 sample count"):
            frame_length(frame_ms, np.float64(rate))

    def test_largest_frame_is_the_largest_int64_float(self):
        assert frame_length(1000.0, 2.0**63 - 1024) == 2**63 - 1024

    def test_frames_tile_the_signal(self):
        frames, _ = frame_signal(np.arange(1600.0), 16000.0, 20.0, 0.5)
        assert np.array_equal(frames[1], np.arange(160.0, 480.0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            frame_signal(np.zeros(100), 16000.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            frame_signal(np.zeros(100), 16000.0, 20.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 4000), frame_ms=st.floats(0.5, 60.0),
           rate=st.sampled_from([8000.0, 10000.0, 16000.0, 22050.0, 44100.0]),
           overlap=st.floats(0.0, 0.99), stride=st.sampled_from([1, 2]))
    def test_frames_are_the_hop_spaced_slices(self, n, frame_ms, rate, overlap, stride):
        # signals shorter than one frame included, and samples that are a strided view
        samples = np.arange(float(n * stride))[::stride]
        frames, counts = frame_signal(samples, rate, frame_ms, overlap)
        frame_len = int(round(frame_ms / 1000.0 * rate))
        hop = max(int(round(frame_len * (1.0 - overlap))), 1)
        starts = range(0, n - frame_len + 1, hop)
        assert frames.shape == (len(starts), frame_len) and counts.tolist() == [len(starts)]
        assert all(np.array_equal(row, samples[i:i + frame_len]) for row, i in zip(frames, starts))
        assert not np.shares_memory(frames, samples)  # a copy: writing it leaves x as it is

    @settings(max_examples=100, deadline=None)
    @given(cuts=st.lists(st.integers(0, 3000), max_size=8), gap=st.integers(0, 50),
           frame_ms=st.floats(1.0, 40.0), overlap=st.floats(0.0, 0.9))
    def test_segments_are_framed_as_if_alone(self, cuts, gap, frame_ms, overlap):
        # segments of any length, none and empty ones included, with samples between them
        samples = np.arange(float(sum(cuts) + gap * len(cuts)))
        stops = np.cumsum(np.array(cuts, dtype=int) + gap)
        spans = np.column_stack([stops - cuts, stops]).reshape(-1, 2)
        frames, counts = frame_signal(samples, 8000.0, frame_ms, overlap, spans)
        alone = [frame_signal(samples[a:b], 8000.0, frame_ms, overlap) for a, b in spans]
        assert counts.tolist() == [c[0] for _, c in alone]
        expected = np.concatenate([f for f, _ in alone] + [frames[:0]])
        assert np.array_equal(frames, expected)


class TestWindow:
    def test_hamming_endpoints(self):
        w = window(np.ones(64))
        assert abs(w[0] - 0.08) < 1e-12
        assert abs(w[-1] - 0.08) < 1e-12

    def test_all_ones_returns_the_window(self):
        n = 32
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
        assert np.allclose(window(np.ones(n)), expected)


class TestAutocorrelation:
    def test_impulse(self):
        assert np.allclose(autocorrelation(np.array([[1.0, 0.0, 0.0]]), 1), [[1.0, 0.0]])

    def test_two_ones(self):
        assert np.allclose(autocorrelation(np.array([[1.0, 1.0]]), 1), [[2.0, 1.0]])

    def test_matches_brute_force_and_peak_at_zero_lag(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        r = autocorrelation(x[None], 10)[0]
        brute = np.array(
            [sum(x[n] * x[n + k] for n in range(64 - k)) for k in range(11)]
        )
        assert np.allclose(r, brute, atol=1e-12)
        assert np.all(r[0] >= np.abs(r))

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones((1, 4)), 4)

    def test_one_frame_is_a_one_row_stack(self):
        with pytest.raises(ValueError, match=r"\(n_frames, frame_len\) stack"):
            autocorrelation(np.ones(4), 1)


class TestLevinson:
    """Levinson-Durbin as `levinson_rows` runs it, on one-row stacks: the
    predictor is -a[1:], the gain^2 the prediction error."""

    def test_one_step_normal_equation(self):
        fit = levinson_rows(np.array([[1.0, 0.5]]), 1)
        assert np.allclose(-fit.a[0, 1:], [0.5])
        assert abs(fit.error[0] - 0.75) < 1e-12

    def test_white_input(self):
        fit = levinson_rows(np.array([[1.0, 0.0, 0.0, 0.0]]), 3)
        assert np.allclose(fit.a[0, 1:], 0.0)
        assert abs(np.sqrt(fit.error[0]) - 1.0) < 1e-12

    def test_recovers_ar10_coefficients(self):
        rng = np.random.default_rng(12)
        # stable AR(10) built from poles well inside the unit circle
        poles = []
        for k in range(5):
            r = rng.uniform(0.6, 0.92)
            th = rng.uniform(0.2, np.pi - 0.2)
            poles += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        a_true = np.real(np.poly(poles))  # [1, a1, ..., a10] error filter
        x = lfilter([1.0], a_true, rng.standard_normal(400000))
        r = autocorrelation(x[None], 10)[0] / len(x)
        assert np.allclose(levinson_rows(r[None, :], 10).a[0], a_true, atol=1e-2)
        # exactness check against the analytic autocorrelation route
        r_exact = autocorrelation(lfilter([1.0], a_true, np.eye(1, 4096, 0)), 10)[0]
        assert np.allclose(levinson_rows(r_exact[None, :], 10).a[0], a_true, atol=1e-6)

    def test_matches_dense_toeplitz_solve(self):
        rng = np.random.default_rng(5)
        x = lfilter([1.0], [1.0, -0.6, 0.3], rng.standard_normal(8192))
        for order in (2, 8, 20):
            r = autocorrelation(x[None], order)[0]
            fit = levinson_rows(r[None, :], order)
            dense = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
            assert np.max(np.abs(-fit.a[0, 1:] - dense)) < 1e-9

    def test_degenerate_and_unstable_inputs(self):
        fit = levinson_rows(np.array([[0.0, 0.0], [1.0, 1.2]]), 1)
        assert fit.stage.tolist() == [1, 1]
        assert levinson_failure(fit, 0) == "prediction error vanished at stage 1"
        assert levinson_failure(fit, 1) == "reflection coefficient -1.2 outside [-1, 1] at stage 1"
        # the LP envelope of the f0 study raises on the silent row
        with pytest.raises(DegenerateInputError):
            lp_envelope_of_signal(np.zeros((1, 64)), 1)

    @pytest.mark.parametrize("sample_rate", [0.0, -8000.0, float("nan")])
    def test_lp_envelope_rate_must_be_positive(self, sample_rate, monkeypatch):
        # the f0 study rejects the rate of its LP envelopes before it synthesizes
        def unreachable(*args, **kwargs):
            raise AssertionError("synthesized at a bad rate")

        monkeypatch.setattr(synth_module, "synthesize_cascades", unreachable)
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            experiments.f0_influence_experiment(
                np.array([(700.0, 100.0), (1300.0, 100.0)]), sample_rate=sample_rate)

    def test_lp_envelope_is_the_one_row_lpc_levels(self):
        # (levels, mean_db) of the f0 study are those `lpc_levels` gives, bit for bit
        x = cascade_rows(np.array([(700.0, 100.0), (1300.0, 100.0)]),
                         [120.0], 8000.0, 4000)[0]
        levels, mean_db = lp_envelope_of_signal(x[None], 8)
        fit = levinson_rows(autocorrelation(x[None], 8), 8)
        env = lpc_levels(fit.a, np.sqrt(fit.error), experiments.GRID_POINTS)
        assert np.array_equal(levels[0], env.levels[0])
        assert mean_db[0] == env.mean_db[0]

    @pytest.mark.parametrize("half_length, order", [(8, 8), (24, 8), (199, 30), (4095, 12),
                                                    (100000, 40)])
    def test_lag_window_is_the_middle_of_a_hamming_window(self, half_length, order):
        # the taps L .. L + order of np.hamming(2L + 1), bit for bit, without the rest
        x = cascade_rows(np.array([(700.0, 100.0), (1300.0, 100.0)]),
                         [120.0], 8000.0, 4000)
        taps = np.hamming(2 * half_length + 1)[half_length:half_length + order + 1]
        fit = levinson_rows(autocorrelation(x, order) * taps, order)
        env = lpc_levels(fit.a, np.sqrt(fit.error), experiments.GRID_POINTS)
        levels, mean_db = lp_envelope_of_signal(x, order, half_length)
        assert np.array_equal(levels, env.levels) and np.array_equal(mean_db, env.mean_db)

    def test_lag_window_of_the_largest_int64_half_length_is_flat(self):
        x = cascade_rows(np.array([(700.0, 100.0), (1300.0, 100.0)]),
                         [120.0], 8000.0, 4000)
        for got, want in zip(lp_envelope_of_signal(x, 8, 2**63 - 1), lp_envelope_of_signal(x, 8)):
            assert np.array_equal(got, want)


def test_cascade_levels_of_a_stack_are_its_row_sums():
    # the calibration sums (n, 3, W) terms; each window sums as it would alone
    rng = np.random.default_rng(4)
    terms = [rng.normal(0.0, 20.0, (5, 3, 17)) for _ in range(6)]
    levels = cascade_levels(terms, (5, 3, 17))
    for r in range(5):
        for j in range(3):
            assert np.array_equal(levels[r, j], cascade_levels([t[r, j] for t in terms], 17))
    for bad in (np.inf, -np.inf, np.nan):
        terms[3][2, 1, 5] = bad
        with pytest.raises(ValueError, match="envelope levels must be finite"):
            cascade_levels(terms, (5, 3, 17))


class TestLpcEnvelope:
    """dB envelopes of error filters as `lpc_levels` gives them, on one-row stacks."""

    def test_order_zero_model_is_flat(self):
        env = lpc_levels(np.ones((1, 1)), np.array([2.0]), 128)
        assert np.allclose(env.levels[0], 20 * np.log10(2.0))

    def test_gain_doubling_shifts_by_6db(self):
        one = lpc_levels(np.ones((1, 1)), np.array([1.0]), 128).levels[0]
        two = lpc_levels(np.ones((1, 1)), np.array([2.0]), 128).levels[0]
        assert np.allclose(two - one, 20 * np.log10(2.0), atol=1e-9)

    def test_tracks_single_resonator_peak(self):
        fs = 8000.0
        x = cascade_rows(np.array([(1400.0, 150.0)]), [0.0], fs, 4096)[0]
        fit = levinson_rows(autocorrelation(x[None], 2), 2)
        levels = lpc_levels(fit.a, np.sqrt(fit.error), 1024).levels[0]
        freqs = np.linspace(0.0, fs / 2.0, 1024)
        peak = freqs[np.argmax(levels)]
        assert abs(peak - 1400.0) <= freqs[1] - freqs[0]

    def test_tracks_cascade_peaks_within_one_bin(self):
        # order 2*(#formants) + 2 fitted to a cascade impulse response
        fs = 8000.0
        fm = np.array([(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)])
        x = cascade_rows(fm, [0.0], fs, 8192)[0]
        fit = levinson_rows(autocorrelation(x[None], 10), 10)
        freqs, levels_an = analytic_cascade_spectrum(fm, fs, 1024)
        levels = np.array([lpc_levels(fit.a, np.sqrt(fit.error), 1024).levels[0],
                           levels_an])
        nominal = np.tile(fm[:, 0], (2, 1))
        peaks, _, missing = peak_levels(freqs, levels, nominal)
        assert not missing.any()
        assert np.all(np.abs(peaks[0] - peaks[1]) <= freqs[1] - freqs[0])

    def test_pole_on_grid_raises(self, monkeypatch):
        # A(z) = 1 - z^-1 vanishes at DC; r = [1, 1] fits it with k = -1
        assert lpc_levels(np.array([[1.0, -1.0]]), np.ones(1), 128).singular[0]
        monkeypatch.setattr(experiments, "autocorrelation", lambda x, order: np.ones((1, 2)))
        with pytest.raises(SingularEnvelopeError):
            lp_envelope_of_signal(np.ones((1, 8)), 1)

    def test_root_at_nyquist_raises(self, monkeypatch):
        # A(z) = 1 + z^-1 vanishes at Nyquist; r = [1, -1] fits it with k = 1
        assert lpc_levels(np.array([[1.0, 1.0]]), np.ones(1), 128).singular[0]
        monkeypatch.setattr(experiments, "autocorrelation",
                            lambda x, order: np.array([[1.0, -1.0]]))
        with pytest.raises(SingularEnvelopeError):
            lp_envelope_of_signal(np.ones((1, 8)), 1)

    @pytest.mark.parametrize("n_points", [64, 128, 512, 1024, 4096])
    def test_singular_rows_are_the_rows_the_rfft_finds_a_zero_in(self, n_points):
        # roots at DC, at Nyquist, each times another factor, and no root on the grid
        a = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                      [1.0, -0.5, -0.5, 0.0], [1.0, 0.5, -0.25, 0.25],
                      [1.0, 0.5, 0.0, 0.0]])
        mag = np.abs(np.fft.rfft(a, 2 * (n_points - 1), axis=-1))
        singular = lpc_levels(a, np.ones(len(a)), n_points).singular
        assert np.array_equal(singular, np.any(mag == 0.0, axis=-1))
        assert singular.tolist() == [True, True, True, True, False]

    def test_min_points(self):
        with pytest.raises(ValueError):
            lpc_levels(np.ones((1, 1)), np.ones(1), 32)


class TestPolynomialRoots:
    def test_simple_quadratics(self):
        r = sorted(polynomial_roots([[1.0, 0.0, -1.0]])[0], key=lambda z: z.real)
        assert np.allclose(r, [-1.0, 1.0])
        r = sorted(polynomial_roots([[1.0, 0.0, 1.0]])[0], key=lambda z: z.imag)
        assert np.allclose(r, [-1j, 1j])

    def test_degree_18_reconstruction(self):
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(19)
        coeffs[0] = 1.0
        roots = polynomial_roots(coeffs[None])[0]
        rebuilt = np.real_if_close(np.poly(roots), tol=1e6)
        assert np.max(np.abs(rebuilt - coeffs)) / np.max(np.abs(coeffs)) < 1e-8

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            polynomial_roots([[2.0]])
        with pytest.raises(ValueError):
            polynomial_roots([[0.0, 1.0, 1.0]])
        with pytest.raises(ValueError):  # one polynomial is a one-row stack
            polynomial_roots([1.0, 0.0, -1.0])

    def test_an_eigenvalue_failure_is_a_numeric_failure(self, monkeypatch):
        def failing(companion):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(NumericFailureError) as err:
            polynomial_roots([[1.0, 0.0, -1.0]])
        assert str(err.value) == "eigenvalue iteration failed: Eigenvalues did not converge"


class TestRootsToFormants:
    def test_inverse_of_the_mapping(self):
        fs = 8000.0
        root = np.exp(-np.pi * 100.0 / fs) * np.exp(2j * np.pi * 500.0 / fs)
        freqs, bws, counts = formant_candidates(np.array([root, np.conj(root)])[None], fs)
        assert counts[0] == 1
        assert abs(freqs[0, 0] - 500.0) < 1e-9
        assert abs(bws[0, 0] - 100.0) < 1e-9

    def test_real_roots_emit_nothing(self):
        freqs, _, counts = formant_candidates(np.array([0.9, -0.5])[None], 8000.0)
        assert counts[0] == 0 and np.isnan(freqs).all()

    def test_recovers_synthetic_four_formant_vowel(self):
        fs = 10000.0
        truth = np.array([(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)])
        x = cascade_rows(truth, [0.0], fs, 8192)[0]
        order = 10
        fit = levinson_rows(autocorrelation(x[None], order), order)
        freqs, _, counts = formant_candidates(polynomial_roots(fit.a), fs)
        assert counts[0] >= 3
        for got, want in zip(freqs[0, :3], truth[:3, 0]):
            assert abs(got - want) < 30.0


def _root(frequency, bandwidth, fs):
    return np.exp(-np.pi * bandwidth / fs) * np.exp(2j * np.pi * frequency / fs)


def _gate_bandwidth(root, fs):
    """The bandwidth `formant_candidates` computes for a root."""
    return -fs * np.log(np.hypot(root.real, root.imag)) / np.pi


def _roots_at_the_bandwidth_limit(frequency, fs):
    """(inside, at): neighbouring roots whose gate bandwidths straddle MAX_BANDWIDTH.

    No float64 radius near exp(-pi*MAX_BANDWIDTH/fs) gives a bandwidth of
    exactly MAX_BANDWIDTH, so `at` is the largest radius whose bandwidth
    reaches it and `inside` the next radius up.
    """
    r0 = np.exp(-np.pi * MAX_BANDWIDTH / fs)
    radii = r0 + np.arange(-200, 201) * np.spacing(r0)
    roots = radii * np.exp(2j * np.pi * frequency / fs)
    reach = np.flatnonzero(_gate_bandwidth(roots, fs) >= MAX_BANDWIDTH)
    at = reach[-1]
    assert 0 < at < len(radii) - 1 and _gate_bandwidth(roots[at + 1], fs) < MAX_BANDWIDTH
    return roots[at + 1], roots[at]


class TestFormantGateEdges:
    """The gate keeps F in [MIN_FREQUENCY, fs/2 - NYQUIST_MARGIN] and B < MAX_BANDWIDTH."""

    FS = 16000.0
    # well-separated resonances that always pass, around the root under test
    OTHERS = ((2000.0, 100.0), (3000.0, 120.0), (4500.0, 150.0), (6000.0, 200.0))

    def _edge_roots(self):
        """(root, kept) pairs at each edge of the gate."""
        top = self.FS / 2.0 - NYQUIST_MARGIN
        cases = [
            (_root(MIN_FREQUENCY - 0.01, 100.0, self.FS), False),
            (_root(MIN_FREQUENCY + 0.01, 100.0, self.FS), True),
            (_root(top - 0.01, 100.0, self.FS), True),
            (_root(top + 0.01, 100.0, self.FS), False),
            (_root(1000.0, MAX_BANDWIDTH - 0.01, self.FS), True),
            (_root(1000.0, MAX_BANDWIDTH + 0.01, self.FS), False),
        ]
        inside, at = _roots_at_the_bandwidth_limit(1000.0, self.FS)
        return cases + [(inside, True), (at, False)]

    def test_candidates_keep_or_drop_each_edge_root(self):
        for root, kept in self._edge_roots():
            freqs, bws, counts = formant_candidates(np.array([[root, np.conj(root)]]), self.FS)
            assert counts[0] == kept, (root, _gate_bandwidth(root, self.FS))
            if kept:
                assert freqs[0, 0] == np.angle(root) * self.FS / (2 * np.pi)
                assert bws[0, 0] == _gate_bandwidth(root, self.FS)

    def test_anchors_gate_the_same_on_polynomials_of_the_edge_roots(self):
        # the roots at the bandwidth limit stand one ulp apart, closer than a
        # polynomial keeps them, so only the edges 0.01 Hz away are rebuilt
        others = [_root(f, b, self.FS) for f, b in self.OTHERS]
        for root, kept in self._edge_roots()[:6]:
            pairs = np.array([root] + others)
            a = np.real(np.poly(np.concatenate((pairs, pairs.conj()))))[None, :]
            freqs, bws, counts = formant_anchors(a, _reflection(a), self.FS)
            assert counts[0] == len(others) + kept
            edge = np.angle(root) * self.FS / (2 * np.pi)
            assert np.any(np.abs(freqs[0] - edge) < 1e-6) == kept
            oracle = formant_candidates(polynomial_roots(a), self.FS)
            assert np.array_equal(counts, oracle[2])
            assert np.nanmax(np.abs(freqs - oracle[0])) < 1e-8
            assert np.nanmax(np.abs(bws - oracle[1])) < 1e-8


class TestAnalyticCascadeSpectrum:
    def test_single_resonator_peak_location(self):
        # at the default grid; a digital resonator's magnitude peak sits a
        # few Hz off the pole angle, inside one bin at this resolution
        freqs, levels_db = analytic_cascade_spectrum(np.array([(1400.0, 200.0)]), 10000.0)
        assert abs(freqs[np.argmax(levels_db)] - 1400.0) <= freqs[1] - freqs[0]

    def test_empty_list_is_flat_zero(self):
        _, levels_db = analytic_cascade_spectrum([], 10000.0, 256)
        assert np.allclose(levels_db, 0.0)

    def test_matches_long_impulse_response_spectrum(self):
        fs = 10000.0
        formants = np.array([(750.0, 100.0), (1400.0, 200.0)])
        n_fft = 32768
        x = cascade_rows(formants, [0.0], fs, n_fft)[0]
        oracle_db = 20 * np.log10(np.abs(np.fft.rfft(x)))
        _, levels_db = analytic_cascade_spectrum(formants, fs, n_fft // 2 + 1)
        assert np.max(np.abs(levels_db - oracle_db)) < 0.1

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            analytic_cascade_spectrum(np.array([(5000.0, 100.0)]), 10000.0)

    @pytest.mark.parametrize("sample_rate", [0.0, -8000.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("formants", [[], np.array([(500.0, 100.0)])],
                             ids=["no-formants", "one-formant"])
    def test_rate_must_be_finite_and_positive(self, formants, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            analytic_cascade_spectrum(formants, sample_rate)

    def test_non_finite_level_raises(self):
        # no formant check stands before the resonator sum, so a NaN bandwidth
        # reaches it
        with pytest.raises(ValueError, match="envelope levels must be finite"):
            analytic_cascade_spectrum(np.array([(1000.0, np.nan)]), 8000.0)

    def test_grid_is_zero_to_nyquist(self):
        freqs, levels_db = analytic_cascade_spectrum(np.array([(500.0, 100.0)]), 8000.0, 256)
        assert np.array_equal(freqs, np.linspace(0.0, 4000.0, 256))
        assert levels_db.shape == (256,)

    def test_deterministic(self):
        fm = np.array([(500.0, 100.0), (1500.0, 100.0)])
        a = analytic_cascade_spectrum(fm, 8000.0, 512)[1]
        b = analytic_cascade_spectrum(fm, 8000.0, 512)[1]
        assert np.array_equal(a, b)


def test_resonator_radius_formula():
    _, a2 = resonator_taps(1400.0, 200.0, 10000.0)
    radius = np.sqrt(a2)
    assert abs(radius - np.exp(-np.pi * 0.02)) < 1e-12


def _refusal(frequencies, bandwidths):
    """check_formants' message at 8 kHz, None when it passes the formants."""
    try:
        check_formants(np.asarray(frequencies), np.asarray(bandwidths), 8000.0)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.0, -150.0, 4000.0, 4500.0])
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_check_formants_refuses_a_value_outside_its_bounds_anywhere(value, shape):
    # each bound is one reduction, and only a failed one searches for its
    # offender: the two must agree on every value, at every place, while
    # the edges inside the bounds pass
    frequencies = np.full(shape, np.nextafter(4000.0, 0.0))
    bandwidths = np.full(shape, 5e-324)
    assert _refusal(frequencies, bandwidths) is None
    assert _refusal(np.empty(shape[:-1] + (0,)), np.empty(shape[:-1] + (0,))) is None
    for name in ("frequency", "bandwidth"):
        for place in np.ndindex(shape):
            f, b = frequencies.copy(), bandwidths.copy()
            (f if name == "frequency" else b)[place] = value
            if 4000.0 <= value < np.inf:  # Nyquist bounds a frequency, not a bandwidth
                expected = (f"formant at {value} Hz is at or above Nyquist (4000.0 Hz)"
                            if name == "frequency" else None)
            else:
                expected = f"formant {name} must be positive, got {value}"
            assert _refusal(f, b) == expected, (name, place)


@pytest.mark.parametrize("frequencies, bandwidths, expected", [
    # not positive: frequencies before bandwidths, each in array order
    ([[100.0, np.nan], [-1.0, 4500.0]], [[0.0, 50.0], [50.0, 50.0]],
     "formant frequency must be positive, got nan"),
    ([[100.0, 4500.0], [4000.0, 200.0]], [[50.0, 50.0], [-0.0, np.inf]],
     "formant bandwidth must be positive, got -0.0"),
    # at or above Nyquist, after both, in column order
    ([[100.0, 4500.0], [4000.0, 200.0]], [[50.0, 50.0], [50.0, 50.0]],
     "formant at 4000.0 Hz is at or above Nyquist (4000.0 Hz)"),
])
def test_check_formants_names_the_first_offender(frequencies, bandwidths, expected):
    assert _refusal(frequencies, bandwidths) == expected
