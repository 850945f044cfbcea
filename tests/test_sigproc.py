import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from specvalley.errors import (
    DegenerateInputError,
    SingularEnvelopeError,
    UnstableModelError,
)
from specvalley.sigproc import (
    MAX_BANDWIDTH,
    MIN_FREQUENCY,
    NYQUIST_MARGIN,
    LpcModel,
    analytic_cascade_spectrum,
    autocorrelation,
    formant_anchors,
    formant_candidates,
    frame_count,
    frame_signal,
    levinson,
    lpc_envelope,
    lpc_levels,
    polynomial_roots,
    preemphasize,
    roots_to_formants,
    window,
)
from specvalley.synth import Excitation, resonator_coefficients, synthesize
from specvalley.types import FormantSpec, SignalBuffer
from test_formant_anchors import _reflection


def buf(samples, rate=16000.0):
    return SignalBuffer(np.asarray(samples, dtype=float), rate)


class TestPreemphasize:
    def test_zero_alpha_is_identity(self):
        x = buf([0.3, -0.2, 0.9])
        assert np.array_equal(preemphasize(x, 0.0).samples, x.samples)

    def test_direct_formula(self):
        y = preemphasize(buf([1.0, 1.0, 1.0]), 0.97).samples
        assert np.allclose(y, [1.0, 0.03, 0.03])

    def test_near_one_alpha_cancels_constant(self):
        eps = 1e-3
        y = preemphasize(buf([2.0] * 10), 1.0 - eps).samples
        assert np.allclose(y[1:], eps * 2.0)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            preemphasize(buf([1.0]), 1.0)
        with pytest.raises(ValueError):
            preemphasize(buf([1.0]), -0.1)


class TestFrameSignal:
    def test_hundred_ms_gives_nine_frames(self):
        x = buf(np.zeros(1600))
        assert frame_signal(x, 20.0, 0.5).shape == (9, 320)

    def test_exact_frame_gives_one(self):
        assert frame_signal(buf(np.zeros(320)), 20.0, 0.5).shape[0] == 1

    def test_short_signal_gives_zero_frames(self):
        frames = frame_signal(buf(np.zeros(304)), 20.0, 0.5)
        assert frames.shape == (0, 320)

    def test_frames_tile_the_signal(self):
        x = buf(np.arange(1600.0))
        frames = frame_signal(x, 20.0, 0.5)
        assert np.array_equal(frames[1], np.arange(160.0, 480.0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            frame_signal(buf(np.zeros(100)), 0.0, 0.5)
        with pytest.raises(ValueError):
            frame_signal(buf(np.zeros(100)), 20.0, 1.0)
        with pytest.raises(ValueError):
            frame_count(100, 20.0, 16000.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 4000), frame_ms=st.floats(0.5, 60.0),
           rate=st.sampled_from([8000.0, 10000.0, 16000.0, 22050.0, 44100.0]),
           overlap=st.floats(0.0, 0.99))
    def test_frame_count_is_the_row_count(self, n, frame_ms, rate, overlap):
        # signals shorter than one frame included: n runs from 0
        rows = frame_signal(buf(np.zeros(n), rate), frame_ms, overlap).shape[0]
        assert frame_count(n, frame_ms, rate, overlap) == rows


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
        assert np.allclose(autocorrelation(np.array([1.0, 0.0, 0.0]), 1), [1.0, 0.0])

    def test_two_ones(self):
        assert np.allclose(autocorrelation(np.array([1.0, 1.0]), 1), [2.0, 1.0])

    def test_matches_brute_force_and_peak_at_zero_lag(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        r = autocorrelation(x, 10)
        brute = np.array(
            [sum(x[n] * x[n + k] for n in range(64 - k)) for k in range(11)]
        )
        assert np.allclose(r, brute, atol=1e-12)
        assert np.all(r[0] >= np.abs(r))

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(4), 4)


class TestLevinson:
    def test_one_step_normal_equation(self):
        m = levinson(np.array([1.0, 0.5]), 1, 8000.0)
        assert np.allclose(m.coefficients, [0.5])
        assert abs(m.gain**2 - 0.75) < 1e-12

    def test_white_input(self):
        m = levinson(np.array([1.0, 0.0, 0.0, 0.0]), 3, 8000.0)
        assert np.allclose(m.coefficients, 0.0)
        assert abs(m.gain - 1.0) < 1e-12

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
        r = autocorrelation(x, 10) / len(x)
        m = levinson(r, 10, 8000.0)
        assert np.allclose(m.a_polynomial, a_true, atol=1e-2)
        # exactness check against the analytic autocorrelation route
        r_exact = autocorrelation(lfilter([1.0], a_true, np.eye(1, 4096, 0)[0]), 10)
        m2 = levinson(r_exact, 10, 8000.0)
        assert np.allclose(m2.a_polynomial, a_true, atol=1e-6)

    def test_matches_dense_toeplitz_solve(self):
        rng = np.random.default_rng(5)
        x = lfilter([1.0], [1.0, -0.6, 0.3], rng.standard_normal(8192))
        for order in (2, 8, 20):
            r = autocorrelation(x, order)
            m = levinson(r, order, 8000.0)
            dense = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
            assert np.max(np.abs(m.coefficients - dense)) < 1e-9

    def test_degenerate_and_unstable_inputs(self):
        with pytest.raises(DegenerateInputError):
            levinson(np.array([0.0, 0.0]), 1, 8000.0)
        with pytest.raises(UnstableModelError) as err:
            levinson(np.array([1.0, 1.2]), 1, 8000.0)
        assert err.value.stage == 1


class TestLpcEnvelope:
    def test_order_zero_model_is_flat(self):
        m = LpcModel(order=0, coefficients=np.array([]), gain=2.0, sample_rate=8000.0)
        env = lpc_envelope(m, 128)
        assert np.allclose(env.levels_db, 20 * np.log10(2.0))

    def test_gain_doubling_shifts_by_6db(self):
        m1 = LpcModel(0, np.array([]), 1.0, 8000.0)
        m2 = LpcModel(0, np.array([]), 2.0, 8000.0)
        d = lpc_envelope(m2, 128).levels_db - lpc_envelope(m1, 128).levels_db
        assert np.allclose(d, 20 * np.log10(2.0), atol=1e-9)

    def test_tracks_single_resonator_peak(self):
        fs = 8000.0
        sig = synthesize([FormantSpec(1400.0, 150.0)], Excitation("unit-impulse"),
                         fs, n_samples=4096)
        r = autocorrelation(sig.samples, 2)
        env = lpc_envelope(levinson(r, 2, fs), 1024)
        peak = env.freqs[np.argmax(env.levels_db)]
        assert abs(peak - 1400.0) <= env.grid_spacing_hz

    def test_tracks_cascade_peaks_within_one_bin(self):
        # order 2*(#formants) + 2 fitted to a cascade impulse response
        from specvalley.envelope import locate_peak

        fs = 8000.0
        fm = [FormantSpec(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)]
        sig = synthesize(fm, Excitation("unit-impulse"), fs, n_samples=8192)
        m = levinson(autocorrelation(sig.samples, 10), 10, fs)
        env_lp = lpc_envelope(m, 1024)
        env_an = analytic_cascade_spectrum(fm, fs, 1024)
        for f in fm:
            f_lp, _ = locate_peak(env_lp, f.frequency)
            f_an, _ = locate_peak(env_an, f.frequency)
            assert abs(f_lp - f_an) <= env_lp.grid_spacing_hz

    def test_pole_on_grid_raises(self):
        m = LpcModel(order=1, coefficients=np.array([1.0]), gain=1.0, sample_rate=8000.0)
        with pytest.raises(SingularEnvelopeError):
            lpc_envelope(m, 128)  # A(z) = 1 - z^-1 vanishes at DC

    def test_root_at_nyquist_raises(self):
        m = LpcModel(order=1, coefficients=np.array([-1.0]), gain=1.0, sample_rate=8000.0)
        with pytest.raises(SingularEnvelopeError):
            lpc_envelope(m, 128)  # A(z) = 1 + z^-1 vanishes at Nyquist

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
            lpc_envelope(LpcModel(0, np.array([]), 1.0, 8000.0), 32)


class TestPolynomialRoots:
    def test_simple_quadratics(self):
        r = sorted(polynomial_roots([1.0, 0.0, -1.0]), key=lambda z: z.real)
        assert np.allclose(r, [-1.0, 1.0])
        r = sorted(polynomial_roots([1.0, 0.0, 1.0]), key=lambda z: z.imag)
        assert np.allclose(r, [-1j, 1j])

    def test_degree_18_reconstruction(self):
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(19)
        coeffs[0] = 1.0
        roots = polynomial_roots(coeffs)
        rebuilt = np.real_if_close(np.poly(roots), tol=1e6)
        assert np.max(np.abs(rebuilt - coeffs)) / np.max(np.abs(coeffs)) < 1e-8

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            polynomial_roots([2.0])
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 1.0, 1.0])


class TestRootsToFormants:
    def test_inverse_of_the_mapping(self):
        fs = 8000.0
        root = np.exp(-np.pi * 100.0 / fs) * np.exp(2j * np.pi * 500.0 / fs)
        (f,) = roots_to_formants(np.array([root, np.conj(root)]), fs)
        assert abs(f.frequency - 500.0) < 1e-9
        assert abs(f.bandwidth - 100.0) < 1e-9

    def test_real_roots_emit_nothing(self):
        assert roots_to_formants(np.array([0.9, -0.5]), 8000.0) == []

    def test_recovers_synthetic_four_formant_vowel(self):
        fs = 10000.0
        truth = [FormantSpec(f, 100.0) for f in (500.0, 1500.0, 2500.0, 3500.0)]
        sig = synthesize(truth, Excitation("unit-impulse"), fs, n_samples=8192)
        order = 10
        m = levinson(autocorrelation(sig.samples, order), order, fs)
        cands = roots_to_formants(polynomial_roots(m.a_polynomial), fs)
        assert len(cands) >= 3
        for got, want in zip(cands[:3], truth[:3]):
            assert abs(got.frequency - want.frequency) < 30.0


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
        env = analytic_cascade_spectrum([FormantSpec(1400.0, 200.0)], 10000.0)
        assert abs(env.freqs[np.argmax(env.levels_db)] - 1400.0) <= env.grid_spacing_hz

    def test_empty_list_is_flat_zero(self):
        env = analytic_cascade_spectrum([], 10000.0, 256)
        assert np.allclose(env.levels_db, 0.0)

    def test_matches_long_impulse_response_spectrum(self):
        fs = 10000.0
        formants = [FormantSpec(750.0, 100.0), FormantSpec(1400.0, 200.0)]
        n_fft = 32768
        sig = synthesize(formants, Excitation("unit-impulse"), fs, n_samples=n_fft)
        oracle_db = 20 * np.log10(np.abs(np.fft.rfft(sig.samples)))
        env = analytic_cascade_spectrum(formants, fs, n_fft // 2 + 1)
        assert np.max(np.abs(env.levels_db - oracle_db)) < 0.1

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            analytic_cascade_spectrum([FormantSpec(5000.0, 100.0)], 10000.0)

    def test_deterministic(self):
        fm = [FormantSpec(500.0, 100.0), FormantSpec(1500.0, 100.0)]
        a = analytic_cascade_spectrum(fm, 8000.0, 512).levels_db
        b = analytic_cascade_spectrum(fm, 8000.0, 512).levels_db
        assert np.array_equal(a, b)


def test_resonator_radius_formula():
    b, a = resonator_coefficients(FormantSpec(1400.0, 200.0), 10000.0)
    radius = np.sqrt(a[2])
    assert abs(radius - np.exp(-np.pi * 0.02)) < 1e-12
