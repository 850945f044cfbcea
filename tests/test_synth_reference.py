"""The frequency-domain synthesizer against a time-domain `lfilter` cascade.

`reference_rows` runs each pulse train through the source-tilt lowpass and then
one `scipy.signal.lfilter` section per formant, with the taps of
`sigproc.resonator_taps`: the recursion that `synth.synthesize_rows` replaces.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from specvalley import synth, synthetic
from specvalley.cli import CASE_GEOMETRIES
from specvalley.corpus import save_wav
from specvalley.sigproc import resonator_taps
from specvalley.synth import (MAX_TAIL_SAMPLES, TAIL_TIME_CONSTANTS, TILT_CORNER_HZ,
                              synthesize_rows)
from specvalley.types import FormantSpec

REL_TOL = 1e-12  # of the reference's peak


def reference_rows(formants, f0s, sample_rate, n_samples, tilted=False):
    rows = []
    for f0 in f0s:
        x = np.zeros(n_samples)
        if f0 == 0:
            x[0] = 1.0
        else:
            x[:: int(round(sample_rate / f0))] = 1.0
        if tilted:
            pole = np.exp(-2 * np.pi * TILT_CORNER_HZ / sample_rate)
            x = lfilter([1.0 - pole], [1.0, -pole], x)
        for f in formants:
            a1, a2 = resonator_taps(f.frequency, f.bandwidth, sample_rate)
            x = lfilter([1.0 + a1 + a2], [1.0, a1, a2], x)
        rows.append(x)
    return np.array(rows)


def _pcm(samples, path):
    """The bytes `save_wav` writes for `samples` at 16 kHz."""
    save_wav(path, samples, 16000.0)
    return path.read_bytes()


def _assert_close(rows, reference):
    peak = np.max(np.abs(reference), axis=-1)
    err = np.max(np.abs(rows - reference), axis=-1)
    assert np.all(err <= REL_TOL * peak), float(np.max(err / peak))


@pytest.fixture(scope="module")
def corpus_tokens(recipes, tmp_path_factory):
    """(formants, f0, n_samples, tilted) of each token of a 240-segment seed-3 corpus."""
    calls = []

    def record(formants, f0s, sample_rate, n_samples, tilted=False):
        (f0,) = f0s
        calls.append((list(formants), f0, n_samples, tilted))
        return synthesize_rows(formants, f0s, sample_rate, n_samples, tilted)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "synthesize_rows", record)
        synthetic.build_synthetic_corpus(tmp_path_factory.mktemp("tokens"), n_segments=240,
                                         seed=3, recipes=recipes)
    return calls


def test_corpus_tokens_match_the_reference(corpus_tokens, tmp_path):
    assert len(corpus_tokens) == 240
    assert {tilted for *_, tilted in corpus_tokens} == {True}
    for i, (formants, f0, n, tilted) in enumerate(corpus_tokens):
        row = synthesize_rows(formants, [f0], 16000.0, n, tilted)
        ref = reference_rows(formants, [f0], 16000.0, n, tilted)
        _assert_close(row, ref)
        # the token as synthesize_vowel_token scales it, then as save_wav quantizes it
        got = _pcm(row[0] * (0.3 / np.max(np.abs(row[0]))), tmp_path / "a.wav")
        want = _pcm(ref[0] * (0.3 / np.max(np.abs(ref[0]))), tmp_path / "b.wav")
        assert got == want, i


@pytest.mark.parametrize("case", sorted(CASE_GEOMETRIES))
def test_f0_stacks_match_the_reference_and_their_rows(case):
    f1, f2 = CASE_GEOMETRIES[case]
    fm = [FormantSpec(f, 100.0) for f in (f1, f2, 2500.0, 3500.0)]
    trains = [100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0]
    stack = synthesize_rows(fm, trains, 8000.0, 4000)
    assert stack.shape == (7, 4000)
    _assert_close(stack, reference_rows(fm, trains, 8000.0, 4000))
    for row, f0 in zip(stack, trains):
        assert np.array_equal(row, synthesize_rows(fm, [f0], 8000.0, 4000)[0])


def test_long_unit_impulse_matches_the_reference():
    fs = 10000.0
    fm = [FormantSpec(750.0, 100.0), FormantSpec(1400.0, 200.0), FormantSpec(2600.0, 30.0)]
    _assert_close(synthesize_rows(fm, [0.0], fs, 32768), reference_rows(fm, [0.0], fs, 32768))


def _impulses_and_trains_stack_and_match_the_reference(tilted):
    fm = [FormantSpec(600.0, 80.0), FormantSpec(1700.0, 120.0)]
    f0s = [0.0, 140.0, 0.0, 100.0]
    stack = synthesize_rows(fm, f0s, 8000.0, 2000, tilted)
    _assert_close(stack, reference_rows(fm, f0s, 8000.0, 2000, tilted))
    for row, f0 in zip(stack, f0s):
        assert np.array_equal(row, synthesize_rows(fm, [f0], 8000.0, 2000, tilted)[0])


def test_untilted_kinds_stack_and_match_the_reference():
    _impulses_and_trains_stack_and_match_the_reference(tilted=False)


def test_tilted_impulses_and_trains_stack_and_match_the_reference():
    _impulses_and_trains_stack_and_match_the_reference(tilted=True)


@pytest.mark.parametrize("tilted", [False, True])
def test_an_f0_of_0_is_a_train_whose_second_pulse_never_arrives(tilted):
    # at f0 = fs / n the period is the whole signal: one pulse, at sample 0
    fm = [FormantSpec(700.0, 90.0), FormantSpec(1500.0, 180.0)]
    impulse = synthesize_rows(fm, [0.0], 8000.0, 400, tilted)
    assert np.array_equal(impulse, synthesize_rows(fm, [20.0], 8000.0, 400, tilted))
    assert np.array_equal(synthesize_rows([], [0.0], 8000.0, 400), np.eye(1, 400))


def test_corpus_and_babble_bytes_equal_the_reference_builds(recipes, tmp_path):
    def build(root, synth_fn):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthetic, "synthesize_rows", synth_fn)
            synthetic.build_synthetic_corpus(root / "corpus", n_segments=40, seed=3,
                                             recipes=recipes)
            synthetic.build_babble(root / "babble.wav", seed=11, recipes=recipes)
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    ours = build(tmp_path / "ours", synthesize_rows)
    theirs = build(tmp_path / "reference", reference_rows)
    assert len(ours) == 81
    assert ours == theirs


def test_too_narrow_bandwidth_is_refused():
    # 60 time constants of a 0.1 Hz bandwidth at 16 kHz are about 3.1 million samples
    fm = [FormantSpec(1000.0, 0.1)]
    with pytest.raises(ValueError, match=r"bandwidth 0\.1 Hz .* more than 1048576"):
        synthesize_rows(fm, [0.0], 16000.0, 100)
    assert MAX_TAIL_SAMPLES == 1048576


@pytest.mark.parametrize("f0", [-100.0, -0.0001, np.nan, np.inf])
def test_a_negative_or_non_finite_f0_is_refused(f0):
    with pytest.raises(ValueError, match="f0 must be finite and not negative"):
        synthesize_rows([FormantSpec(500.0, 100.0)], [100.0, f0], 8000.0, 800)


def test_a_train_needs_one_full_period():
    # 100 Hz at 8 kHz has an 80-sample period
    with pytest.raises(ValueError, match="duration too short for one period"):
        synthesize_rows([FormantSpec(500.0, 100.0)], [100.0], 8000.0, 79)
    row = synthesize_rows([], [100.0], 8000.0, 80)[0]
    assert np.array_equal(row, np.eye(1, 80)[0])
    assert np.flatnonzero(synthesize_rows([], [100.0], 8000.0, 81)[0]).tolist() == [0, 80]


def _bandwidth_with_tail(samples, sample_rate):
    """A bandwidth whose tail, TAIL_TIME_CONSTANTS time constants, is `samples` long."""
    bandwidth = TAIL_TIME_CONSTANTS * sample_rate / (np.pi * (samples - 0.5))
    assert int(np.ceil(TAIL_TIME_CONSTANTS * sample_rate / (np.pi * bandwidth))) == samples
    return bandwidth


# (formants, f0s, sample rate, n_samples, tilted, grid size) at the edges of the
# impulse-response grid and of the fold by periods
GRID_EDGES = {
    # a 30 Hz bandwidth at 16 kHz has a 10186-sample tail
    "shorter_than_the_tail": ([FormantSpec(500.0, 30.0), FormantSpec(1500.0, 90.0)],
                              [0.0, 120.0, 16.0], 16000.0, 1000, True, 16384),
    # the 4.05 s voice `build_babble` synthesizes, 8.5 times its grid's tail
    "babble_voice": ([FormantSpec(f, b) for f, b in
                      ((730.0, 60.0), (1090.0, 80.0), (2440.0, 120.0), (3500.0, 175.0))],
                     [137.3, 90.0, 259.9], 16000.0, 64800, True, 65536),
    "signal_of_4096": ([FormantSpec(700.0, 120.0)], [0.0, 100.0], 16000.0, 4096, True, 4096),
    "signal_of_4097": ([FormantSpec(700.0, 120.0)], [0.0, 100.0], 16000.0, 4097, True, 8192),
    "tail_of_4096": ([FormantSpec(700.0, _bandwidth_with_tail(4096, 16000.0))],
                     [0.0, 100.0], 16000.0, 2000, False, 4096),
    "tail_of_4097": ([FormantSpec(700.0, _bandwidth_with_tail(4097, 16000.0))],
                     [0.0, 100.0], 16000.0, 2000, False, 8192),
    # 8 kHz and 6 kHz both round to a period of one sample at 8 kHz
    "period_of_1": ([FormantSpec(600.0, 80.0), FormantSpec(1700.0, 120.0)],
                    [8000.0, 6000.0, 0.0], 8000.0, 500, True, 2048),
    # periods of 107 and 999 samples, neither a divisor of 1000
    "period_not_dividing": ([FormantSpec(600.0, 80.0), FormantSpec(1700.0, 120.0)],
                            [150.0, 16000.0 / 999.0], 16000.0, 1000, False, 4096),
}


@pytest.mark.parametrize("case", sorted(GRID_EDGES))
def test_grid_edges_match_the_reference_and_their_rows(case, monkeypatch):
    fm, f0s, fs, n, tilted, grid = GRID_EDGES[case]
    sizes = []

    def zinv(size):
        sizes.append(size)
        return rfft_zinv(size)

    rfft_zinv = synth._rfft_zinv
    monkeypatch.setattr(synth, "_rfft_zinv", zinv)
    stack = synthesize_rows(fm, f0s, fs, n, tilted)
    assert sizes == [grid]
    assert stack.shape == (len(f0s), n)
    _assert_close(stack, reference_rows(fm, f0s, fs, n, tilted))
    for row, f0 in zip(stack, f0s):
        assert np.array_equal(row, synthesize_rows(fm, [f0], fs, n, tilted)[0])
