"""The stacked bandwidth calibration and peak pick agree with the scalar calibration loop.

`calibrate_bandwidth_rows` calibrates many formant sets in one bisection and
`envelope.window_peaks` reads the peaks of a level stack (here through
`conftest.peak_levels`); the sweeps run it on one-row stacks. The reference
below is the scalar calibration they replaced: the whole cascade re-evaluated
at every bisection step, from the plain resonator terms of `kernel_reference`
and the tilt of `cascade_reference`, its peaks found by `kernel_reference`'s
plain peak search. The stacked forms must give the same floats.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from cascade_reference import source_tilt_db
from conftest import peak_levels
from specvalley import synth
from specvalley.corpus import default_pb_table_path, load_pb_table
from specvalley.errors import CalibrationError
from specvalley.synth import calibrate_bandwidth_rows
from specvalley.synthetic import CLASSIFIED_VOWELS, UPPER_FORMANTS, build_recipes

def _cascade_levels(formants, fs, n_points=2048):
    """(freqs, levels): the cascade of the (m, 2) (frequency, bandwidth) rows
    `formants`, the plain resonator terms summed in the given order, then the tilt."""
    freqs = np.linspace(0.0, fs / 2.0, n_points)
    levels = np.zeros(n_points)
    zinv = np.exp(-2j * np.pi * freqs / fs)
    for term in ref.resonator_db(formants[:, 0], formants[:, 1], zinv, fs):
        levels += term
    return freqs, levels + source_tilt_db(freqs, fs)


def _reference_calibration(freqs3, target_levels, fs, extra=(),
                           search_range=(30.0, 600.0), tolerance_db=0.5, max_rounds=50):
    """The scalar calibration loop: (bandwidths, rounds, residuals, converged); `extra`
    holds the (frequency, bandwidth) pairs of the fixed upper formants."""
    freqs3 = [float(f) for f in freqs3]
    targets = [target_levels[i] - target_levels[0] for i in range(3)]
    bws = [100.0, 100.0, 100.0]

    def measured_rel():
        # F1..F3, then the upper formants: the order the calibration sums them in
        formants = np.array([*zip(freqs3, bws), *extra])
        freqs, levels = _cascade_levels(formants, fs)
        _, peaks, missing = ref.peak_levels(freqs, levels[None, :], np.array([freqs3]))
        if missing.any():
            return None
        return (peaks[0] - peaks[0, 0]).tolist()

    residuals = [np.inf] * 3
    for round_no in range(1, max_rounds + 1):
        for i in (1, 2):
            lo, hi = search_range
            for _ in range(36):
                mid = 0.5 * (lo + hi)
                bws[i] = mid
                rel = measured_rel()
                if rel is not None and rel[i] > targets[i]:
                    lo = mid
                else:
                    hi = mid
            bws[i] = 0.5 * (lo + hi)
        rel = measured_rel()
        if rel is None:
            continue
        residuals = [r - t for r, t in zip(rel, targets)]
        if all(abs(r) <= tolerance_db for r in residuals):
            return bws, round_no, residuals, True
    return bws, max_rounds, residuals, False


def _recipe_entries():
    return [e for e in load_pb_table(default_pb_table_path()) if e.vowel in CLASSIFIED_VOWELS]


def test_recipes_equal_the_scalar_calibration():
    recipes = build_recipes(16000.0)
    entries = _recipe_entries()
    assert len(recipes) == len(entries) == 18
    for recipe, e in zip(recipes, entries):
        bws, rounds, residuals, converged = _reference_calibration(
            (e.f1, e.f2, e.f3), (e.l1, e.l2, e.l3), 16000.0, UPPER_FORMANTS[e.gender]
        )
        assert converged
        assert np.array_equal(recipe.bandwidths_hz[:3], bws), (e.vowel, e.gender)
        assert recipe.calibration_rounds == rounds
        assert np.array_equal(recipe.calibration_residuals_db, residuals)
        assert all(abs(r) <= 0.5 for r in recipe.calibration_residuals_db)


# every recipe field but the residuals is bit-identical whichever kernels NumPy
# dispatches; the residuals, differences of dB levels, move in their last bits
RECIPE_FIELDS = ("vowel", "gender", "fb_class", "formants_hz", "bandwidths_hz",
                 "calibration_rounds")
RECIPE_RESIDUALS_DB = [  # calibration_residuals_db of each recipe, at X86_V4
    (0.0, -0.0810514960824058, 5.2807536121690646e-11),  # iy male
    (0.0, -0.21620520407148902, 9.29389898374211e-11),  # ih male
    (0.0, -0.16321189376056822, -1.4495071809506044e-11),  # eh male
    (0.0, -0.13643644696557367, -2.3941737481436576e-11),  # ae male
    (0.0, -0.001983882428412187, -1.1403145094845968e-10),  # ah male
    (0.0, -0.00031011109347467425, 2.3594282083649887e-10),  # aa male
    (0.0, 0.0002575839973859573, -3.30572902385029e-10),  # ao male
    (0.0, -0.0012353224412553487, -5.413625103756203e-11),  # uh male
    (0.0, 0.00040049647781970066, 2.361844053666573e-11),  # uw male
    (0.0, -0.0028091508659215947, -3.929301328753354e-11),  # iy female
    (0.0, -0.47640764451185547, -2.525624154259276e-11),  # ih female
    (0.0, -0.4691328878234806, 0.22513713415590075),  # eh female
    (0.0, -0.24436039127947673, -2.4783730623312294e-11),  # ae female
    (0.0, -0.0038498958971473485, 6.725286993969348e-11),  # ah female
    (0.0, -0.00021625868401109472, -2.9381652666415903e-10),  # aa female
    (0.0, 0.00031510125706901704, 2.913225216616411e-10),  # ao female
    (0.0, -0.0003090358839727969, 2.0649792986660032e-10),  # uh female
    (0.0, 9.533396212546563e-05, -3.934985670639435e-11),  # uw female
]
# between the X86_V2, V3 and V4 kernels they differ by under 1e-13 dB
RESIDUAL_TOLERANCE_DB = 1e-9


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _dispatches_x86_v4():
    """Whether NumPy runs its X86_V4 kernels of float64 exp and log10, the
    level at which the full repr digest was pinned."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy 1.x has no dispatch report
        return False
    info = opt_func_info(func_name="^(exp|log10)$", signature="float64")
    levels = [sig["current"] for func in info.values() for sig in func.values()]
    return len(levels) == 2 and set(levels) == {"X86_V4"}


def test_recipes_keep_their_digest():
    """The sha256 prefix of the recipes' repr, ROADMAP.md's recipe invariant.

    The fields but the residuals keep their digest on every CPU; the residuals
    stay within RESIDUAL_TOLERANCE_DB of the pinned ones, and where NumPy
    dispatches X86_V4 the whole repr keeps its digest. The repr is NumPy 2's:
    the calibrated bandwidths print as `np.float64(...)`.
    """
    recipes = build_recipes(16000.0)
    assert _digest([tuple(getattr(r, f) for f in RECIPE_FIELDS) for r in recipes]) == (
        "47ac3f2fd41a3d93")
    residuals = np.array([r.calibration_residuals_db for r in recipes])
    assert np.max(np.abs(residuals - np.array(RECIPE_RESIDUALS_DB))) <= RESIDUAL_TOLERANCE_DB
    if _dispatches_x86_v4():
        assert _digest(recipes) == "175b5957f192f549"


def test_recipe_rows_equal_the_scalar_calibration_at_10khz(monkeypatch):
    # at 10 kHz the upper formants sit close to Nyquist and the front vowels
    # miss their L3 targets in every round, so compare three rounds of all rows
    entries = _recipe_entries()
    monkeypatch.setattr(synth, "MAX_ROUNDS", 3)
    fit = calibrate_bandwidth_rows(
        [(e.f1, e.f2, e.f3) for e in entries], [(e.l1, e.l2, e.l3) for e in entries],
        10000.0, extra_formants=[UPPER_FORMANTS[e.gender] for e in entries],
    )
    assert 0 < fit.converged.sum() < 18
    for r, e in enumerate(entries):
        bws, rounds, residuals, converged = _reference_calibration(
            (e.f1, e.f2, e.f3), (e.l1, e.l2, e.l3), 10000.0, UPPER_FORMANTS[e.gender],
            max_rounds=3,
        )
        assert np.array_equal(fit.bandwidths[r], bws), (e.vowel, e.gender)
        assert (fit.rounds[r], fit.converged[r]) == (rounds, converged)
        assert np.array_equal(fit.residuals_db[r], residuals)


FREQS = (600.0, 1200.0, 2400.0)
UNREACHABLE = (0.0, 40.0, -10.0)


def test_unreachable_row_fails_alone(monkeypatch):
    rows = [(0.0, -12.0, -22.0), UNREACHABLE, (-3.0, -10.0, -30.0)]
    monkeypatch.setattr(synth, "MAX_ROUNDS", 5)
    fit = calibrate_bandwidth_rows([FREQS] * 3, rows, 10000.0)
    assert fit.converged.tolist() == [True, False, True]
    assert fit.rounds[1] == 5
    _, _, residuals, converged = _reference_calibration(FREQS, UNREACHABLE, 10000.0,
                                                        max_rounds=5)
    assert not converged
    assert np.array_equal(fit.residuals_db[1], residuals)
    for r in (0, 2):
        bws, rounds, _, _ = _reference_calibration(FREQS, rows[r], 10000.0, max_rounds=5)
        assert np.array_equal(fit.bandwidths[r], bws)
        assert fit.rounds[r] == rounds


def test_build_recipes_names_the_vowel_that_failed(tmp_path):
    table = tmp_path / "pb.csv"
    table.write_text(
        "vowel,gender,F0,F1,F2,F3,L1,L2,L3\n"
        "iy,male,136,270,2290,3010,-4,-24,-28\n"
        "uw,female,235,370,950,2670,-3,37,-35\n",
        encoding="utf-8",
    )
    with pytest.raises(CalibrationError) as err:
        build_recipes(16000.0, pb_table_path=table)
    assert "uw (female)" in str(err.value)
    assert len(err.value.residuals_db) == 3
    assert abs(err.value.residuals_db[1]) > 0.5


def test_rows_with_different_extra_formants(monkeypatch):
    # at 10 kHz the first row's peaks merge in every round: its residuals
    # stay unmeasured (inf)
    extras = [[(3500.0, 150.0), (4500.0, 200.0)], [(3300.0, 150.0), (4100.0, 250.0)]]
    targets = [(-2.0, -17.0, -24.0), (-3.0, -15.0, -25.0)]
    freqs = [(530.0, 1840.0, 2480.0), FREQS]
    monkeypatch.setattr(synth, "MAX_ROUNDS", 5)
    fit = calibrate_bandwidth_rows(freqs, targets, 10000.0, extra_formants=extras)
    assert not fit.converged[0]
    assert np.isinf(fit.residuals_db[0]).all()
    for r in range(2):
        bws, rounds, residuals, converged = _reference_calibration(
            freqs[r], targets[r], 10000.0, extras[r], max_rounds=5
        )
        assert np.array_equal(fit.bandwidths[r], bws)
        assert (fit.rounds[r], fit.converged[r]) == (rounds, converged)
        assert np.array_equal(fit.residuals_db[r], residuals)


@pytest.mark.parametrize("freqs, extras", [
    ((600.0, 1200.0, 2400.0), [(2000.0, 150.0)]),
    ((600.0, 2400.0, 1200.0), [(3500.0, 150.0)]),
], ids=["extra-below-f3", "f3-below-f2"])
def test_rows_out_of_frequency_order_are_refused(freqs, extras):
    # a row's resonator terms are summed in the order given, so it must ascend
    rows = [FREQS, freqs]
    with pytest.raises(ValueError, match=r"row 1: formants must ascend, got \["):
        calibrate_bandwidth_rows(rows, [(0.0, -12.0, -22.0)] * 2, 10000.0,
                                 extra_formants=[[(3500.0, 150.0)], extras])


@pytest.mark.parametrize("extras", [
    [[(3500.0, 150.0)], [(3500.0, 150.0), (4500.0, 200.0)]],
    [(3500.0, 150.0), (3500.0, 150.0)],
    [[(3500.0, 150.0, 1.0)], [(3500.0, 150.0, 1.0)]],
    [[(3500.0, 150.0)]],
    [[SimpleNamespace(frequency=3500.0, bandwidth=150.0)]] * 2,
], ids=["ragged", "no-formant-axis", "triples", "one-row-for-two", "formant-specs"])
def test_a_malformed_extra_formants_is_refused(extras):
    with pytest.raises(ValueError, match=r"extra_formants must be an \(n, k, 2\) array of "
                                         r"\(frequency, bandwidth\) pairs, n = 2 rows"):
        calibrate_bandwidth_rows([FREQS] * 2, [(0.0, -12.0, -22.0)] * 2, 10000.0,
                                 extra_formants=extras)


@pytest.mark.parametrize("extra, words", [
    ((3500.0, 0.0), "formant bandwidth must be positive, got 0.0"),
    ((3500.0, -150.0), "formant bandwidth must be positive, got -150.0"),
    ((np.nan, 150.0), "formant frequency must be positive, got nan"),
    ((5000.0, 150.0), r"formant at 5000\.0 Hz is at or above Nyquist \(5000\.0 Hz\)"),
], ids=["zero-bandwidth", "negative-bandwidth", "nan-frequency", "at-nyquist"])
def test_an_extra_formant_is_checked_as_the_synthesis_checks_it(extra, words):
    # the words of sigproc.check_formants, which are resonator_db's for Nyquist
    with pytest.raises(ValueError, match=words):
        calibrate_bandwidth_rows([FREQS] * 2, [(0.0, -12.0, -22.0)] * 2, 10000.0,
                                 extra_formants=[[(3500.0, 150.0)], [extra]])


def test_recipes_at_8khz_name_the_formant_above_nyquist():
    # the female F4 of UPPER_FORMANTS, the first upper formant above 4 kHz section by section
    with pytest.raises(ValueError, match=r"^formant at 4200\.0 Hz is at or above Nyquist "
                                         r"\(4000\.0 Hz\)$"):
        build_recipes(8000.0)


def _level_rows(rng, kind, n_bins):
    if kind == "integers":  # coarse levels: many ties and plateaus
        return rng.integers(-3, 4, n_bins).astype(float)
    if kind == "rising":  # no interior maximum anywhere
        return np.cumsum(rng.uniform(0.1, 1.0, n_bins))
    if kind == "flat":
        return np.zeros(n_bins)
    return rng.normal(0.0, 10.0, n_bins)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.integers(64, 300),
    window_bins=st.floats(1.2, 40.0),
    kinds=st.lists(st.sampled_from(["integers", "rising", "flat", "normal"]),
                   min_size=1, max_size=10),
    peaks_per_row=st.integers(1, 3),
)
def test_stacked_peak_levels_match_the_reference_search(seed, n_bins, window_bins, kinds,
                                                        peaks_per_row):
    rng = np.random.default_rng(seed)
    freqs = np.linspace(0.0, 4000.0, n_bins)
    window_hz = window_bins * (freqs[1] - freqs[0])
    levels = np.array([_level_rows(rng, kind, n_bins) for kind in kinds])
    nominal = rng.uniform(0.0, 4000.0, (len(kinds), peaks_per_row))
    nominal[rng.random(nominal.shape) < 0.2] = 4000.0  # windows against the grid edges
    nominal[rng.random(nominal.shape) < 0.2] = 0.0
    freq, level, missing = peak_levels(freqs, levels, nominal, window_hz)
    assert freq.shape == level.shape == missing.shape == nominal.shape
    if peaks_per_row == 1:
        one = peak_levels(freqs, levels, nominal[:, 0], window_hz)
        for got, stacked in zip(one, (freq, level, missing)):
            assert np.array_equal(got, stacked[:, 0], equal_nan=True)
    want_freq, want_level, want_missing = ref.peak_levels(freqs, levels, nominal, window_hz)
    assert np.array_equal(missing, want_missing)
    found = ~missing
    assert np.array_equal(freq[found], want_freq[found])
    assert np.array_equal(level[found], want_level[found])
    for (r, k), f in np.ndenumerate(nominal):
        one = peak_levels(freqs, levels[r : r + 1], np.array([f]), window_hz)
        assert one[2][0] == missing[r, k]
        if found[r, k]:
            assert (one[0][0], one[1][0]) == (freq[r, k], level[r, k])


def test_peak_levels_keeps_the_input_checks():
    freqs = np.linspace(0.0, 4000.0, 128)
    levels = np.zeros((1, 128))
    with pytest.raises(ValueError, match="outside envelope grid"):
        peak_levels(freqs, levels, np.array([4100.0]))
    with pytest.raises(ValueError, match="grid spacing"):
        peak_levels(freqs, levels, np.array([1000.0]), window_hz=10.0)


@pytest.mark.parametrize("freqs, targets, words", [
    ([(600.0, 1200.0, 2400.0, 3500.0)], [(0.0, -12.0, -22.0)], "three formant frequencies"),
    ([FREQS], [(0.0, -12.0, -22.0, -30.0)], "three target levels"),
], ids=["four-formants", "four-targets"])
def test_a_fourth_column_is_refused(freqs, targets, words):
    # upper formants are `extra_formants`, not columns the calibration drops
    with pytest.raises(ValueError, match=words):
        calibrate_bandwidth_rows(freqs, targets, 10000.0)


def test_calibration_keeps_the_input_checks():
    # at 1 MHz the 2048-point grid is 244 Hz apart, wider than the 200 Hz peak window
    with pytest.raises(ValueError, match="search window must exceed the grid spacing"):
        calibrate_bandwidth_rows([FREQS], [(0.0, -12.0, -22.0)], 1e6)
