import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from cascade_reference import analytic_cascade_spectrum
from conftest import PERCEPTUAL_CRITICAL_DISTANCE_BARK, peak_levels
from specvalley import cli, experiments
from specvalley.errors import (
    AnalysisError,
    NoCrossingError,
    PeakNotFoundError,
    ValleyUndefinedError,
)
from specvalley.experiments import (
    BACK_VOWELS,
    FRONT_VOWELS,
    OcdResult,
    PairMeter,
    SweepConfig,
    UNIFORM_TUBE_FORMANTS_HZ,
    VowelOcd,
    _banded_mean_db,
    _peak_pair_rlsv,
    _step_is_legal,
    f0_influence_experiment,
    level_influence_experiment,
    ocd_sweep,
    pb_ocd_table,
    pb_sweeps,
    sweep_step_bound,
)
from specvalley.scales import hz_to_bark

TUBE = np.array([(f, 100.0) for f in UNIFORM_TUBE_FORMANTS_HZ])
CASE_A = np.array([(400.0, 100.0), (700.0, 100.0), (2500.0, 100.0), (3500.0, 100.0)])
CASE_B = np.array([(600.0, 100.0), (1300.0, 100.0), (2500.0, 100.0), (3500.0, 100.0)])


def two_formant_cfg(step=25.0):
    return SweepConfig(
        np.array([(650.0, 100.0), (1400.0, 200.0)]),
        10000.0,
        step_hz=step,
        move_upper=False,
        mean_band_hz=2500.0,
    )


def tube_cfg(bw=100.0, step=25.0):
    return SweepConfig(np.array([(f, bw) for f in UNIFORM_TUBE_FORMANTS_HZ]),
                       8000.0, step_hz=step)


def interpolated(result):
    """Whether the OCD of an `OcdResult` lies between two steps of its sweep."""
    return result.sweep[-1][1] != 0.0


def widened(result):
    """Whether the pair of an `OcdResult` moved apart to find the crossing."""
    return result.sweep[0][1] < 0


class TestOcdSweep:
    def test_two_formant_distance(self):
        res = ocd_sweep(two_formant_cfg())
        assert abs(res.ocd_bark - 3.2) <= 0.2

    def test_uniform_tube_distance(self):
        res = ocd_sweep(tube_cfg())
        assert abs(res.ocd_bark - 3.6) <= 0.2
        lo, hi = PERCEPTUAL_CRITICAL_DISTANCE_BARK
        assert lo <= res.ocd_bark <= hi

    def test_crossing_bracket(self):
        res = ocd_sweep(tube_cfg())
        assert res.sweep[-2][1] > 0 >= res.sweep[-1][1]
        spacings = [s for s, _ in res.sweep]
        assert all(a > b for a, b in zip(spacings, spacings[1:]))
        assert spacings[-1] <= res.ocd_bark <= spacings[0]

    def test_starting_below_crossing_is_rejected(self):
        cfg = SweepConfig(
            np.vstack([[(800.0, 100.0), (1200.0, 100.0)], TUBE[2:]]),
            8000.0,
        )
        with pytest.raises(ValueError):
            ocd_sweep(cfg)

    def test_step_size_robustness(self):
        coarse = ocd_sweep(tube_cfg(step=25.0)).ocd_bark
        fine = ocd_sweep(tube_cfg(step=12.5)).ocd_bark
        assert abs(coarse - fine) < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="doubling every bandwidth moves the tube OCD by ~0.87 bark "
        "(3.53 -> 4.40): valley fill-in shifts the crossing by roughly "
        "(2 dB)/(2.5 dB per bark), so the stated 0.3-bark bound is not "
        "achievable under the validated mean-level definition",
    )
    def test_bandwidth_doubling_within_a_third_bark(self):
        base = ocd_sweep(tube_cfg(bw=100.0)).ocd_bark
        doubled = ocd_sweep(tube_cfg(bw=200.0)).ocd_bark
        assert abs(base - doubled) < 0.3

    def test_moderate_bandwidth_changes_stay_in_band(self):
        # the defensible form of bandwidth insensitivity: +/-30% bandwidth
        # keeps the tube OCD inside the perceptual critical-distance band
        lo, hi = PERCEPTUAL_CRITICAL_DISTANCE_BARK
        for bw in (80.0, 100.0, 130.0):
            assert lo <= ocd_sweep(tube_cfg(bw=bw)).ocd_bark <= hi

    def test_no_crossing_error_carries_trace(self):
        # very narrow resonances keep the valley below the mean all the way in
        cfg = SweepConfig(
            np.array([(500.0, 20.0), (1500.0, 20.0)]),
            8000.0, step_hz=100.0,
        )
        with pytest.raises(NoCrossingError) as err:
            ocd_sweep(cfg)
        assert len(err.value.trace) > 1

    @pytest.mark.parametrize("cfg", [two_formant_cfg(), SweepConfig(
        np.array([(500.0, 20.0), (1500.0, 20.0)]), 8000.0, step_hz=100.0)],
        ids=["crossing", "no_crossing"])
    def test_one_bark_call_gives_the_scalar_spacings(self, cfg, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return hz_to_bark(f)

        monkeypatch.setattr(experiments, "hz_to_bark", counted)
        try:
            res = ocd_sweep(cfg)
            sweep, pairs = res.sweep, res.pair_trace
        except NoCrossingError as exc:
            sweep, pairs = exc.trace, None
        assert len(calls) == 1 and len(sweep) > 1
        for (spacing, _), (f_lo, f_hi) in zip(sweep, pairs or calls[0]):
            assert type(spacing) is float
            assert spacing == hz_to_bark(f_hi) - hz_to_bark(f_lo)

    def test_adjacent_pair_required(self):
        with pytest.raises(ValueError):
            SweepConfig(TUBE, 8000.0, pair=(0, 2))

    def test_merged_start_raises_as_it_is(self):
        # both peak windows find the one peak at 1311.6 Hz
        cfg = two_formant_cfg()
        cfg.formants[0] = (1300.0, 100.0)
        with pytest.raises(PeakNotFoundError, match="of 1300.0 Hz and 1400.0 Hz: both windows"):
            ocd_sweep(cfg)

    def test_pair_merging_after_the_start_ends_without_crossing(self):
        # a 300 Hz wide F2 sinks into the skirt of F1 as F1 comes up to 900 Hz,
        # and its window is left without a peak
        cfg = two_formant_cfg()
        cfg.formants[1] = (1400.0, 300.0)
        cfg.mean_band_hz = 1500.0
        with pytest.raises(NoCrossingError) as err:
            ocd_sweep(cfg)
        assert str(err.value) == ("valley became unmeasurable before crossing: no spectral "
                                  "peak within 200.0 Hz of 1400.0 Hz")
        assert isinstance(err.value.__cause__, PeakNotFoundError)
        assert len(err.value.trace) == 11  # 650 .. 900 Hz in 25 Hz steps

    def test_shared_peak_goes_to_the_nearer_window(self):
        # B2 below B1 makes the F2 peak the higher one, so from 200 Hz apart
        # the F1 window finds it too; F2 keeps it and F1 takes its own peak
        cfg = two_formant_cfg()
        cfg.formants[:] = [(650.0, 20.0), (1400.0, 10.0)]
        res = ocd_sweep(cfg)
        assert len(res.sweep) == 1 + 22  # the start and 675 .. 1200 Hz
        assert res.pair_trace[-1] == (1200.0, 1400.0)
        assert round(res.ocd_bark, 4) == 1.0813


class TestPeakPair:
    def test_close_pair_with_the_higher_upper_peak_gets_both_peaks(self):
        # 180 Hz apart, each peak window holds both peaks, and the upper is higher
        fm = np.array([(1200.0, 40.0), (1380.0, 20.0)])
        freqs, levels = analytic_cascade_spectrum(fm, 10000.0, experiments.GRID_POINTS)
        both = peak_levels(freqs, levels[None, :], [[1200.0, 1380.0]])[0][0]
        assert both[0] == both[1]  # one search per window finds the upper peak twice
        l_lo, l_hi, valley = _peak_pair_rlsv(freqs, levels, 1200.0, 1380.0)
        own = peak_levels(freqs, levels[None, :], [[1200.0, 1380.0]], window_hz=50.0)
        assert (l_lo, l_hi) == tuple(own[1][0])
        assert valley < l_lo < l_hi

    def test_shared_peak_without_a_second_maximum_stays_unmeasurable(self):
        fm = np.array([(1000.0, 300.0), (1250.0, 300.0)])
        freqs, levels = analytic_cascade_spectrum(fm, 8000.0, experiments.GRID_POINTS)
        with pytest.raises(PeakNotFoundError, match="both windows find the peak at"):
            _peak_pair_rlsv(freqs, levels, 1000.0, 1250.0)


def sweep2_steps(capsys, *flags):
    """(spacing_bark, v_db, note) of each step `specvalley sweep2 *flags` prints: the
    printed numbers, v_db None where its cell is empty, and the step's
    "unmeasurable" note or None."""
    assert cli.run(["sweep2", *flags, "--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()[3:]  # past the two header lines and the columns
    notes = dict(re.fullmatch(r"# step (\d+) unmeasurable: (.*)", line).groups()
                 for line in lines if line.startswith("#"))
    return [(float(spacing), float(v) if v else None, notes.get(step))
            for step, _, _, spacing, v in (line.split(",") for line in lines
                                           if not line.startswith("#"))]


class TestTwoFormantCurve:
    """The two-formant curve as `sweep2` prints it: F2 fixed at 1400 Hz, F1 stepped up."""

    def test_reference_points(self, capsys):
        curve = sweep2_steps(capsys, "--f1-start=650", "--f1-stop=950", "--f1-step=50")
        by_f1 = {650 + 50 * k: v for k, (_, v, _) in enumerate(curve)}
        assert abs(by_f1[850]) <= 0.5
        assert by_f1[950] < 0
        assert by_f1[750] > 0

    def test_monotone_fall_with_narrowing(self, capsys):
        curve = sweep2_steps(capsys, "--f1-start=650", "--f1-stop=950", "--f1-step=25")
        vs = [v for _, v, _ in curve]
        assert len(vs) == 13
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_f1_must_stay_below_f2(self, capsys):
        assert cli.run(["sweep2", "--f1-start=1500", "--f1-stop=1500", "--no-timestamp"]) == 2
        assert capsys.readouterr().err.strip() == (
            "the last F1 of --f1-start..--f1-stop (1500 Hz) must be below --f2 (1400 Hz)")

    def test_unmeasurable_f1_is_flagged_not_raised(self, capsys):
        # with B1 = B2 = 300 Hz the F2 peak is lost from F1 = 1000 Hz on, and at
        # 1150 Hz both windows find one peak; the measurable F1s keep their values
        wide = ("--b1=300", "--b2=300")
        curve = sweep2_steps(capsys, *wide, "--f1-stop=1150")
        assert [s for s, _, _ in curve] == [float(f"{hz_to_bark(1400.0) - hz_to_bark(f):.4f}")
                                            for f in np.arange(650.0, 1175.0, 50.0)]
        assert curve[:7] == sweep2_steps(capsys, *wide, "--f1-stop=950")
        assert all(v is not None and note is None for _, v, note in curve[:7])
        assert [v for _, v, _ in curve[7:]] == [None] * 4
        assert [note for _, _, note in curve[7:]] == [
            "no spectral peak within 200.0 Hz of 1400.0 Hz"] * 3 + [
            "no separate spectral peaks within 200.0 Hz of 1150.0 Hz and 1400.0 Hz: "
            "both windows find the peak at 1224.8 Hz"]


class TestMeasurePairRlsv:
    def test_band_restriction_raises_mean(self):
        fm = np.array([(850.0, 100.0), (1400.0, 200.0)])
        pair = (850.0, 100.0), (1400.0, 200.0)
        full = PairMeter(fm, (0, 1), 10000.0).measure(*pair)[2]
        banded = PairMeter(fm, (0, 1), 10000.0, mean_band_hz=2500.0).measure(*pair)[2]
        assert banded > full


def random_cascade(seed):
    """A random cascade of 2-5 formants at 8 or 10 kHz, a random adjacent pair of
    it, and ten random steps that move the pair's frequencies and bandwidths."""
    rng = np.random.default_rng(seed)
    rate = float(rng.choice([8000.0, 10000.0]))
    n = int(rng.integers(2, 6))
    freqs = np.sort(rng.uniform(200.0, 0.45 * rate, n))
    formants = np.column_stack((freqs, rng.uniform(30.0, 400.0, n)))
    i = int(rng.integers(0, n - 1))
    lo, hi = formants[i, 0], formants[i + 1, 0]
    steps = []
    for _ in range(10):
        f_lo, f_hi = np.sort(rng.uniform(lo, hi, 2))
        steps.append(((float(f_lo), float(rng.uniform(30.0, 400.0))),
                      (float(f_hi), float(rng.uniform(30.0, 400.0)))))
    return formants, (i, i + 1), rate, steps


METER_CASES = {
    # sweep2 and ocd2: F1 moves up to F2 = 1400 Hz
    "two_formant": (np.array([(650.0, 100.0), (1400.0, 200.0)]), (0, 1), 10000.0,
                    [((f1, 100.0), (1400.0, 200.0)) for f1 in np.arange(650.0, 1200.0, 25.0)]),
    # ocd4: the tube's F1-F2 pair, and its F2-F3 pair, moving inward
    "tube_12": (TUBE, (0, 1), 8000.0,
                [((500.0 + s, 100.0), (1500.0 - s, 100.0)) for s in np.arange(0.0, 500.0, 25.0)]),
    "tube_23": (TUBE, (1, 2), 8000.0,
                [((1500.0 + s, 100.0), (2500.0 - s, 100.0)) for s in np.arange(0.0, 500.0, 25.0)]),
    # levels: bandwidth-only moves of cases a and b
    **{f"levels_{name}": (case, (0, 1), 8000.0,
                          [((case[0, 0], b1), (case[1, 0], b2))
                           for b1 in (70.0, 100.0, 140.0) for b2 in (50.0, 80.0, 120.0, 180.0)])
       for name, case in (("a", CASE_A), ("b", CASE_B))},
    **{f"random_{seed}": random_cascade(seed) for seed in range(4)},
}


class TestPairMeter:
    @pytest.mark.parametrize("case", list(METER_CASES))
    def test_levels_equal_the_whole_cascade_spectrum(self, case, monkeypatch):
        formants, (i, j), rate, steps = METER_CASES[case]
        seen = []
        peak_pair_rlsv = experiments._peak_pair_rlsv

        def record(freqs, levels, f_lo, f_hi):
            seen.append((freqs, levels))
            return peak_pair_rlsv(freqs, levels, f_lo, f_hi)

        monkeypatch.setattr(experiments, "_peak_pair_rlsv", record)
        meter = PairMeter(formants, (i, j), rate)
        for lo, hi in steps:
            try:
                meter.measure(lo, hi)
            except AnalysisError:
                pass
            fm = np.array(formants)
            fm[i], fm[j] = lo, hi
            freqs, levels = analytic_cascade_spectrum(fm, rate, experiments.GRID_POINTS)
            assert np.array_equal(seen[-1][0], freqs)
            assert np.array_equal(seen[-1][1], levels)
        assert len(seen) == len(steps)

    def test_a_step_evaluates_the_two_pair_terms(self, monkeypatch):
        # the two unmoved terms of the tube once, then two terms per step,
        # not one per formant
        sizes = []
        resonator_db = experiments.resonator_db

        def counting(frequency, *args):
            sizes.append(np.size(frequency))
            return resonator_db(frequency, *args)

        monkeypatch.setattr(experiments, "resonator_db", counting)
        steps = len(ocd_sweep(tube_cfg()).sweep)
        assert steps > 1
        assert sizes == [1] * (len(TUBE) - 2 + 2 * steps)

    @pytest.mark.parametrize("formants", [
        [(500.0, 100.0, 1.0), (1500.0, 100.0, 1.0)],
        [500.0, 1500.0],
        [[(500.0, 100.0)], [(1500.0, 100.0)]],
    ], ids=["triples", "no-pair-axis", "three-axes"])
    def test_formants_that_are_not_m_by_2_are_refused(self, formants):
        with pytest.raises(ValueError, match=r"formants must be an \(m, 2\) array of "
                                             r"\(frequency, bandwidth\) rows"):
            PairMeter(formants, (0, 1), 8000.0)

    @pytest.mark.parametrize("row, words", [
        ((2500.0, 0.0), "formant bandwidth must be positive, got 0.0"),
        ((np.nan, 100.0), "formant frequency must be positive, got nan"),
        ((4000.0, 100.0), r"formant at 4000\.0 Hz is at or above Nyquist \(4000\.0 Hz\)"),
    ], ids=["zero-bandwidth", "nan-frequency", "at-nyquist"])
    def test_every_row_and_each_moved_member_is_checked(self, row, words):
        # the words of sigproc.check_formants, which the synthesis uses too
        with pytest.raises(ValueError, match=words):
            PairMeter(np.vstack([TUBE[:2], [row]]), (0, 1), 8000.0)
        with pytest.raises(ValueError, match=words):
            PairMeter(TUBE, (0, 1), 8000.0).measure((500.0, 100.0), row)


class TestLevelInfluence:
    def test_narrow_case_uniformly_negative(self):
        cells = level_influence_experiment(CASE_A)
        assert all(c.error is None for c in cells)
        assert all(c.v_db < 0 for c in cells)

    def test_wide_case_uniformly_positive(self):
        cells = level_influence_experiment(CASE_B)
        assert all(c.error is None for c in cells)
        assert all(c.v_db > 0 for c in cells)

    def test_valley_is_much_flatter_than_levels(self):
        for case in (CASE_A, CASE_B):
            cells = [c for c in level_influence_experiment(case) if c.error is None]
            v = np.array([c.v_db for c in cells])
            span = np.array([c.level_diff_db for c in cells])
            assert span.max() - span.min() >= 12.0
            assert v.max() - v.min() <= 3.0

    def test_unmeasurable_cells_are_flagged(self):
        cells = level_influence_experiment(CASE_A, b1_values=(450.0,), b2_values=(450.0,))
        assert len(cells) == 1
        assert cells[0].error is not None
        assert cells[0].v_db is None

    @pytest.mark.parametrize("b1", [0.0, -50.0, float("nan")])
    def test_bandwidth_must_be_positive(self, b1):
        with pytest.raises(ValueError, match="formant bandwidth must be positive"):
            level_influence_experiment(CASE_A, b1_values=(b1,), b2_values=(100.0,))

    def test_missing_and_merged_peaks_are_flagged(self):
        case = np.vstack([[(1000.0, 100.0), (1250.0, 100.0)], CASE_A[2:]])
        cells = level_influence_experiment(case, b1_values=(70.0, 300.0), b2_values=(300.0,))
        assert [c.error for c in cells] == [
            "no spectral peak within 200.0 Hz of 1250.0 Hz",
            "no separate spectral peaks within 200.0 Hz of 1000.0 Hz and 1250.0 Hz: "
            "both windows find the peak at 1161.5 Hz",
        ]
        assert all(c.l1_db is c.l2_db is c.v_db is None for c in cells)


class TestF0Influence:
    def test_narrow_case_differences_stay_small(self):
        rows = f0_influence_experiment(CASE_A)
        assert len(rows) == 7
        assert all(abs(r.diff_db) <= 1.5 for r in rows)

    def test_wide_case_differences_positive_band(self):
        rows = f0_influence_experiment(CASE_B)
        assert all(1.5 <= r.diff_db <= 3.5 for r in rows)

    def test_dense_harmonic_limit_without_lag_window(self):
        for case in (CASE_A, CASE_B):
            rows = f0_influence_experiment(
                case, f0_values=(50.0,), lag_window_half_length=None
            )
            assert abs(rows[0].diff_db) <= 0.5


MALE_EXPECTED = {
    ("iy", "V23"): 1.05, ("ih", "V23"): 1.50, ("eh", "V23"): 1.66,
    ("ae", "V23"): 1.79, ("aa", "V12"): 3.95, ("ao", "V12"): 4.57,
    ("uh", "V12"): 4.58, ("uw", "V12"): 4.56, ("ah", "V12"): 4.01,
    ("tube", "V12"): 3.59, ("tube", "V23"): 1.82,
}


class TestPbOcdTable:
    def test_male_values(self, pb_entries):
        from specvalley.corpus import pb_mean_formants

        rows = pb_ocd_table(pb_sweeps(pb_mean_formants(pb_entries, "male"), "male"))
        assert len(rows) == 11  # "er" has no sweep
        for row in rows:
            assert row.error is None, f"{row.vowel}: {row.error}"
            want = MALE_EXPECTED[(row.vowel, row.basis)]
            assert abs(row.result.ocd_bark - want) <= 0.3, (
                f"{row.vowel}/{row.basis}: {row.result.ocd_bark:.2f} vs {want}"
            )

    def test_unmeasurable_start_is_its_vowel_row(self, pb_entries):
        from specvalley.corpus import pb_mean_formants

        means = {v: f for v, f in pb_mean_formants(pb_entries, "male").items()
                 if v in FRONT_VOWELS + BACK_VOWELS}
        rows = pb_ocd_table(pb_sweeps(means, "male", bandwidth_hz=300.0))
        assert len(rows) == len(means) + 2
        bad = [r for r in rows if r.unmeasurable]
        assert [(r.vowel, r.basis, r.error, r.result) for r in bad] == [
            ("ao", "V12", "no spectral peak within 200.0 Hz of 840.0 Hz", None)]
        # a sweep that starts but loses its peaks is a no-crossing row
        iy = next(r for r in rows if r.vowel == "iy")
        assert iy.error.startswith("valley became unmeasurable before crossing")
        assert not iy.unmeasurable
        assert sum(r.result is not None for r in rows) == len(rows) - 2

    def test_sweeps_come_in_print_order(self, pb_entries):
        # whatever the table's order, front vowels, the tube's two sweeps, then
        # back vowels; "er", neither front nor back, has no sweep
        from specvalley.corpus import pb_mean_formants

        means = dict(reversed(pb_mean_formants(pb_entries, "male").items()))
        assert "er" in means
        assert [(v, cfg.basis) for v, cfg in pb_sweeps(means, "male")] == [
            *((v, "V23") for v in FRONT_VOWELS), ("tube", "V12"), ("tube", "V23"),
            *((v, "V12") for v in BACK_VOWELS)]
        assert [v for v, _ in pb_sweeps({"uw": means["uw"], "ae": means["ae"]}, "male")] == [
            "ae", "tube", "tube", "uw"]

    def test_widened_flag_set_for_narrow_starts(self):
        from specvalley.corpus import pb_mean_formants

        rows = pb_ocd_table(pb_sweeps({"aa": (730.0, 1090.0, 2440.0)}, "male"))
        assert widened(next(r for r in rows if r.vowel == "aa").result)

    def test_gender_rank_agreement(self, pb_entries):
        from specvalley.corpus import pb_mean_formants

        tables = {}
        for gender in ("male", "female"):
            rows = pb_ocd_table(pb_sweeps(pb_mean_formants(pb_entries, gender), gender))
            tables[gender] = {r.vowel: r.result.ocd_bark for r in rows if r.vowel != "tube"}
        vowels = sorted(tables["male"])
        male = np.array([tables["male"][v] for v in vowels])
        female = np.array([tables["female"][v] for v in vowels])
        rank_m = np.argsort(np.argsort(male)).astype(float)
        rank_f = np.argsort(np.argsort(female)).astype(float)
        corr = np.corrcoef(rank_m, rank_f)[0, 1]
        assert corr > 0


# The sweep and the per-vowel table as they were before the sweep start and
# the vowel and tube rows were folded into one loop each, and before the
# sweep measured its steps with one PairMeter, kept as the exact reference:
# every step builds a new formant list and a whole new spectrum. SweepConfig
# no longer has `move_lower`, which nothing cleared, so the lower formant
# always moves here. Names the sweep looks up are read from this module, so a
# test can patch them here and in `experiments` alike.
@dataclass
class ReferenceOcd:
    """What the reference sweep returns: the fields of `OcdResult`, and how the
    sweep ended, which `ocd_sweep` leaves to its trace."""

    ocd_bark: float
    sweep: list
    pair_trace: list
    crossing_interpolated: bool
    widened: bool


def _replace_pair(formants, pair, f_lo, f_hi):
    i, j = pair
    out = np.array(formants)
    out[i, 0], out[j, 0] = f_lo, f_hi
    return out


def _reference_rlsv(formants, pair, sample_rate, n_points, mean_band_hz):
    freqs, levels = analytic_cascade_spectrum(formants, sample_rate, n_points)
    i, j = pair
    valley = _peak_pair_rlsv(freqs, levels, formants[i, 0], formants[j, 0])[2]
    return _banded_mean_db(freqs, levels, mean_band_hz) - valley


def _reference_sweep(cfg, allow_widening):
    i, j = cfg.pair
    f_lo = cfg.formants[i, 0]
    f_hi = cfg.formants[j, 0]

    def v_at(lo, hi):
        fm = _replace_pair(cfg.formants, cfg.pair, lo, hi)
        return _reference_rlsv(
            fm, cfg.pair, cfg.sample_rate, cfg.n_points, cfg.mean_band_hz
        )

    trace = []
    pairs = []
    v0 = v_at(f_lo, f_hi)
    spacing0 = hz_to_bark(f_hi) - hz_to_bark(f_lo)
    trace.append((spacing0, v0))
    pairs.append((f_lo, f_hi))
    if v0 == 0.0:
        return ReferenceOcd(spacing0, trace, pairs, crossing_interpolated=False, widened=False)
    if v0 < 0 and not allow_widening:
        raise ValueError(
            f"initial RLSV must be positive for an inward sweep, got {v0:.3f} dB"
        )
    narrowing = v0 > 0
    step = cfg.step_hz if narrowing else -cfg.step_hz
    for _ in range(100000):
        nxt_lo = f_lo + step
        nxt_hi = f_hi - step if cfg.move_upper else f_hi
        if not _step_is_legal(cfg.formants, cfg.pair, nxt_lo, nxt_hi, cfg.sample_rate, cfg.step_hz):
            raise NoCrossingError(
                "sweep hit a geometry limit before the RLSV changed sign", trace=trace
            )
        try:
            v = v_at(nxt_lo, nxt_hi)
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            raise NoCrossingError(
                f"valley became unmeasurable before crossing: {exc}", trace=trace
            ) from exc
        spacing = hz_to_bark(nxt_hi) - hz_to_bark(nxt_lo)
        trace.append((spacing, v))
        pairs.append((nxt_lo, nxt_hi))
        if v == 0.0:
            return ReferenceOcd(spacing, trace, pairs, crossing_interpolated=False,
                                widened=not narrowing)
        if (v > 0) != (v0 > 0):
            (s_prev, v_prev), (s_cur, v_cur) = trace[-2], trace[-1]
            ocd = s_prev + (0.0 - v_prev) * (s_cur - s_prev) / (v_cur - v_prev)
            return ReferenceOcd(float(ocd), trace, pairs, crossing_interpolated=True,
                                widened=not narrowing)
        f_lo, f_hi = nxt_lo, nxt_hi
    raise NoCrossingError("sweep exceeded the step budget", trace=trace)


def _reference_pb_ocd_table(
    mean_formants,
    gender,
    sample_rate=None,
    f4=None,
    bandwidth_hz=100.0,
    step_hz=25.0,
    front_vowels=FRONT_VOWELS,
    include_tube=True,
    tube_sample_rate=8000.0,
    tube_f4=3500.0,
):
    if sample_rate is None:
        sample_rate = 8000.0 if gender == "male" else 10000.0
    if f4 is None:
        f4 = 3500.0 if gender == "male" else 4200.0
    rows = []
    for vowel, (f1, f2, f3) in mean_formants.items():
        freqs = [f1, f2, f3, f4]
        fm = np.array([(f, bandwidth_hz) for f in freqs])
        if vowel in front_vowels:
            pair, label = (1, 2), "V23"
        else:
            pair, label = (0, 1), "V12"
        cfg = SweepConfig(fm, sample_rate, pair=pair, step_hz=step_hz)
        try:
            res = _reference_sweep(cfg, allow_widening=True)
            rows.append(VowelOcd(vowel, label, res))
        except NoCrossingError as exc:
            rows.append(VowelOcd(vowel, label, None, error=str(exc)))
    if include_tube:
        tube = np.array([(f, bandwidth_hz) for f in (*UNIFORM_TUBE_FORMANTS_HZ[:3], tube_f4)])
        for pair, label in (((0, 1), "V12"), ((1, 2), "V23")):
            cfg = SweepConfig(tube, tube_sample_rate, pair=pair, step_hz=step_hz)
            try:
                res = _reference_sweep(cfg, allow_widening=True)
                rows.append(VowelOcd("tube", label, res))
            except NoCrossingError as exc:
                rows.append(VowelOcd("tube", label, None, error=str(exc)))
    # the classified vowels in the order pb-ocd prints them, as the command sorted them
    rank = {v: k for k, v in enumerate(front_vowels + ("tube",) + BACK_VOWELS)}
    return sorted((r for r in rows if r.vowel in rank), key=lambda r: (rank[r.vowel], r.basis))


OCD_FIELDS = ("ocd_bark", "sweep", "pair_trace")


def outcome(fn, *args, **kwargs):
    """What a sweep returns, or the type, text, trace and cause of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, AnalysisError) as exc:
        return (type(exc), str(exc), getattr(exc, "trace", None), type(exc.__cause__))


def assert_same_outcome(got, want):
    if isinstance(want, ReferenceOcd):
        assert isinstance(got, OcdResult), got
        assert {f.name for f in fields(OcdResult)} == set(OCD_FIELDS)
        for name in OCD_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert interpolated(got) == want.crossing_interpolated
        assert widened(got) == want.widened
    else:
        assert got == want


SWEEP_CASES = {
    "two_formant_25": (two_formant_cfg(25.0), "V12"),
    "two_formant_12.5": (two_formant_cfg(12.5), "V12"),
    "tube_25": (tube_cfg(step=25.0), "V12"),
    "tube_12.5": (tube_cfg(step=12.5), "V12"),
    "tube_pair_12": (SweepConfig(TUBE, 8000.0, pair=(1, 2)), "V23"),
    "tube_pair_23": (SweepConfig(TUBE, 8000.0, pair=(2, 3)), "V34"),
    "tube_bw_80": (tube_cfg(bw=80.0), "V12"),
    "tube_bw_130": (tube_cfg(bw=130.0), "V12"),
    "tube_bw_200": (tube_cfg(bw=200.0), "V12"),
    "widening_aa": (SweepConfig(
        np.array([(f, 100.0) for f in (730.0, 1090.0, 2440.0, 3500.0)]), 8000.0), "V12"),
    "below_crossing": (SweepConfig(
        np.vstack([[(800.0, 100.0), (1200.0, 100.0)], TUBE[2:]]), 8000.0), "V12"),
    "geometry_limit": (SweepConfig(
        np.array([(500.0, 20.0), (1500.0, 20.0)]), 8000.0, step_hz=100.0), "V12"),
    "unmeasurable_valley": (SweepConfig(
        np.array([(500.0, 400.0), (1500.0, 400.0)]), 8000.0,
        mean_band_hz=1600.0), "V12"),
}


class TestSweepMatchesReference:
    @pytest.mark.parametrize("allow_widening", [False, True], ids=["inward", "widening"])
    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_same_outcome(self, case, allow_widening):
        cfg, label = SWEEP_CASES[case]
        assert cfg.basis == label
        want = outcome(_reference_sweep, cfg, allow_widening)
        assert_same_outcome(outcome(ocd_sweep, replace(cfg, allow_widening=allow_widening)),
                            want)
        if not allow_widening:
            assert_same_outcome(outcome(ocd_sweep, cfg), want)

    def test_cases_reach_every_ending(self):
        endings = set()
        for cfg, _ in SWEEP_CASES.values():
            for allow_widening in (False, True):
                got = outcome(_reference_sweep, cfg, allow_widening)
                if isinstance(got, ReferenceOcd):
                    endings.add(("widened" if got.widened else "narrowed",
                                 got.crossing_interpolated))
                else:
                    endings.add(got[1].split(":")[0].split(",")[0])
        assert endings == {
            ("narrowed", True), ("widened", True),
            "initial RLSV must be positive for an inward sweep",
            "sweep hit a geometry limit before the RLSV changed sign",
            "valley became unmeasurable before crossing",
        }

    @pytest.mark.parametrize("gender", ["male", "female"])
    def test_pb_ocd_table(self, gender, pb_entries):
        from specvalley.corpus import pb_mean_formants

        means = pb_mean_formants(pb_entries, gender)
        means = {v: f for v, f in means.items() if v in FRONT_VOWELS + BACK_VOWELS}
        want = _reference_pb_ocd_table(means, gender)
        got = pb_ocd_table(pb_sweeps(means, gender))
        assert [(r.vowel, r.basis, r.error) for r in got] == [
            (r.vowel, r.basis, r.error) for r in want]
        assert len(got) == len(means) + 2
        for g, w in zip(got, want):
            assert_same_outcome(g.result, w.result)

    def test_pb_ocd_table_no_crossing_rows(self):
        # 20 Hz bandwidths keep every valley below the mean until the pair
        # runs out of room, so every row, the tube rows too, is an error row
        means = {"aa": (730.0, 1090.0, 2440.0), "iy": (270.0, 2290.0, 3010.0)}
        want = _reference_pb_ocd_table(means, "male", bandwidth_hz=20.0, step_hz=100.0)
        got = pb_ocd_table(pb_sweeps(means, "male", bandwidth_hz=20.0, step_hz=100.0))
        assert [(r.vowel, r.basis, r.error, r.result) for r in got] == [
            (r.vowel, r.basis, r.error, r.result) for r in want]
        assert all(r.error for r in got)


def linear_rlsv(zero_at_hz, fail_below_hz=None):
    """A stand-in RLSV of (spacing - zero_at_hz) / 100 dB for a pair at f_lo < f_hi.

    It is exact on a 25 Hz grid, so a sweep can land on zero. Below a spacing
    of `fail_below_hz` the peak cannot be found.
    """
    def rlsv(f_lo, f_hi):
        spacing = f_hi - f_lo
        if fail_below_hz is not None and spacing < fail_below_hz:
            raise PeakNotFoundError(f"spacing {spacing}")
        return (spacing - zero_at_hz) / 100.0
    return rlsv


def patch_sweep(monkeypatch, name, fn):
    """Replace a name the sweep uses, in `experiments` and in the reference."""
    monkeypatch.setattr(experiments, name, fn)
    monkeypatch.setattr(sys.modules[__name__], name, fn)


def patch_rlsv(monkeypatch, rlsv):
    """Measure every step with `rlsv(f_lo, f_hi)`: in the sweep, each step of its
    PairMeter; in the reference, each of its spectra."""
    class StandInMeter:
        def __init__(self, *args):
            pass

        def measure(self, lo, hi):
            return None, None, rlsv(lo[0], hi[0])

    monkeypatch.setattr(experiments, "PairMeter", StandInMeter)
    monkeypatch.setattr(sys.modules[__name__], "_reference_rlsv",
                        lambda formants, pair, *args: rlsv(formants[pair[0], 0],
                                                           formants[pair[1], 0]))


class TestSweepEndings:
    """Endings the analytic spectrum does not reach, on a stand-in RLSV."""

    START = np.array([(500.0, 100.0), (1500.0, 100.0)])  # 1000 Hz apart

    @pytest.mark.parametrize("allow_widening", [False, True], ids=["inward", "widening"])
    @pytest.mark.parametrize("zero_at, fail_below", [
        (1000.0, None),   # exact zero at the start: not widened, not interpolated
        (700.0, None),    # exact zero after narrowing six steps
        (1200.0, None),   # exact zero after widening four steps
        (730.0, None),    # crossing between steps while narrowing
        (1130.0, None),   # crossing between steps while widening
        (300.0, 500.0),   # the peak is lost before the crossing
        (300.0, 1100.0),  # the peak is lost at the start: raised as it is
    ])
    def test_same_outcome(self, zero_at, fail_below, allow_widening, monkeypatch):
        patch_rlsv(monkeypatch, linear_rlsv(zero_at, fail_below))
        cfg = SweepConfig(self.START, 8000.0)
        want = outcome(_reference_sweep, cfg, allow_widening)
        assert_same_outcome(outcome(ocd_sweep, replace(cfg, allow_widening=allow_widening)),
                            want)

    def test_exact_zero_start(self, monkeypatch):
        patch_rlsv(monkeypatch, linear_rlsv(1000.0))
        res = ocd_sweep(SweepConfig(self.START, 8000.0))
        assert res.sweep == [(res.ocd_bark, 0.0)]
        assert not widened(res) and not interpolated(res)

    def test_step_budget(self, monkeypatch):
        # the RLSV never falls, and the steps are too small to reach a limit
        patch_rlsv(monkeypatch, lambda f_lo, f_hi: 1.0)
        monkeypatch.setattr(sys.modules[__name__], "_replace_pair",
                            lambda formants, *args: formants)
        patch_sweep(monkeypatch, "hz_to_bark", lambda f: f)
        cfg = SweepConfig(self.START, 8000.0, step_hz=0.001)
        want = outcome(_reference_sweep, cfg, False)
        assert want[1] == "sweep exceeded the step budget"
        assert len(want[2]) == 1 + 100000
        assert_same_outcome(outcome(ocd_sweep, cfg), want)


    @pytest.mark.parametrize("freqs, pair, move_upper, widening", [
        ((500.0, 1500.0), (0, 1), True, False),
        ((500.0, 1500.0), (0, 1), False, False),
        ((500.0, 1500.0), (0, 1), True, True),  # 0 Hz, 500 Hz below F1
        ((500.0, 700.0), (0, 1), False, True),
        (UNIFORM_TUBE_FORMANTS_HZ, (1, 2), True, True),  # F1 and F4 bound the pair
        ((3500.0, 3700.0), (0, 1), True, True),  # Nyquist, 300 Hz above F2
    ])
    @pytest.mark.parametrize("step", [25.0, 7.0, 1.3])
    def test_step_bound_covers_every_sweep_to_a_geometry_limit(self, freqs, pair, move_upper,
                                                               widening, step, monkeypatch):
        # an RLSV that keeps its sign: only the geometry ends the sweep, in the
        # direction that allows more steps in each case
        patch_rlsv(monkeypatch, lambda f_lo, f_hi: -1.0 if widening else 1.0)
        cfg = SweepConfig(np.array([(f, 100.0) for f in freqs]), 8000.0, pair=pair,
                          step_hz=step, move_upper=move_upper)
        with pytest.raises(NoCrossingError, match="geometry limit") as err:
            ocd_sweep(replace(cfg, allow_widening=widening))
        steps = len(err.value.trace) - 1
        assert steps <= sweep_step_bound(replace(cfg, allow_widening=widening)) <= steps + 1

class TestSweepConfigChecks:
    @pytest.mark.parametrize("step", [0.0, -25.0, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step_hz must be positive"):
            SweepConfig(TUBE, 8000.0, step_hz=step)
