"""Acceptance gates: every release criterion, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic corpus fixtures are session-scoped, so this module can
be run on its own.
"""

import filecmp

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from cascade_reference import analytic_cascade_spectrum
from conftest import PERCEPTUAL_CRITICAL_DISTANCE_BARK, analyse, cascade_rows, peak_levels
from specvalley import baseline, classify
from specvalley.cli import run
from specvalley.corpus import pb_mean_formants
from specvalley.envelope import valley_minima
from specvalley.errors import NoDecisionError
from specvalley.experiments import (
    SweepConfig,
    UNIFORM_TUBE_FORMANTS_HZ,
    f0_influence_experiment,
    level_influence_experiment,
    ocd_sweep,
    pb_ocd_table,
    pb_sweeps,
    power_mean_db,
)
from specvalley.scales import hz_to_bark
from specvalley.sigproc import (
    autocorrelation,
    levinson_rows,
    polynomial_roots,
)

CASE_A = np.array([(400.0, 100.0), (700.0, 100.0), (2500.0, 100.0), (3500.0, 100.0)])
CASE_B = np.array([(600.0, 100.0), (1300.0, 100.0), (2500.0, 100.0), (3500.0, 100.0)])


def report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_bark_checkpoints():
    # quoted spacings carry 0.1-bark rounding; computed values must land
    # within 0.05 of the quoted value's rounding interval
    pairs = [(750.0, 1400.0, 3.9), (850.0, 1400.0, 3.2), (950.0, 1400.0, 2.5),
             (500.0, 1500.0, 6.5), (725.0, 1275.0, 3.6), (800.0, 1200.0, 2.6)]
    residuals = []
    ok = True
    for f_lo, f_hi, quoted in pairs:
        spacing = hz_to_bark(f_hi) - hz_to_bark(f_lo)
        past_rounding = max(abs(spacing - quoted) - 0.05, 0.0)
        residuals.append(f"{quoted}:{spacing - quoted:+.3f}")
        ok &= past_rounding <= 0.05
    report(1, "bark checkpoints", ok, "residuals " + " ".join(residuals))


def test_criterion_2_two_formant_ocd():
    cfg = SweepConfig(
        np.array([(650.0, 100.0), (1400.0, 200.0)]),
        10000.0, move_upper=False, mean_band_hz=2500.0,
    )
    got = ocd_sweep(cfg).ocd_bark
    report(2, "two-formant OCD", abs(got - 3.2) <= 0.2, f"{got:.3f} bark vs 3.2 +/- 0.2")


def test_criterion_3_uniform_tube_ocd():
    cfg = SweepConfig(np.array([(f, 100.0) for f in UNIFORM_TUBE_FORMANTS_HZ]), 8000.0)
    got = ocd_sweep(cfg).ocd_bark
    lo, hi = PERCEPTUAL_CRITICAL_DISTANCE_BARK
    ok = abs(got - 3.6) <= 0.2 and lo <= got <= hi
    report(3, "uniform-tube OCD", ok,
           f"{got:.3f} bark vs 3.6 +/- 0.2, inside [{lo}, {hi}]")


EXPECTED_OCD = {
    "male": {("iy", "V23"): 1.05, ("ih", "V23"): 1.50, ("eh", "V23"): 1.66,
             ("ae", "V23"): 1.79, ("tube", "V23"): 1.82, ("tube", "V12"): 3.59,
             ("aa", "V12"): 3.95, ("ao", "V12"): 4.57, ("uh", "V12"): 4.58,
             ("uw", "V12"): 4.56, ("ah", "V12"): 4.01},
    "female": {("iy", "V23"): 1.08, ("ih", "V23"): 1.32, ("eh", "V23"): 1.46,
               ("ae", "V23"): 1.67, ("tube", "V23"): 1.82, ("tube", "V12"): 3.59,
               ("aa", "V12"): 4.33, ("ao", "V12"): 4.89, ("uh", "V12"): 4.86,
               ("uw", "V12"): 4.93, ("ah", "V12"): 4.26},
}


def test_criterion_4_per_vowel_ocd_table(pb_entries):
    worst = 0.0
    n_checked = 0
    failures = []
    for gender, expected in EXPECTED_OCD.items():
        means = pb_mean_formants(pb_entries, gender)
        means = {v: f for v, f in means.items() if v != "er"}
        rows = pb_ocd_table(pb_sweeps(means, gender))
        for row in rows:
            want = expected[(row.vowel, row.basis)]
            if row.result is None:
                failures.append(f"{gender}/{row.vowel}: {row.error}")
                continue
            err = abs(row.result.ocd_bark - want)
            worst = max(worst, err)
            n_checked += 1
            if err > 0.3:
                failures.append(
                    f"{gender}/{row.vowel}/{row.basis}: {row.result.ocd_bark:.2f} vs {want}"
                )
    ok = not failures and n_checked == 22
    report(4, "per-vowel OCD table", ok,
           f"{n_checked}/22 values, worst |error| {worst:.3f} bark" +
           ("" if not failures else "; " + "; ".join(failures)))


def test_criterion_5_f0_influence_bands():
    rows_a = f0_influence_experiment(CASE_A)
    rows_b = f0_influence_experiment(CASE_B)
    diffs_a = [r.diff_db for r in rows_a]
    diffs_b = [r.diff_db for r in rows_b]
    ok_a = all(abs(d) <= 1.5 for d in diffs_a)
    ok_b = all(1.5 <= d <= 3.5 for d in diffs_b)
    report(5, "F0 influence", ok_a and ok_b,
           "case a " + "/".join(f"{d:+.2f}" for d in diffs_a) +
           " (|d|<=1.5); case b " + "/".join(f"{d:+.2f}" for d in diffs_b) +
           " (in [1.5, 3.5])")


def test_criterion_6_level_influence_properties():
    details = []
    ok = True
    for name, case, want_sign in (("a", CASE_A, -1), ("b", CASE_B, +1)):
        cells = level_influence_experiment(case)
        measured = [c for c in cells if c.error is None]
        ok &= len(measured) == len(cells)
        v = np.array([c.v_db for c in measured])
        span = np.array([c.level_diff_db for c in measured])
        sign_ok = np.all(v * want_sign > 0)
        spread = v.max() - v.min()
        level_span = span.max() - span.min()
        ok &= bool(sign_ok) and spread <= 3.0 and level_span >= 12.0
        details.append(
            f"case {name}: v in [{v.min():+.2f}, {v.max():+.2f}] "
            f"spread {spread:.2f}<=3, L1-L2 span {level_span:.1f}>=12"
        )
    report(6, "level influence", ok, "; ".join(details))


def _corpus_reports(clean_segment_features):
    out = {}
    for rule in ("valley", "f3f2_3bark", "f2f1_bark"):
        decisions, truths = [], []
        for truth, feats, _ in clean_segment_features:
            try:
                d = classify.decide_segment(feats, None, rule)
            except NoDecisionError:
                d = None
            decisions.append(d)
            truths.append(truth)
        out[rule] = classify.score(decisions, truths)
    return out


def test_criterion_7_synthetic_corpus_accuracies(clean_segment_features, corpus_dir, tmp_path):
    reports = _corpus_reports(clean_segment_features)
    valley = reports["valley"].overall_accuracy
    bark3 = reports["f3f2_3bark"].overall_accuracy
    f2f1 = reports["f2f1_bark"].overall_accuracy
    # the CLI path over the same bundled fixture must agree
    out = tmp_path / "cls.csv"
    code = run(["classify", "--corpus", str(corpus_dir), "--out", str(out),
                "--no-timestamp"])
    cli_overall = None
    for line in out.read_text().splitlines():
        if line.startswith("# valley,"):
            cli_overall = float(line.split(",")[4])
    ok = (valley >= 95.0 and bark3 >= 95.0 and f2f1 < 60.0 and code == 0
          and cli_overall is not None and cli_overall >= 95.0)
    report(7, "synthetic corpus accuracies", ok,
           f"valley {valley:.1f}>=95, 3-bark {bark3:.1f}>=95, "
           f"F1F2 rule {f2f1:.1f}<60, CLI overall {cli_overall}")


def test_criterion_8_noise_harness(corpus_table, noisy_corpus):
    cfg = classify.PipelineConfig()

    # the corpus commands' analysis stage: blocks of whole segments, central
    # vowels skipped, the valley rule at its default threshold
    def accuracy(kind, snr):
        decided = list(classify.segment_decisions(corpus_table, cfg,
                                                  mix=noisy_corpus(kind, snr)))
        return classify.score([d for *_, d in decided],
                              [truth for _, truth, _ in decided]).overall_accuracy

    details = []
    ok = True
    for kind in ("white", "babble"):
        acc = {snr: accuracy(kind, snr) for snr in (40.0, 25.0, 20.0)}
        ok &= acc[40.0] >= acc[20.0] and acc[25.0] >= 90.0
        details.append(f"{kind}: 40dB {acc[40.0]:.1f} >= 20dB {acc[20.0]:.1f}, "
                       f"25dB {acc[25.0]:.1f}>=90")
    report(8, "noise harness", ok, "; ".join(details))


def test_criterion_9_numerical_oracles(clean_segment_features):
    details = []

    # cascade spectrum vs 32768-sample impulse-response spectrum
    fs = 10000.0
    fm = np.array([(750.0, 100.0), (1400.0, 200.0)])
    x = cascade_rows(fm, [0.0], fs, 32768)[0]
    oracle = 20 * np.log10(np.abs(np.fft.rfft(x)))
    _, levels_db = analytic_cascade_spectrum(fm, fs, 16385)
    dev = float(np.max(np.abs(levels_db - oracle)))
    details.append(f"cascade vs FFT {dev:.2e}<=0.1dB")
    ok = dev <= 0.1

    # Levinson vs dense Toeplitz solve
    rng = np.random.default_rng(17)
    x = lfilter([1.0], [1.0, -0.5, 0.2], rng.standard_normal(16384))
    worst = 0.0
    for order in (8, 18, 20):
        r = autocorrelation(x[None, :], order)[0]
        predictor = -levinson_rows(r[None, :], order).a[0, 1:]
        dense = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
        worst = max(worst, float(np.max(np.abs(predictor - dense))))
    details.append(f"levinson vs dense {worst:.2e}<=1e-9")
    ok &= worst <= 1e-9

    # root reconstruction
    coeffs = rng.standard_normal(19)
    coeffs[0] = 1.0
    rebuilt = np.real_if_close(np.poly(polynomial_roots(coeffs[None, :])[0]), tol=1e6)
    rec = float(np.max(np.abs(rebuilt - coeffs)) / np.max(np.abs(coeffs)))
    details.append(f"root reconstruction {rec:.2e}<=1e-8")
    ok &= rec <= 1e-8

    # network gradient vs central differences
    xg = rng.standard_normal((30, 4))
    yg = (rng.random(30) > 0.5).astype(float)
    w1 = 0.3 * rng.standard_normal((6, 4))
    b1 = 0.1 * rng.standard_normal(6)
    w2 = 0.3 * rng.standard_normal(6)
    b2 = -0.02
    _, (gw1, gb1, gw2, gb2) = baseline.loss_and_gradients(w1, b1, w2, b2, xg, yg)
    eps = 1e-6
    worst_rel = 0.0
    for arr, grad in ((w1, gw1), (b1, gb1), (w2, gw2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + eps
            up, _ = baseline.loss_and_gradients(w1, b1, w2, b2, xg, yg)
            arr[idx] = old - eps
            dn, _ = baseline.loss_and_gradients(w1, b1, w2, b2, xg, yg)
            arr[idx] = old
            num = (up - dn) / (2 * eps)
            worst_rel = max(worst_rel,
                            abs(num - grad[idx]) / max(abs(num), abs(grad[idx]), 1e-8))
    num = ((baseline.loss_and_gradients(w1, b1, w2, b2 + eps, xg, yg)[0]
            - baseline.loss_and_gradients(w1, b1, w2, b2 - eps, xg, yg)[0]) / (2 * eps))
    worst_rel = max(worst_rel, abs(num - gb2) / max(abs(num), abs(gb2), 1e-8))
    details.append(f"gradient check {worst_rel:.2e}<=1e-5")
    ok &= worst_rel <= 1e-5

    # RLSV invariant under envelope gain; decisions bit-equal under audio gain
    freqs, levels_db = analytic_cascade_spectrum(
        np.array([(f, 100.0) for f in UNIFORM_TUBE_FORMANTS_HZ]), 8000.0, 2048)
    louder = levels_db + 17.3
    levels = np.array([levels_db, louder])
    peaks, _, missing = peak_levels(freqs, levels[:1], [[500.0, 1500.0]])
    _, valley, narrow = valley_minima(freqs, levels, peaks[[0, 0], 0], peaks[[0, 0], 1])
    ok &= not (missing.any() or narrow.any())
    rlsv_db = np.array([power_mean_db(levels_db), power_mean_db(louder)]) - valley
    gain_dev = abs(rlsv_db[0] - rlsv_db[1])
    details.append(f"RLSV gain drift {gain_dev:.2e}")
    ok &= gain_dev < 1e-9

    flips = 0
    cfg = classify.PipelineConfig()
    for truth, feats, (samples, rate) in clean_segment_features[:40]:
        try:
            base_pred = classify.decide_segment(feats).predicted
        except NoDecisionError:
            base_pred = None
        for gain in (0.25, 4.0):
            scaled = (samples * gain, rate)
            try:
                pred = classify.decide_segment(analyse(scaled, cfg)).predicted
            except NoDecisionError:
                pred = None
            flips += pred != base_pred
    details.append(f"gain-scaled prediction flips {flips}=0")
    ok &= flips == 0

    report(9, "numerical oracles", ok, "; ".join(details))


def test_criterion_10_cli_determinism(small_corpus_dir, babble_path, tmp_path):
    corpus = str(small_corpus_dir)
    commands = [
        ["sweep2"],
        ["ocd2"],
        ["ocd4"],
        ["levels", "--case", "a"],
        ["f0", "--case", "b", "--f0-values", "100,200"],
        ["pb-ocd", "--gender", "male"],
        ["classify", "--corpus", corpus],
        ["noise-eval", "--corpus", corpus, "--snrs", "30",
         "--noise", "white,babble", "--babble-source", str(babble_path)],
        ["baseline", "--corpus", corpus, "--epochs", "40"],
        ["hist", "--corpus", corpus],
    ]
    mismatched = []
    for k, cmd in enumerate(commands):
        paths = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{k}_{attempt}.csv"
            code = run(cmd + ["--seed", "3", "--no-timestamp", "--out", str(out)])
            assert code == 0, f"{cmd} exited {code}"
            paths.append(out)
        if not filecmp.cmp(*paths, shallow=False):
            mismatched.append(cmd[0])
    report(10, "CLI determinism", not mismatched,
           f"10 commands, byte-identical reruns" +
           ("" if not mismatched else f"; mismatched: {mismatched}"))
