"""Command-line surface: one subcommand per experiment, CSV output."""

import argparse
import datetime
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, baseline, classify, corpus, experiments, sigproc
from .errors import AnalysisError, PeakNotFoundError, ValleyUndefinedError
from .scales import hz_to_bark

CASE_GEOMETRIES = {  # narrow- and wide-spacing four-formant cases
    "a": (400.0, 700.0),
    "b": (600.0, 1300.0),
}

FEATURE_RULES = {  # --feature of the corpus commands -> decision rule
    "valley": "valley",
    "diff": "valley",
    "valley3": "valley",
    "f3f2": "f3f2_3bark",
    "f2f1": "f2f1_bark",
    "v1": "v1_only",
    "v2": "v2_only",
}

MAX_INT64 = 2**63 - 1  # the largest --seed and --lag-window

# What a numeric flag accepts: a test of its value, and the words of the
# usage error when the test fails (each test is false for NaN)
POSITIVE = (lambda x: math.isfinite(x) and x > 0, "must be a finite positive number")
FINITE = (math.isfinite, "must be finite")
SNR = (lambda x: abs(x) <= corpus.MAX_SNR_DB, f"must be within +/-{corpus.MAX_SNR_DB:g} dB")
UNIT_INTERVAL = (lambda x: 0.0 <= x < 1.0, "must be in [0, 1)")
NON_NEGATIVE = (lambda x: math.isfinite(x) and x >= 0, "must be finite and not negative")
NON_NEGATIVE_INT64 = (lambda n: 0 <= n <= MAX_INT64,
                      f"must be at least 0 and at most {MAX_INT64}")
AT_LEAST_ONE = (lambda n: n >= 1, "must be at least 1")
HIDDEN_UNITS = (lambda n: 1 <= n <= baseline.MAX_HIDDEN_UNITS,
                f"must be at least 1 and at most {baseline.MAX_HIDDEN_UNITS}")
LP_ORDER = (lambda n: 1 <= n <= sigproc.MAX_LP_ORDER,
            f"must be at least 1 and at most {sigproc.MAX_LP_ORDER}")
GRID_SIZE = (lambda n: 64 <= n <= experiments.MAX_GRID_POINTS,
             f"must be at least 64 and at most {experiments.MAX_GRID_POINTS}")


# A negative number, or a list that starts with one: a value after a space,
# as "-20" already is to argparse, and not a flag ("-1e300", "-inf", "-1e1,5")
NEGATIVE_VALUE = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)(?:,.*)?$", re.IGNORECASE)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_VALUE

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


class Output:
    """Collects CSV lines and writes them once, to a file or stdout, under a
    header that names the command and the params it records."""

    def __init__(self, args):
        self.path, self.command = args.out, args.command
        self.params = {"seed": args.seed}
        self.generated = None if args.no_timestamp else datetime.datetime.now().isoformat()
        self.lines = []

    def row(self, *cells):
        self.lines.append(",".join(str(c) for c in cells))

    def note(self, text):
        self.lines.append(f"# {text}")

    def flush(self):
        head = [f"# specvalley {self.command} v{__version__}",
                "# params: " + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))]
        if self.generated:
            head.append(f"# generated: {self.generated}")
        text = "\n".join(head + self.lines) + "\n"
        if self.path:
            Path(self.path).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)


class _Stop(Exception):
    """Ends a command with exit code 1: its output so far, then this note."""


def _fmt(x, digits=6):
    if x is None:
        return ""
    return f"{x:.{digits}f}"


def _typed(flag, accepts, convert=float):
    """An argparse type: `convert` the text, then a UsageError unless `accepts` holds."""
    test, words = accepts

    def parse(text):
        value = convert(text)
        if not test(value):
            raise UsageError(f"{flag} {words}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value: 'x'"
    return parse


def _number(p, flag, default, accepts, convert=float, **kwargs):
    p.add_argument(flag, type=_typed(flag, accepts, convert), default=default, **kwargs)


def _floats(text, flag, accepts):
    """The entries of a comma-separated list flag, each checked against `accepts`."""
    entry = _typed(flag, accepts)
    try:
        values = [entry(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} must list numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must list at least one value, got {text!r}")
    return values


def _band(text):
    """--band in Hz: finite, and 0 or below disables the band (None)."""
    value = _typed("--band", FINITE)(text)
    return value if value > 0 else None


_band.__name__ = "float"  # argparse names the type of a value that is not a number


def _add_common(p, seeded):
    """The flags every command takes; only a `seeded` command reads --seed."""
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    _number(p, "--seed", 0, NON_NEGATIVE_INT64, int,
            help="seed for any randomness" if seeded else "recorded in the params line only")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generation-time header line")


def _below_nyquist(fs, formants, rate="--fs"):
    """A UsageError naming the first (flag, Hz) of `formants` at or above fs/2."""
    for name, hz in formants:
        if hz >= fs / 2.0:
            raise UsageError(f"{name} at {hz:g} Hz is at or above Nyquist "
                             f"({rate} {fs:g} gives {fs / 2.0:g} Hz)")


def _ascending(formants):
    """A UsageError naming the first two (flag, Hz) of `formants` not in ascending order."""
    for (lo_name, lo), (hi_name, hi) in zip(formants, formants[1:]):
        if lo >= hi:
            raise UsageError(f"{lo_name} ({lo:g} Hz) must be below {hi_name} ({hi:g} Hz)")


def _step_budget(cfg, sweep):
    """A UsageError naming --step when the geometry lets the `sweep` of `cfg` take
    more than `experiments.MAX_SWEEP_STEPS` steps."""
    if experiments.sweep_step_bound(cfg) > experiments.MAX_SWEEP_STEPS:
        raise UsageError(f"--step {cfg.step_hz:g} allows more than "
                         f"{experiments.MAX_SWEEP_STEPS} steps {sweep}")


# ---------------------------------------------------------------- experiments


def _sweep_table(out, pairs, sweep, notes):
    """The step table of a sweep: per step its (f_low, f_high) of `pairs` in Hz and its
    (spacing in bark, RLSV in dB or None) of `sweep`, then a note per line of `notes`."""
    out.row("step", "f_low", "f_high", "spacing_bark", "v_db")
    for k, ((f_lo, f_hi), (spacing, v)) in enumerate(zip(pairs, sweep)):
        out.row(k, _fmt(f_lo, 1), _fmt(f_hi, 1), _fmt(spacing, 4), _fmt(v, 4))
    for note in notes:
        out.note(note)


def _cmd_sweep2(args, out):
    if args.f1_stop < args.f1_start:
        raise UsageError(f"--f1-stop ({args.f1_stop}) must not be below "
                         f"--f1-start ({args.f1_start})")
    if (args.f1_stop - args.f1_start) / args.f1_step > experiments.MAX_SWEEP_STEPS:
        raise UsageError(f"--f1-step {args.f1_step:g} gives more than "
                         f"{experiments.MAX_SWEEP_STEPS} steps over --f1-start..--f1-stop")
    _below_nyquist(args.fs, [("--f1-start", args.f1_start), ("--f1-stop", args.f1_stop),
                             ("--f2", args.f2)])
    f1_values = np.arange(args.f1_start, args.f1_stop + 0.5 * args.f1_step, args.f1_step)
    _ascending([("the last F1 of --f1-start..--f1-stop", f1_values[-1]), ("--f2", args.f2)])
    out.params.update(f2=args.f2, b1=args.b1, b2=args.b2, fs=args.fs, band=args.band,
                      points=args.points)
    meter = experiments.PairMeter(np.array([(f1_values[0], args.b1), (args.f2, args.b2)]),
                                  (0, 1), args.fs, args.points, args.band)
    rlsv, errors = [], []
    for k, f1 in enumerate(f1_values):
        try:
            rlsv.append(meter.measure((f1, args.b1), (args.f2, args.b2))[2])
        except (PeakNotFoundError, ValleyUndefinedError) as exc:
            rlsv.append(None)
            errors.append(f"step {k} unmeasurable: {exc}")
    _sweep_table(out, [(f1, args.f2) for f1 in f1_values],
                 zip(hz_to_bark(args.f2) - hz_to_bark(f1_values), rlsv), errors)


def _emit_ocd(out, cfg):
    """Run the OCD sweep of `cfg`, then write its step table and its OCD."""
    result = experiments.ocd_sweep(cfg)
    _sweep_table(out, result.pair_trace, result.sweep, [f"ocd_bark,{result.ocd_bark:.4f}"])


def _cmd_ocd2(args, out):
    _below_nyquist(args.fs, [("--f1-start", args.f1_start), ("--f2", args.f2)])
    _ascending([("--f1-start", args.f1_start), ("--f2", args.f2)])
    cfg = experiments.SweepConfig(
        np.array([(args.f1_start, args.b1), (args.f2, args.b2)]), args.fs,
        step_hz=args.step, move_upper=False, n_points=args.points, mean_band_hz=args.band)
    _step_budget(cfg, "from --f1-start up to --f2")
    out.params.update(f1_start=args.f1_start, f2=args.f2, b1=args.b1, b2=args.b2, fs=args.fs,
                      band=args.band, step=args.step, points=args.points)
    _emit_ocd(out, cfg)


def _cmd_ocd4(args, out):
    freqs = _floats(args.formants, "--formants", POSITIVE)
    bws = _floats(args.bw, "--bw", POSITIVE)
    bws = bws * len(freqs) if len(bws) == 1 else bws
    if len(bws) != len(freqs):
        raise UsageError("--bw must give one value or one per formant")
    if len(freqs) < 2:
        raise UsageError("--formants must give at least two formants for a --pair")
    if not 1 <= args.pair <= len(freqs) - 1:
        raise UsageError(f"--pair must be between 1 and {len(freqs) - 1} "
                         f"for {len(freqs)} formants, got {args.pair}")
    _below_nyquist(args.fs, [("--formants", f) for f in freqs])
    _ascending([(f"--formants F{k + 1}", f) for k, f in enumerate(freqs)])
    i = args.pair - 1
    cfg = experiments.SweepConfig(np.column_stack((freqs, bws)), args.fs,
                                  pair=(i, i + 1), step_hz=args.step, n_points=args.points)
    _step_budget(cfg, f"between --formants F{i + 1} and F{i + 2}")
    out.params.update(formants=args.formants, bw=args.bw, fs=args.fs, step=args.step,
                      pair=args.pair, points=args.points)
    _emit_ocd(out, cfg)


def _case_formants(args, b3, b4):
    """F1..F4 of `levels` and `f0`, each below Nyquist and above the one before."""
    if args.case is None and (args.f1 is None or args.f2 is None):
        raise UsageError("give --case a|b, or both --f1 and --f2")
    if args.case is not None and (args.f1 is not None or args.f2 is not None):
        raise UsageError("give --case a|b, or --f1 and --f2, not both")
    f1, f2 = CASE_GEOMETRIES[args.case] if args.case else (args.f1, args.f2)
    lower = (f"--case {args.case} F1", f"--case {args.case} F2") if args.case else ("--f1", "--f2")
    named = list(zip(lower + ("--f3", "--f4"), (f1, f2, args.f3, args.f4)))
    _below_nyquist(args.fs, named)
    _ascending(named)
    return np.array([(f1, 100.0), (f2, 100.0), (args.f3, b3), (args.f4, b4)])


def _cmd_levels(args, out):
    fm = _case_formants(args, args.b3, args.b4)
    f1, f2 = fm[:2, 0].tolist()
    out.params.update(case=args.case or "custom", f1=f1, f2=f2, fs=args.fs,
                      b1_values=args.b1_values, b2_values=args.b2_values)
    cells = experiments.level_influence_experiment(
        fm, _floats(args.b1_values, "--b1-values", POSITIVE),
        _floats(args.b2_values, "--b2-values", POSITIVE), args.fs,
    )
    out.row("b1", "b2", "l1_db", "l2_db", "l1_minus_l2_db", "v_db", "status")
    for c in cells:
        out.row(_fmt(c.b1, 1), _fmt(c.b2, 1), _fmt(c.l1_db, 3), _fmt(c.l2_db, 3),
                _fmt(c.level_diff_db, 3), _fmt(c.v_db, 3),
                "ok" if c.error is None else f"unmeasurable: {c.error}")


def _cmd_f0(args, out):
    fm = _case_formants(args, 100.0, 100.0)
    if 0 < args.lag_window < args.order:
        raise UsageError(f"--lag-window ({args.lag_window}) must not be below --order "
                         f"({args.order}); 0 disables the lag window")
    out.params.update(case=args.case or "custom", fs=args.fs, order=args.order,
                      lag_window=args.lag_window, f0_values=args.f0_values)
    rows = experiments.f0_influence_experiment(
        fm, _floats(args.f0_values, "--f0-values", POSITIVE), args.fs, lp_order=args.order,
        lag_window_half_length=args.lag_window or None,
    )
    out.row("f0", "v_ref_db", "v_f0_db", "diff_db")
    for r in rows:
        out.row(_fmt(r.f0, 1), _fmt(r.v_ref_db, 4), _fmt(r.v_f0_db, 4), _fmt(r.diff_db, 4))


def _cmd_pb_ocd(args, out):
    entries = corpus.load_pb_table(args.table or corpus.default_pb_table_path())
    genders = [g.strip() for g in args.gender.split(",") if g.strip()]
    known = sorted({e.gender for e in entries})
    if not genders or not set(genders) <= set(known):
        raise UsageError(f"--gender must name genders the table has "
                         f"({', '.join(known)}), got {args.gender!r}")
    tables = []
    for gender in genders:
        sweeps = experiments.pb_sweeps(corpus.pb_mean_formants(entries, gender), gender,
                                       args.fs, args.f4, args.bw, args.step)
        rate = "--fs" if args.fs else f"the {gender} default --fs"
        f4 = "--f4" if args.f4 else f"the {gender} default --f4"
        for vowel, cfg in sweeps:  # the tube's fixed formants at 8 kHz always pass
            names = [f"table vowel {vowel} ({gender}) F{k}" for k in (1, 2, 3)] + [f4]
            named = list(zip(names, cfg.formants[:, 0].tolist()))
            _below_nyquist(cfg.sample_rate, named, rate)
            _ascending(named)
            _step_budget(cfg, f"in the {cfg.basis} sweep of {vowel} ({gender})")
        tables.append((gender, sweeps))
    out.params.update(table=args.table or "bundled", gender=args.gender, bw=args.bw,
                      step=args.step)
    out.row("gender", "vowel", "basis", "ocd_bark", "status")
    for gender, sweeps in tables:
        for r in experiments.pb_ocd_table(sweeps):
            if r.result is not None:
                out.row(gender, r.vowel, r.basis, _fmt(r.result.ocd_bark, 4), "ok")
            else:
                status = "unmeasurable" if r.unmeasurable else "no crossing"
                out.row(gender, r.vowel, r.basis, "", f"{status}: {r.error}")


# -------------------------------------------------------------- corpus-based


def _inventory_for(args):
    if args.inventory == "timit":
        return corpus.timit_inventory()
    if args.inventory == "dravidian":
        return corpus.dravidian_inventory()
    if not args.exclusions:
        raise UsageError("--exclusions is required with a custom inventory file")
    return corpus.load_inventory(args.inventory, args.exclusions)


def _corpus_inputs(args):
    """The analysis settings and the segment table of a corpus command; the LP
    order is checked against the frame length at every rate in the corpus."""
    if not Path(args.corpus).is_dir():
        raise UsageError(f"--corpus must be a directory, got {args.corpus!r}")
    try:
        corpus.check_labels_ext(args.labels_ext)
    except ValueError:
        raise UsageError(f"--labels-ext must be empty or a suffix such as .phn, "
                         f"got {args.labels_ext!r}") from None
    inventory = _inventory_for(args)
    cfg = classify.PipelineConfig(frame_ms=args.frame_ms, overlap_fraction=args.overlap,
                                  preemphasis=args.preemph, lp_order=args.lp_order)
    table = corpus.collect_segments(args.corpus, args.labels_ext, inventory)
    for rate in sorted(set(table.rate.tolist())):
        try:
            cfg.order_for(rate)
        except ValueError as exc:
            raise UsageError(f"invalid --lp-order or --frame-ms: {exc}") from exc
    return cfg, table


def _decisions(args, cfg, table, mix=None):
    """The corpus stage with the command's rule, threshold and --include-central."""
    return classify.segment_decisions(table, cfg, FEATURE_RULES[args.feature],
                                      getattr(args, "threshold", None), args.include_central,
                                      mix)


def _threshold(args):
    """The threshold the feature's rule applies: --threshold, else the rule default."""
    if args.threshold is not None:
        return args.threshold
    return classify.DEFAULT_THRESHOLDS[FEATURE_RULES[args.feature]]


def _accuracy_cells(report):
    """Front, back and overall accuracy as three CSV cells; empty for an absent class."""
    return ",".join(_fmt(acc, 2) for acc in (report.front_accuracy, report.back_accuracy,
                                             report.overall_accuracy))


def _add_corpus_args(p, with_feature=True):
    p.add_argument("--corpus", required=True, help="directory of WAV + label files")
    p.add_argument("--labels-ext", default=".phn", help="label sidecar extension")
    p.add_argument("--inventory", default="timit",
                   help="'timit', 'dravidian', or a label-class file")
    p.add_argument("--exclusions", default=None,
                   help="neighbor exclusion file (with a custom inventory)")
    _number(p, "--frame-ms", 20.0, POSITIVE)
    _number(p, "--overlap", 0.5, UNIT_INTERVAL)
    _number(p, "--preemph", 0.97, UNIT_INTERVAL)
    _number(p, "--lp-order", None, LP_ORDER, int, help="LP order (default: rate/1000 + 2)")
    p.add_argument("--include-central", action="store_true",
                   help="score central vowels as back instead of skipping them")
    if with_feature:
        p.add_argument("--feature", default="valley",
                       choices=["valley", "f3f2", "f2f1", "v1", "v2"])
        _number(p, "--threshold", None, FINITE,
                help="decision threshold (default: 5 dB for valley, "
                     "3 bark for f3f2/f2f1, 0 dB for v1/v2)")


def _cmd_classify(args, out):
    cfg, table = _corpus_inputs(args)
    threshold = _threshold(args)
    out.params.update(corpus=args.corpus, feature=args.feature, threshold=threshold,
                      labels_ext=args.labels_ext, inventory=args.inventory)
    out.row("segment_id", "label", "class", "mean_v1", "mean_v2", "mean_diff", "predicted")
    decisions, truths = [], []
    for i, truth, dec in _decisions(args, cfg, table):
        decisions.append(dec)
        truths.append(truth)
        cells = ("", "", "", "undecided") if dec is None else (
            _fmt(dec.mean_v1, 3), _fmt(dec.mean_v2, 3), _fmt(dec.mean_diff, 3), dec.predicted)
        out.row(table.segment_id(i), table.label[i], truth, *cells)
    if not decisions:
        raise _Stop("no segments found")
    report = classify.score(decisions, truths)
    out.note("feature,threshold,front_acc,back_acc,overall,front_n,back_n")
    out.note(f"{args.feature},{threshold},{_accuracy_cells(report)},"
             f"{report.n_front},{report.n_back}")
    if (args.expect_overall is not None
            and abs(report.overall_accuracy - args.expect_overall) > args.expect_tol):
        print(f"overall accuracy {report.overall_accuracy:.2f} outside "
              f"{args.expect_overall}+/-{args.expect_tol}", file=sys.stderr)
        return 1


def _cmd_noise_eval(args, out):
    kinds = [k.strip() for k in args.noise.split(",") if k.strip()]
    if not kinds or not set(kinds) <= set(corpus.NOISE_KINDS):
        raise UsageError(f"--noise must list white and/or babble, got {args.noise!r}")
    if "babble" in kinds and not args.babble_source:
        raise UsageError("--babble-source is required when --noise includes babble")
    snrs = _floats(args.snrs, "--snrs", SNR)
    cfg, table = _corpus_inputs(args)
    threshold = _threshold(args)
    rows, _ = classify.scored_rows(table, args.include_central)
    shown = f"--babble-source {args.babble_source}"
    babble = corpus._read(corpus.load_wav, args.babble_source, shown) if "babble" in kinds else None
    # every condition's mixer, and so its babble check, comes before any analysis
    mixers = [(kind, snr, corpus.noise_mixer(table, rows, kind, snr, args.seed, babble, shown))
              for kind in kinds for snr in snrs]
    out.params.update(corpus=args.corpus, noise=args.noise, snrs=args.snrs,
                      feature=args.feature, threshold=threshold)
    out.note("noise is added per segment, scaled to the requested SNR over that segment")
    out.row("noise", "snr_db", "front_acc", "back_acc", "overall_acc", "n_undecided")
    if not len(rows):
        raise _Stop("no segments found")
    for kind, snr, mix in mixers:
        decided = list(_decisions(args, cfg, table, mix))
        report = classify.score([dec for *_, dec in decided], [truth for _, truth, _ in decided])
        out.row(kind, _fmt(snr, 1), _accuracy_cells(report), report.n_undecided)


def _cmd_baseline(args, out):
    cfg, table = _corpus_inputs(args)
    if args.feature == "mfcc":
        features = baseline.mean_mfccs(table, cfg, args.include_central)
    else:
        features = [(i, truth, None if dec is None
                     else np.array([dec.mean_v1, dec.mean_v2, dec.mean_diff]))
                    for i, truth, dec in _decisions(args, cfg, table)]
    rows = [(table.segment_id(i), table.label[i], truth, feat)
            for i, truth, feat in features if feat is not None]
    skipped = len(features) - len(rows)
    out.params.update(corpus=args.corpus, feature=args.feature, hidden=args.hidden,
                      epochs=args.epochs, test_fraction=args.test_fraction)
    if len(rows) < 10:
        raise _Stop("not enough usable segments to train")
    n_test = max(1, int(round(args.test_fraction * len(rows))))
    if n_test == len(rows):
        raise UsageError(f"--test-fraction {args.test_fraction} leaves no training segment "
                         f"of the {len(rows)} usable segments")
    perm = np.random.default_rng(args.seed).permutation(len(rows))
    test_idx = set(perm[:n_test].tolist())
    train = [rows[i] for i in range(len(rows)) if i not in test_idx]
    test = [rows[i] for i in range(len(rows)) if i in test_idx]
    model = baseline.train_mlp(
        [r[3] for r in train], [r[2] for r in train],
        hidden_units=args.hidden, seed=args.seed, epochs=args.epochs,
    )
    out.row("segment_id", "label", "class", "score", "predicted")
    decisions, truths = [], []
    for seg_id, label, truth, feat in test:
        pred, score_val = baseline.predict(model, feat)
        decisions.append(pred)
        truths.append(truth)
        out.row(seg_id, label, truth, _fmt(score_val, 4), pred)
    report = classify.score(decisions, truths)
    out.note("feature,dimension,hidden,train_n,test_n,front_acc,back_acc,overall,skipped")
    out.note(f"{args.feature},{len(rows[0][3])},{args.hidden},{len(train)},{len(test)},"
             f"{_accuracy_cells(report)},{skipped}")
    if args.save_model:
        baseline.save_model(model, args.save_model)
        out.note(f"model saved to {args.save_model}")


def _cmd_hist(args, out):
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        raise UsageError(f"--range must be lo:hi, got {args.range!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise UsageError(f"--range must give finite lo < hi, got {args.range!r}")
    if (hi - lo) / args.bin_width > classify.MAX_HISTOGRAM_BINS:
        raise UsageError(f"--bin-width {args.bin_width:g} gives more than "
                         f"{classify.MAX_HISTOGRAM_BINS} bins over --range={args.range}")
    cfg, table = _corpus_inputs(args)
    out.params.update(corpus=args.corpus, feature=args.feature, bin_width=args.bin_width,
                      range=args.range)
    decided = list(_decisions(args, cfg, table))
    if not decided:
        raise _Stop("no segments found")
    values = {"front": [], "back": []}
    for _, truth, dec in decided:
        if dec is not None:
            values[truth].append(dec.statistic)
    out.row("class", "bin_center", "frequency")
    for cls in ("front", "back"):
        if not values[cls]:
            out.note(f"no {cls} values")
            continue
        h = classify.normalized_histogram(values[cls], args.bin_width, (lo, hi))
        for center, freq in zip(h.bin_centers, h.frequencies):
            out.row(cls, _fmt(center, 3), _fmt(freq, 6))
        out.note(f"{cls}_out_of_range,{h.n_out_of_range}")


# ------------------------------------------------------------------- parsing


def _add_two_formant_args(p):
    """The flags sweep2 and ocd2 share: the formant pair, the rate and the grid."""
    _number(p, "--f1-start", 650.0, POSITIVE)
    _number(p, "--f2", 1400.0, POSITIVE)
    _number(p, "--b1", 100.0, POSITIVE)
    _number(p, "--b2", 200.0, POSITIVE)
    _number(p, "--fs", 10000.0, POSITIVE)
    p.add_argument("--band", type=_band, default=2500.0,
                   help="mean-level band in Hz (0 or below disables)")
    _number(p, "--points", experiments.GRID_POINTS, GRID_SIZE, int)


def _add_case_args(p):
    """The flags levels and f0 share: --case or an F1/F2 geometry, F3, F4 and the rate."""
    p.add_argument("--case", choices=["a", "b"], default=None)
    for flag, default in (("--f1", None), ("--f2", None), ("--f3", 2500.0), ("--f4", 3500.0)):
        _number(p, flag, default, POSITIVE)
    _number(p, "--fs", 8000.0, POSITIVE)


def _sweep2_flags(p):
    _add_two_formant_args(p)
    _number(p, "--f1-stop", 950.0, POSITIVE)
    _number(p, "--f1-step", 50.0, POSITIVE)


def _ocd2_flags(p):
    _add_two_formant_args(p)
    _number(p, "--step", 25.0, POSITIVE)


def _ocd4_flags(p):
    p.add_argument("--formants",
                   default=",".join(f"{f:g}" for f in experiments.UNIFORM_TUBE_FORMANTS_HZ))
    p.add_argument("--bw", default="100")
    _number(p, "--fs", 8000.0, POSITIVE)
    _number(p, "--step", 25.0, POSITIVE)
    p.add_argument("--pair", type=int, default=1,
                   help="1-based index of the lower formant of the swept pair")
    _number(p, "--points", experiments.GRID_POINTS, GRID_SIZE, int)


def _levels_flags(p):
    _add_case_args(p)
    _number(p, "--b3", 100.0, POSITIVE)
    _number(p, "--b4", 100.0, POSITIVE)
    p.add_argument("--b1-values", default="70,100,140")
    p.add_argument("--b2-values", default="50,80,120,180")


def _f0_flags(p):
    _add_case_args(p)
    p.add_argument("--f0-values", default="100,125,150,175,200,225,250")
    _number(p, "--order", 8, LP_ORDER, int)
    _number(p, "--lag-window", 24, NON_NEGATIVE_INT64, int,
            help="autocorrelation lag-window half-length (0 disables)")


def _pb_ocd_flags(p):
    p.add_argument("--table", default=None, help="mean-formant CSV (default: bundled)")
    p.add_argument("--gender", default="male,female")
    _number(p, "--fs", None, POSITIVE)
    _number(p, "--f4", None, POSITIVE)
    _number(p, "--bw", 100.0, POSITIVE)
    _number(p, "--step", 25.0, POSITIVE)


def _classify_flags(p):
    _add_corpus_args(p)
    _number(p, "--expect-overall", None, FINITE,
            help="fail (exit 1) unless overall accuracy is within tolerance")
    _number(p, "--expect-tol", 2.0, NON_NEGATIVE)


def _noise_eval_flags(p):
    _add_corpus_args(p)
    p.add_argument("--noise", default="white,babble")
    p.add_argument("--snrs", default="40,35,30,25,20")
    p.add_argument("--babble-source", default=None)


def _baseline_flags(p):
    _add_corpus_args(p, with_feature=False)
    p.add_argument("--feature", default="mfcc", choices=["mfcc", "valley3"])
    _number(p, "--hidden", 10, HIDDEN_UNITS, int)
    _number(p, "--epochs", 300, AT_LEAST_ONE, int)
    _number(p, "--test-fraction", 0.3, UNIT_INTERVAL)
    p.add_argument("--save-model", default=None)


def _hist_flags(p):
    _add_corpus_args(p, with_feature=False)
    p.add_argument("--feature", default="diff", choices=["diff", "v1", "v2", "f3f2"])
    _number(p, "--bin-width", 1.0, POSITIVE)
    p.add_argument("--range", default="-20:30",
                   help="histogram range lo:hi; a negative lo needs the = form, "
                        "as in --range=-20:30")


class _Command(NamedTuple):
    """A row of the command table: its --help line, the function that
    declares its own flags on its subparser, and the function that runs it
    with (args, out) and returns its exit code (None for 0)."""

    help: str
    flags: Callable
    run: Callable
    seeded: bool = False  # whether it reads --seed


COMMANDS = {
    "sweep2": _Command("two-formant valley curve vs spacing", _sweep2_flags, _cmd_sweep2),
    "ocd2": _Command("two-formant critical distance (F1 swept up)", _ocd2_flags, _cmd_ocd2),
    "ocd4": _Command("multi-formant critical distance (pair swept inward)", _ocd4_flags,
                     _cmd_ocd4),
    "levels": _Command("bandwidth grid: formant levels vs valley level", _levels_flags,
                       _cmd_levels),
    "f0": _Command("pulse-train LP envelope vs impulse reference", _f0_flags, _cmd_f0),
    "pb-ocd": _Command("per-vowel critical distances from mean formants", _pb_ocd_flags,
                       _cmd_pb_ocd),
    "classify": _Command("front/back classification over a corpus", _classify_flags,
                         _cmd_classify),
    "noise-eval": _Command("classification accuracy under additive noise", _noise_eval_flags,
                           _cmd_noise_eval, seeded=True),
    "baseline": _Command("train and test the benchmark network", _baseline_flags,
                         _cmd_baseline, seeded=True),
    "hist": _Command("normalized feature histograms by class", _hist_flags, _cmd_hist),
}


def _parser(argv):
    """The parser of `argv`: it declares the flags of the command `argv` names only.

    When `argv` starts with that command, the top-level parser reads no other
    argument, so the other commands' subparsers are left out, and the usage
    line names them all as it does when they are declared.
    """
    command = next((a for a in argv if a in COMMANDS), None)
    alone = bool(argv) and argv[0] == command
    parser = _Parser(prog="specvalley",
                     description="Spectral-valley experiments and vowel classification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="{" + ",".join(COMMANDS) + "}" if alone else None)
    for name, cmd in COMMANDS.items():
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=cmd.help)
        if name == command:
            cmd.flags(p)
            _add_common(p, cmd.seeded)
    return parser


def run(argv) -> int:
    """Dispatch a command line; 0 on success, 2 on usage error, 1 on failure.

    The command is the first argument that names one: the top-level parser
    has no flag that takes a value, so argparse dispatches to that argument.
    """
    try:
        args = _parser(argv).parse_args(argv)
        out = Output(args)
        try:
            code = COMMANDS[args.command].run(args, out)
        except _Stop as stop:
            out.note(str(stop))
            code = 1
        out.flush()
        return code or 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (AnalysisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
