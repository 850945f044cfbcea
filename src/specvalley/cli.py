"""Command-line surface: one subcommand per experiment, CSV output."""

import argparse
import datetime
import sys
from pathlib import Path

import numpy as np

from . import __version__, baseline, classify, corpus, experiments, sigproc
from .errors import AnalysisError, NoDecisionError
from .types import FormantSpec

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


class Output:
    """Collects CSV lines and writes them once, to a file or stdout."""

    def __init__(self, path, command, params, timestamp):
        self.path = path
        self.lines = [f"# specvalley {command} v{__version__}"]
        self.lines.append("# params: " + " ".join(f"{k}={v}" for k, v in sorted(params.items())))
        if timestamp:
            self.lines.append(f"# generated: {datetime.datetime.now().isoformat()}")

    def row(self, *cells):
        self.lines.append(",".join(str(c) for c in cells))

    def note(self, text):
        self.lines.append(f"# {text}")

    def flush(self):
        text = "\n".join(self.lines) + "\n"
        if self.path:
            Path(self.path).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)


def _fmt(x, digits=6):
    if x is None:
        return ""
    return f"{x:.{digits}f}"


def _floats(text, flag):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} must list numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must list at least one value, got {text!r}")
    return values


def _add_common(p):
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed for any randomness")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generation-time header line")


def _out_for(args, params):
    params = dict(params)
    params["seed"] = args.seed
    return Output(args.out, args.command, params, timestamp=not args.no_timestamp)


# ---------------------------------------------------------------- experiments


def _cmd_sweep2(args):
    for flag, value in (("--f1-start", args.f1_start), ("--f1-stop", args.f1_stop)):
        if not np.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if not (np.isfinite(args.f1_step) and args.f1_step > 0):
        raise UsageError(f"--f1-step must be positive, got {args.f1_step}")
    if args.f1_stop < args.f1_start:
        raise UsageError(f"--f1-stop ({args.f1_stop}) must not be below "
                         f"--f1-start ({args.f1_start})")
    out = _out_for(args, dict(f2=args.f2, b1=args.b1, b2=args.b2, fs=args.fs,
                              band=args.band, points=args.points))
    f1_values = np.arange(args.f1_start, args.f1_stop + 0.5 * args.f1_step, args.f1_step)
    curve = experiments.two_formant_curve(
        f1_values, args.f2, args.b1, args.b2, args.fs,
        n_points=args.points, mean_band_hz=args.band,
    )
    out.row("step", "f_low", "f_high", "spacing_bark", "v_db")
    for k, (f1, (spacing, v)) in enumerate(zip(f1_values, curve)):
        out.row(k, _fmt(f1, 1), _fmt(args.f2, 1), _fmt(spacing, 4), _fmt(v, 4))
    out.flush()
    return 0


def _two_formant_config(args):
    return experiments.SweepConfig(
        [FormantSpec(args.f1_start, args.b1), FormantSpec(args.f2, args.b2)],
        args.fs,
        pair=(0, 1),
        step_hz=args.step,
        move_upper=False,
        n_points=args.points,
        mean_band_hz=args.band,
    )


def _emit_sweep(out, result):
    out.row("step", "f_low", "f_high", "spacing_bark", "v_db")
    for k, ((spacing, v), (f_lo, f_hi)) in enumerate(zip(result.sweep, result.pair_trace)):
        out.row(k, _fmt(f_lo, 1), _fmt(f_hi, 1), _fmt(spacing, 4), _fmt(v, 4))
    out.note(f"ocd_bark,{result.ocd_bark:.4f}")


def _cmd_ocd2(args):
    out = _out_for(args, dict(f1_start=args.f1_start, f2=args.f2, b1=args.b1,
                              b2=args.b2, fs=args.fs, band=args.band, step=args.step))
    result = experiments.ocd_sweep(_two_formant_config(args))
    _emit_sweep(out, result)
    out.flush()
    return 0


def _cmd_ocd4(args):
    freqs = _floats(args.formants, "--formants")
    bws = _floats(args.bw, "--bw")
    if len(bws) == 1:
        bws = bws * len(freqs)
    if len(bws) != len(freqs):
        raise UsageError("--bw must give one value or one per formant")
    if len(freqs) < 2:
        raise UsageError("--formants must give at least two formants for a --pair")
    if not 1 <= args.pair <= len(freqs) - 1:
        raise UsageError(f"--pair must be between 1 and {len(freqs) - 1} "
                         f"for {len(freqs)} formants, got {args.pair}")
    out = _out_for(args, dict(formants=args.formants, bw=args.bw, fs=args.fs,
                              step=args.step, pair=args.pair))
    i = args.pair - 1
    cfg = experiments.SweepConfig(
        [FormantSpec(f, b) for f, b in zip(freqs, bws)],
        args.fs,
        pair=(i, i + 1),
        step_hz=args.step,
        n_points=args.points,
    )
    label = "V12" if i == 0 else f"V{i + 1}{i + 2}"
    result = experiments.ocd_sweep(cfg, label=label)
    _emit_sweep(out, result)
    out.flush()
    return 0


def _case_formants(args, b3, b4):
    if args.case is None and (args.f1 is None or args.f2 is None):
        raise UsageError("give --case a|b, or both --f1 and --f2")
    if args.case is not None and (args.f1 is not None or args.f2 is not None):
        raise UsageError("give --case a|b, or --f1 and --f2, not both")
    f1, f2 = CASE_GEOMETRIES[args.case] if args.case else (args.f1, args.f2)
    return [
        FormantSpec(f1, 100.0),
        FormantSpec(f2, 100.0),
        FormantSpec(args.f3, b3),
        FormantSpec(args.f4, b4),
    ]


def _cmd_levels(args):
    fm = _case_formants(args, args.b3, args.b4)
    out = _out_for(args, dict(case=args.case or "custom", f1=fm[0].frequency,
                              f2=fm[1].frequency, fs=args.fs,
                              b1_values=args.b1_values, b2_values=args.b2_values))
    cells = experiments.level_influence_experiment(
        fm, _floats(args.b1_values, "--b1-values"), _floats(args.b2_values, "--b2-values"),
        args.fs,
    )
    out.row("b1", "b2", "l1_db", "l2_db", "l1_minus_l2_db", "v_db", "status")
    for c in cells:
        out.row(_fmt(c.b1, 1), _fmt(c.b2, 1), _fmt(c.l1_db, 3), _fmt(c.l2_db, 3),
                _fmt(c.level_diff_db, 3), _fmt(c.v_db, 3),
                "ok" if c.error is None else f"unmeasurable: {c.error}")
    out.flush()
    return 0


def _cmd_f0(args):
    fm = _case_formants(args, 100.0, 100.0)
    out = _out_for(args, dict(case=args.case or "custom", fs=args.fs, order=args.order,
                              lag_window=args.lag_window, f0_values=args.f0_values))
    rows = experiments.f0_influence_experiment(
        fm, _floats(args.f0_values, "--f0-values"), args.fs, lp_order=args.order,
        lag_window_half_length=args.lag_window or None,
    )
    out.row("f0", "v_ref_db", "v_f0_db", "diff_db")
    for r in rows:
        out.row(_fmt(r.f0, 1), _fmt(r.v_ref_db, 4), _fmt(r.v_f0_db, 4), _fmt(r.diff_db, 4))
    out.flush()
    return 0


def _cmd_pb_ocd(args):
    entries = corpus.load_pb_table(args.table or corpus.default_pb_table_path())
    genders = [g.strip() for g in args.gender.split(",") if g.strip()]
    known = sorted({e.gender for e in entries})
    if not genders or not set(genders) <= set(known):
        raise UsageError(f"--gender must name genders the table has "
                         f"({', '.join(known)}), got {args.gender!r}")
    out = _out_for(args, dict(table=args.table or "bundled", gender=args.gender,
                              bw=args.bw, step=args.step))
    out.row("gender", "vowel", "basis", "ocd_bark", "status")
    for gender in genders:
        means = corpus.pb_mean_formants(entries, gender)
        means = {v: f for v, f in means.items()
                 if v in experiments.FRONT_VOWELS + experiments.BACK_VOWELS}
        rows = experiments.pb_ocd_table(
            means, gender, sample_rate=args.fs, f4=args.f4,
            bandwidth_hz=args.bw, step_hz=args.step,
        )
        order = {v: k for k, v in enumerate(
            experiments.FRONT_VOWELS + ("tube",) + experiments.BACK_VOWELS)}
        rows.sort(key=lambda r: (order.get(r.vowel, 99), r.basis))
        for r in rows:
            if r.result is not None:
                out.row(gender, r.vowel, r.basis, _fmt(r.result.ocd_bark, 4), "ok")
            else:
                out.row(gender, r.vowel, r.basis, "", f"no crossing: {r.error}")
    out.flush()
    return 0


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
    """The analysis settings and the corpus segments of a corpus command.

    The frame flags are checked before the corpus is read, and the LP order
    against the frame length at every sample rate in the corpus before any
    frame is analysed.
    """
    if not (np.isfinite(args.frame_ms) and args.frame_ms > 0):
        raise UsageError(f"--frame-ms must be a finite positive number, got {args.frame_ms}")
    for flag, value in (("--overlap", args.overlap), ("--preemph", args.preemph)):
        if not 0.0 <= value < 1.0:  # false for NaN
            raise UsageError(f"{flag} must be in [0, 1), got {value}")
    inventory = _inventory_for(args)
    cfg = classify.PipelineConfig(frame_ms=args.frame_ms, overlap_fraction=args.overlap,
                                  preemphasis=args.preemph, lp_order=args.lp_order)
    segments = corpus.collect_segments(args.corpus, args.labels_ext, inventory)
    for rate in sorted({seg.audio.sample_rate for seg in segments}):
        try:
            cfg.order_for(rate)
        except ValueError as exc:
            raise UsageError(f"invalid --lp-order or --frame-ms: {exc}") from exc
    return cfg, segments


def _threshold(args):
    """The threshold the feature's rule applies: --threshold, else the rule default."""
    if args.threshold is not None:
        return args.threshold
    return classify.DEFAULT_THRESHOLDS[FEATURE_RULES[args.feature]]


def _scored_segments(segments, include_central):
    for seg in segments:
        if seg.fb_class != "central":
            yield seg, seg.fb_class
        elif include_central:
            yield seg, "back"


def _segment_decisions(args, cfg, segments, audio_of=lambda idx, seg: seg.audio):
    """(segment, truth, decision or None) per scored segment, in corpus order.

    The one analysis stage of the corpus commands: `audio_of(idx, seg)` gives
    the audio of the idx-th scored segment. Whole segments are analysed in
    blocks of at most `classify.STACK_FRAMES` frames, one `frame_pipeline`
    call each; a longer segment is a block of its own, and a block ends where
    the sample rate changes.
    """
    threshold = getattr(args, "threshold", None)
    rule = FEATURE_RULES[args.feature]

    def decided(block):
        table = classify.frame_pipeline([audio for _, _, audio, _ in block], cfg)
        start = 0
        for seg, truth, _, n in block:
            try:
                decision = classify.decide_segment(table[start:start + n], threshold, rule)
            except NoDecisionError:
                decision = None
            start += n
            yield seg, truth, decision

    block, block_frames = [], 0
    for idx, (seg, truth) in enumerate(_scored_segments(segments, args.include_central)):
        audio = audio_of(idx, seg)
        n = sigproc.frame_count(len(audio.samples), cfg.frame_ms, audio.sample_rate,
                                cfg.overlap_fraction)
        if block and (block_frames + n > classify.STACK_FRAMES
                      or audio.sample_rate != block[0][2].sample_rate):
            yield from decided(block)
            block, block_frames = [], 0
        block.append((seg, truth, audio, n))
        block_frames += n
    if block:
        yield from decided(block)


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
    p.add_argument("--frame-ms", type=float, default=20.0)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--preemph", type=float, default=0.97)
    p.add_argument("--lp-order", type=int, default=None,
                   help="LP order (default: rate/1000 + 2)")
    p.add_argument("--include-central", action="store_true",
                   help="score central vowels as back instead of skipping them")
    if with_feature:
        p.add_argument("--feature", default="valley",
                       choices=["valley", "f3f2", "f2f1", "v1", "v2"])
        p.add_argument("--threshold", type=float, default=None,
                       help="decision threshold (default: 5 dB for valley, "
                            "3 bark for f3f2/f2f1, 0 dB for v1/v2)")


def _cmd_classify(args):
    cfg, segments = _corpus_inputs(args)
    threshold = _threshold(args)
    out = _out_for(args, dict(corpus=args.corpus, feature=args.feature,
                              threshold=threshold, labels_ext=args.labels_ext,
                              inventory=args.inventory))
    out.row("segment_id", "label", "class", "mean_v1", "mean_v2", "mean_diff", "predicted")
    decisions, truths = [], []
    for seg, truth, dec in _segment_decisions(args, cfg, segments):
        decisions.append(dec)
        truths.append(truth)
        seg_id = f"{seg.utterance_id}:{seg.start_sample}"
        if dec is None:
            out.row(seg_id, seg.phone_label, truth, "", "", "", "undecided")
        else:
            out.row(seg_id, seg.phone_label, truth, _fmt(dec.mean_v1, 3),
                    _fmt(dec.mean_v2, 3), _fmt(dec.mean_diff, 3), dec.predicted)
    if not decisions:
        out.note("no segments found")
        out.flush()
        return 1
    report = classify.score(decisions, truths, feature=args.feature, threshold=threshold)
    out.note("feature,threshold,front_acc,back_acc,overall,front_n,back_n")
    out.note(f"{report.feature},{report.threshold},{_accuracy_cells(report)},"
             f"{report.n_front},{report.n_back}")
    out.flush()
    if args.expect_overall is not None:
        if abs(report.overall_accuracy - args.expect_overall) > args.expect_tol:
            print(
                f"overall accuracy {report.overall_accuracy:.2f} outside "
                f"{args.expect_overall}+/-{args.expect_tol}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_noise_eval(args):
    kinds = [k.strip() for k in args.noise.split(",") if k.strip()]
    if not kinds or not set(kinds) <= set(corpus.NOISE_KINDS):
        raise UsageError(f"--noise must list white and/or babble, got {args.noise!r}")
    if "babble" in kinds and not args.babble_source:
        raise UsageError("--babble-source is required when --noise includes babble")
    snrs = _floats(args.snrs, "--snrs")
    if not np.all(np.isfinite(snrs)):
        raise UsageError(f"--snrs must list finite values, got {args.snrs!r}")
    cfg, segments = _corpus_inputs(args)
    threshold = _threshold(args)
    babble_buf = corpus.load_wav(args.babble_source) if "babble" in kinds else None
    out = _out_for(args, dict(corpus=args.corpus, noise=args.noise, snrs=args.snrs,
                              feature=args.feature, threshold=threshold))
    out.note("noise is added per segment, scaled to the requested SNR over that segment")
    out.row("noise", "snr_db", "front_acc", "back_acc", "overall_acc", "n_undecided")
    for kind in kinds:
        for snr in snrs:
            def noisy(idx, seg):
                # silence has no power to set an SNR against: its frames fail
                # as silent and the segment counts as undecided
                if float(np.mean(seg.audio.samples**2)) <= 0:
                    return seg.audio
                spec = corpus.NoiseSpec(kind=kind, snr_db=snr, seed=args.seed + idx,
                                        babble_source=args.babble_source)
                return corpus.mix_noise(seg.audio, spec, babble=babble_buf)

            # noisy reads kind and snr, so the stage is used up in this iteration
            decided = list(_segment_decisions(args, cfg, segments, noisy))
            report = classify.score([dec for *_, dec in decided],
                                    [truth for _, truth, _ in decided],
                                    feature=args.feature, threshold=threshold)
            out.row(kind, _fmt(snr, 1), _accuracy_cells(report), report.n_undecided)
    out.flush()
    return 0


def _cmd_baseline(args):
    cfg, segments = _corpus_inputs(args)
    if args.feature == "mfcc":
        def mean_mfcc(seg):
            mat = baseline.segment_mfcc_matrix(seg.audio, cfg.frame_ms, cfg.overlap_fraction,
                                               cfg.preemphasis)
            return mat.mean(axis=0) if len(mat) else None

        features = [(seg, truth, mean_mfcc(seg))
                    for seg, truth in _scored_segments(segments, args.include_central)]
    else:
        features = [(seg, truth, None if dec is None
                     else np.array([dec.mean_v1, dec.mean_v2, dec.mean_diff]))
                    for seg, truth, dec in _segment_decisions(args, cfg, segments)]
    rows = [(f"{seg.utterance_id}:{seg.start_sample}", seg.phone_label, truth, feat)
            for seg, truth, feat in features if feat is not None]
    skipped = len(features) - len(rows)
    out = _out_for(args, dict(corpus=args.corpus, feature=args.feature,
                              hidden=args.hidden, epochs=args.epochs,
                              test_fraction=args.test_fraction))
    if len(rows) < 10:
        out.note("not enough usable segments to train")
        out.flush()
        return 1
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(len(rows))
    n_test = max(1, int(round(args.test_fraction * len(rows))))
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
    report = classify.score(decisions, truths, feature=args.feature, threshold=0.5)
    out.note("feature,dimension,hidden,train_n,test_n,front_acc,back_acc,overall,skipped")
    out.note(f"{args.feature},{len(rows[0][3])},{args.hidden},{len(train)},{len(test)},"
             f"{_accuracy_cells(report)},{skipped}")
    if args.save_model:
        baseline.save_model(model, args.save_model)
        out.note(f"model saved to {args.save_model}")
    out.flush()
    return 0


def _cmd_hist(args):
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        raise UsageError(f"--range must be lo:hi, got {args.range!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise UsageError(f"--range must give finite lo < hi, got {args.range!r}")
    if not (np.isfinite(args.bin_width) and args.bin_width > 0):
        raise UsageError(f"--bin-width must be positive, got {args.bin_width}")
    if (hi - lo) / args.bin_width > classify.MAX_HISTOGRAM_BINS:
        raise UsageError(f"--bin-width {args.bin_width:g} gives more than "
                         f"{classify.MAX_HISTOGRAM_BINS} bins over --range={args.range}")
    cfg, segments = _corpus_inputs(args)
    out = _out_for(args, dict(corpus=args.corpus, feature=args.feature,
                              bin_width=args.bin_width, range=args.range))
    decided = list(_segment_decisions(args, cfg, segments))
    if not decided:
        out.note("no segments found")
        out.flush()
        return 1
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
    out.flush()
    return 0


# ------------------------------------------------------------------- parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="specvalley",
                     description="Spectral-valley experiments and vowel classification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sweep2", help="two-formant valley curve vs spacing")
    p.add_argument("--f1-start", type=float, default=650.0)
    p.add_argument("--f1-stop", type=float, default=950.0)
    p.add_argument("--f1-step", type=float, default=50.0)
    p.add_argument("--f2", type=float, default=1400.0)
    p.add_argument("--b1", type=float, default=100.0)
    p.add_argument("--b2", type=float, default=200.0)
    p.add_argument("--fs", type=float, default=10000.0)
    p.add_argument("--band", type=float, default=2500.0,
                   help="mean-level band in Hz (0 disables)")
    p.add_argument("--points", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep2)

    p = sub.add_parser("ocd2", help="two-formant critical distance (F1 swept up)")
    p.add_argument("--f1-start", type=float, default=650.0)
    p.add_argument("--f2", type=float, default=1400.0)
    p.add_argument("--b1", type=float, default=100.0)
    p.add_argument("--b2", type=float, default=200.0)
    p.add_argument("--fs", type=float, default=10000.0)
    p.add_argument("--band", type=float, default=2500.0)
    p.add_argument("--step", type=float, default=25.0)
    p.add_argument("--points", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_ocd2)

    p = sub.add_parser("ocd4", help="multi-formant critical distance (pair swept inward)")
    p.add_argument("--formants", default="500,1500,2500,3500")
    p.add_argument("--bw", default="100")
    p.add_argument("--fs", type=float, default=8000.0)
    p.add_argument("--step", type=float, default=25.0)
    p.add_argument("--pair", type=int, default=1,
                   help="1-based index of the lower formant of the swept pair")
    p.add_argument("--points", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_ocd4)

    p = sub.add_parser("levels", help="bandwidth grid: formant levels vs valley level")
    p.add_argument("--case", choices=["a", "b"], default=None)
    p.add_argument("--f1", type=float, default=None)
    p.add_argument("--f2", type=float, default=None)
    p.add_argument("--f3", type=float, default=2500.0)
    p.add_argument("--f4", type=float, default=3500.0)
    p.add_argument("--b3", type=float, default=100.0)
    p.add_argument("--b4", type=float, default=100.0)
    p.add_argument("--b1-values", default="70,100,140")
    p.add_argument("--b2-values", default="50,80,120,180")
    p.add_argument("--fs", type=float, default=8000.0)
    _add_common(p)
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("f0", help="pulse-train LP envelope vs impulse reference")
    p.add_argument("--case", choices=["a", "b"], default=None)
    p.add_argument("--f1", type=float, default=None)
    p.add_argument("--f2", type=float, default=None)
    p.add_argument("--f3", type=float, default=2500.0)
    p.add_argument("--f4", type=float, default=3500.0)
    p.add_argument("--f0-values", default="100,125,150,175,200,225,250")
    p.add_argument("--fs", type=float, default=8000.0)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--lag-window", type=int, default=24,
                   help="autocorrelation lag-window half-length (0 disables)")
    _add_common(p)
    p.set_defaults(func=_cmd_f0)

    p = sub.add_parser("pb-ocd", help="per-vowel critical distances from mean formants")
    p.add_argument("--table", default=None, help="mean-formant CSV (default: bundled)")
    p.add_argument("--gender", default="male,female")
    p.add_argument("--fs", type=float, default=None)
    p.add_argument("--f4", type=float, default=None)
    p.add_argument("--bw", type=float, default=100.0)
    p.add_argument("--step", type=float, default=25.0)
    _add_common(p)
    p.set_defaults(func=_cmd_pb_ocd)

    p = sub.add_parser("classify", help="front/back classification over a corpus")
    _add_corpus_args(p)
    p.add_argument("--expect-overall", type=float, default=None,
                   help="fail (exit 1) unless overall accuracy is within tolerance")
    p.add_argument("--expect-tol", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("noise-eval", help="classification accuracy under additive noise")
    _add_corpus_args(p)
    p.add_argument("--noise", default="white,babble")
    p.add_argument("--snrs", default="40,35,30,25,20")
    p.add_argument("--babble-source", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_noise_eval)

    p = sub.add_parser("baseline", help="train and test the benchmark network")
    _add_corpus_args(p, with_feature=False)
    p.add_argument("--feature", default="mfcc", choices=["mfcc", "valley3"])
    p.add_argument("--hidden", type=int, default=10)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--save-model", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("hist", help="normalized feature histograms by class")
    _add_corpus_args(p, with_feature=False)
    p.add_argument("--feature", default="diff", choices=["diff", "v1", "v2", "f3f2"])
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--range", default="-20:30",
                   help="histogram range lo:hi; a negative lo needs the = form, "
                        "as in --range=-20:30")
    _add_common(p)
    p.set_defaults(func=_cmd_hist)

    return parser


def _check_experiment_options(args):
    """--fs, --step and --points of the experiment commands, checked before any computation."""
    fs = getattr(args, "fs", None)  # pb-ocd's default None picks a rate per gender
    if fs is not None and not (np.isfinite(fs) and fs > 0):
        raise UsageError(f"--fs must be a finite positive number, got {fs}")
    if hasattr(args, "step") and not (np.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be positive, got {args.step}")
    if hasattr(args, "points") and args.points < 64:
        raise UsageError(f"--points must be at least 64, got {args.points}")


def run(argv) -> int:
    """Dispatch a command line; 0 on success, 2 on usage error, 1 on failure."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    if getattr(args, "band", None) is not None and args.band <= 0:
        args.band = None
    try:
        _check_experiment_options(args)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (AnalysisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
