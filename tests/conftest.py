import numpy as np
import pytest

from specvalley import synthetic
from specvalley.corpus import load_pb_table, default_pb_table_path, pcm_to_float
from specvalley.envelope import PEAK_WINDOW_HZ, peak_windows, window_peaks
from specvalley.sigproc import CHUNK_ROWS
from specvalley.synth import synthesize_cascades

CORPUS_SEED = 20240801
CORPUS_SIZE = 500
SMALL_CORPUS_SEED = 7
SMALL_CORPUS_SIZE = 63
SAMPLE_RATE = 16000.0
# stack heights of the row-invariance tests: no row, one, each side of a
# `sigproc.CHUNK_ROWS` boundary, and 70 rows
STACK_HEIGHTS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, 70)

# Critical-distance band reported by perceptual matching studies, in bark: a
# read-only comparison band for measured OCD values.
PERCEPTUAL_CRITICAL_DISTANCE_BARK = (3.1, 4.3)


@pytest.fixture(scope="session")
def pb_entries():
    return load_pb_table(default_pb_table_path())


@pytest.fixture(scope="session")
def recipes():
    return synthetic.build_recipes(SAMPLE_RATE)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory, recipes):
    """The full synthetic corpus used by the acceptance gates."""
    root = tmp_path_factory.mktemp("corpus")
    synthetic.build_synthetic_corpus(
        root, n_segments=CORPUS_SIZE, seed=CORPUS_SEED,
        sample_rate=SAMPLE_RATE, recipes=recipes,
    )
    return root


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory, recipes):
    """A small corpus for CLI round trips."""
    root = tmp_path_factory.mktemp("small_corpus")
    synthetic.build_synthetic_corpus(
        root, n_segments=SMALL_CORPUS_SIZE, seed=SMALL_CORPUS_SEED,
        sample_rate=SAMPLE_RATE, recipes=recipes,
    )
    return root


@pytest.fixture(scope="session")
def golden_inputs(tmp_path_factory, recipes):
    """(corpus directory, babble path) of the golden files: the 40-segment seed-3
    corpus and the 4 s seed-11 babble file of `regenerate_golden`."""
    from regenerate_golden import build_inputs

    return build_inputs(tmp_path_factory.mktemp("golden"), recipes)


@pytest.fixture(scope="session")
def babble_path(tmp_path_factory, recipes):
    path = tmp_path_factory.mktemp("noise") / "babble.wav"
    synthetic.build_babble(path, duration_s=4.0, seed=11, sample_rate=SAMPLE_RATE,
                           recipes=recipes)
    return path


@pytest.fixture(scope="session")
def corpus_table(corpus_dir):
    """The segment table of the full corpus: every segment scored, none central."""
    from specvalley.corpus import collect_segments, timit_inventory

    table = collect_segments(corpus_dir, ".phn", timit_inventory())
    assert len(table) == CORPUS_SIZE and not np.any(table.fb_class == "central")
    assert table.pcm.dtype == np.int16
    return table


@pytest.fixture(scope="session")
def clean_segment_features(corpus_table):
    """(truth, frame features, audio) per scored segment of the full corpus."""
    from specvalley import classify

    cfg = classify.PipelineConfig()
    return [(truth, analyse(audio, cfg), audio)
            for truth, audio in zip(corpus_table.fb_class.tolist(), segment_audio(corpus_table))]


@pytest.fixture(scope="session")
def noisy_corpus(corpus_table, babble_path):
    """(kind, snr) -> the `mix(i, x)` hook of `classify.segment_blocks` that gives
    the full corpus under that noise: segment i mixed alone with seed i by
    `corpus.noise_mixer`, as the noise harness seeds it (`noise-eval --seed 0`).
    Each condition is mixed once; the hook returns the mixed copy of segment i."""
    from specvalley.corpus import load_wav, noise_mixer

    babble = load_wav(babble_path)
    rows = np.arange(len(corpus_table))
    mixed = {}

    def condition(kind, snr):
        key = (kind, float(snr))
        if key not in mixed:
            mix = noise_mixer(corpus_table, rows, kind, float(snr), 0, babble)
            mixed[key] = [mix(i, segment(corpus_table, i)) for i in range(len(corpus_table))]
        return lambda i, x: mixed[key][i]

    return condition


@pytest.fixture
def no_corpus_reading(monkeypatch):
    """Fails a command that reads its corpus: a usage check must come first."""
    from specvalley import corpus

    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read before the option check")

    monkeypatch.setattr(corpus, "collect_segments", no_reading)


@pytest.fixture
def no_experiment_running(monkeypatch):
    """Fails a command that starts its experiment: a usage check must come first."""
    from specvalley import experiments

    def no_computing(*args, **kwargs):
        raise AssertionError("the experiment ran before the option check")

    for name in ("PairMeter", "ocd_sweep", "level_influence_experiment",
                 "f0_influence_experiment", "pb_ocd_table"):
        monkeypatch.setattr(experiments, name, no_computing)


def segment(table, i):
    """Segment i of a `corpus.SegmentTable` as float64 in [-1, 1), a new array."""
    return pcm_to_float(table.pcm[table.offsets[i]:table.offsets[i + 1]])


def segment_audio(table, mix=None):
    """Each segment of a `corpus.SegmentTable` as the (samples, rate) of its float
    samples, passed through the `mix(i, x)` hook when given."""
    return [(segment(table, i) if mix is None else mix(i, segment(table, i)), table.rate[i])
            for i in range(len(table))]


def peak_levels(freqs, levels_db, nominal_f, window_hz=PEAK_WINDOW_HZ):
    """Highest local maximum within +/-window_hz of nominal_f on each row of a level stack.

    `levels_db` is (n, len(freqs)) finite levels on the uniform grid `freqs`;
    `nominal_f` is (n,), or (n, k) for k peaks per row. The windows are those
    of `envelope.peak_windows`, searched by `envelope.window_peaks`. Returns
    (peak_freq, peak_level, missing), each shaped like `nominal_f`; `missing`
    marks the windows with no interior local maximum.
    """
    shape = np.shape(nominal_f)
    lo, hi = peak_windows(freqs, np.reshape(nominal_f, (len(levels_db), -1)), window_hz)
    _, peak_freq, peak_level, missing = window_peaks(freqs, levels_db, lo, hi)
    return peak_freq.reshape(shape), peak_level.reshape(shape), missing.reshape(shape)


def cascade_rows(formants, f0s, sample_rate, n_samples, tilted=False):
    """One `synth.synthesize_cascades` call that runs each F0's train through the one
    cascade `formants` (an (m, 2) array of (frequency, bandwidth) rows, in cascade
    order): a (len(f0s), n_samples) array."""
    k = len(f0s)
    cascade = np.tile(np.reshape(formants, (-1, 2)), (k, 1, 1))
    return np.array(synthesize_cascades(cascade[..., 0], cascade[..., 1], f0s, sample_rate,
                                        [n_samples] * k, tilted))


def frames_of(audio, cfg=None):
    """The pre-emphasized frames of one (samples, rate) audio, as the corpus stage
    frames a one-segment block."""
    from specvalley import classify
    from specvalley.sigproc import frame_signal, preemphasize

    cfg = cfg or classify.PipelineConfig()
    samples, rate = audio
    return frame_signal(preemphasize(samples, cfg.preemphasis), rate,
                        cfg.frame_ms, cfg.overlap_fraction)[0]


def analyse(audio, cfg=None):
    """`classify.frame_pipeline` on the frames of one (samples, rate) audio, or of
    a list of them at one rate, concatenated in order as `frames_of` gives them."""
    from specvalley import classify

    cfg = cfg or classify.PipelineConfig()
    audios = audio if isinstance(audio, list) else [audio]
    frames = np.concatenate([frames_of(a, cfg) for a in audios])
    return classify.frame_pipeline(frames, audios[0][1], cfg)


def rng(seed=0):
    return np.random.default_rng(seed)
