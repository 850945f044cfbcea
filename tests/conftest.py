import numpy as np
import pytest

from specvalley import synthetic
from specvalley.corpus import load_pb_table, default_pb_table_path

CORPUS_SEED = 20240801
CORPUS_SIZE = 500
SMALL_CORPUS_SEED = 7
SMALL_CORPUS_SIZE = 63
SAMPLE_RATE = 16000.0


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
def babble_path(tmp_path_factory, recipes):
    path = tmp_path_factory.mktemp("noise") / "babble.wav"
    synthetic.build_babble(path, duration_s=4.0, seed=11, sample_rate=SAMPLE_RATE,
                           recipes=recipes)
    return path


@pytest.fixture(scope="session")
def clean_segment_features(corpus_dir):
    """(truth, frame features) per scored segment of the full corpus."""
    from specvalley import classify
    from specvalley.corpus import collect_segments, timit_inventory

    segments = collect_segments(corpus_dir, ".phn", timit_inventory())
    cfg = classify.PipelineConfig()
    rows = []
    for seg in segments:
        if seg.fb_class == "central":
            continue
        rows.append((seg.fb_class, analyse(seg.audio, cfg), seg))
    assert len(rows) == CORPUS_SIZE
    return rows


def analyse(audio, cfg=None):
    """`classify.frame_pipeline` on the frames of one audio buffer, or of a list
    of buffers at one rate, concatenated in order as `cfg.frames` gives them."""
    from specvalley import classify

    cfg = cfg or classify.PipelineConfig()
    audios = audio if isinstance(audio, list) else [audio]
    frames = np.concatenate([cfg.frames(a) for a in audios])
    return classify.frame_pipeline(frames, audios[0].sample_rate, cfg)


def rng(seed=0):
    return np.random.default_rng(seed)
