"""The golden CSV outputs of the documented commands, and how to rebuild them.

`tests/golden/<name>.csv` holds the exact output of each command below with
`--no-timestamp`: the experiment commands with their README parameters, and
the corpus commands on the 40-segment seed-3 synthetic corpus at 16 kHz, with
a 4 s seed-11 babble file. The corpus and babble paths are replaced by
`<CORPUS>` and `<BABBLE>`, so the files do not depend on where the inputs
were built. `tests/test_golden.py` reruns every command and compares the
text exactly.

`baseline --feature mfcc` trains its network on 28 MFCC vectors; its file was
identical under the Haswell and Sandybridge OpenBLAS kernels and at the two
lower NumPy dispatch levels, and `tests/test_golden.py` states how far its
scores stay from moving a byte.

Rebuild the files (after a change that is meant to move an output) with

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CORPUS_SEGMENTS = 40
CORPUS_SEED = 3
BABBLE_SECONDS = 4.0
BABBLE_SEED = 11
SAMPLE_RATE = 16000.0

COMMANDS = {
    "sweep2": ["sweep2", "--f1-start", "650", "--f1-stop", "950", "--f1-step", "50"],
    "ocd2": ["ocd2", "--f2", "1400", "--b1", "100", "--b2", "200", "--fs", "10000"],
    "ocd4": ["ocd4", "--formants", "500,1500,2500,3500", "--bw", "100", "--fs", "8000",
             "--step", "25"],
    "levels_a": ["levels", "--case", "a"],
    "levels_b": ["levels", "--case", "b"],
    "f0_a": ["f0", "--case", "a"],
    "f0_b": ["f0", "--case", "b"],
    "pb_ocd": ["pb-ocd", "--gender", "male,female"],
    "classify_valley": ["classify", "--corpus", "<CORPUS>", "--feature", "valley"],
    "classify_f3f2": ["classify", "--corpus", "<CORPUS>", "--feature", "f3f2"],
    "hist_diff": ["hist", "--corpus", "<CORPUS>", "--feature", "diff", "--bin-width", "1",
                  "--range=-20:30"],
    "baseline_valley3": ["baseline", "--corpus", "<CORPUS>", "--feature", "valley3"],
    "baseline_mfcc": ["baseline", "--corpus", "<CORPUS>", "--feature", "mfcc"],
    "noise_eval": ["noise-eval", "--corpus", "<CORPUS>", "--noise", "white,babble",
                   "--snrs", "25,0", "--babble-source", "<BABBLE>"],
}


def build_inputs(root, recipes=None):
    """Write the seed-3 corpus and the babble file under `root`; returns their paths."""
    from specvalley import synthetic

    root = Path(root)
    if recipes is None:
        recipes = synthetic.build_recipes(SAMPLE_RATE)
    corpus_dir, babble = root / "corpus", root / "babble.wav"
    synthetic.build_synthetic_corpus(corpus_dir, n_segments=CORPUS_SEGMENTS, seed=CORPUS_SEED,
                                     sample_rate=SAMPLE_RATE, recipes=recipes)
    synthetic.build_babble(babble, duration_s=BABBLE_SECONDS, seed=BABBLE_SEED,
                           sample_rate=SAMPLE_RATE, recipes=recipes)
    return corpus_dir, babble


def render(name, corpus_dir, babble, out_path):
    """The output text of command `name`, with the input paths as placeholders."""
    from specvalley.cli import run

    paths = {"<CORPUS>": str(corpus_dir), "<BABBLE>": str(babble)}
    argv = [paths.get(arg, arg) for arg in COMMANDS[name]]
    code = run(argv + ["--no-timestamp", "--out", str(out_path)])
    if code != 0:
        raise RuntimeError(f"specvalley {' '.join(argv)} exited with {code}")
    text = Path(out_path).read_text(encoding="utf-8")
    for placeholder, path in paths.items():
        text = text.replace(path, placeholder)
    return text


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir, babble = build_inputs(tmp)
        for name in COMMANDS:
            text = render(name, corpus_dir, babble, Path(tmp) / "out.csv")
            (GOLDEN_DIR / f"{name}.csv").write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN_DIR / name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
