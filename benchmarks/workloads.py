"""The benchmark workloads: their inputs, one pass, and the output checks.

Each workload is a list of steps. A step is one ``specvalley`` command line,
run in-process through ``cli.run`` with ``--no-timestamp``, or the
``build_recipes`` calibration. The CSV text of every step is kept, so passes
can be compared by digest and checked against the paper's numbers.
"""

import contextlib
import hashlib
import io
from dataclasses import dataclass

CORPUS_SIZE = 500
SAMPLE_RATE = 16000.0

# the README parameters of the experiment commands
PAPER_COMMANDS = (
    ["sweep2", "--f1-start", "650", "--f1-stop", "950", "--f1-step", "50"],
    ["ocd2", "--f2", "1400", "--b1", "100", "--b2", "200", "--fs", "10000"],
    ["ocd4", "--formants", "500,1500,2500,3500", "--bw", "100", "--fs", "8000",
     "--step", "25"],
    ["levels", "--case", "a"],
    ["levels", "--case", "b"],
    ["f0", "--case", "a"],
    ["f0", "--case", "b"],
    ["pb-ocd", "--gender", "male,female"],
)
COLD_START_COMMAND = PAPER_COMMANDS[1] + ["--no-timestamp"]
OCD_ROWS = {"ocd2": "# ocd_bark,3.1462", "ocd4": "# ocd_bark,3.5331"}

MIN_CLEAN_OVERALL = 95.0
RECIPE_COUNT = 18  # 9 classified vowels x 2 genders


@dataclass
class StepOutput:
    label: str
    rc: int
    text: str

    @property
    def digest(self):
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _label(argv):
    if "--case" in argv:
        return f"{argv[0]}-{argv[argv.index('--case') + 1]}"
    return argv[0]


def corpus_steps(seed):
    s = str(seed)
    return [
        ["classify", "--corpus", "corpus", "--labels-ext", ".phn", "--feature", "valley",
         "--threshold", "5", "--seed", s, "--no-timestamp"],
        ["baseline", "--corpus", "corpus", "--feature", "mfcc", "--hidden", "10",
         "--seed", s, "--no-timestamp"],
    ]


def paper_steps(seed):
    return [None] + [argv + ["--no-timestamp"] for argv in PAPER_COMMANDS]


def lp_frames(results):
    return sum(len(features) for features in results["classify.frame_pipeline"])


def mfcc_frames(results):
    return sum(results["baseline.segment_mfcc_matrix"])


@dataclass(frozen=True)
class Workload:
    name: str
    needs_corpus: bool
    steps: object  # seed -> list of argv (None is the build_recipes step)
    frames: object  # (observed results, outputs of a pass) -> frames per pass

    def setup(self, seed):
        """Write the workload's inputs into the current directory."""
        if not self.needs_corpus:
            return
        from specvalley import synthetic

        recipes = synthetic.build_recipes(SAMPLE_RATE)
        synthetic.build_synthetic_corpus("corpus", n_segments=CORPUS_SIZE, seed=seed,
                                         sample_rate=SAMPLE_RATE, recipes=recipes)


WORKLOADS = {
    "clean_corpus": Workload(
        "clean_corpus", True, corpus_steps,
        lambda results, outputs: lp_frames(results) + mfcc_frames(results)),
    # no audio frames here: a "frame" is one analysed configuration
    "paper_experiments": Workload(
        "paper_experiments", False, paper_steps,
        lambda results, outputs: data_row_count(outputs)),
}


def run_steps(steps):
    """Run the steps in order and return their outputs."""
    from specvalley import cli, synthetic

    outputs = []
    for argv in steps:
        if argv is None:
            recipes = synthetic.build_recipes(SAMPLE_RATE)
            text = "".join(f"{r.vowel},{r.gender},{r.fb_class},{r.formants_hz!r},"
                           f"{r.bandwidths_hz!r}\n" for r in recipes)
            outputs.append(StepOutput("build_recipes", 0, text))
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        outputs.append(StepOutput(_label(argv), rc, buf.getvalue()))
    return outputs


def _summary_table(text):
    """The ``#`` header and value rows of a classify/baseline summary as a dict."""
    lines = text.splitlines()
    for i in range(len(lines) - 1, 0, -1):
        if lines[i - 1].startswith("# feature,"):
            keys = lines[i - 1][2:].split(",")
            return dict(zip(keys, lines[i][2:].split(",")))
    return {}


def _data_rows(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return rows[1:]  # drop the column header


def data_row_count(outputs):
    """CSV data rows plus calibrated recipes: the analysed configurations of a pass."""
    return sum(len(_data_rows(o.text)) if o.label != "build_recipes"
               else len(o.text.splitlines()) for o in outputs)


def check(outputs):
    """Check one pass; returns (findings, failures), failures keyed by step label.

    Findings record every accuracy and undecided count the outputs report,
    so a changed decision shows in the results even when no check fails.
    """
    findings, failures = {}, {}

    def fail(label, why):
        failures.setdefault(label, []).append(why)

    for o in outputs:
        if o.rc != 0:
            fail(o.label, f"exit code {o.rc}")
        if o.label == "classify":
            table = _summary_table(o.text)
            undecided = sum(row.endswith(",undecided") for row in _data_rows(o.text))
            findings["classify"] = dict(table, undecided=undecided)
            if not float(table.get("overall", "nan")) >= MIN_CLEAN_OVERALL:
                fail(o.label, f"valley overall accuracy {table.get('overall')} "
                              f"below {MIN_CLEAN_OVERALL}")
        elif o.label == "baseline":
            table = _summary_table(o.text)
            findings["baseline"] = table
            if not table:
                fail(o.label, "no baseline summary row")
        elif o.label in OCD_ROWS:
            rows = [line for line in o.text.splitlines() if line.startswith("# ocd_bark,")]
            findings[o.label] = rows
            if rows != [OCD_ROWS[o.label]]:
                fail(o.label, f"summary {rows} != {OCD_ROWS[o.label]}")
        elif o.label == "build_recipes":
            n = len(o.text.splitlines())
            findings["build_recipes"] = {"recipes": n}
            if n != RECIPE_COUNT:
                fail(o.label, f"{n} recipes, expected {RECIPE_COUNT}")
        elif not _data_rows(o.text):
            fail(o.label, "no data rows")
    return findings, failures
