"""One workload in a fresh process: set up, run the passes, check the outputs.

Started by ``run.py``, never by hand. It prints ``READY`` with its CPU time
so far once its inputs are written, which times set-up from process start,
and ends with one ``RESULT <json>`` line. ``--mode setup`` stops after ``READY``; ``measure``
times untraced passes; ``trace`` adds one traced pass and the span rollup.
"""

import os
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import specvalley.cli  # noqa: E402  (import is part of set-up)
import specvalley.synthetic  # noqa: E402,F401

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

IMPORTED = time.perf_counter()

# per-layer metrics that run.py measures in processes of its own
PARENT_METRICS = ("import.specvalley_cli_s", "ops_failed_ratio")
MIN_PASSES = 2  # every timed run compares at least two passes by digest


def _emit(line):
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


class Ledger:
    """Counts commands attempted and failed across every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def record(self, tag, outputs):
        findings, failures = workloads.check(outputs)
        for o in outputs:
            self.attempted += 1
            why = failures.get(o.label, [])
            expected = self.digests.setdefault(o.label, o.digest)
            if o.digest != expected:
                why = why + [f"CSV digest {o.digest[:12]} != {expected[:12]} of the first run"]
            if why:
                self.failures.append(f"{tag} {o.label}: " + "; ".join(why))
        return findings

    def fail(self, what):
        self.attempted += 1
        self.failures.append(what)


def _timed(steps):
    t0 = time.perf_counter()
    outputs = workloads.run_steps(steps)
    return time.perf_counter() - t0, outputs


def _versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _frame_counts(results):
    frames = valid = 0
    discard = {}
    for reasons in results["classify.frame_pipeline"]:
        for why in reasons:
            frames += 1
            if why is None:
                valid += 1
            else:
                reason = why.split(":", 1)[0].strip().lower().replace(" ", "_")
                discard[reason] = discard.get(reason, 0) + 1
    return frames, valid, discard


def _per_layer(names, recorder, roots, findings, traced_s, untraced_s):
    functions, layers = spans.rollup(recorder.spans, roots)
    frames, valid, discard = _frame_counts(recorder.results)
    special = {
        "classify.frames": frames,
        "classify.frames_valid": valid,
        "classify.frame_valid_ratio": valid / frames if frames else 0.0,
        "classify.undecided": int(findings.get("classify", {}).get("undecided", 0)),
        "baseline.mfcc_frames": workloads.mfcc_frames(recorder.results),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(recorder.spans),
    }
    metrics = {}
    for name in names:
        if name in PARENT_METRICS:
            continue
        if name in special:
            metrics[name] = special[name]
        else:
            key, stat = name.rsplit(".", 1)
            metrics[name] = spans.function_stat(functions, layers, key, stat)
    rolled = {name: {"s": f["ns"] / 1e9, "self_s": f["self_ns"] / 1e9,
                     "calls": f["calls"], "errors": f["errors"]}
              for name, f in sorted(functions.items())}
    return metrics, {"functions": rolled, "discard": discard,
                     "layers_self_s": {k: v / 1e9 for k, v in sorted(layers.items())}}


def _pass(steps, meter):
    """One untraced pass: (wall s, CPU s, meter rate or None, outputs)."""
    mark = meter.read() if meter else None
    cpu0 = time.process_time()
    wall_s, outputs = _timed(steps)
    cpu_s = time.process_time() - cpu0
    return wall_s, cpu_s, speed.Reader.rate(mark, meter.read()) if meter else None, outputs


def measure(workload, seed, seconds, ledger, min_passes, meter=None):
    """Time untraced passes for ``seconds``; the first also counts frames.

    The first pass wraps only the two functions whose frames it counts and
    keeps only the counts, so it costs no more than the others and
    peak_rss_mb stays the program's. With a ``meter`` (a ``speed.Reader``),
    each pass also records its CPU time and the meter's rate over the pass.
    """
    steps = workload.steps(seed)
    counter = spans.Recorder(only=spans.OBSERVED)
    times, cpu_times, rates, findings = [], [], [], None
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        with counter if not times else contextlib.nullcontext():
            wall_s, cpu_s, rate, outputs = _pass(steps, meter)
        if not times:
            frames_per_pass = workload.frames(counter.results, outputs)
        times.append(wall_s)
        cpu_times.append(cpu_s)
        rates.append(rate)
        found = ledger.record(f"pass {len(times)}", outputs)
        findings = findings or found
    return {"frames_per_pass": frames_per_pass, "pass_s": times, "pass_cpu_s": cpu_times,
            "meter_rate": rates, "findings": findings}


def traced_pass(workload, seed, ledger, recorder, setup_index, untraced):
    """One pass with every layer function wrapped, rolled up per layer."""
    with recorder, recorder.span("pass") as pass_index:
        traced_s, outputs = _timed(workload.steps(seed))
    ledger.record("traced pass", outputs)
    left = recorder.leftover_wrappers()
    if left:
        ledger.fail(f"wrappers not restored: {left}")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics, rolled = _per_layer(names, recorder, {setup_index, pass_index},
                                 untraced["findings"], traced_s, untraced["pass_s"][-1])
    return {"traced_pass_s": traced_s, "per_layer": metrics, "rollup": rolled}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--meter", help="counter file of a running speed meter (measure mode)")
    args = p.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(specvalley.cli.__file__).resolve().parents:
        sys.exit(f"specvalley imported from {specvalley.cli.__file__}, not {src}")
    workload = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    os.chdir(workdir)
    try:
        if args.mode == "trace":
            recorder = spans.Recorder()
            with recorder, recorder.span("setup") as setup_index:
                workload.setup(args.seed)
        else:
            workload.setup(args.seed)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        _emit("READY " + json.dumps({"import_s": IMPORTED - STARTED,
                                     "inputs_s": time.perf_counter() - IMPORTED,
                                     "user_s": usage.ru_utime, "sys_s": usage.ru_stime}))
        if args.mode == "setup":
            return
        ledger = Ledger()
        if args.mode == "measure":
            meter = speed.Reader(args.meter)
            result = measure(workload, args.seed, args.seconds, ledger, MIN_PASSES, meter)
            meter.close()
        else:
            # the traced pass is compared with the second of two untraced
            # passes: the first runs with cold caches, as the traced one does not
            result = measure(workload, args.seed, 0.0, ledger, MIN_PASSES)
            result.update(traced_pass(workload, args.seed, ledger, recorder, setup_index,
                                      result))
            spans_path = Path(args.out_dir) / f"spans-{workload.name}-seed{args.seed}.json"
            recorder.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        result.update(attempted=ledger.attempted, failures=ledger.failures,
                      digests=ledger.digests, versions=_versions(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        _emit("RESULT " + json.dumps(result))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
