"""The specvalley benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload clean_corpus --seed 20240801 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports ``specvalley`` from
the checkout's ``src/``. The workload runs in a fresh worker process (see
``worker.py``), so its memory is its own. With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics of a separate traced run. The full
record (environment, seeds, pass times, accuracies, digests) is written to
``.bench_out/`` in the checkout. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # the whole run, with every child process, stays below this
SETUP_ONLY = 2  # fresh set-up processes; with the workload process, three setup_s samples
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import specvalley.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Starts the child processes of one run and stops each before it returns."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in BLAS_THREAD_VARS:  # every process of the run has one CPU
            self.env.setdefault(var, "1")
        self.out_dir = ROOT / ".bench_out"
        self.meter = self._meter_proc = None
        self._meter_path = ROOT / ".bench_work" / f"meter-{os.getpid()}.bin"
        # every process of the run on one CPU, the speed meter's (speed.py)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _remaining(self):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def start_meter(self):
        self._meter_path.parent.mkdir(exist_ok=True)
        speed.create_counters(self._meter_path)
        self._meter_proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(self._meter_path)], cwd=ROOT,
            env=self.env)
        self.meter = speed.Reader(self._meter_path)
        while self.meter.read()[0] < 100:  # started, numpy imported, units done
            if self._meter_proc.poll() is not None:
                raise BenchError(f"speed meter exited with code {self._meter_proc.returncode}")
            self._remaining()
            time.sleep(0.01)

    def stop(self):
        if self._meter_proc is not None:
            self._meter_proc.kill()
            self._meter_proc.wait()
            self.meter.close()
        self._meter_path.unlink(missing_ok=True)

    def _rate(self, mark):
        return speed.Reader.rate(mark, self.meter.read()) if self.meter else None

    def worker(self, mode):
        """Run worker.py; returns (its set-up record at READY, its result or None).

        With the meter on, the set-up record has ``scaled_s``: the worker's user
        CPU time from its start to READY at the reference speed. Kernel time is
        left out: writing the corpus files costs 0.2 to 1 s of it, and that
        follows the state of the file system, which the meter cannot see.
        """
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode,
               "--out-dir", str(self.out_dir)]
        if self.meter and mode == "measure":
            cmd += ["--meter", str(self._meter_path)]
        mark = self.meter.read() if self.meter else None
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=self.env)
        ready, result, pending = None, None, b""
        try:
            fd = proc.stdout.fileno()
            while True:
                readable, _, _ = select.select([fd], [], [], min(self._remaining(), 5.0))
                if not readable:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                now = time.perf_counter()
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    text = line.decode("utf-8")
                    if text.startswith("READY "):
                        ready = dict(json.loads(text[len("READY "):]), wall_s=now - t0)
                        rate = self._rate(mark)
                        if rate:
                            ready.update(meter_rate=rate,
                                         scaled_s=speed.scaled_s(ready["user_s"], rate))
                    elif text.startswith("RESULT "):
                        result = json.loads(text[len("RESULT "):])
            rc = proc.wait(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if rc != 0 or ready is None or (mode != "setup" and result is None):
            raise BenchError(f"worker --mode {mode} failed with exit code {rc}")
        return ready, result

    def command(self, argv):
        """Run a fresh process; returns (a record of its times, completed process).

        With the meter on, the record has ``scaled_s``: the process's CPU time
        at the reference speed.
        """
        mark = self.meter.read() if self.meter else None
        cpu0, t0 = _children_cpu_s(), time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=self.env,
                              timeout=self._remaining())
        times = {"wall_s": time.perf_counter() - t0, "cpu_s": _children_cpu_s() - cpu0}
        rate = self._rate(mark)
        if rate:
            times.update(meter_rate=rate, scaled_s=speed.scaled_s(times["cpu_s"], rate))
        return times, done


def _cold_start(runner, outputs):
    """A fresh ``python -m specvalley.cli ocd2``; its output goes to ``outputs``."""
    times, done = runner.command([sys.executable, "-m", "specvalley.cli",
                                  *workloads.COLD_START_COMMAND])
    outputs.append(workloads.StepOutput("ocd2", done.returncode, done.stdout))
    return times


def _check_cold_starts(outputs):
    failures = []
    for out in outputs:
        why = workloads.check([out])[1].get(out.label, [])
        if out.digest != outputs[0].digest:
            why = why + ["CSV digest differs from the first cold start"]
        if why:
            failures.append("cold start ocd2: " + "; ".join(why))
    return failures


def _environment(args, env, result):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": result["versions"],
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "seed": args.seed,
        "corpus_size": workloads.CORPUS_SIZE if workloads.WORKLOADS[
            args.workload].needs_corpus else 0,
        "frames_per_pass": result["frames_per_pass"],
    }


def run(args, bench):
    runner = Runner(args)
    try:
        return _run(args, bench, runner)
    finally:
        runner.stop()


def _run(args, bench, runner):
    runner.out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        _, result = runner.worker("trace")
        imports = []
        for _ in range(IMPORT_REPEATS):
            done = runner.command([sys.executable, "-c", IMPORT_PROBE])[1]
            if done.returncode != 0:
                raise BenchError(f"import probe failed: {done.stderr.strip()}")
            imports.append(float(done.stdout))
        failures = list(result["failures"])
        attempted = result["attempted"]
        metrics = dict(result["per_layer"],
                       **{"import.specvalley_cli_s": statistics.median(imports),
                          "ops_failed_ratio": len(failures) / attempted})
        record.update(import_specvalley_cli_s=imports)
        wanted = bench["per_layer"]
    else:
        # the meter runs next to every timed process (see speed.py)
        runner.start_meter()
        cold_outputs = []
        colds = [_cold_start(runner, cold_outputs)]
        setups = [runner.worker("setup")[0] for _ in range(SETUP_ONLY)]
        colds.append(_cold_start(runner, cold_outputs))
        ready, result = runner.worker("measure")
        setups.append(ready)
        failures = result["failures"] + _check_cold_starts(cold_outputs)
        attempted = result["attempted"] + len(cold_outputs)
        pass_s = statistics.mean(speed.scaled_s(cpu_s, rate) for cpu_s, rate
                                 in zip(result["pass_cpu_s"], result["meter_rate"]))
        metrics = {
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "pass_s": pass_s,
            "frames_per_s": result["frames_per_pass"] / pass_s,
            "cold_start_s": statistics.median(c["scaled_s"] for c in colds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        record.update(setups=setups, cold_starts=colds)
        wanted = bench["end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise BenchError(f"computed metrics {sorted(metrics)} do not match BENCHMARK.json")
    record.update(result, environment=_environment(args, runner.env, result), failures=failures,
                  attempted=attempted, metrics=metrics)
    path = runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record, path, {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=20240801, help="corpus seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="how long to time passes (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "specvalley" / "cli.py").is_file() or not bench_file.is_file():
        sys.exit(f"error: {ROOT} needs src/specvalley/ and BENCHMARK.json to benchmark")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    try:
        record, path, metrics = run(args, bench)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"error: {exc}")
    failed = len(record["failures"])
    for why in record["failures"]:
        print(f"FAILED {why}")
    times = record.get("pass_s", [])
    print(f"{args.workload} seed {args.seed}: untraced passes "
          f"{' '.join(f'{t:.3f}' for t in times)} s, "
          f"{record['frames_per_pass']} frames per pass, {record['attempted']} commands, "
          f"{failed} failed; record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
