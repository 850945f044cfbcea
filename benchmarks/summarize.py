"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/summarize.py --workloads clean_corpus --seeds 1-5
    python3 benchmarks/summarize.py --seeds 1-10 --sets 2 --traced-seed 20240801 --out results.json

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, against the metric's bound. With
``--sets 2`` or more it runs every seed again per set, one set after another,
and prints by how much each later set's median is worse than the first's.
With ``--traced-seed`` it adds one traced run per workload for the per-layer
view.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def measure_set(bench, workload, seeds, seconds):
    """Ten (or however many) seeds of one workload, summarized per metric."""
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, 0, seconds)
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    entry = {"runs": len(runs), "failed": sum(r["failed"] for r in runs),
             "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        s = entry["metrics"][m["name"]] = dict(summarize(values, m["bound"]), unit=m["unit"])
        flag = "ok" if s["spread"] < m["bound"] / 3 else (
            "WIDE" if s["spread"] >= m["bound"] else "over a third of bound")
        print(f"  {m['name']:>14} median {s['median']:.5g} {m['unit']} "
              f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f} "
              f"bound {m['bound']} {flag}", flush=True)
    return entry


def agreement(bench, sets):
    """How much worse each later set's median is than the first's, as a share."""
    out = {}
    for m in bench["end_to_end"]:
        first = sets[0]["metrics"][m["name"]]["median"]
        sign = 1 if m["better"] == "lower" else -1
        worse = [sign * (s["metrics"][m["name"]]["median"] - first) / first for s in sets[1:]]
        out[m["name"]] = {"worse_by": worse, "bound": m["bound"],
                          "within": all(w <= m["bound"] for w in worse)}
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--sets", type=int, default=1, help="how many times to run every seed")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args()
    names = args.workloads.split(",")
    sets = {name: [] for name in names}
    for number in range(1, args.sets + 1):
        for name in names:
            print(f"set {number}", flush=True)
            sets[name].append(measure_set(bench, name, _seeds(args.seeds), args.seconds))
    summary = {}
    for name in names:
        entry = {"sets": sets[name]}
        if args.sets > 1:
            entry["agreement"] = agreement(bench, sets[name])
            for metric, a in entry["agreement"].items():
                print(f"{name} {metric}: later sets worse by "
                      f"{' '.join(f'{w:+.4f}' for w in a['worse_by'])} (bound {a['bound']})")
        if args.traced_seed is not None:
            traced = run_once(name, args.traced_seed, 1, args.seconds)
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary[name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
