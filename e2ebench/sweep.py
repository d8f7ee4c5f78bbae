"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 e2ebench/sweep.py --workloads pi_short gd_long fvstar_long \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25 --label before

Runs are sequential, one process each. For every workload and metric it
prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, and writes every raw result to ``e2ebench/_results/<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0,
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="sweep")
    args = parser.parse_args()
    raw = {}
    for workload in args.workloads:
        results = [run_one(workload, s, args.seconds, args.trace) for s in args.seeds]
        raw[workload] = results
        bad = [s for s, r in zip(args.seeds, results) if not r["correct"]]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: seeds {args.seeds}, incorrect on {bad or 'none'}, "
              f"failed shares {sorted(shares)}")
        if len(results) < 2:
            continue
        for name, row in summarize(results).items():
            print(f"  {name:38s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.3f} {row['unit']}",
                  flush=True)
    out = BENCH_DIR / "_results"
    out.mkdir(exist_ok=True)
    (out / f"{args.label}.json").write_text(json.dumps(
        {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "runs": raw},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
