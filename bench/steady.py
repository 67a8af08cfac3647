"""Steadiness check: two sets of benchmark runs of one commit.

    python3 bench/steady.py [--workload NAME|all] [--runs 10] [--first-seed 1]

Each run is `bench/run.py --workload NAME --seed N --seconds S` with S
from BENCHMARK.json and a new seed per run (set k, counted from 0, uses
seeds first-seed + k*runs ...).  For every end-to-end metric and set it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, the distance between the quartiles as a share of the median.
The sets agree when every spread, setup_s's too, is within the metric's
bound, the second set's median differs from the first's by no more than
the bound (either way), every run is correct, and the share of failed
operations is the same in both sets.  Exit code 0 when they agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def check_workload(workload: str, spec: dict, runs: int,
                   first_seed: int) -> bool:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = []
    for k in range(SETS):
        seeds = range(first_seed + k * runs, first_seed + (k + 1) * runs)
        results.append([one_run(workload, s, spec["run_seconds"]) for s in seeds])
    ok = True
    print(f"{workload}:")
    for name, metric in bounds.items():
        values = [[r["metrics"][name]["value"] for r in runs_]
                  for runs_ in results]
        rows = [summarize(v) for v in values]
        for k, row in enumerate(rows):
            flags = []
            if row["spread"] > metric["bound"]:
                flags.append("spread over bound")
            base = rows[0]["median"]
            if k and abs(row["median"] - base) > metric["bound"] * base:
                flags.append("median differs from set 1 by more than bound")
            ok = ok and not flags
            print(f"  {name:12s} set {k + 1}: median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread "
                  f"{row['spread']:.4f} (bound {metric['bound']}, third "
                  f"{metric['bound'] / 3:.4f}) {'; '.join(flags)}")
            print(f"    runs: {' '.join(f'{v:.4g}' for v in values[k])}")
    shares = []
    for k, runs_ in enumerate(results):
        attempted = sum(r["attempted"] for r in runs_)
        failed = sum(r["failed"] for r in runs_)
        correct = all(r["correct"] for r in runs_)
        shares.append(failed / attempted)
        ok = ok and correct
        print(f"  set {k + 1}: attempted {attempted}, failed {failed}, "
              f"correct {str(correct).lower()}")
    if len(set(shares)) > 1:
        print(f"  failed shares differ: {shares}")
        ok = False
    print(f"  {'agree' if ok else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*names, "all"), default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need --runs >= 2")
    chosen = names if args.workload == "all" else [args.workload]
    agree = [check_workload(w, spec, args.runs, args.first_seed)
             for w in chosen]
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
