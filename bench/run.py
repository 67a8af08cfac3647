"""Benchmark for mertenskit: one workload, or both in turn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # both

Run from the root of a source checkout; the package is imported from
its src/ directory, nothing needs installing.  A run repeats whole
rounds of the workload, each in a fresh single-threaded interpreter,
until --seconds have passed, and checks every round's outputs.  Before
each round SETUP_PROBES more fresh interpreters only import mertenskit.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

End-to-end metrics (--trace 0):
    setup_s      fresh interpreter until `import mertenskit` returns,
                 fastest of the run's probes and rounds
    run_s        wall time of one round's calls into the package, from
                 the import of mertenskit.cli on; fastest round of the run
    peak_rss_mb  peak resident set of a round's process (MiB), median

Times are the fastest sample, not the median: the samples repeat the
same deterministic work, and on a shared 2-core host other tenants slow
every process by up to half, in phases from under a second to minutes.
A median moves with the phase a run happens to fall in; the fastest
sample is the run's best estimate of the work's own cost, and the
longer the run, the likelier it holds a quiet stretch.

With --trace 1 rounds alternate traced and untraced.  The metrics are
the per-layer figures of tracing.py from the fastest traced round, its
run time `trace.run_s`, and the tracing overhead `trace.overhead_s`
(fastest traced minus fastest untraced run_s, installing the wrappers
included).  The last traced round's spans are written to
.bench_out/spans-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2
ROUND_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(calls, trace: bool, spans_path=None) -> dict:
    """One fresh interpreter running `calls`; adds its setup time."""
    plan = json.dumps({"root": str(ROOT), "calls": calls, "trace": trace,
                       "spans_path": spans_path})
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(plan, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"a round took over {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = workloads.WORKLOADS[name](seed)
    setup = []
    spans_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / f"spans-{name}.json")
    plain, traced = [], []
    attempted = failed = 0
    problems = []
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or not plain
           or (trace and not traced)):
        traced_round = trace and len(traced) <= len(plain)
        setup += [run_round([], False)["setup_s"] for _ in range(SETUP_PROBES)]
        result = run_round(plan.calls, traced_round, spans_path)
        verdict = plan.check(result["outputs"])
        attempted += verdict.attempted
        failed += verdict.failed
        problems += verdict.problems
        setup.append(result["setup_s"])
        (traced if traced_round else plain).append(result)
    fastest = min(plain, key=lambda r: r["run_s"])
    if trace:
        best = min(traced, key=lambda r: r["run_s"])
        metrics = dict(best["layers"])
        metrics["trace.run_s"] = best["run_s"]
        metrics["trace.overhead_s"] = best["run_s"] - fastest["run_s"]
    else:
        metrics = {"setup_s": min(setup), "run_s": fastest["run_s"],
                   "peak_rss_mb": statistics.median(
                       r["peak_rss_mb"] for r in plain)}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems[:20],
            "round_s": [round(r["run_s"], 3) for r in plain + traced]}


def metric_units(spec: dict) -> dict:
    """The unit of every metric, from the benchmark's declaration."""
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def result_line(result: dict, units: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()}})


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mertenskit" / "__init__.py").is_file():
        print(f"error: no mertenskit sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2
    units = metric_units(spec)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {str(result['correct']).lower()}; "
              f"round times {result['round_s']} s")
        for key, value in result["metrics"].items():
            print(f"  {key:34s} {value:14.6g} {units[key]}")
        for text in result["problems"]:
            print(f"  problem: {text}")
    if len(names) == 1:
        print(result_line(results[names[0]], units))
    else:
        print(json.dumps({name: json.loads(result_line(r, units))
                          for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
