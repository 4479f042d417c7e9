"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 benchmark/spread.py --workload bench-d2-hard --runs 10 [--first-seed 0] [--trace 0]

Runs `BENCHMARK.json`'s command once per seed, one run at a time, and prints
for each metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median, next to the metric's bound.  It also prints the
share of failed operations and how long each run took, and writes the
values to .benchmark_out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results, elapsed = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(done.stderr)
            raise SystemExit(f"seed {seed}: exit code {done.returncode}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {elapsed[-1]:.1f} s, correct {results[-1]['correct']}, "
              f"{results[-1]['failed']}/{results[-1]['attempted']} failed", flush=True)

    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel}
        bound = bounds.get(name)
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share(s): {sorted(shares)}; all correct: {all(r['correct'] for r in results)}; "
          f"run time {min(elapsed):.1f}-{max(elapsed):.1f} s")
    out = ROOT / ".benchmark_out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results, "elapsed_s": elapsed, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
