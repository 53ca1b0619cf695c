"""Steadiness check: run each workload several times, one seed per run, and
print the median and quartiles of every metric.

    python3 perfbench/steady.py --runs 10 [--workloads build graph evaluate] [--first-seed 1]

The spread is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
For end-to-end metrics it is compared against a third of the bound in
BENCHMARK.json; ``setup_s`` is exempt from the spread test. Runs are made one
after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> bool:
    """Print one row per metric; True when every spread is within a third of
    its bound and every run is correct with the same failed share."""
    steady = True
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"  correct in every run: {correct}; failed shares: {sorted(shares)}")
    steady &= correct and len(shares) == 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            verdict = "ok" if ok else "TOO WIDE"
        unit = results[0]["metrics"][name]["unit"]
        print(f"  {name:32s} median {median:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.2%}"
              + (f"  bound/3 {bound / 3:.2%} {verdict}" if verdict else ""))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="also write every run's result here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    everything = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()
            ), flush=True)
        print(f"{workload}: {len(results)} runs")
        steady &= summarize(results, bounds)
        everything[workload] = results
    if args.out:
        args.out.write_text(json.dumps(everything, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
