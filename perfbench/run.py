"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload build|graph|evaluate --seed N --seconds S --trace 0|1

Inputs are generated from the seed; nothing is downloaded. Set-up time is
the time from process start until the program is imported (the median of
this process and ``IMPORT_SAMPLES - 1`` fresh interpreters) plus the median
of ``SETUP_REPEATS`` input generations. Rounds of the workload's
operations repeat until ``--seconds`` have passed (at least one round); the
end-to-end timings are medians over rounds. With ``--trace 1`` untraced and
traced rounds alternate, the per-layer figures are medians over the traced
rounds, and the overhead is traced minus untraced ``work_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_SAMPLES = 3


def since_process_start() -> float:
    """Seconds since this process started, from the kernel's record of its
    start time (clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_program() -> float:
    """Import the program from this checkout; returns seconds since process start."""
    if str(ROOT / "src") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hopbench.pipeline  # noqa: F401

    return since_process_start()


def import_seconds() -> float:
    """Median time from process start to the program imported, over this
    process and fresh interpreters."""
    samples = [import_program()]
    probe = "import run; print(run.import_program())"
    for _ in range(IMPORT_SAMPLES - 1):
        completed = subprocess.run([sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True,
                                   check=True, timeout=120)
        samples.append(float(completed.stdout))
    return statistics.median(samples)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "graph", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float, traced: bool, root: Path, import_s: float) -> dict:
    from spans import Tracer, instrument, layer_metrics
    from workloads import Round

    import checks

    setup_times = []
    for i in range(SETUP_REPEATS):
        directory = root / f"input-{i}"
        started = time.perf_counter()
        workload.setup(directory, seed)
        setup_times.append(time.perf_counter() - started)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)

    plain, traced_rounds, layers = [], [], []
    attempted = failed = 0
    correct = True
    failures: set[str] = set()
    started = time.perf_counter()
    n = 0
    while True:
        run_dir = root / f"round-{n}"
        workload.prepare(run_dir)
        tracer = Tracer() if traced and n % 2 == 1 else None
        rnd = Round(run_dir, tracer)
        try:
            with instrument(tracer) if tracer else contextlib.nullcontext():
                workload.run(rnd)
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # an artifact the checks cannot read is a wrong output
            correct = False
            traceback.print_exc()
        shutil.rmtree(run_dir)
        attempted += rnd.attempted
        failed += len(rnd.failures)
        failures.update(rnd.failures)
        if tracer:
            traced_rounds.append(rnd)
            layers.append(layer_metrics(tracer, rnd.wall_s))
        else:
            plain.append(rnd)
        print(f"round {n}: {rnd.wall_s:.3f} s wall, {rnd.cpu_s:.3f} s cpu{' (traced)' if tracer else ''}", file=sys.stderr)
        n += 1
        done = not correct or time.perf_counter() - started >= seconds
        if done and (not traced or n % 2 == 0):
            break
    for failure in sorted(failures):
        print(f"failed operation: {failure}", file=sys.stderr)

    work_s = statistics.median(r.wall_s for r in plain)
    if traced:
        metrics = {
            name: (statistics.median(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        traced_work_s = statistics.median(r.wall_s for r in traced_rounds)
        metrics["trace.work_s"] = (traced_work_s, "s")
        metrics["trace.overhead_s"] = (traced_work_s - work_s, "s")
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "work_s": (work_s, "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_seconds()
    from workloads import WORKLOADS

    root = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), root, import_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
