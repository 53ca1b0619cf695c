"""Time one `build` round at two or more corpus sizes and print the scaling
exponent of each stage's wall time in the number of sentences.

    python3 perfbench/scaling.py [--docs 25 50] [--seed 1]

The corpus keeps the `build` workload's make-up and scales its document
count; the default sizes are half and all of the workload's corpus.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def time_build(docs: int, seed: int, root: Path) -> dict:
    import workloads
    from spans import Tracer

    class Sized(workloads.Build):
        corpus_size = dict(workloads.Build.corpus_size, n_docs=docs)

    workload = Sized()
    workload.setup(root / f"input-{docs}", seed)
    run_dir = root / f"round-{docs}"
    workload.prepare(run_dir)
    rnd = workloads.Round(run_dir, Tracer())  # stage spans only; no layer is wrapped
    workload.run(rnd)
    stages = {s: t["total_s"] for s, t in rnd.tracer.totals().items()}
    sentences = sum(len(chunk) for chunks in workload.corpus.documents.values() for chunk in chunks)
    return {"sentences": sentences, "work_s": rnd.wall_s, "cpu_s": rnd.cpu_s, **stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, nargs="+", default=[25, 50])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    root = ROOT / ".perfbench_runs" / "scaling"
    try:
        rows = [time_build(docs, args.seed, root) for docs in args.docs]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    first, last = rows[0], rows[-1]
    ratio = math.log(last["sentences"] / first["sentences"])
    print(f"{'':24s}" + "".join(f"{r['sentences']:>10d}" for r in rows) + "  exponent")
    for key in first:
        if key == "sentences":
            continue
        exponent = math.log(last[key] / first[key]) / ratio if first[key] > 0 and last[key] > 0 else float("nan")
        print(f"{key:24s}" + "".join(f"{r[key]:10.2f}" for r in rows) + f"  {exponent:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
