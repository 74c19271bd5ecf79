"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 [--out bench/baseline.json]

Each run is a fresh `bench/run.py` process.  For every workload and
end-to-end metric this prints the median, the quartiles and the spread
(quartile distance over median) against the bound in BENCHMARK.json, then
runs one traced run per workload, on seed 1, for the per-layer metrics.  With --out
the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(spec) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "run_seconds": spec["run_seconds"], "blas_threads": 1}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {"env": environment(spec)}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seed_range(args.seeds)]
        entry = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            print(f"{workload:17s} {metric['name']:12s} median {median:12.6g} "
                  f"{metric['unit']:8s} spread {spread:.4f} (bound {metric['bound']}, "
                  f"third {metric['bound'] / 3:.4f})", flush=True)
        ratios = [r["failed"] / r["attempted"] for r in runs]
        entry["failed_ratio"] = statistics.median(ratios)
        print(f"{workload:17s} failed_ratio median {entry['failed_ratio']:12.6g} ratio    "
              f"(all runs correct: {entry['correct']})", flush=True)
        traced = run_once(workload, TRACED_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {"seed": TRACED_SEED, "correct": traced["correct"],
                              "metrics": traced["metrics"]}
        summary[workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
