"""locc-audit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload witness-sweep --seed 1 --seconds 30 --trace 0

Runs `locc_audit.cli.main(argv)` in this process as a closed loop with
one client, on inputs generated from the seed before timing starts, then
checks every output against the references in bench/reference.py.  The
end-to-end timings are medians over the run's whole passes through the
call list, so that a slow spell of the machine moves only a few passes.
Afterwards the known-defect probes of ROADMAP item 3 run once, untimed;
they are reported apart and are not counted in `failed`.

--trace 0 measures the end-to-end metrics.  --trace 1 runs whole passes
over the call list, alternately untraced and with every layer function
wrapped in spans, checks that the traced outputs are byte-identical to
the untraced ones, and reports the per-layer metrics and the tracing
overhead: traced time over untraced time, minus one.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists for the mode.  Full results go to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
# Cycles of the call list.  A run repeats the list, so the harness holds
# one copy of each distinct output however fast the program gets.
CYCLES = {"witness-sweep": 1, "threshold-search": 1, "state-files": 6}
# Fresh interpreters timed for setup_s, half before the timed loop and half
# after it, so that one slow spell of the shared machine does not set it.
SETUP_REPEATS = 16
WARMUP_CALLS = 3
FAILURES_SHOWN = 20


def time_imports(repeats: int) -> list:
    """Wall times of fresh interpreters importing locc_audit.cli."""
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-c", "import locc_audit.cli"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        times.append(perf_counter() - start)
    return times


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(size, ran, latencies, passes, failures, rss_mb, setup_times) -> dict:
    """End-to-end metrics over the run's whole passes through the call list.

    items_per_s is the median over the passes of a pass's items over its
    wall time.  A call's latency is the median of its times in the passes;
    call_p50_ms and call_p90_ms are percentiles of those over the calls of
    the list, which has `size` calls.
    """
    rates = [
        sum(call.items for call in ran[k * size:(k + 1) * size]) / wall
        for k, wall in enumerate(passes)
    ]
    timed = latencies[:len(passes) * size]
    typical = [statistics.median(timed[k::size]) for k in range(size)]
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    items = sum(call.items for call in ran)
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(rates),
        "call_p50_ms": deciles[4] * 1e3,
        "call_p90_ms": deciles[8] * 1e3,
        "failed_ratio": sum(f.count for f in failures) / items,
        "peak_rss_mb": rss_mb,
        "passes": len(passes),
        "calls": len(timed),
        "distinct_calls": size,
        "beyond_p90": sum(1 for t in typical if t > deciles[8]),
        "items": items,
        "setup_runs": len(setup_times),
    }


def per_layer(tracer, ran, outcomes, items, overhead) -> dict:
    import harness
    import workloads

    summary = tracer.summary()
    out = {}
    for name, entry in summary.items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value
    main_s = summary["cli.main"]["total_s"]
    for module in harness.MODULES:
        own = sum(e["self_s"] for n, e in summary.items() if n.startswith(module + "."))
        out[f"{module}.self_s"] = own
        out[f"{module}.share"] = own / main_s
    out["linalg.kron.calls_per_item"] = summary["linalg.kron"]["calls"] / items
    names = [tracer.targets[code] for code in tracer.names]
    out["linalg.hermitian_eigs.n3_sum"] = sum(
        tracer.captured[i] ** 3 for i, n in enumerate(names) if n == "linalg.hermitian_eigs"
    )
    searches = summary["sweep.find_threshold"]["calls"]
    out["sweep.classify_per_threshold"] = (
        summary["sweep.classify_construction"]["calls"] / searches if searches else 0.0
    )
    out["cli.bytes_out"] = sum(
        len(o.stdout.encode()) + len(o.stderr.encode()) + len(o.out_bytes) for o in outcomes
    )
    loaded = [tracer.captured[i] for i, n in enumerate(names) if n == "cli.load_state_file"]
    entries = {path: workloads.entries_in(path) for path in set(loaded)}
    out["cli.load_state_file.entries"] = sum(entries[path] for path in loaded)
    out["sweep.cross_check_share"] = _cross_check_share(tracer, names)
    out["trace.overhead"] = overhead
    return out


NUMERIC_ROUTE = {
    "construction.build_initial",
    "construction.apply_cloner",
    "construction.expand",
    "majorization.schmidt_vector",
}


def _cross_check_share(tracer, names) -> float:
    """Time classify_construction spends on its numeric cross-check: the
    expansion, the Schmidt vectors and the second classify call."""
    total = numeric = 0.0
    classify_seen = set()
    for i, (name, parent) in enumerate(zip(names, tracer.parents)):
        took = tracer.ends[i] - tracer.starts[i]
        if name == "sweep.classify_construction":
            total += took
        if parent < 0 or names[parent] != "sweep.classify_construction":
            continue
        if name in NUMERIC_ROUTE:
            numeric += took
        elif name == "majorization.classify":
            if parent in classify_seen:  # the first classify is the closed form's
                numeric += took
            classify_seen.add(parent)
    return numeric / total if total else 0.0


def run(args, spec) -> tuple:
    """Returns (correct, attempted, failed, metrics, record)."""
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    import numpy as np

    import harness
    import workloads

    modules = harness.load_program(ROOT)
    cli = modules["cli"]
    if not args.trace:
        time_imports(1)  # writes the bytecode caches
        setup_times = time_imports(SETUP_REPEATS // 2)

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    make_calls = workloads.WORKLOADS[args.workload][0]
    calls = make_calls(np.random.default_rng(args.seed), workdir, CYCLES[args.workload])
    harness.replay(cli, calls[:WARMUP_CALLS])

    record = {"env": environment(args), "workload": args.workload, "trace": args.trace}
    if not args.trace:
        ran, outcomes, latencies, passes = harness.run_loop(cli, calls, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += time_imports(SETUP_REPEATS - len(setup_times))
        failures = workloads.check_all(args.workload, ran, outcomes)
        metrics = end_to_end(len(calls), ran, latencies, passes, failures, rss_mb,
                             setup_times)
        position = {id(call): k for k, call in enumerate(calls)}
        record["latencies"] = [[position[id(c)], t] for c, t in zip(ran, latencies)]
        identical = True
    else:
        from tracer import Tracer

        capture = {
            "linalg.hermitian_eigs": lambda h, *a, **k: getattr(h, "dim", None) or len(h),
            "cli.load_state_file": lambda path: path,
        }
        tracer = Tracer(modules, harness.TRACED, capture)
        ran, outcomes, traced = [], [], []
        elapsed = traced_elapsed = 0.0
        start = perf_counter()
        while perf_counter() - start < args.seconds:  # alternate whole passes
            plain, took = harness.replay(cli, calls)
            with tracer:
                spanned, spanned_took = harness.replay(cli, calls, on_call=tracer.new_call)
            ran += calls
            outcomes += plain
            traced += spanned
            elapsed += took
            traced_elapsed += spanned_took
        identical = all(a.key() == b.key() for a, b in zip(outcomes, traced))
        failures = workloads.check_all(args.workload, ran, traced)
        overhead = traced_elapsed / elapsed - 1.0
        metrics = per_layer(tracer, ran, traced, workloads.items_of(ran), overhead)
        record["untraced_s"], record["traced_s"] = elapsed, traced_elapsed
        results = ROOT / ".bench_work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        tracer.write(results / f"{args.workload}-seed{args.seed}-spans.jsonl")
    probes = workloads.defect_probes(workdir)[args.workload]
    probe_outcomes, _ = harness.replay(cli, probes)
    probe_failures = workloads.check_all(args.workload, probes, probe_outcomes)
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = workloads.items_of(ran)
    failed = sum(f.count for f in failures)
    correct = identical and not failures and all(f.known for f in probe_failures)
    record.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        traced_identical=identical,
        metrics=metrics,
        failures=[vars(f) for f in failures],
        probes=[c.argv for c in probes],
        probe_failures=[vars(f) for f in probe_failures],
    )
    chosen = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    shown = {n: {"value": metrics[n], "unit": m["unit"]} for n, m in chosen.items()}
    return correct, attempted, failed, shown, record


def report(args, record):
    """Human-readable lines before the result line."""
    env = record["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} blas_threads=1")
    m = record["metrics"]
    if args.trace:
        print(f"tracing overhead {m['trace.overhead']:.3f} "
              f"(untraced {record['untraced_s']:.3f} s, traced {record['traced_s']:.3f} s); "
              f"outputs byte-identical: {record['traced_identical']}")
        for name in sorted(m):
            print(f"  {name} = {m[name]:.6g}")
    else:
        units = {"setup_s": "s", "items_per_s": "items/s", "call_p50_ms": "ms",
                 "call_p90_ms": "ms", "failed_ratio": "ratio", "peak_rss_mb": "MB"}
        for name, unit in units.items():
            print(f"  {name} = {m[name]:.6g} {unit}")
        print(f"  samples: {m['passes']} whole passes of {m['distinct_calls']} calls "
              f"({m['beyond_p90']} of them beyond p90), {m['calls']} calls timed, "
              f"{m['items']} items; setup_s is the median of {m['setup_runs']}")
    print(f"failed items: {record['failed']} of {record['attempted']}")
    _list(record["failures"], "UNEXPECTED")
    probes, found = record["probes"], record["probe_failures"]
    print(f"known-defect probes (ROADMAP item 3; untimed, not counted in failed): "
          f"{len({tuple(f['argv']) for f in found})} of {len(probes)} calls fail, "
          f"{sum(f['known'] for f in found)} known and "
          f"{sum(not f['known'] for f in found)} unexpected failures")
    _list(found, None)


def _list(failures, tag):
    seen = set()
    for f in failures:
        key = (tuple(f["argv"]), f["item"])
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > FAILURES_SHOWN:
            print("  ... (all failures are in the results file)")
            break
        label = tag or ("known" if f["known"] else "UNEXPECTED")
        print(f"  [{label}] {' '.join(f['argv'])} :: {f['item']} :: {f['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("witness-sweep", "threshold-search", "state-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    sys.path.insert(0, str(BENCH))
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        correct, attempted, failed, shown, record = run(args, spec)
    except (OSError, ImportError) as exc:  # no program, or no BENCHMARK.json
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(args, record)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
