"""fftsr benchmark: train step, whole-frame upscale and PNG ingest.

    python3 perfbench/run.py --workload {train,upscale,ingest} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the repository root. Each run prepares the seeded inputs in one
process, then sets up and measures the workload in a few fresh processes
in turn (``PROCESSES``), which share the S seconds of measurement. The
timed end-to-end metrics are scaled to a reference host speed by the
host-speed probes the processes run between operations. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a single traced process with ``--trace 1``.
``--smoke`` runs every workload for a few operations, traced, with every
check, and exits non-zero if any check fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("train", "upscale", "ingest")
# fresh processes per run; set-up time is their median. A train or ingest
# set-up takes 1-2 s and varies by up to 30% between processes, so it
# takes more of them; an upscale set-up is dominated by a 4-5 s warm-up pass.
PROCESSES = {"train": 5, "upscale": 3, "ingest": 5}
# the run length the bounds in BENCHMARK.json were measured at
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1
# The median time of one host-speed probe (worker.py) on the reference
# machine of the README. A run's timed end-to-end metrics are scaled to
# that host speed: times by PROBE_REF_S / (the median of the run's probes).
# It sets the scale only.
PROBE_REF_S = 0.030
# the workload's own operation metrics, then the set-up of its processes
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "mpix_per_s": "Mpix/s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], deadline: float):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the run is out of time")
    # the children's own output goes to stderr, so the result stays the last stdout line
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=remaining,
    )


def tail_percentile(samples: list[float]):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it, else None."""
    n = len(samples)
    best = None
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    folder = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(folder, ignore_errors=True)
    try:
        run_child(["prepare", workload, str(seed), str(folder)], deadline)
        results = []
        processes = 1 if trace else PROCESSES[workload]
        for i in range(processes):
            result_path = folder / f"result{i}.json"
            final = i == processes - 1  # the costlier checks run once per run
            spawned_at = time.monotonic()
            run_child(
                ["measure", workload, str(folder), str(seconds / processes), str(int(trace)), str(int(final)),
                 repr(spawned_at), str(result_path)],
                deadline,
            )
            results.append(json.loads(result_path.read_text()))
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    return summarize(workload, results, trace)


def summarize(workload: str, results: list[dict], trace: bool) -> dict:
    ops = [t for r in results for t in r["op_s"]]
    problems = [p for r in results for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED [{workload}]: {p}", file=sys.stderr)
    attempted, failed = sum(r["attempted"] for r in results), sum(r["failed"] for r in results)
    if not ops or trace and not results[0]["untraced_op_s"]:
        # nothing to time and nothing checked: counts only
        print(f"{workload}: {failed} of {attempted} operations failed, no metrics")
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    setup_s = statistics.median(r["setup_s"] for r in results)
    line = f"{workload}: {len(ops)} operations in {len(results)} processes, wall p50 {1e3 * statistics.median(ops):.1f} ms"
    if not trace:
        probe_s = statistics.median(p for r in results for p in r["probe_s"])
        line += f", set-up {setup_s:.3f} s, probe {1e3 * probe_s:.1f} ms"
        ops = [t * PROBE_REF_S / probe_s for t in ops]
        setup_s *= PROBE_REF_S / probe_s
    p50_ms = 1e3 * statistics.median(ops)
    if not trace:
        line += f"; at the reference host speed p50 {p50_ms:.1f} ms"
    tail = tail_percentile(ops)
    if tail:
        line += f", p{tail[0]} {1e3 * tail[1]:.1f} ms"
    if trace:
        (r,) = results
        metrics = dict(r["layer"])
        metrics["traced_op_ms_p50"] = p50_ms
        metrics["trace_overhead_ms"] = p50_ms - 1e3 * statistics.median(r["untraced_op_s"])
        line += f"; {r['wrapped']} callables traced, spans in {r['spans_file']}"
        units = dict(spans.LAYER_METRICS)
    else:
        metrics = {
            "setup_s": setup_s,
            "op_ms_p50": p50_ms,
            "mpix_per_s": results[0]["pixels_per_op"] * len(ops) / sum(ops) / 1e6,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        }
        units = END_TO_END
    print(line)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload, a few traced operations, every check")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "fftsr" / "__init__.py").is_file():
        print("run from the root of an fftsr checkout: src/fftsr is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            res = measure(workload, args.seed, 0.0, True, time.monotonic() + DEADLINE_S)
            print(json.dumps(res))
            ok = ok and res["correct"] and res["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
