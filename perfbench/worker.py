"""One benchmark process: prepare inputs, or set up and measure a workload.

    python3 perfbench/worker.py prepare WORKLOAD SEED FOLDER
    python3 perfbench/worker.py measure WORKLOAD FOLDER SECONDS TRACE FINAL SPAWNED_AT RESULT

run.py starts these with BLAS pinned and ``src`` on the import path.
``measure`` writes a JSON result to RESULT and runs the workload's final
check after measuring when FINAL is 1; SPAWNED_AT is the
``time.monotonic()`` reading taken just before the process was started,
so set-up time includes interpreter start-up and every import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import spans


def _import_fftsr():
    import fftsr

    src = (Path.cwd() / "src").resolve()
    if src not in Path(fftsr.__file__).resolve().parents:
        raise SystemExit(f"fftsr imported from {fftsr.__file__}, not from {src}")


# Host-speed probes. The shared host runs this machine's cores at a speed
# that drifts by up to 2x over seconds to minutes. A probe, run after the
# warm-up and after every timed operation, measures that speed with a
# fixed piece of work of the workload's own kind that runs no fftsr code;
# run.py scales the timed end-to-end metrics by the median probe of a run.


def scalar_probe() -> float:
    """Wall time in s of interpreter loops and numpy calls on tiny arrays,
    about half and half, as in the PNG unfilter. No BLAS call, so it adds
    no BLAS buffers to the peak RSS of a workload that has none."""
    v = np.arange(3, dtype=np.int16)
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    x = v
    for _ in range(3_000):
        x = np.where(x <= v, x + 1, v).astype(np.int16)
    return time.perf_counter() - t0


def dense_probe() -> float:
    """Wall time in s of im2col copies, float32 matrix products and
    elementwise passes over arrays of a few MiB, as in a 3x3 convolution
    of width 26 over a 64 px map and its backward pass."""
    x = np.sin(np.arange(26 * 66 * 66, dtype=np.float32)).reshape(26, 66, 66)
    k = np.cos(np.arange(234 * 26, dtype=np.float32)).reshape(234, 26)
    t0 = time.perf_counter()
    for _ in range(8):
        cols = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
        cols = np.ascontiguousarray(cols.transpose(1, 2, 3, 4, 0)).reshape(64 * 64, 234)
        out = cols @ k
        out = np.maximum(out, 0.0) * 0.5 + out
        cols.T @ out
    return time.perf_counter() - t0


class _Ops:
    """Runs a workload's operations and counts them. An operation that
    raises counts as failed and the run goes on."""

    def __init__(self, wl):
        self.wl, self.problems, self.attempted, self.failed = wl, [], 0, 0

    def run(self, tracer: spans.Tracer | None = None):
        """One operation: its wall time in s (None if it raised) and its output."""
        self.attempted += 1
        if tracer is not None:
            tracer.op += 1
            span = tracer.open(spans.OP_SPAN)
        t0 = time.perf_counter()
        try:
            out = self.wl.op()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
        self.problems.extend(self.wl.check(out))
        return t1 - t0, out


PROBES = {"scalar": scalar_probe, "dense": dense_probe}


def measure(name: str, folder: Path, seconds: float, trace: bool, final: bool, spawned_at: float, result_path: Path):
    _import_fftsr()
    import workloads

    ops = _Ops(workloads.WORKLOADS[name](folder))
    ops.run()  # warm-up fills the DFT, filter and resample caches
    setup_s = time.monotonic() - spawned_at

    result = {"setup_s": setup_s, "pixels_per_op": ops.wl.pixels}
    times, plain, out = [], [], None
    tracer = spans.Tracer() if trace else None
    host_probe = PROBES[ops.wl.PROBE]
    probes = [] if trace else [host_probe()]
    start = time.perf_counter()
    # whole operations until the time is up, at least one after the
    # warm-up, each untraced one followed by a host-speed probe. A traced run
    # alternates an untraced and a traced operation, so that the overhead
    # is the difference of neighbours that ran on an equally loaded machine
    while ops.attempted == 1 or time.perf_counter() - start < seconds:
        if trace:
            t, _ = ops.run()
            if t is not None:
                plain.append(t)
            with spans.installed(tracer) as wrapped:
                t, o = ops.run(tracer)
        else:
            t, o = ops.run()
            probes.append(host_probe())
        if t is not None:
            times.append(t)
            out = o
    result.update(op_s=times, probe_s=probes)
    if trace:
        layer = spans.layer_metrics(tracer.spans, len(times)) if times else {}
        trace_file = folder.parent / f"spans-{folder.name}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": tracer.spans}))
        # one more operation with tracemalloc on, for the per-call memory peaks
        tracer.spans, tracer.track_peaks = [], True
        tracemalloc.start()
        try:
            with spans.installed(tracer):
                ops.run(tracer)
        finally:
            tracemalloc.stop()
        for _, metric in spans.PEAK_GROUPS:
            layer[metric] = tracer.peaks.get(metric, 0.0)
        result.update(layer=layer, untraced_op_s=plain, wrapped=wrapped, spans_file=str(trace_file))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if final and out is not None:
        ops.problems.extend(ops.wl.final_check(out))
    result.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems)
    result_path.write_text(json.dumps(result))


def prepare(name: str, seed: int, folder: Path):
    _import_fftsr()
    import workloads

    folder.mkdir(parents=True, exist_ok=True)
    (folder / "seed").write_text(str(seed))
    workloads.WORKLOADS[name].prepare(seed, folder)


if __name__ == "__main__":
    cmd, name, *rest = sys.argv[1:]
    if cmd == "prepare":
        prepare(name, int(rest[0]), Path(rest[1]))
    else:
        folder, seconds, trace, final, spawned_at, result_path = rest
        measure(name, Path(folder), float(seconds), trace == "1", final == "1", float(spawned_at), Path(result_path))
