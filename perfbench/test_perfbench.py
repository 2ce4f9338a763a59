"""The benchmark's own tests: its reference code against fftsr, its span
arithmetic, and a smoke run of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
from fftsr import image, nets, optim, train  # noqa: E402


@pytest.mark.parametrize("channels", [3, 4])
@pytest.mark.parametrize("ftype", range(5))
def test_png_writer_and_parser_round_trip(channels, ftype):
    px = np.random.default_rng(ftype).integers(0, 256, (7, 11, channels), dtype=np.uint8)
    png = reference.encode_png(px, [ftype] * 7)
    assert np.array_equal(reference.parse_png(png), px)
    decoded = image.decode_image(png)
    assert np.array_equal(np.round(decoded.data * 255.0), px[:, :, :3])


def test_filter_schedule_mix():
    rows = reference.schedule_filters(len(reference.FILTER_CYCLE) * 5)
    assert [rows.count(f) / len(rows) for f in range(5)] == [0.0, 0.05, 0.2, 0.0, 0.75]


@pytest.mark.parametrize("shape,out", [((13, 17), (39, 51)), ((36, 64), (12, 21)), ((5, 4), (15, 12))])
def test_bicubic_matches_fftsr(shape, out):
    arr = np.random.default_rng(0).random(shape + (3,)).astype(np.float32)
    want = image.resample_bicubic(image.Image(arr), *out).data
    assert np.abs(reference.bicubic(arr, *out) - want).max() < 1e-6


def test_generator_reference_matches_upscale_image():
    rng = np.random.default_rng(3)
    gen = nets.Generator(nets.GeneratorConfig(blocks=2, width=10), rng)
    for _, owner, attr in gen.named_buffers():
        base = getattr(owner, attr)
        setattr(owner, attr, (base + rng.uniform(0.1, 0.5, base.shape)).astype(np.float32))
    params = {n: t.data for n, t in gen.named_parameters()}
    params.update({n: getattr(o, a) for n, o, a in gen.named_buffers()})
    lr = rng.random((11, 14, 3)).astype(np.float32)
    got = train.upscale_image(gen, image.Image(lr), 3).data
    assert np.abs(reference.generator_upscale(lr, params, 2, 3) - got).max() < 1e-4


def test_cosine_restart_lr_matches_schedule():
    sched = optim.CosineRestartSchedule(base_lr=2e-3, cycle_steps=7, peak_decay=0.9, floor_fraction=0.3)
    for step in range(30):
        assert reference.cosine_restart_lr(2e-3, step, 7, 0.9, 0.3) == pytest.approx(sched.lr_at(step), rel=1e-12)


def test_self_time_and_buckets():
    # [name, start, end, parent, op]
    recorded = [
        ["op", 0.0, 10.0, -1, 0],
        ["train.Trainer.train_step", 1.0, 9.0, 0, 0],
        ["nets.Generator.__call__", 2.0, 6.0, 1, 0],
        ["nets.Conv2d.__call__", 2.5, 4.5, 2, 0],
        ["tensor.conv2d", 3.0, 4.0, 3, 0],
        ["tensor.add", 6.0, 7.0, 1, 0],
        ["tensor.Tensor.backward[g]", 7.0, 8.5, 1, 0],
    ]
    assert spans.self_times(recorded) == [2.0, 1.5, 2.0, 1.0, 1.0, 1.0, 1.5]
    assert spans.buckets(recorded) == [
        "unattributed",
        "train.step_self",
        "nets.generator_self",
        "nets.generator_self",
        "tensor.conv2d",
        "train.step_self",  # generic tensor arithmetic is charged to its caller
        "tensor.backward_g",
    ]
    layer = spans.layer_metrics(recorded, n_ops=2)
    assert layer["train.step_self_ms"] == 1250.0
    assert layer["unattributed_ms"] == 1000.0
    assert layer["tensor.conv2d_calls"] == 0.5
    assert sum(v for k, v in layer.items() if k.endswith("_ms")) == 5000.0


def test_installed_records_spans_and_restores_the_originals():
    tracer = spans.Tracer()
    call, resample = nets.Generator.__call__, image.resample_bicubic
    with spans.installed(tracer) as wrapped:
        assert wrapped > 50
        assert train.resample_bicubic is not resample and nets.Generator.__call__ is not call
        image.resample_bicubic(image.Image(np.zeros((4, 4, 3), np.float32)), 8, 8)
    assert nets.Generator.__call__ is call
    assert image.resample_bicubic is resample and train.resample_bicubic is resample
    assert [s[0] for s in tracer.spans][0] == "image.resample_bicubic"
    assert all(s[2] is not None for s in tracer.spans)


def test_every_layer_metric_is_named_once():
    names = [name for name, _ in spans.LAYER_METRICS]
    assert len(names) == len(set(names))
    assert set(spans.BUCKETS.values()) | set(spans.NETWORKS.values()) | {"unattributed"} == set(spans.TIME_BUCKETS)


def test_benchmark_json_lists_what_the_runs_print():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == set(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


class _Raising:
    pixels = 1
    PROBE = "scalar"

    def __init__(self, folder):
        pass

    def op(self):
        raise RuntimeError("broken operation")

    def check(self, out):
        return []

    def final_check(self, out):
        return []


@pytest.mark.parametrize("trace", [False, True])
def test_raising_operations_count_as_failed(tmp_path, monkeypatch, trace):
    import run
    import worker
    import workloads

    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, "raising", _Raising)
    result_path = tmp_path / "result.json"
    worker.measure("raising", tmp_path / "w", 0.0, trace, True, time.monotonic(), result_path)
    result = json.loads(result_path.read_text())
    # warm-up and one timed operation; traced: warm-up, an untraced and a
    # traced operation, and the memory-peak operation
    attempted = 4 if trace else 2
    assert run.summarize("raising", [result], trace) == {
        "correct": False, "attempted": attempted, "failed": attempted, "metrics": {}
    }


class _Counting(_Raising):
    def op(self):
        return sum(range(10_000))


def test_times_are_scaled_by_the_median_probe(tmp_path, monkeypatch):
    import run
    import worker
    import workloads

    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, "counting", _Counting)
    monkeypatch.setitem(worker.PROBES, "scalar", lambda: 0.05)
    result_path = tmp_path / "result.json"
    worker.measure("counting", tmp_path / "w", 0.0, False, True, time.monotonic(), result_path)
    result = json.loads(result_path.read_text())
    # a probe after the warm-up and after the one timed operation
    assert result["probe_s"] == [0.05, 0.05]
    other = dict(result, op_s=[0.1, 0.2, 0.3], probe_s=[0.06, 0.07, 0.08, 0.09], setup_s=2.0, pixels_per_op=1e6)
    # the median probe of the run is 0.07 s against PROBE_REF_S = 0.03 s
    metrics = run.summarize("counting", [other, dict(other, op_s=[0.4], probe_s=[0.07, 0.07])], False)["metrics"]
    scale = run.PROBE_REF_S / 0.07
    assert metrics["op_ms_p50"]["value"] == pytest.approx(250.0 * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(2.0 * scale)
    assert metrics["mpix_per_s"]["value"] == pytest.approx(4.0 / (1.0 * scale))


def test_smoke_run_of_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}
        assert metrics["unattributed_ms"] < 0.1 * metrics["traced_op_ms_p50"]


def test_exits_nonzero_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
