"""Span tracing of fftsr from outside the program.

:func:`installed` replaces, while its block runs, every public function
and method of the traced fftsr modules, in every fftsr namespace that
holds a reference to it, by a wrapper that records a span: name, start,
end, parent and the operation it belongs to. Spans stay in memory until
the run writes them.

Self time is a span's duration minus the time its direct children cover.
:func:`layer_metrics` folds self times into the per-layer buckets listed
in ``LAYER_METRICS``; generic tensor arithmetic and bookkeeping methods
have no bucket of their own and are charged to their caller, so the
buckets plus ``unattributed_ms`` (the operation's own self time) add up
to the traced operation time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

TRACED_MODULES = ("tensor", "fft", "nets", "losses", "optim", "image", "train")

# span name -> bucket; names not listed here are charged to their caller,
# except nets spans, which go to the network that encloses them
BUCKETS = {
    "tensor.Tensor.backward[d]": "tensor.backward_d",
    "tensor.Tensor.backward[g]": "tensor.backward_g",
    "tensor.conv2d": "tensor.conv2d",
    "tensor.batch_norm2d": "tensor.batch_norm",
    "tensor.sep_filter2d": "tensor.sep_filter",
    "fft.rfft2d": "fft.rfft2d",
    "fft.rfft2d_array": "fft.rfft2d",
    "fft.rfft2d_adjoint": "fft.rfft2d",
    "fft.irfft2d": "fft.irfft2d",
    "fft.irfft2d_array": "fft.irfft2d",
    "fft.irfft2d_adjoint": "fft.irfft2d",
    "nets.inject_noise": "nets.inject_noise",
    "losses.ssim": "losses.ssim",
    "losses.perceptual_loss": "losses.perceptual",
    "losses.PerceptualExtractor.features": "losses.perceptual",
    "losses.mge_loss": "losses.mge",
    "losses.sobel_gradients": "losses.mge",
    "losses.charbonnier": "losses.charbonnier",
    "losses.adversarial_gen_loss": "losses.adversarial",
    "losses.adversarial_disc_loss": "losses.adversarial",
    "optim.AdamW.step": "optim.adamw",
    "optim.AdamW.zero_grad": "optim.adamw",
    "image.resample_bicubic": "image.resample",
    "image.resample_bilinear": "image.resample",
    "image.resample_nchw": "image.resample",
    "image.make_lr_hr_pair": "image.resample",
    "image.keys_weights": "image.resample",
    "image.decode_image": "image.decode",
    "image.encode_image": "image.encode",
    "train.sample_patches": "train.sample_patches",
    "train.Trainer.train_step": "train.step_self",
    "train.upscale_image": "train.upscale_self",
}
NETWORKS = {"nets.Generator.__call__": "nets.generator_self", "nets.Discriminator.__call__": "nets.discriminator_self"}
# the benchmark opens one root span per workload operation; its self time,
# and that of anything charged to it, is the unattributed time
OP_SPAN = "op"

# memory-peak groups: (bucket prefix, metric)
PEAK_GROUPS = (("tensor.conv2d", "tensor.conv2d_peak_mib"), ("fft.", "fft.peak_mib"), ("image.decode", "image.decode_peak_mib"))

TIME_BUCKETS = (
    "tensor.backward_d", "tensor.backward_g", "tensor.conv2d", "tensor.batch_norm", "tensor.sep_filter",
    "fft.rfft2d", "fft.irfft2d", "nets.generator_self", "nets.discriminator_self", "nets.inject_noise",
    "losses.ssim", "losses.perceptual", "losses.mge", "losses.charbonnier", "losses.adversarial",
    "optim.adamw", "image.resample", "image.decode", "image.encode",
    "train.sample_patches", "train.step_self", "train.upscale_self", "unattributed",
)
LAYER_METRICS = (
    [(f"{b}_ms", "ms") for b in TIME_BUCKETS]
    + [("tensor.conv2d_calls", "count")]
    + [(metric, "MiB") for _, metric in PEAK_GROUPS]
    + [("traced_op_ms_p50", "ms"), ("trace_overhead_ms", "ms")]
)


class Tracer:
    """Collects spans as [name, start_s, end_s, parent_index, op_index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.disc_roots: set[int] = set()  # ids of adversarial_disc_loss outputs not yet backpropagated
        self.track_peaks = False
        self.peaks: dict[str, float] = {}
        self._peak_open: tuple | None = None  # (span index, metric, baseline bytes)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        if self.track_peaks and self._peak_open is None:
            metric = _peak_metric(name)
            if metric:
                tracemalloc.reset_peak()
                self._peak_open = (idx, metric, tracemalloc.get_traced_memory()[0])
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if self._peak_open is not None and self._peak_open[0] == idx:
            _, metric, base = self._peak_open
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.peaks[metric] = max(self.peaks.get(metric, 0.0), peak)
            self._peak_open = None


def _peak_metric(name: str):
    bucket = BUCKETS.get(name, "")
    for prefix, metric in PEAK_GROUPS:
        if bucket.startswith(prefix):
            return metric
    return None


def _wrap(fn, name: str, tracer: Tracer):
    if name == "tensor.Tensor.backward":

        def traced(self, *args, **kwargs):
            root = "d" if id(self) in tracer.disc_roots else "g"
            tracer.disc_roots.discard(id(self))
            idx = tracer.open(f"{name}[{root}]")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(idx)

    elif name == "losses.adversarial_disc_loss":

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.disc_roots.add(id(out))
            return out

    else:

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

    return functools.wraps(fn)(traced)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the public functions and methods of ``TRACED_MODULES`` while
    the block runs, and put the originals back when it ends.

    Yields the number of callables wrapped. Callers must reach fftsr
    through module attributes (``train.upscale_image``), since names
    bound before the block keep the unwrapped function.
    """
    replaced, undo = {}, []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"fftsr.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = _wrap(obj, f"{short}.{attr}", tracer)
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__call__":
                        continue
                    kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
                    fn = member.__func__ if kind else member
                    if inspect.isfunction(fn):
                        wrapped = _wrap(fn, f"{short}.{obj.__name__}.{mname}", tracer)
                        undo.append((obj, mname, member))
                        setattr(obj, mname, kind(wrapped) if kind else wrapped)
    # rebind every fftsr-level name that points at a wrapped function,
    # including names imported with ``from .x import y``
    for name, mod in list(sys.modules.items()):
        if name == "fftsr" or name.startswith("fftsr."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
    try:
        yield len(replaced) + sum(inspect.isclass(owner) for owner, _, _ in undo)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def buckets(spans: list[list]) -> list[str]:
    """Bucket of every span; parents always precede their children."""
    out, network = [], []
    for name, _, _, parent, _ in spans:
        net = NETWORKS.get(name) or (network[parent] if parent >= 0 else None)
        network.append(net)
        bucket = BUCKETS.get(name)
        if bucket is None and name.startswith("nets.") and net is not None:
            bucket = net
        if bucket is None:
            bucket = out[parent] if parent >= 0 else "unattributed"
        out.append(bucket)
    return out


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-operation self time in ms for every bucket, plus conv2d calls."""
    totals = dict.fromkeys(TIME_BUCKETS, 0.0)
    for bucket, own in zip(buckets(spans), self_times(spans)):
        totals[bucket] += own
    metrics = {f"{b}_ms": 1e3 * v / n_ops for b, v in totals.items()}
    metrics["tensor.conv2d_calls"] = sum(s[0] == "tensor.conv2d" for s in spans) / n_ops
    return metrics
