"""Dense tensors with reverse-mode automatic differentiation.

The engine is numpy-backed. A :class:`Tensor` wraps an ndarray; the
output of an op on tensors that need a gradient also points at a graph
node (:class:`_Node`) that records the op: its ``_op`` tag, the nodes of
its inputs, one gradient function per input and a ``grad`` accumulator.
A leaf (a parameter or an input, made by the constructor) is its own
node, and its ``grad`` is where :meth:`Tensor.backward` accumulates
``d(loss)/d(leaf)``, walking the nodes in reverse topological order.

The graph holds nodes, not tensors. A forward array lives only while a
caller holds its tensor or a gradient function reads it, and each
gradient function captures only what it reads: often a shape, a mask or
the other operand's array (``sqrt``, ``sigmoid`` and ``tanh`` read their
own output), and for ``add``, ``sub``, ``concat`` and the transforms
nothing at all. An
input that needs no gradient is not kept, and neither is its gradient
function. Wrapped values are never mutated in place, so what a function
captured stays valid for the backward pass.

An op declares one gradient function per input (``grads`` in
:meth:`Tensor._from_op`): it maps the output's gradient to that input's
gradient. The bookkeeping lives in :meth:`Tensor.backward` alone: it
skips inputs that need no gradient, sums each result down any broadcast
axes and accumulates it into the input's node.

Each graph can be walked once. As the walk passes a node, it hands the
node's gradient to its inputs and then releases the node: its ``grad``,
its inputs and its gradient functions, with the forward arrays they hold.
A training step therefore holds only what the rest of the walk still
needs. Leaves are never released, and their ``grad`` accumulates across
graphs until the caller zeroes it. A backward pass that reaches a
released node, from the same root or from a new graph built on a tensor
whose node was released, raises :class:`GraphError` before it computes
anything; build the graph again with a new forward pass. So does a
backward pass on a loss that is not tracked, through which no gradient
could reach a parameter.

Default compute dtype is float32; gradient-check tests build the same
graphs in float64. With float64 operands, ``log`` and ``sqrt`` raise
:class:`DomainError` on negative input (strict mode); with float32 they
propagate NaN the way numpy does.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import AxisError, DomainError, GraphError, ShapeError, check_int, is_int

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "log",
    "sigmoid",
    "tanh",
    "relu",
    "clamp",
    "absolute",
    "sum",
    "mean",
    "matmul",
    "reshape",
    "concat",
    "split_channels",
    "conv2d",
    "sep_filter2d",
    "batch_norm2d",
]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / metrics)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """The graph's record of one tracked op: its tag ``_op``, the nodes of
    its inputs, one gradient function per input and the ``grad``
    accumulator, with the output's ``shape`` and ``dtype`` that
    ``backward`` sums and casts the incoming gradients to. It holds no
    forward array: the output's array belongs to its :class:`Tensor`, and
    a forward array outlives the caller's reference only inside a
    gradient function that reads it."""

    __slots__ = ("grad", "shape", "dtype", "_op", "_inputs", "_grads")
    requires_grad = True  # a node is made only for a tracked op

    def __init__(self, op: str, inputs: tuple, grads: tuple, shape: tuple, dtype):
        self.grad = None
        self.shape = shape
        self.dtype = dtype
        self._op = op
        self._inputs = inputs
        self._grads = grads

    def _accumulate(self, g: np.ndarray):
        if g.dtype != self.dtype:
            g = g.astype(self.dtype)
        if self.grad is None:
            self.grad = np.ascontiguousarray(g)
        else:
            self.grad = self.grad + g


class Tensor:
    """N-dimensional float array, optionally tracked by the autodiff graph.

    A leaf (made by the constructor) is its own graph node: ``grad``
    accumulates on it. The output of a tracked op points at a separate
    :class:`_Node` through ``_node`` and its own ``grad`` stays ``None``.
    Without ``dtype``, a float32 or float64 numpy array or scalar keeps its
    dtype and anything else, a Python scalar or list included, becomes
    float32.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")
    # a leaf as a graph node: no op, no inputs, no gradient functions
    _op, _inputs, _grads = None, (), None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            typed = isinstance(data, (np.ndarray, np.generic)) and arr.dtype in (np.float32, np.float64)
            dtype = arr.dtype if typed else np.float32
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @staticmethod
    def _from_op(data, parents: Sequence["Tensor"], grads: Sequence[Callable], op: str) -> "Tensor":
        """Wrap ``data`` as the output of ``op`` applied to ``parents``.

        ``grads`` holds one function per parent, in the same order, mapping
        the output's gradient to that parent's gradient. A function may
        return a gradient at the broadcast output shape; ``backward`` sums it
        down to the parent's shape. It runs only for parents that require a
        gradient, in parent order.

        When a parent requires a gradient (and :func:`no_grad` is off), the
        output gets a :class:`_Node` holding ``op``, each parent's node and
        the gradient functions; the output's own array is not in it. A
        parent that needs no gradient is stored as ``None`` with its
        function, so the graph keeps neither that parent nor what its
        function captured. So a forward array lives only as long as a
        caller holds its tensor or a kept gradient function reads it.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._node = None
        out.requires_grad = _records(*parents)
        if out.requires_grad:
            keep = [p.requires_grad for p in parents]
            inputs = tuple(_node_of(p) if k else None for p, k in zip(parents, keep))
            kept = tuple(f if k else None for f, k in zip(grads, keep))
            out._node = _Node(op, inputs, kept, data.shape, data.dtype)
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def detach(self) -> "Tensor":
        """Same values, cut out of the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def item(self) -> float:
        """The value of a one-element tensor; any other size raises
        :class:`ShapeError`."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    _accumulate = _Node._accumulate

    def backward(self):
        """Populate ``grad`` on every reachable tracked leaf, releasing the
        graph as it goes.

        The loss must be scalar (size 1) and tracked: a loss built under
        :func:`no_grad`, or only from tensors that need no gradient, raises
        :class:`GraphError`, since no gradient could reach a parameter
        through it. A leaf that requires a gradient gets gradient 1. Leaf
        grads accumulate across calls; callers zero them between steps.
        Every node the walk passes is released once its gradient has
        reached its inputs: its ``grad``, inputs and gradient functions are
        dropped, and its ``_op`` stays. So a graph can be walked once: a
        second call on the same loss, or a call on a new graph that reaches
        a released node, raises :class:`GraphError` before any gradient is
        computed.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise GraphError(
                "backward() on a loss that is not tracked: it was built under no_grad() "
                "or only from tensors that need no gradient"
            )
        root = _node_of(self)
        topo: list = []
        seen = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._op is not None and node._grads is None:
                raise GraphError(
                    f"backward() reached a {node._op!r} node that an earlier backward pass released; "
                    "run the forward pass again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._inputs:
                if p is not None and id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        root._accumulate(np.ones_like(self.data))
        # popping drops topo's reference, so a released node's gradient
        # functions, and the arrays only they hold, are freed at once
        while topo:
            node = topo.pop()
            if node._grads is None:  # a leaf
                continue
            g = node.grad
            for inp, grad_fn in zip(node._inputs, node._grads):
                if inp is not None and inp.requires_grad:
                    inp._accumulate(_unbroadcast(grad_fn(g), inp.shape))
            node.grad, node._inputs, node._grads = None, (), None

    # operator sugar

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"


def _records(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` is recorded in the graph: one of them
    requires a gradient and :func:`no_grad` is off."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _node_of(t: Tensor):
    """``t``'s graph node: its :class:`_Node`, or ``t`` itself for a leaf."""
    return t if t._node is None else t._node


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors (``b`` in ``a``'s dtype),
    checked to broadcast against each other."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _coerce(b, a)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    return a, b


# ---- elementwise binary ----


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    return Tensor._from_op(a.data + b.data, (a, b), (lambda g: g, lambda g: g), "add")


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    return Tensor._from_op(a.data - b.data, (a, b), (lambda g: g, lambda g: -g), "sub")


def mul(a, b) -> Tensor:
    """Each gradient keeps the other operand's array."""
    a, b = _operands(a, b, "mul")
    ad, bd = a.data, b.data
    return Tensor._from_op(ad * bd, (a, b), (lambda g: g * bd, lambda g: g * ad), "mul")


def div(a, b) -> Tensor:
    """``a``'s gradient keeps ``b``'s array; ``b``'s keeps both."""
    a, b = _operands(a, b, "div")
    ad, bd = a.data, b.data
    grads = (lambda g: g / bd, lambda g: -g * ad / (bd * bd))
    return Tensor._from_op(ad / bd, (a, b), grads, "div")


# ---- elementwise unary ----


def _strict_domain(a: Tensor, op: str):
    # float64 is the strict mode used by the numeric suites
    if a.data.dtype == np.float64 and np.any(a.data < 0):
        raise DomainError(f"{op}: negative input in 64-bit strict mode")


def sqrt(a: Tensor) -> Tensor:
    _strict_domain(a, "sqrt")
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(a.data)
    return Tensor._from_op(out_data, (a,), (lambda g: g * (0.5 / out_data),), "sqrt")


def log(a: Tensor) -> Tensor:
    _strict_domain(a, "log")
    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.log(a.data)
    ad = a.data
    return Tensor._from_op(out_data, (a,), (lambda g: g / ad,), "log")


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return Tensor._from_op(out_data, (a,), (lambda g: g * out_data * (1.0 - out_data),), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return Tensor._from_op(out_data, (a,), (lambda g: g * (1.0 - out_data * out_data),), "tanh")


def relu(a: Tensor) -> Tensor:
    """The gradient keeps the input's boolean mask ``a > 0``, not its array."""
    mask = a.data > 0 if _records(a) else None
    return Tensor._from_op(np.maximum(a.data, 0), (a,), (lambda g: g * mask,), "relu")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was inside,
    and keeps the input array. ``lo > hi`` raises :class:`DomainError`."""
    if lo > hi:
        raise DomainError(f"clamp: lower bound {lo} is above upper bound {hi}")
    ad = a.data
    grads = (lambda g: g * ((ad >= lo) & (ad <= hi)),)
    return Tensor._from_op(np.clip(ad, lo, hi), (a,), grads, "clamp")


def absolute(a: Tensor) -> Tensor:
    """|a|, with subgradient sign(a) (0 at the origin); the gradient keeps
    the input array."""
    ad = a.data
    return Tensor._from_op(np.abs(ad), (a,), (lambda g: g * np.sign(ad),), "abs")


# ---- reductions ----


def _norm_axes(axes, ndim: int):
    """``axes`` (None, one axis or a tuple or list of them) as distinct
    non-negative axes; an axis that is not an integer or is out of range
    raises :class:`AxisError`."""
    if axes is None:
        return None
    out = []
    for ax in axes if isinstance(axes, (tuple, list)) else (axes,):
        if not is_int(ax):
            raise AxisError(f"axis {ax!r} is not an integer")
        if not -ndim <= ax < ndim:
            raise AxisError(f"axis {ax} out of range for rank {ndim}")
        out.append(int(ax) % ndim)
    return tuple(dict.fromkeys(out))


def _spread(g: np.ndarray, shape: tuple, axes) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axes."""
    return np.broadcast_to(g if axes is None else np.expand_dims(g, axes), shape)


def sum(a: Tensor, axes=None) -> Tensor:
    """The gradient keeps only the input's shape."""
    axes = _norm_axes(axes, a.data.ndim)
    out_data = np.asarray(a.data.sum(axis=axes))
    shape = a.shape
    return Tensor._from_op(out_data, (a,), (lambda g: _spread(g, shape, axes).copy(),), "sum")


def mean(a: Tensor, axes=None) -> Tensor:
    """The gradient keeps only the input's shape."""
    axes = _norm_axes(axes, a.data.ndim)
    out_data = np.asarray(a.data.mean(axis=axes))
    shape = a.shape
    count = a.data.size if axes is None else math.prod(shape[ax] for ax in axes)
    return Tensor._from_op(out_data, (a,), (lambda g: _spread(g, shape, axes) / count,), "mean")


# ---- structure ----


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul supports 2-D operands only")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape[1]} vs {b.shape[0]}")
    ad, bd = a.data, b.data
    return Tensor._from_op(ad @ bd, (a, b), (lambda g: g @ bd.T, lambda g: ad.T @ g), "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` with the same elements in ``shape``; a shape that is not one
    of integers or has another size raises :class:`ShapeError`. The
    gradient keeps only the input's shape."""
    try:
        out_data = a.data.reshape(shape)
    except (TypeError, ValueError):
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    in_shape = a.shape
    return Tensor._from_op(out_data, (a,), (lambda g: g.reshape(in_shape),), "reshape")


def concat(parts: Iterable[Tensor], axis: int = 1) -> Tensor:
    """Join ``parts`` along ``axis``. No parts, or parts whose shapes differ
    off that axis, raise :class:`ShapeError`; an axis that is not an integer
    or is out of range raises :class:`AxisError`. Each part's gradient
    keeps only its slice's bounds."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no tensors to join")
    (axis,) = _norm_axes((axis,), parts[0].data.ndim)
    shapes = [p.shape for p in parts]
    if len({(len(s), s[:axis] + s[axis + 1 :]) for s in shapes}) > 1:
        raise ShapeError(f"concat: shapes {shapes} differ off axis {axis}")
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def part_grad(stop: int, n: int):
        index = [slice(None)] * out_data.ndim
        index[axis] = slice(stop - n, stop)
        return lambda g: g[tuple(index)]

    sizes = [p.shape[axis] for p in parts]
    grads = [part_grad(stop, n) for stop, n in zip(itertools.accumulate(sizes), sizes)]
    return Tensor._from_op(out_data, tuple(parts), grads, "concat")


def split_channels(a: Tensor, sizes: Sequence[int]) -> tuple:
    """Split along the channel axis into consecutive groups of ``sizes``,
    one ``"narrow"`` node per group. Each group is a view of ``a``'s
    array; its gradient keeps only ``a``'s shape."""
    if a.data.ndim != 4:
        raise ShapeError("split_channels expects NCHW input")
    starts = list(itertools.accumulate(sizes, initial=0))
    if not all(is_int(n, 0) for n in sizes) or starts[-1] != a.shape[1]:
        raise ShapeError(f"split sizes {tuple(sizes)} are not counts that cover {a.shape[1]} channels")

    shape = a.shape

    def narrow(start, stop):
        def grad(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[:, start:stop] = g
            return full

        return Tensor._from_op(a.data[:, start:stop], (a,), (grad,), "narrow")

    return tuple(narrow(start, start + n) for start, n in zip(starts, sizes))


# ---- adjoint of spatial padding (conv2d backward) ----


def _fold_pad(g: np.ndarray, pad: int, mode: str):
    """Adjoint of spatial padding, in place on a padded (..., H + 2*pad,
    W + 2*pad) gradient: reflect padding adds each pad column, then each
    pad row, onto the sample it mirrors. The input's gradient is then
    ``g[..., pad:-pad, pad:-pad]``; zero padding adds nothing."""
    if pad == 0 or mode != "reflect":
        return
    h, w = g.shape[-2] - 2 * pad, g.shape[-1] - 2 * pad
    for i in range(pad):
        g[..., 2 * pad - i] += g[..., i]
    for j in range(pad):
        g[..., pad + w - 2 - j] += g[..., pad + w + j]
    core = g[..., pad : pad + w]
    for i in range(pad):
        core[..., 2 * pad - i, :] += core[..., i, :]
    for j in range(pad):
        core[..., pad + h - 2 - j, :] += core[..., pad + h + j, :]


# ---- kernels split across the CPUs ----

# Threads that run the parts of one kernel call: the calling thread and
# one worker for each other CPU the process may use. numpy releases the
# GIL inside BLAS, pocketfft and array copies, so the parts run at once.
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_tasks = None  # the workers' queue of (part, done), made with the first worker
_workers: list = []
_workers_lock = threading.Lock()


def _work(tasks):
    while True:
        part, done = tasks.get()
        try:
            part()
        except BaseException as err:  # handed to the caller, which raises it
            result = err
        else:
            result = None
        part = None  # the part's arrays are the caller's alone once it returns
        done.put(result)
        result = done = None


def _forget_workers():
    # a forked child has none of its parent's threads
    global _tasks, _workers_lock
    _tasks, _workers_lock = None, threading.Lock()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _spans(n: int, work: int) -> list[tuple[int, int]]:
    """``[0, n)`` as ``min(n, _THREADS)`` contiguous runs whose lengths
    differ by at most one, in order. It stays one run when the call does
    under ``_SPLIT_WORK`` multiply-adds (``work``: output elements times
    the depth of each one's sum): there, waking a worker costs more than
    the split saves."""
    k = min(n, _THREADS) if work >= _SPLIT_WORK else 1
    bounds = [n * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


# A kernel call splits only when it does at least this many multiply-adds.
# On a 2-CPU Xeon guest with BLAS pinned to one thread, handing a part to
# a worker costs 30-50 us. A training step's stride-2 convs (1-5.3M) ran
# 25-50% slower split, in the forward and in both gradients, and its 3x3
# trunk convs (28M and 56M) ran faster. At 12.9M the tail's gradients ran
# faster split and the head's forward slower. Its 1x1 convs (3.1M and
# 6.5M) stay whole: they are memory-bound, and split they ran faster in
# some runs and slower in others.
_SPLIT_WORK = 1 << 23


def _run_parts(parts: Sequence[Callable[[], None]]):
    """Run every part of one kernel call, the first on the calling thread
    and the others on worker threads, started on first use; return once
    all have finished, then raise the first exception a part raised.

    A part only writes into arrays the calling thread allocated: it
    allocates nothing large and calls no public function, so the graph,
    span tracing and allocation tracing see a single thread. Parts that
    write disjoint slices of one output give the bits a serial run gives.

    ``conv2d``'s forward splits its (image, band) list and a 1x1 its
    pixel columns; its backward splits by images. Each run of the input
    gradient copies its images of ``g`` into ``g``'s matrix, runs its
    columns of the GEMM, scatters its taps into its images of the padded
    gradient, folds their padding and copies them out. The kernel
    gradient fills each run's columns, and its one GEMM stays whole on
    the calling thread: a cut through its sum over images changes the
    bits. A 1x1 runs each image's GEMMs in its run and sums them over
    images on the calling thread.

    The training forward's noise draws run on a producer thread of their
    own, under the same rules (see the ``nets`` module docstring), and
    never on these workers, where a draw would hold up the parts queued
    behind it.
    """
    global _tasks
    if len(parts) == 1:
        parts[0]()
        return
    import queue  # here, so a process that never splits a kernel skips the import

    with _workers_lock:
        if _tasks is None:
            _tasks = queue.SimpleQueue()
        while len(_workers) < len(parts) - 1:
            worker = threading.Thread(target=_work, args=(_tasks,), name="fftsr-worker", daemon=True)
            worker.start()
            _workers.append(worker)
        tasks = _tasks
    done = queue.SimpleQueue()
    for part in parts[1:]:
        tasks.put((part, done))
    try:
        parts[0]()
    finally:
        errors = [done.get() for _ in parts[1:]]
    for err in errors:
        if err is not None:
            raise err


# ---- convolution ----


_NP_PAD_MODES = {"zero": "constant", "reflect": "reflect"}


def _pad_cnhw(xt: np.ndarray, pad: int, mode: str) -> np.ndarray:
    """Spatial padding of a channel-first (C, N, H, W) block."""
    if pad == 0:
        return xt
    h, w = xt.shape[2:]
    if mode == "reflect" and (pad > h - 1 or pad > w - 1):
        raise ShapeError(f"reflect pad {pad} too large for spatial dims {(h, w)}")
    return np.pad(xt, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode=_NP_PAD_MODES[mode])


# conv2d builds its forward columns one band of output rows at a time,
# in one reused buffer of about this many bytes. A band small enough to stay
# in cache is still there when the band's GEMM reads it; the full column
# matrix (87 MB for 13 -> 26 channels at 324x576) goes out to DRAM and back.
# On a Xeon with 2 MiB of L2 per core, budgets of 128 KiB to 1 MiB ran
# fastest; at 2 MiB and above the band no longer fits in L2 beside the
# GEMM's packed panels, and the 324x576 convs ran 1.2-2x slower.
_BAND_BYTES = 1 << 20


def _fill_cols(xtp: np.ndarray, stride: int, r0: int, r1: int, dst: np.ndarray):
    """Copy the kh*kw taps of output rows [r0, r1) of (C, N, Hp, Wp) input into
    dst, laid out (kh, kw, C, N, r1 - r0, OW).

    Channel-first input makes each of the kh*kw fills a plain strided
    slice copy, which beats a sliding-window gather at these sizes.
    """
    kh, kw, ow = dst.shape[0], dst.shape[1], dst.shape[-1]
    for i in range(kh):
        top, bottom = i + stride * r0, i + stride * (r1 - 1) + 1
        for j in range(kw):
            dst[i, j] = xtp[:, :, top:bottom:stride, j : j + stride * (ow - 1) + 1 : stride]


def _conv_bands(xtp: np.ndarray, kmat: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """conv2d forward: (C, N, Hp, Wp) input -> (N, Cout, OH, OW).

    Each band of output rows of one image fills a slice of a reused column
    buffer and gets one GEMM, written straight into its rows of the output.
    The (image, band) list is cut into contiguous runs of equal count, one
    per thread, each with its own buffer; a band's GEMM is the same
    whichever thread runs it. No column is kept: the kernel gradient builds
    its own.
    """
    c, n = xtp.shape[:2]
    depth, cout = kmat.shape
    out = np.empty((n, cout, oh, ow), dtype=np.result_type(kmat, xtp))
    flat = out.reshape(n, cout, oh * ow)
    rows = max(1, min(oh, _BAND_BYTES // (depth * ow * xtp.itemsize)))
    bands = [(b, r0, min(r0 + rows, oh)) for b in range(n) for r0 in range(0, oh, rows)]

    def fill_and_multiply(run, buf):
        for b, r0, r1 in run:
            band = buf[: depth * (r1 - r0) * ow].reshape(kh, kw, c, 1, r1 - r0, ow)
            _fill_cols(xtp[:, b : b + 1], stride, r0, r1, band)
            np.matmul(kmat.T, band.reshape(depth, (r1 - r0) * ow), out=flat[b, :, r0 * ow : r1 * ow])

    spans = _spans(len(bands), out.size * depth)
    bufs = [np.empty(depth * rows * ow, dtype=xtp.dtype) for _ in spans]
    _run_parts([functools.partial(fill_and_multiply, bands[lo:hi], buf) for (lo, hi), buf in zip(spans, bufs)])
    return out


def _conv1x1_forward(x: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """1x1 conv forward: one GEMM per image, its pixel columns split into a
    contiguous run per thread."""
    n, cin, h, w = x.shape
    out = np.empty((n, kmat.shape[0], h, w), dtype=np.result_type(kmat, x))
    xm, om = x.reshape(n, cin, h * w), out.reshape(n, kmat.shape[0], h * w)

    def multiply(lo, hi):
        np.matmul(kmat, xm[:, :, lo:hi], out=om[:, :, lo:hi])

    _run_parts([functools.partial(multiply, lo, hi) for lo, hi in _spans(h * w, out.size * cin)])
    return out


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, lo: int, hi: int):
    """Images [lo, hi) of the batched product ``a @ b``, into ``out``."""
    np.matmul(a[lo:hi], b[lo:hi], out=out[lo:hi])


def _channel_sum(g: np.ndarray) -> np.ndarray:
    """Gradient of a per-channel bias (or BatchNorm shift) over NCHW."""
    return g.sum(axis=(0, 2, 3))


def conv2d(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    pad_mode: str = "zero",
) -> Tensor:
    """2-D cross-correlation over NCHW input.

    kernel is (Cout, Cin, kh, kw); output spatial size is
    floor((H + 2*padding - kh) / stride) + 1. Backward produces gradients
    for the input, the kernel, and the bias. A stride or padding that is
    not an integer (a bool is not one), a stride below 1, a negative
    padding or a pad_mode other than "zero" or "reflect" raises
    :class:`DomainError`; a kernel with a zero extent or larger than the
    padded input raises :class:`ShapeError`.

    Every call that is not a plain 1x1, tracked or not, builds its im2col
    columns one band of output rows at a time in a cache-sized buffer and
    writes each band's GEMM straight into the output. For 13 -> 26 channels
    at 324x576 the call peaks at 29 MiB, where one full column matrix took
    it to 111 MiB. The full matrix is built only in backward, and only when
    the kernel needs a gradient, so the graph keeps no columns alive.

    The forward, tracked or not, and the backward run on every CPU the
    process may use: the calling thread and one worker thread per other
    CPU each take a contiguous run, of equal count, of the work, and
    write their slices of arrays the calling thread allocated. The
    forward splits its (image, band) list, each run with its own column
    buffer; a plain 1x1 splits its pixel columns. The backward splits by
    images (see :func:`_run_parts`); the kernel gradient's GEMM stays
    whole. Each split GEMM is the one a single thread would run, or a run
    of its output columns, which gave the same bits at every shape a
    training step uses, so outputs and gradients are bit-identical to a
    one-thread run. A call of under ``_SPLIT_WORK`` multiply-adds stays
    on the calling thread. fftsr expects single-threaded BLAS
    (``OPENBLAS_NUM_THREADS=1``). On a 2-CPU Xeon guest with OpenBLAS at
    its default two threads, the parts' GEMMs compete for its threads:
    the upscale benchmark's four frames took 528 ms split and 495 ms
    unsplit, against 317 ms split and 450 ms unsplit with BLAS pinned.

    The input gradient keeps the kernel as a matrix. The kernel gradient,
    recorded only when the kernel needs a gradient, keeps the padded
    channel-first copy of the input (a 1x1 conv keeps the input itself);
    neither keeps ``x``'s own array.
    """
    check_int(stride, "conv2d: stride", 1, DomainError)
    check_int(padding, "conv2d: padding", 0, DomainError)
    if pad_mode not in _NP_PAD_MODES:
        raise DomainError(f"conv2d: pad_mode must be one of {sorted(_NP_PAD_MODES)}, got {pad_mode!r}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW kernel")
    n, cin, h, w = x.shape
    cout, cink, kh, kw = kernel.shape
    if 0 in kernel.shape:
        raise ShapeError(f"conv2d: kernel shape {kernel.shape} has a zero extent")
    if cin != cink:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cink}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d: a {kh}x{kw} kernel does not fit a {h}x{w} input padded by {padding}")
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        kmat = kernel.data.reshape(cout, cin)
        out_data = _conv1x1_forward(x.data, kmat)
        if bias is not None:
            out_data += bias.data.reshape(1, cout, 1, 1)
        # the input gradient keeps the kernel matrix and the kernel gradient
        # the input, copied when it is a strided slice (a split_channels
        # group), so the graph does not pin the whole array it was cut from
        xd = np.ascontiguousarray(x.data) if _records(kernel) else None
        work = out_data.size * cin

        def input_grad_1x1(g):
            gm = g.reshape(n, cout, h * w)
            gx = np.empty((n, cin, h * w), dtype=np.result_type(kmat, gm))
            kt = np.broadcast_to(kmat.T, (n, cin, cout))
            _run_parts([functools.partial(_matmul, kt, gm, gx, lo, hi) for lo, hi in _spans(n, work)])
            return gx.reshape(n, cin, h, w)

        def kernel_grad_1x1(g):
            gm, xt = g.reshape(n, cout, h * w), xd.reshape(n, cin, h * w).transpose(0, 2, 1)
            per_image = np.empty((n, cout, cin), dtype=np.result_type(gm, xt))
            _run_parts([functools.partial(_matmul, gm, xt, per_image, lo, hi) for lo, hi in _spans(n, work)])
            return per_image.sum(axis=0).reshape(cout, cin, 1, 1)

        grads = (input_grad_1x1, kernel_grad_1x1, _channel_sum)
        return Tensor._from_op(out_data, parents, grads[: len(parents)], "conv1x1")

    xtp = _pad_cnhw(np.ascontiguousarray(x.data.transpose(1, 0, 2, 3)), padding, pad_mode)
    oh = (xtp.shape[2] - kh) // stride + 1
    ow = (xtp.shape[3] - kw) // stride + 1
    # kernel laid out to match the (kh, kw, cin) column ordering; every GEMM
    # reads it as the transposed view kmat.T, which keeps outputs bit-equal
    # to the one-shot GEMM
    kmat = np.ascontiguousarray(kernel.data.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout))
    out_data = _conv_bands(xtp, kmat, kh, kw, stride, oh, ow)
    if bias is not None:
        out_data += bias.data.reshape(1, cout, 1, 1)

    # Both gradients below need g as a (cout, N*OH*OW) matrix. The input
    # gradient runs first, its runs fill the matrix image by image, and
    # when the kernel needs a gradient it hands the matrix to the kernel
    # gradient, which drops it.
    handoff = []  # g's matrix, made by the input gradient
    pshape, dtype = xtp.shape, xtp.dtype
    wants_kernel_grad = _records(kernel)
    work = out_data.size * kmat.shape[0]

    def gmat_of(g):
        return np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(cout, n * oh * ow)

    def input_grad(g):
        gmat = np.empty((cout, n * oh * ow), dtype=g.dtype)
        if wants_kernel_grad:
            handoff.append(gmat)
        gcols = np.empty((kh * kw * cin, n * oh * ow), dtype=np.result_type(kmat, gmat))
        gpad = np.zeros(pshape, dtype)
        gx = np.empty((n, cin, h, w), dtype)
        taps = gcols.reshape(kh, kw, cin, n, oh, ow)

        def grad_images(lo, hi):
            cols = slice(lo * oh * ow, hi * oh * ow)
            gmat.reshape(cout, n, oh, ow)[:, lo:hi] = g[lo:hi].transpose(1, 0, 2, 3)
            np.matmul(kmat, gmat[:, cols], out=gcols[:, cols])
            run = gpad[:, lo:hi]
            for i in range(kh):
                bottom = i + stride * (oh - 1) + 1
                for j in range(kw):
                    right = j + stride * (ow - 1) + 1
                    run[:, :, i:bottom:stride, j:right:stride] += taps[i, j, :, lo:hi]
            _fold_pad(run, padding, pad_mode)
            gx[lo:hi] = run[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)

        _run_parts([functools.partial(grad_images, lo, hi) for lo, hi in _spans(n, work)])
        return gx

    # the input gradient keeps the kernel matrix; only the kernel gradient
    # reads the padded input, and when the kernel needs no gradient,
    # _from_op drops that function and the padded input with it
    def kernel_grad(g):
        gmat = handoff.pop() if handoff else gmat_of(g)
        cols = np.empty((kh * kw * cin, n * oh * ow), dtype=xtp.dtype)
        taps = cols.reshape(kh, kw, cin, n, oh, ow)
        _run_parts(
            [functools.partial(_fill_cols, xtp[:, lo:hi], stride, 0, oh, taps[:, :, :, lo:hi]) for lo, hi in _spans(n, work)]
        )
        gk = (gmat @ cols.T).T.reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
        return np.ascontiguousarray(gk)

    return Tensor._from_op(out_data, parents, (input_grad, kernel_grad, _channel_sum)[: len(parents)], "conv2d")


# ---- separable spatial filtering (loss windows) ----

# the losses take three entries per patch size: SSIM window, Sobel smoothing and difference
@functools.lru_cache(maxsize=32)
def _filter_matrix(n: int, taps: tuple, dtype) -> np.ndarray:
    """Banded (n, n) matrix applying a 1-D correlation with reflect borders."""
    # row i + t of a reflect-padded identity picks the sample tap t reads for output i
    center = len(taps) // 2
    picks = np.pad(np.eye(n), ((center, center), (0, 0)), mode="reflect")
    mat = np.zeros((n, n))
    for t, tap in enumerate(taps):
        mat += tap * picks[t : t + n]
    mat = mat.astype(dtype)
    mat.setflags(write=False)
    return mat


def sep_filter2d(x: Tensor, taps_h: np.ndarray, taps_w: np.ndarray) -> Tensor:
    """Separable 2-D correlation of an NCHW tensor, same-size output,
    reflect borders (the edge sample is not repeated).

    Equivalent to conv2d with kernel ``outer(taps_h, taps_w)`` applied
    per channel, but runs as two cached banded matrix products. Each tap
    vector must be 1-D and of odd length, centred on its middle tap, or
    :class:`ShapeError` is raised. The gradient keeps only the two cached
    matrices.
    """
    if x.data.ndim != 4:
        raise ShapeError("sep_filter2d expects NCHW input")
    h, w = x.shape[2], x.shape[3]
    taps_h = np.asarray(taps_h, dtype=np.float64)
    taps_w = np.asarray(taps_w, dtype=np.float64)
    for name, taps in (("taps_h", taps_h), ("taps_w", taps_w)):
        if taps.ndim != 1 or taps.size % 2 == 0:
            raise ShapeError(f"sep_filter2d: {name} must be 1-D with an odd number of taps, got shape {taps.shape}")
    if taps_h.size // 2 > h - 1 or taps_w.size // 2 > w - 1:
        raise ShapeError(f"filter taps too wide for spatial dims {(h, w)}")
    mh = _filter_matrix(h, tuple(taps_h.tolist()), x.data.dtype)
    mw = _filter_matrix(w, tuple(taps_w.tolist()), x.data.dtype)
    out_data = np.swapaxes(np.swapaxes(x.data, -1, -2) @ mh.T, -1, -2) @ mw.T
    grads = (lambda g: np.ascontiguousarray(np.swapaxes(np.swapaxes(g @ mw, -1, -2) @ mh, -1, -2)),)
    return Tensor._from_op(np.ascontiguousarray(out_data), (x,), grads, "sep_filter2d")


# ---- batch normalization ----


BN_EPS = 1e-5  # added to every BatchNorm variance, by the op and by nets.BatchNorm2d.affine


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor):
    """Per-channel batch normalization over an NCHW tensor, by batch
    statistics (train mode), with ``BN_EPS`` added to the variance.

    Returns the output, and the batch mean and biased variance as new
    (C,) arrays. Eval mode has no op here: the networks
    fold the running-stats affine map into their convolutions. The
    gradients keep the normalized input ``xhat`` and the per-channel
    scale, not ``x``. The forward makes two full-size arrays, the
    centred input (then written over by ``xhat``) and the output, and
    the input gradient two, with the IEEE operations of the op-by-op
    formulas in their order.
    """
    if x.data.ndim != 4:
        raise ShapeError("batch_norm2d expects NCHW input")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    gview = gamma.data.reshape(1, c, 1, 1)
    bview = beta.data.reshape(1, c, 1, 1)

    mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
    xc = x.data - mu
    m = x.data.size // c
    var = np.einsum("nchw,nchw->c", xc, xc) / m
    inv = 1.0 / np.sqrt(var.reshape(1, c, 1, 1) + BN_EPS)
    out_data = xc * (gview * inv)
    out_data += bview
    xhat = np.multiply(xc, inv, out=xc)

    def input_grad(g):
        # inv * (dxhat - s1 / m - xhat * s2 / m), op for op, in two arrays
        # made here: ``g`` may be shared (``add`` hands one array to both
        # of its inputs), so it is never written
        dxhat = g * gview
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        scratch = dxhat * xhat
        s2 = scratch.sum(axis=(0, 2, 3), keepdims=True)
        dxhat -= s1 / m
        np.multiply(xhat, s2, out=scratch)
        scratch /= m
        dxhat -= scratch
        dxhat *= inv
        return dxhat

    grads = (input_grad, lambda g: np.einsum("nchw,nchw->c", g, xhat), _channel_sum)
    return Tensor._from_op(out_data, (x, gamma, beta), grads, "batch_norm"), mu.reshape(c), var
