import contextlib
import functools
import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import fftsr
from fftsr import fft
from fftsr import tensor as T
from fftsr.errors import AxisError, DomainError, GraphError, ShapeError
from fftsr.nets import BatchNorm2d
from fftsr.tensor import Tensor

from gradcheck import check_gradients, to_float64


def test_add_componentwise():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_relu_definition():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_mul_grad_matches_other_factor():
    a = Tensor([2.0], requires_grad=True, dtype=np.float64)
    b = Tensor([3.0], requires_grad=True, dtype=np.float64)
    T.sum(T.mul(a, b)).backward()
    assert np.allclose(a.grad, [3.0])
    assert np.allclose(b.grad, [2.0])


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_broadcast_scalar_and_leading_axes():
    a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    out = a + 1.0
    assert out.shape == (2, 3)
    b = Tensor(np.ones((3,)), requires_grad=True, dtype=np.float64)
    T.sum(a * b).backward()
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, [2.0, 2.0, 2.0])


def test_strict_domain_float64():
    with pytest.raises(DomainError):
        T.log(Tensor([-1.0], dtype=np.float64))
    with pytest.raises(DomainError):
        T.sqrt(Tensor([-1.0], dtype=np.float64))


def test_float32_propagates_nan():
    out = T.sqrt(Tensor([-1.0], dtype=np.float32))
    assert np.isnan(out.data).all()


@pytest.mark.parametrize("value", [1.5, [1.0, 2.0], 2], ids=["float", "list", "int"])
def test_python_numbers_default_to_float32(value):
    assert Tensor(value).dtype == np.float32
    # a bare first operand, wrapped by the binary ops, too
    assert T.add(value, 1.0).dtype == np.float32
    assert T.mul(value, Tensor(np.float32(2.0))).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numpy_floats_keep_their_dtype(dtype):
    assert Tensor(np.ones(2, dtype)).dtype == dtype
    assert Tensor(dtype(0.5)).dtype == dtype
    assert T.sub(np.ones(2, dtype), 1.0).dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clamp_with_lo_above_hi_raises(dtype):
    with pytest.raises(DomainError, match="clamp"):
        T.clamp(Tensor([0.5, 3.0], dtype=dtype), 2.0, 1.0)
    assert np.array_equal(T.clamp(Tensor([0.5, 3.0], dtype=dtype), 1.0, 1.0).data, [1.0, 1.0])


def test_mean_value_and_grad():
    x = Tensor([1.0, 2.0, 3.0, 6.0], requires_grad=True, dtype=np.float64)
    m = T.mean(x)
    assert m.item() == 3.0
    m.backward()
    assert np.allclose(x.grad, 0.25)


def test_sum_empty_axis_list_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
    out = T.sum(x, axes=())
    assert np.array_equal(out.data, x.data)
    T.sum(out).backward()
    assert np.allclose(x.grad, 1.0)


def test_axis_out_of_range():
    with pytest.raises(AxisError):
        T.sum(Tensor(np.ones((2, 2))), axes=5)


@pytest.mark.parametrize("axes", [0.5, [0.5], True, None], ids=["0.5", "[0.5]", "True", "concat-None"])
def test_axis_not_an_integer(axes):
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(AxisError, match="not an integer"):
        T.concat([x, x], axis=axes) if axes is None else T.sum(x, axes=axes)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        x.backward()


@pytest.mark.parametrize("untracked", ["no_grad", "constants"])
def test_backward_on_an_untracked_loss_raises(untracked):
    w = Tensor([1.0, 2.0], requires_grad=untracked == "no_grad", dtype=np.float64)
    with T.no_grad() if untracked == "no_grad" else contextlib.nullcontext():
        loss = T.sum(w * 2.0)
    with pytest.raises(GraphError, match="not tracked"):
        loss.backward()
    assert w.grad is None and loss.grad is None


def test_backward_on_a_scalar_leaf_gives_it_gradient_one():
    x = Tensor(3.0, requires_grad=True, dtype=np.float64)
    x.backward()
    assert x.grad == 1.0


@pytest.mark.parametrize("shape", [(0,), (2,), (1, 3)])
def test_item_needs_one_element(shape):
    with pytest.raises(ShapeError, match="one-element"):
        Tensor(np.ones(shape)).item()


def test_item_of_one_element_of_any_rank():
    assert Tensor(np.full((1, 1, 1), 2.5)).item() == 2.5


def test_backward_linear_grad_is_input():
    x = np.array([1.0, -2.0, 0.5])
    w = Tensor([0.3, 0.7, -1.2], requires_grad=True, dtype=np.float64)
    loss = T.sum(w * Tensor(x, dtype=np.float64))
    loss.backward()
    assert np.allclose(w.grad, x)


def test_backward_accumulates_on_repeat():
    w = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    x = Tensor([3.0, 4.0], dtype=np.float64)
    T.sum(w * x).backward()
    first = w.grad.copy()
    T.sum(w * x).backward()
    assert np.allclose(w.grad, 2.0 * first)


def test_backward_releases_every_intermediate_node():
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True, dtype=np.float64)
    w = Tensor([3.0, 2.0, -1.0], requires_grad=True, dtype=np.float64)
    h = x * w
    r = T.relu(h)
    sq = r * r
    loss = T.sum(sq + h)
    loss.backward()
    for t in (h, r, sq, loss):
        node = t._node
        assert node.grad is None and node._inputs == () and node._grads is None
        assert node._op is not None and t.requires_grad and t.grad is None
    # d/dx sum(relu(xw)^2 + xw) = (2 relu(xw) + 1) w, and the same with x, w swapped
    factor = 2.0 * np.maximum(x.data * w.data, 0.0) + 1.0
    assert np.array_equal(x.grad, factor * w.data)
    assert np.array_equal(w.grad, factor * x.data)


def test_graph_does_not_keep_a_constant_parent():
    x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    const = Tensor(np.full(4, 2.0, dtype=np.float32))
    alive = weakref.ref(const.data)
    y = x + const
    del const
    assert alive() is None
    T.sum(y).backward()
    assert np.array_equal(x.grad, np.ones(4, dtype=np.float32))


# each op on a tracked intermediate ``t``; the parameters are ``k`` (a 3x3
# kernel), ``k1`` (a 1x1 kernel on a channel group), ``gamma`` and ``beta``
GRAPH_LIFETIME_CASES = {
    "add": lambda t, p: t + 0.5,
    "sub": lambda t, p: 0.5 - t,
    "reshape": lambda t, p: T.reshape(t, (2, -1)),
    "split_channels": lambda t, p: T.split_channels(t, [1, 3])[1],
    "split_channels_by_numpy_sizes": lambda t, p: T.split_channels(t, [np.int64(1), np.int64(3)])[1],
    "concat": lambda t, p: T.concat([t, t], axis=1),
    "sum": lambda t, p: T.sum(t, axes=(2, 3)),
    "mean": lambda t, p: T.mean(t, axes=(0, 3)),
    "rfft2d": lambda t, p: fft.rfft2d(t),
    "irfft2d": lambda t, p: fft.irfft2d(t, 7),
    "sep_filter2d": lambda t, p: T.sep_filter2d(t, [0.25, 0.5, 0.25], [-1.0, 0.0, 1.0]),
    "conv2d": lambda t, p: T.conv2d(t, p["k"], padding=1, pad_mode="reflect"),
    "conv1x1_on_a_channel_group": lambda t, p: T.conv2d(T.split_channels(t, [1, 3])[1], p["k1"]),
    "batch_norm2d": lambda t, p: T.batch_norm2d(t, p["gamma"], p["beta"])[0],
    "mul_by_a_constant": lambda t, p: t * 3.0,
    "relu": lambda t, p: T.relu(t),
}


def _lifetime_run(case: str, keep: bool):
    """Build ``case`` on the intermediate ``1.5 * w`` and a weighted sum
    over it; drop every caller reference to the intermediate and the op's
    output unless ``keep``. Returns whether the intermediate's array was
    freed before backward, and the gradients of ``w`` and the parameters."""
    rng = np.random.default_rng(31)
    w = Tensor(rng.standard_normal((2, 4, 6, 4)), requires_grad=True, dtype=np.float64)
    params = {
        "k": Tensor(rng.standard_normal((3, 4, 3, 3)), requires_grad=True, dtype=np.float64),
        "k1": Tensor(rng.standard_normal((2, 3, 1, 1)), requires_grad=True, dtype=np.float64),
        "gamma": Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True, dtype=np.float64),
        "beta": Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64),
    }
    mid = w * 1.5
    alive = weakref.ref(mid.data)
    out = GRAPH_LIFETIME_CASES[case](mid, params)
    loss = T.sum(out * Tensor(rng.standard_normal(out.shape), dtype=np.float64))
    held = (mid, out) if keep else ()
    del mid, out
    freed = alive() is None
    loss.backward()
    del held
    return freed, [w.grad] + [p.grad for p in params.values()]


@pytest.mark.parametrize("case", list(GRAPH_LIFETIME_CASES))
def test_graph_does_not_keep_an_intermediate_input(case):
    freed, grads = _lifetime_run(case, keep=False)
    assert freed, f"the {case} graph keeps its input's array"
    # the same gradients as a run whose caller holds every tensor
    _, want = _lifetime_run(case, keep=True)
    assert grads[0] is not None
    for got, ref in zip(grads, want):
        assert (got is None and ref is None) or np.array_equal(got, ref)


def test_second_backward_on_a_released_graph_raises():
    w = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    loss = T.sum(w * 3.0)
    loss.backward()
    with pytest.raises(GraphError, match="'sum' node"):
        loss.backward()
    assert np.array_equal(w.grad, [3.0, 3.0])


def test_new_graph_through_a_released_node_raises_before_any_gradient():
    w = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    v = Tensor([4.0, 5.0], requires_grad=True, dtype=np.float64)
    h = w * 3.0
    T.sum(h).backward()
    loss = T.sum(h * v)
    with pytest.raises(GraphError, match="'mul' node"):
        loss.backward()
    assert np.array_equal(w.grad, [3.0, 3.0])
    assert v.grad is None and loss.grad is None


def test_grad_fn_not_called_for_parent_without_grad():
    a = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    b = Tensor([3.0, 4.0], dtype=np.float64)

    def never(g):
        raise AssertionError("gradient function of a parent without grad was called")

    out = Tensor._from_op(a.data * b.data, (a, b), (lambda g: g * b.data, never), "test_mul")
    T.sum(out).backward()
    assert np.array_equal(a.grad, [3.0, 4.0])
    assert b.grad is None


def test_broadcast_grad_is_summed_to_parent_shape():
    row = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
    col = Tensor([[1.0], [10.0]], requires_grad=True, dtype=np.float64)
    # both gradient functions return the (2, 3) output gradient unreduced
    out = Tensor._from_op(row.data + col.data, (row, col), (lambda g: g, lambda g: g * 2.0), "test_add")
    T.sum(out).backward()
    assert row.grad.shape == (3,) and np.array_equal(row.grad, [2.0, 2.0, 2.0])
    assert col.grad.shape == (2, 1) and np.array_equal(col.grad, [[6.0], [6.0]])


def test_multi_use_sums_contributions():
    x = Tensor([5.0], requires_grad=True, dtype=np.float64)
    y = x + x
    T.sum(y).backward()
    assert np.allclose(x.grad, [2.0])


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad


def test_detach_cuts_graph():
    x = Tensor([1.0], requires_grad=True, dtype=np.float64)
    y = (x * 2.0).detach() * 3.0
    assert not y.requires_grad


@pytest.mark.parametrize("seed", range(20))
def test_elementwise_grads_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 2.0, size=(3, 4))
    b = rng.uniform(0.2, 2.0, size=(3, 4))

    def fn(ts):
        x, y = ts
        out = T.mul(T.add(x, y), T.sub(x, 0.5 * y))
        out = T.div(out, y + 3.0)
        out = T.sqrt(T.relu(out) + 1.0)
        out = T.log(out + 0.5) + T.sigmoid(x) + T.tanh(y)
        out = out + x * x + T.absolute(x - 1.1) + T.clamp(y, 0.3, 1.8)
        return T.mean(out)

    check_gradients(fn, [a, b], rng=rng)


@pytest.mark.parametrize("seed", range(20))
def test_reduction_grads_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.permutation(np.linspace(0.0, 4.0, 24)).reshape(2, 3, 4)

    def fn(ts):
        (t,) = ts
        out = T.sum(T.mean(t, axes=(1,)))
        out = out + T.mean(T.sum(t, axes=(0, 2)))
        return out

    check_gradients(fn, [x], rng=rng)


@pytest.mark.parametrize("seed", range(20))
def test_matmul_grads_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def fn(ts):
        y = T.matmul(ts[0], ts[1])
        return T.mean(y * y)

    check_gradients(fn, [a, b], rng=rng)


@pytest.mark.parametrize("seed", range(3))
def test_structure_ops_grads(seed):
    rng = np.random.default_rng(300 + seed)
    x = rng.standard_normal((2, 6, 3, 3))

    def fn(ts):
        (t,) = ts
        a, b, c = T.split_channels(t, [2, 3, 1])
        re = T.reshape(b, (2, 9, 3))
        y = T.concat([a, b, c], axis=1)
        return T.mean(y * y) + T.sum(re * 0.25)

    check_gradients(fn, [x], rng=rng)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: T.reshape(x, (5, 7)),
        lambda x: T.reshape(x, (2.0, 54)),
        lambda x: T.concat([]),
        lambda x: T.concat([x, Tensor(np.ones((2, 6, 3, 4)))], axis=1),
        lambda x: T.concat([x, Tensor(np.ones((2, 6, 3)))], axis=0),
        lambda x: T.split_channels(T.reshape(x, (2, 6, 9)), [3, 3]),
        lambda x: T.split_channels(x, [2.5, 3.5]),
        lambda x: T.split_channels(x, [True, 5]),
        lambda x: T.split_channels(x, [-1, 7]),
    ],
    ids=[
        "reshape-size", "reshape-float", "concat-empty", "concat-off-axis", "concat-rank", "split-3d", "split-float",
        "split-bool", "split-negative",
    ],
)
def test_structure_op_misuse_raises_shape_error(build):
    x = Tensor(np.ones((2, 6, 3, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        build(x)


def _ones(*shape):
    return Tensor(np.ones(shape))


def _bn(x, gamma):
    return T.batch_norm2d(x, gamma, _ones(3))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: T.matmul(_ones(2, 3, 1), _ones(3, 2)), "matmul supports 2-D operands only"),
        (lambda: T.matmul(_ones(2, 3), _ones(4, 2)), "matmul: inner dims 3 vs 4"),
        (lambda: T.conv2d(_ones(2, 4, 4), _ones(1, 2, 3, 3)), "conv2d expects NCHW input and OIHW kernel"),
        (lambda: T.conv2d(_ones(1, 2, 4, 4), _ones(2, 3, 3)), "conv2d expects NCHW input and OIHW kernel"),
        (lambda: T.sep_filter2d(_ones(4, 4), [1.0], [1.0]), "sep_filter2d expects NCHW input"),
        (lambda: _bn(_ones(3, 4, 4), _ones(3)), "batch_norm2d expects NCHW input"),
        (lambda: _bn(_ones(1, 3, 4, 4), _ones(2)), r"gamma/beta must have shape \(3,\)"),
        (
            lambda: T.conv2d(_ones(1, 1, 2, 5), _ones(1, 1, 3, 3), padding=2, pad_mode="reflect"),
            r"reflect pad 2 too large for spatial dims \(2, 5\)",
        ),
    ],
    ids=[
        "matmul-rank", "matmul-inner", "conv2d-input", "conv2d-kernel", "sep_filter2d", "bn-input", "bn-gamma",
        "reflect-pad",
    ],
)
def test_op_shape_errors_name_the_problem(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_two_layer_chain_rule():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    w1 = rng.standard_normal((3, 5))
    w2 = rng.standard_normal((5, 1))

    def fn(ts):
        xi, a, b = ts
        return T.mean(T.matmul(T.relu(T.matmul(xi, a) + 0.3), b))

    check_gradients(fn, [x, w1, w2])


class TestConv2d:
    def test_sum_of_ones_center(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, padding=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == pytest.approx(9.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(k), padding=1)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_output_size_stride(self):
        x = Tensor(np.ones((1, 1, 7, 9)))
        k = Tensor(np.ones((2, 1, 3, 3)))
        out = T.conv2d(x, k, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 5)

    def test_forward_against_naive_loops(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 6, 7))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2, padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        oh, ow = out.shape[2], out.shape[3]
        ref = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                        ref[n, o, i, j] = (patch * k[o]).sum() + b[o]
        assert np.allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        stride = 1 + seed % 2
        pad_mode = "zero" if seed % 3 else "reflect"
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)

        def fn(ts):
            y = T.conv2d(ts[0], ts[1], ts[2], stride=stride, padding=1, pad_mode=pad_mode)
            return T.mean(y * y)

        check_gradients(fn, [x, k, b], rng=rng)

    @pytest.mark.parametrize(
        "ksize, kwargs, argument",
        [
            (3, dict(stride=0, padding=1), "stride"),
            (1, dict(stride=-2), "stride"),
            (3, dict(padding=-1), "padding"),
            (1, dict(padding=-1), "padding"),
            (3, dict(padding=1, pad_mode="wrap"), "pad_mode"),
            (3, dict(padding=0, pad_mode="wrap"), "pad_mode"),
            (1, dict(padding=0, pad_mode="wrap"), "pad_mode"),
            (3, dict(stride=1.5, padding=1), "stride"),
            (1, dict(stride=True), "stride"),
            (3, dict(padding=1.5), "padding"),
            (3, dict(padding=True), "padding"),
            (3, dict(stride=np.int64(0), padding=1), "stride"),
            (3, dict(padding=np.int64(-1)), "padding"),
        ],
        ids=[
            "stride0", "stride-2-1x1", "padding-1", "padding-1-1x1", "wrap-pad1", "wrap-pad0", "wrap-pad0-1x1",
            "stride1.5", "stride-bool-1x1", "padding1.5", "padding-bool", "stride-numpy0", "padding-numpy-1",
        ],
    )
    def test_bad_arguments_raise_domain_error(self, ksize, kwargs, argument):
        x = Tensor(np.ones((1, 2, 6, 6), dtype=np.float32))
        k = Tensor(np.ones((3, 2, ksize, ksize), dtype=np.float32))
        with pytest.raises(DomainError, match=argument):
            T.conv2d(x, k, **kwargs)

    @pytest.mark.parametrize("size, ksize, padding", [(2, 3, 0), (2, 5, 0), (2, 7, 2), (0, 1, 0)])
    def test_kernel_larger_than_padded_input_raises_shape_error(self, size, ksize, padding):
        x = Tensor(np.ones((1, 2, size, size + 3), dtype=np.float32))
        k = Tensor(np.ones((3, 2, ksize, ksize), dtype=np.float32))
        for requires_grad in (False, True):
            k.requires_grad = requires_grad
            with pytest.raises(ShapeError, match="does not fit"):
                T.conv2d(x, k, padding=padding)

    @pytest.mark.parametrize("kshape", [(1, 1, 0, 0), (3, 2, 0, 3), (3, 2, 3, 0), (0, 2, 3, 3), (3, 0, 3, 3)])
    def test_zero_extent_kernel_raises_shape_error(self, kshape):
        x = Tensor(np.ones((1, kshape[1], 6, 6), dtype=np.float32))
        k = Tensor(np.ones(kshape, dtype=np.float32))
        with pytest.raises(ShapeError, match="zero extent"):
            T.conv2d(x, k, padding=1)


class TestUntrackedConv2d:
    """Tracked and untracked calls run in the same row bands, bit-equal to one
    full-column GEMM; only the kernel gradient builds the full columns."""

    @pytest.mark.parametrize(
        "xshape, kshape, stride, padding, pad_mode, bias, dtype, band_rows",
        [
            # band_rows None: the module's own budget splits this frame
            ((1, 13, 97, 130), (26, 13, 3, 3), 1, 1, "reflect", True, np.float32, None),
            ((2, 3, 50, 61), (5, 3, 3, 3), 2, 1, "zero", False, np.float32, 3),
            ((1, 4, 60, 70), (6, 4, 5, 5), 1, 2, "reflect", True, np.float32, 7),
            ((2, 5, 90, 77), (7, 5, 3, 3), 1, 1, "zero", True, np.float64, 7),
            ((2, 3, 50, 61), (5, 3, 3, 3), np.int64(2), np.int64(1), "zero", True, np.float32, 3),
        ],
        ids=["13to26-reflect-bias", "stride2-zero", "5x5-pad2", "float64", "numpy-int-stride-padding"],
    )
    def test_many_bands_match_the_tracked_path(
        self, monkeypatch, xshape, kshape, stride, padding, pad_mode, bias, dtype, band_rows
    ):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(xshape).astype(dtype)
        k = rng.standard_normal(kshape).astype(dtype)
        b = rng.standard_normal(kshape[0]).astype(dtype) if bias else None
        cout, cin, kh, kw = kshape
        oh = (xshape[2] + 2 * padding - kh) // stride + 1
        ow = (xshape[3] + 2 * padding - kw) // stride + 1
        if band_rows is not None:  # a budget of band_rows and a half rows of columns
            row_bytes = kh * kw * cin * ow * np.dtype(dtype).itemsize
            monkeypatch.setattr(T, "_BAND_BYTES", row_bytes * band_rows + row_bytes // 2)

        def conv():
            args = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, k, b) if a is not None]
            return T.conv2d(*args, stride=stride, padding=padding, pad_mode=pad_mode).data

        bands = []
        fill = T._fill_cols

        def spy(xtp, stride_, r0, r1, dst):
            bands.append((xtp.shape[1], r0, r1))
            fill(xtp, stride_, r0, r1, dst)

        monkeypatch.setattr(T, "_fill_cols", spy)
        with T.no_grad():
            untracked = conv()
        assert untracked.dtype == dtype and untracked.flags.c_contiguous
        # threads fill the bands in no fixed order, so the lists are compared sorted
        bands.sort()
        per_image = len(bands) // xshape[0]
        assert len(bands) == per_image * xshape[0] and per_image >= 3
        image_bands = bands[:: xshape[0]]
        assert bands == sorted(image_bands * xshape[0])
        rows = [r1 - r0 for _, r0, r1 in image_bands]
        assert all(n == 1 for n, _, _ in bands)
        assert [r0 for _, r0, _ in image_bands] == list(np.cumsum([0] + rows[:-1]))
        assert sum(rows) == oh and 0 < rows[-1] < rows[0]

        untracked_bands = list(bands)
        bands.clear()
        tracked = conv()
        assert sorted(bands) == untracked_bands
        assert tracked.shape == (xshape[0], cout, oh, ow)

        # the one-shot GEMM over one full column matrix
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        xtp = np.pad(x.transpose(1, 0, 2, 3), pad, mode={"zero": "constant", "reflect": "reflect"}[pad_mode])
        cols = np.empty((kh, kw, cin, xshape[0], oh, ow), dtype=dtype)
        fill(xtp, stride, 0, oh, cols)
        kmat = np.ascontiguousarray(k.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout))
        ref = (kmat.T @ cols.reshape(kh * kw * cin, -1)).reshape(cout, xshape[0], oh, ow).transpose(1, 0, 2, 3)
        if b is not None:
            ref = ref + b.reshape(1, cout, 1, 1)
        assert np.array_equal(untracked, ref)
        assert np.array_equal(tracked, ref)

    @pytest.mark.parametrize("needs", ["kernel", "input", "both"])
    def test_full_columns_are_built_only_for_the_kernel_gradient(self, monkeypatch, needs):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 20, 17), dtype=np.float32), requires_grad=needs != "kernel")
        k = Tensor(rng.standard_normal((4, 3, 3, 3), dtype=np.float32), requires_grad=needs != "input")
        row_bytes = 3 * 3 * 3 * 17 * 4  # one output row of float32 columns
        monkeypatch.setattr(T, "_BAND_BYTES", 4 * row_bytes)  # five bands an image
        bands = []
        fill = T._fill_cols

        def spy(xtp, stride, r0, r1, dst):
            bands.append((xtp.shape[1], r0, r1))
            fill(xtp, stride, r0, r1, dst)

        monkeypatch.setattr(T, "_fill_cols", spy)
        out = T.conv2d(x, k, padding=1, pad_mode="reflect")
        assert len(bands) == 2 * 5 and all(n == 1 for n, _, _ in bands)
        bands.clear()
        T.sum(out).backward()
        assert bands == ([] if needs == "input" else [(2, 0, 20)])

    def test_tracked_graph_keeps_no_columns(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((8, 13, 48, 48), dtype=np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((26, 13, 3, 3), dtype=np.float32))
        tracemalloc.start()
        try:
            out = T.conv2d(x, k, padding=1, pad_mode="reflect")
            after_forward = tracemalloc.get_traced_memory()[0]
            loss = T.sum(out)
            loss.backward()
            after_backward = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.requires_grad and x.grad.shape == x.shape
        # the output is 1.83 MiB and the padded input 0.99 MiB; one full
        # column matrix would add 8.23 MiB
        assert after_forward < 4 * 2**20
        # with the kernel frozen, nothing will read the output gradient's matrix
        assert after_backward < 6.5 * 2**20

    def test_frozen_kernel_graph_keeps_no_padded_input(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((8, 13, 48, 48), dtype=np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((26, 13, 3, 3), dtype=np.float32))
        tracemalloc.start()
        try:
            out = T.conv2d(x, k, padding=1, pad_mode="reflect")
            after_forward = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # the output is 1.83 MiB; only the kernel gradient reads the 0.99 MiB padded input
        assert after_forward < 2.2 * 2**20

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 13, 324, 576), dtype=np.float32))
        k = Tensor(rng.standard_normal((26, 13, 3, 3), dtype=np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.conv2d(x, k, padding=1, pad_mode="reflect")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 26, 324, 576)
        # the output alone is 18.5 MiB; a full column matrix would add 83.6 MiB
        assert peak < 40 * 2**20


def by_thread_count(monkeypatch, run, module=T):
    """``run()`` with the kernels split over 1, 2 and 3 threads (3 cuts
    uneven parts): each result, and the part count of each split call."""
    parts = []
    run_parts = module._run_parts

    def spy(ps):
        parts.append(len(ps))
        run_parts(ps)

    monkeypatch.setattr(module, "_run_parts", spy)
    out = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(T, "_THREADS", threads)
        parts.clear()
        out[threads] = (run(), list(parts))
    return out


class TestSplitAcrossThreads:
    """Kernels split across threads give the bits of a one-thread run, and
    only a kernel that splits starts a worker thread."""

    def test_conv2d_bands(self, monkeypatch):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((3, 16, 61, 47)), dtype=np.float64)
        k = Tensor(rng.standard_normal((12, 16, 5, 5)), requires_grad=True, dtype=np.float64)
        row_bytes = 5 * 5 * 16 * 24 * 8  # one output row of float64 columns
        monkeypatch.setattr(T, "_BAND_BYTES", 3 * row_bytes + row_bytes // 2)  # 11 bands an image
        runs = by_thread_count(monkeypatch, lambda: T.conv2d(x, k, stride=2, padding=2).data)
        ref = runs[1][0]
        assert ref.shape == (3, 12, 31, 24) and ref.dtype == np.float64
        for threads, (out, parts) in runs.items():
            assert parts == [threads]
            assert np.array_equal(out, ref)

    def test_concurrent_callers_share_the_workers(self, monkeypatch):
        # more calling threads than CPUs, switching often, each splitting
        # its convs across the same workers
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((2, 8, 121, 95), dtype=np.float32))
        k = Tensor(rng.standard_normal((8, 8, 3, 3), dtype=np.float32))
        monkeypatch.setattr(T, "_BAND_BYTES", 1 << 16)  # 10 bands an image
        monkeypatch.setattr(T, "_THREADS", 1)
        ref = T.conv2d(x, k, padding=1).data
        monkeypatch.setattr(T, "_THREADS", 3)
        bad = []

        def call():
            for _ in range(10):
                if not np.array_equal(T.conv2d(x, k, padding=1).data, ref):
                    bad.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call) for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert bad == []

    def test_conv1x1_pixel_columns(self, monkeypatch):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((4, 26, 64, 64), dtype=np.float32))
        k = Tensor(rng.standard_normal((26, 26, 1, 1), dtype=np.float32))
        b = Tensor(rng.standard_normal(26, dtype=np.float32))
        runs = by_thread_count(monkeypatch, lambda: T.conv2d(x, k, b).data)
        ref = runs[1][0]
        want = (k.data[:, :, 0, 0] @ x.data.reshape(4, 26, -1)).reshape(4, 26, 64, 64) + b.data[:, None, None]
        assert np.array_equal(ref, want)
        for threads, (out, parts) in runs.items():
            assert parts == [threads]
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize(
        "xshape, kshape, stride, padding, pad_mode, dtype, needs",
        [
            ((8, 13, 48, 48), (26, 13, 3, 3), 1, 1, "reflect", np.float32, "both"),
            ((8, 16, 24, 24), (32, 16, 3, 3), 2, 1, "zero", np.float32, "both"),
            ((8, 32, 12, 12), (64, 32, 3, 3), 2, 1, "zero", np.float32, "both"),
            ((8, 13, 48, 48), (13, 13, 1, 1), 1, 0, "zero", np.float32, "both"),
            ((4, 13, 30, 36), (26, 13, 3, 3), 1, 1, "reflect", np.float64, "both"),
            ((8, 13, 48, 48), (26, 13, 3, 3), 1, 1, "reflect", np.float32, "input"),
            ((8, 13, 48, 48), (26, 13, 3, 3), 1, 1, "reflect", np.float32, "kernel"),
            ((8, 13, 48, 48), (13, 13, 1, 1), 1, 0, "zero", np.float32, "kernel"),
        ],
        ids=["13to26-reflect", "disc-24px", "disc-12px", "1x1", "float64", "frozen-kernel", "frozen-input", "1x1-frozen-input"],
    )
    def test_conv2d_backward(self, monkeypatch, xshape, kshape, stride, padding, pad_mode, dtype, needs):
        # the size rule keeps the discriminator's convs and the 1x1 whole;
        # with it lowered, every shape a training step uses splits
        monkeypatch.setattr(T, "_SPLIT_WORK", 0)
        rng = np.random.default_rng(25)
        xd, kd = rng.standard_normal(xshape).astype(dtype), rng.standard_normal(kshape).astype(dtype)
        oh, ow = ((side + 2 * padding - kshape[2]) // stride + 1 for side in xshape[2:])
        gd = rng.standard_normal((xshape[0], kshape[0], oh, ow)).astype(dtype)

        def run():
            x = Tensor(xd, requires_grad=needs != "kernel", dtype=dtype)
            k = Tensor(kd, requires_grad=needs != "input", dtype=dtype)
            out = T.conv2d(x, k, stride=stride, padding=padding, pad_mode=pad_mode)
            T.sum(out * Tensor(gd)).backward()  # out's gradient is gd
            return x.grad, k.grad

        runs = by_thread_count(monkeypatch, run)
        ref = runs[1][0]
        assert [g is None for g in ref] == [needs == "kernel", needs == "input"]
        for threads, (grads, parts) in runs.items():
            # the forward, then each gradient that is asked for
            assert parts == [threads] * (3 if needs == "both" else 2)
            for got, want in zip(grads, ref):
                assert got is None and want is None or got.dtype == dtype and np.array_equal(got, want)

    def test_small_calls_stay_on_the_calling_thread(self, monkeypatch):
        # each does under _SPLIT_WORK multiply-adds a pass, and ran slower
        # split: a 3x3, a training step's 1x1 and its stride-2 convs, the
        # discriminator's first on the RGB batch
        rng = np.random.default_rng(23)
        for xshape, kshape, stride, padding in [
            ((8, 4, 12, 12), (4, 4, 3, 3), 1, 1),
            ((8, 13, 48, 48), (13, 13, 1, 1), 1, 0),
            ((8, 3, 48, 48), (16, 3, 3, 3), 2, 1),
            ((8, 16, 24, 24), (32, 16, 3, 3), 2, 1),
        ]:
            x = Tensor(rng.standard_normal(xshape, dtype=np.float32), requires_grad=True)
            k = Tensor(rng.standard_normal(kshape, dtype=np.float32), requires_grad=True)
            runs = by_thread_count(monkeypatch, lambda: T.sum(T.conv2d(x, k, stride=stride, padding=padding)).backward())
            # the forward and both gradients
            assert all(parts == [1, 1, 1] for _, parts in runs.values())

    def test_an_exception_in_a_worker_part_reaches_the_caller(self, monkeypatch):
        class PartFailed(Exception):
            pass

        def fail():
            raise PartFailed("third part")

        monkeypatch.setattr(T, "_THREADS", 3)
        ran = []
        with pytest.raises(PartFailed, match="third part"):
            T._run_parts([lambda: ran.append(0), lambda: ran.append(1), fail])
        assert sorted(ran) == [0, 1]
        # the workers outlive the failure
        out = np.zeros(6)
        T._run_parts([functools.partial(out.__setitem__, slice(i, i + 2), i) for i in (0, 2, 4)])
        assert np.array_equal(out, [0, 0, 2, 2, 4, 4])

    def test_import_and_ingest_start_no_thread(self):
        script = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import numpy as np\n"
            "import fftsr\n"
            "from fftsr.image import Image, decode_image, encode_image, make_lr_hr_pair\n"
            "rgb = np.random.default_rng(0).random((61, 109, 3), dtype=np.float32)\n"
            "lr, hr = make_lr_hr_pair(decode_image(encode_image(Image(rgb))), 3)\n"
            "decode_image(encode_image(lr))\n"
            "print(before, threading.active_count())\n"
        )
        src = str(Path(fftsr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_a_kernel_on_workers_of_its_own(monkeypatch):
    # the child has none of the parent's worker threads; unless the fork
    # hook forgets them, its first split kernel waits on them for ever
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal((2, 8, 31, 23), dtype=np.float32))
    k = Tensor(rng.standard_normal((8, 8, 3, 3), dtype=np.float32))
    monkeypatch.setattr(T, "_SPLIT_WORK", 0)
    monkeypatch.setattr(T, "_THREADS", 3)
    ref = hashlib.sha256(T.conv2d(x, k, padding=1).data.tobytes()).digest()
    assert any(worker.is_alive() for worker in T._workers)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.write(write_end, hashlib.sha256(T.conv2d(x, k, padding=1).data.tobytes()).digest())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 30.0)
        got = os.read(read_end, 64) if ready else None
    finally:
        os.close(read_end)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    assert got is not None, "the forked child's split conv2d did not finish within 30 s"
    assert os.waitstatus_to_exitcode(status) == 0 and got == ref


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 2.0, dtype=np.float64)
        gamma = Tensor(np.ones(3), dtype=np.float64)
        beta = Tensor(np.zeros(3), dtype=np.float64)
        out, _, _ = T.batch_norm2d(x, gamma, beta)
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.data.var(axis=(0, 2, 3)) - 1.0).max() < 1e-5

    def test_eval_identity_with_unit_stats(self, monkeypatch):
        monkeypatch.setattr(T, "BN_EPS", 0.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 4))
        bn = to_float64(BatchNorm2d(3))
        scale, shift = bn.affine()
        out = x * scale.reshape(1, 3, 1, 1) + shift.reshape(1, 3, 1, 1)
        assert np.array_equal(out, x)

    def test_running_stats_update(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((8, 2, 6, 6)) + 5.0, dtype=np.float64)
        gamma = Tensor(np.ones(2), dtype=np.float64)
        beta = Tensor(np.zeros(2), dtype=np.float64)
        _, mean, var = T.batch_norm2d(x, gamma, beta)
        mu = x.data.mean(axis=(0, 2, 3))
        assert np.array_equal(mean, mu) and np.allclose(var, x.data.var(axis=(0, 2, 3)))
        bn = to_float64(BatchNorm2d(2))
        bn(x)
        assert np.allclose(bn.running_mean, 0.1 * mu)
        assert np.allclose(bn.running_var, 0.9 + 0.1 * var)

    def test_zero_variance_channel_is_finite(self):
        x = Tensor(np.full((2, 1, 3, 3), 0.7))
        gamma = Tensor(np.ones(1))
        beta = Tensor(np.zeros(1))
        out, _, _ = T.batch_norm2d(x, gamma, beta)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.standard_normal((2, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, 2)
        beta = rng.standard_normal(2)

        def fn(ts):
            out, _, _ = T.batch_norm2d(ts[0], ts[1], ts[2])
            return T.mean(out * out * 0.5 + out)

        check_gradients(fn, [x, gamma, beta], rng=rng)

    @pytest.mark.parametrize("shape", [(8, 13, 12, 12), (3, 5, 7, 9)])
    def test_float32_bits_equal_the_op_by_op_formulas(self, shape):
        rng = np.random.default_rng(7)
        c = shape[1]
        x = Tensor(rng.standard_normal(shape).astype(np.float32) * 2 + 1, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.standard_normal(c).astype(np.float32), requires_grad=True)
        out, _, _ = T.batch_norm2d(x, gamma, beta)
        g = rng.standard_normal(shape).astype(np.float32)
        T.sum(out * Tensor(g)).backward()
        # the formulas, one full-size array per operation
        xc = x.data - x.data.mean(axis=(0, 2, 3), keepdims=True)
        m = x.data.size // c
        inv = 1.0 / np.sqrt((np.einsum("nchw,nchw->c", xc, xc) / m).reshape(1, c, 1, 1) + 1e-5)
        gview, xhat = gamma.data.reshape(1, c, 1, 1), xc * inv
        assert np.array_equal(out.data, xc * (gview * inv) + beta.data.reshape(1, c, 1, 1))
        dxhat = g * gview
        s1, s2 = dxhat.sum(axis=(0, 2, 3), keepdims=True), (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        assert np.array_equal(x.grad, inv * (dxhat - s1 / m - xhat * s2 / m))
        assert np.array_equal(gamma.grad, np.einsum("nchw,nchw->c", g, xhat))


class TestSepFilter2d:
    @staticmethod
    def direct(x, taps_h, taps_w):
        """Per-channel 2-D correlation with kernel outer(taps_h, taps_w)
        over a reflect-padded copy, summed tap by tap."""
        ph, pw = len(taps_h) // 2, len(taps_w) // 2
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="reflect")
        h, w = x.shape[2:]
        out = np.zeros_like(x)
        for i, th in enumerate(taps_h):
            for j, tw in enumerate(taps_w):
                out += th * tw * padded[:, :, i : i + h, j : j + w]
        return out

    @pytest.mark.parametrize("taps", [5, 3])
    @pytest.mark.parametrize("hw", [(6, 6), (7, 11), (3, 9)])
    def test_matches_direct_reflect_correlation(self, taps, hw):
        rng = np.random.default_rng(taps * 100 + hw[1])
        x = rng.standard_normal((2, 3, *hw))
        taps_h, taps_w = rng.standard_normal(taps), rng.standard_normal(taps)
        got = T.sep_filter2d(Tensor(x, dtype=np.float64), taps_h, taps_w).data
        assert np.abs(got - self.direct(x, taps_h, taps_w)).max() < 1e-12

    @pytest.mark.parametrize(
        "taps", [[], [0.5, 0.5], [[1.0, 2.0, 1.0]], [[1.0], [2.0], [1.0]]], ids=["empty", "even", "row", "column"]
    )
    @pytest.mark.parametrize("axis", ["h", "w"])
    def test_taps_that_are_not_1d_and_odd_raise_before_any_compute(self, taps, axis, monkeypatch):
        def never(*args):
            raise AssertionError("a filter matrix was built for taps that are not 1-D and odd")

        monkeypatch.setattr(T, "_filter_matrix", never)
        good = [1.0, 2.0, 1.0]
        with pytest.raises(ShapeError, match=f"taps_{axis} must be 1-D with an odd number of taps"):
            T.sep_filter2d(Tensor(np.ones((1, 1, 8, 8))), *((taps, good) if axis == "h" else (good, taps)))

    def test_taps_wider_than_the_reflection_raise(self):
        with pytest.raises(ShapeError):
            T.sep_filter2d(Tensor(np.zeros((1, 1, 2, 8))), np.ones(5), np.ones(5))

    @pytest.mark.parametrize("seed", range(6))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = rng.standard_normal((2, 2, 5, 7))
        taps_h, taps_w = rng.standard_normal(5), rng.standard_normal(3)
        weight = rng.standard_normal(x.shape)

        def fn(ts):
            return T.mean(T.sep_filter2d(ts[0], taps_h, taps_w) * Tensor(weight, dtype=np.float64))

        check_gradients(fn, [x], rng=rng)


def test_forward_determinism():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    a = T.conv2d(Tensor(x), Tensor(k), padding=1).data
    b = T.conv2d(Tensor(x), Tensor(k), padding=1).data
    assert np.array_equal(a, b)
