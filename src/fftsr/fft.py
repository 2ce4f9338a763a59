"""Differentiable 2-D real Fourier transforms for the spectral branch of
the Fourier-convolution nets.

``rfft2d``/``irfft2d`` are NCHW tensor ops. They evaluate the DFT through
cached cosine/sine matrix products (GEMMs along each image axis), which at
convolution-sized inputs is faster in numpy than a strided butterfly
loop and works for every crop size without padding. The half spectrum
is stored with real and imaginary planes stacked as two channel groups.

Each side length ``n`` keeps one table pair, ``cos`` and ``-sin`` of
``2 pi t k / n`` for ``k <= n // 2``. Where an axis has all ``n`` outputs
(H in both directions, W in the adjoint) the GEMMs make only rows
``k <= n // 2``: cos is even in k and sin is odd, so row ``n - k`` is row k
with the sine term negated, and the rest is mirrored, at half the work.

One transform is written out: ``F`` (:func:`rfft2d_array`), the
unnormalized ``X_kl = sum x_nm exp(-2 pi i (nk/H + ml/W))`` for
``l <= W // 2``, and its adjoint ``F*`` (:func:`rfft2d_adjoint`), the
transposed matrices in reverse order. The inverse is ``F* D``
(:func:`irfft2d_array`), its adjoint ``D F`` (:func:`irfft2d_adjoint`):
the diagonal ``D`` weighs each stored column by its Hermitian multiplicity
over ``H * W``, 1 at DC and, for even ``W``, at Nyquist, else 2.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

__all__ = ["rfft2d", "irfft2d", "rfft2d_array", "irfft2d_array", "half_width"]


def half_width(w: int) -> int:
    """Stored spectrum width for a real signal of width ``w``."""
    return w // 2 + 1


# a frame size takes one entry per distinct side length; 32 hold sixteen
# frame sizes, and an evicted one is only rebuilt
@functools.lru_cache(maxsize=32)
def _dft(n: int, dtype) -> tuple:
    """Read-only ``(cos, -sin)`` of ``2 pi t k / n`` for ``t < n``, ``k <= n // 2``."""
    t = np.arange(n, dtype=np.float64)
    ang = 2.0 * np.pi * np.outer(t, t[: half_width(n)]) / n
    pair = (np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype))
    for mat in pair:
        mat.setflags(write=False)
    return pair


def _mirror(a: np.ndarray, b: np.ndarray, out: np.ndarray, first, second) -> None:
    """Fill the last axis of ``out`` (length n) from rows ``k <= n // 2`` of
    a cosine product ``a`` and a sine product ``b``.

    cos is even in k and sin is odd, so row ``n - k`` of the full product is
    row k with the sine term negated: row k gets ``first(a, b)`` and row
    ``n - k`` gets ``second(a, b)`` of row k.
    """
    n = out.shape[-1]
    r = (n - 1) // 2
    first(a, b, out=out[..., : a.shape[-1]])
    second(a[..., 1 : r + 1], b[..., 1 : r + 1], out=out[..., n - 1 : n - 1 - r : -1])


def _along_h(z: np.ndarray, inverse: bool) -> np.ndarray:
    """Complex DFT along H of (N, 2C, H, W) stacked (re | im) planes, with
    kernel ``exp(-2 pi i t k / H)``, or ``exp(+...)`` if ``inverse``."""
    c = z.shape[1] // 2
    ch, sh = _dft(z.shape[2], z.dtype)
    # rows k <= H // 2 only, moved to the last axis for the mirror
    p = np.swapaxes(ch.T @ z, -1, -2)
    q = np.swapaxes(sh.T @ z, -1, -2)
    out = np.empty(z.shape, z.dtype)
    rows = np.swapaxes(out, -1, -2)
    # exp(-i...) rows k <= H // 2 are p_re - q_im and p_im + q_re; exp(+i...) swaps the signs
    ops = (np.add, np.subtract) if inverse else (np.subtract, np.add)
    _mirror(p[:, :c], q[:, c:], rows[:, :c], *ops)
    _mirror(p[:, c:], q[:, :c], rows[:, c:], *ops[::-1])
    return out


def _forward(x: np.ndarray) -> np.ndarray:
    """``F``: (N, C, H, W) -> (N, 2C, H, W//2+1)."""
    n, c, h, w = x.shape
    cw, sw = _dft(w, x.dtype)
    z = np.empty((n, 2 * c, h, half_width(w)), x.dtype)
    np.matmul(x, cw, out=z[:, :c])
    np.matmul(x, sw, out=z[:, c:])
    return _along_h(z, inverse=False)


def _adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """``F*``: (N, 2C, H, W//2+1) -> (N, C, H, w)."""
    y = _along_h(g, inverse=True)
    c = y.shape[1] // 2
    cw, sw = _dft(w, g.dtype)
    m = half_width(w)
    # columns t <= w // 2 only
    a = y[:, :c] @ cw[:m].T
    b = y[:, c:] @ sw[:m].T
    out = np.empty(a.shape[:-1] + (w,), g.dtype)
    _mirror(a, b, out, np.add, np.subtract)
    return out


def _weights(h: int, w: int, dtype) -> np.ndarray:
    """Diagonal of ``D``: a column that is its own mirror (2l = 0 mod W) counts once."""
    twice = 2 * np.arange(half_width(w)) % w != 0
    return ((1.0 + twice) / (h * w)).astype(dtype)


# the public names wrap the private bodies, so span tracing times the inverse as irfft2d
def rfft2d_array(x: np.ndarray) -> np.ndarray:
    """Forward real 2-D DFT of (N, C, H, W); returns (N, 2C, H, W//2+1)."""
    _, _, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError("rfft2d needs spatial dims >= 2")
    return _forward(x)


def rfft2d_adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of :func:`rfft2d_array` for backward passes."""
    return _adjoint(g, w)


def irfft2d_array(s: np.ndarray, out_w: int) -> np.ndarray:
    """Inverse of the stored half spectrum: (N, 2C, H, Wh) -> (N, C, H, out_w)."""
    if s.shape[1] % 2 != 0:
        raise ShapeError("spectrum tensor must carry an even channel count (re, im groups)")
    if half_width(out_w) != s.shape[3]:
        raise ShapeError(f"out_w {out_w} inconsistent with stored width {s.shape[3]}")
    return _adjoint(s * _weights(s.shape[2], out_w, s.dtype), out_w)


def irfft2d_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`irfft2d_array` for backward passes."""
    return _forward(g) * _weights(g.shape[2], g.shape[3], g.dtype)


# ---- differentiable tensor ops ----


def rfft2d(x: Tensor) -> Tensor:
    """Differentiable forward real 2-D transform of an NCHW tensor: real
    planes in the first C output channels, imaginary planes in the next C."""
    w = x.shape[-1]
    return Tensor._from_op(rfft2d_array(x.data), (x,), (lambda g: rfft2d_adjoint(g, w),), "rfft2d")


def irfft2d(s: Tensor, out_w: int) -> Tensor:
    """Differentiable inverse of :func:`rfft2d`; ``out_w`` picks the parity."""
    return Tensor._from_op(irfft2d_array(s.data, out_w), (s,), (lambda g: irfft2d_adjoint(g),), "irfft2d")
