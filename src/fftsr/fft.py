"""Differentiable 2-D real Fourier transforms for the spectral branch of
the Fourier-convolution nets.

``rfft2d``/``irfft2d`` are NCHW tensor ops. They evaluate the DFT through
cached cosine/sine matrix products (one GEMM per image axis), which at
convolution-sized inputs is faster in numpy than a strided butterfly
loop and works for every crop size without padding. The half spectrum
is stored with real and imaginary planes stacked as two channel groups.

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


# a frame size takes two entries (the full pair of H, the half pair of W);
# 32 hold sixteen frame sizes, and an evicted one is only rebuilt
@functools.lru_cache(maxsize=32)
def _dft(n: int, half: bool, dtype) -> tuple:
    """Read-only ``(cos, -sin)`` of ``2 pi t k / n``, ``t, k < n``; ``k <= n // 2`` if ``half``."""
    t = np.arange(n, dtype=np.float64)
    ang = 2.0 * np.pi * np.outer(t, t[: half_width(n)] if half else t) / n
    pair = (np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype))
    for mat in pair:
        mat.setflags(write=False)
    return pair


def _mm_h(arr: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Matrix product along axis -2 of an (..., H, W) array."""
    return np.swapaxes(np.swapaxes(arr, -1, -2) @ mat, -1, -2)


def _forward(x: np.ndarray) -> np.ndarray:
    """``F``: (N, C, H, W) -> (N, 2C, H, W//2+1)."""
    cw, sw = _dft(x.shape[-1], True, x.dtype)
    rre, rim = x @ cw, x @ sw
    ch, sh = _dft(x.shape[-2], False, x.dtype)
    yre = _mm_h(rre, ch) - _mm_h(rim, sh)
    yim = _mm_h(rre, sh) + _mm_h(rim, ch)
    return np.concatenate([yre, yim], axis=1)


def _adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """``F*``: (N, 2C, H, W//2+1) -> (N, C, H, w)."""
    gre, gim = np.split(g, 2, axis=1)
    ch, sh = _dft(g.shape[2], False, g.dtype)
    rre = _mm_h(gre, ch.T) + _mm_h(gim, sh.T)
    rim = -_mm_h(gre, sh.T) + _mm_h(gim, ch.T)
    cw, sw = _dft(w, True, g.dtype)
    return rre @ cw.T + rim @ sw.T


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
