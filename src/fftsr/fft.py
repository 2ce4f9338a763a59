"""Differentiable 2-D real Fourier transforms for the spectral branch of
the Fourier-convolution nets.

``rfft2d``/``irfft2d`` are NCHW tensor ops. They evaluate the DFT through
cached cosine/sine matrix products (one GEMM per image axis), which at
convolution-sized inputs is faster in numpy than a strided butterfly
loop and works for every crop size without padding. Convention:
unnormalized forward ``X_k = sum_n x_n exp(-2*pi*i*n*k/N)``, inverse
scaled by 1/N. The half spectrum is stored with real and imaginary
planes stacked as two channel groups. The backward passes apply the
exact adjoint (transposed matrices in reverse order).
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


# ---- cached DFT matrices for the 2-D real transforms ----


# a frame size takes four entries (rfwd and rinv of W, cfwd and cinv of H);
# 32 hold eight frame sizes, and an evicted one is only rebuilt
@functools.lru_cache(maxsize=32)
def _mats(kind: str, n: int, dtype) -> tuple:
    t = np.arange(n, dtype=np.float64)
    if kind == "rfwd":  # real -> half spectrum
        k = np.arange(half_width(n), dtype=np.float64)
        ang = 2.0 * np.pi * np.outer(t, k) / n
        pair = (np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype))
    elif kind == "cfwd":  # complex -> complex forward
        ang = 2.0 * np.pi * np.outer(t, t) / n
        pair = (np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype))
    elif kind == "cinv":  # complex -> complex inverse (1/n)
        ang = 2.0 * np.pi * np.outer(t, t) / n
        pair = ((np.cos(ang) / n).astype(dtype), (np.sin(ang) / n).astype(dtype))
    elif kind == "rinv":  # half spectrum -> real, with hermitian column weights
        nh = half_width(n)
        l = np.arange(nh, dtype=np.float64)
        ang = 2.0 * np.pi * np.outer(l, t) / n
        weight = np.full((nh, 1), 2.0)
        weight[0, 0] = 1.0
        if n % 2 == 0:
            weight[-1, 0] = 1.0
        pair = (
            (weight * np.cos(ang) / n).astype(dtype),
            (weight * np.sin(ang) / n).astype(dtype),
        )
    else:  # pragma: no cover
        raise ValueError(kind)
    for mat in pair:
        mat.setflags(write=False)
    return pair


def _mm_h(arr: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Matrix product along axis -2 of an (..., H, W) array."""
    return np.swapaxes(np.swapaxes(arr, -1, -2) @ mat, -1, -2)


def _cmul_h(re, im, c, s):
    """Complex matrix product along the H axis: (re + i im) @ (c + i s)."""
    return _mm_h(re, c) - _mm_h(im, s), _mm_h(re, s) + _mm_h(im, c)


def rfft2d_array(x: np.ndarray) -> np.ndarray:
    """Forward real 2-D DFT of (N, C, H, W); returns (N, 2C, H, W//2+1)."""
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError("rfft2d needs spatial dims >= 2")
    cw, sw = _mats("rfwd", w, x.dtype)
    rre = x @ cw
    rim = x @ sw
    ch, sh = _mats("cfwd", h, x.dtype)
    yre, yim = _cmul_h(rre, rim, ch, sh)
    return np.concatenate([yre, yim], axis=1)


def rfft2d_adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of :func:`rfft2d_array` for backward passes."""
    c2 = g.shape[1]
    gre, gim = g[:, : c2 // 2], g[:, c2 // 2 :]
    h = g.shape[2]
    ch, sh = _mats("cfwd", h, g.dtype)
    rre = _mm_h(gre, ch.T) + _mm_h(gim, sh.T)
    rim = -_mm_h(gre, sh.T) + _mm_h(gim, ch.T)
    cw, sw = _mats("rfwd", w, g.dtype)
    return rre @ cw.T + rim @ sw.T


def irfft2d_array(s: np.ndarray, out_w: int) -> np.ndarray:
    """Inverse of the stored half spectrum: (N, 2C, H, Wh) -> (N, C, H, out_w)."""
    c2 = s.shape[1]
    if c2 % 2 != 0:
        raise ShapeError("spectrum tensor must carry an even channel count (re, im groups)")
    if half_width(out_w) != s.shape[3]:
        raise ShapeError(f"out_w {out_w} inconsistent with stored width {s.shape[3]}")
    sre, sim = s[:, : c2 // 2], s[:, c2 // 2 :]
    h = s.shape[2]
    ch, sh = _mats("cinv", h, s.dtype)
    zre, zim = _cmul_h(sre, sim, ch, sh)
    ci, si = _mats("rinv", out_w, s.dtype)
    return zre @ ci - zim @ si


def irfft2d_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`irfft2d_array` for backward passes."""
    out_w = g.shape[-1]
    ci, si = _mats("rinv", out_w, g.dtype)
    zre = g @ ci.T
    zim = -(g @ si.T)
    h = g.shape[2]
    ch, sh = _mats("cinv", h, g.dtype)
    sre = _mm_h(zre, ch.T) + _mm_h(zim, sh.T)
    sim = -_mm_h(zre, sh.T) + _mm_h(zim, ch.T)
    return np.concatenate([sre, sim], axis=1)


# ---- differentiable tensor ops ----


def rfft2d(x: Tensor) -> Tensor:
    """Differentiable forward real 2-D transform of an NCHW tensor.

    The half spectrum is returned with real planes in the first C output
    channels and imaginary planes in the next C; backward applies the
    adjoint transform to the output gradient.
    """
    w = x.shape[-1]
    return Tensor._from_op(rfft2d_array(x.data), (x,), (lambda g: rfft2d_adjoint(g, w),), "rfft2d")


def irfft2d(s: Tensor, out_w: int) -> Tensor:
    """Differentiable inverse of :func:`rfft2d`; ``out_w`` picks the parity."""
    return Tensor._from_op(irfft2d_array(s.data, out_w), (s,), (lambda g: irfft2d_adjoint(g),), "irfft2d")
