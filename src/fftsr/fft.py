"""Differentiable 2-D real Fourier transforms for the spectral branch of
the Fourier-convolution nets.

``rfft2d``/``irfft2d`` are NCHW tensor ops over numpy's pocketfft
(``np.fft``), at every size and for every side length, prime ones
included. The half spectrum is stored with real and imaginary
planes stacked as two channel groups, ``(re | im)``.

One transform is defined: ``F`` (:func:`rfft2d_array`), the unnormalized
``X_kl = sum x_nm exp(-2 pi i (nk/H + ml/W))`` for ``l <= W // 2``, and its
adjoint ``F*`` (:func:`rfft2d_adjoint`). The inverse is ``F* D``
(:func:`irfft2d_array`), its adjoint ``D F`` (:func:`irfft2d_adjoint`):
the diagonal ``D`` weighs each stored column by its Hermitian multiplicity
over ``H * W``, 1 at DC and, for even ``W``, at Nyquist, else 2. So
``F*`` is ``irfft2`` of its input divided by ``D``, ``F* D`` is plain
``irfft2`` (which takes the real part of the DC and Nyquist columns), and
``D F`` is ``rfft2`` times ``D``.

Each transform is two 1-D passes: the real one along W, then the complex
one along H, which runs in place (``out=``) on the buffer the first pass
wrote, or, in the inverse, on the complex buffer built from ``(re | im)``.
``np.fft.rfft2``/``irfft2`` make the same passes, but write the H pass
into a fresh spectrum-sized array. In place, the results are
bit-identical and that array is never allocated, paged in and filled,
which is a large share of a transform at frame sizes. ``out=`` needs
numpy 2.0.

Each channel plane is transformed on its own, so a call splits its
planes into contiguous runs, one per CPU the process may use: the calling
thread and the worker threads of ``tensor._run_parts`` each write their
slice of the buffers the caller allocated, spectrum (or complex buffer)
first and output second, as before the split. The results are
bit-identical to a one-thread run. A call stays on the calling thread
when its work figure, output elements x (H + W), is under
``tensor._SPLIT_WORK``, the threshold ``conv2d``'s multiply-adds are
compared with. The split assumes single-threaded BLAS, as ``conv2d``
does, which lists the cost of running both with BLAS threads.

The forward passes use ``norm="forward"`` and the result is scaled while
it is split into ``(re | im)``. With the default norm, numpy 2.x passes
the forward factor as the Python int 1, which selects a float32 loop
several times slower than the one a float factor selects.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import Tensor, _run_parts, _spans

__all__ = ["rfft2d", "irfft2d", "rfft2d_array", "irfft2d_array", "half_width"]


def half_width(w: int) -> int:
    """Stored spectrum width for a real signal of width ``w``."""
    return w // 2 + 1


def _multiplicity(w: int, dtype) -> np.ndarray:
    """Hermitian multiplicity of each stored column: one where the column is
    its own mirror (2l = 0 mod W), else two."""
    return (1 + (2 * np.arange(half_width(w)) % w != 0)).astype(dtype)


def _forward(x: np.ndarray, factor) -> np.ndarray:
    """``rfft2(x) / (H * W) * factor`` as (N, 2C, H, W//2+1) stacked (re | im)."""
    n, c, h, w = x.shape
    s = np.empty((n, c, h, half_width(w)), np.result_type(x.dtype, np.complex64))
    out = np.empty((n, 2 * c, h, half_width(w)), x.dtype)

    def transform(lo, hi):
        part = s[:, lo:hi]
        np.fft.rfft(x[:, lo:hi], axis=-1, norm="forward", out=part)
        np.fft.fft(part, axis=-2, norm="forward", out=part)
        np.multiply(part.real, factor, out=out[:, lo:hi])
        np.multiply(part.imag, factor, out=out[:, c + lo : c + hi])

    _run_parts([functools.partial(transform, lo, hi) for lo, hi in _spans(c, out.size * (h + w))])
    return out


def _inverse(g: np.ndarray, w: int, factor) -> np.ndarray:
    """``irfft2`` of the stacked (re | im) spectrum ``g`` times ``factor``:
    (N, 2C, H, W//2+1) -> (N, C, H, w)."""
    n, c2, h, wh = g.shape
    c = c2 // 2
    z = np.empty((n, c, h, wh), np.result_type(g.dtype, np.complex64))
    out = np.empty((n, c, h, w), g.dtype)

    def transform(lo, hi):
        part = z[:, lo:hi]
        np.multiply(g[:, lo:hi], factor, out=part.real)
        np.multiply(g[:, c + lo : c + hi], factor, out=part.imag)
        np.fft.ifft(part, axis=-2, out=part)
        np.fft.irfft(part, n=w, axis=-1, out=out[:, lo:hi])

    _run_parts([functools.partial(transform, lo, hi) for lo, hi in _spans(c, out.size * (h + w))])
    return out


def _check(a: np.ndarray, name: str, w: int | None = None) -> None:
    """Reject, before any compute, what the transforms do not define: an
    array that is not 4-D or not float, or a side under 2. ``w`` is the
    signal width when it is not the last axis of ``a``."""
    if a.ndim != 4:
        raise ShapeError(f"{name} needs an (N, C, H, W) array, got shape {a.shape}")
    if a.dtype not in (np.float32, np.float64):
        raise DomainError(f"{name} needs float32 or float64 input, got {a.dtype}")
    h, w = a.shape[2], a.shape[3] if w is None else w
    if h < 2 or w < 2:
        raise ShapeError(f"{name} needs spatial dims >= 2, got {h}x{w}")


# the public names wrap the private bodies, so span tracing times the inverse as irfft2d
def rfft2d_array(x: np.ndarray) -> np.ndarray:
    """Forward real 2-D DFT of (N, C, H, W); returns (N, 2C, H, W//2+1)."""
    _check(x, "rfft2d")
    _, _, h, w = x.shape
    return _forward(x, x.dtype.type(h * w))


def rfft2d_adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of :func:`rfft2d_array` for backward passes."""
    h = g.shape[2]
    return _inverse(g, w, h * w / _multiplicity(w, g.dtype))


def irfft2d_array(s: np.ndarray, out_w: int) -> np.ndarray:
    """Inverse of the stored half spectrum: (N, 2C, H, Wh) -> (N, C, H, out_w)."""
    _check(s, "irfft2d", out_w)
    if s.shape[1] % 2 != 0:
        raise ShapeError("spectrum tensor must carry an even channel count (re, im groups)")
    if half_width(out_w) != s.shape[3]:
        raise ShapeError(f"out_w {out_w} inconsistent with stored width {s.shape[3]}")
    return _inverse(s, out_w, s.dtype.type(1))


def irfft2d_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`irfft2d_array` for backward passes."""
    return _forward(g, _multiplicity(g.shape[3], g.dtype))


# ---- differentiable tensor ops ----


def rfft2d(x: Tensor) -> Tensor:
    """Differentiable forward real 2-D transform of an NCHW tensor: real
    planes in the first C output channels, imaginary planes in the next C."""
    w = x.shape[-1]
    return Tensor._from_op(rfft2d_array(x.data), (x,), (lambda g: rfft2d_adjoint(g, w),), "rfft2d")


def irfft2d(s: Tensor, out_w: int) -> Tensor:
    """Differentiable inverse of :func:`rfft2d`; ``out_w`` picks the parity."""
    return Tensor._from_op(irfft2d_array(s.data, out_w), (s,), (lambda g: irfft2d_adjoint(g),), "irfft2d")
