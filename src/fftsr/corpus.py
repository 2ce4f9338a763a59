"""Procedural texture corpus for desk-scale experiments.

Images mix low-frequency gratings, soft checkerboards, Gaussian blobs
and linear ramps with random color mixing. Spatial frequencies stay
below the post-downsample Nyquist limit so a 3x pair retains
recoverable detail, which is what makes the corpus suitable for quick
end-to-end training checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, check_int
from .image import Image

__all__ = ["make_texture_corpus"]


def _grating(rng, size: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    wavelength = rng.uniform(9.0, 28.0)
    angle = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    k = 2.0 * np.pi / wavelength
    field = np.cos(k * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
    if rng.random() < 0.35:
        field = np.sign(field) * np.abs(field) ** 0.5  # sharpened bars
    return field


def _checker(rng, size: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    period = rng.uniform(10.0, 24.0)
    sharp = rng.uniform(2.0, 6.0)
    fx = np.tanh(sharp * np.sin(2.0 * np.pi * xx / period + rng.uniform(0, 6.28)))
    fy = np.tanh(sharp * np.sin(2.0 * np.pi * yy / period + rng.uniform(0, 6.28)))
    return fx * fy


def _blobs(rng, size: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    field = np.zeros((size, size))
    for _ in range(rng.integers(2, 6)):
        cy, cx = rng.uniform(0, size, 2)
        radius = rng.uniform(size / 10, size / 3)
        amp = rng.uniform(-1.0, 1.0)
        field += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2))
    return field


def _ramp(rng, size: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    gx, gy = rng.uniform(-1.0, 1.0, 2)
    field = gx * xx / size + gy * yy / size
    return field - field.mean()


_FIELDS = (_grating, _checker, _blobs, _ramp)


def make_texture_corpus(count: int = 64, size: int = 96, seed: int = 0) -> list[Image]:
    """Deterministic list of ``count`` procedural RGB textures, each
    ``size`` px square. ``count`` and ``seed`` must be integers >= 0 and
    ``size`` an integer >= 1 (a bool is none of them), else
    :class:`ShapeError`."""
    for name, value, low in (("count", count, 0), ("size", size, 1), ("seed", seed, 0)):
        check_int(value, f"make_texture_corpus: {name}", low, ShapeError)
    images = []
    root = np.random.SeedSequence(seed)
    for child in root.spawn(count):
        rng = np.random.default_rng(child)
        luma_field = np.zeros((size, size))
        n_fields = rng.integers(2, 4)
        for _ in range(n_fields):
            maker = _FIELDS[rng.integers(0, len(_FIELDS))]
            luma_field += rng.uniform(0.4, 1.0) * maker(rng, size)
        spread = np.abs(luma_field).max() + 1e-9
        luma_field /= spread
        # random color axis keeps channels correlated but distinct
        base = rng.uniform(0.25, 0.75, size=3)
        axis = rng.uniform(-0.35, 0.35, size=3)
        arr = base[None, None, :] + luma_field[:, :, None] * axis[None, None, :]
        chroma = _blobs(rng, size)
        chroma /= np.abs(chroma).max() + 1e-9
        tint = rng.uniform(-0.12, 0.12, size=3)
        arr = arr + chroma[:, :, None] * tint[None, None, :]
        images.append(Image(np.clip(arr, 0.0, 1.0).astype(np.float32)))
    return images
