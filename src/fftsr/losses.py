"""Training objectives and evaluation metrics.

Generator side: :func:`generator_loss`, the one place that sets the
five terms (adversarial, perceptual, mean-gradient-error, SSIM,
Charbonnier), their order and their signs; SSIM enters negated, so the
objective can fall below 0. Discriminator side: the negated two-term log
loss (both networks minimize). SSIM and PSNR double as the evaluation
metrics.

All loss functions operate on NCHW tensors and are differentiable
through the autodiff engine; evaluation helpers accept plain arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .config import Settings, setting
from .errors import ShapeError
from .nets import Module, strided_convs
from .tensor import Tensor

__all__ = [
    "LossWeights",
    "ssim",
    "ssim_metric",
    "charbonnier",
    "sobel_gradients",
    "mge_loss",
    "adversarial_gen_loss",
    "adversarial_disc_loss",
    "PerceptualExtractor",
    "perceptual_loss",
    "generator_loss",
    "psnr",
]

LOG_CLIP = 1e-7  # discriminator outputs are clamped to [LOG_CLIP, 1 - LOG_CLIP]
CHARBONNIER_EPS = 1e-6  # (1e-3)^2 under the root, the epsilon of Lai et al.'s LapSRN (arXiv 1704.03915)
SOBEL_EPS = 1e-12
# SSIM window size and Gaussian sigma, and c = (k L)^2 with L = 1 for [0, 1] data
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2


@dataclass(frozen=True)
class LossWeights(Settings):
    """Scaling factors of the combined generator objective.

    :func:`generator_loss` applies them, in its order of terms and with
    SSIM's sign. Defaults weight every term equally.
    """

    adversarial: float = setting("loss.adversarial")
    perceptual: float = setting("loss.perceptual")
    mge: float = setting("loss.mge")
    ssim: float = setting("loss.ssim")
    charbonnier: float = setting("loss.charbonnier")


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _check_pair(x: Tensor, y: Tensor, op: str):
    if x.shape != y.shape:
        raise ShapeError(f"{op}: shapes {x.shape} and {y.shape} differ")


def ssim(x: Tensor, y: Tensor) -> Tensor:
    """Mean structural similarity over 11x11 Gaussian windows.

    Local statistics come from Gaussian filtering with reflect borders;
    per-window SSIM is averaged over all positions and channels. Returns
    a scalar in [-1, 1]; use ``-ssim`` as the training loss.
    """
    _check_pair(x, y, "ssim")
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)

    def blur(t: Tensor) -> Tensor:
        n, c, h, w = t.shape
        flat = T.reshape(t, (n * c, 1, h, w))
        return T.reshape(T.sep_filter2d(flat, taps, taps), (n, c, h, w))

    mu_x = blur(x)
    mu_y = blur(y)
    xx = blur(x * x) - mu_x * mu_x
    yy = blur(y * y) - mu_y * mu_y
    xy = blur(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (xx + yy + SSIM_C2)
    return T.mean(num / den)


def ssim_metric(x: np.ndarray, y: np.ndarray) -> float:
    """SSIM of two (H, W), (H, W, C) or NCHW arrays, evaluated off-graph in
    float64; another rank raises :class:`ShapeError`."""
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.ndim not in (2, 3, 4):
        raise ShapeError(f"ssim_metric takes (H, W), (H, W, C) or NCHW arrays, got shape {xs.shape}")
    if xs.ndim == 2:
        xs, ys = xs[None, None], ys[None, None]
    elif xs.ndim == 3:  # HWC image
        xs = xs.transpose(2, 0, 1)[None]
        ys = ys.transpose(2, 0, 1)[None]
    with T.no_grad():
        return float(ssim(Tensor(xs, dtype=np.float64), Tensor(ys, dtype=np.float64)).item())


def charbonnier(x: Tensor, y: Tensor) -> Tensor:
    """Mean of sqrt((x - y)^2 + CHARBONNIER_EPS); smooth at zero error."""
    _check_pair(x, y, "charbonnier")
    d = x - y
    return T.mean(T.sqrt(d * d + CHARBONNIER_EPS))


SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])
SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])


def sobel_gradients(img: Tensor) -> Tensor:
    """Per-pixel gradient magnitude sqrt(Gx^2 + Gy^2 + eps), reflect borders."""
    if img.shape[2] < 3 or img.shape[3] < 3:
        raise ShapeError("sobel needs at least 3x3 spatial extent")
    n, c, h, w = img.shape
    flat = T.reshape(img, (n * c, 1, h, w))
    gx = T.sep_filter2d(flat, SOBEL_SMOOTH, SOBEL_DIFF)
    gy = T.sep_filter2d(flat, SOBEL_DIFF, SOBEL_SMOOTH)
    mag = T.sqrt(gx * gx + gy * gy + SOBEL_EPS)
    return T.reshape(mag, (n, c, h, w))


def mge_loss(x: Tensor, y: Tensor) -> Tensor:
    """Mean squared difference of Sobel gradient magnitudes."""
    _check_pair(x, y, "mge")
    d = sobel_gradients(x) - sobel_gradients(y)
    return T.mean(d * d)


def _clip_unit(d: Tensor) -> Tensor:
    return T.clamp(d, LOG_CLIP, 1.0 - LOG_CLIP)


def adversarial_gen_loss(d_fake: Tensor) -> Tensor:
    """Non-saturating generator objective -E[log D(fake)]."""
    return -T.mean(T.log(_clip_unit(d_fake)))


def adversarial_disc_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """-E[log D(real)] - E[log(1 - D(fake))]; minimized by the critic."""
    real_term = T.mean(T.log(_clip_unit(d_real)))
    fake_term = T.mean(T.log(1.0 - _clip_unit(d_fake)))
    return -(real_term + fake_term)


class PerceptualExtractor(Module):
    """Frozen random-feature network for perceptual distances, a stand-in
    for VGG: no loader for pretrained weights exists.

    Three stride-2 conv stages (widths 8, 16, 32) with fixed seed-derived
    weights. Stage outputs are compared with an L1 distance normalized by
    the reference feature spread, which makes the loss invariant to a
    rescaling of the extractor weights.
    """

    WIDTHS = (8, 16, 32)
    SEED = 0x5EEDFACE

    def __init__(self):
        self.stages = strided_convs(np.random.default_rng(self.SEED), self.WIDTHS)
        for _, p in self.named_parameters():
            p.requires_grad = False

    def features(self, x: Tensor) -> list[Tensor]:
        feats = []
        h = x
        for conv in self.stages:
            h = T.relu(conv(h))
            feats.append(h)
        return feats


def perceptual_loss(x: Tensor, y: Tensor, extractor: PerceptualExtractor) -> Tensor:
    """Mean absolute feature difference over the extractor stages,
    each stage normalized by the standard deviation of the reference
    features (y side)."""
    _check_pair(x, y, "perceptual")
    fx = extractor.features(x)
    fy = extractor.features(y)
    total = None
    for a, b in zip(fx, fy):
        centered = b - T.mean(b)
        std = T.sqrt(T.mean(centered * centered) + 1e-12)
        term = T.mean(T.absolute(a - b)) / (std + 1e-8)
        total = term if total is None else total + term
    return total / float(len(fx))


def generator_loss(
    sr: Tensor,
    hr: Tensor,
    d_fake: Tensor,
    extractor: PerceptualExtractor,
    w: LossWeights,
    adv_scale: float = 1.0,
) -> tuple[Tensor, dict[str, Tensor]]:
    """The generator objective: (total, terms).

    ``terms`` holds the five terms under their record names, in summation
    order; ``total`` is their weighted sum, one left fold with SSIM
    negated and the adversarial weight scaled by ``adv_scale``. ``d_fake``
    is the discriminator's score of the fake batch.
    """
    terms = {
        "g_adv": adversarial_gen_loss(d_fake),
        "g_perc": perceptual_loss(sr, hr, extractor),
        "g_mge": mge_loss(sr, hr),
        "g_ssim": ssim(sr, hr),
        "g_charb": charbonnier(sr, hr),
    }
    weights = (w.adversarial * adv_scale, w.perceptual, w.mge, -w.ssim, w.charbonnier)
    return reduce(operator.add, (k * term for k, term in zip(weights, terms.values()))), terms


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10 log10(1 / MSE) in dB for images in [0, 1]; +inf when they are identical."""
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ShapeError(f"psnr: shapes {xs.shape} and {ys.shape} differ")
    mse = float(np.mean((xs - ys) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
