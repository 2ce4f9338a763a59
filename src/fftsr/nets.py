"""Fourier-convolution networks: the residual generator and the
residual discriminator, built from FFC blocks.

An FFC block splits its channels into a local group (spatial 3x3
convolutions) and a global group (a spectral transform that convolves
1x1 in the Fourier domain, giving an image-wide receptive field). The
four cross paths (local->local, global->local, local->global,
global->global) are summed pairwise per destination, then batch-normed
and ReLU-activated.

The generator predicts a tanh-bounded residual in [-1, 1] on top of a
bicubic upscale; callers compose ``clamp(bicubic + residual, 0, 1)``.
The discriminator scores residual images with a strided conv stack,
global average pooling, and a sigmoid head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .fft import irfft2d, rfft2d
from .tensor import Tensor

__all__ = [
    "FfcBlockConfig",
    "GeneratorConfig",
    "DiscriminatorConfig",
    "NoiseState",
    "Conv2d",
    "BatchNorm2d",
    "SpectralTransform",
    "FfcBlock",
    "Generator",
    "Discriminator",
    "inject_noise",
    "count_parameters",
]


# ---- configuration ----


@dataclass(frozen=True)
class FfcBlockConfig:
    in_channels: int
    out_channels: int
    global_fraction: float = 0.5
    kernel: int = 3

    def split(self, channels: int) -> tuple[int, int]:
        g = int(round(self.global_fraction * channels))
        return channels - g, g


@dataclass(frozen=True)
class GeneratorConfig:
    blocks: int = 6
    width: int = 26
    global_fraction: float = 0.5
    kernel: int = 3
    noise_sigma: float = 0.05
    zero_tail: bool = False


@dataclass(frozen=True)
class DiscriminatorConfig:
    width: int = 16
    layers: int = 3


@dataclass
class NoiseState:
    """Between-block Gaussian noise: amplitude sigma0 * multiplier."""

    sigma0: float
    multiplier: float = 1.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


def inject_noise(x: Tensor, ns: NoiseState | None, training: bool) -> Tensor:
    """Add N(0, (sigma0*multiplier)^2) noise in training; identity in eval."""
    if not training or ns is None:
        return x
    amp = ns.sigma0 * ns.multiplier
    if amp == 0.0:
        return x
    eps = ns.rng.standard_normal(x.shape).astype(x.data.dtype)
    return x + Tensor(eps * x.data.dtype.type(amp))


# ---- layers ----


class Module:
    """Tiny layer base: hierarchical parameter/buffer naming."""

    def _children(self):
        for name, val in vars(self).items():
            if isinstance(val, Module):
                yield name, val
            elif isinstance(val, (list, tuple)) and val and isinstance(val[0], Module):
                for i, m in enumerate(val):
                    yield f"{name}{i}", m

    def named_parameters(self, prefix: str = ""):
        for name in getattr(self, "_params", ()):
            yield prefix + name, getattr(self, name)
        for cname, child in self._children():
            yield from child.named_parameters(f"{prefix}{cname}.")

    def named_buffers(self, prefix: str = ""):
        """Yields (name, owner, attribute) for non-trainable state arrays."""
        for name in getattr(self, "_buffers", ()):
            yield prefix + name, self, name
        for cname, child in self._children():
            yield from child.named_buffers(f"{prefix}{cname}.")


class Conv2d(Module):
    def __init__(
        self,
        rng: np.random.Generator,
        in_ch: int,
        out_ch: int,
        kernel: int = 3,
        stride: int = 1,
        padding: int = 0,
        pad_mode: str = "zero",
        bias: bool = True,
        zero_init: bool = False,
        dtype=np.float32,
    ):
        self.stride = stride
        self.padding = padding
        self.pad_mode = pad_mode
        fan_in = in_ch * kernel * kernel
        std = float(np.sqrt(2.0 / fan_in))
        if zero_init:
            w = np.zeros((out_ch, in_ch, kernel, kernel))
        else:
            w = rng.standard_normal((out_ch, in_ch, kernel, kernel)) * std
        self.w = Tensor(w.astype(dtype), requires_grad=True, dtype=dtype)
        self._params = ["w"]
        if bias:
            self.b = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True, dtype=dtype)
            self._params.append("b")
        else:
            self.b = None

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(
            x, self.w, self.b, stride=self.stride, padding=self.padding, pad_mode=self.pad_mode
        )


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5, dtype=np.float32):
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self._params = ["gamma", "beta"]
        self._buffers = ["running_mean", "running_var"]

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        out, rm, rv = T.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=training,
            momentum=self.momentum,
            eps=self.eps,
        )
        if training:
            self.running_mean = rm.astype(x.data.dtype)
            self.running_var = rv.astype(x.data.dtype)
        return out


class Linear(Module):
    def __init__(self, rng: np.random.Generator, in_f: int, out_f: int, dtype=np.float32):
        std = float(np.sqrt(1.0 / in_f))
        self.w = Tensor(
            (rng.standard_normal((in_f, out_f)) * std).astype(dtype), requires_grad=True, dtype=dtype
        )
        self.b = Tensor(np.zeros(out_f, dtype=dtype), requires_grad=True, dtype=dtype)
        self._params = ["w", "b"]

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b


class SpectralTransform(Module):
    """Global-branch operator: 1x1 conv, real FFT, 1x1 conv on stacked
    (re, im) channels with norm + ReLU, inverse FFT, 1x1 conv."""

    def __init__(self, rng, in_ch: int, out_ch: int, hidden: int, dtype=np.float32):
        self.conv_in = Conv2d(rng, in_ch, hidden, kernel=1, dtype=dtype)
        self.conv_freq = Conv2d(rng, 2 * hidden, 2 * hidden, kernel=1, bias=False, dtype=dtype)
        self.bn_freq = BatchNorm2d(2 * hidden, dtype=dtype)
        self.conv_out = Conv2d(rng, hidden, out_ch, kernel=1, bias=False, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeError("spectral transform needs spatial dims >= 2")
        w = x.shape[3]
        y = self.conv_in(x)
        spec = rfft2d(y)
        spec = T.relu(self.bn_freq(self.conv_freq(spec), training))
        back = irfft2d(spec, w)
        return self.conv_out(back)


class FfcBlock(Module):
    def __init__(self, rng, cfg: FfcBlockConfig, dtype=np.float32):
        self.cfg = cfg
        self.in_l, self.in_g = cfg.split(cfg.in_channels)
        self.out_l, self.out_g = cfg.split(cfg.out_channels)
        k, p = cfg.kernel, cfg.kernel // 2
        hidden = max(self.out_g, 1)  # spectral branch width
        conv = lambda ci, co: Conv2d(
            rng, ci, co, kernel=k, padding=p, pad_mode="reflect", bias=False, dtype=dtype
        )
        if self.in_l > 0:
            # the local->local and local->global paths share their input,
            # so they run as one conv split along the output channels
            self.conv_from_l = conv(self.in_l, self.out_l + self.out_g)
        if self.in_g > 0 and self.out_l > 0:
            self.conv_gl = conv(self.in_g, self.out_l)
        if self.in_g > 0 and self.out_g > 0:
            self.spectral = SpectralTransform(rng, self.in_g, self.out_g, hidden, dtype=dtype)
        if self.out_l > 0:
            self.bn_l = BatchNorm2d(self.out_l, dtype=dtype)
        if self.out_g > 0:
            self.bn_g = BatchNorm2d(self.out_g, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"FFC block expects {self.cfg.in_channels} channels, got {x.shape[1]}"
            )
        if self.in_l and self.in_g:
            x_l, x_g = T.split_channels(x, [self.in_l, self.in_g])
        elif self.in_l:
            x_l, x_g = x, None
        else:
            x_l, x_g = None, x

        to_l = to_g = None
        if x_l is not None:
            both = self.conv_from_l(x_l)
            if self.out_l and self.out_g:
                to_l, to_g = T.split_channels(both, [self.out_l, self.out_g])
            elif self.out_l:
                to_l = both
            else:
                to_g = both
        outs = []
        if self.out_l > 0:
            local = to_l
            if x_g is not None:
                path = self.conv_gl(x_g)
                local = path if local is None else local + path
            outs.append(T.relu(self.bn_l(local, training)))
        if self.out_g > 0:
            glob = to_g
            if x_g is not None:
                path = self.spectral(x_g, training)
                glob = path if glob is None else glob + path
            outs.append(T.relu(self.bn_g(glob, training)))
        return outs[0] if len(outs) == 1 else T.concat(outs, axis=1)


class Generator(Module):
    """Residual predictor over a bicubic upscale.

    Input and output are both 3-channel at HR resolution; the output is a
    tanh-bounded residual in [-1, 1].
    """

    def __init__(self, cfg: GeneratorConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        w = cfg.width
        self.head = Conv2d(rng, 3, w, kernel=3, padding=1, pad_mode="reflect", dtype=dtype)
        self.blocks = [
            FfcBlock(
                rng,
                FfcBlockConfig(w, w, cfg.global_fraction, cfg.kernel),
                dtype=dtype,
            )
            for _ in range(cfg.blocks)
        ]
        self.tail = Conv2d(
            rng, w, 3, kernel=3, padding=1, pad_mode="reflect", zero_init=cfg.zero_tail, dtype=dtype
        )

    def __call__(self, up: Tensor, noise: NoiseState | None = None, training: bool = False) -> Tensor:
        h = T.relu(self.head(up))
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            h = block(h, training)
            if i < last:
                h = inject_noise(h, noise, training)
        return T.tanh(self.tail(h))


class Discriminator(Module):
    """Scores residual images in (0, 1): conv stack, GAP, affine, sigmoid."""

    def __init__(self, cfg: DiscriminatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        convs = []
        c_in = 3
        width = cfg.width
        for _ in range(cfg.layers):
            convs.append(Conv2d(rng, c_in, width, kernel=3, stride=2, padding=1, dtype=dtype))
            c_in = width
            width *= 2
        self.convs = convs
        self.fc = Linear(rng, c_in, 1, dtype=dtype)

    def __call__(self, residual: Tensor) -> Tensor:
        h = residual
        for conv in self.convs:
            h = T.relu(conv(h))
        pooled = T.mean(h, axes=(2, 3))  # (N, C)
        return T.reshape(T.sigmoid(self.fc(pooled)), (residual.shape[0],))


def count_parameters(module: Module) -> int:
    """Exact count of trainable scalars."""
    return int(np.sum([t.size for _, t in module.named_parameters()], dtype=np.int64))
