"""Fourier-convolution networks: the residual generator, built from FFC
blocks, and the residual discriminator, a strided conv stack.

An FFC block splits its channels into a local group (spatial 3x3
convolutions) and a global group (a spectral transform that convolves
1x1 in the Fourier domain, giving an image-wide receptive field). The
four cross paths (local->local, global->local, local->global,
global->global) are summed pairwise per destination, then batch-normed
and ReLU-activated. A block keeps its width, and its output has the same
local/global split as its input; a split with no global (or no local)
channels leaves a single path.

Each layer declares its state once, as attributes (:class:`Module`); a
convolution pads by half its kernel, and every BatchNorm shares one
momentum (``BatchNorm2d.MOMENTUM``) and one eps (``tensor.BN_EPS``).

In eval mode each BatchNorm is a fixed per-channel affine map, and it is
folded into the convolutions that feed it: their kernels are scaled per
output channel and one conv bias carries the shifts, so the eval forward
makes no BatchNorm pass. The folded kernels are built from the
parameters on every call; nothing is cached.

The eval forward records no graph, so it works in place: every sum and
activation writes into an array that a convolution of the same forward
has just made and that nothing else holds. It never writes its input,
a parameter or a BatchNorm buffer. The values are bit-identical to the
op-by-op composition: each element sees the same IEEE operations.

A training forward with nonzero noise draws its between-block noise on
a producer thread, ahead of the blocks that add it (:class:`NoiseState`'s
:meth:`~NoiseState.draws`). The producer makes the same draws, in the
same order, as a serial forward: float64 ``standard_normal``, cast to
the activation dtype, times the amplitude in that dtype. It writes only
into arrays that the calling thread allocated, calls numpy alone (no
fftsr function, so span and allocation tracing see one thread) and is
joined before the forward returns or raises; an exception it raises is
raised on the calling thread. An eval forward, one at amplitude 0 and a
generator of fewer than 2 blocks start no thread and draw nothing. It is
a thread of its own, not one of ``tensor._run_parts``' workers: a draw
queued there would hold up the split kernel parts queued behind it.

The generator predicts a tanh-bounded residual in [-1, 1] on top of a
bicubic upscale; callers compose ``clamp(bicubic + residual, 0, 1)``.
The discriminator scores residual images with a strided conv stack,
global average pooling, and a sigmoid head.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import Settings, setting
from .fft import irfft2d, rfft2d
from .tensor import Tensor

__all__ = [
    "GeneratorConfig",
    "DiscriminatorConfig",
    "NoiseState",
    "Conv2d",
    "BatchNorm2d",
    "SpectralTransform",
    "FfcBlock",
    "Generator",
    "Discriminator",
    "strided_convs",
    "inject_noise",
    "count_parameters",
]


# ---- configuration ----

EMA_DECAY = 0.99  # decay of the noise-annealing EMA and of train.DiffusionState's r_d; fftsr's own value


@dataclass(frozen=True)
class GeneratorConfig(Settings):
    blocks: int = setting("gen.blocks")
    width: int = setting("gen.width")
    global_fraction: float = setting("gen.global_fraction")
    kernel: int = setting("gen.kernel")
    zero_tail: bool = setting("gen.zero_tail")


@dataclass(frozen=True)
class DiscriminatorConfig(Settings):
    width: int = setting("disc.width")
    layers: int = setting("disc.layers")


@dataclass
class NoiseState(Settings):
    """Between-block Gaussian noise of amplitude sigma0 * multiplier.

    :meth:`anneal` folds each step's generator loss into ``ema``, and keeps
    the EMA after ``warmup_steps`` losses as the baseline ``initial``; the
    multiplier is then clip(ema / initial, 0, 1), and 1.0 with no baseline.
    """

    sigma0: float = setting("gen.noise_sigma", required=True)
    rng: np.random.Generator
    warmup_steps: int = setting("noise.warmup_steps")
    ema: float = 0.0
    initial: float | None = None

    @property
    def multiplier(self) -> float:
        return float(np.clip(self.ema / self.initial, 0.0, 1.0)) if self.initial else 1.0

    def anneal(self, g_loss: float, step: int):
        """Fold the generator loss of training step ``step`` into the EMA."""
        self.ema = g_loss if step == 0 else EMA_DECAY * self.ema + (1.0 - EMA_DECAY) * g_loss
        if step + 1 == self.warmup_steps:
            self.initial = self.ema

    def draws(self, shape: tuple, dtype, count: int) -> "_NoiseDraws | None":
        """Start drawing the ``count`` noise arrays of one training forward,
        each of ``shape`` and ``dtype``, on a producer thread; None, with
        nothing drawn, when the amplitude is 0 or ``count`` is under 1.
        The caller must :meth:`~_NoiseDraws.join` what it gets."""
        amp = self.sigma0 * self.multiplier
        if amp == 0.0 or count < 1:
            return None
        return _NoiseDraws(self.rng, shape, np.dtype(dtype), amp, count)


class _NoiseDraws:
    """``count`` noise arrays of amplitude ``amp``, drawn from ``rng`` in
    order by a producer thread: each is a float64 ``standard_normal`` into
    one scratch array, cast into the array, then scaled by ``dtype(amp)``
    in place, the IEEE operations of one inline draw. The calling thread
    allocates every array here; the producer calls numpy alone."""

    def __init__(self, rng: np.random.Generator, shape: tuple, dtype: np.dtype, amp: float, count: int):
        self._arrays = [np.empty(shape, dtype) for _ in range(count)]
        self._ready = threading.Semaphore(0)  # released once per finished array
        self._error: BaseException | None = None
        self._taken = 0
        args = (rng, np.empty(shape), dtype.type(amp))
        self._thread = threading.Thread(target=self._produce, args=args, name="fftsr-noise", daemon=True)
        self._thread.start()

    def _produce(self, rng, scratch, amp):
        try:
            for i in range(len(self._arrays)):
                out = self._arrays[i]
                rng.standard_normal(out=scratch)
                np.copyto(out, scratch, casting="same_kind")
                np.multiply(out, amp, out=out)
                out = None  # the array is the caller's once released
                self._ready.release()
        except BaseException as err:  # raised on the calling thread by _take
            self._error = err
            self._ready.release(len(self._arrays))

    def _take(self) -> np.ndarray:
        """The next array, once drawn; handed over, so it is freed with
        the caller's last reference. Raises what the producer raised."""
        self._ready.acquire()
        if self._error is not None:
            raise self._error
        out, self._arrays[self._taken] = self._arrays[self._taken], None
        self._taken += 1
        return out

    def join(self):
        """Wait for the producer to end."""
        self._thread.join()


def inject_noise(x: Tensor, draws: _NoiseDraws | None) -> Tensor:
    """``x`` plus the next noise array of ``draws``, waiting for the
    producer thread to draw it (see the module docstring); ``x`` itself
    with no draws (eval, amplitude 0)."""
    if draws is None:
        return x
    return x + Tensor(draws._take())


def _relu_(x: Tensor) -> Tensor:
    """ReLU of an eval-forward tensor, written over its own array: ``x`` is
    untracked and its array was made by the forward's last op."""
    np.maximum(x.data, 0, out=x.data)
    return x


# ---- layers ----


class Module:
    """Layer base. A layer's parameters are its :class:`Tensor` attributes
    and its buffers (non-trainable state) its ndarray attributes, each
    named after its attribute; a :class:`Module` attribute, or a list of
    them, adds its own under ``name.`` (``name{i}.`` for the i-th). Names
    come in assignment order, which is the checkpoint's order and
    AdamW's; rebinding an attribute keeps its place."""

    def _named_state(self, prefix: str):
        """(name, owner, attribute, value) of each Tensor or ndarray attribute, here and below."""
        for name, val in vars(self).items():
            if isinstance(val, (Tensor, np.ndarray)):
                yield prefix + name, self, name, val
            elif isinstance(val, Module):
                yield from val._named_state(f"{prefix}{name}.")
            elif isinstance(val, (list, tuple)):
                for i, m in enumerate(val):
                    if isinstance(m, Module):
                        yield from m._named_state(f"{prefix}{name}{i}.")

    def named_parameters(self, prefix: str = ""):
        return ((name, val) for name, _, _, val in self._named_state(prefix) if isinstance(val, Tensor))

    def named_buffers(self, prefix: str = ""):
        """Yields (name, owner, attribute) for non-trainable state arrays."""
        return ((name, o, a) for name, o, a, val in self._named_state(prefix) if isinstance(val, np.ndarray))


class Conv2d(Module):
    """Convolution padded by ``kernel // 2`` a side (``pad_mode``), so an odd kernel at stride 1
    keeps the size; He-normal weights from ``rng``, or zeros with ``zero_init``."""

    def __init__(
        self,
        rng: np.random.Generator,
        in_ch: int,
        out_ch: int,
        kernel: int = 3,
        stride: int = 1,
        pad_mode: str = "zero",
        bias: bool = True,
        zero_init: bool = False,
    ):
        self.stride = stride
        self.padding = kernel // 2
        self.pad_mode = pad_mode
        shape, std = (out_ch, in_ch, kernel, kernel), float(np.sqrt(2.0 / (in_ch * kernel * kernel)))
        w = np.zeros(shape) if zero_init else rng.standard_normal(shape) * std
        self.w = Tensor(w.astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True) if bias else None

    def __call__(self, x: Tensor, scale: np.ndarray | None = None, shift: np.ndarray | None = None) -> Tensor:
        """conv(x); with ``scale``, conv(x) * scale + shift per output
        channel, as one conv with its kernel rows scaled and ``shift`` (if
        given) as its bias. Only a conv without a bias is scaled."""
        w, b = self.w, self.b
        if scale is not None:
            w = Tensor(self.w.data * scale.reshape(-1, 1, 1, 1))
            b = None if shift is None else Tensor(shift)
        return T.conv2d(x, w, b, stride=self.stride, padding=self.padding, pad_mode=self.pad_mode)


class BatchNorm2d(Module):
    """Calling it normalizes by batch statistics (:func:`T.batch_norm2d`)
    and folds them into the running ones at ``MOMENTUM`` (train mode). In
    eval mode the layer is the affine map of :meth:`affine`, which the
    modules fold into their convolutions. Both modes add ``T.BN_EPS`` to
    the variance."""

    MOMENTUM = 0.1

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        out, mean, var = T.batch_norm2d(x, self.gamma, self.beta)
        self.running_mean = ((1.0 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean).astype(x.dtype)
        self.running_var = ((1.0 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var).astype(x.dtype)
        return out

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift) of the eval-mode map x * scale + shift, from the
        running statistics: scale = gamma / sqrt(var + eps) and
        shift = beta - mean * scale."""
        scale = self.gamma.data / np.sqrt(self.running_var + T.BN_EPS)
        return scale, self.beta.data - self.running_mean * scale


class Linear(Module):
    def __init__(self, rng: np.random.Generator, in_f: int, out_f: int):
        std = float(np.sqrt(1.0 / in_f))
        self.w = Tensor((rng.standard_normal((in_f, out_f)) * std).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(out_f, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b


class SpectralTransform(Module):
    """Global-branch operator on ``channels`` channels: 1x1 conv, real FFT,
    1x1 conv on stacked (re, im) channels with norm + ReLU, inverse FFT,
    1x1 conv.

    In eval mode the norm is folded into ``conv_freq``, and ``scale`` and
    ``shift``, when given, into ``conv_out``: the output is then
    conv_out(...) * scale + shift per channel, for the enclosing block's
    norm. The eval forward records no graph: a graph through the folded
    kernels, which are fresh arrays, would leave their parameters
    without gradients. Its ReLU writes over ``conv_freq``'s output; it
    writes nothing else, and never ``x``. Its output is a fresh array."""

    def __init__(self, rng: np.random.Generator, channels: int):
        self.conv_in = Conv2d(rng, channels, channels, kernel=1)
        self.conv_freq = Conv2d(rng, 2 * channels, 2 * channels, kernel=1, bias=False)
        self.bn_freq = BatchNorm2d(2 * channels)
        self.conv_out = Conv2d(rng, channels, channels, kernel=1, bias=False)

    def __call__(self, x: Tensor, training: bool, scale=None, shift=None) -> Tensor:
        with contextlib.nullcontext() if training else T.no_grad():
            spec = rfft2d(self.conv_in(x))
            if training:
                spec = T.relu(self.bn_freq(self.conv_freq(spec)))
            else:
                spec = _relu_(self.conv_freq(spec, *self.bn_freq.affine()))
            return self.conv_out(irfft2d(spec, x.shape[3]), scale, shift)


class FfcBlock(Module):
    """One FFC block of ``channels`` channels, ``l`` local and ``g`` global,
    with the same split on its input and its output.

    In eval mode ``bn_l`` and ``bn_g`` are folded into the convs that feed
    them: ``conv_from_l``'s rows are scaled by both norms' scales and its
    bias carries both shifts, ``conv_gl`` is scaled by ``bn_l``'s and the
    spectral ``conv_out`` by ``bn_g``'s. As in the spectral transform, the
    eval forward records no graph. It writes only into the output it
    returns, which ``conv_from_l`` (or, with no local channels, the
    spectral transform) has just made; it never writes ``x``."""

    def __init__(self, rng: np.random.Generator, channels: int, global_fraction: float, kernel: int):
        self.g = int(round(global_fraction * channels))
        self.l = channels - self.g
        conv = lambda ci, co: Conv2d(rng, ci, co, kernel=kernel, pad_mode="reflect", bias=False)
        if self.l:
            # the local->local and local->global paths share their input,
            # so they run as one conv split along the output channels
            self.conv_from_l = conv(self.l, channels)
        if self.l and self.g:
            self.conv_gl = conv(self.g, self.l)
        if self.g:
            self.spectral = SpectralTransform(rng, self.g)
        if self.l:
            self.bn_l = BatchNorm2d(self.l)
        if self.g:
            self.bn_g = BatchNorm2d(self.g)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if not training:
            with T.no_grad():
                return self._folded(x)
        if not self.g:
            return T.relu(self.bn_l(self.conv_from_l(x)))
        if not self.l:
            return T.relu(self.bn_g(self.spectral(x, True)))
        x_l, x_g = T.split_channels(x, [self.l, self.g])
        to_l, to_g = T.split_channels(self.conv_from_l(x_l), [self.l, self.g])
        local = T.relu(self.bn_l(to_l + self.conv_gl(x_g)))
        glob = T.relu(self.bn_g(to_g + self.spectral(x_g, True)))
        return T.concat([local, glob], axis=1)

    def _folded(self, x: Tensor) -> Tensor:
        """The eval forward, with both norms folded into the convs.

        ``conv_from_l``'s output is already laid out ``[local | global]``,
        so it is the block's output: the spectral output is added into its
        global channels and ``conv_gl``'s into its local ones, and the ReLU
        runs over it, all in place. The spectral branch runs first, while
        no other full-size output is alive to share its peak with its
        transforms' buffers."""
        if not self.g:
            return _relu_(self.conv_from_l(x, *self.bn_l.affine()))
        if not self.l:
            return _relu_(self.spectral(x, False, *self.bn_g.affine()))
        (s_l, t_l), (s_g, t_g) = self.bn_l.affine(), self.bn_g.affine()
        x_l, x_g = T.split_channels(x, [self.l, self.g])
        spec = self.spectral(x_g, False, s_g).data
        out = self.conv_from_l(x_l, np.concatenate([s_l, s_g]), np.concatenate([t_l, t_g]))
        out.data[:, self.l :] += spec
        del spec
        out.data[:, : self.l] += self.conv_gl(x_g, s_l).data
        return _relu_(out)


class Generator(Module):
    """Residual predictor over a bicubic upscale.

    Input and output are both 3-channel at HR resolution; the output is a
    tanh-bounded residual in [-1, 1].

    The eval forward's head ReLU and tail tanh write over the head's and
    the tail's conv outputs, and each block writes only its own output, so
    it never writes ``up``, a parameter or a BatchNorm buffer; it returns
    a fresh array that the caller may write.
    """

    def __init__(self, cfg: GeneratorConfig, rng: np.random.Generator):
        self.cfg = cfg
        w = cfg.width
        self.head = Conv2d(rng, 3, w, kernel=3, pad_mode="reflect")
        self.blocks = [FfcBlock(rng, w, cfg.global_fraction, cfg.kernel) for _ in range(cfg.blocks)]
        self.tail = Conv2d(rng, w, 3, kernel=3, pad_mode="reflect", zero_init=cfg.zero_tail)

    def __call__(self, up: Tensor, noise: NoiseState | None = None, training: bool = False) -> Tensor:
        """The eval forward records no graph: its folded kernels are fresh
        arrays, so no gradient could reach the parameters through them.

        A training forward with ``noise`` hands its ``blocks - 1`` noise
        draws, one per gap between blocks, to a producer thread once the
        head has run, and each gap waits for its own array (see the module
        docstring); the producer is joined before the tail runs, or as an
        exception leaves the trunk."""
        with contextlib.nullcontext() if training else T.no_grad():
            h = self.head(up)
            h = T.relu(h) if training else _relu_(h)
            last = len(self.blocks) - 1
            draws = noise.draws(h.shape, h.dtype, last) if training and noise is not None else None
            try:
                for i, block in enumerate(self.blocks):
                    h = block(h, training)
                    if i < last:
                        h = inject_noise(h, draws)
            finally:
                if draws is not None:
                    draws.join()
            out = self.tail(h)
            if training:
                return T.tanh(out)
            np.tanh(out.data, out=out.data)
            return out


def strided_convs(rng: np.random.Generator, widths) -> list[Conv2d]:
    """3x3 stride-2 convs with zero padding 1 from 3 channels through
    ``widths`` in turn, their weights drawn from ``rng`` in that order."""
    c_ins = (3, *widths)
    return [Conv2d(rng, c_in, width, kernel=3, stride=2) for c_in, width in zip(c_ins, widths)]


class Discriminator(Module):
    """Scores residual images in (0, 1): conv stack, GAP, affine, sigmoid."""

    def __init__(self, cfg: DiscriminatorConfig, rng: np.random.Generator):
        self.cfg = cfg
        widths = [cfg.width * 2**i for i in range(cfg.layers)]
        self.convs = strided_convs(rng, widths)
        self.fc = Linear(rng, widths[-1] if widths else 3, 1)

    def __call__(self, residual: Tensor) -> Tensor:
        h = residual
        for conv in self.convs:
            h = T.relu(conv(h))
        pooled = T.mean(h, axes=(2, 3))  # (N, C)
        return T.reshape(T.sigmoid(self.fc(pooled)), (residual.shape[0],))


def count_parameters(module: Module) -> int:
    """Exact count of trainable scalars."""
    return int(np.sum([t.size for _, t in module.named_parameters()], dtype=np.int64))
