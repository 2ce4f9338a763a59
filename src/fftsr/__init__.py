"""Single-image super-resolution with Fourier-convolution residual GANs.

The package is self-contained on numpy: it ships its own reverse-mode
autodiff tensor engine, Fourier transforms on numpy's pocketfft, a PNG
codec and a bicubic resampler, the generator/discriminator pair, the
five-term training objective, and a deterministic training loop with
bit-exact checkpoints (:mod:`fftsr.train`).
"""

from .tensor import Tensor, no_grad

__all__ = ["Tensor", "no_grad"]

__version__ = "0.1.0"
