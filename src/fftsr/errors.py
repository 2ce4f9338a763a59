"""Exception types shared across the package, and the one rule for what
an integer argument is (:func:`is_int`, :func:`check_int`)."""

import numpy as np


def is_int(value, low: int | None = None) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer, never a ``bool``,
    and at least ``low`` when given."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and (low is None or value >= low)


def check_int(value, name: str, low: int, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``low``."""
    if not is_int(value, low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


class FftsrError(Exception):
    """Base class for all package errors."""


class ShapeError(FftsrError):
    """Operand shapes are incompatible with the requested operation."""


class AxisError(FftsrError):
    """A reduction axis is out of range for the operand."""


class DomainError(FftsrError):
    """An op received an input outside its domain: a negative input to a
    strict-mode elementwise op, a conv2d stride, padding or pad mode that
    is not defined, a clamp whose ``lo`` is above its ``hi``, a spectral
    transform input that is not float32 or float64, or a negative
    learning-rate schedule step."""


class GraphError(FftsrError):
    """A backward pass reached a node whose graph an earlier backward pass
    already walked and released."""


class ConfigError(FftsrError):
    """A run-config file or key, or an object built from one, is invalid."""


class ImageError(FftsrError):
    """Base class for image decode/encode/resample failures."""


class DecodeError(ImageError):
    """A byte stream could not be decoded as an image.

    ``offset`` is the byte position at which decoding failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(ImageError):
    """The image is syntactically valid but uses an unsupported variant."""


class TooSmallError(ImageError):
    """An image is too small for the requested operation."""


class CheckpointError(FftsrError):
    """A checkpoint file failed to load; names the failing section.

    ``section`` is one of: magic, version, config, state, tensor table,
    checksum. ``state`` and ``tensor table`` are also raised on restore,
    when an entry the trainer needs is missing or does not fit it.
    """

    def __init__(self, message, section):
        super().__init__(message)
        self.section = section


class OptimizerError(FftsrError):
    """An optimizer step was rejected (non-finite gradient)."""
