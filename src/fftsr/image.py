"""PNG decode/encode and classical resampling.

The format is a minimal, fully pinned-down PNG subset (RFC 2083), so
byte-level round trips are testable: 8-bit, color type 2 (RGB) or 6
(RGBA), no interlace. The encoder always writes color type 2 with filter
0 rows and a fixed zlib level, so identical pixels produce identical
files.

The decoder handles filters 0..4 (RFC 2083 section 6). Every filter
reads only the same channel of its neighbours, so RGBA alpha is dropped
before unfiltering and every row is 3 bytes a pixel. Every filter byte is
checked before any row is unfiltered. None and Up are whole-row numpy;
Sub is a per-channel ``cumsum`` in uint8, which wraps mod 256. Average
and Paeth read the byte just unfiltered to their left, so a row of them
is serial along x. Two ways run them:

- the rows from the first to the last Average or Paeth row, as one
  anti-diagonal wavefront (Lamport's hyperplane method): a pixel needs
  only its left, upper and upper-left neighbours a, b and c, which lie on
  the two diagonals before its own, so each diagonal y + x is one numpy
  pass over every row of the span. The Sub, Up, Average and Paeth
  predictors less c depend only on b - c and a - c, so one uint8 table
  built at import (``_PREDICTIONS``, 1.04 MB) holds them all, and a pass
  looks up every row's filter with a single ``take``. A None row's bytes
  are already its pixels; it adds nothing.
- otherwise, each Average or Paeth row as one plain-int loop per channel,
  which is many times faster than numpy calls on single pixels.

A span of h rows and width w takes h + w - 1 diagonal steps. A step
costs about what the loop spends on 48 bytes (``_STEP_COST``), plus a
sixteenth of the loop's cost for each byte it decodes (``_BYTE_COST``),
so a span runs as a wavefront only when its Average and Paeth rows would
cost the loop more than that; the measurements sit beside the constants.
The wavefront's worst cases are a short, wide span (4 rows of 1000
pixels take 1003 steps for 12,000 serial bytes) and a span whose Average
and Paeth rows are sparse; the rule leaves both to the loop. All-Paeth
RGB rows unfilter about 2.6x faster than the loop at 96x96 and 9x at
720x1280.

The wavefront adds no frame-sized storage at any aspect ratio: the rows
are decoded in place in the zero-padded uint8 output, one strided view
of it, made without a copy or an index array, holds its diagonals as
rows, and its buffers hold one diagonal.

The PNG decoder rejects a header that declares more than ``MAX_PIXELS``
pixels, and inflates no more than the header's pixel count allows, so a
small file cannot expand to a large allocation before it is rejected.

Resampling uses cubic convolution with the Keys kernel (a = -0.5),
half-pixel-centered source mapping ``x_src = (x_dst + 0.5) * scale - 0.5``,
edge-clamped borders, and a final clamp to [0, 1]. The kernel is applied
as precomputed per-axis weight matrices, one product along each axis.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, ImageError, ShapeError, TooSmallError, UnsupportedFormatError, check_int

__all__ = [
    "Image",
    "check_image",
    "decode_image",
    "encode_image",
    "resample_bicubic",
    "make_lr_hr_pair",
    "check_scale",
    "check_pixels",
    "keys_weights",
]

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
MAX_PIXELS = 7680 * 4320  # 8K UHD; a PNG header or a resample output of more is rejected


@dataclass
class Image:
    """Height x width x 3 intensities in [0, 1].

    ``data`` becomes float32, and values outside [0, 1] are clipped into a
    new array; a dtype other than bool, integer or float, NaN and
    infinities raise :class:`ImageError`. A float32 array in [0, 1] is
    kept as given, not copied, so writing to it writes to the image.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype.kind not in "biuf":
            raise ImageError(f"Image values must be real numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.float32, copy=False)  # a copy only for another dtype
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(f"Image expects (H, W, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError("Image dimensions must be >= 1")
        lo, hi = arr.min(), arr.max()  # NaN and infinities reach both
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ImageError("Image values must be finite")
        if lo < 0.0 or hi > 1.0:
            arr = np.clip(arr, 0.0, 1.0)
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def check_image(img, name: str) -> None:
    """Raise :class:`ImageError`, naming ``name``, unless ``img`` is an :class:`Image`."""
    if not isinstance(img, Image):
        raise ImageError(f"{name} needs an Image, got {type(img).__name__}")


# ---- PNG ----


def decode_image(raw: bytes) -> Image:
    """Decode PNG bytes into an :class:`Image`."""
    if len(raw) < 8 or raw[:8] != PNG_SIGNATURE:
        raise DecodeError("not a PNG stream (bad signature)", offset=0)
    pos = 8
    width = height = None
    color_type = None
    idat = bytearray()
    seen_end = False
    while pos < len(raw):
        if pos + 8 > len(raw):
            raise DecodeError("truncated chunk header", offset=pos)
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        body_start = pos + 8
        body_end = body_start + length
        if body_end + 4 > len(raw):
            raise DecodeError(f"truncated {ctype.decode('latin1')} chunk", offset=pos)
        body = raw[body_start:body_end]
        (crc,) = struct.unpack(">I", raw[body_end : body_end + 4])
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != crc:
            raise DecodeError(f"chunk CRC mismatch in {ctype.decode('latin1')}", offset=body_end)
        if ctype == b"IHDR":
            if length != 13:
                raise DecodeError("IHDR length must be 13", offset=pos)
            width, height, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if depth != 8:
                raise UnsupportedFormatError(f"bit depth {depth} unsupported (8 only)")
            if color_type not in (2, 6):
                raise UnsupportedFormatError(f"color type {color_type} unsupported (2 or 6)")
            if comp != 0 or filt != 0:
                raise UnsupportedFormatError("nonzero compression/filter method")
            if interlace != 0:
                raise UnsupportedFormatError("interlaced PNG unsupported")
            if width == 0 or height == 0:
                raise DecodeError(f"IHDR declares {width}x{height} pixels", offset=pos)
            if width * height > MAX_PIXELS:
                raise UnsupportedFormatError(f"{width}x{height} is {width * height} pixels, more than {MAX_PIXELS}")
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            seen_end = True
            break
        pos = body_end + 4
    if width is None:
        raise DecodeError("missing IHDR", offset=8)
    if not seen_end:
        raise DecodeError("missing IEND", offset=len(raw))
    channels = 3 if color_type == 2 else 4
    stride = width * channels
    expected = (stride + 1) * height
    inflater = zlib.decompressobj()
    try:
        # one byte past the expected size is enough to tell a long stream
        stream = inflater.decompress(bytes(idat), expected + 1)
    except zlib.error as exc:
        raise DecodeError(f"IDAT inflate failed: {exc}") from None
    if len(stream) > expected:
        raise DecodeError(f"pixel stream is longer than the {expected} bytes expected")
    if not inflater.eof:
        raise DecodeError("IDAT zlib stream is truncated")
    if len(stream) != expected:
        raise DecodeError(f"pixel stream has {len(stream)} bytes, expected {expected}")
    rows = np.frombuffer(stream, dtype=np.uint8).reshape(height, stride + 1)
    rgb = _unfilter(rows[:, 0], rows[:, 1:].reshape(height, width, channels)[:, :, :3])
    del idat, stream, rows  # not kept alive beside the float pixels
    pixels = rgb.astype(np.float32)
    pixels /= 255.0
    return Image(pixels)


# The wavefront's cost in units of the per-channel loop's cost per byte: a
# diagonal step costs about _STEP_COST loop bytes, plus _BYTE_COST of a loop
# byte for each byte of the span it decodes. A span runs as a wavefront only
# when its Average and Paeth rows would cost the loop more than that.
# Measured on a 2-vCPU Xeon guest (numpy 2.4, CPython 3.11) by timing
# _unfilter on all-Paeth RGB spans, best of 3 interleaved runs: the loop
# cost 133-148 ns a byte on rows of 200 pixels or more, and a step 7.1-7.4 us
# with up to 48 lanes and 21.7 us with 720, about 10 ns a byte more. The
# wavefront's time over the loop's was 1.12 at 16x200 (45 bytes a step),
# 0.76 at 24x200 (65), 0.74 at 24x600 (69), 0.72 at 40x40 (61), 0.44 at
# 48x600 (134), 0.60 at 200x24 (65, where the loop pays more per row) and
# 0.11 at 720x1280 (1383). The per-byte term sends sparse spans to the loop:
# a 360x640 frame with every tenth row Paeth has 70 serial bytes a step, and
# decoded 1.39 times slower as a wavefront.
_STEP_COST = 48
_BYTE_COST = 1 / 16


def _predictor_table() -> np.ndarray:
    """(predictor - c) mod 256 of the Sub, Up, Average and Paeth filters at
    ``[type - 1, b - c + 255, a - c + 255]``, for ``a`` left, ``b`` above
    and ``c`` above left: each of the four depends only on b - c and a - c.

    It is built in blocks of rows, so every temporary stays under glibc's
    initial mmap threshold (128 KiB). Freeing a larger one raises that
    threshold, and frame-sized arrays then come from the heap, whose top
    is not returned to the system.
    """
    diffs = np.arange(-255, 256, dtype=np.int16)
    table = np.empty((4, diffs.size, diffs.size), dtype=np.uint8)
    q = diffs  # a - c
    for rows in range(0, diffs.size, 64):
        p = diffs[rows : rows + 64, None]  # b - c
        block = table[:, rows : rows + 64]  # assignment wraps mod 256
        block[0] = q  # Sub: a
        block[1] = p  # Up: b
        block[2] = (p + q) >> 1  # Average: (a + b) >> 1 = c + ((p + q) >> 1), floored
        # Paeth: |p - a|, |p - b|, |p - c| for the spec's estimate p = a + b - c
        pa, pb, pc = np.abs(p), np.abs(q), np.abs(p + q)
        block[3] = np.where((pa <= pb) & (pa <= pc), q, np.where(pb <= pc, p, 0))
    table.setflags(write=False)
    return table


# built at import, so a decode allocates none of its 1.04 MB
_PREDICTIONS = _predictor_table()


def _unfilter(ftypes: np.ndarray, filtered: np.ndarray) -> np.ndarray:
    """Undo every row's filter (RFC 2083 section 6) of (H, W, 3) bytes,
    with ``ftypes`` the rows' filter bytes."""
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        raise DecodeError(f"unknown filter type {ftypes[bad[0]]} on row {bad[0]}")
    height, width, channels = filtered.shape
    # out[y + 1, x + 1] is pixel (y, x); row 0 and column 0 are zeros, so
    # every pixel's left, upper and upper-left neighbours are in out
    out = np.zeros((height + 1, width + 1, channels), dtype=np.uint8)
    serial = np.flatnonzero(ftypes >= 3)
    y0, y1 = (serial[0], serial[-1] + 1) if serial.size else (height, height)
    span_bytes = (y1 - y0) * width * channels
    if serial.size * width * channels <= _STEP_COST * (y1 - y0 + width - 1) + _BYTE_COST * span_bytes:
        y0 = y1 = height
    for y in range(y0):
        out[y + 1, 1:] = _unfilter_row(int(ftypes[y]), filtered[y], out[y, 1:])
    if y0 < y1:
        out[y0 + 1 : y1 + 1, 1:] = filtered[y0:y1]
        _wavefront(ftypes[y0:y1], out[y0 : y1 + 1])
    for y in range(y1, height):
        out[y + 1, 1:] = _unfilter_row(int(ftypes[y]), filtered[y], out[y, 1:])
    return out[1:, 1:]


def _unfilter_row(ftype: int, row: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Undo one (W, C) row's filter; ``prev`` is the row above, unfiltered."""
    if ftype == 0:  # None
        return row
    if ftype == 2:  # Up
        return row + prev
    if ftype == 1:  # Sub: a running sum per channel, wrapping mod 256
        return np.cumsum(row, axis=0, dtype=np.uint8)
    unfilter = _unfilter_average if ftype == 3 else _unfilter_paeth
    # each channel is its own serial stream, bpp bytes apart
    bpp = row.shape[1]
    raw, up = row.tobytes(), prev.tobytes()
    out = bytearray(len(raw))
    for ch in range(bpp):
        out[ch::bpp] = unfilter(raw[ch::bpp], up[ch::bpp])
    return np.frombuffer(out, dtype=np.uint8).reshape(row.shape)


def _wavefront(ftypes: np.ndarray, grid: np.ndarray) -> None:
    """Undo in place the filters of rows 1..n of a C-contiguous
    (n + 1, w + 1, C) ``grid``, any mix of types, one anti-diagonal at a
    time. Row 0 is the row above them, unfiltered, and column 0 is zeros.

    One strided view of the grid, with no copy, holds diagonal r + x of
    cell (r, x) at lane r: cell (r, d - r) lies d + r * w pixels into the
    grid. A cell's left and upper neighbours are on the diagonal before,
    at its own lane and one lower, and its upper-left neighbour is on the
    diagonal before that, one lane lower. A view lane off the grid aliases
    some other cell; a step touches only the lanes of grid cells.

    A step reads each cell's b - c and a - c, looks its filter's
    prediction less c up in ``_PREDICTIONS`` with one ``take``, and adds c
    and the prediction to the cell, wrapping mod 256. Its arrays are views
    of buffers made once, so no step allocates one: steps that allocated
    windows of every length filled numpy's cache of small freed blocks (7
    per size under 1 KiB).
    """
    rows, cols, channels = grid.shape
    n, w = rows - 1, cols - 1
    diagonal = np.lib.stride_tricks.as_strided(grid, (n + w + 1, rows, channels), (channels, w * channels, 1))
    # per row, at full channel width (an add that broadcasts costs several
    # times more): the index of its filter's sub-table at p = q = 0, None
    # rows taking Sub's
    side = _PREDICTIONS.shape[1]
    filters = ftypes.astype(np.intp)
    centre = np.zeros((rows, channels), dtype=np.intp)
    centre[1:] = (((np.maximum(filters, 1) - 1) * side + side // 2) * side + side // 2)[:, None]
    # a None row adds nothing to the bytes it holds
    keep = None
    if not filters.all():
        keep = np.zeros((rows, channels), dtype=np.uint8)
        keep[1:] = (filters != 0)[:, None]
    lanes = min(n, w)
    index_buf = np.empty((lanes, channels), dtype=np.intp)
    left_buf = np.empty((lanes, channels), dtype=np.intp)
    pred_buf = np.empty((lanes, channels), dtype=np.uint8)
    for d in range(2, n + w + 1):
        lo, hi = max(1, d - w), min(rows, d)
        last, before = diagonal[d - 1], diagonal[d - 2]
        c = before[lo - 1 : hi - 1]
        index, q, pred = index_buf[: hi - lo], left_buf[: hi - lo], pred_buf[: hi - lo]
        np.subtract(last[lo - 1 : hi - 1], c, out=index, dtype=np.intp)  # p = b - c
        np.subtract(last[lo:hi], c, out=q, dtype=np.intp)  # q = a - c
        index *= side
        index += q
        index += centre[lo:hi]
        _PREDICTIONS.take(index, out=pred, mode="clip")  # "raise" would copy; none is out of range
        pred += c  # wraps mod 256
        if keep is not None:
            pred *= keep[lo:hi]
        cells = diagonal[d, lo:hi]
        cells += pred  # wraps mod 256


def _unfilter_average(raw: bytes, up: bytes) -> bytearray:
    """One channel of an Average row; ``a`` is the last byte unfiltered."""
    out = bytearray()
    a = 0
    for r, b in zip(raw, up):
        a = (r + ((a + b) >> 1)) & 255
        out.append(a)
    return out


def _unfilter_paeth(raw: bytes, up: bytes) -> bytearray:
    """One channel of a Paeth row: ``a`` left, ``b`` above, ``c`` above left."""
    out = bytearray()
    a = c = 0
    for r, b in zip(raw, up):
        # |p - a|, |p - b|, |p - c| for the spec's estimate p = a + b - c
        pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
        if pa <= pb and pa <= pc:
            a = (r + a) & 255
        elif pb <= pc:
            a = (r + b) & 255
        else:
            a = (r + c) & 255
        out.append(a)
        c = b
    return out


def encode_image(img: Image) -> bytes:
    """Encode to PNG bytes; lossless at 8 bits."""
    check_image(img, "encode_image")
    pixels = np.round(img.data * 255.0).astype(np.uint8)
    h, w, _ = pixels.shape
    rows = np.zeros((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 1:] = pixels.reshape(h, w * 3)
    out = bytearray(PNG_SIGNATURE)
    _write_chunk(out, b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
    _write_chunk(out, b"IDAT", zlib.compress(rows.tobytes(), 6))
    _write_chunk(out, b"IEND", b"")
    return bytes(out)


def _write_chunk(out: bytearray, ctype: bytes, body: bytes):
    out += struct.pack(">I", len(body))
    out += ctype
    out += body
    out += struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)


# ---- resampling ----


def keys_weights(frac: float) -> np.ndarray:
    """Cubic convolution weights at taps (-1, 0, 1, 2) - frac offsets."""
    a = -0.5  # the Keys kernel's free parameter

    def kernel(t):
        t = abs(t)
        if t <= 1.0:
            return (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0
        if t < 2.0:
            return a * t**3 - 5.0 * a * t**2 + 8.0 * a * t - 4.0 * a
        return 0.0

    return np.array([kernel(1.0 + frac), kernel(frac), kernel(1.0 - frac), kernel(2.0 - frac)])


# a frame size takes two entries (input and output length per axis); the benchmark uses at most 7
@functools.lru_cache(maxsize=32)
def _axis_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) Keys cubic matrix: half-pixel mapping, edge clamp."""
    scale = n_in / n_out
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        base = int(np.floor(src))
        frac = src - base
        for t, wgt in zip(range(base - 1, base + 3), keys_weights(frac)):
            mat[i, min(max(t, 0), n_in - 1)] += wgt
        mat[i] /= mat[i].sum()
    mat.setflags(write=False)
    return mat


def resample_bicubic(img: Image, out_h: int, out_w: int) -> Image:
    """Keys (a = -0.5) cubic resampling to (out_h, out_w), each an integer
    of at least 1 with at most ``MAX_PIXELS`` in all, else
    :class:`ShapeError` before anything is allocated."""
    check_image(img, "resample_bicubic")
    check_int(out_h, "resample_bicubic: out_h", 1, ShapeError)
    check_int(out_w, "resample_bicubic: out_w", 1, ShapeError)
    check_pixels(out_h, out_w, "resample_bicubic")
    mh = _axis_matrix(img.height, out_h)
    mw = _axis_matrix(img.width, out_w)
    x = img.data.transpose(2, 0, 1)[None].astype(np.float64)  # NCHW
    x = np.swapaxes(np.swapaxes(x, -1, -2) @ mh.T, -1, -2)
    x = x @ mw.T
    return Image(np.clip(x, 0.0, 1.0, out=x).astype(img.data.dtype)[0].transpose(1, 2, 0))


def check_pixels(out_h: int, out_w: int, name: str) -> None:
    """Raise :class:`ShapeError`, naming ``name``, if an ``out_h`` x
    ``out_w`` output has more than ``MAX_PIXELS`` pixels."""
    if out_h * out_w > MAX_PIXELS:
        raise ShapeError(f"{name}: {out_h}x{out_w} is {out_h * out_w} pixels, more than {MAX_PIXELS}")


def check_scale(scale) -> None:
    """Raise :class:`ImageError` unless ``scale`` is an integer of at least
    2; a bool is not one."""
    check_int(scale, "scale", 2, ImageError)


def make_lr_hr_pair(img: Image, scale: int) -> tuple[Image, Image]:
    """Crop to a multiple of ``scale`` and downsample bicubically by it."""
    check_image(img, "make_lr_hr_pair")
    check_scale(scale)
    h = (img.height // scale) * scale
    w = (img.width // scale) * scale
    if h == 0 or w == 0:
        raise TooSmallError(
            f"image {img.height}x{img.width} smaller than scale {scale}"
        )
    hr = Image(img.data[:h, :w])
    lr = resample_bicubic(hr, h // scale, w // scale)
    return lr, hr
