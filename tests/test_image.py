import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fftsr import image as I
from fftsr.errors import DecodeError, FftsrError, ImageError, ShapeError, TooSmallError, UnsupportedFormatError


def random_image(rng, h=9, w=13):
    return I.Image(rng.random((h, w, 3), dtype=np.float64).astype(np.float32))


def ihdr(width: int, height: int, color_type: int = 2) -> bytes:
    return struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)


def png_file(header: bytes, idat: bytes) -> bytes:
    """A PNG with ``header`` as its IHDR body, ``idat`` as its IDAT body
    and valid chunk CRCs."""
    out = bytearray(I.PNG_SIGNATURE)
    I._write_chunk(out, b"IHDR", header)
    I._write_chunk(out, b"IDAT", idat)
    I._write_chunk(out, b"IEND", b"")
    return bytes(out)


def png_1x1(idat: bytes) -> bytes:
    """An RGB PNG whose header declares 1x1 pixels, with ``idat`` as its
    IDAT body and valid chunk CRCs."""
    return png_file(ihdr(1, 1), idat)


class TestPng:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, 7, 5)
        back = I.decode_image(I.encode_image(img))
        assert np.abs(back.data - img.data).max() <= 1.0 / 255.0

    def test_encode_deterministic(self):
        rng = np.random.default_rng(2)
        img = random_image(rng)
        assert I.encode_image(img) == I.encode_image(img)

    def test_truncated_stream_raises(self):
        rng = np.random.default_rng(3)
        raw = I.encode_image(random_image(rng))
        with pytest.raises(DecodeError):
            I.decode_image(raw[: len(raw) - 9])

    def test_bad_signature_offset_zero(self):
        with pytest.raises(DecodeError) as info:
            I.decode_image(b"\x89PNG\r\n\x1a\x00" + bytes(20))
        assert info.value.offset == 0

    def test_corrupt_chunk_crc(self):
        rng = np.random.default_rng(4)
        raw = bytearray(I.encode_image(random_image(rng)))
        raw[20] ^= 0xFF  # inside IHDR body
        with pytest.raises(DecodeError):
            I.decode_image(bytes(raw))

    def test_rgba_alpha_dropped(self):
        # hand-build a color type 6 PNG: 1x2, opaque red / half-alpha green
        import struct
        import zlib

        rows = bytes([0, 255, 0, 0, 255, 0, 255, 0, 128])
        out = bytearray(I.PNG_SIGNATURE)
        I._write_chunk(out, b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 6, 0, 0, 0))
        I._write_chunk(out, b"IDAT", zlib.compress(rows))
        I._write_chunk(out, b"IEND", b"")
        img = I.decode_image(bytes(out))
        assert np.allclose(img.data[0, 0], [1, 0, 0])
        assert np.allclose(img.data[0, 1], [0, 1, 0])

    def test_unsupported_bit_depth(self):
        import struct
        import zlib

        out = bytearray(I.PNG_SIGNATURE)
        I._write_chunk(out, b"IHDR", struct.pack(">IIBBBBB", 1, 1, 16, 2, 0, 0, 0))
        I._write_chunk(out, b"IDAT", zlib.compress(bytes(7)))
        I._write_chunk(out, b"IEND", b"")
        with pytest.raises(UnsupportedFormatError):
            I.decode_image(bytes(out))

    def test_inflate_bomb_is_rejected_without_inflating_it(self):
        # about 50 KB of zlib that inflates to 50 MiB, behind a 1x1 header
        raw = png_1x1(zlib.compress(bytes(50 << 20), 9))
        assert len(raw) < 60_000
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError):
                I.decode_image(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pixel_count_is_bounded_before_inflating(self):
        # about 50 KB of zlib behind a header that declares 20000x20000
        raw = png_file(ihdr(20000, 20000), zlib.compress(bytes(50 << 20), 9))
        assert len(raw) < 60_000
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedFormatError, match=f"400000000 .* {I.MAX_PIXELS}"):
                I.decode_image(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "width,height,error",
        [(7680, 4320, DecodeError), (4320, 7680, DecodeError), (7681, 4320, UnsupportedFormatError)],
    )
    def test_pixel_bound_admits_8k_uhd(self, width, height, error):
        # an admitted header gets as far as the pixel stream, which is short
        with pytest.raises(error):
            I.decode_image(png_file(ihdr(width, height), zlib.compress(bytes(3))))

    @pytest.mark.parametrize("width,height", [(0xFFFFFFFF, 0), (0, 5)])
    def test_zero_width_or_height(self, width, height):
        with pytest.raises(DecodeError, match="IHDR"):
            I.decode_image(png_file(ihdr(width, height), zlib.compress(b"")))

    def test_palette_color_type(self):
        with pytest.raises(UnsupportedFormatError, match="color type 3 unsupported"):
            I.decode_image(png_file(ihdr(1, 1, 3), zlib.compress(bytes(2))))

    def test_interlaced(self):
        header = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 1)
        with pytest.raises(UnsupportedFormatError, match="interlaced"):
            I.decode_image(png_file(header, zlib.compress(bytes(4))))

    @pytest.mark.parametrize("missing, offset", [(b"IHDR", 8), (b"IEND", None)])
    def test_missing_chunk(self, missing, offset):
        out = bytearray(I.PNG_SIGNATURE)
        for name, body in ((b"IHDR", ihdr(1, 1)), (b"IDAT", zlib.compress(bytes(4))), (b"IEND", b"")):
            if name != missing:
                I._write_chunk(out, name, body)
        with pytest.raises(DecodeError, match=f"missing {missing.decode()}") as info:
            I.decode_image(bytes(out))
        assert info.value.offset == (len(out) if offset is None else offset)

    def test_idat_that_is_not_a_zlib_stream(self):
        with pytest.raises(DecodeError, match="IDAT inflate failed"):
            I.decode_image(png_1x1(b"\x00\x01 not zlib"))

    def test_zlib_stream_cut_short_inside_a_valid_idat(self):
        whole = zlib.compress(bytes([0, 10, 20, 30]))
        assert I.decode_image(png_1x1(whole)).width == 1
        for cut in (1, 4, len(whole) - 2):
            with pytest.raises(DecodeError):
                I.decode_image(png_1x1(whole[:-cut]))

    def test_extra_pixel_bytes_are_rejected(self):
        with pytest.raises(DecodeError):
            I.decode_image(png_1x1(zlib.compress(bytes(5))))
        with pytest.raises(DecodeError):
            I.decode_image(png_1x1(zlib.compress(bytes(3))))

    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_all_decode_filters(self, ftype):
        pixels = np.random.default_rng(5 + ftype).integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        img = I.decode_image(png_file(ihdr(5, 4), zlib.compress(filter_rows(pixels, [ftype] * 4))))
        assert np.array_equal(np.round(img.data * 255).astype(np.uint8), pixels)

    @pytest.mark.parametrize("byte", [5, 255])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_unknown_filter_byte_names_its_row(self, byte, row):
        # every filter byte is checked before any row is unfiltered, and
        # the Paeth rows around the bad one would run as a wavefront
        pixels = np.random.default_rng(row).integers(0, 256, (7, 40, 3), dtype=np.uint8)
        stream = bytearray(filter_rows(pixels, [4] * 7))
        stream[row * (40 * 3 + 1)] = byte
        with pytest.raises(DecodeError, match=f"unknown filter type {byte} on row {row}$"):
            I.decode_image(png_file(ihdr(40, 7), zlib.compress(bytes(stream))))

    @pytest.mark.parametrize("height,width", [(192, 192), (2000, 200), (200, 2000)])
    def test_wavefront_storage_is_bounded_at_every_aspect_ratio(self, height, width, monkeypatch):
        # all-Paeth rows of any bytes; the peak counts the float pixels too
        rows = np.random.default_rng(11).integers(0, 256, (height, width * 3 + 1), dtype=np.uint8)
        rows[:, 0] = 4
        raw = png_file(ihdr(width, height), zlib.compress(rows.tobytes(), 1))
        force_path(monkeypatch, "wavefront")
        tracemalloc.start()
        try:
            I.decode_image(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * height * width * 3


class TestResampling:
    def test_constant_image_any_scale(self):
        img = I.Image(np.full((6, 6, 3), 0.42, dtype=np.float32))
        for hw in [(12, 12), (5, 9), (6, 6), (2, 17)]:
            out = I.resample_bicubic(img, *hw)
            assert np.abs(out.data - 0.42).max() < 1e-6

    def test_keys_kernel_midpoint_weights(self):
        # hand evaluation of the a=-0.5 kernel at offset 0.5
        w = I.keys_weights(0.5)
        assert np.allclose(w, [-1 / 16, 9 / 16, 9 / 16, -1 / 16])
        row = np.array([0.0, 1.0, 2.0, 3.0])
        assert float(row @ w) == pytest.approx(1.5)

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(6)
        img = random_image(rng)
        out = I.resample_bicubic(img, img.height, img.width)
        assert np.abs(out.data - img.data).max() < 1e-6

    def test_bicubic_reproduces_linear_ramp_interior(self):
        ramp = np.linspace(0.0, 1.0, 16)
        img = I.Image(np.stack([np.tile(ramp, (16, 1))] * 3, axis=-1))
        out = I.resample_bicubic(img, 16, 32)
        # interior columns of the upscale must stay on the ramp line
        xs = (np.arange(32) + 0.5) * 0.5 - 0.5
        expected = np.interp(xs, np.arange(16), ramp)
        interior = slice(4, 28)
        assert np.abs(out.data[8, interior, 0] - expected[interior]).max() < 1e-6

    def test_outputs_clamped(self):
        rng = np.random.default_rng(7)
        img = random_image(rng, 8, 8)
        out = I.resample_bicubic(img, 24, 24)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    @pytest.mark.parametrize("size", [(3.5, 4), (4, 4.0), (True, 4), (4, "4"), (0, 4), (4, -1), (np.int64(0), 4)])
    def test_size_that_is_not_an_integer_of_at_least_one(self, size, monkeypatch):
        monkeypatch.setattr(I, "_axis_matrix", None)  # rejected before any compute
        with pytest.raises(ShapeError, match="resample_bicubic: out_[hw] must be an integer >= 1"):
            I.resample_bicubic(I.Image(np.zeros((4, 4, 3), dtype=np.float32)), *size)

    @pytest.mark.parametrize("size", [(7681, 4320), (1, 7680 * 4320 + 1), (6000, 6000)])
    def test_output_over_the_pixel_bound_is_refused_before_any_compute(self, size, monkeypatch):
        monkeypatch.setattr(I, "_axis_matrix", None)
        h, w = size
        with pytest.raises(ShapeError, match=f"{h}x{w} is {h * w} pixels, more than {I.MAX_PIXELS}"):
            I.resample_bicubic(I.Image(np.zeros((1, 1, 3), dtype=np.float32)), *size)

    def test_numpy_integer_size(self):
        out = I.resample_bicubic(I.Image(np.zeros((4, 4, 3), dtype=np.float32)), np.int64(8), 6)
        assert out.data.shape == (8, 6, 3)

    def test_upscale_against_naive_pointwise(self):
        rng = np.random.default_rng(9)
        img = random_image(rng, 7, 7)
        out = I.resample_bicubic(img, 14, 14).data

        def naive_at(row_img, y, x):
            sy = (y + 0.5) * 0.5 - 0.5
            sx = (x + 0.5) * 0.5 - 0.5
            by, bx = int(np.floor(sy)), int(np.floor(sx))
            wy = I.keys_weights(sy - by)
            wx = I.keys_weights(sx - bx)
            wy /= wy.sum()
            wx /= wx.sum()
            acc = 0.0
            for i, ty in enumerate(range(by - 1, by + 3)):
                cy = min(max(ty, 0), 6)
                for j, tx in enumerate(range(bx - 1, bx + 3)):
                    cx = min(max(tx, 0), 6)
                    acc += wy[i] * wx[j] * row_img[cy, cx]
            return min(max(acc, 0.0), 1.0)

        for y, x in [(0, 0), (3, 5), (7, 7), (13, 13), (6, 1)]:
            assert out[y, x, 0] == pytest.approx(naive_at(img.data[:, :, 0], y, x), abs=1e-6)


class TestPairs:
    def test_constant_pair(self):
        img = I.Image(np.full((6, 6, 3), 0.5, dtype=np.float32))
        lr, hr = I.make_lr_hr_pair(img, 3)
        assert lr.data.shape == (2, 2, 3)
        assert hr.data.shape == (6, 6, 3)
        assert np.abs(lr.data - 0.5).max() < 1e-6

    def test_crop_rule(self):
        rng = np.random.default_rng(10)
        img = random_image(rng, 7, 7)
        lr, hr = I.make_lr_hr_pair(img, 3)
        assert hr.data.shape == (6, 6, 3)
        assert np.array_equal(hr.data, img.data[:6, :6])
        assert lr.data.shape == (2, 2, 3)

    def test_paper_resolution_numbers(self):
        img = I.Image(np.zeros((1080, 1920, 3), dtype=np.float32))
        lr, hr = I.make_lr_hr_pair(img, 3)
        assert (lr.height, lr.width) == (360, 640)
        assert (hr.height, hr.width) == (1080, 1920)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            I.make_lr_hr_pair(I.Image(np.zeros((2, 2, 3), dtype=np.float32)), 3)

    def test_scale_below_two(self):
        with pytest.raises(ImageError):
            I.make_lr_hr_pair(I.Image(np.zeros((4, 4, 3), dtype=np.float32)), 1)

    @pytest.mark.parametrize("scale", [2.5, 3.0, "3", True, 0, np.int64(1)])
    def test_scale_that_is_not_an_integer_of_at_least_two(self, scale, monkeypatch):
        # rejected before any compute, even for a frame smaller than 3
        monkeypatch.setattr(I, "resample_bicubic", None)
        with pytest.raises(ImageError, match="scale must be an integer >= 2") as err:
            I.make_lr_hr_pair(I.Image(np.zeros((2, 2, 3), dtype=np.float32)), scale)
        assert repr(scale) in str(err.value)

    def test_numpy_integer_scale(self):
        lr, hr = I.make_lr_hr_pair(I.Image(np.zeros((7, 7, 3), dtype=np.float32)), np.int64(3))
        assert (lr.data.shape, hr.data.shape) == ((2, 2, 3), (6, 6, 3))


def test_image_validation():
    with pytest.raises(ShapeError):
        I.Image(np.zeros((4, 4)))
    for shape in ((0, 4, 3), (4, 0, 3)):
        with pytest.raises(ShapeError, match="dimensions must be >= 1"):
            I.Image(np.zeros(shape))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ImageError, match="finite"):
            I.Image(np.full((2, 2, 3), bad))
    with pytest.raises(ImageError, match="finite"), np.errstate(over="ignore"):
        I.Image(np.full((2, 2, 3), 1e300))  # past float32's range
    img = I.Image(np.full((2, 2, 3), 1.7, dtype=np.float32))
    assert img.data.max() == 1.0


def test_image_keeps_in_range_float32_and_clips_a_copy():
    pixels = np.random.default_rng(12).random((3, 4, 3), dtype=np.float32)
    view = pixels[:, 1:]
    assert I.Image(pixels).data is pixels
    assert I.Image(view).data is view
    wide = pixels * 2.0 - 0.5
    before = wide.copy()
    clipped = I.Image(wide).data
    assert np.array_equal(clipped, np.clip(before, 0.0, 1.0)) and np.array_equal(wide, before)
    converted = I.Image(pixels.astype(np.float64)).data
    assert converted.dtype == np.float32 and np.array_equal(converted, pixels)


@pytest.mark.parametrize(
    "data",
    ["abc", np.full((2, 2, 3), "0.5"), np.full((2, 2, 3), 0.5 + 0.5j), np.full((2, 2, 3), 0.5, dtype=object)],
    ids=["str", "str_array", "complex", "object"],
)
def test_image_refuses_data_that_is_not_real_numbers(data):
    with pytest.raises(ImageError, match="real numbers"):
        I.Image(data)


def test_image_refuses_a_ragged_nested_list():
    with pytest.raises(ImageError, match="one array"):
        I.Image([[[0.1, 0.2, 0.3]], [[0.1, 0.2]]])


@pytest.mark.parametrize("raw", [None, "\x89PNG", 8, [137, 80]], ids=["None", "str", "int", "list"])
def test_decode_refuses_what_is_not_bytes(raw):
    with pytest.raises(DecodeError, match=f"needs bytes, got {type(raw).__name__}"):
        I.decode_image(raw)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_decode_takes_bytes_like_input(wrap):
    img = random_image(np.random.default_rng(9), 3, 4)
    raw = I.encode_image(img)
    assert np.array_equal(I.decode_image(wrap(raw)).data, I.decode_image(raw).data)


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float16])
def test_image_takes_bool_integer_and_float_data(dtype):
    data = np.ones((2, 2, 3), dtype=dtype)
    assert np.array_equal(I.Image(data).data, np.ones((2, 2, 3), dtype=np.float32))


@pytest.mark.parametrize(
    "call",
    [
        lambda img: I.encode_image(img),
        lambda img: I.resample_bicubic(img, 3, 3),
        lambda img: I.make_lr_hr_pair(img, 3),
    ],
    ids=["encode_image", "resample_bicubic", "make_lr_hr_pair"],
)
@pytest.mark.parametrize("frame", [np.full((6, 6, 3), 0.5), None], ids=["ndarray", "None"])
def test_a_frame_that_is_not_an_image_is_rejected(call, frame):
    with pytest.raises(ImageError, match=f"needs an Image, got {type(frame).__name__}"):
        call(frame)


# ---- property tests: mutated files fail only with typed errors ----

EDITS = st.lists(
    st.tuples(st.sampled_from(("flip", "delete", "insert")), st.integers(0, 1 << 16), st.integers(1, 255)),
    max_size=6,
)
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)


def apply_edits(raw: bytes, edits) -> bytes:
    """Flip, delete or insert one byte per edit, at a position taken
    modulo the current length."""
    buf = bytearray(raw)
    for kind, at, value in edits:
        i = at % (len(buf) + 1)
        if kind == "insert":
            buf[i:i] = bytes([value])
        elif i < len(buf):
            if kind == "flip":
                buf[i] ^= value
            else:
                del buf[i]
    return bytes(buf)


def decode_or_typed_error(raw: bytes):
    try:
        I.decode_image(raw)
    except FftsrError:
        pass


@FUZZ
@given(color_type=st.sampled_from((2, 6)), part=st.sampled_from(("file", "ihdr", "rows")), edits=EDITS)
def test_mutated_png_raises_only_typed_errors(color_type, part, edits):
    # mutating the IHDR body or the inflated rows (CRCs recomputed) gets
    # past the chunk checks; row filter bytes cycle through all five types
    channels = 3 if color_type == 2 else 4
    pixels = np.random.default_rng(color_type).integers(0, 256, (4, 5 * channels), dtype=np.uint8)
    header = ihdr(5, 4, color_type)
    rows = b"".join(bytes([y % 5]) + pixels[y].tobytes() for y in range(4))
    if part == "ihdr":
        header = apply_edits(header, edits)
    elif part == "rows":
        rows = apply_edits(rows, edits)
    raw = png_file(header, zlib.compress(rows))
    decode_or_typed_error(apply_edits(raw, edits) if part == "file" else raw)


def test_p6_stream_raises_decode_error_at_offset_0():
    # binary PPM is not read: it fails PNG's signature check
    with pytest.raises(DecodeError) as info:
        I.decode_image(b"P6\n4 3\n255\n" + bytes(range(36)))
    assert info.value.offset == 0


# ---- property test: the decoder against the spec's filter formulas ----


def paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def spec_predictors(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The predictors of filters 0..4 (RFC 2083 section 6), stacked, for
    int arrays of left, upper and upper-left bytes."""
    return np.stack([np.zeros_like(a), a, b, (a + b) // 2, paeth_predictor(a, b, c)])


def filter_rows(pixels: np.ndarray, filters) -> bytes:
    """PNG scanlines of (H, W, C) uint8 pixels, row y filtered with
    ``filters[y]`` by the RFC 2083 formulas in int64."""
    height, width, bpp = pixels.shape
    padded = np.zeros((height + 1, width + 1, bpp), dtype=np.int64)
    padded[1:, 1:] = pixels
    a, b, c = padded[1:, :-1], padded[:-1, 1:], padded[:-1, :-1]
    pred = spec_predictors(a, b, c)[np.asarray(filters), np.arange(height)]
    rows = np.empty((height, width * bpp + 1), dtype=np.uint8)
    rows[:, 0] = filters
    rows[:, 1:] = ((padded[1:, 1:] - pred) % 256).reshape(height, -1)
    return rows.tobytes()


def test_predictor_table_matches_spec_filters():
    # every (type, a, b, c) the table serves, one left byte a at a time
    b, c = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for a in range(256):
        want = spec_predictors(np.full_like(b, a), b, c)[1:]
        got = (I._PREDICTIONS[:, b - c + 255, a - c + 255] + c) % 256
        assert np.array_equal(got, want), f"a = {a}"


# the cost constants that send every span of Average and Paeth rows to the
# wavefront, or to the per-channel loop
PATHS = {"wavefront": (0, 0), "loop": (1 << 40, 0)}


def force_path(monkeypatch, path: str):
    step, byte = PATHS[path]
    monkeypatch.setattr(I, "_STEP_COST", step)
    monkeypatch.setattr(I, "_BYTE_COST", byte)


@FUZZ
@given(
    width=st.sampled_from((1, 2, 5, 37, 192)),
    channels=st.sampled_from((3, 4)),
    filters=st.lists(st.integers(0, 4), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_matches_spec_filters(width, channels, filters, seed):
    # heights on both sides of the widths, decoded on both paths
    pixels = np.random.default_rng(seed).integers(0, 256, (len(filters), width, channels), dtype=np.uint8)
    header = ihdr(width, len(filters), 2 if channels == 3 else 6)
    raw = png_file(header, zlib.compress(filter_rows(pixels, filters)))
    for path in PATHS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_path(monkeypatch, path)
            img = I.decode_image(raw)
        assert np.array_equal(np.round(img.data * 255.0), pixels[:, :, :3]), path
