import tracemalloc

import numpy as np
import pytest

from fftsr import fft as F
from fftsr.errors import DomainError, ShapeError
from fftsr.tensor import Tensor

from gradcheck import check_gradients
from test_tensor import by_thread_count


def naive_dft1d(x, inverse=False):
    """O(N^2) reference transform, written from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    sign = 1.0 if inverse else -1.0
    mat = np.exp(sign * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = x @ mat.T
    return out / n if inverse else out


def naive_dft2d(img):
    """Direct 2-D sum over exp(-2 pi i (kh/H + lw/W)), one bin at a time."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.complex128)
    hh, ww = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for k in range(h):
        for l in range(w):
            phase = np.exp(-2j * np.pi * (k * hh / h + l * ww / w))
            out[k, l] = (img * phase).sum()
    return out


def spectrum(s):
    """Complex form of a stored (re | im) half spectrum."""
    c = s.shape[1] // 2
    return s[:, :c] + 1j * s[:, c:]


def multiplicity(w):
    """Hermitian multiplicity of each stored column: 1 where 2l = 0 mod w, else 2."""
    return np.where(2 * np.arange(F.half_width(w)) % w == 0, 1.0, 2.0)


def along_h(fn, a, **kw):
    return np.swapaxes(fn(np.swapaxes(a, -1, -2), **kw), -1, -2)


def ref_rfft2(x):
    """``F`` from the definition: naive_dft1d along W, its first
    W // 2 + 1 bins, then naive_dft1d along H."""
    return along_h(naive_dft1d, naive_dft1d(x)[..., : F.half_width(x.shape[-1])])


def ref_irfft2(z, w):
    """``F* D`` from the definition: the inverse naive_dft1d along H, then
    each stored column weighted by its multiplicity, zero-filled to w, the
    inverse along W and its real part."""
    full = np.zeros(z.shape[:-1] + (w,), np.complex128)
    full[..., : F.half_width(w)] = along_h(naive_dft1d, z, inverse=True) * multiplicity(w)
    return naive_dft1d(full, inverse=True).real


def test_delta_transforms_to_constant():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 0, 0] = 1.0
    assert np.allclose(spectrum(F.rfft2d_array(x)), np.ones((4, 3)), atol=1e-12)
    # and a flat real half spectrum is the spectrum of a delta
    flat = np.zeros((1, 2, 4, 3))
    flat[0, 0] = 1.0
    assert np.allclose(F.irfft2d_array(flat, 4), x, atol=1e-12)


def test_constant_transforms_to_dc():
    want = np.zeros((4, 3))
    want[0, 0] = 16.0
    assert np.allclose(spectrum(F.rfft2d_array(np.ones((1, 1, 4, 4)))), want, atol=1e-12)
    dc = np.zeros((1, 2, 4, 3))
    dc[0, 0] = want
    assert np.allclose(F.irfft2d_array(dc, 4), 1.0, atol=1e-12)


def test_length_six_matches_naive():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 1, 6, 6))
    assert np.abs(spectrum(F.rfft2d_array(x))[0, 0] - naive_dft2d(x[0, 0])[:, :4]).max() < 1e-10
    s = rng.standard_normal((1, 2, 6, 4))
    assert np.abs(F.irfft2d_array(s, 6) - ref_irfft2(spectrum(s), 6)).max() < 1e-10


@pytest.mark.parametrize("n", list(range(2, 65)))
def test_all_lengths_match_naive(n):
    # n on each axis, against an odd and an even other side; lengths with a
    # large prime factor take another pocketfft algorithm
    rng = np.random.default_rng(n)
    for h, w in ((n, 5), (n, 6), (5, n), (6, n)):
        x = rng.standard_normal((1, 2, h, w))
        assert np.abs(spectrum(F.rfft2d_array(x)) - ref_rfft2(x)).max() < 1e-9
        s = rng.standard_normal((1, 4, h, F.half_width(w)))
        assert np.abs(F.irfft2d_array(s, w) - ref_irfft2(spectrum(s), w)).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 8, 12, 17, 31, 48, 64])
def test_round_trip(n):
    rng = np.random.default_rng(n + 100)
    for h, w in ((n, n), (n, n + 1), (n + 1, n)):
        x = rng.standard_normal((2, 3, h, w))
        assert np.abs(F.irfft2d_array(F.rfft2d_array(x), w) - x).max() < 1e-9


@pytest.mark.parametrize("n", list(range(2, 65)))
def test_parseval(n):
    rng = np.random.default_rng(n + 200)
    for h, w in ((n, n), (n, n + 1)):
        x = rng.standard_normal((1, 1, h, w))
        xs = (x**2).sum()
        fs = (np.abs(spectrum(F.rfft2d_array(x))) ** 2 * multiplicity(w)).sum() / (h * w)
        assert abs(xs - fs) <= 1e-9 * max(1.0, xs)


def test_linearity():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 1, 3, 7, 21))
    a, b = 1.7, -0.9
    lhs = F.rfft2d_array(a * x + b * y)
    assert np.abs(lhs - (a * F.rfft2d_array(x) + b * F.rfft2d_array(y))).max() < 1e-9
    s, t = rng.standard_normal((2, 1, 6, 7, 11))
    lhs = F.irfft2d_array(a * s + b * t, 21)
    assert np.abs(lhs - (a * F.irfft2d_array(s, 21) + b * F.irfft2d_array(t, 21))).max() < 1e-9


def test_batched_rows_match_per_row():
    # every body transforms each (image, channel) plane on its own; real
    # channel c pairs with spectrum channels c (re) and c + C (im)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 2, 12, 10))
    g = rng.standard_normal((3, 4, 12, 6))
    to_spectrum = (F.rfft2d_array, F.irfft2d_adjoint)
    to_real = (lambda a: F.rfft2d_adjoint(a, 10), lambda a: F.irfft2d_array(a, 10))
    for i in range(3):
        for c in range(2):
            real, spec = np.s_[i : i + 1, c : c + 1], np.s_[i : i + 1, c::2]
            for body in to_spectrum:
                assert np.abs(body(x[real]) - body(x)[spec]).max() < 1e-10
            for body in to_real:
                assert np.abs(body(g[spec]) - body(g)[real]).max() < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_body_keeps_the_dtype(dtype):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 9, 10)).astype(dtype)
    g = rng.standard_normal((2, 6, 9, 6)).astype(dtype)
    for out in (F.rfft2d_array(x), F.rfft2d_adjoint(g, 10), F.irfft2d_array(g, 10), F.irfft2d_adjoint(x)):
        assert out.dtype == dtype


def split(z, dtype):
    """(re | im) stacking of a complex array, in ``dtype``."""
    return np.concatenate([z.real, z.imag], axis=1).astype(dtype, copy=False)


def join(g, factor):
    """Complex array of the stacked (re | im) ``g``, each part times ``factor``."""
    c = g.shape[1] // 2
    z = np.empty(g[:, :c].shape, np.result_type(g.dtype, np.complex64))
    z.real = g[:, :c] * factor
    z.imag = g[:, c:] * factor
    return z


class TestBitIdentity:
    """Each body equals, bit for bit, the same formula written on
    ``np.fft.rfft2``/``irfft2``: the passes run one axis at a time, the
    second in place, in the order and with the norm those two use."""

    SHAPES = [(8, 13, 48, 48), (1, 13, 324, 576), (1, 13, 105, 183)] + [(2, 3, 5, w) for w in range(2, 10)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_body_matches_rfft2_and_irfft2(self, shape, dtype):
        rng = np.random.default_rng(shape[-1])
        n, c, h, w = shape
        weight = multiplicity(w).astype(dtype)
        x = rng.standard_normal(shape).astype(dtype)
        g = rng.standard_normal((n, 2 * c, h, F.half_width(w))).astype(dtype)
        forward = np.fft.rfft2(x, norm="forward")
        assert np.array_equal(F.rfft2d_array(x), split(forward * dtype(h * w), dtype))
        assert np.array_equal(F.irfft2d_adjoint(x), split(forward * weight, dtype))
        assert np.array_equal(F.irfft2d_array(g, w), np.fft.irfft2(join(g, dtype(1)), s=(h, w)))
        assert np.array_equal(F.rfft2d_adjoint(g, w), np.fft.irfft2(join(g, h * w / weight), s=(h, w)))


@pytest.mark.parametrize("channels", [1, 13, 26])
def test_split_over_channel_planes_keeps_every_bit(monkeypatch, channels):
    # the planes of one call are cut into a contiguous run per thread; a
    # single plane cannot be cut
    rng = np.random.default_rng(channels)
    x = rng.standard_normal((1, channels, 64, 90), dtype=np.float32)
    g = rng.standard_normal((1, 2 * channels, 64, F.half_width(90)), dtype=np.float32)
    runs = by_thread_count(
        monkeypatch,
        lambda: [F.rfft2d_array(x), F.rfft2d_adjoint(g, 90), F.irfft2d_array(g, 90), F.irfft2d_adjoint(x)],
        module=F,
    )
    ref = runs[1][0]
    for threads, (outs, parts) in runs.items():
        assert parts == [1 if channels == 1 else threads] * 4
        for out, want in zip(outs, ref):
            assert np.array_equal(out, want)


def test_inverse_peaks_at_twice_its_output():
    # the spectrum's complex copy and the output; an H pass out of place
    # would add a third array of the output's size
    rng = np.random.default_rng(40)
    s = rng.standard_normal((1, 26, 324, F.half_width(576)), dtype=np.float32)
    tracemalloc.start()
    try:
        out = F.irfft2d_array(s, 576)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.nbytes


class TestInputChecks:
    """The public transforms refuse, before any compute, input they do not
    define, with a typed error."""

    @pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6), (1, 1, 2, 6, 6)])
    def test_array_that_is_not_4d(self, shape):
        with pytest.raises(ShapeError, match="N, C, H, W"):
            F.rfft2d_array(np.zeros(shape))
        with pytest.raises(ShapeError, match="N, C, H, W"):
            F.irfft2d_array(np.zeros(shape[:-1] + (4,)), 6)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.bool_, np.float16, np.complex128])
    def test_dtype_that_is_not_float32_or_float64(self, dtype):
        ramp = np.arange(36).reshape(1, 1, 6, 6).astype(dtype)
        with pytest.raises(DomainError, match=np.dtype(dtype).name):
            F.rfft2d_array(ramp)
        with pytest.raises(DomainError, match=np.dtype(dtype).name):
            F.irfft2d_array(np.zeros((1, 2, 6, 4), dtype), 6)

    @pytest.mark.parametrize("h,w", [(1, 6), (6, 1), (0, 6), (6, 0), (1, 1)])
    def test_rfft2d_side_under_two(self, h, w):
        with pytest.raises(ShapeError, match=">= 2"):
            F.rfft2d_array(np.zeros((1, 1, h, w)))

    def test_irfft2d_odd_channel_count(self):
        with pytest.raises(ShapeError, match="even channel count"):
            F.irfft2d_array(np.zeros((1, 3, 6, 4)), 6)

    @pytest.mark.parametrize("h,out_w", [(1, 6), (0, 6), (6, 1), (6, 0), (1, 1)])
    def test_irfft2d_side_under_two(self, h, out_w):
        with pytest.raises(ShapeError, match=">= 2"):
            F.irfft2d_array(np.zeros((1, 2, h, F.half_width(out_w))), out_w)


class TestRfft2d:
    def test_constant_image_dc_only(self):
        c = 0.37
        x = np.full((1, 1, 6, 8), c)
        s = F.rfft2d_array(x)
        re, im = s[0, 0], s[0, 1]
        assert re[0, 0] == pytest.approx(c * 48, abs=1e-9)
        re_rest = re.copy()
        re_rest[0, 0] = 0.0
        assert np.abs(re_rest).max() < 1e-9
        assert np.abs(im).max() < 1e-9

    def test_cosine_energy_in_horizontal_bins(self):
        h, w = 8, 16
        col = np.arange(w)
        img = np.cos(2 * np.pi * col / w)[None, :].repeat(h, axis=0)
        s = F.rfft2d_array(img[None, None].astype(np.float64))
        spec = s[0, 0] + 1j * s[0, 1]
        # analytic DFT of cos(2 pi w / W): bins (0, +-1) get H*W/2 each
        expected = np.zeros_like(spec)
        expected[0, 1] = h * w / 2
        assert np.abs(spec - expected).max() < 1e-9

    @pytest.mark.parametrize("h", range(2, 17))
    def test_matches_naive_2d(self, h):
        rng = np.random.default_rng(h)
        for w in range(2, 17):
            img = rng.standard_normal((h, w))
            s = F.rfft2d_array(img[None, None])
            got = s[0, 0] + 1j * s[0, 1]
            ref = naive_dft2d(img)[:, : w // 2 + 1]
            assert np.abs(got - ref).max() < 1e-9

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_round_trip(self, dtype, tol):
        rng = np.random.default_rng(11)
        for h, w in [(4, 4), (5, 7), (6, 9), (12, 10), (48, 48)]:
            x = rng.standard_normal((2, 3, h, w)).astype(dtype)
            back = F.irfft2d_array(F.rfft2d_array(x), w)
            assert np.abs(back - x).max() < tol

    @pytest.mark.parametrize("h", [2, 3, 4, 7])
    @pytest.mark.parametrize("w", [2, 3, 4, 5, 8, 9])
    def test_matches_numpy_fft(self, h, w):
        # an arbitrary half spectrum is not the spectrum of any real
        # signal (its DC and Nyquist columns are not Hermitian), as the
        # ReLU outputs that the network inverts are not
        rng = np.random.default_rng(100 * h + w)
        x = rng.standard_normal((2, 3, h, w))
        s = F.rfft2d_array(x)
        assert np.abs(s[:, :3] + 1j * s[:, 3:] - np.fft.rfft2(x)).max() < 1e-12
        spec = rng.standard_normal((2, 6, h, w // 2 + 1))
        ref = np.fft.irfft2(spec[:, :3] + 1j * spec[:, 3:], s=(h, w))
        assert np.abs(F.irfft2d_array(spec, w) - ref).max() < 1e-14

    def test_dc_only_spectrum_gives_constant(self):
        h, w, c = 5, 6, 0.81
        s = np.zeros((1, 2, h, w // 2 + 1))
        s[0, 0, 0, 0] = h * w * c
        out = F.irfft2d_array(s, w)
        assert np.allclose(out, c, atol=1e-12)

    def test_inconsistent_width_raises(self):
        s = np.zeros((1, 2, 4, 3))
        with pytest.raises(ShapeError):
            F.irfft2d_array(s, 9)

    def test_adjoint_dot_product_identity(self):
        rng = np.random.default_rng(21)
        for h, w in [(4, 6), (5, 5), (7, 12)]:
            x = rng.standard_normal((1, 2, h, w))
            y = rng.standard_normal((1, 4, h, w // 2 + 1))
            lhs = (F.rfft2d_array(x) * y).sum()
            rhs = (x * F.rfft2d_adjoint(y, w)).sum()
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_irfft_adjoint_dot_product_identity(self):
        rng = np.random.default_rng(22)
        for h, w in [(4, 6), (5, 5), (7, 12)]:
            s = rng.standard_normal((1, 6, h, w // 2 + 1))
            g = rng.standard_normal((1, 3, h, w))
            lhs = (F.irfft2d_array(s, w) * g).sum()
            rhs = (s * F.irfft2d_adjoint(g)).sum()
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("h", range(2, 10))
    @pytest.mark.parametrize("w", range(2, 10))
    def test_adjoint_identities_at_every_small_size(self, h, w):
        # odd and even sides on both axes; a side of 2 mirrors no row
        rng = np.random.default_rng(10 * h + w)
        x = rng.standard_normal((2, 3, h, w))
        y = rng.standard_normal((2, 6, h, w // 2 + 1))
        lhs = (F.rfft2d_array(x) * y).sum()
        assert abs(lhs - (x * F.rfft2d_adjoint(y, w)).sum()) < 1e-10 * max(1.0, abs(lhs))
        lhs = (F.irfft2d_array(y, w) * x).sum()
        assert abs(lhs - (y * F.irfft2d_adjoint(x)).sum()) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("h", [32, 33, 105, 108])
    @pytest.mark.parametrize("w", [32, 33, 105, 108])
    def test_frame_sizes_match_numpy_fft(self, h, w):
        rng = np.random.default_rng(1000 * h + w)
        x = rng.standard_normal((1, 2, h, w))
        s = F.rfft2d_array(x)
        ref = np.fft.rfft2(x)
        assert np.abs(s[:, :2] + 1j * s[:, 2:] - ref).max() <= 1e-9 * np.abs(ref).max()
        spec = rng.standard_normal((1, 4, h, w // 2 + 1))
        ref = np.fft.irfft2(spec[:, :2] + 1j * spec[:, 2:], s=(h, w))
        assert np.abs(F.irfft2d_array(spec, w) - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_tensor_op_grads(self, seed):
        rng = np.random.default_rng(700 + seed)
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        x = rng.standard_normal((1, 2, h, w))
        weight = rng.standard_normal((1, 4, h, w // 2 + 1))

        def fn(ts):
            from fftsr import tensor as T

            s = F.rfft2d(ts[0])
            return T.mean(s * Tensor(weight, dtype=np.float64) + s * s)

        check_gradients(fn, [x], rng=rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_irfft_tensor_op_grads(self, seed):
        rng = np.random.default_rng(800 + seed)
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        s = rng.standard_normal((1, 4, h, w // 2 + 1))

        def fn(ts):
            from fftsr import tensor as T

            out = F.irfft2d(ts[0], w)
            return T.mean(out * out + 0.3 * out)

        check_gradients(fn, [s], rng=rng)

    def test_round_trip_gradient_is_identity_path(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((1, 2, 6, 7))
        weight = rng.standard_normal((1, 2, 6, 7))

        from fftsr import tensor as T

        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        out = F.irfft2d(F.rfft2d(xt), 7)
        T.sum(out * Tensor(weight, dtype=np.float64)).backward()
        assert np.abs(xt.grad - weight).max() < 1e-6
