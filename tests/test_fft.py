import numpy as np
import pytest

from fftsr import fft as F
from fftsr.errors import ShapeError
from fftsr.tensor import Tensor

from gradcheck import check_gradients


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


def matrix_dft1d(x, inverse=False):
    """1-D complex DFT through the cached half cosine/sine pair that the 2-D
    transforms apply along each image axis, mirrored to the full length by
    the rule they use."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    c, s = F._dft(n, np.float64)
    out = np.empty_like(x)
    F._mirror(x @ c, 1j * (x @ s), out, *((np.subtract, np.add) if inverse else (np.add, np.subtract)))
    return out / n if inverse else out


def test_delta_transforms_to_constant():
    out = matrix_dft1d([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, np.ones(4), atol=1e-12)


def test_constant_transforms_to_dc():
    out = matrix_dft1d([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(out, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_length_six_matches_naive():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.abs(matrix_dft1d(x) - naive_dft1d(x)).max() < 1e-10


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_all_lengths_match_naive(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.abs(matrix_dft1d(x) - naive_dft1d(x)).max() < 1e-9
    assert np.abs(matrix_dft1d(x, inverse=True) - naive_dft1d(x, inverse=True)).max() < 1e-9
    # the real-input matrices keep the first n // 2 + 1 bins
    cw, sw = F._dft(n, np.float64)
    half = x.real @ cw + 1j * (x.real @ sw)
    assert np.abs(half - naive_dft1d(x.real)[: F.half_width(n)]).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 17, 31, 48, 64])
def test_round_trip(n):
    rng = np.random.default_rng(n + 100)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.abs(matrix_dft1d(matrix_dft1d(x), inverse=True) - x).max() < 1e-9


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_parseval(n):
    rng = np.random.default_rng(n + 200)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xs = (np.abs(x) ** 2).sum()
    fs = (np.abs(matrix_dft1d(x)) ** 2).sum() / n
    assert abs(xs - fs) <= 1e-9 * max(1.0, abs(xs))


def test_linearity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    y = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    a, b = 1.7 - 0.3j, -0.9 + 2.1j
    lhs = matrix_dft1d(a * x + b * y)
    rhs = a * matrix_dft1d(x) + b * matrix_dft1d(y)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_batched_rows_match_per_row():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    batched = matrix_dft1d(x)
    for i in range(5):
        assert np.abs(batched[i] - matrix_dft1d(x[i])).max() < 1e-10


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
