import math
import re

import numpy as np
import pytest

import fftsr.tensor as T
from fftsr import losses as L
from fftsr.errors import ConfigError, ShapeError
from fftsr.tensor import Tensor

from gradcheck import check_gradients, to_float64


def rand_pair(seed, shape=(1, 3, 8, 8)):
    rng = np.random.default_rng(seed)
    return rng.random(shape), rng.random(shape)


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        x, _ = rand_pair(0)
        out = L.ssim(Tensor(x, dtype=np.float64), Tensor(x, dtype=np.float64))
        assert out.item() == 1.0

    def test_constant_images_closed_form(self):
        a, b = 0.5, 0.25
        x = Tensor(np.full((1, 3, 16, 16), a), dtype=np.float64)
        y = Tensor(np.full((1, 3, 16, 16), b), dtype=np.float64)
        expected = (2 * a * b + L.SSIM_C1) / (a * a + b * b + L.SSIM_C1)
        assert abs(L.ssim(x, y).item() - expected) < 1e-9

    def test_symmetry_bitwise(self):
        x, y = rand_pair(1, (1, 3, 12, 12))
        xt, yt = Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)
        assert L.ssim(xt, yt).item() == L.ssim(yt, xt).item()

    def test_bounded_by_one(self):
        for seed in range(5):
            x, y = rand_pair(10 + seed, (1, 3, 16, 16))
            v = L.ssim(Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)).item()
            assert -1.0 <= v <= 1.0

    def test_gradient_zero_at_identity(self):
        x, _ = rand_pair(2)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        yt = Tensor(x.copy(), dtype=np.float64)
        (-L.ssim(xt, yt)).backward()
        assert np.abs(xt.grad).max() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            L.ssim(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((1, 3, 9, 8))))

    def test_metric_wrapper_matches_tensor_path(self):
        x, y = rand_pair(3, (12, 14, 3))
        got = L.ssim_metric(x, y)
        ref = L.ssim(
            Tensor(x.transpose(2, 0, 1)[None], dtype=np.float64),
            Tensor(y.transpose(2, 0, 1)[None], dtype=np.float64),
        ).item()
        assert got == ref

    def test_metric_of_a_2d_array_is_that_of_one_channel(self):
        x, y = rand_pair(4, (12, 14))
        assert L.ssim_metric(x, y) == L.ssim_metric(x[:, :, None], y[:, :, None])

    @pytest.mark.parametrize("shape", [(8,), (1, 1, 3, 8, 8)], ids=["1d", "5d"])
    def test_metric_rejects_another_rank(self, shape):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            L.ssim_metric(np.zeros(shape), np.zeros(shape))


class TestCharbonnier:
    def test_identity_floor(self):
        x, _ = rand_pair(4)
        out = L.charbonnier(Tensor(x, dtype=np.float64), Tensor(x.copy(), dtype=np.float64))
        assert out.item() == pytest.approx(1e-3, abs=1e-15)

    def test_scalar_pair(self):
        out = L.charbonnier(Tensor([[[[1.0]]]], dtype=np.float64), Tensor([[[[0.0]]]], dtype=np.float64))
        assert out.item() == pytest.approx(math.sqrt(1 + 1e-6), abs=1e-12)

    def test_gradient_zero_at_identity(self):
        x, _ = rand_pair(5)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        L.charbonnier(xt, Tensor(x.copy(), dtype=np.float64)).backward()
        assert np.abs(xt.grad).max() == 0.0

    def test_monotone_in_error(self):
        x = np.zeros((1, 1, 4, 4))
        values = [
            L.charbonnier(Tensor(x + d, dtype=np.float64), Tensor(x, dtype=np.float64)).item()
            for d in (0.0, 0.1, 0.2, 0.5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] >= math.sqrt(1e-6)


class TestSobel:
    def test_constant_image_is_epsilon_floor(self):
        img = Tensor(np.full((1, 1, 6, 6), 0.7), dtype=np.float64)
        out = L.sobel_gradients(img).data
        assert np.abs(out - math.sqrt(L.SOBEL_EPS)).max() < 1e-12

    def test_unit_ramp_interior_response(self):
        s = 1.0
        w = np.arange(10, dtype=np.float64) * s
        img = Tensor(np.tile(w, (1, 1, 10, 1)), dtype=np.float64)
        out = L.sobel_gradients(img).data[0, 0]
        interior = out[1:-1, 1:-1]
        assert np.abs(interior - 8.0 * abs(s)).max() < 1e-6

    def test_rotation_swaps_axes(self):
        rng = np.random.default_rng(7)
        img = rng.random((1, 1, 9, 9))
        a = L.sobel_gradients(Tensor(img, dtype=np.float64)).data[0, 0]
        rot = np.rot90(img[0, 0]).copy()[None, None]
        b = L.sobel_gradients(Tensor(rot, dtype=np.float64)).data[0, 0]
        assert np.abs(np.rot90(a)[1:-1, 1:-1] - b[1:-1, 1:-1]).max() < 1e-10

    def test_too_small(self):
        with pytest.raises(ShapeError):
            L.sobel_gradients(Tensor(np.zeros((1, 1, 2, 5))))


class TestMge:
    def test_identity_zero(self):
        x, _ = rand_pair(8)
        assert L.mge_loss(Tensor(x, dtype=np.float64), Tensor(x.copy(), dtype=np.float64)).item() == 0.0

    def test_blind_to_constant_offset(self):
        x = Tensor(np.full((1, 1, 8, 8), 0.2), dtype=np.float64)
        y = Tensor(np.full((1, 1, 8, 8), 0.9), dtype=np.float64)
        assert L.mge_loss(x, y).item() < 1e-20

    def test_ramp_slope_difference(self):
        n = 12
        w = np.arange(n, dtype=np.float64)
        x = Tensor(np.tile(1.0 * w, (1, 1, n, 1)), dtype=np.float64)
        y = Tensor(np.tile(2.0 * w, (1, 1, n, 1)), dtype=np.float64)
        dx = L.sobel_gradients(x).data[0, 0]
        dy = L.sobel_gradients(y).data[0, 0]
        per_pixel = (dx - dy) ** 2
        assert np.abs(per_pixel[1:-1, 1:-1] - 64.0).max() < 1e-6


class TestAdversarial:
    def test_perfect_fooling_gen_loss_near_zero(self):
        out = L.adversarial_gen_loss(Tensor(np.ones(4), dtype=np.float64))
        assert 0.0 <= out.item() < 1e-6

    def test_half_half_disc_loss(self):
        half = Tensor(np.full(8, 0.5), dtype=np.float64)
        out = L.adversarial_disc_loss(half, half)
        assert out.item() == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_perfect_discrimination_near_zero(self):
        real = Tensor(np.full(4, 1.0 - 1e-9), dtype=np.float64)
        fake = Tensor(np.full(4, 1e-9), dtype=np.float64)
        assert L.adversarial_disc_loss(real, fake).item() < 1e-5

    def test_out_of_range_inputs_clamped(self):
        out = L.adversarial_gen_loss(Tensor(np.array([1.5, -0.2]), dtype=np.float64))
        assert np.isfinite(out.item())


class TestPerceptual:
    def setup_method(self):
        self.extractor = to_float64(L.PerceptualExtractor())

    def test_identity_zero(self):
        x, _ = rand_pair(9, (1, 3, 16, 16))
        xt = Tensor(x, dtype=np.float64)
        assert L.perceptual_loss(xt, xt, self.extractor).item() == 0.0

    def test_nonnegative(self):
        for seed in range(5):
            x, y = rand_pair(20 + seed, (1, 3, 16, 16))
            v = L.perceptual_loss(
                Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64), self.extractor
            ).item()
            assert v >= 0.0

    def test_invariant_to_extractor_scale(self):
        x, y = rand_pair(10, (1, 3, 16, 16))
        xt, yt = Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)
        base = L.perceptual_loss(xt, yt, self.extractor).item()
        scaled = to_float64(L.PerceptualExtractor())
        for _, p in scaled.named_parameters():
            p.data = p.data * 2.0
        doubled = L.perceptual_loss(xt, yt, scaled).item()
        assert abs(base - doubled) < 1e-6 * max(1.0, abs(base))

    def test_frozen(self):
        for _, p in self.extractor.named_parameters():
            assert not p.requires_grad


def half_score():
    return Tensor(np.full(1, 0.5), dtype=np.float64)


class TestTotalLoss:
    def test_all_zero_weights(self):
        zero = L.LossWeights(0, 0, 0, 0, 0)
        x, y = rand_pair(10)
        xt, yt = Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)
        extractor = to_float64(L.PerceptualExtractor())
        d_fake = Tensor(np.array([0.7, 0.3]), dtype=np.float64)
        assert L.generator_loss(xt, yt, d_fake, extractor, zero)[0].item() == 0.0

    def test_pure_ssim_at_identity(self):
        w = L.LossWeights(0, 0, 0, 1, 0)
        x, _ = rand_pair(11)
        xt = Tensor(x, dtype=np.float64)
        out, _ = L.generator_loss(xt, xt, half_score(), to_float64(L.PerceptualExtractor()), w)
        assert out.item() == -1.0

    def test_identity_composition_with_unit_weights(self):
        w = L.LossWeights()
        x, _ = rand_pair(12)
        xt = Tensor(x, dtype=np.float64)
        yt = Tensor(x.copy(), dtype=np.float64)
        extractor = to_float64(L.PerceptualExtractor())
        total, _ = L.generator_loss(xt, yt, half_score(), extractor, w)
        # at x = y only the adversarial term and the two floors survive
        assert total.item() == pytest.approx(math.log(2) - 1.0 + 1e-3, abs=1e-9)

    def test_terms_are_named_in_summation_order(self):
        x, y = rand_pair(15)
        xt, yt = Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)
        extractor = to_float64(L.PerceptualExtractor())
        total, terms = L.generator_loss(xt, yt, half_score(), extractor, L.LossWeights())
        assert list(terms) == ["g_adv", "g_perc", "g_mge", "g_ssim", "g_charb"]
        assert terms["g_ssim"].item() == L.ssim(xt, yt).item()
        a, p, m, s, c = (t.item() for t in terms.values())
        assert total.item() == pytest.approx(a + p + m - s + c, abs=1e-12)

    def test_default_weights_are_unit(self):
        w = L.LossWeights()
        assert (w.adversarial, w.perceptual, w.mge, w.ssim, w.charbonnier) == (1, 1, 1, 1, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            L.LossWeights(adversarial=-1.0)


class TestPsnr:
    def test_shapes_that_differ(self):
        with pytest.raises(ShapeError, match=re.escape("psnr: shapes (8, 8, 3) and (8, 9, 3) differ")):
            L.psnr(np.zeros((8, 8, 3)), np.zeros((8, 9, 3)))

    def test_identical_is_infinite(self):
        x, _ = rand_pair(13)
        assert L.psnr(x, x) == math.inf

    def test_uniform_tenth_error(self):
        x = np.zeros((8, 8, 3))
        assert abs(L.psnr(x + 0.1, x) - 20.0) < 1e-9

    def test_uniform_hundredth_error(self):
        x = np.zeros((8, 8, 3))
        assert abs(L.psnr(x + 0.01, x) - 40.0) < 1e-9

    def test_strictly_decreasing_in_noise(self):
        rng = np.random.default_rng(14)
        x = rng.random((16, 16, 3))
        noise = rng.standard_normal(x.shape)
        values = [L.psnr(x + a * noise, x) for a in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("seed", range(20))
def test_all_five_losses_grads(seed):
    """Finite-difference suite over every differentiable loss term."""
    rng = np.random.default_rng(1300 + seed)
    x, y = rand_pair(1400 + seed)
    extractor = to_float64(L.PerceptualExtractor())

    def fn(ts):
        xt, yt = ts
        d_fake = T.sigmoid(T.mean(xt * yt, axes=(1, 2, 3)))
        return L.generator_loss(xt, yt, d_fake, extractor, L.LossWeights())[0]

    check_gradients(fn, [x, y], rng=rng, max_coords_per_tensor=8)


@pytest.mark.parametrize("seed", range(6))
def test_disc_loss_grads(seed):
    rng = np.random.default_rng(1500 + seed)
    r = rng.random(6) * 0.8 + 0.1
    f = rng.random(6) * 0.8 + 0.1

    def fn(ts):
        return L.adversarial_disc_loss(ts[0], ts[1])

    check_gradients(fn, [r, f], rng=rng)
