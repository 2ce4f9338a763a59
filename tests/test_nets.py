import copy
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fftsr.tensor as T
from fftsr import nets as N
from fftsr.errors import GraphError, ShapeError
from fftsr.fft import irfft2d, rfft2d
from fftsr.losses import PerceptualExtractor
from fftsr.tensor import Tensor

from gradcheck import check_param_gradients, to_float64


def make_block(alpha, channels=8, seed=0):
    rng = np.random.default_rng(seed)
    return to_float64(N.FfcBlock(rng, channels, alpha, 3))


class TestFfcBlock:
    def test_alpha_zero_is_plain_conv_path(self):
        rng = np.random.default_rng(1)
        block = make_block(0.0)
        x = Tensor(rng.standard_normal((2, 8, 10, 10)), dtype=np.float64)
        got = block(x, training=True).data
        ref_conv = T.conv2d(x, block.conv_from_l.w, None, padding=1, pad_mode="reflect")
        bn = to_float64(N.BatchNorm2d(8))
        ref = T.relu(bn(ref_conv)).data
        assert np.abs(got - ref).max() < 1e-6

    def test_alpha_one_is_pure_spectral_path(self):
        rng = np.random.default_rng(2)
        block = make_block(1.0)
        x = Tensor(rng.standard_normal((1, 8, 8, 8)), dtype=np.float64)
        got = block(x, training=True).data
        bn = to_float64(N.BatchNorm2d(8))
        ref = T.relu(bn(block.spectral(x, True))).data
        assert np.abs(got - ref).max() < 1e-6
        assert not hasattr(block, "conv_from_l")

    def test_zeroed_spectral_leaves_local_paths(self):
        rng = np.random.default_rng(3)
        block = make_block(0.5)
        for name in ("conv_in", "conv_freq", "conv_out"):
            conv = getattr(block.spectral, name)
            conv.w.data = np.zeros_like(conv.w.data)
            if conv.b is not None:
                conv.b.data = np.zeros_like(conv.b.data)
        x = Tensor(np.full((1, 8, 8, 8), 0.3), dtype=np.float64)
        got = block(x, training=True).data
        x_l, x_g = T.split_channels(x, [block.l, block.g])
        both = block.conv_from_l(x_l)
        to_l, to_g = T.split_channels(both, [block.l, block.g])
        bn_l = to_float64(N.BatchNorm2d(block.l))
        bn_g = to_float64(N.BatchNorm2d(block.g))
        ref = T.concat(
            [T.relu(bn_l(to_l + block.conv_gl(x_g))), T.relu(bn_g(to_g))], axis=1
        ).data
        assert np.abs(got - ref).max() < 1e-6

    def test_channel_mismatch(self):
        block = make_block(0.5)
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 5, 8, 8)), dtype=np.float64), training=False)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        alpha = [0.0, 0.25, 0.5, 1.0][seed % 4]
        block = make_block(alpha, channels=6, seed=seed)
        x = Tensor(rng.standard_normal((1, 6, 8, 8)), requires_grad=True, dtype=np.float64)
        weight = rng.standard_normal((1, 6, 8, 8))

        def loss():
            return T.mean(block(x, training=True) * Tensor(weight, dtype=np.float64))

        params = list(block.named_parameters()) + [("input", x)]
        check_param_gradients(loss, params, rng=rng, max_coords_per_tensor=3)


class TestSpectralTransform:
    def _identity_transform(self, ch):
        rng = np.random.default_rng(0)
        st = to_float64(N.SpectralTransform(rng, ch))
        eye = np.eye(ch)[:, :, None, None]
        st.conv_in.w.data = eye.copy()
        st.conv_in.b.data = np.zeros(ch)
        st.conv_freq.w.data = np.eye(2 * ch)[:, :, None, None].copy()
        st.conv_out.w.data = eye.copy()
        return st

    def test_identity_convs_match_hand_composition(self):
        ch = 3
        st = self._identity_transform(ch)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, ch, 6, 6)), dtype=np.float64)
        got = st(x, training=False).data
        # eval-mode norm with fresh running stats is identity up to eps scaling
        spec = rfft2d(x)
        scale, shift = st.bn_freq.affine()
        spec = Tensor(spec.data * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1))
        ref = irfft2d(T.relu(spec), 6).data
        assert np.abs(got - ref).max() < 1e-6

    def test_single_frequency_locality(self, monkeypatch):
        monkeypatch.setattr(T, "BN_EPS", 0.0)
        ch = 2
        st = self._identity_transform(ch)
        st.conv_freq.w.data = 2.0 * np.eye(2 * ch)[:, :, None, None]
        h, w = 8, 8
        col = np.arange(w)
        base = np.cos(2 * np.pi * col / w)[None, :].repeat(h, axis=0)
        x = np.stack([base, base])[None]  # positive spectrum at bins (0, +-1)
        out = st(Tensor(x, dtype=np.float64), training=False).data
        spec_in = rfft2d(Tensor(x, dtype=np.float64)).data
        spec_out = rfft2d(Tensor(out, dtype=np.float64)).data
        assert np.abs(spec_out - 2.0 * spec_in).max() < 1e-8
        assert np.abs(out - 2.0 * x).max() < 1e-10

    def test_too_small_input(self):
        st = self._identity_transform(2)
        with pytest.raises(ShapeError):
            st(Tensor(np.zeros((1, 2, 1, 4)), dtype=np.float64), training=False)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        st = to_float64(N.SpectralTransform(np.random.default_rng(seed), 3))
        x = Tensor(rng.standard_normal((1, 3, 6, 7)), requires_grad=True, dtype=np.float64)

        def loss():
            out = st(x, training=True)
            return T.mean(out * out)

        params = list(st.named_parameters()) + [("input", x)]
        check_param_gradients(loss, params, rng=rng, max_coords_per_tensor=3)


def seed_norms(module, rng):
    """Give every BatchNorm in ``module`` non-trivial parameters and
    running statistics, in float64."""
    # each norm owns two buffers, so it is listed twice
    for bn in {id(bn): bn for _, bn, _ in module.named_buffers()}.values():
        c = bn.gamma.shape[0]
        bn.gamma.data = rng.uniform(0.5, 1.5, c)
        bn.beta.data = rng.standard_normal(c)
        bn.running_mean = rng.standard_normal(c)
        bn.running_var = rng.uniform(0.05, 2.0, c)
    return module


def norm_ref(bn, x):
    """Eval-mode BatchNorm written out from the running statistics."""
    view = lambda a: a.reshape(1, -1, 1, 1)
    xhat = (x.data - view(bn.running_mean)) / np.sqrt(view(bn.running_var) + T.BN_EPS)
    return Tensor(view(bn.gamma.data) * xhat + view(bn.beta.data))


def spectral_ref(st, x):
    spec = T.relu(norm_ref(st.bn_freq, st.conv_freq(rfft2d(st.conv_in(x)))))
    return st.conv_out(irfft2d(spec, x.shape[3]))


def block_ref(block, x):
    if not block.g:
        return T.relu(norm_ref(block.bn_l, block.conv_from_l(x)))
    if not block.l:
        return T.relu(norm_ref(block.bn_g, spectral_ref(block.spectral, x)))
    x_l, x_g = T.split_channels(x, [block.l, block.g])
    to_l, to_g = T.split_channels(block.conv_from_l(x_l), [block.l, block.g])
    local = T.relu(norm_ref(block.bn_l, to_l + block.conv_gl(x_g)))
    glob = T.relu(norm_ref(block.bn_g, to_g + spectral_ref(block.spectral, x_g)))
    return T.concat([local, glob], axis=1)


def generator_ref(gen, x):
    h = T.relu(gen.head(x))
    for block in gen.blocks:
        h = block_ref(block, h)
    return T.tanh(gen.tail(h))


def spectral_folded_ref(st, x, *affine):
    """The eval spectral transform as separate tensor ops, each of which
    writes a new array."""
    spec = T.relu(st.conv_freq(rfft2d(st.conv_in(x)), *st.bn_freq.affine()))
    return st.conv_out(irfft2d(spec, x.shape[3]), *affine)


def block_folded_ref(block, x):
    """The eval block as separate tensor ops: the same folded convs, summed
    and activated in new arrays, then joined by a concat."""
    if not block.g:
        return T.relu(block.conv_from_l(x, *block.bn_l.affine()))
    if not block.l:
        return T.relu(spectral_folded_ref(block.spectral, x, *block.bn_g.affine()))
    (s_l, t_l), (s_g, t_g) = block.bn_l.affine(), block.bn_g.affine()
    x_l, x_g = T.split_channels(x, [block.l, block.g])
    both = block.conv_from_l(x_l, np.concatenate([s_l, s_g]), np.concatenate([t_l, t_g]))
    to_l, to_g = T.split_channels(both, [block.l, block.g])
    local = T.relu(to_l + block.conv_gl(x_g, s_l))
    glob = T.relu(to_g + spectral_folded_ref(block.spectral, x_g, s_g))
    return T.concat([local, glob], axis=1)


def generator_folded_ref(gen, x):
    h = T.relu(gen.head(x))
    for block in gen.blocks:
        h = block_folded_ref(block, h)
    return T.tanh(gen.tail(h))


def state_bytes(module):
    arrays = {name: t.data for name, t in module.named_parameters()}
    arrays.update({name: getattr(owner, attr) for name, owner, attr in module.named_buffers()})
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


class TestEvalFold:
    """The eval forward folds every BatchNorm into the convs that feed it;
    it must equal the unfolded convs followed by the affine map."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
    def test_generator_matches_unfolded(self, fraction):
        rng = np.random.default_rng(20)
        cfg = N.GeneratorConfig(blocks=2, width=8, global_fraction=fraction)
        gen = seed_norms(to_float64(N.Generator(cfg, np.random.default_rng(1))), rng)
        x = Tensor(rng.random((1, 3, 12, 14)), dtype=np.float64)
        with T.no_grad():
            assert_close(gen(x, training=False).data, generator_ref(gen, x).data)

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
    def test_block_matches_unfolded(self, fraction):
        rng = np.random.default_rng(21)
        block = seed_norms(make_block(fraction, seed=2), rng)
        x = Tensor(rng.standard_normal((2, 8, 9, 10)), dtype=np.float64)
        assert_close(block(x, training=False).data, block_ref(block, x).data)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_spectral_transform_matches_unfolded(self, fraction):
        rng = np.random.default_rng(22)
        st = make_block(fraction, seed=3).spectral
        seed_norms(st, rng)
        x = Tensor(rng.standard_normal((2, st.conv_in.w.shape[0], 9, 10)), dtype=np.float64)
        assert_close(st(x, training=False).data, spectral_ref(st, x).data)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_eval_block_records_no_graph(self, fraction):
        # its folded kernels are fresh leaves, so a graph through them
        # would leave the block's parameters without gradients
        block = make_block(fraction, seed=4)
        x = Tensor(np.random.default_rng(24).standard_normal((1, 8, 8, 8)), requires_grad=True, dtype=np.float64)
        out = block(x, training=False)
        assert not out.requires_grad
        with pytest.raises(GraphError, match="not tracked"):
            T.mean(out).backward()
        assert x.grad is None

    def test_eval_block_frees_its_intermediates_early(self):
        # a paper-scale width at the largest HR frame of the upscale benchmark
        x = Tensor(np.random.default_rng(25).standard_normal((1, 26, 324, 576), dtype=np.float32))
        # the output is 18.5 MiB. At fraction 0.5 the block sums into and
        # activates conv_from_l's output in place and peaks at 38.0 MiB;
        # a new array for each sum and ReLU and a concat took it to 47.3.
        # Pure global peaks in the spectral transform, at 55.7 MiB, while
        # conv_in's output, the complex spectrum and its (re | im) split
        # are alive together
        for fraction, bound_mib in ((0.0, 42), (0.5, 42), (1.0, 60)):
            block = N.FfcBlock(np.random.default_rng(23), 26, fraction, 3)
            tracemalloc.start()
            try:
                with T.no_grad():
                    out = block(x, training=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, fraction
            with T.no_grad():
                assert np.array_equal(out.data, block_folded_ref(block, x).data), fraction

    @pytest.mark.parametrize("fraction, blocks", [(0.0, 2), (0.5, 2), (1.0, 2), (0.5, 0)])
    def test_eval_generator_writes_only_its_own_arrays(self, fraction, blocks):
        rng = np.random.default_rng(26)
        gen = N.Generator(N.GeneratorConfig(blocks=blocks, width=8, global_fraction=fraction), rng)
        gen(Tensor(rng.random((2, 3, 12, 14), dtype=np.float32)), training=True)  # moves the running stats
        x = Tensor(rng.random((1, 3, 12, 14), dtype=np.float32))
        x_before, state_before = x.data.copy(), state_bytes(gen)
        out = gen(x, training=False)
        assert np.array_equal(x.data, x_before) and state_bytes(gen) == state_before
        assert not np.shares_memory(out.data, x.data)
        with T.no_grad():
            assert np.array_equal(out.data, generator_folded_ref(gen, x).data)


def started_threads(monkeypatch) -> list:
    """Names of the threads started from here on."""
    names, start = [], threading.Thread.start

    def spy(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def _inline_noise_ref(gen, up, ns):
    """The training forward with each gap's noise drawn inline on the
    calling thread, one serial draw after another."""
    amp = ns.sigma0 * ns.multiplier
    h = T.relu(gen.head(up))
    for i, block in enumerate(gen.blocks):
        h = block(h, True)
        if i < len(gen.blocks) - 1:
            h = h + Tensor(ns.rng.standard_normal(h.shape).astype(h.dtype) * h.dtype.type(amp))
    return T.tanh(gen.tail(h))


class _SlowRng:
    """Draws from ``rng``, each draw ``delay`` s late; the ``fail_at``-th raises."""

    def __init__(self, rng, fail_at=None, delay=0.0):
        self.rng, self.fail_at, self.delay, self.calls = rng, fail_at, delay, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        time.sleep(self.delay)
        if self.calls == self.fail_at:
            raise MemoryError("draw failed")
        return self.rng.standard_normal(*args, **kwargs)


class TestNoise:
    def test_eval_mode_bitwise_identity(self, monkeypatch):
        rng = np.random.default_rng(5)
        gen = N.Generator(N.GeneratorConfig(blocks=3, width=8), rng)
        x = Tensor(rng.random((2, 3, 10, 10), dtype=np.float32))
        ns = N.NoiseState(sigma0=0.3, rng=np.random.default_rng(0))
        before, started = ns.rng.bit_generator.state, started_threads(monkeypatch)
        out = gen(x, noise=ns, training=False)
        assert np.array_equal(out.data, gen(x, training=False).data)
        assert ns.rng.bit_generator.state == before and "fftsr-noise" not in started
        assert N.inject_noise(x, None) is x

    def test_zero_multiplier_identity(self, monkeypatch):
        rng = np.random.default_rng(6)
        gen = N.Generator(N.GeneratorConfig(blocks=3, width=8), rng)
        x = Tensor(rng.random((2, 3, 10, 10), dtype=np.float32))
        ns = N.NoiseState(sigma0=0.3, rng=np.random.default_rng(0), ema=0.0, initial=1.0)
        before, started = ns.rng.bit_generator.state, started_threads(monkeypatch)
        assert ns.draws((2, 4, 6, 6), np.float32, 2) is None
        out = gen(x, noise=ns, training=True)
        assert np.array_equal(out.data, gen(x, training=True).data)
        assert ns.rng.bit_generator.state == before and "fftsr-noise" not in started

    def test_sample_variance_matches_amplitude(self):
        x = Tensor(np.zeros((1, 1, 320, 320), dtype=np.float32))
        ns = N.NoiseState(sigma0=0.2, rng=np.random.default_rng(42), ema=0.7, initial=1.0)
        draws = ns.draws(x.shape, x.dtype, 1)
        out = N.inject_noise(x, draws)
        draws.join()
        sample_var = float(out.data.var())
        expected = (0.2 * 0.7) ** 2
        assert abs(sample_var - expected) < 0.02 * expected

    def test_draws_are_the_serial_draws_in_order(self):
        shape, amp = (2, 5, 7, 9), 0.2 * 0.7
        ns = N.NoiseState(sigma0=0.2, rng=np.random.default_rng(42), ema=0.7, initial=1.0)
        serial = np.random.default_rng(42)
        draws = ns.draws(shape, np.float32, 3)
        got = [draws._take() for _ in range(3)]
        draws.join()
        for a in got:
            assert a.dtype == np.float32
            assert np.array_equal(a, serial.standard_normal(shape).astype(np.float32) * np.float32(amp))
        assert ns.rng.bit_generator.state == serial.bit_generator.state

    def test_the_producer_allocates_nothing_large(self):
        shape, count = (4, 8, 32, 32), 3
        ns = N.NoiseState(sigma0=0.1, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            draws = ns.draws(shape, np.float32, count)
            draws.join()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the caller's arrays and one float64 scratch array, and no more
        size = int(np.prod(shape))
        assert peak < count * 4 * size + 8 * size + (64 << 10)

    @pytest.mark.parametrize("blocks", [2, 3, 6])
    def test_forward_and_gradients_equal_inline_draws(self, blocks):
        rng = np.random.default_rng(31)
        gen = N.Generator(N.GeneratorConfig(blocks=blocks, width=8), rng)
        ref_gen = copy.deepcopy(gen)
        up = Tensor(rng.random((2, 3, 12, 14), dtype=np.float32))
        ns, ref_ns = (N.NoiseState(sigma0=0.3, rng=np.random.default_rng(2)) for _ in range(2))
        out, ref = gen(up, noise=ns, training=True), _inline_noise_ref(ref_gen, up, ref_ns)
        assert np.array_equal(out.data, ref.data)
        T.mean(out * out).backward()
        T.mean(ref * ref).backward()
        for (name, p), (_, q) in zip(gen.named_parameters(), ref_gen.named_parameters()):
            assert np.array_equal(p.grad, q.grad), name
        assert ns.rng.bit_generator.state == ref_ns.rng.bit_generator.state

    @pytest.mark.parametrize("blocks", [0, 1, 2, 5])
    def test_a_forward_draws_blocks_minus_one_arrays(self, monkeypatch, blocks):
        rng = np.random.default_rng(32)
        gen = N.Generator(N.GeneratorConfig(blocks=blocks, width=8), rng)
        up = Tensor(rng.random((2, 3, 10, 10), dtype=np.float32))
        ns, serial = N.NoiseState(sigma0=0.3, rng=np.random.default_rng(3)), np.random.default_rng(3)
        started = started_threads(monkeypatch)
        gen(up, noise=ns, training=True)
        for _ in range(blocks - 1):
            serial.standard_normal((2, 8, 10, 10))
        assert ns.rng.bit_generator.state == serial.bit_generator.state
        assert started.count("fftsr-noise") == (blocks >= 2)

    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_a_failing_draw_raises_on_the_caller_and_leaves_no_thread(self, fail_at):
        rng = np.random.default_rng(33)
        gen = N.Generator(N.GeneratorConfig(blocks=4, width=8), rng)
        up = Tensor(rng.random((2, 3, 10, 10), dtype=np.float32))
        ns = N.NoiseState(sigma0=0.3, rng=_SlowRng(np.random.default_rng(4), fail_at))
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            gen(up, noise=ns, training=True)
        assert threading.active_count() == threads
        assert ns.rng.calls == fail_at

    def test_a_failing_block_joins_the_producer(self):
        rng = np.random.default_rng(34)
        gen = N.Generator(N.GeneratorConfig(blocks=4, width=8), rng)
        up = Tensor(rng.random((2, 3, 10, 10), dtype=np.float32))
        # the draws outlast the failing block, so only a join ends the producer in time
        ns = N.NoiseState(sigma0=0.3, rng=_SlowRng(np.random.default_rng(5), delay=0.05))

        def fail(x, training):
            raise ShapeError("block failed")

        gen.blocks[1] = fail
        threads = threading.active_count()
        with pytest.raises(ShapeError, match="block failed"):
            gen(up, noise=ns, training=True)
        assert threading.active_count() == threads and ns.rng.calls == 3

    @pytest.fixture
    def anneal(self, monkeypatch):
        monkeypatch.setattr(N, "EMA_DECAY", 0.5)  # so the EMAs below are round

        def run(losses, warmup_steps):
            ns = N.NoiseState(sigma0=0.1, rng=np.random.default_rng(0), warmup_steps=warmup_steps)
            multipliers = []
            for step, loss in enumerate(losses):
                ns.anneal(loss, step)
                multipliers.append(ns.multiplier)
            return ns, multipliers

        return run

    def test_anneal_holds_one_through_warmup_then_follows_the_ema(self, anneal):
        # EMA 4, 3 (the baseline), 2, 1.5, then above the baseline
        ns, multipliers = anneal([4.0, 2.0, 1.0, 1.0, 20.0], warmup_steps=2)
        assert ns.initial == 3.0
        assert multipliers == [1.0, 1.0, 2.0 / 3.0, 0.5, 1.0]

    def test_multiplier_is_exactly_one_at_the_baseline_step(self, anneal):
        ns, multipliers = anneal([0.1, 0.2, 0.7], warmup_steps=3)
        assert ns.initial == ns.ema and multipliers == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("warmup_steps, losses", [(0, [4.0, 2.0, 1.0, 0.5]), (2, [0.0, 0.0, 5.0, 1.0])])
    def test_no_warmup_or_a_zero_baseline_keeps_one(self, anneal, warmup_steps, losses):
        _, multipliers = anneal(losses, warmup_steps)
        assert multipliers == [1.0] * len(losses)


class TestGenerator:
    def test_zero_tail_gives_zero_residual(self):
        rng = np.random.default_rng(7)
        gen = N.Generator(N.GeneratorConfig(blocks=2, width=8, zero_tail=True), rng)
        up = Tensor(rng.random((1, 3, 12, 12)).astype(np.float32))
        res = gen(up)
        assert np.array_equal(res.data, np.zeros_like(res.data))
        sr = T.clamp(up + res, 0.0, 1.0)
        assert np.array_equal(sr.data, up.data)

    def test_default_parameter_budget(self):
        gen = N.Generator(N.GeneratorConfig(), np.random.default_rng(0))
        count = N.count_parameters(gen)
        assert 33_000 <= count <= 40_000

    @pytest.mark.parametrize("hw", [(12, 12), (17, 23), (31, 48), (48, 33)])
    def test_output_shape_matches_input(self, hw):
        rng = np.random.default_rng(8)
        gen = N.Generator(N.GeneratorConfig(blocks=2, width=8), rng)
        x = Tensor(rng.random((1, 3, *hw)).astype(np.float32))
        assert gen(x).shape == (1, 3, *hw)

    def test_residual_bounded(self):
        rng = np.random.default_rng(9)
        gen = N.Generator(N.GeneratorConfig(blocks=2, width=8), rng)
        x = Tensor(rng.random((2, 3, 16, 16)).astype(np.float32))
        out = gen(x).data
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_forward_determinism_with_noise_seed(self):
        rng = np.random.default_rng(10)
        gen = N.Generator(N.GeneratorConfig(blocks=2, width=8), rng)
        x = Tensor(rng.random((1, 3, 12, 12)).astype(np.float32))
        a = gen(x, noise=N.NoiseState(0.1, np.random.default_rng(5)), training=True).data
        b = gen(x, noise=N.NoiseState(0.1, np.random.default_rng(5)), training=True).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_full_network_grads(self, seed):
        rng = np.random.default_rng(1100 + seed)
        gen = to_float64(N.Generator(N.GeneratorConfig(blocks=2, width=6), np.random.default_rng(seed)))
        x = Tensor(rng.random((1, 3, 12, 12)), requires_grad=True, dtype=np.float64)

        def loss():
            out = gen(x, training=True)
            return T.mean(out * out + 0.5 * out)

        params = list(gen.named_parameters()) + [("input", x)]
        check_param_gradients(loss, params, rng=rng, max_coords_per_tensor=2)

    def test_no_dead_parameters_at_init(self):
        rng = np.random.default_rng(11)
        gen = N.Generator(N.GeneratorConfig(), np.random.default_rng(3))
        x = Tensor(rng.random((2, 3, 24, 24)).astype(np.float32), requires_grad=False)
        out = gen(x, training=True)
        T.mean(out * out + out * 0.3).backward()
        for name, p in gen.named_parameters():
            assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"

    def test_eval_forward_records_no_graph(self):
        # the folded kernels are fresh arrays: a graph through them would
        # reach only the head, the tail and each spectral conv_in
        rng = np.random.default_rng(14)
        gen = N.Generator(N.GeneratorConfig(blocks=2, width=8), rng)
        x = Tensor(rng.random((1, 3, 12, 12)).astype(np.float32), requires_grad=True)
        assert not gen(x, training=False).requires_grad
        assert gen(x, training=True).requires_grad


class TestDiscriminator:
    def test_output_range_and_shape(self):
        rng = np.random.default_rng(12)
        disc = N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(0))
        r = Tensor((rng.random((4, 3, 24, 24)) * 2 - 1).astype(np.float32))
        out = disc(r).data
        assert out.shape == (4,)
        assert np.all(out > 0) and np.all(out < 1)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        disc = N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(0))
        r = (rng.random((4, 3, 16, 16)) * 2 - 1).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        a = disc(Tensor(r)).data
        b = disc(Tensor(r[perm])).data
        assert np.allclose(a[perm], b, atol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_full_network_grads(self, seed):
        rng = np.random.default_rng(1200 + seed)
        disc = to_float64(N.Discriminator(N.DiscriminatorConfig(width=6, layers=2), np.random.default_rng(seed)))
        x = Tensor(rng.standard_normal((1, 3, 12, 12)) * 0.5, requires_grad=True, dtype=np.float64)

        def loss():
            return T.mean(disc(x))

        params = list(disc.named_parameters()) + [("input", x)]
        check_param_gradients(loss, params, rng=rng, max_coords_per_tensor=2)

    def test_no_dead_parameters_at_init(self):
        rng = np.random.default_rng(14)
        disc = N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(1))
        x = Tensor((rng.random((2, 3, 24, 24)) * 2 - 1).astype(np.float32))
        T.mean(disc(x)).backward()
        for name, p in disc.named_parameters():
            assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"


class TestParameterCount:
    def test_single_conv_with_bias(self):
        conv = N.Conv2d(np.random.default_rng(0), 3, 3, kernel=3, bias=True)
        assert N.count_parameters(conv) == 84

    def test_alpha_zero_block_equals_conv_plus_norm(self):
        block = make_block(0.0, channels=10)
        assert N.count_parameters(block) == 10 * 10 * 9 + 2 * 10

    def test_count_is_deterministic(self):
        a = N.Generator(N.GeneratorConfig(), np.random.default_rng(0))
        b = N.Generator(N.GeneratorConfig(), np.random.default_rng(99))
        assert N.count_parameters(a) == N.count_parameters(b)

    def test_default_counts(self):
        gen = N.Generator(N.GeneratorConfig(), np.random.default_rng(0))
        disc = N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(0))
        assert (N.count_parameters(gen), N.count_parameters(disc)) == (35_597, 23_649)


# the default networks' state, written out: the checkpoint keys and AdamW's
# moment order follow these names, so a layer's attribute order is fixed
BLOCK_PARAMS = [
    ("conv_from_l.w", (26, 13, 3, 3)),
    ("conv_gl.w", (13, 13, 3, 3)),
    ("spectral.conv_in.w", (13, 13, 1, 1)),
    ("spectral.conv_in.b", (13,)),
    ("spectral.conv_freq.w", (26, 26, 1, 1)),
    ("spectral.bn_freq.gamma", (26,)),
    ("spectral.bn_freq.beta", (26,)),
    ("spectral.conv_out.w", (13, 13, 1, 1)),
    ("bn_l.gamma", (13,)),
    ("bn_l.beta", (13,)),
    ("bn_g.gamma", (13,)),
    ("bn_g.beta", (13,)),
]
GENERATOR_PARAMS = [
    ("head.w", (26, 3, 3, 3)),
    ("head.b", (26,)),
    *[(f"blocks{i}.{name}", shape) for i in range(6) for name, shape in BLOCK_PARAMS],
    ("tail.w", (3, 26, 3, 3)),
    ("tail.b", (3,)),
]
GENERATOR_BUFFERS = [
    f"blocks{i}.{norm}.{stat}"
    for i in range(6)
    for norm in ("spectral.bn_freq", "bn_l", "bn_g")
    for stat in ("running_mean", "running_var")
]
DISCRIMINATOR_PARAMS = [
    ("convs0.w", (16, 3, 3, 3)),
    ("convs0.b", (16,)),
    ("convs1.w", (32, 16, 3, 3)),
    ("convs1.b", (32,)),
    ("convs2.w", (64, 32, 3, 3)),
    ("convs2.b", (64,)),
    ("fc.w", (64, 1)),
    ("fc.b", (1,)),
]


def submodules(module):
    """``module`` and every module under it, each once."""
    yield module
    for val in vars(module).values():
        for child in val if isinstance(val, (list, tuple)) else [val]:
            if isinstance(child, N.Module):
                yield from submodules(child)


class TestStateNames:
    def test_default_generator_state(self):
        gen = N.Generator(N.GeneratorConfig(), np.random.default_rng(0))
        assert [(name, p.shape) for name, p in gen.named_parameters()] == GENERATOR_PARAMS
        assert [name for name, _, _ in gen.named_buffers()] == GENERATOR_BUFFERS

    def test_default_discriminator_state(self):
        disc = N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(0))
        assert [(name, p.shape) for name, p in disc.named_parameters()] == DISCRIMINATOR_PARAMS
        assert list(disc.named_buffers()) == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: N.Generator(N.GeneratorConfig(), np.random.default_rng(0)),
            lambda: N.Generator(N.GeneratorConfig(global_fraction=0.0, blocks=2), np.random.default_rng(0)),
            lambda: N.Generator(N.GeneratorConfig(global_fraction=1.0, blocks=2), np.random.default_rng(0)),
            lambda: N.Discriminator(N.DiscriminatorConfig(), np.random.default_rng(0)),
            lambda: PerceptualExtractor(),
        ],
        ids=["generator", "all_local", "all_global", "discriminator", "perceptual"],
    )
    def test_every_tensor_and_array_attribute_is_listed_once(self, build):
        module = build()
        params, buffers = [], []
        for m in submodules(module):
            for attr, val in vars(m).items():
                if isinstance(val, Tensor):
                    params.append(id(val))
                elif isinstance(val, np.ndarray):
                    buffers.append((id(m), attr))
        named_params = list(module.named_parameters())
        named_buffers = list(module.named_buffers())
        assert sorted(id(p) for _, p in named_params) == sorted(params)
        assert sorted((id(owner), attr) for _, owner, attr in named_buffers) == sorted(buffers)
        names = [name for name, _ in named_params] + [name for name, _, _ in named_buffers]
        assert len(set(names)) == len(names)
        assert all(name.rsplit(".", 1)[-1] == attr for name, _, attr in named_buffers)

    def test_a_rebound_buffer_keeps_its_place(self):
        gen = N.Generator(N.GeneratorConfig(blocks=2), np.random.default_rng(0))
        before = [name for name, _, _ in gen.named_buffers()]
        x = Tensor(np.random.default_rng(1).random((2, 3, 12, 12), dtype=np.float32))
        gen(x, training=True)  # rebinds every running statistic
        assert [name for name, _, _ in gen.named_buffers()] == before


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv_padding_keeps_the_size(kernel):
    conv = N.Conv2d(np.random.default_rng(0), 2, 4, kernel=kernel)
    assert conv.padding == kernel // 2
    assert conv(Tensor(np.zeros((1, 2, 7, 9), dtype=np.float32))).shape == (1, 4, 7, 9)
