import dataclasses
import os
import re
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from fftsr import fft as F
from fftsr import losses as L
from fftsr import tensor as T
from fftsr import train
from fftsr.config import default_config, serialize_config
from fftsr.corpus import make_texture_corpus
from fftsr.errors import CheckpointError, ConfigError, FftsrError, ImageError, ShapeError, TooSmallError
from fftsr.image import MAX_PIXELS, Image, make_lr_hr_pair, resample_bicubic
from fftsr.optim import AdamW
from fftsr.tensor import Tensor

from test_config import REMOVED
from test_nets import queued_noise, started_threads, state_bytes

# a small network whose adaptive state all moves within a few steps: the
# noise baseline is set after 2 steps, the policy window fills after 2,
# a stuck discriminator triggers a boost, and the diffusion timestep
# climbs every step
SMALL = dict(
    gen__blocks=1,
    gen__width=6,
    disc__width=4,
    disc__layers=2,
    data__batch=2,
    data__patch=12,
    noise__warmup_steps=2,
    policy__window=2,
    policy__acc_low=0.99,
    diffusion__adapt_every=1,
    diffusion__target=-1.0,
    diffusion__stride=3,
)


@pytest.fixture(scope="module")
def pairs():
    imgs = make_texture_corpus(4, 24, seed=0)
    return [tuple(i.data for i in make_lr_hr_pair(img, 3)) for img in imgs]


@pytest.fixture
def cfg():
    return default_config().replace(**SMALL)


def checkpoint_bytes(trainer, path):
    train.save_trainer(trainer, path)
    return path.read_bytes()


def rewrite(path, raw):
    """Write ``raw`` with its trailing CRC recomputed, so only the
    corruption under test is wrong."""
    body = raw[:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class TestResume:
    def test_resumed_records_compare_equal(self, cfg, pairs, tmp_path):
        trainer = train.Trainer(cfg, 3, pairs)
        for _ in range(4):
            trainer.train_step()
        path = tmp_path / "run.ckpt"
        state, tensors = trainer.snapshot()
        train.write_checkpoint(path, serialize_config(cfg), state, tensors)
        resumed = train.Trainer.from_checkpoint(train.read_checkpoint(path), pairs)
        want = [trainer.train_step() for _ in range(4)]
        got = [resumed.train_step() for _ in range(4)]
        assert got == want

    def test_resumed_trainer_saves_the_same_bytes(self, cfg, pairs, tmp_path):
        trainer = train.Trainer(cfg, 5, pairs)
        for _ in range(4):
            trainer.train_step()
        raw = checkpoint_bytes(trainer, tmp_path / "a.ckpt")
        resumed = train.Trainer.from_checkpoint(train.read_checkpoint(tmp_path / "a.ckpt"), pairs)
        assert checkpoint_bytes(resumed, tmp_path / "b.ckpt") == raw

    def test_adaptive_state_moved_before_the_save(self, cfg, pairs):
        # guards the two tests above: a field that never leaves its
        # initial value would resume correctly even if never restored
        trainer = train.Trainer(cfg, 3, pairs)
        fresh, _ = trainer.snapshot()
        for _ in range(4):
            trainer.train_step()
        state, _ = trainer.snapshot()
        moved = {k for k in state if state[k] != fresh[k]}
        for key in ("step", "diffusion.t", "noise.initial", "noise.ema", "policy.last_trigger_step"):
            assert f"state.{key}" in moved

    def test_checkpoint_with_the_recomputed_keys_resumes_equal(self, cfg, pairs, tmp_path):
        # earlier checkpoints also stored four values that the others
        # determine; a reader ignores them
        trainer = train.Trainer(cfg, 3, pairs)
        for _ in range(4):
            trainer.train_step()
        state, tensors = trainer.snapshot()
        assert trainer.policy.mode == "disc-boost"
        state["state.noise.multiplier"] = repr(trainer.noise.multiplier)
        state["state.noise.warmup_count"] = "2"
        state["state.policy.disc_lr_multiplier"] = repr(trainer.policy.disc_lr_multiplier)
        state["state.policy.adv_multiplier"] = repr(trainer.policy.adv_multiplier)
        path = tmp_path / "old.ckpt"
        train.write_checkpoint(path, serialize_config(cfg), state, tensors)
        resumed = train.Trainer.from_checkpoint(train.read_checkpoint(path), pairs)
        assert [resumed.train_step() for _ in range(4)] == [trainer.train_step() for _ in range(4)]

    @pytest.mark.parametrize(
        "key, text",
        [
            ("state.diffusion.t", "100000"),
            ("state.diffusion.t", "-3"),
            ("state.step", "-5"),
            ("state.seed", "-1"),
            ("state.opt_g.t", "-1"),
            ("state.policy.mode", "boost"),
            ("state.noise.ema", "nan"),
            ("state.noise.initial", "inf"),
            ("state.diffusion.r_d", "inf"),
            ("state.rng.patch.has_uint32", "5"),
            ("state.rng.noise.has_uint32", "-1"),
            ("state.rng.diffusion.inc", "4"),
        ],
    )
    def test_unreachable_state_value_is_refused(self, cfg, pairs, tmp_path, key, text):
        # each parses, but no run reaches it; restoring it failed later, mid-run
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        state, tensors = trainer.snapshot()
        state[key] = text
        path = tmp_path / "unreachable.ckpt"
        train.write_checkpoint(path, serialize_config(cfg), state, tensors)
        with pytest.raises(CheckpointError, match=re.escape(repr(key))) as info:
            train.Trainer.from_checkpoint(train.read_checkpoint(path), pairs)
        assert info.value.section == "state"

    def test_generator_from_checkpoint_matches_trainer(self, cfg, pairs, tmp_path):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        train.save_trainer(trainer, tmp_path / "g.ckpt")
        gen = train.generator_from_checkpoint(train.read_checkpoint(tmp_path / "g.ckpt"))
        lr = pairs[0][0]
        a = train.upscale_image(trainer.gen, Image(lr), 3).data
        b = train.upscale_image(gen, Image(lr), 3).data
        assert np.array_equal(a, b)


class TestCheckpointErrors:
    @pytest.fixture
    def saved(self, cfg, pairs, tmp_path):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        path = tmp_path / "t.ckpt"
        train.save_trainer(trainer, path)
        return path

    def section_of(self, path):
        with pytest.raises(CheckpointError) as info:
            train.read_checkpoint(path)
        return info.value.section

    def test_magic(self, saved):
        saved.write_bytes(b"NOPE" + saved.read_bytes()[4:])
        assert self.section_of(saved) == "magic"

    def test_short_file_is_bad_magic(self, saved):
        saved.write_bytes(b"FRED")
        assert self.section_of(saved) == "magic"

    def test_version(self, saved):
        raw = saved.read_bytes()
        rewrite(saved, raw[:4] + struct.pack("<I", 2) + raw[8:])
        assert self.section_of(saved) == "version"

    def test_checksum(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[-10] ^= 0xFF
        saved.write_bytes(bytes(raw))
        assert self.section_of(saved) == "checksum"

    def test_config(self, saved, cfg, pairs):
        state, tensors = train.Trainer(cfg, 0, pairs).snapshot()
        train.write_checkpoint(saved, "gen.blocks = many\n", state, tensors)
        assert self.section_of(saved) == "config"

    def test_config_from_before_the_diffusion_switch_was_removed(self, saved, cfg, pairs):
        # checkpoints written while diffusion.enabled existed embed the key
        state, tensors = train.Trainer(cfg, 0, pairs).snapshot()
        train.write_checkpoint(saved, serialize_config(cfg) + "diffusion.enabled = true\n", state, tensors)
        with pytest.raises(CheckpointError, match="'diffusion.enabled'") as info:
            train.read_checkpoint(saved)
        assert info.value.section == "config"

    @pytest.mark.parametrize("key", REMOVED)
    def test_config_from_before_the_constants_were_removed(self, saved, cfg, pairs, key):
        state, tensors = train.Trainer(cfg, 0, pairs).snapshot()
        train.write_checkpoint(saved, serialize_config(cfg) + f"{key} = 0.5\n", state, tensors)
        with pytest.raises(CheckpointError, match=f"'{key}'") as info:
            train.read_checkpoint(saved)
        assert info.value.section == "config"

    def test_a_failed_write_leaves_the_previous_checkpoint(self, saved, cfg, pairs, monkeypatch):
        before = saved.read_bytes()
        state, tensors = train.Trainer(cfg, 1, pairs).snapshot()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            train.write_checkpoint(saved, serialize_config(cfg), state, tensors)
        assert saved.read_bytes() == before
        assert [p.name for p in saved.parent.iterdir()] == [saved.name]

    def test_config_overrunning_the_file(self, saved):
        raw = saved.read_bytes()
        rewrite(saved, raw[:8] + struct.pack("<I", len(raw)) + raw[12:])
        assert self.section_of(saved) == "config"

    def test_tensor_table_trailing_bytes(self, saved):
        raw = saved.read_bytes()
        rewrite(saved, raw[:-4] + b"\0" + raw[-4:])
        assert self.section_of(saved) == "tensor table"

    def first_tensor(self, raw):
        """(name, offset of its dtype tag) of the first tensor in the table."""
        (text_len,) = struct.unpack_from("<I", raw, 8)
        pos = 12 + text_len + 4
        (name_len,) = struct.unpack_from("<H", raw, pos)
        return raw[pos + 2 : pos + 2 + name_len].decode(), pos + 2 + name_len

    def test_tensor_table_unknown_dtype_tag(self, saved):
        raw = saved.read_bytes()
        _, tag_at = self.first_tensor(raw)
        rewrite(saved, raw[:tag_at] + b"\x07" + raw[tag_at + 1 :])
        assert self.section_of(saved) == "tensor table"

    def test_config_text_that_is_not_utf8(self, saved):
        raw = saved.read_bytes()
        rewrite(saved, raw[:12] + b"\xff" + raw[13:])
        with pytest.raises(CheckpointError, match="config text is not UTF-8") as info:
            train.read_checkpoint(saved)
        assert info.value.section == "config"

    def test_tensor_payload_truncated(self, saved):
        raw = saved.read_bytes()
        name, tag_at = self.first_tensor(raw)
        assert raw[tag_at + 1] >= 1  # a rank, so an extent to enlarge
        extent_at = tag_at + 2
        rewrite(saved, raw[:extent_at] + struct.pack("<I", 1 << 24) + raw[extent_at + 4 :])
        with pytest.raises(CheckpointError, match=f"tensor '{name}' payload truncated") as info:
            train.read_checkpoint(saved)
        assert info.value.section == "tensor table"


class TestRestoreChecks:
    """A checkpoint whose file is intact (valid CRC) but whose entries do
    not fit the trainer fails on load, not at the first step."""

    @pytest.fixture
    def snap(self, cfg, pairs):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        return trainer.snapshot()

    def error_of(self, load, cfg, tmp_path, state, tensors):
        path = tmp_path / "crafted.ckpt"
        train.write_checkpoint(path, serialize_config(cfg), state, tensors)
        ckpt = train.read_checkpoint(path)
        with pytest.raises(CheckpointError) as info:
            load(ckpt)
        return info.value

    def section_of(self, cfg, pairs, tmp_path, state, tensors):
        load = lambda ckpt: train.Trainer.from_checkpoint(ckpt, pairs)
        return self.error_of(load, cfg, tmp_path, state, tensors).section

    @pytest.mark.parametrize("key", ["state.seed", "state.step", "state.noise.ema", "state.rng.patch.inc"])
    def test_missing_state_key(self, cfg, pairs, tmp_path, snap, key):
        state, tensors = snap
        del state[key]
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "state"

    @pytest.mark.parametrize(
        "key, text",
        [
            ("state.step", "three"),
            ("state.opt_g.t", "1.5"),
            ("state.diffusion.r_d", "high"),
            ("state.noise.initial", "nothing"),
            ("state.rng.noise.state", "-1"),
            ("state.rng.noise.uinteger", str(1 << 40)),
        ],
    )
    def test_unparsable_state_value(self, cfg, pairs, tmp_path, snap, key, text):
        state, tensors = snap
        state[key] = text
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "state"

    @pytest.mark.parametrize(
        "key", ["param.gen.head.w", "buffer.gen.blocks0.bn_g.running_var", "opt.d.v.disc.fc.w", "state.policy.window"]
    )
    def test_missing_tensor(self, cfg, pairs, tmp_path, snap, key):
        state, tensors = snap
        del tensors[key]
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "tensor table"

    @pytest.mark.parametrize("key", ["param.gen.head.w", "buffer.gen.blocks0.bn_l.running_mean", "opt.g.m.gen.tail.b"])
    def test_wrong_shape(self, cfg, pairs, tmp_path, snap, key):
        state, tensors = snap
        tensors[key] = np.zeros(tensors[key].size + 1, dtype=tensors[key].dtype)
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "tensor table"

    @pytest.mark.parametrize("key", ["param.disc.fc.b", "opt.d.m.disc.convs0.w", "state.policy.window"])
    def test_wrong_dtype(self, cfg, pairs, tmp_path, snap, key):
        state, tensors = snap
        swap = {np.dtype(np.float32): np.float64, np.dtype(np.float64): np.float32}
        tensors[key] = tensors[key].astype(swap[tensors[key].dtype])
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "tensor table"

    def test_policy_window_longer_than_configured(self, cfg, pairs, tmp_path, snap):
        state, tensors = snap
        tensors["state.policy.window"] = np.full(cfg.get("policy.window") + 1, 0.5)
        assert self.section_of(cfg, pairs, tmp_path, state, tensors) == "tensor table"

    @pytest.mark.parametrize("loader", ["trainer", "generator"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("param.gen.head.w", np.nan),
            ("param.gen.tail.b", np.inf),
            ("buffer.gen.blocks0.bn_l.running_mean", -np.inf),
            ("buffer.gen.blocks0.spectral.bn_freq.running_var", np.nan),
            ("buffer.gen.blocks0.bn_g.running_var", -0.5),
        ],
    )
    def test_bad_generator_value_fails_at_load(self, cfg, pairs, tmp_path, snap, loader, key, value):
        state, tensors = snap
        tensors[key] = tensors[key].copy()
        tensors[key].flat[0] = value
        load = {
            "trainer": lambda ckpt: train.Trainer.from_checkpoint(ckpt, pairs),
            "generator": train.generator_from_checkpoint,
        }[loader]
        err = self.error_of(load, cfg, tmp_path, state, tensors)
        assert err.section == "tensor table" and repr(key) in str(err)

    @pytest.mark.parametrize("key", ["param.disc.fc.w", "opt.g.v.gen.head.w", "opt.d.m.disc.convs0.b"])
    def test_non_finite_trainer_tensor_fails_at_load(self, cfg, pairs, tmp_path, snap, key):
        state, tensors = snap
        tensors[key] = np.full_like(tensors[key], np.nan)
        err = self.error_of(lambda ckpt: train.Trainer.from_checkpoint(ckpt, pairs), cfg, tmp_path, state, tensors)
        assert err.section == "tensor table" and repr(key) in str(err)

    def test_generator_from_checkpoint_checks_shapes(self, cfg, pairs, tmp_path, snap):
        state, tensors = snap
        tensors["param.gen.tail.w"] = tensors["param.gen.tail.w"][:1]
        path = tmp_path / "gen.ckpt"
        train.write_checkpoint(path, serialize_config(cfg), state, tensors)
        with pytest.raises(CheckpointError) as info:
            train.generator_from_checkpoint(train.read_checkpoint(path))
        assert info.value.section == "tensor table"


@pytest.mark.parametrize(
    "override",
    [
        dict(data__patch=6),
        dict(data__batch=1),
        dict(gen__blocks=0),
        dict(gen__width=1),
        dict(gen__kernel=1),
        dict(gen__kernel=23),
        dict(gen__global_fraction=1.0),
        dict(disc__layers=0),
        dict(opt__lr_g=0.0),
        dict(sched__cycle_steps=1, policy__window=1),
        dict(diffusion__t_max=0),
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_range_boundaries_train(cfg, pairs, override):
    trainer = train.Trainer(cfg.replace(**override), 0, pairs)
    for _ in range(3):
        record = trainer.train_step()
    assert all(np.isfinite(v) for v in record.values())


class TestAbort:
    def test_nan_generator_aborts_with_diagnostics(self, cfg, pairs):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.gen.tail.w.data[...] = np.nan
        with pytest.raises(train.TrainAbort) as info:
            trainer.train_step()
        assert isinstance(info.value, FftsrError)
        assert info.value.diagnostics["step"] == 0
        assert not np.isfinite(info.value.diagnostics["d_loss"])

    def test_nan_after_good_steps_names_the_step(self, cfg, pairs):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        trainer.train_step()
        trainer.gen.tail.w.data[...] = np.nan
        with pytest.raises(train.TrainAbort) as info:
            trainer.train_step()
        assert info.value.diagnostics["step"] == 2


def test_no_usable_pair_is_a_typed_error(cfg):
    tiny = [tuple(i.data for i in make_lr_hr_pair(img, 3)) for img in make_texture_corpus(2, 9, seed=0)]
    with pytest.raises(TooSmallError, match="no training image"):
        train.Trainer(cfg, 0, tiny)


class TestPairShapes:
    def test_shorter_lr_is_rejected(self, cfg, pairs):
        lr, hr = pairs[1]
        bad = [pairs[0], (lr[:-1], hr)]
        with pytest.raises(ShapeError, match="pair 1"):
            train.Trainer(cfg, 0, bad)

    def test_lr_twice_as_tall_is_rejected(self, cfg, pairs):
        lr, hr = pairs[0]
        with pytest.raises(ShapeError, match="pair 0"):
            train.Trainer(cfg, 0, [(np.concatenate([lr, lr]), hr), pairs[1]])

    @pytest.mark.parametrize(
        "spoil",
        [lambda hr: hr[:, :, 0], lambda hr: np.concatenate([hr, hr[:, :, :1]], axis=2), lambda hr: hr[:, 0, 0]],
        ids=["2d", "4_channels", "1d"],
    )
    def test_hr_that_is_not_rgb_is_rejected_at_construction(self, cfg, pairs, spoil):
        lr, hr = pairs[1]
        with pytest.raises(ShapeError, match=r"pair 1: HR image has shape .*expected \(H, W, 3\)"):
            train.Trainer(cfg, 0, [pairs[0], (lr, spoil(hr))])

    @pytest.mark.parametrize("item", ["hr", "triple", "hr_rows"])
    def test_an_item_that_is_not_a_pair_is_rejected(self, cfg, pairs, item):
        lr, hr = pairs[1]
        bad = {"hr": hr, "triple": (lr, hr, hr), "hr_rows": hr[:2]}[item]  # two rows would unpack
        with pytest.raises(ShapeError, match="pair 1: expected an \\(lr, hr\\) pair"):
            train.Trainer(cfg, 0, [pairs[0], bad])

    @pytest.mark.parametrize("bad", [("a", "b"), ([[[0.1, 0.2, 0.3]], [[0.1, 0.2]]], None)], ids=["text", "ragged"])
    def test_pixels_that_are_not_one_array_of_numbers_are_rejected(self, cfg, pairs, bad):
        with pytest.raises(ImageError, match="pair 1: pixels must be real numbers in one array"):
            train.Trainer(cfg, 0, [pairs[0], bad])


class TestSamplePatchesInput:
    def test_no_pairs_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="no \\(up, hr\\) pair"):
            train.sample_patches([], 12, 3, np.random.default_rng(0), 2)

    @pytest.mark.parametrize("shape", [(24, 9, 3), (9, 24, 3)], ids=["narrow", "short"])
    def test_a_pair_under_the_patch_names_the_pair(self, shape):
        whole, small = np.zeros((24, 24, 3), np.float32), np.zeros(shape, np.float32)
        with pytest.raises(TooSmallError, match="pair 1: .* 12 px patch"):
            train.sample_patches([(whole, whole), (small, small)], 12, 3, np.random.default_rng(0), 2)

    @pytest.mark.parametrize("case", ["small_up", "small_hr", "gray"])
    def test_a_pair_not_of_one_rgb_shape_names_the_pair(self, case):
        whole, small, gray = np.zeros((24, 24, 3), np.float32), np.zeros((15, 24, 3), np.float32), np.zeros((24, 24))
        pair = {"small_up": (small, whole), "small_hr": (whole, small), "gray": (gray, gray)}[case]
        with pytest.raises(ShapeError, match="pair 1: up .* and HR .* must be one \\(H, W, 3\\) shape"):
            train.sample_patches([(whole, whole), pair], 12, 3, np.random.default_rng(0), 2)


def _nan_pixel(a):
    a = a.copy()
    a[3, 4, 1] = np.nan
    return a


class TestPairValues:
    @pytest.mark.parametrize(
        "spoil_lr, spoil_hr",
        [(_nan_pixel, None), (None, _nan_pixel), ((lambda a: a * 255),) * 2],
        ids=["nan_in_lr", "nan_in_hr", "times_255"],
    )
    def test_bad_pixel_values_are_rejected(self, cfg, pairs, spoil_lr, spoil_hr):
        lr, hr = pairs[1]
        pair = (spoil_lr(lr) if spoil_lr else lr, spoil_hr(hr) if spoil_hr else hr)
        with pytest.raises(ImageError, match="pair 1"):
            train.Trainer(cfg, 0, [pairs[0], pair])


class TestTrainingInput:
    """Training crops the generator input that inference computes."""

    @pytest.fixture
    def odd(self):
        # HR 97x98 keeps a row and two columns past 3 x its 32x32 LR
        hr = make_texture_corpus(1, 98, seed=2)[0].data[:97]
        return make_lr_hr_pair(Image(hr), 3)[0].data, hr

    def test_crops_are_windows_of_the_whole_frame_upscale(self, cfg, pairs, odd):
        given = [*pairs, odd]
        trainer = train.Trainer(cfg, 0, given)
        scale, patch = trainer.scale, trainer.patch
        assert trainer.pairs[-1][0].shape == trainer.pairs[-1][1].shape == (96, 96, 3)
        ups, hrs = train.sample_patches(trainer.pairs, patch, scale, np.random.default_rng(1), 64)
        replay = np.random.default_rng(1)
        for up, hr in zip(ups, hrs):
            lr, whole = given[int(replay.integers(0, len(given)))]
            h, w = lr.shape[:2]
            y0 = int(replay.integers(0, h - patch // scale + 1)) * scale
            x0 = int(replay.integers(0, w - patch // scale + 1)) * scale
            window = np.s_[y0 : y0 + patch, x0 : x0 + patch]
            want = resample_bicubic(Image(lr), scale * h, scale * w).data[window]
            assert up.transpose(1, 2, 0).tobytes() == want.astype(np.float32).tobytes()
            assert hr.transpose(1, 2, 0).tobytes() == whole[window].astype(np.float32).tobytes()


class TestSeed:
    @pytest.mark.parametrize("seed", [True, -1, 1.5, np.int64(-1)], ids=["bool", "negative", "float", "numpy_negative"])
    def test_a_seed_a_checkpoint_cannot_store_fails_before_any_compute(self, cfg, pairs, seed, monkeypatch):
        monkeypatch.setattr(train, "Generator", None)  # rejected before a network is built
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            train.Trainer(cfg, seed, pairs)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            train.build_generator(cfg, seed)

    def test_numpy_integer_seed_round_trips_through_a_checkpoint(self, cfg, pairs, tmp_path):
        trainer = train.Trainer(cfg, np.int64(5), pairs)
        trainer.train_step()
        train.save_trainer(trainer, tmp_path / "ckpt")
        resumed = train.Trainer.from_checkpoint(train.read_checkpoint(tmp_path / "ckpt"), pairs)
        assert resumed.seed == 5 and resumed.train_step() == trainer.train_step()


@pytest.mark.parametrize("kernel", [2, 4])
def test_build_generator_rejects_an_even_kernel(kernel):
    with pytest.raises(ConfigError, match="gen.kernel"):
        train.build_generator(default_config().replace(gen__kernel=kernel))


class TestUpscaleMinimumSize:
    def test_frame_under_the_kernel_minimum_is_rejected(self):
        gen = train.build_generator(default_config().replace(gen__kernel=13))
        with pytest.raises(TooSmallError, match="minimum of 7 px"):
            train.upscale_image(gen, Image(np.full((2, 2, 3), 0.5)), 3)

    def test_frame_at_the_kernel_minimum_upscales(self):
        gen = train.build_generator(default_config().replace(gen__kernel=13))
        assert train.upscale_image(gen, Image(np.full((3, 3, 3), 0.5)), 3).data.shape == (9, 9, 3)

    def test_single_pixel_upscales_with_the_default_kernel(self):
        gen = train.build_generator(default_config())
        assert train.upscale_image(gen, Image(np.full((1, 1, 3), 0.5)), 3).data.shape == (3, 3, 3)


def test_an_upscale_over_the_pixel_bound_is_refused_before_any_compute():
    gen = train.build_generator(default_config())
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=f"6000x6000 is 36000000 pixels, more than {MAX_PIXELS}"):
            train.upscale_image(gen, Image(np.full((1, 1, 3), 0.5)), 6000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestUpscaleWorkingSet:
    """The eval forward's working set is bounded before anything is computed."""

    def test_an_upscale_over_the_working_set_bound_is_refused_before_any_compute(self):
        gen = train.build_generator(default_config())
        scale = 5500  # 30.25 Mpix: under MAX_PIXELS, over the working-set bound
        assert scale * scale <= MAX_PIXELS
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="a 5500x5500 output needs about 9.7 GiB at width 26, more than 8 GiB"):
                train.upscale_image(gen, Image(np.full((1, 1, 3), 0.5)), scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("lr_hw, admitted", [((270, 480), True), ((540, 960), False)], ids=["2160x3840", "4320x7680"])
    def test_the_papers_largest_output_is_admitted_and_8k_refused(self, monkeypatch, lr_hw, admitted):
        class Admitted(Exception):
            pass

        def resample(*args):
            raise Admitted

        monkeypatch.setattr(train, "resample_bicubic", resample)
        gen = train.build_generator(default_config())
        with pytest.raises(Admitted if admitted else ShapeError):
            train.upscale_image(gen, Image(np.full((*lr_hw, 3), 0.5, dtype=np.float32)), 8)


class TestUpscaleScale:
    @pytest.mark.parametrize("scale", [1.5, 3.0, "3", 1, 0, -1, True])
    def test_scale_that_is_not_an_integer_of_at_least_two(self, scale):
        gen = train.build_generator(default_config())
        with pytest.raises(ImageError, match="scale must be an integer >= 2") as err:
            train.upscale_image(gen, Image(np.full((4, 4, 3), 0.5)), scale)
        assert repr(scale) in str(err.value)

    def test_numpy_integer_scale_upscales(self):
        gen = train.build_generator(default_config())
        assert train.upscale_image(gen, Image(np.full((4, 4, 3), 0.5)), np.int64(2)).data.shape == (8, 8, 3)


class TestUpscaleLeavesTheModelAlone:
    """The eval forward folds BatchNorm into freshly built kernels; it
    writes no parameter, buffer or input frame, so training goes on as if
    it never ran."""

    def test_parameters_and_buffers_are_byte_identical(self, cfg, pairs):
        trainer = train.Trainer(cfg, 0, pairs)
        trainer.train_step()
        before = state_bytes(trainer.gen)
        train.upscale_image(trainer.gen, Image(pairs[0][0]), 3)
        assert state_bytes(trainer.gen) == before

    def test_callers_frame_is_byte_identical(self, cfg, pairs):
        img = Image(pairs[0][0].astype(np.float32))  # in range, so Image keeps this array
        before = img.data.copy()
        out = train.upscale_image(train.build_generator(cfg), img, 3)
        assert np.array_equal(img.data, before)
        assert not np.shares_memory(out.data, img.data)

    def test_train_step_after_an_upscale_is_unchanged(self, cfg, pairs):
        plain, probed = train.Trainer(cfg, 0, pairs), train.Trainer(cfg, 0, pairs)
        assert probed.train_step() == plain.train_step()
        train.upscale_image(probed.gen, Image(pairs[0][0]), 3)
        assert probed.train_step() == plain.train_step()


class TestNoiseProducer:
    """A training step's noise draws finish inside the step, on threads
    that the first step started, and an upscale queues none."""

    def test_a_train_step_leaves_no_thread_behind(self, cfg, pairs, monkeypatch):
        trainer = train.Trainer(cfg.replace(gen__blocks=3), 0, pairs)
        trainer.train_step()  # starts the noise thread and any kernel workers the step uses
        threads, started, queued = threading.active_count(), started_threads(monkeypatch), queued_noise(monkeypatch)
        trainer.train_step()
        assert threading.active_count() == threads and started == [] and len(queued) == 2

    def test_an_upscale_starts_no_producer(self, pairs, monkeypatch):
        gen = train.build_generator(default_config())
        queued = queued_noise(monkeypatch)
        train.upscale_image(gen, Image(pairs[0][0]), 3)
        assert queued == []


class TestUpscaleInput:
    @pytest.mark.parametrize("frame", [np.full((4, 4, 3), 0.5), [[0.5]], None], ids=["ndarray", "list", "None"])
    def test_a_frame_that_is_not_an_image_is_rejected(self, monkeypatch, frame):
        gen = train.build_generator(default_config())
        monkeypatch.setattr(train, "resample_bicubic", None)  # nothing may be computed first
        with pytest.raises(ImageError, match=f"needs an Image, got {type(frame).__name__}"):
            train.upscale_image(gen, frame, 3)


def test_split_kernels_leave_every_record_and_byte_alone(monkeypatch, cfg, pairs, tmp_path):
    # at this size every kernel stays whole under the size rule; lowered,
    # every conv pass, gradient and spectral transform splits
    monkeypatch.setattr(T, "_SPLIT_WORK", 0)
    parts = []
    run_parts = T._run_parts

    def spy(ps):
        parts.append(len(ps))
        run_parts(ps)

    monkeypatch.setattr(T, "_run_parts", spy)
    monkeypatch.setattr(F, "_run_parts", spy)
    runs = {}
    for threads in (1, 3):
        monkeypatch.setattr(T, "_THREADS", threads)
        parts.clear()
        trainer = train.Trainer(cfg, 5, pairs)
        records = [trainer.train_step() for _ in range(2)]
        runs[threads] = (records, checkpoint_bytes(trainer, tmp_path / f"{threads}.ckpt"))
        assert max(parts) == threads
    # the checkpoint holds every parameter and the AdamW moments
    assert runs[3] == runs[1]


class TestDiffusionState:
    def test_no_noise_draws_no_random_numbers(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        residual = Tensor(np.full((2, 3, 4, 4), 0.25, dtype=np.float32))
        assert train.DiffusionState(t=0).diffuse(residual, rng) is residual
        assert rng.bit_generator.state == before

    def test_disabled_chain_records_no_timestep(self, cfg, pairs):
        # SMALL's target of -1 would let r_d drift if t_max = 0 still adapted
        trainer = train.Trainer(cfg.replace(diffusion__t_max=0), 0, pairs)
        records = [trainer.train_step() for _ in range(6)]
        assert [(r["T"], r["r_d"]) for r in records] == [(0, 0.0)] * 6

    def test_adapt_runs_on_every_nth_step_and_climbs_to_t_max(self, monkeypatch):
        # D(real) above 0.5 drives r_d up past a target of 0
        monkeypatch.setattr(train, "EMA_DECAY", 0.5)
        diffusion = train.DiffusionState(t_max=10, target=0.0, stride=3, adapt_every=2)
        ts, r_ds = [], []
        for step in range(10):
            diffusion.adapt(np.array([0.9, 0.8]), step)
            ts.append(diffusion.t)
            r_ds.append(diffusion.r_d)
        assert ts == [0, 3, 3, 6, 6, 9, 9, 10, 10, 10]
        assert r_ds[0] == 0.0 and r_ds[1] == 0.5 and r_ds[2] == 0.5

    def test_adapt_falls_to_zero_and_holds_at_the_target(self):
        diffusion = train.DiffusionState(t_max=10, target=0.0, stride=3, adapt_every=1, t=4)
        ts = []
        for step in range(3):
            diffusion.adapt(np.array([0.1, 0.2]), step)
            ts.append(diffusion.t)
        assert ts == [1, 0, 0]
        level = train.DiffusionState(t_max=10, target=0.0, stride=3, adapt_every=1, t=4)
        level.adapt(np.array([0.5, 0.5]), 0)  # sign 0 keeps r_d on the target
        assert level.t == 4 and level.r_d == 0.0


def test_discriminator_reinit_restarts_adam(cfg, pairs):
    trainer = train.Trainer(cfg, 0, pairs)
    for _ in range(3):
        trainer.train_step()
    trainer._reinit_discriminator()
    opt = trainer.opt_d
    twins = [Tensor(p.data.copy(), requires_grad=True) for p in opt.params]
    fresh = AdamW(list(zip(opt.names, twins)))
    rng = np.random.default_rng(0)
    for p, twin in zip(opt.params, twins):
        p.grad = rng.standard_normal(p.shape).astype(p.data.dtype)
        twin.grad = p.grad.copy()
    opt.step(lr=1e-3)
    fresh.step(lr=1e-3)
    for p, twin in zip(opt.params, twins):
        assert np.array_equal(p.data, twin.data)


def test_record_carries_the_generator_objective(cfg, pairs, monkeypatch):
    objective = L.generator_loss
    calls = []

    def spy(*args):
        calls.append((args, objective(*args)))
        return calls[-1][1]

    monkeypatch.setattr(L, "generator_loss", spy)
    trainer = train.Trainer(cfg, 0, pairs)
    trainer.policy.mode = "disc-boost"  # so the adversarial weight is scaled
    record = trainer.train_step()
    [((sr, hr, d_fake, extractor, w, adv_scale), (total, terms))] = calls
    assert adv_scale == trainer.policy.ADV_SCALE != 1.0
    assert [key for key in record if key.startswith("g_")] == [*terms, "g_loss"]
    assert all(record[name] == term.item() for name, term in terms.items())
    assert record["g_loss"] == total.item()

    # adv_scale scales the adversarial weight and no other
    fresh = [Tensor(t.data) for t in (sr, hr, d_fake)]
    scaled = dataclasses.replace(w, adversarial=w.adversarial * adv_scale)
    assert objective(*fresh, extractor, scaled)[0].item() == total.item()
    assert objective(*fresh, extractor, w)[0].item() != total.item()


def test_default_step_peak_memory_is_bounded():
    imgs = make_texture_corpus(4, 96, seed=0)
    trainer = train.Trainer(default_config(), 0, [tuple(i.data for i in make_lr_hr_pair(img, 3)) for img in imgs])
    trainer.train_step()  # fills the loss filter and resample caches
    tracemalloc.start()
    try:
        trainer.train_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Backward releases each node once its gradient has reached its inputs,
    # and the graph holds nodes, not tensors, so a forward array outlives
    # its op only where a gradient reads it. A graph that kept every op's
    # input tensors peaked at 167.8 MiB; keeping them and every
    # intermediate gradient until the walk ended, at 280.9 MiB
    assert peak < 120 * 2**20


def test_default_upscale_peak_memory_is_bounded():
    gen = train.build_generator(default_config())
    img = Image(make_texture_corpus(1, 192, seed=2)[0].data[:108])
    train.upscale_image(gen, img, 3)  # fills the resample caches
    tracemalloc.start()
    try:
        train.upscale_image(gen, img, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the largest frame of the upscale benchmark. Each eval FFC block sums
    # and activates in its conv output; a new array for each sum, ReLU and
    # concat, and an HWC-ordered input copied again by the head conv, peaked
    # at 69.9 MiB
    assert peak < 64 * 2**20
