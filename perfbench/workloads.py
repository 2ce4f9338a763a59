"""The three benchmark workloads: inputs, set-up, one operation, checks.

Each workload is a class. ``prepare(seed, folder)`` writes the seeded
inputs (run once per benchmark run, outside every measurement); the
constructor is the set-up a user pays once per process; ``op()`` is one
operation, a whole pass over a fixed set, so every run samples the same
mix; ``check(out)`` returns the problems found in one operation's output
and ``final_check(out)`` runs the costlier checks once per process.

fftsr is reached through module attributes (``train.upscale_image``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import fftsr.config as config
import fftsr.corpus as corpus
import fftsr.image as image
import fftsr.train as train

import reference

SCALE = 3


def _corpus_pairs(seed: int, folder: Path):
    """16 corpus textures of 96 px as (lr, hr) arrays, saved to pairs.npz."""
    pairs = [image.make_lr_hr_pair(img, SCALE) for img in corpus.make_texture_corpus(16, 96, seed=seed)]
    np.savez(folder / "pairs.npz", lr=np.stack([lr.data for lr, _ in pairs]), hr=np.stack([hr.data for _, hr in pairs]))


def _load_pairs(folder: Path):
    with np.load(folder / "pairs.npz") as z:
        return list(zip(z["lr"], z["hr"]))


def _frames(seed: int, sizes) -> list[np.ndarray]:
    """One corpus texture per size, cropped to (h, w), values in [0, 1]."""
    side = max(max(s) for s in sizes)
    imgs = corpus.make_texture_corpus(len(sizes), side, seed=seed + 1)
    return [img.data[:h, :w] for img, (h, w) in zip(imgs, sizes)]


class Train:
    """One ``Trainer.train_step`` at the default configuration."""

    PROBE = "dense"  # the host-speed probe that does this workload's kind of work

    def __init__(self, folder: Path):
        self.cfg = config.default_config()
        self.seed = int((folder / "seed").read_text())
        self.pairs = _load_pairs(folder)
        self.folder = folder
        self.trainer = train.Trainer(self.cfg, self.seed, self.pairs)
        self.pixels = self.cfg.get("data.batch") * self.cfg.get("data.patch") ** 2

    @staticmethod
    def prepare(seed: int, folder: Path):
        _corpus_pairs(seed, folder)

    def op(self):
        return self.trainer.train_step()

    def _expected_lr(self, base_key: str, step: int) -> float:
        get = self.cfg.get
        return reference.cosine_restart_lr(
            get(base_key), step, get("sched.cycle_steps"), get("sched.peak_decay"), get("sched.floor_fraction")
        )

    def check(self, rec: dict) -> list[str]:
        bad = []
        if not all(math.isfinite(v) for v in rec.values()):
            bad.append(f"non-finite value in record {rec}")
        if not 0.0 <= rec["d_acc"] <= 1.0:
            bad.append(f"d_acc {rec['d_acc']} outside [0, 1]")
        if not -1.0 <= rec["g_ssim"] <= 1.0:
            bad.append(f"g_ssim {rec['g_ssim']} outside [-1, 1]")
        # the restart policy cannot change the rates before its window has
        # filled; past it the schedule alone no longer gives them
        if rec["step"] >= self.cfg.get("policy.window"):
            return bad
        for key, base in (("lr_g", "opt.lr_g"), ("lr_d", "opt.lr_d")):
            want = self._expected_lr(base, rec["step"])
            if not math.isclose(rec[key], want, rel_tol=1e-12):
                bad.append(f"{key} {rec[key]!r} at step {rec['step']}, schedule gives {want!r}")
        return bad

    def final_check(self, _out) -> list[str]:
        """Checkpoint write -> read -> from_checkpoint resumes bit-exactly."""
        path = self.folder / f"resume-{id(self)}.ckpt"
        state, tensors = self.trainer.snapshot()
        train.write_checkpoint(path, config.serialize_config(self.cfg), state, tensors)
        resumed = train.Trainer.from_checkpoint(train.read_checkpoint(path), self.pairs)
        path.unlink()
        bad = []
        for _ in range(2):
            want, got = self.trainer.train_step(), resumed.train_step()
            if want != got:
                bad.append(f"resumed record {got} differs from {want}")
        return bad


class Upscale:
    """One ``upscale_image`` pass over a fixed set of LR frames."""

    PROBE = "dense"
    # LR (height, width): 16:9 and square, odd and even sides
    SIZES = ((108, 192), (75, 75), (35, 61), (32, 32))
    REFERENCE_MAX_SIDE = 64  # frames this small are also checked against the float64 reference

    def __init__(self, folder: Path):
        ckpt = train.read_checkpoint(folder / "generator.ckpt")
        self.gen = train.generator_from_checkpoint(ckpt)
        self.blocks = ckpt.config.get("gen.blocks")
        with np.load(folder / "frames.npz") as z:
            self.frames = [image.Image(z[f"f{i}"]) for i in range(len(self.SIZES))]
        self.pixels = sum(SCALE * SCALE * h * w for h, w in self.SIZES)

    @classmethod
    def prepare(cls, seed: int, folder: Path):
        """A generator from three seeded default-config training steps, so
        its BatchNorm running statistics are not the initial ones."""
        _corpus_pairs(seed, folder)
        trainer = train.Trainer(config.default_config(), seed, _load_pairs(folder))
        for _ in range(3):
            trainer.train_step()
        train.save_trainer(trainer, folder / "generator.ckpt")
        np.savez(folder / "frames.npz", **{f"f{i}": f for i, f in enumerate(_frames(seed, cls.SIZES))})

    def op(self):
        return [train.upscale_image(self.gen, frame, SCALE) for frame in self.frames]

    def check(self, outs) -> list[str]:
        bad = []
        for frame, out in zip(self.frames, outs):
            want = (SCALE * frame.height, SCALE * frame.width, 3)
            arr = out.data
            if arr.shape != want:
                bad.append(f"output shape {arr.shape}, expected {want}")
            elif not (np.isfinite(arr).all() and arr.min() >= 0.0 and arr.max() <= 1.0):
                bad.append(f"output for {frame.height}x{frame.width} not finite in [0, 1]")
        return bad

    def final_check(self, outs) -> list[str]:
        params = {name: t.data for name, t in self.gen.named_parameters()}
        params.update({name: getattr(owner, attr) for name, owner, attr in self.gen.named_buffers()})
        bad = []
        for frame, out in zip(self.frames, outs):
            if max(frame.height, frame.width) > self.REFERENCE_MAX_SIDE:
                continue
            want = reference.generator_upscale(frame.data, params, self.blocks, SCALE)
            err = float(np.abs(out.data - want).max())
            if not err <= 1e-4:
                bad.append(f"{frame.height}x{frame.width}: max abs error {err:.3g} against the float64 reference")
        return bad


class Ingest:
    """decode_image -> make_lr_hr_pair(., 3) -> encode_image over fixed PNG files."""

    PROBE = "scalar"
    # (height, width, channels): squares and 16:9, odd and even, 2 of 6 RGBA
    FILES = ((192, 192, 3), (108, 192, 3), (90, 160, 4), (127, 127, 4), (96, 96, 3), (61, 109, 3))

    def __init__(self, folder: Path):
        self.paths = [folder / f"in{i}.png" for i in range(len(self.FILES))]
        with np.load(folder / "pixels.npz") as z:
            self.pixels_u8 = [z[f"p{i}"] for i in range(len(self.FILES))]
        self.pixels = sum(h * w for h, w, _ in self.FILES)

    @classmethod
    def prepare(cls, seed: int, folder: Path):
        sizes = [(h, w) for h, w, _ in cls.FILES]
        alphas = _frames(seed + 1, sizes)
        arrays = {}
        for i, (rgb, alpha, (h, w, c)) in enumerate(zip(_frames(seed, sizes), alphas, cls.FILES)):
            px = rgb if c == 3 else np.concatenate([rgb, alpha[:, :, :1]], axis=2)
            px = np.round(px * 255.0).astype(np.uint8)
            (folder / f"in{i}.png").write_bytes(reference.encode_png(px, reference.schedule_filters(h)))
            arrays[f"p{i}"] = px
        np.savez(folder / "pixels.npz", **arrays)

    def op(self):
        outs = []
        for path in self.paths:
            img = image.decode_image(path.read_bytes())
            lr, hr = image.make_lr_hr_pair(img, SCALE)
            outs.append((img, lr, image.encode_image(lr)))
        return outs

    def check(self, outs) -> list[str]:
        bad = []
        for px, (img, lr, png) in zip(self.pixels_u8, outs):
            rgb = px[:, :, :3]
            if img.data.shape != rgb.shape or not np.array_equal(np.round(img.data * 255.0), rgb):
                bad.append(f"decoded pixels differ from the encoded {rgb.shape} pixels")
                continue
            h, w = (rgb.shape[0] // SCALE) * SCALE, (rgb.shape[1] // SCALE) * SCALE
            want = reference.bicubic(rgb[:h, :w] / 255.0, h // SCALE, w // SCALE)
            err = float(np.abs(lr.data - want).max())
            if not err <= 1e-6:
                bad.append(f"LR of {rgb.shape}: max abs error {err:.3g} against Keys bicubic")
            if not np.array_equal(reference.parse_png(png), np.round(lr.data.astype(np.float64) * 255.0)):
                bad.append(f"encoded LR of {rgb.shape} does not parse back to round(LR * 255)")
        return bad

    def final_check(self, _out) -> list[str]:
        return []


WORKLOADS = {"train": Train, "upscale": Upscale, "ingest": Ingest}
