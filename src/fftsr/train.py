"""Adversarial training loop with diffusive discriminator inputs,
noise-level annealing, and bit-exact checkpoints.

One step, in the order ``Trainer.train_step`` runs it: (1) crop one
window of each pair's whole-frame upscale and HR, (2) run the generator
forward once, (3) update the discriminator on diffused real vs diffused
detached fake residuals, (4) update the generator on
:func:`losses.generator_loss`, its adversarial term flowing through the
freshly updated discriminator, (5) pass the step to the three adaptive
controllers, each owning its settings and deciding for itself what
changes: the restart policy (which may reinit the discriminator), the
diffusion timestep and the noise annealing, (6) return the step's record.
All randomness lives in named per-purpose streams, so a
(seed, config, data) triple fixes the entire metric stream, and a
checkpoint restores bit-identical continuation.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import losses as L
from . import tensor as T
from .config import RunConfig, Settings, parse_config, serialize_config, setting
from .errors import CheckpointError, ConfigError, FftsrError, ImageError, ShapeError, TooSmallError, check_int
from .image import Image, check_image, check_pixels, check_scale, resample_bicubic
from .nets import EMA_DECAY, Discriminator, DiscriminatorConfig, Generator, GeneratorConfig, NoiseState
from .optim import AdamW, CosineRestartSchedule, RestartPolicy
from .tensor import Tensor

__all__ = [
    "DiffusionState",
    "Trainer",
    "TrainAbort",
    "Checkpoint",
    "read_checkpoint",
    "write_checkpoint",
    "sample_patches",
    "upscale_image",
    "build_generator",
]

CHECKPOINT_MAGIC = b"FRED"
CHECKPOINT_VERSION = 1


class TrainAbort(FftsrError):
    """Raised when a non-finite loss stops training; carries diagnostics."""

    def __init__(self, message, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# ---- diffusion ----


@dataclass
class DiffusionState(Settings):
    """Forward-chain Gaussian diffusion with an adaptive maximum timestep.

    alpha_bar follows a linear beta schedule; t = 0 adds no noise. The
    maximum timestep tracks an EMA of sign(D(real) - 0.5), every
    ``adapt_every`` steps: when the discriminator keeps winning, ``t``
    climbs, feeding it harder inputs; when it struggles, it backs off.
    """

    BETA_START, BETA_END = 1e-4, 0.02  # Diffusion-GAN's linear schedule (arXiv 2206.02262)

    t_max: int = setting("diffusion.t_max")
    target: float = setting("diffusion.target")
    stride: int = setting("diffusion.stride")
    adapt_every: int = setting("diffusion.adapt_every")

    t: int = 0
    r_d: float = 0.0
    alpha_bar: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        steps = max(self.t_max, 1)
        betas = np.linspace(self.BETA_START, self.BETA_END, steps, dtype=np.float64)
        bars = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        self.alpha_bar = bars  # alpha_bar[0] = 1 (no noise at t = 0)

    def diffuse(self, residual: Tensor, rng: np.random.Generator) -> Tensor:
        """sqrt(abar_t) * r + sqrt(1 - abar_t) * eps with t ~ U{0..t}.

        Consumes no randomness at t = 0, which ``t_max = 0`` keeps for
        good: a run without diffusion draws nothing from its stream.
        """
        if self.t == 0:
            return residual
        n = residual.shape[0]
        ts = rng.integers(0, self.t + 1, size=n)
        eps = rng.standard_normal(residual.shape).astype(residual.data.dtype)
        bars = self.alpha_bar[ts].reshape(n, 1, 1, 1)
        signal = np.sqrt(bars).astype(residual.data.dtype)
        noise = (np.sqrt(1.0 - bars).astype(residual.data.dtype)) * eps
        return residual * Tensor(signal) + Tensor(noise)

    def adapt(self, d_real_values: np.ndarray, step: int):
        """On every ``adapt_every``-th step, EMA the overfit estimate and
        nudge the max timestep toward target; with ``t_max = 0``, nothing."""
        if self.t_max == 0 or (step + 1) % self.adapt_every:
            return
        batch_sign = float(np.mean(np.sign(d_real_values - 0.5)))
        self.r_d = EMA_DECAY * self.r_d + (1.0 - EMA_DECAY) * batch_sign
        direction = int(np.sign(self.r_d - self.target))
        self.t = int(np.clip(self.t + self.stride * direction, 0, self.t_max))


# ---- patch sampling ----


def sample_patches(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    patch: int,
    scale: int,
    rng: np.random.Generator,
    batch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform aligned crops -> (up NCHW, hr NCHW) float32 batches.

    Each pair is (up, hr) of equal shape, ``up`` the whole-frame upscale
    :func:`upscale_image` uses; both crops take one window, at offsets on
    the LR grid (multiples of ``scale``). No pairs, or a pair whose sides
    are not one (H, W, 3) shape, raise :class:`ShapeError`, and a side
    under ``patch`` px :class:`TooSmallError`.
    """
    if not pairs:
        raise ShapeError("sample_patches: no (up, hr) pair to crop from")
    for i, (up, hr) in enumerate(pairs):
        if up.shape != hr.shape or hr.ndim != 3 or hr.shape[2] != 3:
            raise ShapeError(f"pair {i}: up {up.shape} and HR {hr.shape} must be one (H, W, 3) shape")
        if min(hr.shape[:2]) < patch:
            raise TooSmallError(f"pair {i}: HR {hr.shape[:2]} holds no {patch} px patch")
    ups = np.empty((batch, 3, patch, patch), dtype=np.float32)
    hrs = np.empty_like(ups)
    n = len(pairs)
    for b in range(batch):
        up, hr = pairs[int(rng.integers(0, n))]
        y0 = int(rng.integers(0, (hr.shape[0] - patch) // scale + 1)) * scale
        x0 = int(rng.integers(0, (hr.shape[1] - patch) // scale + 1)) * scale
        ups[b] = up[y0 : y0 + patch, x0 : x0 + patch].transpose(2, 0, 1)
        hrs[b] = hr[y0 : y0 + patch, x0 : x0 + patch].transpose(2, 0, 1)
    return ups, hrs


# ---- inference helpers ----


def build_generator(cfg: RunConfig, seed: int = 0) -> Generator:
    """A fresh generator of ``cfg``, its weights drawn from ``seed``."""
    check_int(seed, "seed", 0, ConfigError)
    return Generator(cfg.build(GeneratorConfig), np.random.default_rng(np.random.SeedSequence(seed)))


# The eval forward's working set, in float32 words per output pixel and
# generator channel. tracemalloc peaks of a default-config upscale_image
# were 3.27 words at 324x576 output and 3.19 at 648x1152; rounded up.
EVAL_WORDS = 3.3
MAX_EVAL_BYTES = 8 << 30  # an upscale whose working set would be larger is refused


def upscale_image(gen: Generator, img: Image, scale: int) -> Image:
    """clamp(bicubic(img) + G(bicubic(img)), 0, 1) in eval mode.

    ``img`` must be an :class:`Image` and ``scale`` an integer of at
    least 2, else :class:`ImageError`. The upscaled frame needs at least
    ``max(2, gen.cfg.kernel // 2 + 1)`` px a side for the reflect padding
    and the spectral transform (else :class:`TooSmallError`), at most
    ``image.MAX_PIXELS`` pixels, and a working set of at most
    ``MAX_EVAL_BYTES``: output pixels x ``gen.cfg.width`` x 4 B x
    ``EVAL_WORDS`` (else :class:`ShapeError`), all checked first. That
    admits a 2160x3840 output at the default width and refuses 7680x4320.

    The convolutions and spectral transforms split their work across the
    CPUs the process may use, and the output is bit-identical to a
    one-thread run. Like ``conv2d``, they expect single-threaded BLAS.
    """
    check_image(img, "upscale_image")
    check_scale(scale)
    minimum = max(2, gen.cfg.kernel // 2 + 1)
    if scale * min(img.height, img.width) < minimum:
        raise TooSmallError(f"LR frame {img.height}x{img.width} at scale {scale} is under the minimum of {minimum} px")
    out_h, out_w = img.height * scale, img.width * scale
    check_pixels(out_h, out_w, "upscale_image")
    need = out_h * out_w * gen.cfg.width * 4 * EVAL_WORDS
    if need > MAX_EVAL_BYTES:
        raise ShapeError(
            f"upscale_image: a {out_h}x{out_w} output needs about {need / 2**30:.1f} GiB "
            f"at width {gen.cfg.width}, more than {MAX_EVAL_BYTES / 2**30:.0f} GiB"
        )
    up = resample_bicubic(img, out_h, out_w)
    # one C-order copy: the head conv reads it as is, where an HWC-ordered
    # one would be copied again
    x = Tensor(np.ascontiguousarray(up.data.transpose(2, 0, 1)[None]))
    sr = gen(x, training=False).data  # a fresh array that no graph holds
    sr += x.data
    return Image(sr[0].transpose(1, 2, 0))  # Image clamps to [0, 1]


# ---- trainer ----

_STREAMS = ("patch", "noise", "diffusion", "reinit")


class Trainer:
    """Owns both networks, their optimisers and the adaptive controllers."""

    def __init__(self, cfg: RunConfig, seed: int, pairs: list[tuple[np.ndarray, np.ndarray]]):
        check_int(seed, "seed", 0, ConfigError)
        self.cfg = cfg
        self.seed = seed
        self.scale = cfg.get("data.scale")
        self.patch = cfg.get("data.patch")
        self.batch = cfg.get("data.batch")
        self.pairs = self._usable_pairs(pairs)

        root = np.random.SeedSequence(seed)
        init_gen, init_disc, *streams = root.spawn(2 + len(_STREAMS))
        self.gen = Generator(cfg.build(GeneratorConfig), np.random.default_rng(init_gen))
        self.disc = Discriminator(cfg.build(DiscriminatorConfig), np.random.default_rng(init_disc))
        self.rng = {name: np.random.default_rng(seq) for name, seq in zip(_STREAMS, streams)}

        self.weights = cfg.build(L.LossWeights)
        self.extractor = L.PerceptualExtractor()
        self.opt_g = self._adamw(self.gen, "gen.")
        self.opt_d = self._adamw(self.disc, "disc.")
        self.sched_g = cfg.build(CosineRestartSchedule)
        self.sched_d = cfg.build(CosineRestartSchedule, base_lr=cfg.get("opt.lr_d"))
        self.policy = cfg.build(RestartPolicy)
        self.diffusion = cfg.build(DiffusionState)
        self.noise = cfg.build(NoiseState, rng=self.rng["noise"])
        self.step = 0

    def _adamw(self, net, prefix: str) -> AdamW:
        """A fresh optimiser, with zero moments, over ``net``'s parameters."""
        return AdamW(list(net.named_parameters(prefix)))

    def _usable_pairs(self, pairs):
        """(up, hr) of the pairs whose HR holds a whole patch, ``up`` the LR
        image upscaled by exactly ``scale`` and HR trimmed to match. Each LR
        must be its HR downscaled by ``scale``, each HR (H, W, 3), all pixels
        in [0, 1]."""
        usable = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ShapeError(f"pair {i}: expected an (lr, hr) pair, got {type(pair).__name__}")
            try:
                lr, hr = (np.asarray(side, dtype=np.float32) for side in pair)
            except (TypeError, ValueError) as err:  # text, a ragged list
                raise ImageError(f"pair {i}: pixels must be real numbers in one array: {err}") from None
            if hr.ndim != 3 or hr.shape[2] != 3:
                raise ShapeError(f"pair {i}: HR image has shape {hr.shape}, expected (H, W, 3)")
            want = (hr.shape[0] // self.scale, hr.shape[1] // self.scale)
            if lr.shape[:2] != want:
                raise ShapeError(f"pair {i}: LR image is {lr.shape[:2]}, expected {want} for HR {hr.shape[:2]}")
            if not all(((a >= 0) & (a <= 1)).all() for a in (lr, hr)):
                raise ImageError(f"pair {i}: a pixel value is not finite or lies outside [0, 1]")
            hr = hr[: want[0] * self.scale, : want[1] * self.scale]
            if hr.shape[0] >= self.patch and hr.shape[1] >= self.patch:
                usable.append((resample_bicubic(Image(lr), *hr.shape[:2]).data, hr))
        if not usable:
            raise TooSmallError(f"no training image is at least {self.patch}px on both sides")
        return usable

    def _check_finite(self, terms: dict):
        bad = {k: v for k, v in terms.items() if not math.isfinite(v)}
        if bad:
            raise TrainAbort(
                f"non-finite loss at step {self.step}: {bad}",
                diagnostics={"step": self.step, **terms},
            )

    def train_step(self) -> dict:
        up_b, hr_b = sample_patches(self.pairs, self.patch, self.scale, self.rng["patch"], self.batch)
        up_t = Tensor(up_b)
        hr_t = Tensor(hr_b)
        real_res = Tensor(hr_b - up_b)
        fake_res = self.gen(up_t, noise=self.noise, training=True)

        # discriminator: diffused real, then diffused detached fake residuals
        diffuse, rng = self.diffusion.diffuse, self.rng["diffusion"]
        d_real = self.disc(diffuse(real_res, rng))
        d_fake = self.disc(diffuse(fake_res.detach(), rng))
        d_loss = L.adversarial_disc_loss(d_real, d_fake)
        self._check_finite({"d_loss": d_loss.item()})
        self.opt_d.zero_grad()
        d_loss.backward()
        lr_d = self.sched_d.lr_at(self.step) * self.policy.disc_lr_multiplier
        self.opt_d.step(lr=lr_d)

        # generator: the adversarial term flows through the updated discriminator
        sr = T.clamp(up_t + fake_res, 0.0, 1.0)
        g_loss, terms = L.generator_loss(
            sr, hr_t, self.disc(diffuse(fake_res, rng)), self.extractor, self.weights, self.policy.adv_multiplier
        )
        terms = {name: term.item() for name, term in terms.items()}
        terms["g_loss"] = g_loss.item()
        self._check_finite(terms)
        self.opt_g.zero_grad()
        g_loss.backward()
        lr_g = self.sched_g.lr_at(self.step)
        self.opt_g.step(lr=lr_g)

        d_acc = float(np.mean(np.concatenate([d_real.data > 0.5, d_fake.data < 0.5])))
        if self.policy.observe(d_acc, self.step).reinit_discriminator:
            self._reinit_discriminator()
        self.diffusion.adapt(d_real.data, self.step)
        self.noise.anneal(terms["g_loss"], self.step)

        record = {
            "step": self.step,
            **terms,
            "lr_g": lr_g,
            "d_loss": d_loss.item(),
            "d_acc": d_acc,
            "lr_d": lr_d,
            "T": self.diffusion.t,
            "r_d": self.diffusion.r_d,
            "noise": self.noise.multiplier,
        }
        self.step += 1
        return record

    def _reinit_discriminator(self):
        self.disc = Discriminator(self.disc.cfg, self.rng["reinit"])
        self.opt_d = self._adamw(self.disc, "disc.")

    # ---- checkpoint integration ----

    def _tensor_slots(self):
        return _tensor_slots(("gen.", self.gen), ("disc.", self.disc), opts=(("g", self.opt_g), ("d", self.opt_d)))

    def _scalar_slots(self, bit_states: dict):
        """(key, owner, name, codec) of every scalar the checkpoint carries;
        the RNG entries live in ``bit_states``, one dict per stream."""
        for path, codec in _SCALAR_FIELDS:
            *head, name = path.split(".")
            yield f"state.{path}", reduce(getattr, head, self), name, codec
        for stream, bits in bit_states.items():
            for key, (*head, name), codec in _RNG_FIELDS:
                yield f"state.rng.{stream}.{key}", reduce(operator.getitem, head, bits), name, codec

    def snapshot(self) -> tuple[dict, dict]:
        """(state text mapping, tensor table mapping) capturing everything."""
        bit_states = {name: rng.bit_generator.state for name, rng in self.rng.items()}
        state = {key: enc(_get(owner, name)) for key, owner, name, (enc, _) in self._scalar_slots(bit_states)}
        tensors = {key: _get(owner, name) for key, owner, name in self._tensor_slots()}
        tensors["state.policy.window"] = np.asarray(self.policy._acc, dtype=np.float64)
        return state, tensors

    def _restore(self, state: dict, tensors: dict):
        """Inverse of :meth:`snapshot`; a missing or malformed entry, or a
        value no run reaches, raises :class:`CheckpointError` naming the
        ``state`` or ``tensor table``."""
        bit_states = {name: rng.bit_generator.state for name, rng in self.rng.items()}
        for key, owner, name, (_, dec) in self._scalar_slots(bit_states):
            _set(owner, name, _decode_state(state, key, dec))
        if self.diffusion.t > self.diffusion.t_max:
            msg = f"state entry 'state.diffusion.t' = {self.diffusion.t} is above t_max {self.diffusion.t_max}"
            raise CheckpointError(msg, section="state")
        for name, rng in self.rng.items():
            try:
                rng.bit_generator.state = bit_states[name]
            except (OverflowError, ValueError) as exc:
                raise CheckpointError(f"RNG stream {name!r}: {exc}", section="state") from None
        _load_tensors(self._tensor_slots(), tensors)
        window = tensors.get("state.policy.window")
        if window is None or window.dtype != np.float64 or window.ndim != 1 or len(window) > self.policy.window:
            raise CheckpointError("policy window missing or malformed", section="tensor table")
        self.policy._acc = [float(v) for v in window]

    @classmethod
    def from_checkpoint(cls, ckpt: "Checkpoint", pairs) -> "Trainer":
        trainer = cls(ckpt.config, _decode_state(ckpt.state, "state.seed", _COUNT[1]), pairs)
        trainer._restore(ckpt.state, ckpt.tensors)
        return trainer


# ---- checkpoint file format ----

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    config: RunConfig
    state: dict
    tensors: dict


def write_checkpoint(path, config_text: str, state: dict, tensors: dict):
    """magic, version, key=value text, tensor table, trailing CRC32; synced
    to ``path + ".tmp"`` and renamed over ``path``, so a failed write leaves
    the previous checkpoint as it was."""
    text_lines = [config_text.rstrip("\n")]
    for key in sorted(state):
        text_lines.append(f"{key} = {state[key]}")
    blob = "\n".join(text_lines).encode("utf-8") + b"\n"

    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    names = sorted(tensors)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(tensors[name])
        tag = _DTYPE_TAGS[np.dtype(arr.dtype)]
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<BB", tag, arr.ndim)
        for extent in arr.shape:
            out += struct.pack("<I", extent)
        out += arr.astype(_TAG_DTYPES[tag], copy=False).tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic (not a checkpoint file)", section="magic")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}", section="version")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("checksum mismatch in tensor table", section="checksum")

    pos = 8
    (text_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    if pos + text_len > len(raw) - 4:
        raise CheckpointError("config text overruns the file", section="config")
    try:
        text = raw[pos : pos + text_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"config text is not UTF-8: {exc}", section="config") from None
    pos += text_len

    config_lines = []
    state: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("state."):
            key, _, value = stripped.partition("=")
            state[key.strip()] = value.strip()
        else:
            config_lines.append(line)
    try:
        config = parse_config("\n".join(config_lines) + "\n")
    except FftsrError as exc:
        raise CheckpointError(f"embedded config invalid: {exc}", section="config") from None

    tensors: dict[str, np.ndarray] = {}
    try:
        (count,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos : pos + name_len].decode("utf-8")
            pos += name_len
            tag, rank = struct.unpack_from("<BB", raw, pos)
            pos += 2
            shape = struct.unpack_from(f"<{rank}I", raw, pos) if rank else ()
            pos += 4 * rank
            dtype = _TAG_DTYPES[tag]
            nbytes = int(np.prod(shape, dtype=np.int64) if rank else 1) * dtype.itemsize
            payload = raw[pos : pos + nbytes]
            if len(payload) != nbytes:
                raise CheckpointError(f"tensor {name!r} payload truncated", section="tensor table")
            pos += nbytes
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    except (struct.error, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed tensor table: {exc}", section="tensor table") from None
    if pos != len(raw) - 4:
        raise CheckpointError("trailing bytes after tensor table", section="tensor table")
    return Checkpoint(config=config, state=state, tensors=tensors)


def save_trainer(trainer: Trainer, path):
    state, tensors = trainer.snapshot()
    write_checkpoint(path, serialize_config(trainer.cfg), state, tensors)


def generator_from_checkpoint(ckpt: Checkpoint) -> Generator:
    gen = build_generator(ckpt.config, seed=0)
    _load_tensors(_tensor_slots(("gen.", gen)), ckpt.tensors)
    return gen


# ---- checkpoint state table ----


def _checked(parse, admits, what: str):
    """A decoder that parses text and raises ``ValueError`` for a value no run reaches."""

    def decode(text: str):
        value = parse(text)
        if not admits(value):
            raise ValueError(f"{text!r} is not {what}")
        return value

    return decode


# (encode to text, decode from text)
_INT = (str, int)
_COUNT = (str, _checked(int, lambda v: v >= 0, "a count >= 0"))
_FLOAT = (repr, _checked(float, math.isfinite, "a finite float"))
_OPTIONAL_FLOAT = (lambda v: "none" if v is None else repr(v), lambda s: None if s == "none" else _FLOAT[1](s))
_MODE = (str, _checked(str, RestartPolicy.MODES.__contains__, f"one of {RestartPolicy.MODES}"))

# every stored scalar of trainer state, as "state." + its attribute path on
# the Trainer, with its codec; snapshot and restore both walk this table
_SCALAR_FIELDS = (
    ("step", _COUNT),
    ("seed", _COUNT),
    ("opt_g.t", _COUNT),
    ("opt_d.t", _COUNT),
    ("diffusion.t", _COUNT),
    ("diffusion.r_d", _FLOAT),
    ("noise.ema", _FLOAT),
    ("noise.initial", _OPTIONAL_FLOAT),
    ("policy.mode", _MODE),
    ("policy.last_trigger_step", _INT),
)
# the integers of one PCG64 stream: key suffix, path in ``bit_generator.state``,
# codec; seeding makes ``inc`` odd, and ``has_uint32`` is a flag
_RNG_FIELDS = (
    ("state", ("state", "state"), _INT),
    ("inc", ("state", "inc"), (str, _checked(int, lambda v: v % 2 == 1, "odd"))),
    ("has_uint32", ("has_uint32",), (str, _checked(int, (0, 1).__contains__, "0 or 1"))),
    ("uinteger", ("uinteger",), _INT),
)


def _get(owner, name):
    return owner[name] if isinstance(owner, (dict, list)) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, (dict, list)):
        owner[name] = value
    else:
        setattr(owner, name, value)


def _decode_state(state: dict, key: str, decode):
    try:
        return decode(state[key])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"state entry {key!r} missing or malformed: {exc!r}", section="state") from None


def _tensor_slots(*modules, opts=()):
    """(checkpoint key, owner, name) of every array stored for ``modules``,
    given as (prefix, module) pairs, and ``opts``, as (tag, AdamW) pairs."""
    for prefix, module in modules:
        for name, p in module.named_parameters(prefix):
            yield f"param.{name}", p, "data"
        for name, owner, attr in module.named_buffers(prefix):
            yield f"buffer.{name}", owner, attr
    for tag, opt in opts:
        for i, pname in enumerate(opt.names):
            yield f"opt.{tag}.m.{pname}", opt.m, i
            yield f"opt.{tag}.v.{pname}", opt.v, i


def _load_tensors(slots, tensors: dict):
    """Copy every slot's stored array in; it must match the slot's current
    array in shape and dtype, hold only finite values and, for a
    BatchNorm ``running_var``, none below 0."""
    for key, owner, name in slots:
        want, got = _get(owner, name), tensors.get(key)
        if got is None:
            raise CheckpointError(f"tensor {key!r} missing", section="tensor table")
        if got.shape != want.shape or got.dtype != want.dtype:
            raise CheckpointError(
                f"tensor {key!r} is {got.dtype}{got.shape}, expected {want.dtype}{want.shape}",
                section="tensor table",
            )
        if not np.isfinite(got).all():
            raise CheckpointError(f"tensor {key!r} holds a non-finite value", section="tensor table")
        if key.endswith(".running_var") and (got < 0).any():
            raise CheckpointError(f"tensor {key!r} holds a negative variance", section="tensor table")
        _set(owner, name, got.copy())
