"""Behaviour contract: digests of training records and upscale output.

Run from the repository root, on two commits, and compare the output:

    PYTHONPATH=src python tests/contract.py CKPT

Every line is a run name and the SHA-256 of its records (or of the
upscaled pixels). The runs are 20 default-config steps (seed 0, 16
corpus textures at 96 px); 12 steps of the small test config for seeds
0, 1 and 3, with the restart policy off, and with a noise warm-up of 0
and of 1 step; and a resume: if CKPT does not exist, 6 small-config
steps (seed 3) are saved there, and the run named ``resume`` is the 6
steps after loading CKPT. Point two commits at the same CKPT to check
that one commit continues the other's checkpoint identically. Three lines
digest the bytes of frames upscaled by the default run's generator: two
small ones and one of 108x192, the largest frame of the upscale benchmark,
whose 324x576 convolutions each run in many row bands. Two more digest
that 108x192 frame upscaled by default-config generators with
``gen.global_fraction`` 0 (``upscale.local``) and 1 (``upscale.global``),
each after 3 training steps, so the eval forward's all-local and
all-global blocks are pinned too.
The ``grad.*`` lines digest the gradient of every generator and
discriminator parameter after each of the default run's first two steps,
so gradients are checked bit for bit, not only the records they lead to.
``sample.up`` and ``sample.hr`` digest the two sides of 20 batches that
``train.sample_patches`` crops from the default run's pairs. The last
lines digest the outputs of the forward transform, the inverse and their
adjoints on seeded float32 inputs, at the training batch shape and at 13
channels for the four HR frame sizes of the upscale benchmark.
The ``decode.*`` lines digest ``decode_image``'s pixels for seeded PNGs at
the six shapes of the ingest benchmark, with its 20-row filter cycle (3
of 4 rows Paeth), for one 360x640 frame of Paeth rows only, and for one
96x160 RGBA frame whose rows cycle through all five filters
(``decode.mixed``), so None and Average rows sit inside a wavefront span.
The ``ingest.*`` lines digest the PNG bytes that ``encode_image`` writes
for the LR side of ``make_lr_hr_pair(., 3)`` of each ingest-shape frame.

The script pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` = 1, set before numpy is
imported, as the benchmark's workers run), whatever the caller's
environment says: with OpenBLAS at two threads the
``upscale.global.108x192`` digest differs, so two commits compare only
under one setting.

pytest does not collect this file (it does not match ``test_*.py``).
"""

import hashlib
import os
import sys
import zlib
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # after the BLAS pins, which OpenBLAS reads on load

from fftsr import fft, train
from fftsr.config import default_config
from fftsr.corpus import make_texture_corpus
from fftsr.image import Image, decode_image, encode_image, make_lr_hr_pair

from test_image import filter_rows, ihdr, png_file
from test_train import SMALL

# (height, width, channels) of the ingest benchmark's files and its row filters
INGEST_SHAPES = ((192, 192, 3), (108, 192, 3), (90, 160, 4), (127, 127, 4), (96, 96, 3), (61, 109, 3))
FILTER_CYCLE = (4, 4, 2, 4, 4, 1, 4, 4, 2, 4, 4, 4, 4, 4, 2, 4, 4, 4, 2, 4)


def _pairs(count, size):
    return [tuple(i.data for i in make_lr_hr_pair(img, 3)) for img in make_texture_corpus(count, size, seed=0)]


def _digest(payload) -> str:
    return hashlib.sha256(payload if isinstance(payload, bytes) else repr(payload).encode()).hexdigest()


def _steps(trainer, n):
    return [trainer.train_step() for _ in range(n)]


def _grads(net) -> str:
    return _digest([(name, None if p.grad is None else p.grad.tobytes()) for name, p in net.named_parameters()])


def main(ckpt: Path):
    small = default_config().replace(**SMALL)
    small_pairs = _pairs(4, 24)

    default_pairs = _pairs(16, 96)
    default = train.Trainer(default_config(), 0, default_pairs)
    runs, grads = {"default": []}, {}
    for step in range(20):
        runs["default"].append(default.train_step())
        if step < 2:
            grads[f"grad.step{step}.gen"] = _grads(default.gen)
            grads[f"grad.step{step}.disc"] = _grads(default.disc)
    for seed in (0, 1, 3):
        runs[f"small.seed{seed}"] = _steps(train.Trainer(small, seed, small_pairs), 12)
    runs["small.policy_off"] = _steps(train.Trainer(small.replace(policy__enabled=False), 0, small_pairs), 12)
    for warmup in (0, 1):
        trainer = train.Trainer(small.replace(noise__warmup_steps=warmup), 0, small_pairs)
        runs[f"small.warmup{warmup}"] = _steps(trainer, 12)

    if not ckpt.exists():
        first = train.Trainer(small, 3, small_pairs)
        _steps(first, 6)
        train.save_trainer(first, ckpt)
    resumed = train.Trainer.from_checkpoint(train.read_checkpoint(ckpt), small_pairs)
    runs["resume"] = _steps(resumed, 6)
    for name, records in runs.items():
        print(f"{name:18s} {_digest(records)}")
    for name, digest in grads.items():
        print(f"{name:18s} {digest}")
    print(f"{'resume == seed3':18s} {runs['resume'] == runs['small.seed3'][6:]}")

    frames = make_texture_corpus(2, 61, seed=1)
    for img, (h, w) in zip(frames, ((35, 61), (32, 32))):
        out = train.upscale_image(default.gen, Image(img.data[:h, :w]), 3)
        print(f"{f'upscale.{h}x{w}':18s} {_digest(np.ascontiguousarray(out.data).tobytes())}")
    big = make_texture_corpus(1, 192, seed=2)[0]
    out = train.upscale_image(default.gen, Image(big.data[:108]), 3)
    print(f"{'upscale.108x192':18s} {_digest(np.ascontiguousarray(out.data).tobytes())}")
    for name, fraction in (("local", 0.0), ("global", 1.0)):
        trainer = train.Trainer(default_config().replace(gen__global_fraction=fraction), 0, default_pairs)
        _steps(trainer, 3)
        out = train.upscale_image(trainer.gen, Image(big.data[:108]), 3)
        print(f"{f'upscale.{name}.108x192':28s} {_digest(np.ascontiguousarray(out.data).tobytes())}")

    rng = np.random.default_rng(0)
    batches = [train.sample_patches(default.pairs, 48, 3, rng, 8) for _ in range(20)]
    for k, side in enumerate(("up", "hr")):
        print(f"{f'sample.{side}':18s} {_digest(b''.join(batch[k].tobytes() for batch in batches))}")

    rng = np.random.default_rng(0)
    for n, h, w in ((8, 48, 48), (1, 324, 576), (1, 225, 225), (1, 105, 183), (1, 96, 96)):
        x = rng.standard_normal((n, 13, h, w)).astype(np.float32)
        g = rng.standard_normal((n, 26, h, fft.half_width(w))).astype(np.float32)
        print(f"{f'rfft2d.{n}x13x{h}x{w}':28s} {_digest(fft.rfft2d_array(x).tobytes())}")
        print(f"{f'rfft2d_adjoint.{n}x13x{h}x{w}':28s} {_digest(fft.rfft2d_adjoint(g, w).tobytes())}")
        print(f"{f'irfft2d.{n}x13x{h}x{w}':28s} {_digest(fft.irfft2d_array(g, w).tobytes())}")
        print(f"{f'irfft2d_adjoint.{n}x13x{h}x{w}':28s} {_digest(fft.irfft2d_adjoint(x).tobytes())}")

    rng = np.random.default_rng(0)
    files = [(shape, [FILTER_CYCLE[y % len(FILTER_CYCLE)] for y in range(shape[0])]) for shape in INGEST_SHAPES]
    files.append(((360, 640, 3), [4] * 360))
    files.append(((96, 160, 4), [y % 5 for y in range(96)]))
    ingest = []
    for (h, w, c), filters in files:
        pixels = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
        raw = png_file(ihdr(w, h, 2 if c == 3 else 6), zlib.compress(filter_rows(pixels, filters)))
        img = decode_image(raw)
        name = "decode.mixed" if len(set(filters)) == 5 else f"decode.{h}x{w}x{c}"
        print(f"{name:28s} {_digest(img.data.tobytes())}")
        if (h, w, c) in INGEST_SHAPES:
            ingest.append((f"ingest.{h}x{w}x{c}", encode_image(make_lr_hr_pair(img, 3)[0])))
    for name, png in ingest:
        print(f"{name:28s} {_digest(png)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]))
