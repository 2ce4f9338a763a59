"""Run configuration: ``key = value`` text files with dotted sections.

Every key has a documented default and range below; unknown keys are
rejected so typos fail before any compute, and out-of-range values fail
in :meth:`RunConfig.validate` instead of mid-step. Serialization is
canonical (schema order, repr-formatted floats), which makes parse ->
serialize -> parse a fixed point and lets checkpoints embed the exact
configuration text.

A class built from the configuration derives from :class:`Settings` and
declares each setting field as ``setting("<key>")``: the field takes its
key, default and check from the schema, and :meth:`RunConfig.build`
fills it from that key. Values that no run varies are constants, not
keys: those of ``optim.AdamW`` and ``optim.RestartPolicy``, the diffusion
beta schedule of ``train.DiffusionState``, ``losses.CHARBONNIER_EPS`` and
``nets.EMA_DECAY``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError, is_int

__all__ = ["RunConfig", "CONFIG_SCHEMA", "Settings", "setting", "check_value", "parse_config", "serialize_config", "default_config"]


# key -> (default, type, allowed interval or None, help); every number has an
# interval, and NaN and infinities lie in none of them
CONFIG_SCHEMA: dict[str, tuple] = {
    "data.scale": (3, int, "[2, inf)", "super-resolution factor"),
    "data.patch": (48, int, "[6, inf)", "HR training patch size; divisible by data.scale, >= 6 for the SSIM window"),
    "data.batch": (8, int, "[1, inf)", "patches per training step"),
    "gen.blocks": (6, int, "[0, inf)", "number of FFC blocks in the generator trunk"),
    "gen.width": (26, int, "[1, inf)", "generator trunk channel width"),
    "gen.global_fraction": (0.5, float, "[0, 1]", "share of channels routed to the spectral branch"),
    "gen.kernel": (3, int, "[1, inf)", "local-branch convolution kernel size (odd, kernel // 2 < data.patch)"),
    "gen.noise_sigma": (0.05, float, "[0, inf)", "base amplitude of between-block Gaussian noise"),
    "gen.zero_tail": (False, bool, None, "zero-init the final conv so training starts at the bicubic baseline"),
    "disc.width": (16, int, "[1, inf)", "discriminator first conv width (doubles per layer)"),
    "disc.layers": (3, int, "[0, inf)", "number of stride-2 discriminator conv layers"),
    "loss.adversarial": (1.0, float, "[0, inf)", "weight of the adversarial term"),
    "loss.perceptual": (1.0, float, "[0, inf)", "weight of the perceptual term"),
    "loss.mge": (1.0, float, "[0, inf)", "weight of the mean-gradient-error term"),
    "loss.ssim": (1.0, float, "[0, inf)", "weight of the (negated) SSIM term"),
    "loss.charbonnier": (1.0, float, "[0, inf)", "weight of the Charbonnier term"),
    "opt.lr_g": (2e-3, float, "[0, inf)", "generator base (peak) learning rate"),
    "opt.lr_d": (1e-3, float, "[0, inf)", "discriminator base (peak) learning rate"),
    "sched.cycle_steps": (2000, int, "[1, inf)", "steps per cosine annealing cycle"),
    "sched.peak_decay": (0.95, float, "[0, inf)", "per-cycle peak decay factor"),
    "sched.floor_fraction": (0.5, float, "[0, 1]", "end-of-cycle lr as a fraction of the cycle peak"),
    "policy.enabled": (True, bool, None, "enable the accuracy-driven discriminator restart policy"),
    "policy.window": (200, int, "[1, inf)", "rolling accuracy window length (steps)"),
    "policy.acc_low": (0.5, float, "[0, 1]", "boost when mean accuracy falls below this"),
    "diffusion.t_max": (500, int, "[0, inf)", "maximum diffusion timestep; 0 turns diffusion off"),
    "diffusion.target": (0.6, float, "[-1, 1]", "target discriminator overfit estimate r_d"),
    "diffusion.stride": (1, int, "[0, inf)", "timestep adjustment per adaptation"),
    "diffusion.adapt_every": (4, int, "[1, inf)", "adapt the diffusion timestep every N steps"),
    "noise.warmup_steps": (100, int, "[0, inf)", "steps of loss EMA captured as the noise baseline"),
}


@dataclass(frozen=True)
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, key: str):
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def replace(self, **overrides) -> "RunConfig":
        """New config with dotted keys given as underscored kwargs or a dict."""
        vals = dict(self.values)
        for key, value in overrides.items():
            key = key.replace("__", ".")
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            vals[key] = _coerce(key, value)
        return RunConfig(vals)

    def build(self, cls, **extra):
        """``cls`` with every setting field read from its key; ``extra``
        gives other fields, or another value for a setting field, by name."""
        kwargs = {f.name: self.values[f.metadata["key"]] for f in dataclasses.fields(cls) if "key" in f.metadata}
        return cls(**(kwargs | extra))

    def validate(self):
        for key in CONFIG_SCHEMA | self.values:  # get refuses a key outside the schema
            check_value(key, self.get(key))
        scale, patch = self.get("data.scale"), self.get("data.patch")
        if patch % scale != 0:
            raise ConfigError(f"data.patch {patch} not divisible by data.scale {scale}")
        kernel = self.get("gen.kernel")
        if kernel % 2 == 0 or kernel // 2 >= patch:
            raise ConfigError(f"gen.kernel {kernel} must be odd, with a reflect pad below data.patch {patch}")
        return self


def check_value(key: str, value, name: str | None = None) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer that is not a
    ``bool`` (for an int key) and lies in the interval of config key
    ``key``; the message calls the value ``name`` (default ``key``)."""
    _, typ, interval, _ = CONFIG_SCHEMA[key]
    if typ is int and not is_int(value):
        raise ConfigError(f"{name or key} = {value!r} is not an integer")
    if interval is not None and not _within(value, interval):
        raise ConfigError(f"{name or key} = {value!r} is outside {interval}")


def setting(key: str, required: bool = False):
    """A dataclass field read from config key ``key``, with the key's
    default unless ``required``."""
    if required:
        return field(metadata={"key": key})
    return field(default=CONFIG_SCHEMA[key][0], metadata={"key": key})


class Settings:
    """Base of a dataclass with setting fields: :func:`check_value` checks
    each one against its key when the object is built."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "key" in f.metadata:
                check_value(f.metadata["key"], getattr(self, f.name), f"{type(self).__name__}.{f.name}")


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like ``[0, 1)``."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = value >= lo if interval[0] == "[" else value > lo
    below = value <= hi if interval[-1] == "]" else value < hi
    return above and below


def _coerce(key: str, raw):
    typ = CONFIG_SCHEMA[key][1]
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if typ is int:
            if not (is_int(raw) or (isinstance(raw, str) and not any(c in raw for c in ".eE"))):
                raise ValueError(raw)
            return int(raw)
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: expected {typ.__name__}, got {raw!r}") from None


def default_config() -> RunConfig:
    return RunConfig({key: row[0] for key, row in CONFIG_SCHEMA.items()})


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown and
    repeated keys fail."""
    values = dict(default_config().values)
    set_on: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _coerce(key, value)
    return RunConfig(values).validate()


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_format(cfg.values[key])}" for key in CONFIG_SCHEMA]
    return "\n".join(lines) + "\n"
