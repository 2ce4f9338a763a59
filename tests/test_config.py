import collections
import dataclasses
import functools
import math

import numpy as np
import pytest

from fftsr.config import CONFIG_SCHEMA, RunConfig, default_config, parse_config, serialize_config
from fftsr.errors import ConfigError
from fftsr.losses import LossWeights
from fftsr.nets import DiscriminatorConfig, GeneratorConfig, NoiseState
from fftsr.optim import CosineRestartSchedule, RestartPolicy
from fftsr.train import DiffusionState, Trainer

CHANGED = dict(
    data__scale=2,
    data__patch=32,
    gen__global_fraction=0.1,
    gen__zero_tail=True,
    opt__lr_g=3e-4,
    opt__lr_d=1.5e-9,
    sched__floor_fraction=1 / 3,
    policy__enabled=False,
    diffusion__target=0.0123456789,
)

# keys that no run varied, now constants of the code that reads them
REMOVED = (
    "loss.charbonnier_eps", "opt.beta1", "opt.beta2", "opt.eps", "opt.weight_decay", "policy.acc_high",
    "policy.lr_boost", "policy.adv_scale", "policy.cooldown", "policy.restart_every", "diffusion.beta_start",
    "diffusion.beta_end", "train.ema_decay",
)


def test_schema_has_29_keys_in_sections():
    assert len(CONFIG_SCHEMA) == 29
    assert all("." in key for key in CONFIG_SCHEMA)


def test_default_config_validates():
    cfg = default_config()
    assert cfg.validate() is cfg


@pytest.mark.parametrize("cfg", [default_config(), default_config().replace(**CHANGED)], ids=["default", "changed"])
def test_parse_serialize_parse_is_a_fixed_point(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.values == cfg.values
    assert serialize_config(again) == text
    assert [type(again.get(k)) for k in CONFIG_SCHEMA] == [type(cfg.get(k)) for k in CONFIG_SCHEMA]


def test_floats_survive_the_text_exactly():
    cfg = parse_config(serialize_config(default_config().replace(sched__floor_fraction=1 / 3)))
    assert cfg.get("sched.floor_fraction") == 1 / 3


def test_comments_blank_lines_and_defaults():
    cfg = parse_config("# header\n\ngen.blocks = 2   # fewer\n  data.batch=4\n")
    assert cfg.get("gen.blocks") == 2 and cfg.get("data.batch") == 4
    assert cfg.get("gen.width") == default_config().get("gen.width")


@pytest.mark.parametrize(
    "text",
    ["gen.blockz = 2", "gen.blocks", "gen.blocks = 2.0", "gen.blocks = two", "gen.zero_tail = maybe", "opt.lr_g = fast"],
)
def test_bad_lines_raise_config_error(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: key 'gen.blocks' is already set on line 1"):
        parse_config("gen.blocks = 2\ndata.batch = 4\ngen.blocks = 3\n")


def test_replace_takes_underscored_keys_and_coerces():
    cfg = default_config().replace(gen__blocks="3", policy__enabled="no")
    assert cfg.get("gen.blocks") == 3 and cfg.get("policy.enabled") is False
    with pytest.raises(ConfigError):
        default_config().replace(gen__nope=1)


@pytest.mark.parametrize("key", REMOVED)
def test_a_removed_key_fails_in_text_and_in_replace(key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        parse_config(f"{key} = 0.5\n")
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        default_config().replace(**{key.replace(".", "__"): 0.5})


def test_get_of_an_unknown_key_names_it():
    with pytest.raises(ConfigError, match="unknown config key 'opt.beta1'"):
        default_config().get("opt.beta1")


def test_validate_refuses_a_config_built_with_an_unknown_key():
    cfg = RunConfig(default_config().values | {"opt.beta1": 0.9})
    with pytest.raises(ConfigError, match="unknown config key 'opt.beta1'"):
        cfg.validate()


def test_bool_and_float_spellings():
    cfg = parse_config("gen.zero_tail = YES\nopt.lr_g = 1e-3\n")
    assert cfg.get("gen.zero_tail") is True
    assert math.isclose(cfg.get("opt.lr_g"), 1e-3)


@pytest.mark.parametrize(
    "override",
    [
        dict(sched__cycle_steps=0),
        dict(diffusion__adapt_every=0),
        dict(policy__window=0),
        dict(gen__width=0),
        dict(gen__kernel=2),
        dict(data__patch=12, gen__kernel=25),
        dict(data__patch=3),
        dict(opt__lr_g=float("nan")),
        dict(opt__lr_d=float("inf")),
        dict(data__scale=1),
        dict(data__batch=0),
        dict(data__patch=50),
        dict(gen__global_fraction=1.5),
        dict(diffusion__t_max=-1),
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_out_of_range_values_fail_in_validate(override):
    cfg = default_config().replace(**override)
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        parse_config(serialize_config(cfg))


@pytest.mark.parametrize("value", [2.5, True, np.True_], ids=["float", "bool", "numpy-bool"])
def test_int_keys_take_only_integers_that_are_not_bools(value):
    with pytest.raises(ConfigError, match="sched.cycle_steps"):
        default_config().replace(sched__cycle_steps=value)
    with pytest.raises(ConfigError, match="CosineRestartSchedule.cycle_steps = .* is not an integer"):
        CosineRestartSchedule(base_lr=1.0, cycle_steps=value)


def test_numpy_integers_are_integers():
    assert default_config().replace(sched__cycle_steps=np.int64(3)).get("sched.cycle_steps") == 3
    assert CosineRestartSchedule(base_lr=1.0, cycle_steps=np.int64(3)).lr_at(3) == 0.95


def test_every_number_has_an_interval():
    for key, (default, typ, interval, _) in CONFIG_SCHEMA.items():
        assert (interval is None) == (typ is bool), key
        if interval is not None:
            assert interval[0] in "[(" and interval[-1] in ")]", key


# the seven classes built from the configuration
CONFIGURED = (
    GeneratorConfig, DiscriminatorConfig, NoiseState, LossWeights, CosineRestartSchedule, RestartPolicy, DiffusionState,
)

# every key, moved off its default to a value that still validates
MOVED = dict(
    data__scale=2, data__patch=24, data__batch=3,
    gen__blocks=2, gen__width=9, gen__global_fraction=0.25, gen__kernel=5, gen__noise_sigma=0.07, gen__zero_tail=True,
    disc__width=5, disc__layers=2,
    loss__adversarial=0.5, loss__perceptual=0.25, loss__mge=1.5, loss__ssim=2.0, loss__charbonnier=3.0,
    opt__lr_g=3e-3, opt__lr_d=4e-3,
    sched__cycle_steps=30, sched__peak_decay=0.9, sched__floor_fraction=0.25,
    policy__enabled=False, policy__window=7, policy__acc_low=0.4,
    diffusion__t_max=50, diffusion__target=0.5, diffusion__stride=2, diffusion__adapt_every=3,
    noise__warmup_steps=17,
)

# key -> the trainer attributes that carry its value
CARRIERS = {
    "data.scale": ["scale"],
    "data.patch": ["patch"],
    "data.batch": ["batch"],
    **{f"gen.{name}": [f"gen.cfg.{name}"] for name in ("blocks", "width", "global_fraction", "kernel", "zero_tail")},
    "gen.noise_sigma": ["noise.sigma0"],
    **{f"disc.{name}": [f"disc.cfg.{name}"] for name in ("width", "layers")},
    **{f"loss.{f.name}": [f"weights.{f.name}"] for f in dataclasses.fields(LossWeights)},
    "opt.lr_g": ["sched_g.base_lr"],
    "opt.lr_d": ["sched_d.base_lr"],
    **{f"sched.{n}": [f"sched_g.{n}", f"sched_d.{n}"] for n in ("cycle_steps", "peak_decay", "floor_fraction")},
    **{key: [key] for key in CONFIG_SCHEMA if key.startswith(("policy.", "diffusion."))},
    "noise.warmup_steps": ["noise.warmup_steps"],
}


class TestBuild:
    def test_every_key_reaches_the_trainer(self):
        cfg = default_config().replace(**MOVED).validate()
        assert sorted(CARRIERS) == sorted(CONFIG_SCHEMA)
        assert all(cfg.get(key) != row[0] for key, row in CONFIG_SCHEMA.items())
        hr = np.random.default_rng(0).random((24, 24, 3), dtype=np.float32)
        trainer = Trainer(cfg, 0, [(hr[::2, ::2], hr)])
        for key, paths in CARRIERS.items():
            for path in paths:
                assert functools.reduce(getattr, path.split("."), trainer) == cfg.get(key), (key, path)

    @pytest.mark.parametrize(
        "cls, section",
        [
            (GeneratorConfig, "gen"),
            (DiscriminatorConfig, "disc"),
            (LossWeights, "loss"),
            (RestartPolicy, "policy"),
        ],
    )
    def test_every_matching_key_reaches_the_object(self, cls, section):
        cfg = default_config().replace(**MOVED).validate()
        built = cfg.build(cls)
        carried = [f for f in dataclasses.fields(cls) if "key" in f.metadata]
        assert carried
        for f in carried:
            assert f.metadata["key"].startswith(section + "."), f.name
            assert getattr(built, f.name) == cfg.get(f.metadata["key"]) != CONFIG_SCHEMA[f.metadata["key"]][0]

    def test_every_setting_key_is_in_the_schema_and_has_one_owner(self):
        owners = collections.Counter(
            f.metadata["key"] for cls in CONFIGURED for f in dataclasses.fields(cls) if "key" in f.metadata
        )
        assert set(owners) <= set(CONFIG_SCHEMA)
        assert [key for key, n in owners.items() if n > 1] == []

    def test_required_settings_stay_required(self):
        for build in (lambda: NoiseState(), lambda: NoiseState(0.1), lambda: CosineRestartSchedule()):
            with pytest.raises(TypeError, match="missing"):
                build()

    @pytest.mark.parametrize(
        "cls, extra",
        [
            (GeneratorConfig, {}),
            (DiscriminatorConfig, {}),
            (LossWeights, {}),
            (RestartPolicy, {}),
            (DiffusionState, {}),
            (CosineRestartSchedule, {"base_lr": 1.0}),
            (NoiseState, {"sigma0": 0.05, "rng": None}),
        ],
        ids=["gen", "disc", "loss", "policy", "diffusion", "sched", "noise"],
    )
    def test_every_field_with_a_key_is_checked_against_it(self, cls, extra):
        checked = [f for f in dataclasses.fields(cls) if "key" in f.metadata]
        assert checked
        for f in checked:
            typ = CONFIG_SCHEMA[f.metadata["key"]][1]
            if typ is not bool:
                bad = 2.5 if typ is int else math.nan
                with pytest.raises(ConfigError, match=f"{cls.__name__}.{f.name} = "):
                    cls(**(extra | {f.name: bad}))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RestartPolicy(window=0),
            lambda: DiffusionState(adapt_every=0),
            lambda: GeneratorConfig(width=0),
            lambda: GeneratorConfig(global_fraction=2.0),
            lambda: CosineRestartSchedule(base_lr=-1.0),
            lambda: NoiseState(sigma0=math.nan, rng=None),
        ],
        ids=[
            "policy.window",
            "diffusion.adapt_every",
            "gen.width",
            "gen.global_fraction",
            "opt.lr_g",
            "gen.noise_sigma",
        ],
    )
    def test_a_value_outside_its_key_interval_fails_at_construction(self, build):
        # each of these used to raise ZeroDivisionError or a bare ValueError mid-run
        with pytest.raises(ConfigError, match="is outside"):
            build()

    def test_every_field_of_the_config_objects_has_a_key(self):
        for cls in (GeneratorConfig, DiscriminatorConfig, LossWeights):
            for f in dataclasses.fields(cls):
                assert f.metadata["key"] in CONFIG_SCHEMA

    def test_extra_fields_come_from_the_caller(self):
        cfg = default_config().replace(**MOVED)
        sched = cfg.build(CosineRestartSchedule, base_lr=0.25)
        assert sched.base_lr == 0.25
        assert sched.cycle_steps == cfg.get("sched.cycle_steps")
        assert sched.floor_fraction == cfg.get("sched.floor_fraction")
