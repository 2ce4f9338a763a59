import dataclasses
import math

import numpy as np
import pytest

from fftsr.config import CONFIG_SCHEMA, default_config, parse_config, serialize_config
from fftsr.errors import ConfigError
from fftsr.losses import LossWeights
from fftsr.nets import DiscriminatorConfig, GeneratorConfig, NoiseState
from fftsr.optim import CosineRestartSchedule, RestartPolicy
from fftsr.train import DiffusionState

CHANGED = dict(
    data__scale=2,
    data__patch=32,
    gen__global_fraction=0.1,
    gen__zero_tail=True,
    opt__lr_g=3e-4,
    opt__eps=1.5e-9,
    sched__floor_fraction=1 / 3,
    policy__enabled=False,
    diffusion__beta_end=0.0123456789,
)


def test_schema_has_42_keys_in_sections():
    assert len(CONFIG_SCHEMA) == 42
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
        dict(opt__beta1=1.0),
        dict(opt__beta2=1.0),
        dict(opt__eps=0.0),
        dict(opt__lr_d=float("inf")),
        dict(loss__charbonnier_eps=0.0),
        dict(data__scale=1),
        dict(data__batch=0),
        dict(data__patch=50),
        dict(gen__global_fraction=1.5),
        dict(diffusion__t_max=-1),
        dict(diffusion__beta_end=1.5),
        dict(train__ema_decay=-0.1),
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_out_of_range_values_fail_in_validate(override):
    cfg = default_config().replace(**override)
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        parse_config(serialize_config(cfg))


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
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


class TestBuild:
    # every key of these sections, moved off its default
    NUDGED = default_config().replace(
        **{
            key.replace(".", "__"): (not row[0]) if row[1] is bool else row[0] + 1 if row[1] is int else row[0] / 2
            for key, row in CONFIG_SCHEMA.items()
        }
    )

    @pytest.mark.parametrize(
        "cls, section",
        [(GeneratorConfig, "gen"), (DiscriminatorConfig, "disc"), (LossWeights, "loss"), (RestartPolicy, "policy")],
    )
    def test_every_matching_key_reaches_the_object(self, cls, section):
        built = self.NUDGED.build(cls, section)
        names = {f.name for f in dataclasses.fields(cls)}
        carried = [key for key in CONFIG_SCHEMA if key.startswith(section + ".") and key.split(".")[1] in names]
        assert carried
        for key in carried:
            assert getattr(built, key.split(".")[1]) == self.NUDGED.get(key)

    @pytest.mark.parametrize(
        "cls, section, extra",
        [
            (GeneratorConfig, "gen", {}),
            (DiscriminatorConfig, "disc", {}),
            (LossWeights, "loss", {}),
            (RestartPolicy, "policy", {}),
            (DiffusionState, "diffusion", {}),
            (CosineRestartSchedule, "sched", {"base_lr": 1.0}),
            (NoiseState, "noise", {"sigma0": 0.05, "rng": None}),
        ],
        ids=["gen", "disc", "loss", "policy", "diffusion", "sched", "noise"],
    )
    def test_every_field_with_a_key_is_checked_against_it(self, cls, section, extra):
        checked = [f.name for f in dataclasses.fields(cls) if f"{section}.{f.name}" in CONFIG_SCHEMA]
        assert checked
        for name in checked:
            typ = CONFIG_SCHEMA[f"{section}.{name}"][1]
            if typ is not bool:
                bad = 2.5 if typ is int else math.nan
                with pytest.raises(ConfigError, match=f"{cls.__name__}.{name} = "):
                    cls(**{name: bad}, **extra)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RestartPolicy(window=0),
            lambda: DiffusionState(adapt_every=0),
            lambda: DiffusionState(ema_decay=1.5),
            lambda: GeneratorConfig(width=0),
            lambda: GeneratorConfig(global_fraction=2.0),
            lambda: CosineRestartSchedule(base_lr=-1.0),
            lambda: NoiseState(sigma0=math.nan, rng=None),
        ],
        ids=[
            "policy.window",
            "diffusion.adapt_every",
            "train.ema_decay",
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
        for cls, section in ((GeneratorConfig, "gen"), (DiscriminatorConfig, "disc"), (LossWeights, "loss")):
            for f in dataclasses.fields(cls):
                assert f"{section}.{f.name}" in CONFIG_SCHEMA

    def test_extra_fields_come_from_the_caller(self):
        sched = self.NUDGED.build(CosineRestartSchedule, "sched", base_lr=0.25)
        assert sched.base_lr == 0.25
        assert sched.cycle_steps == self.NUDGED.get("sched.cycle_steps")
        assert sched.floor_fraction == self.NUDGED.get("sched.floor_fraction")
