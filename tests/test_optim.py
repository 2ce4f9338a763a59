import math

import numpy as np
import pytest

from fftsr.errors import ConfigError, DomainError, OptimizerError
from fftsr.optim import AdamW, CosineRestartSchedule, RestartPolicy
from fftsr.tensor import Tensor


def make_param(values, name="p"):
    return (name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, dtype=np.float64))


class TestAdamW:
    def test_zero_grad_decay_is_exact_multiplier(self):
        p = make_param([1.0, -2.0, 0.5])
        opt = AdamW([p])
        theta = p[1].data.copy()
        for _ in range(3):
            p[1].grad = np.zeros(3)
            opt.step(0.01)
            theta = theta - 0.01 * (AdamW.WEIGHT_DECAY * theta)
            assert np.array_equal(p[1].data, theta)

    def test_a_parameter_with_no_gradient_only_decays(self):
        p, q = make_param([1.0, -2.0, 0.5], "p"), make_param([3.0], "q")
        opt = AdamW([p, q])
        theta = p[1].data.copy()
        q[1].grad = np.array([1.0])
        opt.step(0.01)  # p has no gradient: its moments stay zero
        assert p[1].grad is None
        assert np.array_equal(p[1].data, theta - 0.01 * (AdamW.WEIGHT_DECAY * theta))
        assert not opt.m[0].any() and not opt.v[0].any() and opt.m[1].all()

    def test_first_step_is_signed_unit_step(self):
        p = make_param([0.3, -0.7])
        opt = AdamW([p])
        g = np.array([2.0, -3.0])
        p[1].grad = g.copy()
        before = p[1].data.copy()
        opt.step(0.05)
        # with constant g the bias-corrected ratio is g/|g| up to eps
        expected = before - 0.05 * (np.sign(g) + AdamW.WEIGHT_DECAY * before)
        assert np.abs(p[1].data - expected).max() < 1e-6

    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(0)
        theta0 = rng.standard_normal(8)
        theta0 /= np.linalg.norm(theta0)  # ||theta0|| = 1
        p = make_param(theta0)
        opt = AdamW([p])
        for _ in range(200):
            p[1].grad = 2.0 * p[1].data  # d/dtheta ||theta||^2
            opt.step(0.05)
        assert np.linalg.norm(p[1].data) < 1e-3

    def test_matches_an_independent_adamw_bitwise(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(5)
        p = make_param(theta.copy())
        opt = AdamW([p])

        # independent AdamW reference: Adam's defaults, decay 1e-4
        b1, b2 = 0.9, 0.999
        m = np.zeros(5)
        v = np.zeros(5)
        ref = theta.copy()
        for t in range(1, 21):
            g = rng.standard_normal(5)
            p[1].grad = g.copy()
            opt.step(0.01)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            ref = ref - 0.01 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 1e-4 * ref)
            assert np.array_equal(p[1].data, ref)

    def test_nonfinite_gradient_rejected_with_name(self):
        p = make_param([1.0], name="gen.head.w")
        opt = AdamW([p])
        p[1].grad = np.array([np.nan])
        with pytest.raises(OptimizerError, match="gen.head.w"):
            opt.step(1e-3)

    def test_step_counter_increments_by_one(self):
        p = make_param([1.0])
        opt = AdamW([p])
        for expected in (1, 2, 3):
            p[1].grad = np.ones(1)
            opt.step(1e-3)
            assert opt.t == expected


class TestSchedule:
    def test_initial_peak_anchor(self):
        s = CosineRestartSchedule(base_lr=3e-3, cycle_steps=100)
        assert abs(s.lr_at(0) - 3e-3) < 1e-12

    def test_end_of_cycle_half_anchor(self):
        s = CosineRestartSchedule(base_lr=3e-3, cycle_steps=100)
        assert abs(s.lr_at(50) - 0.75 * 3e-3) < 1e-12
        # the last step of a cycle is one step short of the floor
        assert abs(s.lr_at(99) - 3e-3 * (0.5 + 0.25 * (1.0 + math.cos(math.pi * 0.99)))) < 1e-12
        assert 0.5 * 3e-3 < s.lr_at(99) < 0.5 * 3e-3 * 1.001

    def test_next_peak_five_percent_lower_anchor(self):
        s = CosineRestartSchedule(base_lr=3e-3, cycle_steps=100)
        assert abs(s.lr_at(100) - 0.95 * 3e-3) < 1e-12
        assert abs(s.lr_at(200) - 0.95**2 * 3e-3) < 1e-12

    def test_monotone_within_cycle(self):
        s = CosineRestartSchedule(base_lr=1.0, cycle_steps=50)
        values = [s.lr_at(k) for k in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_pure_function_of_step(self):
        s = CosineRestartSchedule(base_lr=1.0, cycle_steps=30)
        a = [s.lr_at(k) for k in (0, 7, 29, 30, 95)]
        b = [s.lr_at(k) for k in (0, 7, 29, 30, 95)]
        assert a == b

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError, match="-1"):
            CosineRestartSchedule(base_lr=1.0).lr_at(-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("base_lr", -1e-3),
            ("base_lr", float("nan")),
            ("base_lr", float("inf")),
            ("cycle_steps", 0),
            ("cycle_steps", -5),
            ("peak_decay", -0.5),
            ("peak_decay", float("nan")),
            ("floor_fraction", 2.0),
            ("floor_fraction", -0.1),
        ],
    )
    def test_field_outside_its_config_interval(self, field, value):
        kwargs = {"base_lr": 1.0, field: value}
        with pytest.raises(ConfigError, match=f"CosineRestartSchedule.{field} = "):
            CosineRestartSchedule(**kwargs)


class TestRestartPolicy:
    def test_healthy_band_no_action(self):
        policy = RestartPolicy(window=10)
        for step in range(20):
            action = policy.observe(0.65, step)
            assert action.kind == "none"
        assert policy.mode == "normal"
        assert policy.disc_lr_multiplier == 1.0

    def test_collapsed_window_enters_boost(self):
        policy = RestartPolicy(window=10)
        actions = [policy.observe(0.99, step) for step in range(10)]
        assert actions[-1].kind == "enter_boost"
        assert actions[-1].reinit_discriminator is False  # first trigger
        assert policy.disc_lr_multiplier == 5.0
        assert policy.adv_multiplier == 0.1
        assert policy.mode == "disc-boost"

    def test_stuck_window_enters_boost(self):
        policy = RestartPolicy(window=10)
        actions = [policy.observe(0.2, step) for step in range(10)]
        assert actions[-1].kind == "enter_boost"

    def test_partial_window_never_triggers(self):
        policy = RestartPolicy(window=10)
        for step in range(9):
            assert policy.observe(0.99, step).kind == "none"

    def test_exit_restores_multipliers_exactly(self):
        policy = RestartPolicy(window=10)
        for step in range(10):
            policy.observe(0.99, step)
        assert policy.mode == "disc-boost"
        step = 10
        while policy.mode == "disc-boost":
            action = policy.observe(0.7, step)
            step += 1
        assert action.kind == "exit_boost"
        assert policy.disc_lr_multiplier == 1.0
        assert policy.adv_multiplier == 1.0

    def test_second_trigger_within_cooldown_requests_reinit(self):
        policy = RestartPolicy(window=4)
        step = 0
        for _ in range(4):
            action = policy.observe(0.99, step)
            step += 1
        assert action.kind == "enter_boost" and not action.reinit_discriminator
        while policy.mode == "disc-boost":
            policy.observe(0.7, step)
            step += 1
        for _ in range(10):
            action = policy.observe(0.99, step)
            step += 1
            if action.kind == "enter_boost":
                break
        assert action.kind == "enter_boost"
        assert action.reinit_discriminator is True

    def test_trigger_far_apart_no_reinit(self):
        policy = RestartPolicy(window=4)
        step = 0
        for _ in range(4):
            action = policy.observe(0.99, step)
            step += 1
        assert not action.reinit_discriminator
        while policy.mode == "disc-boost":
            policy.observe(0.7, step)
            step += 1
        step += 2 * RestartPolicy.COOLDOWN  # well past the cooldown
        for _ in range(10):
            action = policy.observe(0.99, step)
            step += 1
            if action.kind == "enter_boost":
                break
        assert action.reinit_discriminator is False

    def test_disabled_policy_never_acts(self):
        policy = RestartPolicy(enabled=False, window=2)
        assert all(policy.observe(0.99, step).kind == "none" for step in range(10))
        assert policy._acc == [] and policy.mode == "normal"
        assert policy.disc_lr_multiplier == 1.0 and policy.adv_multiplier == 1.0

    def test_multipliers_never_stack(self):
        policy = RestartPolicy(window=4)
        for step in range(400):
            policy.observe(0.99, step)
            assert policy.disc_lr_multiplier in (1.0, 5.0)
            assert policy.adv_multiplier in (1.0, 0.1)
