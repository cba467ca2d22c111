"""Environment dynamics, rewards and episode bookkeeping."""

import math

import numpy as np
import pytest

from evrl.envs import (AvoidanceEnv, EnvConfig, TrackingEnv, avoidance_reward,
                       default_scenery, episode_return, tracking_reward,
                       wrap_angle)
from evrl.events import EmulatorConfig
from evrl.renderer import CameraModel


def small_config(noise=0.0, **kw):
    return EnvConfig(sensor=CameraModel(width=32, height=24),
                     emulator=EmulatorConfig(noise_prob=noise), **kw)


def rollout(env, policy, seed):
    obs = env.reset(seed=seed)
    frames, rewards = [obs], []
    done = False
    while not done:
        res = env.step(policy(len(rewards)))
        frames.append(res.observation)
        rewards.append(res.reward)
        done = res.done
    return frames, rewards, res.info


class TestRewardFunctions:
    def test_avoidance_table(self):
        assert avoidance_reward(2.0, forward=False, collided=False) == pytest.approx(-0.4, abs=1e-9)
        assert avoidance_reward(2.0, forward=True, collided=False) == pytest.approx(-0.2, abs=1e-9)
        assert avoidance_reward(0.5, forward=True, collided=False) == pytest.approx(0.175, abs=1e-9)
        assert avoidance_reward(2.0, forward=True, collided=True) == -50.0
        assert avoidance_reward(0.0, forward=False, collided=True) == -50.0

    def test_tracking_table(self):
        assert tracking_reward(0.0) == pytest.approx(10.0, abs=1e-9)
        assert tracking_reward(0.5) == pytest.approx(5.0, abs=1e-9)
        assert tracking_reward(-0.5) == pytest.approx(5.0, abs=1e-9)
        assert tracking_reward(1.0) == pytest.approx(0.0, abs=1e-9)
        assert tracking_reward(math.pi) < 0

    def test_episode_return(self):
        assert episode_return([1.0, -2.5, 0.5]) == pytest.approx(-1.0)
        assert episode_return([]) == 0.0

    def test_wrap_angle(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)
        assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)
        assert wrap_angle(10 * math.pi + 0.3) == pytest.approx(0.3, abs=1e-9)
        for a in np.linspace(-20.0, 20.0, 101):
            w = wrap_angle(float(a))
            assert -math.pi <= w <= math.pi


class TestEpisodeProtocol:
    @pytest.mark.parametrize("env_cls", [AvoidanceEnv, TrackingEnv])
    def test_reset_gives_silent_first_frame(self, env_cls):
        env = env_cls(small_config(noise=0.0))
        obs = env.reset(seed=3)
        assert obs.shape == (24, 32)
        assert obs.dtype == np.int8
        assert not obs.any()  # static scene, no noise: zero diff

    @pytest.mark.parametrize("env_cls", [AvoidanceEnv, TrackingEnv])
    def test_seeded_episodes_bit_identical(self, env_cls):
        runs = []
        for _ in range(2):
            env = env_cls(small_config(noise=0.001))
            pol_rng = np.random.default_rng(11)
            frames, rewards, _ = rollout(
                env, lambda i: int(pol_rng.integers(env.action_count)), seed=9)
            runs.append((frames, rewards))
        assert runs[0][1] == runs[1][1]
        assert len(runs[0][0]) == len(runs[1][0])
        for a, b in zip(runs[0][0], runs[1][0]):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=1)
        first = env.sphere.position.copy()
        env.reset(seed=2)
        assert not np.array_equal(env.sphere.position, first)

    def test_step_after_done_raises(self):
        env = AvoidanceEnv(small_config(max_steps=2))
        env.reset(seed=0)
        env.step(1)
        res = env.step(1)
        assert res.done
        with pytest.raises(RuntimeError):
            env.step(1)

    def test_step_before_reset_raises(self):
        env = AvoidanceEnv(small_config())
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_bad_action_rejected(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=0)
        with pytest.raises(ValueError):
            env.step(2)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_truncates_at_max_steps(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=4)
        steps = 0
        done = False
        while not done:
            res = env.step(1)  # stop: never collides
            steps += 1
            done = res.done
        assert steps == env.config.max_steps == 100
        assert not res.info["collision"]

    def test_motion_is_visible(self):
        # scenery guarantees ego-motion produces events even with zero noise
        env = AvoidanceEnv(small_config(noise=0.0))
        env.reset(seed=0)
        seen = False
        for _ in range(15):
            res = env.step(0)
            seen = seen or bool(res.observation.any())
            if res.done:
                break
        assert seen

    def test_config_validation(self):
        for dt in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt"):
                EnvConfig(dt=dt)
        with pytest.raises(ValueError):
            EnvConfig(max_steps=0)
        with pytest.raises(ValueError):
            default_scenery("juggling")

    def test_envs_leave_the_callers_config_alone(self):
        cfg = small_config()
        AvoidanceEnv(cfg)
        TrackingEnv(cfg).reset(seed=0)  # would see AvoidanceDynamics if shared
        assert cfg.dynamics is None


class TestAvoidance:
    def test_action_space(self):
        env = AvoidanceEnv(small_config())
        assert env.action_count == 2
        assert env.action_names == ("forward", "stop")

    def test_spawn_ranges(self):
        env = AvoidanceEnv(small_config())
        dyn = env.config.dynamics
        for seed in range(40):
            env.reset(seed=seed)
            sph = env.sphere
            assert dyn.spawn_distance[0] <= sph.position[0] <= dyn.spawn_distance[1]
            assert dyn.lateral_jitter[0] <= sph.position[1] <= dyn.lateral_jitter[1]
            assert dyn.drop_height[0] <= sph.position[2] <= dyn.drop_height[1]
            assert dyn.sphere_radius[0] <= sph.radius <= dyn.sphere_radius[1]
            assert dyn.trigger_step[0] <= env._trigger <= dyn.trigger_step[1]
            assert not sph.active

    def test_reward_tracks_reported_distance(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=7)
        for _ in range(30):
            res = env.step(1)
            assert res.reward == pytest.approx(-res.info["d"] ** 2 / 10.0)
            if res.done:
                break

    def test_stopping_is_always_safe(self):
        env = AvoidanceEnv(small_config())
        for seed in range(20):
            _, rewards, info = rollout(env, lambda i: 1, seed=seed)
            assert not info["collision"], seed
            assert len(rewards) == 100

    def test_charging_forward_usually_collides(self):
        env = AvoidanceEnv(small_config())
        hits = 0
        for seed in range(20):
            _, rewards, info = rollout(env, lambda i: 0, seed=seed)
            if info["collision"]:
                hits += 1
                assert rewards[-1] == -50.0
        assert hits >= 15

    def test_sphere_falls_then_rests(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=3)
        for _ in range(100):
            if env._done:
                break
            env.step(1)
            if env.sphere.active:
                assert env.sphere.position[2] >= env.sphere.radius - 1e-12
        assert env.sphere.active
        assert env.sphere.position[2] == pytest.approx(env.sphere.radius)

    def test_collision_predicate_uses_combined_radii(self):
        env = AvoidanceEnv(small_config())
        env.reset(seed=0)
        env.sphere.active = True
        env.sphere.position = np.array([0.3, 0.0, 0.1])
        env.sphere.radius = 0.2
        # d = sqrt(0.09 + 0.01) ~ 0.316 < 0.15 + 0.2
        assert env._collided()
        env.sphere.position = np.array([0.5, 0.0, 0.0])
        assert not env._collided()


class TestTracking:
    def test_action_space(self):
        env = TrackingEnv(small_config())
        assert env.action_count == 3
        assert env.action_names == ("forward", "right", "left")

    def test_launch_bearing_within_fov(self):
        env = TrackingEnv(small_config())
        half = math.radians(30.0)
        for seed in range(40):
            env.reset(seed=seed)
            assert abs(env.bearing()) <= half + 1e-12

    def test_bearing_sign_convention(self):
        env = TrackingEnv(small_config())
        env.reset(seed=0)
        env.agent.position = np.zeros(3)
        env.agent.yaw = 0.0
        env.sphere.position = np.array([1.0, 0.5, 0.2])
        assert env.bearing() > 0  # left of heading is positive
        env.sphere.position = np.array([1.0, -0.5, 0.2])
        assert env.bearing() < 0

    def test_bearing_rotates_with_yaw(self):
        env = TrackingEnv(small_config())
        env.reset(seed=1)
        base = env.bearing()
        env.agent.yaw = wrap_angle(env.agent.yaw + 0.25)
        assert env.bearing() == pytest.approx(wrap_angle(base - 0.25), abs=1e-12)

    def test_turn_actions_change_yaw(self):
        env = TrackingEnv(small_config())
        env.reset(seed=2)
        dyn = env.config.dynamics
        yaw0 = env.agent.yaw
        env.step(1)  # right
        assert env.agent.yaw == pytest.approx(yaw0 - dyn.turn_rate * 0.01)
        env.step(2)  # left
        assert env.agent.yaw == pytest.approx(yaw0)

    def test_forward_moves_along_heading(self):
        env = TrackingEnv(small_config())
        env.reset(seed=2)
        env.agent.yaw = math.pi / 2
        pos0 = env.agent.position.copy()
        env.step(0)
        moved = env.agent.position - pos0
        assert moved[1] == pytest.approx(0.01)
        assert abs(moved[0]) < 1e-12

    def test_reward_matches_post_step_bearing(self):
        env = TrackingEnv(small_config())
        env.reset(seed=5)
        pol = np.random.default_rng(0)
        for _ in range(50):
            res = env.step(int(pol.integers(3)))
            assert res.reward == pytest.approx(tracking_reward(env.bearing()), abs=1e-12)
            assert res.info["theta"] == pytest.approx(env.bearing(), abs=1e-12)
            if res.done:
                break

    def test_turning_toward_sphere_beats_turning_away(self):
        env = TrackingEnv(small_config())

        def chase(i):
            return 2 if env.bearing() > 0 else 1

        def flee(i):
            return 1 if env.bearing() > 0 else 2

        chase_abs, flee_abs = [], []
        for seed in range(10):
            env.reset(seed=seed)
            done = False
            while not done:
                res = env.step(chase(0))
                chase_abs.append(abs(res.info["theta"]))
                done = res.done
            env.reset(seed=seed)
            done = False
            while not done:
                res = env.step(flee(0))
                flee_abs.append(abs(res.info["theta"]))
                done = res.done
        assert np.mean(chase_abs) < np.mean(flee_abs)
