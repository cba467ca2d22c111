"""Action selection, replay buffer, Double-DQN targets and the train loop."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from evrl.envs import AvoidanceEnv, EnvConfig
from evrl.events import EmulatorConfig
from evrl.qnet import NetworkConfig, forward, forward_shared, init_params
from evrl.renderer import CameraModel
from evrl.trainer import (ReplayBuffer, TrainerConfig, double_dqn_target,
                          epsilon_greedy, evaluate, greedy_action,
                          random_policy_baseline, rollout, summarize, train)

NET = NetworkConfig(height=24, width=32, action_count=2)


def tiny_env(seed=0):
    return AvoidanceEnv(EnvConfig(sensor=CameraModel(width=32, height=24),
                                  emulator=EmulatorConfig(noise_prob=0.001),
                                  seed=seed))


class TestEpsilonGreedy:
    def test_greedy_picks_argmax(self, rng):
        assert epsilon_greedy(np.array([0.1, 0.9, 0.3]), 0.0, rng) == 1
        assert epsilon_greedy(np.array([-5.0, -1.0]), 0.0, rng) == 1

    def test_tie_breaks_to_lowest_index(self, rng):
        assert epsilon_greedy(np.array([0.5, 0.5, 0.2]), 0.0, rng) == 0

    def test_greedy_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        epsilon_greedy(np.array([1.0, 2.0]), 0.0, rng)
        assert rng.bit_generator.state == state_before

    def test_fully_random_is_uniform(self, rng):
        q = np.array([0.0, 100.0, 0.0])  # argmax must not matter at eps=1
        draws = 30_000
        counts = np.bincount(
            [epsilon_greedy(q, 1.0, rng) for _ in range(draws)], minlength=3)
        # 99.9% binomial band around p=1/3
        p = 1.0 / 3.0
        half_width = 3.29 * np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) < half_width)

    def test_intermediate_epsilon_mixes(self, rng):
        q = np.array([0.0, 1.0])
        picks = np.array([epsilon_greedy(q, 0.5, rng) for _ in range(10_000)])
        frac_greedy = (picks == 1).mean()
        # expect 0.5 + 0.5/2 = 0.75
        assert 0.7 < frac_greedy < 0.8

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            epsilon_greedy(np.array([]), 0.0, rng)


def make_transition(tag: int):
    s = np.full((2, 2), tag, dtype=np.int8)
    return (s, tag % 2, float(tag), s, False)


class TestReplayBuffer:
    def test_fifo_eviction(self, rng):
        buf = ReplayBuffer(capacity=3)
        for i in range(4):
            buf.push(make_transition(i))
        assert len(buf) == 3
        r = np.concatenate([buf.sample(3, rng)[2] for _ in range(100)])
        assert sorted(set(r.tolist())) == [1.0, 2.0, 3.0]  # oldest (0) evicted

    def test_underfilled_sample_is_state_error(self, rng):
        buf = ReplayBuffer(capacity=10)
        buf.push(make_transition(0))
        with pytest.raises(RuntimeError):
            buf.sample(2, rng)

    def test_bad_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)
        buf = ReplayBuffer(capacity=4)
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(0, rng)

    def test_sample_shapes_and_content(self, rng):
        buf = ReplayBuffer(capacity=8)
        for i in range(8):
            buf.push(make_transition(i))
        s, a, r, s_next, done = buf.sample(5, rng)
        assert s.shape == s_next.shape == (5, 2, 2)
        assert s.dtype == s_next.dtype == np.int8
        assert a.shape == (5,) and a.dtype == np.int64
        assert r.dtype == np.float32
        assert done.dtype == np.bool_
        for row in range(5):
            tag = r[row]
            assert np.all(s[row] == tag)
            assert a[row] == int(tag) % 2

    def test_sampling_is_uniform_with_replacement(self, rng):
        buf = ReplayBuffer(capacity=4)
        for i in range(4):
            buf.push(make_transition(i))
        counts = np.zeros(4, dtype=np.int64)
        batches = 10_000
        saw_repeat = False
        for _ in range(batches):
            _, _, r, _, _ = buf.sample(4, rng)
            idx = r.astype(int)
            counts += np.bincount(idx, minlength=4)
            saw_repeat = saw_repeat or len(set(idx.tolist())) < 4
        draws = 4 * batches
        p = 0.25
        half_width = 3.29 * np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) < half_width)
        assert saw_repeat  # with replacement, repeats within a batch occur


class ListReplay:
    """The list-of-tuples replay the int8 ring replaced, kept as its
    reference: the same FIFO order and the same rng draw per batch."""

    def __init__(self, capacity):
        self.capacity, self.storage, self.cursor = capacity, [], 0

    def push(self, transition):
        if len(self.storage) < self.capacity:
            self.storage.append(transition)
        else:
            self.storage[self.cursor] = transition
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.storage), size=batch_size)
        s, a, r, s_next, done = zip(*(self.storage[i] for i in idx))
        return (np.stack(s), np.array(a, dtype=np.int64), np.array(r, dtype=np.float32),
                np.stack(s_next), np.array(done, dtype=bool))


def ternary_frame(rng, shape=(6, 5)):
    return rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=shape)


class TestReplayRing:
    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_batches_equal_list_reference(self, capacity):
        """Episodes of varied length, some transitions pushed with a fresh
        s (a copy, not the previous s_next object), through several wraps."""
        rng = np.random.default_rng(capacity)
        ring, ref = ReplayBuffer(capacity), ListReplay(capacity)
        ring_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        obs = ternary_frame(rng)
        for step in range(5 * capacity + 40):
            if rng.random() < 0.2:
                obs = obs.copy()  # equal frame, another object: not chained
            s_next = ternary_frame(rng)
            done = bool(rng.random() < 0.15)
            t = (obs, int(rng.integers(0, 3)), float(rng.normal()), s_next, done)
            ring.push(t)
            ref.push(t)
            obs = ternary_frame(rng) if done else s_next
            assert len(ring) == len(ref.storage)
            batch = min(len(ring), 4)
            for got, want in zip(ring.sample(batch, ring_rng), ref.sample(batch, ref_rng)):
                assert got.dtype == want.dtype and np.array_equal(got, want), step
        assert ring_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_frames_are_copied_on_push(self, rng):
        buf = ReplayBuffer(4)
        s, s_next = ternary_frame(rng), ternary_frame(rng)
        want = (s.copy(), s_next.copy())
        buf.push((s, 0, 0.0, s_next, False))
        s[:] = 1
        s_next[:] = 1
        got = buf.sample(1, rng)
        assert np.array_equal(got[0][0], want[0]) and np.array_equal(got[3][0], want[1])

    def test_rejects_frames_that_do_not_fit_the_ring(self, rng):
        buf = ReplayBuffer(4)
        buf.push((ternary_frame(rng), 0, 0.0, ternary_frame(rng), False))
        with pytest.raises(ValueError, match="shape"):
            buf.push((ternary_frame(rng, (5, 6)), 0, 0.0, ternary_frame(rng), False))
        with pytest.raises(TypeError):
            buf.push((np.zeros((6, 5)), 0, 0.0, ternary_frame(rng), False))

    def test_large_capacity_allocates_as_it_fills(self):
        rng = np.random.default_rng(0)
        frames = [ternary_frame(rng, (48, 64)) for _ in range(101)]
        tracemalloc.start()
        try:
            buf = ReplayBuffer(10 ** 6)
            for i in range(100):  # four episodes of 25 chained steps
                s = frames[i].copy() if i % 25 == 0 else frames[i]
                buf.push((s, 0, 0.0, frames[i + 1], i % 25 == 24))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(buf) == 100
        assert peak < 2 ** 20


def two_forward_target(r, s_next, done, online, target, gamma):
    """double_dqn_target with one qnet.forward call per network, as it was
    before the shared conv1 gather; the shared form must equal it bitwise."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    done_arr = np.atleast_1d(np.asarray(done, dtype=bool))
    s_arr = np.asarray(s_next)
    if s_arr.ndim == 2:
        s_arr = s_arr[None]
    y = r_arr.copy()
    live = ~done_arr
    if live.any():
        q_online = forward(online, s_arr[live], mode="eval")
        q_target = forward(target, s_arr[live], mode="eval")
        best = np.argmax(q_online, axis=1)
        y[live] += gamma * q_target[np.arange(len(best)), best]
    return float(y[0]) if np.asarray(r).ndim == 0 else y


class TestSharedTarget:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_two_forward_calls(self, rng, dtype):
        online = init_params(NET, np.random.default_rng(3), dtype=dtype)
        target = init_params(NET, np.random.default_rng(4), dtype=dtype)
        online.bn1_mean += 0.1  # eval mode reads the running statistics
        target.bn2_var *= 1.5
        s = ternary_frame(rng, (32, 24, 32))
        r = rng.normal(0, 1, 32).astype(np.float32)
        for done in (rng.random(32) < 0.3, np.ones(32, dtype=bool),
                     np.zeros(32, dtype=bool)):
            got = double_dqn_target(r, s, done, online, target, 0.95)
            want = two_forward_target(r, s, done, online, target, 0.95)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for i in range(4):
            for done in (False, True):
                got = double_dqn_target(float(r[i]), s[i], done, online, target, 0.95)
                assert type(got) is float
                assert got == two_forward_target(float(r[i]), s[i], done, online,
                                                 target, 0.95)

    def test_forward_shared_equals_forward(self, rng):
        nets = [init_params(NET, np.random.default_rng(k)) for k in range(3)]
        s = ternary_frame(rng, (7, 1, 24, 32))
        for got, net in zip(forward_shared(nets, s), nets):
            assert np.array_equal(got, forward(net, s, mode="eval"))
        other = init_params(NetworkConfig(height=24, width=32, action_count=3),
                            np.random.default_rng(0))
        with pytest.raises(ValueError, match="config"):
            forward_shared([nets[0], other], s)


class TestDoubleDqnTarget:
    def setup_method(self):
        r1, r2 = np.random.default_rng(100), np.random.default_rng(101)
        self.online = init_params(NET, r1)
        self.target = init_params(NET, r2)

    def test_matches_brute_force(self, rng):
        s = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(16, 24, 32))
        r = rng.normal(0, 1, 16)
        done = rng.random(16) < 0.3
        got = double_dqn_target(r, s, done, self.online, self.target, 0.95)
        for i in range(16):
            if done[i]:
                assert got[i] == r[i]
            else:
                q_on = forward(self.online, s[i], mode="eval")[0]
                q_tg = forward(self.target, s[i], mode="eval")[0]
                want = r[i] + 0.95 * q_tg[int(np.argmax(q_on))]
                assert got[i] == pytest.approx(want, rel=1e-6)

    def test_done_short_circuits_exactly(self):
        s = np.zeros((24, 32), dtype=np.int8)
        assert double_dqn_target(-50.0, s, True, self.online, self.target, 0.95) == -50.0

    def test_gamma_zero_reduces_to_reward(self, rng):
        s = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(24, 32))
        assert double_dqn_target(1.25, s, False, self.online, self.target, 0.0) \
            == pytest.approx(1.25)

    def test_identical_nets_reduce_to_classic_max(self, rng):
        s = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(24, 32))
        got = double_dqn_target(0.0, s, False, self.online, self.online, 1.0)
        q = forward(self.online, s, mode="eval")[0]
        assert got == pytest.approx(float(q.max()), rel=1e-6)

    def test_selection_uses_online_argmax_not_target_max(self):
        # craft nets that disagree on the best action
        s = np.zeros((24, 32), dtype=np.int8)
        online = init_params(NET, np.random.default_rng(0))
        target = init_params(NET, np.random.default_rng(1))
        for p in (online, target):
            for name in ("conv1_w", "conv2_w", "fc1_w"):
                getattr(p, name)[:] = 0.0
        online.fc2_w[:] = 0.0
        target.fc2_w[:] = 0.0
        online.fc2_b[:] = [1.0, 0.0]   # online prefers action 0
        target.fc2_b[:] = [2.0, 7.0]   # target's max is action 1
        y = double_dqn_target(0.0, s, False, online, target, 1.0)
        assert y == pytest.approx(2.0)  # Q_target at online's argmax


class TestRollout:
    def test_yields_each_step_of_one_seeded_episode(self):
        env = tiny_env()
        seen = []

        def policy(obs):
            seen.append(obs)
            return len(seen) % 2

        steps = list(rollout(env, policy, seed=9))
        assert np.array_equal(steps[0][0], tiny_env().reset(seed=9))
        assert len(seen) == len(steps)  # one policy call per step
        assert all(obs is asked for (obs, _, _), asked in zip(steps, seen))
        assert [a for _, a, _ in steps] == [(i + 1) % 2 for i in range(len(steps))]
        for (_, _, prev), (obs, _, _) in zip(steps, steps[1:]):
            assert obs is prev.observation and not prev.done
        assert steps[-1][2].done

    def test_policy_is_asked_only_when_resumed(self):
        calls = []
        steps = rollout(tiny_env(), lambda obs: calls.append(obs) or 1, seed=9)
        assert calls == []  # nothing runs before the first next()
        next(steps)
        assert len(calls) == 1
        next(steps)
        assert len(calls) == 2


class TestEvaluate:
    def test_deterministic_and_counted(self):
        env = tiny_env()
        params = init_params(NET, np.random.default_rng(5))
        a = evaluate(env, params, episodes=4, seed=77)
        b = evaluate(env, params, episodes=4, seed=77)
        assert [s.r_sum for s in a] == [s.r_sum for s in b]
        assert [s.episode for s in a] == [0, 1, 2, 3]
        assert all(s.terminal in ("collision", "max_steps") for s in a)

    def test_collect_info_traces(self):
        env = tiny_env()
        params = init_params(NET, np.random.default_rng(5))
        stats, infos = evaluate(env, params, episodes=2, seed=1, collect_info=True)
        assert len(infos) == 2
        assert len(infos[0]) == stats[0].steps
        assert "d" in infos[0][0]

    def test_random_baseline_deterministic(self):
        env = tiny_env()
        a = random_policy_baseline(env, episodes=5, seed=3)
        b = random_policy_baseline(env, episodes=5, seed=3)
        assert [s.r_sum for s in a] == [s.r_sum for s in b]

    def test_summarize(self):
        stats = [type("S", (), {"r_sum": v}) for v in (1.0, 2.0, 3.0)]
        mean, se = summarize(stats)
        assert mean == pytest.approx(2.0)
        assert se == pytest.approx(1.0 / np.sqrt(3.0))
        assert summarize([]) == (0.0, 0.0)


def small_trainer(episodes, **kw):
    defaults = dict(episodes=episodes, batch_size=8, warmup_steps=16,
                    target_update_interval=20, eval_every=0, seed=123)
    defaults.update(kw)
    return TrainerConfig(**defaults)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(gamma=1.5)
        with pytest.raises(ValueError):
            TrainerConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            TrainerConfig(episodes=-1)
        with pytest.raises(ValueError):
            TrainerConfig(target_update_interval=0)
        for lr in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainerConfig(learning_rate=lr)

    def test_zero_episodes_returns_fresh_params(self):
        env = tiny_env()
        params, stats = train(env, small_trainer(0), NET)
        assert stats == []
        assert params.cfg == NET

    def test_seeded_runs_bit_identical(self, tmp_path):
        results = []
        for run in range(2):
            env = tiny_env()
            log = tmp_path / f"run{run}.jsonl"
            params, stats = train(env, small_trainer(3), NET, log_path=str(log))
            blob = b"".join(a.tobytes() for _, a in params.arrays())
            results.append((blob, [(s.r_sum, s.steps, s.terminal) for s in stats], log))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        # logs identical apart from wall-clock timing
        for la, lb in zip(results[0][2].read_text().splitlines(),
                          results[1][2].read_text().splitlines()):
            da, db = json.loads(la), json.loads(lb)
            da.pop("wall_clock_per_step", None)
            db.pop("wall_clock_per_step", None)
            assert da == db

    def test_log_contents(self, tmp_path):
        env = tiny_env()
        log = tmp_path / "train.jsonl"
        _, stats = train(env, small_trainer(2, eval_every=1, eval_episodes=2),
                         NET, log_path=str(log))
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        train_lines = [l for l in lines if l["type"] == "train"]
        eval_lines = [l for l in lines if l["type"] == "eval"]
        assert len(train_lines) == 2 == len(stats)
        assert len(eval_lines) == 2
        for line in train_lines:
            for key in ("episode", "r_sum", "steps", "terminal", "loss_ma",
                        "epsilon", "grad_steps", "wall_clock_per_step"):
                assert key in line
        for line in eval_lines:
            assert {"episode", "r_sum_mean", "r_sum_se", "episodes"} <= set(line)

    def test_warm_start_continues_from_given_params(self):
        env = tiny_env()
        init = init_params(NET, np.random.default_rng(9))
        snapshot = {n: a.copy() for n, a in init.arrays()}
        params, _ = train(env, small_trainer(2), NET, params=init)
        assert params is init  # updated in place
        changed = any(not np.array_equal(a, snapshot[n]) for n, a in params.arrays())
        assert changed

    def test_greedy_action_matches_forward_argmax(self, rng):
        params = init_params(NET, rng)
        s = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(24, 32))
        q = forward(params, s, mode="eval")
        assert greedy_action(params, s) == int(np.argmax(q[0]))
