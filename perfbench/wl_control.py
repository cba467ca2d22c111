"""control-240x180: the deployed 100 Hz loop at the paper's sensor size.

One operation is one control step: ``env.step(action)``, then
``qnet.forward`` on the new frame and its argmax. Rounds replay the same
episodes of both tasks (seeds and the benchmark's random actions are
fixed per round), so every round does the same work and later rounds
check that a replay gives identical frames.
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

from evrl import qnet
from evrl.envs import AvoidanceEnv, EnvConfig, TrackingEnv
from evrl.qnet import NetworkConfig
from evrl.renderer import CameraModel

import checks
import timing
from spans import SpanTable, Tracer, overhead_pct

WIDTH, HEIGHT = 240, 180
TASKS = (("avoidance", AvoidanceEnv), ("tracking", TrackingEnv))
EPISODES_PER_TASK = 2
# Share of steps whose action the benchmark replaces by a uniform draw, so
# driving, turning and stopping all occur whatever the untrained net picks.
RANDOM_SHARE = 0.5


class _Episode:
    def __init__(self, task, env, params, ep_seed, act_seed):
        self.task, self.env, self.params = task, env, params
        self.ep_seed, self.act_seed = ep_seed, act_seed


def _explore(greedy: int, rng, n_actions: int) -> int:
    return int(rng.integers(n_actions)) if rng.random() < RANDOM_SHARE else greedy


def run(run):
    ss = np.random.SeedSequence(run.seed)
    env_ss, net_ss, ep_ss = ss.spawn(3)
    ep_rng = np.random.default_rng(ep_ss)
    models = []
    for (task, cls), e_ss, n_ss in zip(TASKS, env_ss.spawn(2), net_ss.spawn(2)):
        # each env gets its own config: the envs write their dynamics into it
        env = cls(EnvConfig(seed=int(e_ss.generate_state(1)[0]),
                            sensor=CameraModel(width=WIDTH, height=HEIGHT)))
        models.append((task, env, qnet.init_params(
            NetworkConfig(HEIGHT, WIDTH, env.action_count), np.random.default_rng(n_ss))))
    plan = [_Episode(task, env, params, int(ep_rng.integers(2 ** 62)),
                     int(ep_rng.integers(2 ** 62)))
            for _ in range(EPISODES_PER_TASK) for task, env, params in models]

    tracer = Tracer() if run.trace else None
    ops_ns, traced_ns = [], []
    first_round = []
    timed_wall = 0.0
    rounds = 0
    started = time.perf_counter()
    while run.more_rounds(started, rounds, len(ops_ns) + len(traced_ns), min_rounds=2):
        traced = run.traced_round(rounds)
        if traced:
            tracer.install()
        round_t0 = None
        reset_nonzero = 0
        for ep in plan:
            env, params = ep.env, ep.params
            obs = env.reset(seed=ep.ep_seed)
            checks.check_frame(obs, HEIGHT, WIDTH)
            reset_nonzero += int(np.count_nonzero(obs))
            rng = np.random.default_rng(ep.act_seed)
            greedy = int(np.argmax(qnet.forward(params, obs, mode="eval")[0]))
            action = _explore(greedy, rng, env.action_count)
            digest = hashlib.blake2b(digest_size=16)
            actions = []
            step = 0
            while True:
                if run.attempted == timing.WARMUP_OPS:
                    run.clock.first_operation()
                t0 = time.perf_counter_ns()
                if traced:
                    span = tracer.begin("envs.step")
                    result = env.step(action)
                    tracer.finish(span)
                else:
                    result = env.step(action)
                greedy = int(np.argmax(qnet.forward(params, result.observation, mode="eval")[0]))
                t1 = time.perf_counter_ns()
                if run.attempted >= timing.WARMUP_OPS:
                    (traced_ns if traced else ops_ns).append(t1 - t0)
                    if round_t0 is None:
                        round_t0 = t0
                run.attempted += 1
                step += 1
                checks.check_frame(result.observation, HEIGHT, WIDTH)
                checks.check_reward(ep.task, action, result.reward, result.info)
                checks.check_episode_end(result.done, result.info["collision"], step,
                                         env.config.max_steps)
                digest.update(result.observation.tobytes())
                actions.append(action)
                if result.done:
                    break
                action = _explore(greedy, rng, env.action_count)
            record = (ep.task, step, tuple(actions), digest.hexdigest())
            if rounds == 0:
                first_round.append(record)
            else:
                checks.require(record == first_round[plan.index(ep)],
                               f"replay of {ep.task} episode {ep.ep_seed} differs "
                               f"from its first run")
        timed_wall += (time.perf_counter_ns() - round_t0) / 1e9 if round_t0 else 0.0
        if traced:
            tracer.uninstall()
        if rounds == 0:
            checks.check_reset_noise(reset_nonzero, len(plan), HEIGHT, WIDTH,
                                     plan[0].env.config.emulator.noise_prob)
        rounds += 1

    print(f"control-240x180: {rounds} rounds, {len(plan)} episodes each, "
          f"{sum(r[1] for r in first_round)} steps per round", file=sys.stderr)
    if not run.trace:
        return timing.end_to_end(run.clock.setup_s, ops_ns, timed_wall, timing.peak_rss_mb())
    tracer.save(run.out / "trace-control-240x180.npz")
    table = SpanTable(tracer.arrays())
    metrics = table.layer_metrics(rounds // 2)
    metrics["trace.overhead_pct"] = overhead_pct(traced_ns, ops_ns)
    print(table.format_summary(), file=sys.stderr)
    return metrics
