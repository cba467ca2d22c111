"""train-64x48: Double DQN on avoidance at 64x48, batch 32, no evaluation.

One operation is one loop iteration of ``trainer.train`` that includes a
gradient step. The env reaches ``train`` through ``TimedEnv``, whose
``step`` records when it is entered; an operation is the interval
between two consecutive steps of one episode once the replay holds
``max(batch, warmup)`` transitions. Each round is one ``train`` call with
the same seeds and fresh parameters, so every round does the same work.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from evrl import qnet
from evrl.envs import AvoidanceEnv, EnvConfig
from evrl.qnet import TRAINABLE_FIELDS, NetworkConfig
from evrl.renderer import CameraModel
from evrl.trainer import TrainerConfig, double_dqn_target, train

import checks
import timing
from spans import SpanTable, Tracer, overhead_pct

WIDTH, HEIGHT = 64, 48
EPISODES_PER_ROUND = 6
BATCH = 32
WARMUP_STEPS = 100
GAMMA = 0.95
# transitions whose Double DQN target is recomputed one at a time
TARGET_CHECKS = 64


class TimedEnv:
    """Passes calls through to the env, noting when each step starts and
    keeping the transitions it sees."""

    def __init__(self, env, tracer=None):
        self.env = env
        self.tracer = tracer
        self.action_count = env.action_count
        self.steps = 0
        self.episode_steps = []   # per episode: step entry times (ns)
        self.transitions = []     # (s, a, r, s_next, done)
        self.on_step = None
        self._obs = None

    def reset(self, seed=None):
        self.episode_steps.append([])
        self._obs = self.env.reset(seed=seed)
        return self._obs

    def step(self, action):
        self.episode_steps[-1].append(time.perf_counter_ns())
        self.steps += 1
        if self.on_step is not None:
            self.on_step(self.steps)
        if self.tracer is not None and self.tracer.installed:
            span = self.tracer.begin("envs.step")
            result = self.env.step(action)
            self.tracer.finish(span)
        else:
            result = self.env.step(action)
        self.transitions.append((self._obs, action, result.reward,
                                 result.observation, result.done))
        self._obs = result.observation
        return result


def run(run):
    ss = np.random.SeedSequence(run.seed)
    env_ss, net_ss, train_ss = ss.spawn(3)
    env = AvoidanceEnv(EnvConfig(seed=int(env_ss.generate_state(1)[0]),
                                 sensor=CameraModel(width=WIDTH, height=HEIGHT)))
    net_cfg = NetworkConfig(HEIGHT, WIDTH, env.action_count)
    init = qnet.init_params(net_cfg, np.random.default_rng(net_ss))
    cfg = TrainerConfig(episodes=EPISODES_PER_ROUND, gamma=GAMMA, batch_size=BATCH,
                        warmup_steps=WARMUP_STEPS, eval_every=0,
                        seed=int(train_ss.generate_state(1)[0]))
    min_fill = max(BATCH, WARMUP_STEPS)
    log_path = run.out / f"train-{run.seed}-{id(run)}.jsonl"

    tracer = Tracer() if run.trace else None
    ops_ns, traced_ns = [], []
    first_log = None
    timed_wall = 0.0
    rounds = 0
    started = time.perf_counter()
    try:
        while run.more_rounds(started, rounds, len(ops_ns) + len(traced_ns)):
            traced = run.traced_round(rounds)
            timed = TimedEnv(env, tracer)
            params = qnet.copy_params(init)
            snapshot = {}

            def on_step(n):
                if rounds == 0 and n == min_fill + timing.WARMUP_OPS:
                    run.clock.first_operation()
                if n == min_fill + 50:
                    snapshot["target"] = qnet.copy_params(params)

            timed.on_step = on_step
            if traced:
                tracer.install()
            try:
                train(timed, cfg, net_cfg, log_path=str(log_path), params=params)
            finally:
                if traced:
                    tracer.uninstall()

            # operations: step-to-step intervals inside an episode, from the
            # step that first fills the replay to min_fill onward
            intervals = []
            seen = 0
            for steps in timed.episode_steps:
                intervals += [(steps[i], steps[i + 1]) for i in range(len(steps) - 1)
                          if seen + i + 1 >= min_fill]
                seen += len(steps)
            if rounds == 0:
                run.attempted += timing.WARMUP_OPS
                intervals = intervals[timing.WARMUP_OPS:]
            run.attempted += len(intervals)
            (traced_ns if traced else ops_ns).extend(b - a for a, b in intervals)
            timed_wall += (intervals[-1][1] - intervals[0][0]) / 1e9

            with open(log_path) as fh:
                log = [json.loads(line) for line in fh]
            _check_round(log, timed, params, init, snapshot["target"])
            for rec in log:
                rec.pop("wall_clock_per_step")
            if first_log is None:
                first_log = log
            checks.require(log == first_log, "a repeated training round logged "
                           "different episodes, losses or grad steps")
            rounds += 1
    finally:
        log_path.unlink(missing_ok=True)

    print(f"train-64x48: {rounds} rounds, {timed.steps} env steps and "
          f"{first_log[-1]['grad_steps']} grad steps per round", file=sys.stderr)
    if not run.trace:
        return timing.end_to_end(run.clock.setup_s, ops_ns, timed_wall, timing.peak_rss_mb())
    tracer.save(run.out / "trace-train-64x48.npz")
    table = SpanTable(tracer.arrays())
    metrics = table.layer_metrics(rounds // 2)
    metrics["trainer.grad_steps"] = {"value": first_log[-1]["grad_steps"], "unit": "count"}
    metrics["trace.overhead_pct"] = overhead_pct(traced_ns, ops_ns)
    print(table.format_summary(), file=sys.stderr)
    return metrics


def _check_round(log, timed, params, init, target):
    train_records = [r for r in log if r["type"] == "train"]
    checks.require(len(train_records) == EPISODES_PER_ROUND,
                   f"{len(train_records)} episodes logged, ran {EPISODES_PER_ROUND}")
    checks.check_grad_steps(train_records[-1]["grad_steps"], timed.steps, BATCH,
                            WARMUP_STEPS)
    checks.check_finite("logged loss", [r["loss_ma"] for r in train_records
                                        if r["grad_steps"] > 0])
    for name in TRAINABLE_FIELDS:
        checks.check_finite(f"parameter {name}", getattr(params, name))
    checks.require(any(not np.array_equal(getattr(params, n), getattr(init, n))
                       for n in TRAINABLE_FIELDS), "training left the weights unchanged")

    # Double DQN targets on transitions the env wrapper saw, batched by the
    # program and recomputed here one transition at a time
    trans = timed.transitions
    pick = np.linspace(0, len(trans) - 1, TARGET_CHECKS).astype(int)
    done_idx = [i for i, t in enumerate(trans) if t[4]]
    pick = np.unique(np.concatenate([pick, done_idx[:4]]))
    r = np.array([trans[i][2] for i in pick], dtype=np.float32)
    s_next = np.stack([trans[i][3] for i in pick])
    done = np.array([trans[i][4] for i in pick], dtype=bool)
    y = double_dqn_target(r, s_next, done, params, target, GAMMA)
    y_ref = [checks.reference_target(float(r[k]), s_next[k], bool(done[k]), params,
                                     target, GAMMA, qnet.forward)
             for k in range(len(pick))]
    checks.check_targets(y, y_ref)
