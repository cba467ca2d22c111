"""Double DQN training loop over the event-camera environments.

Acting is epsilon-greedy with a constant epsilon; transitions go into a
FIFO replay buffer sampled uniformly with replacement; targets follow
the Double DQN rule (online net picks the next action, target net
evaluates it); the target net re-syncs every fixed number of gradient
steps. The whole loop is deterministic for a given seed: environment
resets, exploration, replay sampling, and weight init all derive from
one SeedSequence.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import qnet
from .envs import StepResult, episode_return
from .qnet import NetworkConfig, QNetworkParams


class ReplayBuffer:
    """Ring buffer of (s, a, r, s_next, done) tuples; oldest evicted first.

    Frames are kept by reference, so consecutive transitions share the
    array that is one's s_next and the next one's s.
    """

    def __init__(self, capacity: int = 10 ** 6):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._storage: List[tuple] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: tuple):
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple:
        """Uniform with replacement; raises until batch_size items are stored.

        Returns (s, a, r, s_next, done): frames stacked to (B, H, W),
        actions int64, rewards float32 and done flags bool.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if len(self._storage) < batch_size:
            raise RuntimeError(
                f"buffer holds {len(self._storage)} transitions, need {batch_size}"
            )
        idx = rng.integers(0, len(self._storage), size=batch_size)
        s, a, r, s_next, done = zip(*(self._storage[i] for i in idx))
        return (np.stack(s), np.array(a, dtype=np.int64), np.array(r, dtype=np.float32),
                np.stack(s_next), np.array(done, dtype=bool))


@dataclass
class TrainerConfig:
    episodes: int = 500
    gamma: float = 0.95
    epsilon: float = 0.1
    target_update_interval: int = 200  # gradient steps between target syncs
    batch_size: int = 32
    warmup_steps: int = 1000
    replay_capacity: int = 10 ** 6
    learning_rate: float = 1e-3
    loss_kind: str = "huber"
    eval_every: int = 25
    eval_episodes: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")
        if self.target_update_interval < 1:
            raise ValueError("target_update_interval must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EpisodeStats:
    episode: int
    r_sum: float
    steps: int
    terminal: str  # "collision" or "max_steps"


def epsilon_greedy(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Uniform action with probability epsilon, else lowest-index argmax.

    epsilon = 0 consumes no randomness, so greedy rollouts are rng-free.
    """
    q_values = np.asarray(q_values).ravel()
    if q_values.size == 0:
        raise ValueError("q_values is empty")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, q_values.size))
    return int(np.argmax(q_values))


def double_dqn_target(r, s_next, done, online_params: QNetworkParams,
                      target_params: QNetworkParams, gamma: float):
    """y = r, or r + gamma * Q_target(s', argmax_a Q_online(s', a)) if not done.

    Accepts a single transition or a batch; scalar in, scalar out.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    done_arr = np.atleast_1d(np.asarray(done, dtype=bool))
    scalar = np.asarray(r).ndim == 0
    s_arr = np.asarray(s_next)
    if s_arr.ndim == 2:
        s_arr = s_arr[None]
    y = r_arr.copy()
    live = ~done_arr
    if live.any():
        q_online = qnet.forward(online_params, s_arr[live], mode="eval")
        q_target = qnet.forward(target_params, s_arr[live], mode="eval")
        best = np.argmax(q_online, axis=1)
        y[live] += gamma * q_target[np.arange(len(best)), best]
    return float(y[0]) if scalar else y


def greedy_action(params: QNetworkParams, obs: np.ndarray) -> int:
    q = qnet.forward(params, obs, mode="eval")
    return int(np.argmax(q[0]))


def rollout(env, policy, seed: int):
    """One episode: reset with `seed`, then act and step until done.

    Yields (obs, action, StepResult) per step, where obs is the
    observation the policy acted on. The policy is asked for the next
    action only when the caller resumes the generator.
    """
    obs = env.reset(seed=seed)
    done = False
    while not done:
        action = policy(obs)
        result = env.step(action)
        yield obs, action, result
        obs = result.observation
        done = result.done


def _episode_stats(episode: int, results: Sequence[StepResult]) -> EpisodeStats:
    """Return, length and terminal cause of one finished episode."""
    terminal = "collision" if results[-1].info.get("collision") else "max_steps"
    return EpisodeStats(episode, episode_return([r.reward for r in results]),
                        len(results), terminal)


def _rollouts(env, policy, episodes: int, seed_rng: np.random.Generator,
              collect_info: bool):
    stats: List[EpisodeStats] = []
    all_infos: List[List[dict]] = []
    for ep in range(episodes):
        ep_seed = int(seed_rng.integers(0, 2 ** 63))
        results = [result for _, _, result in rollout(env, policy, ep_seed)]
        stats.append(_episode_stats(ep, results))
        all_infos.append([result.info for result in results])
    return (stats, all_infos) if collect_info else stats


def evaluate(env, params: QNetworkParams, episodes: int, seed: int = 0,
             collect_info: bool = False):
    """Greedy rollouts; returns one EpisodeStats per episode.

    With collect_info=True returns (stats, per-episode info dicts) so
    callers can inspect d/theta traces.
    """
    seed_rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _rollouts(env, lambda obs: greedy_action(params, obs), episodes,
                     seed_rng, collect_info)


def summarize(stats: Sequence[EpisodeStats]) -> Tuple[float, float]:
    """Mean R_sum and its standard error."""
    if not stats:
        return 0.0, 0.0
    r = np.array([s.r_sum for s in stats], dtype=np.float64)
    se = float(r.std(ddof=1) / np.sqrt(len(r))) if len(r) > 1 else 0.0
    return float(r.mean()), se


def train(env, trainer_config: TrainerConfig, network_config: NetworkConfig,
          log_path: Optional[str] = None,
          params: Optional[QNetworkParams] = None):
    """Run Double DQN; returns (params, per-episode EpisodeStats list).

    One gradient step per environment step once the warmup threshold is
    met. The JSONL log mirrors the returned stats plus diagnostics; the
    wall_clock_per_step field is the only nondeterministic value in it.
    """
    cfg = trainer_config
    root = np.random.SeedSequence(cfg.seed)
    init_seq, action_seq, buffer_seq, episode_seq, eval_seq = root.spawn(5)
    if params is None:
        params = qnet.init_params(network_config, np.random.default_rng(init_seq))
    target = qnet.copy_params(params)
    adam = qnet.init_adam(params, lr=cfg.learning_rate)
    buffer = ReplayBuffer(cfg.replay_capacity)
    action_rng = np.random.default_rng(action_seq)
    buffer_rng = np.random.default_rng(buffer_seq)
    episode_rng = np.random.default_rng(episode_seq)
    eval_rng = np.random.default_rng(eval_seq)

    min_fill = max(cfg.batch_size, cfg.warmup_steps)
    act = lambda obs: epsilon_greedy(qnet.forward(params, obs, mode="eval")[0],
                                     cfg.epsilon, action_rng)
    grad_steps = 0
    loss_ma: Optional[float] = None
    stats: List[EpisodeStats] = []
    log_file = open(log_path, "w") if log_path else None
    try:
        for ep in range(cfg.episodes):
            ep_seed = int(episode_rng.integers(0, 2 ** 63))
            results: List[StepResult] = []
            t_start = time.perf_counter()
            for obs, action, result in rollout(env, act, ep_seed):
                buffer.push((obs, action, result.reward, result.observation,
                             result.done))
                results.append(result)
                if len(buffer) >= min_fill:
                    s, a, r, s_next, done = buffer.sample(cfg.batch_size, buffer_rng)
                    y = double_dqn_target(r, s_next, done, params, target, cfg.gamma)
                    grads, loss = qnet.backward(params, s, a, y,
                                                loss_kind=cfg.loss_kind)
                    qnet.adam_step(params, grads, adam)
                    grad_steps += 1
                    loss_ma = loss if loss_ma is None else 0.98 * loss_ma + 0.02 * loss
                    if grad_steps % cfg.target_update_interval == 0:
                        target = qnet.copy_params(params)
            elapsed = time.perf_counter() - t_start
            ep_stats = _episode_stats(ep, results)
            stats.append(ep_stats)
            if log_file:
                record = {
                    "type": "train", "episode": ep, "r_sum": ep_stats.r_sum,
                    "steps": ep_stats.steps, "terminal": ep_stats.terminal,
                    "loss_ma": loss_ma, "epsilon": cfg.epsilon,
                    "grad_steps": grad_steps,
                    "wall_clock_per_step": elapsed / max(1, ep_stats.steps),
                }
                log_file.write(json.dumps(record) + "\n")
            if cfg.eval_every > 0 and (ep + 1) % cfg.eval_every == 0:
                eval_seed = int(eval_rng.integers(0, 2 ** 63))
                eval_stats = evaluate(env, params, cfg.eval_episodes, seed=eval_seed)
                mean, se = summarize(eval_stats)
                if log_file:
                    record = {"type": "eval", "episode": ep, "r_sum_mean": mean,
                              "r_sum_se": se, "episodes": cfg.eval_episodes}
                    log_file.write(json.dumps(record) + "\n")
    finally:
        if log_file:
            log_file.close()
    return params, stats


def random_policy_baseline(env, episodes: int, seed: int = 0,
                           collect_info: bool = False):
    """Uniform-random rollouts, the comparison baseline for training."""
    seed_rng = np.random.default_rng(np.random.SeedSequence(seed))
    action_rng = np.random.default_rng(seed_rng.integers(0, 2 ** 63))
    n_actions = env.action_count
    return _rollouts(env, lambda obs: int(action_rng.integers(0, n_actions)),
                     episodes, seed_rng, collect_info)
