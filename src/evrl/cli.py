"""Command line entry points.

Subcommands: train, eval, record, render-demo, serve, bench. All flags
are long-form; a JSON file passed via --config supplies defaults (keys
are flag names with underscores) and explicit flags override it. Usage
errors exit 2, runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import qnet, trainer as trainer_mod
from .envs import AvoidanceEnv, EnvConfig, TrackingEnv
from .events import EmulatorConfig, pack_events
from .eventio import load_checkpoint, save_checkpoint, write_events, write_frame_pgm
from .qnet import NetworkConfig
from .renderer import CameraModel
from .service import serve as service_serve
from .trainer import TrainerConfig, summarize

TASKS = {"avoidance": AvoidanceEnv, "tracking": TrackingEnv}


def _env_flags(p: argparse.ArgumentParser, width=64, height=48):
    p.add_argument("--task", choices=sorted(TASKS), required=True)
    p.add_argument("--width", type=int, default=width)
    p.add_argument("--height", type=int, default=height)
    p.add_argument("--hfov-deg", type=float, default=70.0)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--noise-prob", type=float, default=0.001)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--no-scenery", action="store_true",
                   help="drop the static landmark boxes from the scene")
    p.add_argument("--seed", type=int, default=0)


def build_env(args, width: Optional[int] = None, height: Optional[int] = None):
    sensor = CameraModel(width=width or args.width, height=height or args.height,
                         horizontal_fov=math.radians(args.hfov_deg))
    emulator = EmulatorConfig(threshold=args.threshold, noise_prob=args.noise_prob)
    cfg = EnvConfig(dt=args.dt, max_steps=args.max_steps, sensor=sensor,
                    emulator=emulator, seed=args.seed,
                    scenery=not args.no_scenery)
    return TASKS[args.task](cfg)


def _add_train(sub):
    p = sub.add_parser("train", help="train a Double DQN policy")
    _env_flags(p)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--target-interval", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--replay-capacity", type=int, default=10 ** 6)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--loss", choices=("huber", "squared"), default="huber")
    p.add_argument("--eval-every", type=int, default=25)
    p.add_argument("--eval-episodes", type=int, default=10)
    p.add_argument("--stride1", type=int, default=4)
    p.add_argument("--stride2", type=int, default=4)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--log", default=None, help="JSONL training log path")
    p.set_defaults(func=cmd_train)


def cmd_train(args) -> int:
    env = build_env(args)
    net_cfg = NetworkConfig(height=args.height, width=args.width,
                            action_count=env.action_count,
                            strides=(args.stride1, args.stride2))
    tr_cfg = TrainerConfig(
        episodes=args.episodes, gamma=args.gamma, epsilon=args.epsilon,
        target_update_interval=args.target_interval, batch_size=args.batch_size,
        warmup_steps=args.warmup, replay_capacity=args.replay_capacity,
        learning_rate=args.lr, loss_kind=args.loss, eval_every=args.eval_every,
        eval_episodes=args.eval_episodes, seed=args.seed)
    params, stats = trainer_mod.train(env, tr_cfg, net_cfg, log_path=args.log)
    save_checkpoint(args.out, params, step=sum(s.steps for s in stats))
    mean, se = summarize(stats[-min(25, len(stats)):]) if stats else (0.0, 0.0)
    print(f"trained {len(stats)} episodes; last-25 R_sum {mean:.3f} +- {se:.3f}; "
          f"checkpoint {args.out}")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="greedy or random evaluation episodes")
    _env_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--episodes", type=int, default=30)
    p.add_argument("--random", action="store_true",
                   help="evaluate a uniform-random policy instead of a checkpoint")
    p.set_defaults(func=cmd_eval)


def cmd_eval(args) -> int:
    if args.random:
        env = build_env(args)
        stats, infos = trainer_mod.random_policy_baseline(
            env, args.episodes, seed=args.seed, collect_info=True)
    else:
        if not args.checkpoint:
            raise SystemExit2("--checkpoint is required unless --random is given")
        params, _ = load_checkpoint(args.checkpoint)
        env = build_env(args, width=params.cfg.width, height=params.cfg.height)
        stats, infos = trainer_mod.evaluate(
            env, params, args.episodes, seed=args.seed, collect_info=True)
    mean, se = summarize(stats)
    collisions = sum(1 for s in stats if s.terminal == "collision")
    line = (f"episodes {len(stats)}  R_sum mean {mean:.4f} se {se:.4f}  "
            f"collisions {collisions}/{len(stats)}")
    if args.task == "tracking":
        thetas = [abs(step["theta"]) for ep in infos for step in ep]
        line += f"  mean|theta| {float(np.mean(thetas)):.4f} rad"
    print(line)
    return 0


def _add_record(sub):
    p = sub.add_parser("record", help="roll out a policy and write event streams")
    _env_flags(p)
    p.add_argument("--checkpoint", default=None,
                   help="greedy policy source; omit for a random policy")
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--out", required=True,
                   help="output stem; writes <stem>.ep<k>.evt1 plus .jsonl sidecars")
    p.set_defaults(func=cmd_record)


def record_episode(env, policy, rng: np.random.Generator, dt_us: int,
                   seed: int) -> Tuple[np.ndarray, List[dict]]:
    """One rollout as a synthetic event stream plus a per-window action log.

    The observation of step n becomes window n, spanning
    [(n-1)*dt_us, n*dt_us); each nonzero pixel turns into one event at a
    uniform timestamp inside the window. The stream's first event is
    pinned to its window's start so a replay anchors on the same grid.
    The logged action for window n is the policy's response to that
    observation: the action the rollout took at step n+1, and for the
    last window one more policy call. That is exactly what a replay
    through the service should emit.
    """
    frames: List[np.ndarray] = []
    actions: List[int] = []
    for _, action, result in trainer_mod.rollout(env, policy, seed):
        actions.append(action)
        frames.append(result.observation)
    actions = actions[1:] + [policy(frames[-1])]
    records: List[dict] = []
    parts = []  # one 4 x n array of t, x, y, p rows per window
    for step, (frame, action) in enumerate(zip(frames, actions), start=1):
        start = (step - 1) * dt_us
        ys, xs = np.nonzero(frame)
        ts = np.sort(rng.integers(start, start + dt_us, size=len(ys)))
        parts.append(np.stack([ts, xs, ys, frame[ys, xs]]))
        records.append({"step": step, "action": int(action), "events": len(ys)})
    stream = pack_events(*np.concatenate(parts, axis=1))
    stream["t"][:1] = stream["t"][:1] // dt_us * dt_us  # pin the anchor to the grid
    return stream, records


def _policy(args, env):
    """Greedy on --checkpoint, else uniform random from a child of --seed."""
    if args.checkpoint:
        params, _ = load_checkpoint(args.checkpoint)
        if (params.cfg.width, params.cfg.height) != (args.width, args.height):
            raise SystemExit2("checkpoint resolution does not match --width/--height")
        return lambda obs: trainer_mod.greedy_action(params, obs)
    prng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    return lambda obs: int(prng.integers(0, env.action_count))


def cmd_record(args) -> int:
    env = build_env(args)
    policy = _policy(args, env)
    dt_us = int(round(args.dt * 1e6))
    seed_rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    stem = Path(args.out)
    for ep in range(args.episodes):
        ep_seed = int(seed_rng.integers(0, 2 ** 63))
        stamp_rng = np.random.default_rng(int(seed_rng.integers(0, 2 ** 63)))
        stream, records = record_episode(env, policy, stamp_rng, dt_us, ep_seed)
        # appended to the stem's name: with_suffix would cut a dotted stem
        evt_path = stem.with_name(f"{stem.name}.ep{ep}.evt1")
        write_events(evt_path, stream, args.width, args.height)
        with open(stem.with_name(f"{stem.name}.ep{ep}.jsonl"), "w") as fh:
            fh.write(json.dumps({"type": "meta", "task": args.task,
                                 "width": args.width, "height": args.height,
                                 "dt_us": dt_us, "seed": ep_seed}) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        print(f"episode {ep}: {len(stream)} events, {len(records)} windows -> {evt_path}")
    return 0


def _add_render_demo(sub):
    p = sub.add_parser("render-demo", help="dump per-step event frames as PGM")
    _env_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_render_demo)


def cmd_render_demo(args) -> int:
    env = build_env(args)
    policy = _policy(args, env)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    steps = trainer_mod.rollout(env, policy, args.seed)
    for n, (_, _, result) in enumerate(steps, start=1):
        write_frame_pgm(result.observation, out / f"frame_{n - 1:04d}.pgm")
    print(f"wrote {n} frames to {out}")
    return 0


def _add_serve(sub):
    p = sub.add_parser("serve", help="run the TCP action service")
    p.add_argument("--bind", default="127.0.0.1:7700", help="host:port")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dt-us", type=int, default=10000,
                   help="window width when the client's hello omits dt_us")
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_serve)


def cmd_serve(args) -> int:
    host, _, port_text = args.bind.rpartition(":")
    if not host or not (port_text.isascii() and port_text.isdigit()):
        raise SystemExit2(f"--bind expects host:port, got {args.bind!r}")
    if int(port_text) > 65535:
        raise SystemExit2(f"--bind port must be in 0..65535, got {port_text}")
    service_serve(host, int(port_text), args.checkpoint, log_path=args.log,
                  default_dt_us=args.dt_us)
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="control step latency percentiles")
    _env_flags(p, width=240, height=180)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(func=cmd_bench)


def cmd_bench(args) -> int:
    if args.steps < 1:
        raise SystemExit2("--steps must be >= 1")
    env = build_env(args)
    net_cfg = NetworkConfig(height=args.height, width=args.width,
                            action_count=env.action_count)
    params = qnet.init_params(net_cfg, np.random.default_rng(args.seed))
    rng = np.random.default_rng(args.seed)
    stages = {"step": [], "forward": []}
    done = True
    for _ in range(args.steps):
        if done:
            env.reset()  # each episode seeded from the env's --seed stream
        t = time.perf_counter_ns()
        result = env.step(int(rng.integers(0, env.action_count)))
        stages["step"].append(time.perf_counter_ns() - t)
        t = time.perf_counter_ns()
        np.argmax(qnet.forward(params, result.observation, mode="eval")[0])
        stages["forward"].append(time.perf_counter_ns() - t)
        done = result.done
    stages["total"] = np.add(stages["step"], stages["forward"])
    print(f"{args.width}x{args.height}, {args.steps} steps (times in ms)")
    for name in ("step", "forward", "total"):
        ms = np.array(stages[name], dtype=np.float64) / 1e6
        print(f"  {name:8s} p50 {np.percentile(ms, 50):7.3f}  "
              f"p90 {np.percentile(ms, 90):7.3f}  p99 {np.percentile(ms, 99):7.3f}")
    return 0


class SystemExit2(Exception):
    """Usage error discovered after argparse has run."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evrl",
        description="Event-camera RL: simulation, Double DQN training, "
                    "and a low-latency action service.")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_train, _add_eval, _add_record, _add_render_demo,
                _add_serve, _add_bench):
        add(sub)
    for sp in sub.choices.values():
        sp.add_argument("--config", default=None,
                        help="JSON file of flag defaults (underscore keys)")
    parser.subcommands = dict(sub.choices)
    return parser


def _flag_accepts(action: argparse.Action, value) -> bool:
    """Whether a --config value passes its flag's type and choices; a switch
    such as --no-scenery takes only true or false."""
    if action.nargs == 0:
        return type(value) is bool
    try:
        typed = (action.type or str)(str(value))
    except ValueError:
        return False
    return typed == value and (action.choices is None or value in action.choices)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: {exc}")
        sub = parser.subcommands[args.command]
        actions = {a.dest: a for a in sub._actions if a.dest != "help"}
        unknown = sorted(set(defaults) - set(actions))
        if unknown:
            parser.error(f"--config: unknown keys {unknown}")
        for key, value in defaults.items():
            if not _flag_accepts(actions[key], value):
                parser.error(f"--config: {key}: its flag does not accept {value!r}")
        sub.set_defaults(**defaults)
        args = parser.parse_args(argv)  # explicit flags still win
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
