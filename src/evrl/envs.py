"""Step-based RL environments observed through the event camera.

Two tasks, both at a 100 Hz control period over a flat ground plane:

* collision avoidance: the agent drives along +x while a sphere drops
  onto its path at a random moment; actions are forward/stop.
* tracking: a sphere is lobbed toward the agent's vicinity and rolls to
  rest; the agent turns (or drives) to keep its heading on the sphere.

Observations are ternary event frames produced by differencing the
log-intensity renders of consecutive steps and injecting impulse noise.
Everything is seeded: a given seed plus action sequence reproduces
rewards and observations bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .events import EmulatorConfig, EventFrame, emulate_frame, inject_impulse_noise
from .renderer import CameraModel, SceneObject, render, vec3

GRAVITY = 9.81

AVOIDANCE_ACTIONS = ("forward", "stop")
TRACKING_ACTIONS = ("forward", "right", "left")


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi]; both ends map to the principal value."""
    return math.atan2(math.sin(a), math.cos(a))


def avoidance_reward(d: float, forward: bool, collided: bool) -> float:
    """-d^2/10, +0.2 when driving forward; a collision overrides with -50."""
    if collided:
        return -50.0
    r = -(d * d) / 10.0
    if forward:
        r += 0.2
    return r


def tracking_reward(theta: float) -> float:
    # theta in radians, wrapped to [-pi, pi]; negative beyond 1 rad
    return 10.0 * (1.0 - abs(theta))


def episode_return(rewards: Sequence[float]) -> float:
    """Undiscounted sum of rewards, R_sum."""
    return float(sum(rewards))


@dataclass
class AgentState:
    position: np.ndarray
    yaw: float


@dataclass
class ObstacleState:
    position: np.ndarray
    velocity: np.ndarray
    radius: float
    active: bool


@dataclass(frozen=True)
class AvoidanceDynamics:
    """Spawn ranges sized so the sphere is reachable within one episode.

    An always-stopped agent can never collide (min spawn distance exceeds
    the largest combined radius even after the sphere lands), while a
    forward-biased policy usually does.
    """

    v_forward: float = 1.0
    agent_radius: float = 0.15
    spawn_distance: Tuple[float, float] = (0.4, 0.9)
    lateral_jitter: Tuple[float, float] = (-0.1, 0.1)
    sphere_radius: Tuple[float, float] = (0.2, 0.3)
    drop_height: Tuple[float, float] = (0.4, 0.8)
    trigger_step: Tuple[int, int] = (10, 40)


@dataclass(frozen=True)
class TrackingDynamics:
    v_forward: float = 1.0
    turn_rate: float = math.radians(60.0)
    agent_radius: float = 0.15
    launch_distance: Tuple[float, float] = (2.0, 4.0)
    launch_bearing: Tuple[float, float] = (-math.radians(30.0), math.radians(30.0))
    launch_speed: Tuple[float, float] = (2.0, 4.0)
    launch_elevation: Tuple[float, float] = (math.radians(20.0), math.radians(60.0))
    aim_jitter: float = 0.5
    roll_decel: float = 3.0
    sphere_radius: Tuple[float, float] = (0.2, 0.3)


@dataclass
class EnvConfig:
    dt: float = 0.01
    max_steps: int = 100
    sensor: CameraModel = field(default_factory=CameraModel)
    emulator: EmulatorConfig = field(default_factory=EmulatorConfig)
    seed: int = 0
    scenery: bool = True
    dynamics: object = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class StepResult:
    observation: EventFrame
    reward: float
    done: bool
    info: Dict[str, object]


def default_scenery(task: str) -> List[SceneObject]:
    """Static boxes flanking the workspace.

    They never collide with anything; their only job is to give
    ego-motion a visual signature, so frames taken while driving or
    turning differ from frames taken at rest.
    """
    if task == "avoidance":
        return [
            SceneObject("box", vec3(0.6, -0.6, 0.1), 0.1),
            SceneObject("box", vec3(1.1, 0.7, 0.2), 0.15),
            SceneObject("box", vec3(1.7, -0.8, 0.25), 0.2),
        ]
    if task == "tracking":
        return [
            SceneObject("box", vec3(2.0, -2.0, 0.3), 0.3),
            SceneObject("box", vec3(2.5, 2.2, 0.4), 0.3),
            SceneObject("box", vec3(4.0, 0.0, 0.5), 0.4),
        ]
    raise ValueError(f"unknown task {task!r}")


class _EventEnv:
    """Shared plumbing: seeding, rendering, event observation, episode gate."""

    task = ""
    action_names: Tuple[str, ...] = ()
    default_dynamics: type  # filled in when the config has no dynamics

    def __init__(self, config: Optional[EnvConfig] = None):
        # a private copy: filling in `dynamics` leaves the caller's untouched
        self.config = replace(config) if config is not None else EnvConfig()
        if self.config.dynamics is None:
            self.config.dynamics = self.default_dynamics()
        self._root_seq = np.random.SeedSequence(self.config.seed)
        self._scenery = default_scenery(self.task) if self.config.scenery else []
        self._rng: Optional[np.random.Generator] = None
        self._done = True
        self._step_count = 0
        self._l_prev: Optional[np.ndarray] = None
        self.agent: Optional[AgentState] = None
        self.sphere: Optional[ObstacleState] = None

    @property
    def action_count(self) -> int:
        return len(self.action_names)

    def reset(self, seed: Optional[int] = None) -> EventFrame:
        if seed is None:
            seq = self._root_seq.spawn(1)[0]
        else:
            seq = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(seq)
        self.agent = AgentState(position=vec3(0.0, 0.0, 0.0), yaw=0.0)
        self._spawn(self._rng)
        self._done = False
        self._step_count = 0
        self._l_prev = self._render()
        # static scene: the initial observation is noise on an all-zero frame
        frame = emulate_frame(self._l_prev, self._l_prev, self.config.emulator.threshold)
        return inject_impulse_noise(frame, self.config.emulator.noise_prob, self._rng)

    def step(self, action: int) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset() before step()")
        if not 0 <= action < self.action_count:
            raise ValueError(f"action must be in [0, {self.action_count}), got {action}")
        self._step_count += 1
        reward, done, info = self._advance(action)
        if self._step_count >= self.config.max_steps:
            done = True
        l_curr = self._render()
        frame = emulate_frame(self._l_prev, l_curr, self.config.emulator.threshold)
        frame = inject_impulse_noise(frame, self.config.emulator.noise_prob, self._rng)
        self._l_prev = l_curr
        self._done = done
        return StepResult(observation=frame, reward=reward, done=done, info=info)

    def _camera(self) -> CameraModel:
        return replace(self.config.sensor,
                       position=self.agent.position.copy(), yaw=self.agent.yaw)

    def _scene(self) -> List[SceneObject]:
        objs = list(self._scenery)
        if self.sphere is not None and self.sphere.active:
            objs.append(SceneObject("sphere", self.sphere.position.copy(),
                                    self.sphere.radius))
        return objs

    def _render(self) -> np.ndarray:
        return render(self._scene(), self._camera())

    def _distance(self) -> float:
        return float(np.linalg.norm(self.sphere.position - self.agent.position))

    def _collided(self) -> bool:
        if not self.sphere.active:
            return False
        dyn = self.config.dynamics
        return self._distance() < dyn.agent_radius + self.sphere.radius

    def _drive_forward(self):
        """Move the agent one step along its heading."""
        heading = vec3(math.cos(self.agent.yaw), math.sin(self.agent.yaw), 0.0)
        self.agent.position += self.config.dynamics.v_forward * self.config.dt * heading

    def _spawn(self, rng: np.random.Generator):
        raise NotImplementedError

    def _advance(self, action: int):
        raise NotImplementedError


def _uniform(rng: np.random.Generator, lohi: Tuple[float, float]) -> float:
    return float(rng.uniform(lohi[0], lohi[1]))


class AvoidanceEnv(_EventEnv):
    """Drive or stop while a sphere drops onto the path ahead.

    Before its trigger step the sphere hovers at the drop point: it is
    excluded from rendering (no events yet) but still anchors the
    distance term of the reward. Collisions are only checked once it has
    entered the scene.
    """

    task = "avoidance"
    action_names = AVOIDANCE_ACTIONS
    default_dynamics = AvoidanceDynamics

    def _spawn(self, rng: np.random.Generator):
        dyn = self.config.dynamics
        x = _uniform(rng, dyn.spawn_distance)
        y = _uniform(rng, dyn.lateral_jitter)
        radius = _uniform(rng, dyn.sphere_radius)
        height = _uniform(rng, dyn.drop_height)
        self._trigger = int(rng.integers(dyn.trigger_step[0], dyn.trigger_step[1] + 1))
        self.sphere = ObstacleState(position=vec3(x, y, height),
                                    velocity=vec3(0.0, 0.0, 0.0),
                                    radius=radius, active=False)

    def _advance(self, action: int):
        cfg = self.config
        forward = action == 0
        if forward:
            self._drive_forward()

        sph = self.sphere
        if self._step_count >= self._trigger:
            sph.active = True
            if sph.position[2] > sph.radius:
                sph.position += sph.velocity * cfg.dt
                sph.velocity[2] -= GRAVITY * cfg.dt
                if sph.position[2] <= sph.radius:  # rests on the ground
                    sph.position[2] = sph.radius
                    sph.velocity[:] = 0.0

        d = self._distance()
        collided = self._collided()
        reward = avoidance_reward(d, forward, collided)
        info = {"d": d, "collision": collided}
        return reward, collided, info


class TrackingEnv(_EventEnv):
    """Keep the heading on a sphere lobbed toward the agent's vicinity."""

    task = "tracking"
    action_names = TRACKING_ACTIONS
    default_dynamics = TrackingDynamics

    def _spawn(self, rng: np.random.Generator):
        dyn = self.config.dynamics
        dist = _uniform(rng, dyn.launch_distance)
        bearing = _uniform(rng, dyn.launch_bearing)
        speed = _uniform(rng, dyn.launch_speed)
        elev = _uniform(rng, dyn.launch_elevation)
        radius = _uniform(rng, dyn.sphere_radius)
        start = vec3(dist * math.cos(bearing), dist * math.sin(bearing), radius)
        # aim at a point near the agent so the lob comes roughly inbound
        aim = vec3(rng.uniform(-dyn.aim_jitter, dyn.aim_jitter),
                   rng.uniform(-dyn.aim_jitter, dyn.aim_jitter), 0.0)
        flat = aim - start
        azim = math.atan2(flat[1], flat[0])
        vel = vec3(speed * math.cos(elev) * math.cos(azim),
                   speed * math.cos(elev) * math.sin(azim),
                   speed * math.sin(elev))
        self.sphere = ObstacleState(position=start, velocity=vel,
                                    radius=radius, active=True)

    def bearing(self) -> float:
        rel = self.sphere.position - self.agent.position
        return wrap_angle(math.atan2(rel[1], rel[0]) - self.agent.yaw)

    def _advance(self, action: int):
        cfg = self.config
        dyn = cfg.dynamics
        if action == 0:
            self._drive_forward()
        else:
            sign = -1.0 if action == 1 else 1.0  # right decreases yaw
            self.agent.yaw = wrap_angle(self.agent.yaw + sign * dyn.turn_rate * cfg.dt)

        sph = self.sphere
        airborne = sph.position[2] > sph.radius or sph.velocity[2] > 0.0
        sph.position += sph.velocity * cfg.dt
        if airborne:
            sph.velocity[2] -= GRAVITY * cfg.dt
            if sph.position[2] <= sph.radius and sph.velocity[2] < 0.0:
                sph.position[2] = sph.radius  # touch down, keep rolling
                sph.velocity[2] = 0.0
        else:
            sph.position[2] = sph.radius
            speed = float(np.hypot(sph.velocity[0], sph.velocity[1]))
            if speed > 0.0:
                scale = max(0.0, 1.0 - dyn.roll_decel * cfg.dt / speed)
                sph.velocity[0] *= scale
                sph.velocity[1] *= scale

        theta = self.bearing()
        collided = self._collided()  # counts as reaching the target
        reward = tracking_reward(theta)
        info = {"theta": theta, "d": self._distance(), "collision": collided}
        return reward, collided, info
