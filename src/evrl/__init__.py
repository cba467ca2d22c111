"""Event-camera reinforcement learning at desk scale.

A frame-difference event simulator over a ray-cast renderer, two 100 Hz
control tasks (collision avoidance, tracking), a from-scratch Double DQN
stack, binary event-stream and checkpoint formats, and a TCP service
that turns live event streams into actions.

Importing the package keeps freed heap pages mapped for the whole process.
"""

import ctypes


def _keep_heap_mapped() -> None:
    """Raise glibc's trim threshold (M_TRIM_THRESHOLD, -1) to 32 MiB and its
    mmap threshold (M_MMAP_THRESHOLD, -3) to 4 MiB.

    With the defaults, the frame-sized temporaries each step frees go back
    to the OS and are page-faulted in again on the next step. Both are
    needed: a fixed mmap threshold turns off glibc's own trim adjustment.
    A no-op without glibc's mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 32 * 2 ** 20)
    mallopt(-3, 4 * 2 ** 20)


_keep_heap_mapped()  # before any submodule allocates a frame

from .events import (EVENT_DTYPE, EmulatorConfig, accumulate_events,
                     emulate_frame, events_array, inject_impulse_noise)
from .renderer import CameraModel, SceneObject, project, render, vec3
from .envs import (AvoidanceEnv, EnvConfig, StepResult, TrackingEnv,
                   avoidance_reward, episode_return, tracking_reward, wrap_angle)
from .qnet import (AdamState, NetworkConfig, QNetworkParams, adam_step, backward,
                   copy_params, forward, init_adam, init_params)
from .trainer import (EpisodeStats, ReplayBuffer, TrainerConfig,
                      double_dqn_target, epsilon_greedy, evaluate, summarize, train)
from .eventio import (FormatError, load_checkpoint, read_events, read_events_csv,
                      save_checkpoint, write_events, write_events_csv,
                      write_frame_pgm)
from .service import ActionService, WindowBucketer, offline_actions

__version__ = "0.1.0"

__all__ = [
    "EVENT_DTYPE", "EmulatorConfig", "accumulate_events",
    "emulate_frame", "events_array", "inject_impulse_noise",
    "CameraModel", "SceneObject", "project", "render", "vec3",
    "AvoidanceEnv", "EnvConfig", "StepResult", "TrackingEnv",
    "avoidance_reward", "episode_return", "tracking_reward", "wrap_angle",
    "AdamState", "NetworkConfig", "QNetworkParams", "adam_step", "backward",
    "copy_params", "forward", "init_adam", "init_params",
    "EpisodeStats", "ReplayBuffer", "TrainerConfig",
    "double_dqn_target", "epsilon_greedy", "evaluate", "summarize", "train",
    "FormatError", "load_checkpoint", "read_events", "read_events_csv",
    "save_checkpoint", "write_events", "write_events_csv", "write_frame_pgm",
    "ActionService", "WindowBucketer", "offline_actions",
    "__version__",
]
