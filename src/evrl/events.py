"""Event-frame conversion and sensor noise.

The observation fed to the agent is a ternary H x W map: +1 where log
intensity rose by at least the contrast threshold since the previous
control step, -1 where it fell by at least the threshold, 0 elsewhere.
In simulation the map is computed by differencing two rendered
log-intensity frames; in deployment it is rebuilt from a raw event
stream by keeping, per pixel, the polarity of the last event inside the
control window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Ternary observation frame: int8 array of shape (H, W), values in {-1, 0, +1}.
EventFrame = np.ndarray

# In-memory event stream layout. 16 bytes per record, little-endian, matching
# the EVT1 file record so streams can be written/read without repacking:
# t (u64, microseconds), x (u16, column), y (u16, row), p (i8, +-1), 3 pad bytes.
EVENT_DTYPE = np.dtype(
    {
        "names": ["t", "x", "y", "p"],
        "formats": ["<u8", "<u2", "<u2", "<i1"],
        "offsets": [0, 8, 10, 12],
        "itemsize": 16,
    }
)

# The same fields with no padding: what np.concatenate of EVENT_DTYPE arrays
# returns, and what events_array parses sequences into before repacking.
_PACKED_DTYPE = np.dtype([(name, EVENT_DTYPE.fields[name][0])
                          for name in EVENT_DTYPE.names])


@dataclass(frozen=True)
class EmulatorConfig:
    """Contrast threshold (log-intensity units) and impulse-noise rate."""

    threshold: float = 0.2
    noise_prob: float = 0.001

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError(f"noise_prob must be in [0, 1], got {self.noise_prob}")


def events_array(events) -> np.ndarray:
    """Normalize an event sequence to a structured array of EVENT_DTYPE.

    An EVENT_DTYPE array is returned as-is. Any other structured array with
    t/x/y/p fields (a packed one, say) is converted field by field, and any
    iterable of (t, x, y, p) rows is parsed with one np.array call. Built
    arrays have zeroed pad bytes.
    """
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE:
        return events
    if not (isinstance(events, np.ndarray) and events.dtype.names):
        events = np.array([tuple(e) for e in events], dtype=_PACKED_DTYPE)
    return pack_events(events["t"], events["x"], events["y"], events["p"])


def pack_events(t, x, y, p) -> np.ndarray:
    """An EVENT_DTYPE array of four columns that pass event_faults, filled
    field by field so that the pad bytes are zero."""
    out = np.zeros(len(t), dtype=EVENT_DTYPE)
    out["t"], out["x"], out["y"], out["p"] = t, x, y, p
    return out


def event_faults(t, x, y, p, width: int, height: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-event masks (outside t and sensor, bad polarity) of the record
    rules 0 <= t < 2**64, 0 <= x < width, 0 <= y < height and p in {-1, 1},
    for integer columns of any dtype, object arrays of Python ints included."""
    outside = (t < 0) | (t >= 2 ** 64) | (x < 0) | (x >= width) | (y < 0) | (y >= height)
    return outside, (p != 1) & (p != -1)


def emulate_frame(l_prev: np.ndarray, l_curr: np.ndarray, threshold: float) -> EventFrame:
    """Ternary difference of two log-intensity frames.

    +1 where l_curr - l_prev >= threshold, -1 where <= -threshold, else 0.
    Both boundaries are inclusive.
    """
    if l_prev.shape != l_curr.shape:
        raise ValueError(f"frame shape mismatch: {l_prev.shape} vs {l_curr.shape}")
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    diff = l_curr.astype(np.float64) - l_prev.astype(np.float64)
    out = np.zeros(l_prev.shape, dtype=np.int8)
    out[diff >= threshold] = 1
    out[diff <= -threshold] = -1
    return out


def accumulate_events(events, t_start: int, t_end: int, width: int, height: int) -> EventFrame:
    """Collapse the events with t_start <= t < t_end into one ternary frame.

    Events are applied in ascending timestamp order (a stable sort is applied
    internally, so slightly reordered capture streams are accepted); when
    several events hit the same pixel inside the window, the last one wins.
    Every event, inside the window or not, must obey event_faults.
    """
    if not t_start < t_end:
        raise ValueError(f"empty window: t_start={t_start} >= t_end={t_end}")
    ev = events_array(events)
    outside, polarity = event_faults(ev["t"], ev["x"], ev["y"], ev["p"], width, height)
    if (outside | polarity).any():
        bad = int(np.argmax(outside | polarity))
        raise ValueError(f"event {bad} {ev[bad]} is invalid on a {width}x{height} sensor")
    idx = np.flatnonzero((ev["t"] >= t_start) & (ev["t"] < t_end))
    inside = ev[idx[np.argsort(ev["t"][idx], kind="stable")]]
    lin = inside["y"] * np.intp(width) + inside["x"]
    # Keep only the final write per pixel: first occurrence in the reversed
    # sorted order is the last event for that pixel.
    _, rev_first = np.unique(lin[::-1], return_index=True)
    keep = len(lin) - 1 - rev_first
    frame = np.zeros((height, width), dtype=np.int8)
    frame.ravel()[lin[keep]] = inside["p"][keep]
    return frame


def inject_impulse_noise(frame: EventFrame, noise_prob: float, rng: np.random.Generator) -> EventFrame:
    """Overwrite each pixel, independently with probability noise_prob, by a
    fair-coin polarity from {-1, +1}. Returns a new frame."""
    if not 0.0 <= noise_prob <= 1.0:
        raise ValueError(f"noise_prob must be in [0, 1], got {noise_prob}")
    out = frame.copy()
    if noise_prob == 0.0:
        return out
    hit = rng.random(frame.shape) < noise_prob
    coin = rng.random(frame.shape)  # every pixel draws: seeded streams rely on it
    out[hit] = np.where(coin[hit] < 0.5, -1, 1)
    return out
