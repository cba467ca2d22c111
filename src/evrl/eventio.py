"""File formats: EVT1 event streams, CSV interchange, checkpoints, PGM dumps.

All formats are little-endian and fully specified here; round-trips are
bit-exact. Parsers fail loudly with the byte offset (binary) or line
number (text) of the first problem instead of truncating silently.

EVT1 layout:
    magic "EVT1" | version u16 | width u16 | height u16 | count u64
    then count records of 16 bytes: t u64 (microseconds), x u16, y u16,
    p i8 (+1 or -1), 3 zero pad bytes. Events sorted ascending by t.

Checkpoint layout ("EVRL"):
    magic | version u16 | ten u16 config fields (height, width,
    action_count, conv channels, kernel, strides, padding, fc width) |
    bn_eps f64 | bn_momentum f64 | step counter u64 | parameter arrays
    as raw float32 in declaration order.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from .events import EVENT_DTYPE, events_array
from .qnet import NetworkConfig, QNetworkParams, param_shapes

EVT1_MAGIC = b"EVT1"
EVT1_VERSION = 1
_EVT1_HEADER = struct.Struct("<4sHHHQ")

CHECKPOINT_MAGIC = b"EVRL"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sH10HddQ")


class FormatError(Exception):
    """Malformed file content; the message pinpoints the failure."""


def write_events(path, events, width: int, height: int):
    """Write an EVT1 stream. The writer enforces ascending timestamps."""
    arr = events_array(events)
    if not (0 < width <= 0xFFFF and 0 < height <= 0xFFFF):
        raise ValueError(f"width/height out of range: {width}x{height}")
    if (arr["t"][1:] < arr["t"][:-1]).any():
        raise ValueError("events must be sorted ascending by t")
    if len(arr) and ((arr["x"] >= width).any() or (arr["y"] >= height).any()):
        raise ValueError("event coordinates exceed the declared dimensions")
    # rebuild to guarantee zeroed pad bytes regardless of the input's origin
    out = np.zeros(len(arr), dtype=EVENT_DTYPE)
    for name in ("t", "x", "y", "p"):
        out[name] = arr[name]
    with open(path, "wb") as fh:
        fh.write(_EVT1_HEADER.pack(EVT1_MAGIC, EVT1_VERSION, width, height, len(out)))
        fh.write(out.tobytes())


def read_events(path) -> Tuple[np.ndarray, int, int]:
    """Read an EVT1 stream; returns (events, width, height)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _EVT1_HEADER.size:
        raise FormatError(f"truncated header: {len(data)} bytes at offset 0")
    magic, version, width, height, count = _EVT1_HEADER.unpack_from(data, 0)
    if magic != EVT1_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    if version != EVT1_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if width == 0 or height == 0:
        raise FormatError(f"zero dimension {width}x{height} at offset 6")
    body = len(data) - _EVT1_HEADER.size
    if body != count * EVENT_DTYPE.itemsize:
        whole = body // EVENT_DTYPE.itemsize
        offset = _EVT1_HEADER.size + min(whole, count) * EVENT_DTYPE.itemsize
        raise FormatError(
            f"expected {count} records ({count * EVENT_DTYPE.itemsize} bytes),"
            f" got {body} body bytes: file inconsistent at offset {offset}"
        )
    events = np.frombuffer(data, dtype=EVENT_DTYPE, count=count,
                           offset=_EVT1_HEADER.size).copy()
    i = _first_bad_record(events, width, height)
    if i is not None:
        offset = _EVT1_HEADER.size + i * EVENT_DTYPE.itemsize
        raise FormatError(f"invalid record {i} at offset {offset}")
    return events, width, height


def _first_bad_record(events: np.ndarray, width: int, height: int) -> Optional[int]:
    """The index of the first invalid record, or None."""
    bad = (events["x"] >= width) | (events["y"] >= height) | \
        ((events["p"] != 1) & (events["p"] != -1))
    bad[1:] |= events["t"][1:] < events["t"][:-1]
    idx = np.flatnonzero(bad)
    return int(idx[0]) if idx.size else None


def write_events_csv(path, events):
    """Plain text, one event per line as "t,x,y,p", no header."""
    arr = events_array(events)
    if (arr["t"][1:] < arr["t"][:-1]).any():
        raise ValueError("events must be sorted ascending by t")
    with open(path, "w") as fh:
        for t, x, y, p in zip(arr["t"], arr["x"], arr["y"], arr["p"]):
            fh.write(f"{t},{x},{y},{p}\n")


def read_events_csv(path) -> np.ndarray:
    rows = []
    prev_t = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, x, y, p = (int(v) for v in parts)
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in {line!r}") from None
            if p not in (-1, 1):
                raise FormatError(f"line {lineno}: polarity must be -1 or 1, got {p}")
            if t < prev_t:
                raise FormatError(f"line {lineno}: timestamps not ascending")
            if not (0 <= t <= 2 ** 64 - 1 and 0 <= x <= 0xFFFF and 0 <= y <= 0xFFFF):
                raise FormatError(f"line {lineno}: field out of range in {line!r}")
            prev_t = t
            rows.append((t, x, y, p))
    return events_array(rows)


def _config_words(cfg: NetworkConfig) -> Tuple[int, ...]:
    return (cfg.height, cfg.width, cfg.action_count,
            cfg.conv_channels[0], cfg.conv_channels[1], cfg.kernel,
            cfg.strides[0], cfg.strides[1], cfg.padding, cfg.fc_width)


def save_checkpoint(path, params: QNetworkParams, step: int = 0):
    """Config header + float32 arrays in declaration order."""
    cfg = params.cfg
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   *_config_words(cfg), cfg.bn_eps,
                                   cfg.bn_momentum, step))
        for _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path, expect: Optional[NetworkConfig] = None):
    """Returns (params, step). With expect set, any config drift is an error."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _CKPT_HEADER.size:
        raise FormatError(f"truncated header: {len(data)} bytes at offset 0")
    fields = _CKPT_HEADER.unpack_from(data, 0)
    magic, version = fields[0], fields[1]
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    words = fields[2:12]
    bn_eps, bn_momentum, step = fields[12], fields[13], fields[14]
    try:
        cfg = NetworkConfig(height=words[0], width=words[1], action_count=words[2],
                            conv_channels=(words[3], words[4]), kernel=words[5],
                            strides=(words[6], words[7]), padding=words[8],
                            fc_width=words[9], bn_eps=bn_eps, bn_momentum=bn_momentum)
    except ValueError as exc:
        raise FormatError(f"invalid embedded config: {exc}") from None
    if expect is not None and cfg != expect:
        raise FormatError(
            f"checkpoint config {cfg} does not match expected {expect}"
        )
    offset = _CKPT_HEADER.size
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        nbytes = int(np.prod(shape)) * 4
        if offset + nbytes > len(data):
            raise FormatError(f"truncated array {name!r} at offset {offset}")
        arrays[name] = np.frombuffer(data, dtype="<f4", count=int(np.prod(shape)),
                                     offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes at offset {offset}")
    return QNetworkParams(cfg=cfg, **arrays), step


def write_frame_pgm(frame: np.ndarray, path):
    """Ternary frame as 8-bit P5: -1 -> 0, 0 -> 128, +1 -> 255."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError(f"expected a 2-d frame, got shape {frame.shape}")
    if frame.size and int(np.abs(frame).max()) > 1:
        raise ValueError("frame values must be in {-1, 0, +1}")
    lut = np.array([128, 255, 0], dtype=np.uint8)  # index by value mod 3
    pixels = lut[np.mod(frame.astype(np.int64), 3)]
    _write_pgm(pixels, path)


def write_intensity_pgm(intensity: np.ndarray, path):
    """Linear intensity in [0, 1] quantized to 8 bits (for render demos)."""
    img = np.asarray(intensity, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _write_pgm(pixels, path)


def _write_pgm(pixels: np.ndarray, path):
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
