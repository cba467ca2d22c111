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

from .events import EVENT_DTYPE, event_faults, events_array, pack_events
from .qnet import NetworkConfig, QNetworkParams, param_shapes

EVT1_MAGIC = b"EVT1"
EVT1_VERSION = 1
_EVT1_HEADER = struct.Struct("<4sHHHQ")
_CSV_SIDE = 2 ** 16  # CSV declares no sensor: x and y are u16 fields

CHECKPOINT_MAGIC = b"EVRL"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sH10HddQ")


class FormatError(ValueError):
    """Malformed file content; the message pinpoints the failure."""


def write_events(path, events, width: int, height: int):
    """Write an EVT1 stream; refuses, by ValueError, what read_events would."""
    arr = events_array(events)
    if not (0 < width <= 0xFFFF and 0 < height <= 0xFFFF):
        raise ValueError(f"width/height out of range: {width}x{height}")
    _check_records(arr, width, height, "event {}".format)
    # rebuild to guarantee zeroed pad bytes regardless of the input's origin
    out = pack_events(arr["t"], arr["x"], arr["y"], arr["p"])
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
    _check_records(events, width, height, lambda i: f"invalid record {i} at offset "
                   f"{_EVT1_HEADER.size + i * EVENT_DTYPE.itemsize}", FormatError)
    return events, width, height


def _check_records(ev, width: int, height: int, where, error=ValueError):
    """Raise error, led by where(i), at the first event i of the columns
    ev["t"], ev["x"], ev["y"], ev["p"] that fails event_faults or ascending t."""
    t, x, y, p = ev["t"], ev["x"], ev["y"], ev["p"]
    outside, polarity = event_faults(t, x, y, p, width, height)
    unsorted = np.zeros(len(t), dtype=bool)
    unsorted[1:] = t[1:] < t[:-1]
    bad = np.flatnonzero(outside | polarity | unsorted)
    if bad.size:
        i = bad[0]
        fault = (f"polarity must be -1 or 1, got {p[i]}" if polarity[i] else
                 "timestamps not ascending" if unsorted[i] else
                 f"field out of range in {t[i]},{x[i]},{y[i]},{p[i]}")
        raise error(f"{where(i)}: {fault}")


def write_events_csv(path, events):
    """One "t,x,y,p" line per event, no header; refuses what read_events_csv would."""
    arr = events_array(events)
    _check_records(arr, _CSV_SIDE, _CSV_SIDE, "event {}".format)
    with open(path, "w") as fh:
        for t, x, y, p in zip(arr["t"], arr["x"], arr["y"], arr["p"]):
            fh.write(f"{t},{x},{y},{p}\n")


def read_events_csv(path) -> np.ndarray:
    """Read a CSV stream, checked by the EVT1 rules with x, y < 2**16."""
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                rows.append([int(v) for v in parts])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in {line!r}") from None
            linenos.append(lineno)
    cols = dict(zip("txyp", np.array(rows, dtype=object).reshape(-1, 4).T))  # exact, unwrapped ints
    _check_records(cols, _CSV_SIDE, _CSV_SIDE, lambda i: f"line {linenos[i]}", FormatError)
    return pack_events(**cols)


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
