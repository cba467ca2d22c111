"""Ray-cast rasterizer producing log-intensity frames.

Deterministic CPU replacement for a full rendering stack: one primary ray
per pixel center, flat per-object intensities, no shading. The world is
right-handed with z up; units are meters. The background is a two-band
horizon (uniform sky above, uniform ground plane below), so the only
intensity changes between frames come from object silhouettes moving in
the image. Frames store L = log(I) with I in (0, 1], i.e. all values
are <= 0.

Pixel conventions: column x grows rightward, row y grows downward, pixel
(x, y) covers the unit square [x, x+1) x [y, y+1) and its primary ray
passes through the square's center. The horizontal field of view spans
the full sensor width; pixels are square.

Each object is ray-cast only inside the screen rectangle its bounding
sphere can cover; the frame is identical to a cast over every pixel.

The camera pitch is fixed at 0, so a ray's world x and y direction
components depend only on its column and its z component only on its
row. The kernels therefore take the x and y components as (w,) column
vectors and z as an (h, 1) row vector, work on each slab or term once per
column or row, and combine per pixel only where the terms meet. The sums
keep the per-pixel association order, so the frame is bit-identical to a
per-pixel cast. Adding pitch (or roll) makes every component depend on
both row and column: `render` would then have to build full (h, w)
direction grids, and `_background` would no longer be a function of the
row alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

SKY_INTENSITY = 0.8
GROUND_INTENSITY = 0.4
DEFAULT_OBJECT_INTENSITY = 0.1

# Log-intensity frame: float32 array of shape (H, W), all values <= 0.
IntensityFrame = np.ndarray

_RAY_EPS = 1e-9


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """3-vector in the world frame (meters, z up)."""
    v = np.array([x, y, z], dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite vector components: {v}")
    return v


@dataclass
class CameraModel:
    """Pinhole camera rigidly mounted on the agent.

    `position` is the agent's ground-plane reference point; the optical
    center sits `mount_height` above it. Yaw rotates about z; pitch is
    fixed at zero, so the optical axis is horizontal.
    """

    width: int = 240
    height: int = 180
    horizontal_fov: float = math.radians(70.0)
    position: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    yaw: float = 0.0
    mount_height: float = 0.15

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad sensor size {self.width}x{self.height}")
        if not 0.0 < self.horizontal_fov < math.pi:
            raise ValueError(f"horizontal_fov must be in (0, pi), got {self.horizontal_fov}")
        self.position = np.asarray(self.position, dtype=np.float64)

    @property
    def focal_px(self) -> float:
        """Focal length in pixels; fov/2 rays hit the sensor's side edges."""
        return (self.width / 2.0) / math.tan(self.horizontal_fov / 2.0)

    @property
    def eye(self) -> np.ndarray:
        return self.position + np.array([0.0, 0.0, self.mount_height])

    def basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(forward, right, up) unit vectors in world coordinates."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        forward = np.array([c, s, 0.0])
        right = np.array([s, -c, 0.0])  # forward x up
        up = np.array([0.0, 0.0, 1.0])
        return forward, right, up


@dataclass
class SceneObject:
    """Flat-intensity primitive: a sphere or an axis-aligned cube."""

    shape: str  # "sphere" | "box"
    center: np.ndarray
    radius_or_half_extent: float
    intensity: float = DEFAULT_OBJECT_INTENSITY

    def __post_init__(self):
        if self.shape not in ("sphere", "box"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if not self.radius_or_half_extent > 0:
            raise ValueError(f"radius/half-extent must be > 0, got {self.radius_or_half_extent}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError(f"intensity must be in (0, 1], got {self.intensity}")
        self.center = np.asarray(self.center, dtype=np.float64)


def project(point: np.ndarray, camera: CameraModel) -> Optional[Tuple[int, int]]:
    """Pixel containing the perspective projection of a world point.

    Returns None when the point is at or behind the camera plane or
    outside the view frustum. The frustum is closed: a point exactly on
    the boundary lands in the nearest edge pixel.
    """
    forward, right, up = camera.basis()
    rel = np.asarray(point, dtype=np.float64) - camera.eye
    zc = float(rel @ forward)
    if zc <= 0.0:
        return None
    f = camera.focal_px
    u = camera.width / 2.0 + f * float(rel @ right) / zc
    v = camera.height / 2.0 - f * float(rel @ up) / zc
    # closed frustum with room for roundoff at the exact boundary
    tol = 1e-9
    if u < -tol or u > camera.width + tol or v < -tol or v > camera.height + tol:
        return None
    px = min(max(int(math.floor(u)), 0), camera.width - 1)
    py = min(max(int(math.floor(v)), 0), camera.height - 1)
    return px, py


# Both caches are keyed by sensor, and the background also by eye height;
# an env renders from one of each, so a few entries cover every caller.
@functools.lru_cache(maxsize=8)
def _camera_grid(width: int, height: int, fov: float):
    """Read-only camera-frame ray components (a, b) of each column and
    row: the ray through pixel (x, y) is forward + a[x]*right + b[y]*up."""
    f = (width / 2.0) / math.tan(fov / 2.0)
    a = (np.arange(width, dtype=np.float64) + 0.5 - width / 2.0) / f
    b = (height / 2.0 - (np.arange(height, dtype=np.float64) + 0.5)) / f
    a.flags.writeable = b.flags.writeable = False
    return a, b


@functools.lru_cache(maxsize=8)
def _background(width: int, height: int, fov: float, eye_z: float):
    """Read-only (t, log-intensity frame) of the horizon: ground below,
    sky above.

    Independent of yaw and of the camera's x/y position.
    """
    _, dz = _camera_grid(width, height, fov)
    below = dz < 0.0
    t_ground = np.where(below, -eye_z / np.where(below, dz, -1.0), np.inf)
    grounded = below & (t_ground > _RAY_EPS)
    t_bg = np.where(grounded, t_ground, np.inf)
    log_bg = np.log(np.where(grounded, GROUND_INTENSITY, SKY_INTENSITY)).astype(np.float32)
    t_bg, log_bg = (np.repeat(x[:, None], width, axis=1) for x in (t_bg, log_bg))
    t_bg.flags.writeable = log_bg.flags.writeable = False
    return t_bg, log_bg


def _intersect_sphere(eye, dx, dy, dz, center, radius):
    """Smallest positive ray parameter per pixel, inf where missed.

    The column terms (in dx, dy) and row terms (in dz) are formed once
    each; broadcasting adds them per pixel as (dx*dx + dy*dy) + dz*dz.
    The quadratic is solved in its half-b form, nb = -b/2, which drops
    the factors 2 and 4 from b, b*b - 4ac and 2a. Scaling by a power of
    two is exact away from overflow and subnormals, so the roots are
    bit-identical to those of the full form.
    """
    ox, oy, oz = eye - center
    a = (dx * dx + dy * dy) + dz * dz
    nb = -(ox * dx + oy * dy) + -(oz * dz)
    c = ox * ox + oy * oy + oz * oz - radius * radius
    disc = nb * nb - a * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (nb - sq) / a
    t_far = (nb + sq) / a
    t = np.where(t_near > _RAY_EPS, t_near, t_far)
    return np.where(hit & (t > _RAY_EPS), t, np.inf)


def _slab(d, o, half):
    """Entry and exit ray parameters of the slab |o + t*d| <= half, and
    where a ray parallel to it starts outside it."""
    parallel = d == 0.0
    inv = np.where(parallel, np.inf, 1.0 / np.where(parallel, 1.0, d))
    t1 = (-half - o) * inv
    t2 = (half - o) * inv
    lo = np.where(parallel, -np.inf, np.minimum(t1, t2))
    hi = np.where(parallel, np.inf, np.maximum(t1, t2))
    return lo, hi, parallel & ((o < -half) | (o > half))


def _intersect_box(eye, dx, dy, dz, center, half):
    """Axis-aligned cube via the slab method: each slab on its own
    direction component, combined per pixel."""
    x_lo, x_hi, x_out = _slab(dx, eye[0] - center[0], half)
    y_lo, y_hi, y_out = _slab(dy, eye[1] - center[1], half)
    z_lo, z_hi, z_out = _slab(dz, eye[2] - center[2], half)
    t_lo = np.maximum(np.maximum(x_lo, y_lo), z_lo)
    t_hi = np.minimum(np.minimum(x_hi, y_hi), z_hi)
    hit = (t_hi >= np.maximum(t_lo, _RAY_EPS)) & ~((x_out | y_out) | z_out)
    t = np.where(t_lo > _RAY_EPS, t_lo, t_hi)
    return np.where(hit & (t > _RAY_EPS), t, np.inf)


def _tan_span(p: float, q: float, r: float):
    """Range of p'/q' over the points (p', q') with q' > 0 of the disk of
    radius r at (p, q): None when there are none, unbounded if it holds 0."""
    d = math.hypot(p, q)
    if d <= r:
        return -math.inf, math.inf
    phi, half = math.atan2(p, q), math.asin(r / d)
    lo, hi = max(phi - half, -math.pi / 2), min(phi + half, math.pi / 2)
    return (math.tan(lo), math.tan(hi)) if lo < hi else None


def _screen_rect(obj: SceneObject, camera: CameraModel, eye: np.ndarray, basis):
    """(rows, cols) slices of the frame holding every pixel whose primary
    ray can hit the object, with a 1-pixel margin for roundoff; None when
    no pixel can. `eye` and `basis` are the camera's.

    The object's bounding sphere, seen along each sensor axis, is a disk
    in the plane of that axis and depth; its tangent rays bound the slice.
    """
    forward, right, up = basis
    rel = obj.center - eye
    zc = float(rel @ forward)
    r = obj.radius_or_half_extent * (math.sqrt(3.0) if obj.shape == "box" else 1.0)
    xs = _tan_span(float(rel @ right), zc, r)
    ys = _tan_span(float(rel @ up), zc, r)
    if xs is None or ys is None:
        return None
    f, w, h = camera.focal_px, camera.width, camera.height
    # pixel i's ray passes through i + 0.5; clamp before floor() sees inf
    c0 = max(math.floor(max(w / 2.0 + f * xs[0], -1.0) - 0.5) - 1, 0)
    c1 = min(math.floor(min(w / 2.0 + f * xs[1], w + 1.0) - 0.5) + 2, w)
    r0 = max(math.floor(max(h / 2.0 - f * ys[1], -1.0) - 0.5) - 1, 0)
    r1 = min(math.floor(min(h / 2.0 - f * ys[0], h + 1.0) - 0.5) + 2, h)
    return (slice(r0, r1), slice(c0, c1)) if c0 < c1 and r0 < r1 else None


def render(scene: Sequence[SceneObject], camera: CameraModel) -> IntensityFrame:
    """Log-intensity frame of the scene from the camera's pose.

    Nearest hit wins per pixel; rays that miss everything fall to the
    ground plane (z = 0) when pointing down, else to the sky band.
    Pure function of its inputs: identical calls give identical buffers.
    """
    a, b = _camera_grid(camera.width, camera.height, camera.horizontal_fov)
    c, s = math.cos(camera.yaw), math.sin(camera.yaw)
    eye, basis = camera.eye, camera.basis()
    t_best, frame = (x.copy() for x in _background(
        camera.width, camera.height, camera.horizontal_fov, float(eye[2])))

    for obj in scene:
        win = _screen_rect(obj, camera, eye, basis)
        if win is None:
            continue
        rows, cols = win
        ac = a[cols]
        # dir = forward + a*right + b*up with the pitch-0 basis written
        # out: dx, dy per column, dz per row.
        dx, dy, dz = c + ac * s, s - ac * c, b[rows, None]
        if obj.shape == "sphere":
            t = _intersect_sphere(eye, dx, dy, dz, obj.center, obj.radius_or_half_extent)
        else:
            t = _intersect_box(eye, dx, dy, dz, obj.center, obj.radius_or_half_extent)
        best = t_best[win]
        closer = t < best
        np.copyto(best, t, where=closer)
        np.copyto(frame[win], np.log(np.float64(obj.intensity)).astype(np.float32),
                  where=closer)

    return frame
