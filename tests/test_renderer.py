"""Projection and ray-cast rendering against analytic/brute-force oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from evrl import envs, renderer
from evrl.renderer import (GROUND_INTENSITY, SKY_INTENSITY, CameraModel,
                           SceneObject, project, render, vec3)

LOG_SKY = np.float32(math.log(SKY_INTENSITY))
LOG_GROUND = np.float32(math.log(GROUND_INTENSITY))


def pixel_grid(camera):
    """Full (H, W) ray direction grids (dx, dy, dz), one entry per pixel."""
    w, h = camera.width, camera.height
    f = (w / 2.0) / math.tan(camera.horizontal_fov / 2.0)
    a = (np.arange(w, dtype=np.float64) + 0.5 - w / 2.0) / f
    b = (h / 2.0 - (np.arange(h, dtype=np.float64) + 0.5)) / f
    a, b = np.tile(a, (h, 1)), np.repeat(b[:, None], w, axis=1)
    c, s = math.cos(camera.yaw), math.sin(camera.yaw)
    return c + a * s, s - a * c, b


# The per-pixel kernels as they were before the ray-cast became separable,
# frozen here so that the oracle shares no ray math with the renderer.
def pixel_sphere(eye, dx, dy, dz, center, radius):
    ox, oy, oz = eye - center
    a = dx * dx + dy * dy + dz * dz
    b = 2.0 * (ox * dx + oy * dy + oz * dz)
    c = ox * ox + oy * oy + oz * oz - radius * radius
    disc = b * b - 4.0 * a * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (-b - sq) / (2.0 * a)
    t_far = (-b + sq) / (2.0 * a)
    t = np.where(t_near > renderer._RAY_EPS, t_near, t_far)
    return np.where(hit & (t > renderer._RAY_EPS), t, np.inf)


def pixel_box(eye, dx, dy, dz, center, half):
    t_lo = np.full(dx.shape, -np.inf)
    t_hi = np.full(dx.shape, np.inf)
    outside_parallel = np.zeros(dx.shape, dtype=bool)
    for d, o in ((dx, eye[0] - center[0]), (dy, eye[1] - center[1]), (dz, eye[2] - center[2])):
        parallel = d == 0.0
        with np.errstate(divide="ignore"):
            inv = np.where(parallel, np.inf, 1.0 / np.where(parallel, 1.0, d))
        t1 = (-half - o) * inv
        t2 = (half - o) * inv
        t_lo = np.maximum(t_lo, np.where(parallel, -np.inf, np.minimum(t1, t2)))
        t_hi = np.minimum(t_hi, np.where(parallel, np.inf, np.maximum(t1, t2)))
        outside_parallel |= parallel & ((o < -half) | (o > half))
    hit = (t_hi >= np.maximum(t_lo, renderer._RAY_EPS)) & ~outside_parallel
    t = np.where(t_lo > renderer._RAY_EPS, t_lo, t_hi)
    return np.where(hit & (t > renderer._RAY_EPS), t, np.inf)


PIXEL_KERNELS = {"sphere": pixel_sphere, "box": pixel_box}
SEPARABLE_KERNELS = {"sphere": renderer._intersect_sphere, "box": renderer._intersect_box}


def full_frame_render(scene, camera):
    """Oracle: every object ray-cast against every pixel, no culling."""
    dx, dy, dz = pixel_grid(camera)
    eye = camera.eye

    below = dz < 0.0
    t_ground = np.where(below, -eye[2] / np.where(below, dz, -1.0), np.inf)
    grounded = below & (t_ground > renderer._RAY_EPS)
    t_best = np.where(grounded, t_ground, np.inf)
    intensity = np.where(grounded, GROUND_INTENSITY, SKY_INTENSITY)

    for obj in scene:
        t = PIXEL_KERNELS[obj.shape](eye, dx, dy, dz, obj.center, obj.radius_or_half_extent)
        closer = t < t_best
        intensity = np.where(closer, obj.intensity, intensity)
        t_best = np.where(closer, t, t_best)

    return np.log(intensity).astype(np.float32)


def assert_matches_full_frame(scene, camera):
    """Bit-equality with the oracle; returns the number of object pixels."""
    want = full_frame_render(scene, camera)
    assert np.array_equal(render(scene, camera), want)
    return int(sum((want == np.float32(math.log(o.intensity))).sum() for o in scene))


def pixel_center_ray(camera, px, py):
    """Unit ray direction through a pixel center, built from the basis."""
    forward, right, up = camera.basis()
    f = camera.focal_px
    a = (px + 0.5 - camera.width / 2.0) / f
    b = (camera.height / 2.0 - (py + 0.5)) / f
    d = forward + a * right + b * up
    return d / np.linalg.norm(d)


class TestProject:
    def test_optical_axis_hits_principal_pixel(self):
        cam = CameraModel()
        for depth in (0.1, 1.0, 7.3, 250.0):
            point = cam.eye + depth * cam.basis()[0]
            assert project(point, cam) == (cam.width // 2, cam.height // 2)

    def test_point_behind_camera_absent(self):
        cam = CameraModel()
        behind = cam.eye - 2.0 * cam.basis()[0]
        assert project(behind, cam) is None
        beside = cam.eye + cam.basis()[1]  # zero depth, on the camera plane
        assert project(beside, cam) is None

    def test_edge_of_frustum_lands_in_last_column(self):
        cam = CameraModel()
        forward, right, _ = cam.basis()
        offset = math.tan(cam.horizontal_fov / 2.0)
        point = cam.eye + forward + offset * right
        px, py = project(point, cam)
        assert px == cam.width - 1
        mirrored = cam.eye + forward - offset * right
        assert project(mirrored, cam)[0] == 0

    def test_outside_frustum_absent(self):
        cam = CameraModel()
        forward, right, _ = cam.basis()
        offset = 1.01 * math.tan(cam.horizontal_fov / 2.0)
        assert project(cam.eye + forward + offset * right, cam) is None

    def test_agrees_with_ray_sampler(self, rng):
        # brute force: the grid pixel whose center ray best aligns with
        # the direction to the point must sit within 1 px of the answer
        cam = CameraModel(width=64, height=48, yaw=0.3,
                          position=vec3(0.4, -0.2, 0.0))
        forward, right, up = cam.basis()
        f = cam.focal_px
        a = (np.arange(cam.width) + 0.5 - cam.width / 2.0) / f
        b = (cam.height / 2.0 - (np.arange(cam.height) + 0.5)) / f
        rays = (forward[None, None, :] + a[None, :, None] * right[None, None, :]
                + b[:, None, None] * up[None, None, :])
        rays = rays / np.linalg.norm(rays, axis=2, keepdims=True)
        tan_h = np.tan(cam.horizontal_fov / 2.0)
        tan_v = (cam.height / 2.0) / f
        checked = 0
        for _ in range(300):
            # sample directions inside the view cone at random depths
            da = float(rng.uniform(-0.95, 0.95)) * tan_h
            db = float(rng.uniform(-0.95, 0.95)) * tan_v
            depth = float(rng.uniform(0.2, 6.0))
            point = cam.eye + depth * (forward + da * right + db * up)
            hit = project(point, cam)
            if hit is None:
                continue
            checked += 1
            direction = point - cam.eye
            direction = direction / np.linalg.norm(direction)
            align = rays @ direction
            by, bx = np.unravel_index(int(np.argmax(align)), align.shape)
            assert abs(bx - hit[0]) <= 1 and abs(by - hit[1]) <= 1
        assert checked == 300

    def test_yawed_camera_keeps_axis_centered(self):
        cam = CameraModel(yaw=1.1, position=vec3(2.0, -1.0, 0.0))
        point = cam.eye + 3.0 * cam.basis()[0]
        assert project(point, cam) == (cam.width // 2, cam.height // 2)


class TestRender:
    def test_empty_scene_is_two_band_background(self):
        cam = CameraModel(width=32, height=24)
        frame = render([], cam)
        assert frame.dtype == np.float32 and frame.shape == (24, 32)
        assert set(np.unique(frame)) == {LOG_GROUND, LOG_SKY}
        # level camera: top half sky, bottom half ground
        assert (frame[: 12] == LOG_SKY).all()
        assert (frame[12:] == LOG_GROUND).all()

    def test_sphere_disk_radius_matches_analytic(self):
        cam = CameraModel()
        d, r = 2.0, 0.4
        center = cam.eye + d * cam.basis()[0]
        frame = render([SceneObject("sphere", center, r)], cam)
        obj = frame == np.float32(math.log(0.1))
        # chord widths of the rows adjacent to the horizontal midline
        expected = 2.0 * cam.focal_px * math.tan(math.asin(r / d))
        for row in (cam.height // 2 - 1, cam.height // 2):
            width = int(obj[row].sum())
            assert abs(width - expected) <= 2.0
        # silhouette is left-right symmetric about the principal column
        cols = np.flatnonzero(obj[cam.height // 2])
        assert cols[0] + cols[-1] == cam.width - 1

    def test_nearer_object_wins(self):
        cam = CameraModel(width=48, height=36)
        far = SceneObject("sphere", cam.eye + vec3(3.0, 0.0, 0.0), 0.8, intensity=0.2)
        near = SceneObject("sphere", cam.eye + vec3(1.5, 0.0, 0.0), 0.2, intensity=0.05)
        ab = render([far, near], cam)
        ba = render([near, far], cam)
        assert np.array_equal(ab, ba)
        assert ab[18, 24] == np.float32(math.log(0.05))
        # brute-force depth comparison on every contested pixel
        only_far = render([far], cam)
        only_near = render([near], cam)
        contested = (only_far == np.float32(math.log(0.2))) & \
                    (only_near == np.float32(math.log(0.05)))
        assert contested.any()
        assert (ab[contested] == np.float32(math.log(0.05))).all()

    def test_box_visible_and_behind_camera_invisible(self):
        cam = CameraModel(width=32, height=24)
        front = render([SceneObject("box", vec3(2.0, 0.0, 0.2), 0.2)], cam)
        assert (front == np.float32(math.log(0.1))).any()
        behind = render([SceneObject("box", vec3(-2.0, 0.0, 0.2), 0.2)], cam)
        assert not (behind == np.float32(math.log(0.1))).any()

    def test_deterministic(self):
        cam = CameraModel(width=40, height=30, yaw=0.2)
        scene = [SceneObject("sphere", vec3(1.5, 0.3, 0.3), 0.3),
                 SceneObject("box", vec3(2.0, -0.5, 0.25), 0.25)]
        assert np.array_equal(render(scene, cam), render(scene, cam))

    def test_translation_consistency_bit_exact(self):
        # dyadic horizontal offsets are exactly representable, so the
        # relative geometry (and thus the frame) is bit-identical
        offset = vec3(1.5, -0.25, 0.0)
        scene = [SceneObject("sphere", vec3(1.2, 0.1, 0.3), 0.3),
                 SceneObject("box", vec3(2.0, -0.6, 0.2), 0.2)]
        moved = [SceneObject(o.shape, o.center + offset, o.radius_or_half_extent,
                             o.intensity) for o in scene]
        cam = CameraModel(width=64, height=48, yaw=0.7)
        cam_moved = CameraModel(width=64, height=48, yaw=0.7,
                                position=cam.position + offset)
        assert np.array_equal(render(scene, cam), render(moved, cam_moved))

    def test_all_values_finite_and_nonpositive(self, rng):
        cam = CameraModel(width=32, height=24, yaw=float(rng.uniform(-3, 3)))
        scene = [SceneObject("sphere", vec3(*rng.uniform(-3, 3, 3)), 0.4),
                 SceneObject("box", vec3(*rng.uniform(-3, 3, 3)), 0.3)]
        frame = render(scene, cam)
        assert np.isfinite(frame).all() and (frame <= 0.0).all()

    def test_camera_inside_sphere_sees_it_everywhere(self):
        # radius below mount height: the shell stays above the ground,
        # so every ray exits through the sphere surface first
        cam = CameraModel(width=16, height=12)
        frame = render([SceneObject("sphere", cam.eye, 0.1)], cam)
        assert (frame == np.float32(math.log(0.1))).all()


class TestValidation:
    def test_camera_fov_bounds(self):
        with pytest.raises(ValueError):
            CameraModel(horizontal_fov=0.0)
        with pytest.raises(ValueError):
            CameraModel(horizontal_fov=math.pi)

    def test_scene_object_validation(self):
        with pytest.raises(ValueError):
            SceneObject("cone", vec3(1, 0, 0), 0.5)
        with pytest.raises(ValueError):
            SceneObject("sphere", vec3(1, 0, 0), 0.0)
        with pytest.raises(ValueError):
            SceneObject("sphere", vec3(1, 0, 0), 0.5, intensity=0.0)


class TestCulling:
    """The culled renderer against the full-frame oracle."""

    @pytest.mark.parametrize("size", [(240, 180), (64, 48)])
    @pytest.mark.parametrize("env_cls", [envs.AvoidanceEnv, envs.TrackingEnv])
    def test_seeded_episodes_match(self, monkeypatch, env_cls, size):
        checked = []

        def checked_render(scene, camera):
            frame = render(scene, camera)
            assert np.array_equal(frame, full_frame_render(scene, camera))
            checked.append(1)
            return frame

        monkeypatch.setattr(envs, "render", checked_render)
        for seed in range(2):
            env = env_cls(envs.EnvConfig(sensor=CameraModel(*size)))
            env.reset(seed=seed)
            pol = np.random.default_rng(seed)
            while not env.step(int(pol.integers(env.action_count))).done:
                pass
        assert len(checked) > 100

    def test_sphere_straddling_camera_plane(self):
        cam = CameraModel(width=64, height=48, yaw=0.4, position=vec3(0.0, 0.0, 1.0))
        forward, right, up = cam.basis()
        for side in (right, -right, up, -up):
            scene = [SceneObject("sphere", cam.eye + 0.1 * forward + 0.3 * side, 0.25)]
            assert assert_matches_full_frame(scene, cam) > 0
        # the eye inside a box's bounding sphere but outside the box
        box = SceneObject("box", cam.eye + 0.12 * forward + 0.05 * right, 0.1)
        assert assert_matches_full_frame([box], cam) > 0

    def test_objects_behind_camera(self):
        cam = CameraModel(width=64, height=48, yaw=-2.0, position=vec3(1.0, 0.5, 0.0))
        forward, right, _ = cam.basis()
        scene = [SceneObject("sphere", cam.eye - 2.0 * forward, 0.5),
                 SceneObject("box", cam.eye - 0.3 * forward + 0.2 * right, 0.2),
                 SceneObject("sphere", cam.eye - 0.25 * forward, 0.249)]
        assert assert_matches_full_frame(scene, cam) == 0

    def test_objects_partly_off_each_edge(self):
        cam = CameraModel(width=64, height=48, yaw=0.9, position=vec3(0.0, 0.0, 2.0))
        forward, right, up = cam.basis()
        depth = 2.0
        half_w = depth * math.tan(cam.horizontal_fov / 2.0)
        half_h = half_w * cam.height / cam.width
        for shape in ("sphere", "box"):
            for offset in (half_w * right, -half_w * right, half_h * up, -half_h * up):
                obj = SceneObject(shape, cam.eye + depth * forward + offset, 0.2)
                count = assert_matches_full_frame([obj], cam)
                assert 0 < count < cam.width * cam.height

    def test_box_in_each_corner(self):
        cam = CameraModel(width=64, height=48, yaw=0.3, position=vec3(0.2, -0.1, 2.0))
        forward, right, up = cam.basis()
        depth = 3.0
        half_w = depth * math.tan(cam.horizontal_fov / 2.0)
        half_h = half_w * cam.height / cam.width
        for sx in (-1, 1):
            for sy in (-1, 1):
                center = cam.eye + depth * forward + 0.95 * (sx * half_w * right + sy * half_h * up)
                assert assert_matches_full_frame([SceneObject("box", center, 0.15)], cam) > 0

    @pytest.mark.parametrize("fov_deg", [20.0, 120.0, 170.0])
    def test_non_default_fov(self, fov_deg):
        cam = CameraModel(width=64, height=48, horizontal_fov=math.radians(fov_deg), yaw=0.2)
        scene = envs.default_scenery("tracking") + [
            SceneObject("sphere", vec3(1.5, 0.2, 0.3), 0.3),
            SceneObject("sphere", vec3(0.5, 1.0, 0.25), 0.25)]
        assert assert_matches_full_frame(scene, cam) > 0

    def test_random_scenes_at_odd_size(self):
        rng = np.random.default_rng(2024)
        visible = 0
        for _ in range(300):
            cam = CameraModel(width=61, height=37, yaw=float(rng.uniform(-math.pi, math.pi)),
                              position=vec3(*rng.uniform(-1.0, 1.0, 2), 0.0),
                              horizontal_fov=float(rng.uniform(0.3, 2.8)))
            scene = [SceneObject(str(rng.choice(["sphere", "box"])),
                                 cam.eye + rng.uniform(-2.5, 2.5, 3),
                                 float(rng.uniform(0.02, 0.8)),
                                 intensity=float(rng.uniform(0.05, 1.0)))
                     for _ in range(int(rng.integers(1, 5)))]
            visible += assert_matches_full_frame(scene, cam) > 0
        assert visible > 100

    def test_background_cache_is_bounded(self):
        cam = CameraModel(width=16, height=12)
        for i in range(20):
            render([], replace(cam, mount_height=0.1 + 0.01 * i))
        for cached in (renderer._background, renderer._camera_grid):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize <= 8
        # shared entries cannot be scribbled on
        for shared in (*renderer._background(16, 12, cam.horizontal_fov, 0.15),
                       *renderer._camera_grid(16, 12, cam.horizontal_fov)):
            assert not shared.flags.writeable


class TestSeparableKernels:
    """The kernels on per-column (dx, dy) and per-row (dz) vectors against
    the frozen per-pixel kernels on full grids, bit for bit."""

    @staticmethod
    def assert_kernel_matches(obj, camera, win=np.s_[:, :]):
        dx, dy, dz = (g[win] for g in pixel_grid(camera))
        # pitch 0: every row of dx and dy, and every column of dz, is the same
        assert (dx == dx[:1]).all() and (dy == dy[:1]).all() and (dz == dz[:, :1]).all()
        args = (camera.eye, obj.center, obj.radius_or_half_extent)
        want = PIXEL_KERNELS[obj.shape](args[0], dx, dy, dz, *args[1:])
        got = SEPARABLE_KERNELS[obj.shape](args[0], dx[0], dy[0], dz[:, :1], *args[1:])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        return int(np.isfinite(want).sum())

    def test_random_poses_and_objects(self):
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(200):
            w, h = (int(n) for n in rng.integers(4, 90, 2))
            cam = CameraModel(width=w, height=h, yaw=float(rng.uniform(-math.pi, math.pi)),
                              position=vec3(*rng.uniform(-1.0, 1.0, 2), 0.0),
                              horizontal_fov=float(rng.uniform(0.3, 2.8)),
                              mount_height=float(rng.uniform(0.05, 2.0)))
            r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            win = np.s_[r0:int(rng.integers(r0 + 1, h + 1)), c0:int(rng.integers(c0 + 1, w + 1))]
            for shape in ("sphere", "box"):
                obj = SceneObject(shape, cam.eye + rng.uniform(-2.0, 2.0, 3),
                                  float(rng.uniform(0.05, 1.0)))
                hits += self.assert_kernel_matches(obj, cam) > 0
                self.assert_kernel_matches(obj, cam, win)
        assert hits > 100

    @pytest.mark.parametrize("shape", ["sphere", "box"])
    def test_horizon_row_of_odd_height(self, shape):
        cam = CameraModel(width=40, height=31, yaw=0.3)
        assert (pixel_grid(cam)[2] == 0.0).any()
        forward, right, _ = cam.basis()
        for z in (0.0, 0.1, -0.1):
            obj = SceneObject(shape, cam.eye + 1.5 * forward + 0.2 * right + vec3(0, 0, z), 0.3)
            assert self.assert_kernel_matches(obj, cam) > 0

    @pytest.mark.parametrize("shape", ["sphere", "box"])
    def test_centre_column_of_odd_width_at_yaw_zero(self, shape):
        signs = set()
        for yaw in (0.0, -0.0):
            cam = CameraModel(width=41, height=30, yaw=yaw)
            dy = pixel_grid(cam)[1][0]
            assert dy[20] == 0.0
            signs.add(bool(np.signbit(dy[20])))
            for y in (0.0, 0.15, -0.15):
                obj = SceneObject(shape, cam.eye + vec3(1.5, y, 0.05), 0.3)
                assert self.assert_kernel_matches(obj, cam) > 0
        assert signs == {False, True}  # both +0.0 and -0.0 were cast

    def test_eye_inside_box(self):
        for yaw in (0.0, 0.7, -2.2):
            cam = CameraModel(width=33, height=25, yaw=yaw, position=vec3(0.3, -0.2, 0.0))
            for offset in (vec3(0, 0, 0), vec3(0.05, -0.03, 0.02)):
                box = SceneObject("box", cam.eye + offset, 0.1)
                assert self.assert_kernel_matches(box, cam) == cam.width * cam.height

    def test_spheres_straddling_camera_plane(self):
        cam = CameraModel(width=64, height=47, yaw=0.4, position=vec3(0.0, 0.0, 1.0))
        forward, right, up = cam.basis()
        for side in (right, -right, up, -up):
            hits = [self.assert_kernel_matches(
                SceneObject("sphere", cam.eye + depth * forward + 0.3 * side, 0.25), cam)
                for depth in (0.1, 0.0, -0.1)]
            assert sum(hits) > 0
