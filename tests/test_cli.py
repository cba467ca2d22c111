"""End-to-end command line behavior, in-process via main(argv)."""

import json

import numpy as np
import pytest

from evrl.cli import main, record_episode
from evrl.envs import AvoidanceEnv, EnvConfig
from evrl.eventio import load_checkpoint, read_events
from evrl.events import EVENT_DTYPE
from evrl.renderer import CameraModel

SMALL = ["--width", "32", "--height", "24"]


def train_args(tmp_path, tag, extra=()):
    out = tmp_path / f"{tag}.ckpt"
    log = tmp_path / f"{tag}.jsonl"
    argv = ["train", "--task", "avoidance", *SMALL, "--episodes", "2",
            "--batch-size", "4", "--warmup", "8", "--eval-every", "0",
            "--out", str(out), "--log", str(log), *extra]
    return argv, out, log


class TestParsing:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "avoidance"])  # no --out
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "x.ckpt"])  # no --task
        assert exc.value.code == 2

    def test_bad_task_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--task", "frisbee", "--random"])
        assert exc.value.code == 2

    def test_serve_bind_validation(self, tmp_path, capsys):
        ckpt = tmp_path / "x.ckpt"
        assert main(["serve", "--bind", "localhost", "--checkpoint", str(ckpt)]) == 2
        assert main(["serve", "--bind", "host:notaport", "--checkpoint", str(ckpt)]) == 2
        assert "host:port" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--task", "avoidance", *SMALL],
    ["record", "--task", "avoidance", *SMALL, "--out", "{tmp}/r"],
    ["render-demo", "--task", "avoidance", *SMALL, "--out-dir", "{tmp}/d"],
    ["serve", "--bind", "127.0.0.1:0"],
])
def test_corrupt_checkpoint_is_a_clean_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(np.random.default_rng(3).bytes(100))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--checkpoint", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: bad magic" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--stride1", "--stride2"])
def test_zero_stride_is_a_clean_error(tmp_path, capsys, flag):
    argv, out, _ = train_args(tmp_path, "s0", [flag, "0"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "strides" in err and "Traceback" not in err
    assert not out.exists()


def test_zero_stride_checkpoint_header_is_a_clean_error(tmp_path, capsys):
    argv, out, _ = train_args(tmp_path, "hdr", ["--episodes", "0"])
    assert main(argv) == 0
    raw = bytearray(out.read_bytes())
    raw[18:20] = b"\x00\x00"  # stride1, the seventh u16 config word
    out.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--task", "avoidance", *SMALL, "--checkpoint", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: invalid embedded config" in err and "Traceback" not in err


class TestTrain:
    def test_zero_episodes_still_writes_checkpoint(self, tmp_path, capsys):
        argv, out, _ = train_args(tmp_path, "z", extra=["--episodes", "0"])
        assert main(argv) == 0
        params, step = load_checkpoint(out)
        assert step == 0
        assert (params.cfg.width, params.cfg.height) == (32, 24)
        assert "trained 0 episodes" in capsys.readouterr().out

    def test_seeded_runs_reproduce(self, tmp_path, capsys):
        argv1, out1, log1 = train_args(tmp_path, "a")
        argv2, out2, log2 = train_args(tmp_path, "b")
        assert main(argv1) == 0
        assert main(argv2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines1 = log1.read_text().splitlines()
        lines2 = log2.read_text().splitlines()
        assert len(lines1) == len(lines2) == 2
        for la, lb in zip(lines1, lines2):
            da, db = json.loads(la), json.loads(lb)
            da.pop("wall_clock_per_step")
            db.pop("wall_clock_per_step")
            assert da == db

    def test_checkpoint_step_equals_logged_env_steps(self, tmp_path):
        argv, out, log = train_args(tmp_path, "s")
        assert main(argv) == 0
        _, step = load_checkpoint(out)
        logged = [json.loads(l) for l in log.read_text().splitlines()]
        assert step == sum(l["steps"] for l in logged)


class TestEval:
    def test_random_policy_summary(self, capsys):
        rc = main(["eval", "--task", "avoidance", *SMALL, "--episodes", "3",
                   "--random"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "episodes 3" in out
        assert "R_sum mean" in out
        assert "collisions" in out

    def test_tracking_reports_bearing(self, capsys):
        rc = main(["eval", "--task", "tracking", *SMALL, "--episodes", "2",
                   "--random"])
        assert rc == 0
        assert "mean|theta|" in capsys.readouterr().out

    def test_checkpoint_required_without_random(self, capsys):
        rc = main(["eval", "--task", "avoidance", *SMALL])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["eval", "--task", "avoidance", *SMALL,
                   "--checkpoint", str(tmp_path / "absent.ckpt")])
        assert rc == 1

    def test_greedy_eval_runs_from_checkpoint(self, tmp_path, capsys):
        argv, out, _ = train_args(tmp_path, "g", extra=["--episodes", "0"])
        assert main(argv) == 0
        capsys.readouterr()
        rc = main(["eval", "--task", "avoidance", *SMALL, "--episodes", "2",
                   "--checkpoint", str(out)])
        assert rc == 0
        assert "episodes 2" in capsys.readouterr().out


class TestRecord:
    def test_streams_and_sidecars(self, tmp_path):
        stem = tmp_path / "run"
        rc = main(["record", "--task", "avoidance", *SMALL, "--episodes", "2",
                   "--max-steps", "10", "--out", str(stem)])
        assert rc == 0
        dt_us = 10_000
        for ep in range(2):
            evt = tmp_path / f"run.ep{ep}.evt1"
            sidecar = tmp_path / f"run.ep{ep}.jsonl"
            assert evt.exists() and sidecar.exists()
            events, width, height = read_events(evt)
            assert (width, height) == (32, 24)
            lines = [json.loads(l) for l in sidecar.read_text().splitlines()]
            meta, records = lines[0], lines[1:]
            assert meta["type"] == "meta"
            assert meta["dt_us"] == dt_us
            assert len(records) == 10
            # events fall in their declared windows and counts agree
            counts = np.zeros(len(records) + 1, dtype=int)
            for t in events["t"]:
                counts[int(t) // dt_us + 1] += 1
            for rec in records:
                assert counts[rec["step"]] == rec["events"]
            # per-window actions are legal
            assert all(0 <= r["action"] < 2 for r in records)

    def test_dotted_stems_keep_their_names(self, tmp_path):
        """--out rec/a.greedy writes rec/a.greedy.ep0.*, so a second run with
        --out rec/a.random leaves the first run's files alone."""
        for tag in ("greedy", "random"):
            assert main(["record", "--task", "avoidance", *SMALL, "--episodes", "1",
                         "--max-steps", "5", "--out", str(tmp_path / f"a.{tag}")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.greedy.ep0.evt1", "a.greedy.ep0.jsonl",
            "a.random.ep0.evt1", "a.random.ep0.jsonl"]

    def test_first_event_pinned_to_grid(self, tmp_path):
        stem = tmp_path / "pin"
        assert main(["record", "--task", "avoidance", *SMALL, "--episodes", "1",
                     "--max-steps", "20", "--out", str(stem)]) == 0
        events, _, _ = read_events(tmp_path / "pin.ep0.evt1")
        if len(events):
            assert int(events["t"][0]) % 10_000 == 0

    def test_stream_matches_row_by_row_build(self):
        """The recorded stream is EVENT_DTYPE and byte for byte what filling
        one event row at a time from the same rollout gives."""
        dt_us = 10_000

        def env():
            return AvoidanceEnv(EnvConfig(sensor=CameraModel(width=32, height=24),
                                          max_steps=15, seed=4))

        stream, _ = record_episode(env(), lambda obs: 1, np.random.default_rng(5),
                                   dt_us, seed=3)
        assert stream.dtype == EVENT_DTYPE

        e = env()
        e.reset(seed=3)
        frames, done = [], False
        while not done:
            result = e.step(1)
            frames.append(result.observation)
            done = result.done
        stamp = np.random.default_rng(5)
        rows = []
        for step, frame in enumerate(frames, start=1):
            ys, xs = np.nonzero(frame)
            if len(ys):
                start = (step - 1) * dt_us
                ts = np.sort(stamp.integers(start, start + dt_us, size=len(ys)))
                rows += zip(ts.tolist(), xs.tolist(), ys.tolist(), frame[ys, xs].tolist())
        want = np.zeros(len(rows), dtype=EVENT_DTYPE)
        for i, row in enumerate(rows):
            want[i] = row
        assert len(want) > 0
        want["t"][0] = want["t"][0] // dt_us * dt_us
        assert stream.tobytes() == want.tobytes()

    def test_checkpoint_resolution_guard(self, tmp_path, capsys):
        argv, out, _ = train_args(tmp_path, "r", extra=["--episodes", "0"])
        assert main(argv) == 0
        rc = main(["record", "--task", "avoidance", "--width", "64",
                   "--height", "48", "--checkpoint", str(out),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "resolution" in capsys.readouterr().err

    def test_logged_actions_are_the_actions_taken(self, monkeypatch):
        """Window n logs the action env.step took at step n+1; the policy
        is asked once per step and once more for the last window."""
        env = AvoidanceEnv(EnvConfig(sensor=CameraModel(width=32, height=24),
                                     max_steps=37, seed=2))
        taken = []
        step = env.step
        monkeypatch.setattr(env, "step", lambda a: taken.append(a) or step(a))
        prng = np.random.default_rng(6)
        calls = []

        def policy(obs):
            calls.append(obs)
            return int(prng.integers(0, 2))

        _, records = record_episode(env, policy, np.random.default_rng(7),
                                    10_000, seed=1)
        assert len(taken) > 10
        assert len(records) == len(taken)
        assert [r["action"] for r in records[:-1]] == taken[1:]
        assert len(calls) == len(taken) + 1


class TestRenderDemo:
    def test_writes_one_pgm_per_step(self, tmp_path):
        out_dir = tmp_path / "frames"
        rc = main(["render-demo", "--task", "tracking", *SMALL,
                   "--max-steps", "5", "--out-dir", str(out_dir)])
        assert rc == 0
        files = sorted(out_dir.glob("frame_*.pgm"))
        assert len(files) == 5
        body = files[0].read_bytes()
        assert body.startswith(b"P5\n32 24\n255\n")
        pixels = np.frombuffer(body.rsplit(b"255\n", 1)[1], dtype=np.uint8)
        assert set(np.unique(pixels)) <= {0, 128, 255}

    def test_checkpoint_resolution_guard(self, tmp_path, capsys):
        argv, out, _ = train_args(tmp_path, "r", extra=["--episodes", "0"])
        assert main(argv) == 0
        rc = main(["render-demo", "--task", "avoidance", "--width", "64",
                   "--height", "48", "--checkpoint", str(out),
                   "--out-dir", str(tmp_path / "frames")])
        assert rc == 2
        assert "resolution" in capsys.readouterr().err


class TestBench:
    def test_reports_stage_percentiles(self, capsys):
        rc = main(["bench", "--task", "avoidance", *SMALL, "--steps", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "32x24, 5 steps" in out
        stats = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("step", "forward", "total"):
                stats[parts[0]] = (float(parts[2]), float(parts[4]), float(parts[6]))
        assert set(stats) == {"step", "forward", "total"}
        for p50, p90, p99 in stats.values():
            assert 0.0 <= p50 <= p90 <= p99

    def test_steps_run_through_env_step_across_episodes(self, monkeypatch, capsys):
        calls = {"step": 0, "reset": 0}
        step, reset = AvoidanceEnv.step, AvoidanceEnv.reset

        def counting_step(self, action):
            calls["step"] += 1
            return step(self, action)

        def counting_reset(self, seed=None):
            calls["reset"] += 1
            return reset(self, seed)

        monkeypatch.setattr(AvoidanceEnv, "step", counting_step)
        monkeypatch.setattr(AvoidanceEnv, "reset", counting_reset)
        assert main(["bench", "--task", "avoidance", *SMALL, "--max-steps", "3",
                     "--steps", "7"]) == 0
        # 3 + 3 + 1 steps; no sphere drops before step 10, so no collision
        assert calls == {"step": 7, "reset": 3}

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_no_steps_is_usage_error(self, capsys, steps):
        assert main(["bench", "--task", "avoidance", *SMALL, "--steps", steps]) == 2
        assert "--steps must be >= 1" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 7, "width": 32, "height": 24}))
        stem = tmp_path / "c"
        assert main(["record", "--task", "avoidance", "--config", str(cfg),
                     "--out", str(stem)]) == 0
        lines = (tmp_path / "c.ep0.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 7  # meta + one record per step

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 7, "width": 32, "height": 24}))
        stem = tmp_path / "d"
        assert main(["record", "--task", "avoidance", "--config", str(cfg),
                     "--max-steps", "3", "--out", str(stem)]) == 0
        lines = (tmp_path / "d.ep0.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steppes": 7}))
        with pytest.raises(SystemExit) as exc:
            main(["record", "--task", "avoidance", "--config", str(cfg),
                  "--out", "x"])
        assert exc.value.code == 2

    def test_unreadable_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["record", "--task", "avoidance",
                  "--config", str(tmp_path / "none.json"), "--out", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [
        ("episodes", 1.5), ("max_steps", 2.5), ("no_scenery", "no"), ("loss", "l1")])
    def test_config_value_gets_its_flags_checks(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        if key == "loss":
            argv = train_args(tmp_path, "c")[0]
        else:
            argv = ["record", "--task", "avoidance", *SMALL, "--out", str(tmp_path / "c")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert f"--config: {key}" in capsys.readouterr().err
