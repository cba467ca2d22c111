"""Binary/CSV event streams, checkpoints and PGM dumps round-trip exactly."""

import struct

import numpy as np
import pytest

from evrl.eventio import (FormatError, load_checkpoint, read_events,
                          read_events_csv, save_checkpoint, write_events,
                          write_events_csv, write_frame_pgm,
                          write_intensity_pgm)
from evrl.events import EVENT_DTYPE, events_array
from evrl.qnet import NetworkConfig, forward, init_params


def random_stream(rng, count, width, height, t_span=10 ** 7):
    ev = np.zeros(count, dtype=EVENT_DTYPE)
    ev["t"] = np.sort(rng.integers(0, t_span, size=count).astype(np.uint64))
    ev["x"] = rng.integers(0, width, size=count)
    ev["y"] = rng.integers(0, height, size=count)
    ev["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), size=count)
    return ev


def parse_pgm(path):
    """Independent minimal P5 reader used as the oracle."""
    data = path.read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    assert fields[0] == b"P5"
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    assert maxval == 255
    pixels = np.frombuffer(data[pos:], dtype=np.uint8)
    assert pixels.size == w * h
    return pixels.reshape(h, w)


class TestEvt1:
    def test_round_trip_random_stream(self, rng, tmp_path):
        path = tmp_path / "s.evt1"
        ev = random_stream(rng, 100_000, 240, 180)
        write_events(path, ev, 240, 180)
        back, width, height = read_events(path)
        assert (width, height) == (240, 180)
        assert np.array_equal(back, ev)
        assert back.dtype == EVENT_DTYPE

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "e.evt1"
        write_events(path, np.zeros(0, dtype=EVENT_DTYPE), 64, 48)
        back, width, height = read_events(path)
        assert len(back) == 0
        assert (width, height) == (64, 48)

    def test_rewrite_is_bit_identical(self, rng, tmp_path):
        ev = random_stream(rng, 5000, 64, 48)
        p1, p2 = tmp_path / "a.evt1", tmp_path / "b.evt1"
        write_events(p1, ev, 64, 48)
        back, w, h = read_events(p1)
        write_events(p2, back, w, h)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_matches_layout(self, rng, tmp_path):
        # 18-byte header (magic, version, w, h, count) + 16 bytes per event
        path = tmp_path / "s.evt1"
        ev = random_stream(rng, 7, 32, 24)
        write_events(path, ev, 32, 24)
        assert path.stat().st_size == 18 + 7 * 16

    def test_unsorted_write_rejected(self, tmp_path):
        ev = np.zeros(2, dtype=EVENT_DTYPE)
        ev["t"] = [10, 5]
        ev["p"] = 1
        with pytest.raises(ValueError):
            write_events(tmp_path / "x.evt1", ev, 32, 24)

    def test_packed_input_writes_the_same_bytes(self, rng, tmp_path):
        ev = random_stream(rng, 300, 32, 24)
        packed = np.concatenate([ev[:100], ev[100:]])
        packed = packed.astype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
        write_events(tmp_path / "a.evt1", ev, 32, 24)
        write_events(tmp_path / "b.evt1", packed, 32, 24)
        data = (tmp_path / "b.evt1").read_bytes()
        assert data == (tmp_path / "a.evt1").read_bytes()
        header = struct.pack("<4sHHHQ", b"EVT1", 1, 32, 24, 300)
        assert data == header + ev.tobytes()

    def test_timestamps_past_2_63_stay_sorted(self, tmp_path):
        ev = np.zeros(3, dtype=EVENT_DTYPE)
        ev["t"] = [0, 2 ** 63, 2 ** 64 - 1]  # steps of 2**63 and more
        ev["p"] = 1
        write_events(tmp_path / "x.evt1", ev, 32, 24)
        back, _, _ = read_events(tmp_path / "x.evt1")
        assert back.tobytes() == ev.tobytes()
        write_events_csv(tmp_path / "x.csv", ev)
        assert np.array_equal(read_events_csv(tmp_path / "x.csv")["t"], ev["t"])

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        ev = np.zeros(1, dtype=EVENT_DTYPE)
        ev["x"] = 32
        ev["p"] = 1
        with pytest.raises(ValueError):
            write_events(tmp_path / "x.evt1", ev, 32, 24)

    def test_zero_polarity_write_rejected(self, tmp_path):
        # the reader refuses p = 0 (record 1 at offset 34), so the writer must
        path = tmp_path / "x.evt1"
        with pytest.raises(ValueError, match="event 1: polarity"):
            write_events(path, events_array([(1, 0, 0, 1), (2, 0, 0, 0)]), 32, 24)
        assert not path.exists()

    def test_pad_bytes_written_as_zero(self, rng, tmp_path):
        ev = random_stream(rng, 50, 32, 24)
        ev.view(np.uint8).reshape(-1, 16)[:, 13:] = 0xFF
        path = tmp_path / "x.evt1"
        write_events(path, ev, 32, 24)
        records = np.frombuffer(path.read_bytes()[18:], dtype=np.uint8).reshape(-1, 16)
        assert not records[:, 13:].any()
        assert np.array_equal(read_events(path)[0], ev)  # fields compare, pads do not

    def test_truncated_body_reports_offset(self, rng, tmp_path):
        path = tmp_path / "s.evt1"
        write_events(path, random_stream(rng, 10, 32, 24), 32, 24)
        clipped = path.read_bytes()[:16 + 10 * 16 - 5]
        bad = tmp_path / "clip.evt1"
        bad.write_bytes(clipped)
        with pytest.raises(FormatError, match="offset"):
            read_events(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "h.evt1"
        bad.write_bytes(b"EVT1\x00")
        with pytest.raises(FormatError, match="header"):
            read_events(bad)

    def test_bad_magic_and_version(self, rng, tmp_path):
        path = tmp_path / "s.evt1"
        write_events(path, random_stream(rng, 3, 32, 24), 32, 24)
        raw = bytearray(path.read_bytes())
        bad = tmp_path / "m.evt1"
        bad.write_bytes(b"NOPE" + bytes(raw[4:]))
        with pytest.raises(FormatError, match="magic"):
            read_events(bad)
        raw2 = bytearray(raw)
        raw2[4:6] = struct.pack("<H", 999)
        bad.write_bytes(bytes(raw2))
        with pytest.raises(FormatError, match="version"):
            read_events(bad)

    def test_corrupt_record_polarity(self, rng, tmp_path):
        path = tmp_path / "s.evt1"
        write_events(path, random_stream(rng, 4, 32, 24), 32, 24)
        raw = bytearray(path.read_bytes())
        # polarity byte of record 2 lives at 18 + 2*16 + 12
        raw[18 + 2 * 16 + 12] = 7
        bad = tmp_path / "p.evt1"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="record 2"):
            read_events(bad)


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        path = tmp_path / "s.csv"
        ev = random_stream(rng, 2000, 64, 48)
        write_events_csv(path, ev)
        back = read_events_csv(path)
        assert np.array_equal(back, ev)

    def test_layout_is_t_x_y_p(self, tmp_path):
        ev = events_array([(5, 3, 2, -1)])
        path = tmp_path / "one.csv"
        write_events_csv(path, ev)
        assert path.read_text() == "5,3,2,-1\n"

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0,0,1\n2,0,0\n")
        with pytest.raises(FormatError, match="line 2"):
            read_events_csv(path)

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0,0,2\n")
        with pytest.raises(FormatError, match="polarity"):
            read_events_csv(path)

    def test_zero_polarity_write_rejected(self, tmp_path):
        # the reader refuses p = 0 (line 2), so the writer must
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="event 1: polarity"):
            write_events_csv(path, events_array([(1, 0, 0, 1), (2, 0, 0, 0)]))
        assert not path.exists()

    def test_out_of_range_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for line in ("-1,0,0,1", f"{2 ** 64},0,0,1", "1,65536,0,1", "1,0,-1,1"):
            path.write_text(f"\n{line}\n")
            with pytest.raises(FormatError, match="line 2: field out of range"):
                read_events_csv(path)

    def test_descending_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5,0,0,1\n4,0,0,1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_events_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(read_events_csv(path)) == 0


class TestCheckpoint:
    def test_forward_bit_exact_after_reload(self, rng, tmp_path):
        cfg = NetworkConfig(height=48, width=64, action_count=2)
        params = init_params(cfg, rng)
        params.bn1_mean += rng.normal(0, 0.1, params.bn1_mean.shape)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, step=1234)
        loaded, step = load_checkpoint(path)
        assert step == 1234
        assert loaded.cfg == cfg
        for _ in range(10):
            x = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(48, 64))
            assert np.array_equal(forward(params, x), forward(loaded, x))

    @pytest.mark.parametrize("cfg", [
        NetworkConfig(height=24, width=32, action_count=3),
        NetworkConfig(height=24, width=32, action_count=3, conv_channels=(3, 5),
                      kernel=5, strides=(1, 2), padding=2, fc_width=7),
    ], ids=["default", "wide-kernel"])
    def test_all_arrays_bit_identical(self, rng, tmp_path, cfg):
        params = init_params(cfg, rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, step=7)
        loaded, _ = load_checkpoint(path)
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b), name

    def test_expect_config_mismatch(self, rng, tmp_path):
        cfg = NetworkConfig(height=48, width=64, action_count=2)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(cfg, rng), step=0)
        other = NetworkConfig(height=180, width=240, action_count=2)
        with pytest.raises(FormatError, match="config"):
            load_checkpoint(path, expect=other)
        loaded, _ = load_checkpoint(path, expect=cfg)
        assert loaded.cfg == cfg

    def test_corrupted_magic(self, rng, tmp_path):
        cfg = NetworkConfig(height=24, width=32, action_count=2)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(cfg, rng), step=0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_truncated_array_names_field(self, rng, tmp_path):
        cfg = NetworkConfig(height=24, width=32, action_count=2)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(cfg, rng), step=0)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes()[:-10])
        # ten bytes swallow fc2_b entirely and clip fc2_w by two
        with pytest.raises(FormatError, match="truncated array 'fc2_w'"):
            load_checkpoint(bad)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        cfg = NetworkConfig(height=24, width=32, action_count=2)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(cfg, rng), step=0)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(bad)

    def test_save_is_deterministic(self, rng, tmp_path):
        cfg = NetworkConfig(height=24, width=32, action_count=2)
        params = init_params(cfg, rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, step=3)
        save_checkpoint(p2, params, step=3)
        assert p1.read_bytes() == p2.read_bytes()


class TestPgm:
    def test_zero_frame_is_mid_gray(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_frame_pgm(np.zeros((4, 6), dtype=np.int8), path)
        img = parse_pgm(path)
        assert img.shape == (4, 6)
        assert np.all(img == 128)

    def test_polarity_mapping_and_position(self, tmp_path):
        frame = np.zeros((5, 7), dtype=np.int8)
        frame[2, 3] = 1
        frame[4, 0] = -1
        path = tmp_path / "f.pgm"
        write_frame_pgm(frame, path)
        img = parse_pgm(path)
        assert img[2, 3] == 255
        assert img[4, 0] == 0
        assert (img == 128).sum() == 5 * 7 - 2

    def test_ternary_recovery(self, rng, tmp_path):
        frame = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(24, 32))
        path = tmp_path / "t.pgm"
        write_frame_pgm(frame, path)
        img = parse_pgm(path)
        back = np.zeros_like(frame)
        back[img == 255] = 1
        back[img == 0] = -1
        assert np.array_equal(back, frame)

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_frame_pgm(np.full((2, 2), 3, dtype=np.int8), tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            write_frame_pgm(np.zeros((2, 2, 2), dtype=np.int8), tmp_path / "x.pgm")

    def test_intensity_rounding(self, tmp_path):
        img = np.array([[0.0, 0.5, 1.0], [0.8, 0.4, 0.1]])
        path = tmp_path / "i.pgm"
        write_intensity_pgm(img, path)
        got = parse_pgm(path)
        want = np.rint(img * 255).astype(np.uint8)
        assert np.array_equal(got, want)

    def test_intensity_clipped(self, tmp_path):
        img = np.array([[-0.2, 1.4]])
        path = tmp_path / "c.pgm"
        write_intensity_pgm(img, path)
        got = parse_pgm(path)
        assert got[0, 0] == 0 and got[0, 1] == 255
