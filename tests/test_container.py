import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scivid import container as ct
from scivid.forward_model import Measurement, VideoCube
from scivid.network import NetworkConfig, build_network


class TestTensorContainer:
    def test_header_layout(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf = ct.tensor_to_bytes(arr)
        assert buf[:4] == b"TENB"
        assert buf[4] == 0x01          # version
        assert buf[5] == 0             # f32
        assert buf[6] == 2             # ndim
        assert buf[7:11] == (2).to_bytes(4, "little")
        assert buf[11:15] == (3).to_bytes(4, "little")
        assert buf[15:] == arr.astype("<f4").tobytes()

    def test_dtype_codes(self):
        for arr, code in ((np.zeros(2, np.float32), 0),
                          (np.zeros(2, np.float64), 1),
                          (np.zeros(2, np.uint8), 2)):
            assert ct.tensor_to_bytes(arr)[5] == code

    def test_unsupported_dtype(self):
        with pytest.raises(ct.FormatError, match="dtype"):
            ct.tensor_to_bytes(np.zeros(2, dtype=np.int32))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), ndim=st.integers(0, 4),
           dtype=st.sampled_from([np.float32, np.float64, np.uint8]))
    def test_roundtrip_bit_exact(self, seed, ndim, dtype):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 5, size=ndim))
        if dtype == np.uint8:
            arr = rng.integers(0, 256, size=shape).astype(dtype)
        else:
            arr = rng.standard_normal(shape).astype(dtype)
        back, used = ct.tensor_from_bytes(ct.tensor_to_bytes(arr))
        assert back.dtype == np.dtype(dtype).newbyteorder("<")
        assert back.shape == arr.shape
        assert np.array_equal(back, arr, equal_nan=True)

    def test_file_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float64)
        path = tmp_path / "t.tenb"
        ct.write_tensor(path, arr)
        assert np.array_equal(ct.read_tensor(path), arr)

    def test_bad_magic(self):
        with pytest.raises(ct.FormatError, match="magic"):
            ct.tensor_from_bytes(b"NOPE" + bytes(20))

    def test_truncated_payload(self):
        buf = ct.tensor_to_bytes(np.ones(10, dtype=np.float32))
        with pytest.raises(ct.FormatError, match="truncated"):
            ct.tensor_from_bytes(buf[:-4])

    def test_truncated_header_and_extents(self):
        buf = ct.tensor_to_bytes(np.ones((2, 3), dtype=np.float32))
        for cut in (4, 6, 7, 10, 14):  # inside the header, then inside the extents
            with pytest.raises(ct.FormatError, match="truncated"):
                ct.tensor_from_bytes(buf[:cut])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.tenb"
        path.write_bytes(ct.tensor_to_bytes(np.ones(2, np.float32)) + b"xx")
        with pytest.raises(ct.FormatError, match="trailing"):
            ct.read_tensor(path)


class TestBundles:
    def test_roundtrip(self, tmp_path):
        arrays = {
            "alpha": np.arange(4, dtype=np.float32),
            "beta.gamma": np.ones((2, 2), dtype=np.float64),
            "scalar": np.float64(7.5),
        }
        path = tmp_path / "b.bundle"
        ct.write_bundle(path, arrays)
        back = ct.read_bundle(path)
        assert set(back) == set(arrays)
        for name in arrays:
            assert np.array_equal(back[name], np.asarray(arrays[name]))

    def test_manifest_is_utf8_text(self, tmp_path):
        path = tmp_path / "b.bundle"
        ct.write_bundle(path, {"x": np.zeros(1, np.float32)})
        raw = path.read_bytes()
        sep = raw.find(b"\n\n")
        lines = raw[:sep].decode("utf-8").splitlines()
        name, offset, length = lines[0].split("\t")
        assert name == "x" and offset == "0"
        # offset counts from the first byte after the blank line
        assert raw[sep + 2:sep + 6] == b"TENB"
        assert int(length) == len(raw) - (sep + 2)

    def test_invalid_entry_name(self, tmp_path):
        with pytest.raises(ct.FormatError, match="name"):
            ct.write_bundle(tmp_path / "b", {"bad\tname": np.zeros(1, np.float32)})

    def test_missing_terminator(self, tmp_path):
        path = tmp_path / "b.bundle"
        path.write_bytes(b"x\t0\t10")
        with pytest.raises(ct.FormatError, match="terminator"):
            ct.read_bundle(path)


def raw_bundle(path, entries, blobs, manifest_suffix=b""):
    """A bundle with a hand-written manifest of (name, offset, length)."""
    manifest = "".join(f"{n}\t{o}\t{l}\n" for n, o, l in entries).encode("utf-8")
    path.write_bytes(manifest + manifest_suffix + b"\n" + b"".join(blobs))


class TestBundleBoundaries:
    blob = ct.tensor_to_bytes(np.arange(3, dtype=np.float32))

    def test_duplicate_names(self, tmp_path):
        other = ct.tensor_to_bytes(np.zeros(3, dtype=np.float32))
        raw_bundle(tmp_path / "b", [("x", 0, len(self.blob)), ("x", len(self.blob), len(other))],
                   [self.blob, other])
        with pytest.raises(ct.FormatError, match="duplicate"):
            ct.read_bundle(tmp_path / "b")

    @pytest.mark.parametrize("offset, length", [(-1, 24), (0, -24), (-24, -24), (8, 24), (10 ** 9, 24)])
    def test_entry_outside_the_file(self, tmp_path, offset, length):
        raw_bundle(tmp_path / "b", [("x", offset, length)], [self.blob])
        with pytest.raises(ct.FormatError, match="outside"):
            ct.read_bundle(tmp_path / "b")

    def test_non_utf8_manifest(self, tmp_path):
        raw_bundle(tmp_path / "b", [("x", 0, len(self.blob))], [self.blob],
                   manifest_suffix=b"\xff\xfe\n")
        with pytest.raises(ct.FormatError, match="UTF-8"):
            ct.read_bundle(tmp_path / "b")

    @pytest.mark.parametrize("value", [np.zeros(2), np.ones((1, 1))])
    @pytest.mark.parametrize("key", ["meta.b", "meta.color", "meta.noise_sigma"])
    def test_non_scalar_measurement_meta(self, tmp_path, key, value):
        arrays = {"y": np.zeros((4, 4)), "meta.b": np.float64(2),
                  "meta.color": np.float64(0), "meta.noise_sigma": np.float64(0)}
        arrays[key] = value
        ct.write_bundle(tmp_path / "m", arrays)
        with pytest.raises(ct.FormatError, match="scalar"):
            ct.read_measurement(tmp_path / "m")

    @pytest.mark.parametrize("value, match", [(np.zeros(2), "scalar"), (np.float64(2.5), "integer"),
                                              (np.float64(np.inf), "integer"),
                                              (np.float64(np.nan), "integer")])
    def test_bad_checkpoint_meta(self, tmp_path, value, match):
        config = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
        ct.write_checkpoint(tmp_path / "c", build_network(config), config)
        arrays = ct.read_bundle(tmp_path / "c")
        arrays["meta.blocks"] = value
        ct.write_bundle(tmp_path / "c", arrays)
        with pytest.raises(ct.FormatError, match=match):
            ct.read_checkpoint(tmp_path / "c")


class TestMeasurementAndCheckpoint:
    def test_measurement_roundtrip(self, tmp_path):
        meas = Measurement(y=np.random.default_rng(0).uniform(0, 4, (6, 6)),
                           b=4, color_mode="bayer_rggb", noise_sigma=0.01)
        path = tmp_path / "m.bundle"
        ct.write_measurement(path, meas)
        back = ct.read_measurement(path)
        assert np.array_equal(back.y, meas.y)
        assert (back.b, back.color_mode, back.noise_sigma) == (4, "bayer_rggb", 0.01)

    def test_checkpoint_roundtrip(self, tmp_path):
        config = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
        params = build_network(config, seed=3)
        path = tmp_path / "c.ckpt"
        ct.write_checkpoint(path, params, config)
        back_config, arrays = ct.read_checkpoint(path)
        assert back_config == config
        fresh = build_network(back_config, seed=0)
        fresh.load_arrays(arrays)
        for name, t in params.items():
            assert np.array_equal(fresh[name].data, t.data)

    @pytest.mark.parametrize("change, match", [("drop", "missing parameter"),
                                               ("extra", "unknown parameter")])
    def test_load_arrays_needs_exactly_the_parameters(self, change, match):
        config = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
        params = build_network(config, seed=3)
        arrays = dict(params.state_arrays())
        if change == "drop":
            del arrays[params.names()[-1]]
        else:
            arrays["head.extra.w"] = np.zeros(2, np.float32)
        with pytest.raises(ct.FormatError, match=match):
            build_network(config).load_arrays(arrays)

    def test_checkpoint_missing_meta(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ct.write_bundle(path, {"meta.channels": np.float64(8)})
        with pytest.raises(ct.FormatError, match="missing config"):
            ct.read_checkpoint(path)


class TestImageExport:
    def test_pgm_header_and_payload(self, tmp_path):
        plane = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "f.pgm"
        ct.write_pgm(path, plane)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 255])  # clipped and scaled

    def test_ppm_interleaves_channels(self, tmp_path):
        rgb = np.zeros((3, 1, 2))
        rgb[0, 0, 0] = 1.0  # pixel 0 pure red
        rgb[2, 0, 1] = 1.0  # pixel 1 pure blue
        path = tmp_path / "f.ppm"
        ct.write_ppm(path, rgb)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 1\n255\n")
        assert raw[-6:] == bytes([255, 0, 0, 0, 0, 255])

    def test_export_frames_gray_and_color(self, tmp_path):
        gray = VideoCube(np.random.default_rng(1).uniform(0, 1, (2, 1, 4, 4)))
        paths = ct.export_frames(tmp_path / "g", gray)
        assert [p.endswith(".pgm") for p in paths] == [True, True]
        color = VideoCube(np.random.default_rng(2).uniform(0, 1, (2, 3, 4, 4)))
        paths = ct.export_frames(tmp_path / "c", color)
        assert all(p.endswith(".ppm") for p in paths)


class TestKvConfig:
    def test_parse_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# run settings\nvariant = T\n\ncrop=32  # inline\n")
        assert ct.parse_kv(path) == {"variant": "T", "crop": "32"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("novalue\n")
        with pytest.raises(ct.FormatError, match="key = value"):
            ct.parse_kv(path)
