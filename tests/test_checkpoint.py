import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washseg.nn import checkpoint as ckpt
from washseg.model import ArchConfig, GestureNet


def seal(body):
    """``body`` followed by its valid CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def crafted(rest):
    """A sealed blob of a valid header followed by ``rest``."""
    return seal(ckpt.MAGIC + struct.pack("<H", ckpt.VERSION) + rest)


def block(name, dims, payload=None):
    """One tensor block; the payload defaults to zeros of the declared size."""
    if payload is None:
        payload = bytes(4 * math.prod(dims))
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


@pytest.fixture
def tensors(rng):
    return {
        "a.w": rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
        "a.b": rng.standard_normal(4).astype(np.float32).astype(np.float64),
        "deep.block.gamma": rng.standard_normal((2, 2, 2)).astype(np.float32).astype(np.float64),
    }


class TestFormat:
    def test_round_trip(self, tensors):
        blob = ckpt.serialize("key=1\n", tensors)
        cfg, loaded = ckpt.deserialize(blob)
        assert cfg == "key=1\n"
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float64

    def test_double_round_trip_byte_identical(self, tensors):
        blob1 = ckpt.serialize("cfg\n", tensors)
        cfg, loaded = ckpt.deserialize(blob1)
        blob2 = ckpt.serialize(cfg, loaded)
        assert blob1 == blob2

    def test_bad_magic(self, tensors):
        blob = ckpt.serialize("", tensors)
        with pytest.raises(ckpt.BadMagicError):
            ckpt.deserialize(b"XXXX" + blob[4:])

    def test_version_mismatch(self, tensors):
        blob = bytearray(ckpt.serialize("", tensors))
        blob[4:6] = struct.pack("<H", 99)
        blob[-4:] = struct.pack("<I", __import__("zlib").crc32(bytes(blob[:-4])))
        with pytest.raises(ckpt.VersionMismatchError):
            ckpt.deserialize(bytes(blob))

    def test_truncated_tensor_block(self, tensors):
        blob = ckpt.serialize("", tensors)
        cut = blob[: len(blob) - 20]
        cut = cut + struct.pack("<I", __import__("zlib").crc32(cut))
        with pytest.raises(ckpt.TruncatedError):
            ckpt.deserialize(cut)

    def test_crc_mismatch(self, tensors):
        blob = bytearray(ckpt.serialize("", tensors))
        blob[20] ^= 0xFF
        with pytest.raises(ckpt.ChecksumError):
            ckpt.deserialize(bytes(blob))

    def test_repeated_tensor_name_rejected(self):
        body = struct.pack("<I", 0) + block(b"a.w", (2,)) + block(b"a.w", (3,))
        with pytest.raises(ckpt.CheckpointError, match="repeats tensor 'a.w'"):
            ckpt.deserialize(crafted(body))

    def test_non_utf8_config_rejected(self):
        body = struct.pack("<I", 2) + b"\xff\xfe" + block(b"a.w", (2,))
        with pytest.raises(ckpt.CheckpointError, match="config is not UTF-8"):
            ckpt.deserialize(crafted(body))

    def test_non_utf8_tensor_name_rejected(self):
        body = struct.pack("<I", 0) + block(b"a.\xc3", (2,))
        with pytest.raises(ckpt.CheckpointError, match="tensor name at byte 12 is not UTF-8"):
            ckpt.deserialize(crafted(body))

    def test_overflowing_dims_are_truncation(self):
        # 2**64 elements: an int64 element count wraps to 0
        body = struct.pack("<I", 0) + block(b"a.w", (2**16,) * 4, payload=b"")
        with pytest.raises(ckpt.TruncatedError, match="payload of 'a.w'"):
            ckpt.deserialize(crafted(body))

    @pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1), (1,) * 65])
    def test_shape_numpy_cannot_hold_rejected(self, dims):
        body = struct.pack("<I", 0) + block(b"a.w", dims)
        with pytest.raises(ckpt.CheckpointError, match="'a.w' has unsupported shape"):
            ckpt.deserialize(crafted(body))

    def test_size_report_accounting(self, tensors):
        rep = ckpt.size_report("cfg\n", tensors)
        count = 12 + 4 + 8
        assert rep["parameter_count"] == count
        assert rep["payload_bits"] == 32 * count
        assert rep["total_bits"] == rep["payload_bits"] + rep["header_bits"]


REFERENCE_BLOB = ckpt.serialize("key=1\n", {"a.w": np.arange(6.0).reshape(2, 3),
                                            "a.b": np.ones(2), "s": np.float64(0.5)})


class TestCorruptionProperties:
    """Any damaged checkpoint fails with a CheckpointError subclass, nothing else."""

    @given(st.integers(min_value=0, max_value=len(REFERENCE_BLOB) - 1))
    def test_truncation_rejected(self, cut):
        with pytest.raises(ckpt.CheckpointError):
            ckpt.deserialize(REFERENCE_BLOB[:cut])

    @given(st.integers(min_value=0, max_value=8 * len(REFERENCE_BLOB) - 1))
    def test_bit_flip_rejected(self, bit):
        blob = bytearray(REFERENCE_BLOB)
        blob[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ckpt.CheckpointError):
            ckpt.deserialize(bytes(blob))

    # Re-sealing with a fresh CRC sends the damage past the checksum into the
    # parser, which may then read a shorter or altered but well-formed file.
    # Every cut and every single-bit flip of this small blob is tried, since
    # a random sample of the flips can miss the few that reach numpy.

    @staticmethod
    def _parses_or_rejects(body):
        try:
            ckpt.deserialize(seal(body))
        except ckpt.CheckpointError:
            pass

    def test_every_resealed_truncation_parses_or_raises_checkpoint_error(self):
        body = REFERENCE_BLOB[:-4]
        for cut in range(len(body)):
            self._parses_or_rejects(body[:cut])

    def test_every_resealed_bit_flip_parses_or_raises_checkpoint_error(self):
        for bit in range(8 * (len(REFERENCE_BLOB) - 4)):
            body = bytearray(REFERENCE_BLOB[:-4])
            body[bit // 8] ^= 1 << (bit % 8)
            self._parses_or_rejects(bytes(body))


class TestModelCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = GestureNet(ArchConfig(), seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        GestureNet.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_preserved_across_save_load(self, tmp_path, rng):
        model = GestureNet(ArchConfig(), seed=4)
        a = rng.standard_normal((2, 3, 64))
        g = rng.standard_normal((2, 3, 64))
        path = tmp_path / "m.ckpt"
        model.save(path)
        before = model.forward(a, g, mode="eval")
        after = GestureNet.load(path).forward(a, g, mode="eval")
        np.testing.assert_array_equal(before, after)

    def test_parameters_bit_exact_after_round_trip(self, tmp_path):
        model = GestureNet(ArchConfig(), seed=4)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = GestureNet.load(path)
        for name, p in model.params().items():
            np.testing.assert_array_equal(p.value, loaded.params()[name].value)

    def test_size_matches_parameter_count(self, tmp_path):
        model = GestureNet(ArchConfig(), seed=0)
        rep = model.size_report()
        bits = model.save(tmp_path / "m.ckpt")
        assert bits == rep["total_bits"]
        assert rep["payload_bits"] == 32 * rep["parameter_count"]


class TestStrictApply:
    """Incomplete or corrupt tensor sets fail at load, naming the tensor."""

    @staticmethod
    def _resave(tmp_path, edit):
        model = GestureNet(ArchConfig(), seed=4)
        tensors = model.named_tensors()
        edit(tensors)
        path = tmp_path / "edited.ckpt"
        ckpt.save_checkpoint(path, model.config.to_text(), tensors)
        return path

    @pytest.mark.parametrize("name", ["bn_stats.0.mean", "bn_stats.5.var", "head.w"])
    def test_missing_tensor_named(self, tmp_path, name):
        path = self._resave(tmp_path, lambda t: t.pop(name))
        with pytest.raises(ckpt.CheckpointError, match=f"missing tensor '{name}'"):
            GestureNet.load(path)

    @pytest.mark.parametrize("name", ["bn_stats.2.mean", "bn_stats.8.var", "dec.0.bn.gamma"])
    def test_wrong_shape_named(self, tmp_path, name):
        def edit(t):
            t[name] = np.zeros(t[name].size + 1)

        path = self._resave(tmp_path, edit)
        with pytest.raises(ckpt.CheckpointError, match=f"'{name}' has shape"):
            GestureNet.load(path)

    @pytest.mark.parametrize("name,value", [("head.w", np.nan), ("enc_a.0.conv.b", np.inf),
                                            ("bn_stats.3.var", -np.inf)])
    def test_non_finite_named(self, tmp_path, name, value):
        def edit(t):
            t[name] = t[name].copy()
            t[name].reshape(-1)[0] = value

        path = self._resave(tmp_path, edit)
        with pytest.raises(ckpt.CheckpointError, match=f"'{name}' contains NaN/Inf"):
            GestureNet.load(path)

    @pytest.mark.parametrize("name", ["bogus.extra", "bn_stats.9.mean", "se_a.fc3.w"])
    def test_unknown_tensor_named(self, tmp_path, name):
        path = self._resave(tmp_path, lambda t: t.setdefault(name, np.zeros(4)))
        with pytest.raises(ckpt.CheckpointError, match=f"unknown tensor '{name}'"):
            GestureNet.load(path)

    @pytest.mark.parametrize("line,key", [("input_length=6x4", "input_length"),
                                          ("input_length=63", "input_length"),
                                          ("bogus=3", "bogus"),
                                          ("input_length", "input_length")])
    def test_bad_config_named(self, tmp_path, line, key):
        model = GestureNet(ArchConfig(), seed=4)
        text = model.config.to_text().replace("input_length=64\n", "") + line + "\n"
        path = tmp_path / "config.ckpt"
        ckpt.save_checkpoint(path, text, model.named_tensors())
        with pytest.raises(ckpt.CheckpointError, match=f"architecture.*{key}"):
            GestureNet.load(path)

    def test_repeated_config_key_named(self, tmp_path):
        model = GestureNet(ArchConfig(), seed=4)
        path = tmp_path / "config.ckpt"
        ckpt.save_checkpoint(path, model.config.to_text() + "input_length=128\n",
                             model.named_tensors())
        with pytest.raises(ckpt.CheckpointError, match="architecture key 'input_length' is repeated"):
            GestureNet.load(path)

    @pytest.mark.parametrize("name", ["bn_stats.0.var", "bn_stats.4.var"])
    def test_negative_variance_named(self, tmp_path, name):
        def edit(t):
            t[name] = t[name].copy()
            t[name][-1] = -1.0

        path = self._resave(tmp_path, edit)
        with pytest.raises(ckpt.CheckpointError, match=f"'{name}' is negative"):
            GestureNet.load(path)
