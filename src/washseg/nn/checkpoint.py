"""Binary checkpoint format.

Layout, all little-endian:

    magic  b"UWSH"
    version        u16
    config-length  u32, then config UTF-8 text
    repeated tensor blocks:
        name-length u16, name UTF-8
        rank        u8
        dims        u32 each
        payload     32-bit IEEE-754 values
    CRC32 of all preceding bytes, u32

Tensors are stored as float32, the precision ``GestureNet`` computes in.
``deserialize`` widens them exactly to float64 for checking; the model copies
them back into its float32 slots, so a load-save round trip is bit for bit.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

MAGIC = b"UWSH"
VERSION = 1


class CheckpointError(Exception):
    pass


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"checkpoint {what} is not UTF-8") from e


def serialize(config_text: str, tensors: dict) -> bytes:
    """Encode an ordered name -> array mapping plus the config text."""
    parts = [MAGIC, struct.pack("<H", VERSION)]
    cfg = config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    for name, value in tensors.items():
        nm = name.encode("utf-8")
        arr = np.ascontiguousarray(value, dtype="<f4")
        parts.append(struct.pack("<H", len(nm)))
        parts.append(nm)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(arr.tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def deserialize(blob: bytes):
    """Decode a checkpoint blob into (config_text, name -> float64 array)."""
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError("not a checkpoint file (bad magic)")
    if len(blob) < 14:
        raise TruncatedError("checkpoint truncated in header")
    body, crc_bytes = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise ChecksumError("checkpoint CRC mismatch")
    off = 4
    (version,) = struct.unpack_from("<H", body, off)
    off += 2
    if version != VERSION:
        raise VersionMismatchError(f"checkpoint version {version}, expected {VERSION}")
    (cfg_len,) = struct.unpack_from("<I", body, off)
    off += 4
    if off + cfg_len > len(body):
        raise TruncatedError("checkpoint truncated in config block")
    config_text = _utf8(body[off : off + cfg_len], "config")
    off += cfg_len
    tensors = {}
    while off < len(body):
        if off + 2 > len(body):
            raise TruncatedError("checkpoint truncated in tensor name length")
        (nm_len,) = struct.unpack_from("<H", body, off)
        off += 2
        if off + nm_len + 1 > len(body):
            raise TruncatedError("checkpoint truncated in tensor name")
        name = _utf8(body[off : off + nm_len], f"tensor name at byte {off}")
        if name in tensors:
            raise CheckpointError(f"checkpoint repeats tensor '{name}'")
        off += nm_len
        rank = body[off]
        off += 1
        if off + 4 * rank > len(body):
            raise TruncatedError(f"checkpoint truncated in dims of '{name}'")
        dims = struct.unpack_from(f"<{rank}I", body, off) if rank else ()
        off += 4 * rank
        nbytes = 4 * math.prod(dims)
        if off + nbytes > len(body):
            raise TruncatedError(f"checkpoint truncated in payload of '{name}'")
        try:
            arr = np.frombuffer(body[off : off + nbytes], dtype="<f4").reshape(dims)
        except ValueError as e:  # over 64 dims, or a zero dim beside ones too large to size
            raise CheckpointError(f"checkpoint tensor '{name}' has unsupported shape {dims}") from e
        off += nbytes
        tensors[name] = arr.astype(np.float64)
    return config_text, tensors


def save_checkpoint(path, config_text: str, tensors: dict) -> int:
    """Write a checkpoint; returns the serialized size in bits."""
    blob = serialize(config_text, tensors)
    with open(path, "wb") as f:
        f.write(blob)
    return 8 * len(blob)


def load_checkpoint(path):
    with open(path, "rb") as f:
        return deserialize(f.read())


def size_report(config_text: str, tensors: dict) -> dict:
    """Exact serialized sizes: parameter payload bits vs framing bits."""
    param_count = sum(int(np.prod(v.shape)) for v in tensors.values())
    total_bits = 8 * len(serialize(config_text, tensors))
    payload_bits = 32 * param_count
    return {
        "parameter_count": param_count,
        "payload_bits": payload_bits,
        "total_bits": total_bits,
        "header_bits": total_bits - payload_bits,
        "total_kbits": total_bits / 1000.0,
    }
