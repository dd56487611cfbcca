"""Self-describing binary checkpoints with end-of-file integrity digest.

Layout (all integers little-endian):

    magic  b"AGN1"
    u32    format version (currently 1)
    u16    role length, then role utf-8 (e.g. "classifier", "surrogate")
    u32    config length, then config JSON utf-8
    u32    tensor count
    per tensor:
        u16  name length, then name utf-8
        u8   ndim, then ndim * u64 dims
        float32 little-endian payload
    u64    FNV-1a 64 digest of every preceding byte

Tensors are written in sorted-name order so identical states produce
identical files.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"AGN1"
FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class CheckpointError(IOError):
    """Malformed, truncated, or mismatched checkpoint file."""


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class CheckpointData:
    """A loaded checkpoint; ``state`` holds read-only float32 views of the file's bytes."""

    role: str
    config: dict
    state: dict  # name -> float32 ndarray; a model copies it when it loads it
    version: int = FORMAT_VERSION


def save_checkpoint(path, role: str, config: dict, state: dict):
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    role_b = role.encode("utf-8")
    chunks.append(struct.pack("<H", len(role_b)))
    chunks.append(role_b)
    cfg_b = json.dumps(config, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg_b)))
    chunks.append(cfg_b)
    chunks.append(struct.pack("<I", len(state)))
    for name in sorted(state):
        arr = np.asarray(state[name], dtype="<f4")
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<Q", fnv1a_64(body)))


def load_checkpoint(path, expected_role: str | None = None) -> CheckpointData:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, (digest,) = blob[:-8], struct.unpack("<Q", blob[-8:])
    if fnv1a_64(body) != digest:
        raise CheckpointError(f"{path}: integrity digest mismatch")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {body[:4]!r}")

    off = 4

    def take(n):
        nonlocal off
        if off + n > len(body):
            raise CheckpointError(f"{path}: truncated checkpoint body")
        out = body[off:off + n]
        off += n
        return out

    def text(n):
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: text field is not UTF-8 ({exc})") from None

    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (role_len,) = struct.unpack("<H", take(2))
    role = text(role_len)
    if expected_role is not None and role != expected_role:
        raise CheckpointError(
            f"{path}: role mismatch, expected {expected_role!r} got {role!r}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = json.loads(text(cfg_len))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: config is not JSON ({exc})") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    (count,) = struct.unpack("<I", take(4))

    state = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len)
        if name in state:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        state[name] = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return CheckpointData(role=role, config=config, state=state, version=version)
