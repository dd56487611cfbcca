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

The digest is the standard byte-at-a-time FNV-1a 64 value, computed with
numpy arrays instead of a Python loop over the bytes. The state's low byte
follows its own chain ``l' = ((l ^ b) * 0xB3) & 0xFF`` (0xB3 is the prime's
low byte). The prime is odd, so bit k of that chain depends only on bits
below k: given those bits at every position, bit k is a prefix XOR, and
eight vectorised passes give every low byte. ``h ^ b`` differs from ``h``
only in that byte, so the full state follows in closed form,
``h_n = h_0 P^n + sum_i ((l_i ^ b_i) - l_i) P^(n-i) mod 2^64``, summed in
wrapping uint64 arithmetic over 64 KiB blocks with a table of powers of P.
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
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 16


class CheckpointError(IOError):
    """Malformed, truncated, or mismatched checkpoint file."""


# _POWERS[j] = P^j mod 2^64; uint64 array products wrap
_POWERS = np.full(_BLOCK + 1, _FNV_PRIME, np.uint64)
_POWERS[0] = 1
np.multiply.accumulate(_POWERS, out=_POWERS)


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a 0/1 uint8 array, 64 positions to a word."""
    n = len(bits)
    words = np.zeros(-(-n // 64), "<u8")
    words.view(np.uint8)[:-(-n // 8)] = np.packbits(bits, bitorder="little")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    parity = np.bitwise_xor.accumulate(words >> 63)
    words[1:] ^= 0 - parity[:-1]  # flip every bit of a word after an odd prefix
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def fnv1a_64(data) -> int:
    """FNV-1a 64 of a bytes-like object (see the module docstring for the method)."""
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for start in range(0, len(buf), _BLOCK):
        b = buf[start:start + _BLOCK]
        n = len(b)
        low = np.zeros(n, np.uint8)  # h's low byte before each byte, built bit by bit
        steps = np.empty(n, np.uint8)  # bit k of low[0], then of low[i] ^ low[i - 1]
        for k in range(8):
            steps[0] = (h >> k) & 1
            # bit k of (x * 0xB3) is bit k of x ^ bit k of (x mod 2^k) * 0xB3
            below_k = (low[:-1] ^ b[:-1]) & ((1 << k) - 1)
            steps[1:] = ((below_k * 0xB3) ^ b[:-1]) >> k & 1
            low |= _prefix_xor(steps) << k
        delta = (low ^ b).astype(np.uint64) - low  # (h ^ b) - h, wrapped
        # byte i of n weighs P^(n - i)
        h = (h * int(_POWERS[n]) + int(np.dot(delta, _POWERS[n:0:-1]))) & _MASK64
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
    # one copy of the file: the body and every field below are views of ``blob``
    body, (digest,) = memoryview(blob)[:-8], struct.unpack("<Q", blob[-8:])
    if fnv1a_64(body) != digest:
        raise CheckpointError(f"{path}: integrity digest mismatch")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {bytes(body[:4])!r}")

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
            return bytes(take(n)).decode("utf-8")
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
        payload = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        try:
            state[name] = payload.reshape(shape)
        except ValueError as exc:  # more than 64 dims, or dims whose product overflows
            raise CheckpointError(
                f"{path}: tensor {name!r} has a shape numpy cannot build ({exc})") from None
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return CheckpointData(role=role, config=config, state=state, version=version)
