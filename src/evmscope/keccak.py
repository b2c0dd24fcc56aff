"""Keccak-256 as used by the EVM (original Keccak padding, not NIST SHA-3)."""

from __future__ import annotations

import struct
import time
from functools import lru_cache

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_MASK = (1 << 64) - 1

_RATE_BYTES = 136  # 1600-bit state, 512-bit capacity
_LANES = struct.Struct(f"<{_RATE_BYTES // 8}Q")  # one block, as little-endian lanes

# Preimages of at most one rate block are cached by content, up to this many
# of them (at most ~0.3 MB).  Longer preimages are hashed every time, so no
# large input is ever kept alive by the cache.
CACHE_ENTRIES = 1024
# A long preimage checks its deadline once per this many absorbed blocks.
DEADLINE_STRIDE = 64


# lane x + 5*y: theta's column index, then its rho rotation and pi destination
_RHO_PI = tuple((x + 5 * y, x, _ROTATIONS[x][y], y + 5 * ((2 * x + 3 * y) % 5))
                for x in range(5) for y in range(5))


def _keccak_f(a: list[int]) -> None:
    """Keccak-f[1600] in place over the 25 lanes, lane x + 5*y at a[x + 5*y]."""
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ (((c[(x + 1) % 5] << 1) | (c[(x + 1) % 5] >> 63)) & _MASK)
             for x in range(5)]
        # rho + pi
        for src, x, rot, dst in _RHO_PI:
            v = a[src] ^ d[x]
            b[dst] = ((v << rot) | (v >> (64 - rot))) & _MASK
        # chi
        for y in range(0, 25, 5):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y] = b0 ^ (~b1 & b2)
            a[y + 1] = b1 ^ (~b2 & b3)
            a[y + 2] = b2 ^ (~b3 & b4)
            a[y + 3] = b3 ^ (~b4 & b0)
            a[y + 4] = b4 ^ (~b0 & b1)
        # iota
        a[0] ^= rc


def keccak256(data: bytes | bytearray | memoryview, deadline: float | None = None) -> bytes:
    """Hash `data` and return the 32-byte digest.

    Preimages of at most one rate block (136 bytes) come from a bounded
    cache.  A longer one is absorbed block by block and raises TimeoutError
    once `time.monotonic()` has passed `deadline`, checked every
    DEADLINE_STRIDE blocks."""
    data = bytes(data)
    if len(data) <= _RATE_BYTES:
        return _keccak256_short(data)
    return _absorb(data, deadline)


@lru_cache(maxsize=CACHE_ENTRIES)
def _keccak256_short(data: bytes) -> bytes:
    return _absorb(data, None)


def _absorb(data: bytes, deadline: float | None) -> bytes:
    state = [0] * 25
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    padded += b"\x00" * pad_len
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80

    for n, lanes in enumerate(_LANES.iter_unpack(padded), 1):
        for i, lane in enumerate(lanes):
            state[i] ^= lane
        _keccak_f(state)
        if deadline is not None and not n % DEADLINE_STRIDE and time.monotonic() > deadline:
            raise TimeoutError("deadline passed")
    return struct.pack("<4Q", *state[:4])  # 32 bytes = 4 lanes


def selector(signature: str) -> int:
    """First four bytes of the hash of a function signature, as an int."""
    return int.from_bytes(keccak256(signature.encode("ascii"))[:4], "big")
