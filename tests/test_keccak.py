"""Keccak-256 over flat lanes, and its preimage cache, against the 5x5
implementation it replaced.

`_reference_keccak256` is the former `keccak.keccak256`, kept verbatim in
behaviour: the state as `state[x][y]`, with rho and pi recomputing their
indices for every lane of every round.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from evmscope.keccak import (
    _RATE_BYTES,
    _ROTATIONS,
    _ROUND_CONSTANTS,
    CACHE_ENTRIES,
    DEADLINE_STRIDE,
    _keccak256_short,
    keccak256,
    selector,
)

_MASK = (1 << 64) - 1


def _rotl(value, shift):
    return ((value << shift) | (value >> (64 - shift))) & _MASK


def _reference_keccak_f(state):
    for rc in _ROUND_CONSTANTS:
        c = [state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                state[x][y] ^= d[x]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(state[x][y], _ROTATIONS[x][y])
        for x in range(5):
            for y in range(5):
                state[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
        state[0][0] ^= rc


def _reference_keccak256(data):
    state = [[0] * 5 for _ in range(5)]
    padded = bytearray(data)
    padded += b"\x00" * (_RATE_BYTES - (len(padded) % _RATE_BYTES))
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    for block_start in range(0, len(padded), _RATE_BYTES):
        block = padded[block_start:block_start + _RATE_BYTES]
        for i in range(_RATE_BYTES // 8):
            state[i % 5][i // 5] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _reference_keccak_f(state)
    out = bytearray()
    for i in range(4):
        out += state[i % 5][i // 5].to_bytes(8, "little")
    return bytes(out)


def test_known_vectors():
    assert keccak256(b"").hex() == (
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")
    assert selector("transfer(address,uint256)") == 0xA9059CBB


def test_lengths_around_the_rate():
    for length in (0, 1, 135, 136, 137, 271, 272, 273):
        data = bytes(range(256)) * 2
        assert keccak256(data[:length]) == _reference_keccak256(data[:length]), length


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 600).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
def test_matches_the_reference(data):
    assert keccak256(data) == _reference_keccak256(data)


def test_every_length_to_600_matches_the_reference_twice():
    data = bytes(range(256)) * 3
    for length in range(601):
        want = _reference_keccak256(data[:length])
        assert keccak256(data[:length]) == want, length  # a miss, or a hit of an earlier test
        assert keccak256(data[:length]) == want, length  # a hit if short enough


@pytest.mark.parametrize("length", [0, 64, _RATE_BYTES, _RATE_BYTES + 1, 300])
def test_bytearray_and_memoryview_inputs(length):
    data = (bytes(range(256)) * 2)[7:7 + length]
    want = _reference_keccak256(data)
    assert keccak256(bytearray(data)) == want
    assert keccak256(memoryview(data)) == want
    assert keccak256(memoryview(b"xx" + data + b"yy")[2:2 + length]) == want


def test_only_preimages_of_one_rate_block_are_stored():
    _keccak256_short.cache_clear()
    keccak256(b"\x01" * (_RATE_BYTES + 1))
    keccak256(b"\x02" * 4096)
    assert _keccak256_short.cache_info().currsize == 0
    keccak256(b"\x03" * _RATE_BYTES)
    keccak256(bytearray(b"\x03" * _RATE_BYTES))
    info = _keccak256_short.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


def test_the_cache_stays_within_its_size():
    _keccak256_short.cache_clear()
    for n in range(CACHE_ENTRIES + 50):
        keccak256(n.to_bytes(32, "big"))
    info = _keccak256_short.cache_info()
    assert info.maxsize == CACHE_ENTRIES
    assert info.currsize == CACHE_ENTRIES
    assert keccak256((0).to_bytes(32, "big")) == _reference_keccak256(bytes(32))  # evicted


def test_a_long_preimage_stops_at_its_deadline():
    long_data = bytes(_RATE_BYTES * DEADLINE_STRIDE * 4)
    with pytest.raises(TimeoutError, match="deadline passed"):
        keccak256(long_data, deadline=time.monotonic() - 1)
    assert keccak256(long_data, deadline=time.monotonic() + 600) \
        == _reference_keccak256(long_data)
    # a preimage of one rate block never reads the clock
    assert keccak256(bytes(64), deadline=time.monotonic() - 1) == _reference_keccak256(bytes(64))
