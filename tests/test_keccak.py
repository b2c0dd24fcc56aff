"""Keccak-256 over flat lanes against the 5x5 implementation it replaced.

`_reference_keccak256` is the former `keccak.keccak256`, kept verbatim in
behaviour: the state as `state[x][y]`, with rho and pi recomputing their
indices for every lane of every round.
"""

from hypothesis import given, settings, strategies as st

from evmscope.keccak import _RATE_BYTES, _ROTATIONS, _ROUND_CONSTANTS, keccak256, selector

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
