"""Self-verifying identifiers and the share container."""

import zlib

import pytest

from shardcast.errors import BadLength
from shardcast.identity import (
    CHECKSUM_LEN,
    IDENTIFIER_LEN,
    RANDOM_LEN,
    Share,
    identifier_new,
    identifier_verify,
)
from shardcast.rng import RandomSource

from oracles import crc32_ref


class ZeroRng(RandomSource):
    def __init__(self):
        super().__init__(0)

    def randbytes(self, n: int) -> bytes:
        return bytes(n)


def test_checksum_reference_check_value():
    # The standard check value for this checksum.
    assert crc32_ref(b"123456789") == 0xCBF43926
    assert zlib.crc32(b"123456789") == 0xCBF43926


def test_frozen_identifier_for_zero_randomness():
    # Pinned once from the bitwise reference implementation.
    assert crc32_ref(bytes(12)) == 0x7BD5C66F
    identifier = identifier_new(ZeroRng())
    assert identifier == bytes(12) + bytes.fromhex("7bd5c66f")
    assert identifier_verify(identifier)


def test_layout_and_verify():
    rng = RandomSource(11)
    identifier = identifier_new(rng)
    assert len(identifier) == IDENTIFIER_LEN == RANDOM_LEN + CHECKSUM_LEN == 16
    assert identifier_verify(identifier)
    # The trailing four bytes are the big-endian checksum of the first 12.
    expected = crc32_ref(identifier[:RANDOM_LEN])
    assert int.from_bytes(identifier[RANDOM_LEN:], "big") == expected


def test_any_single_byte_mutation_is_caught():
    identifier = identifier_new(RandomSource(99))
    for pos in range(IDENTIFIER_LEN):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(identifier)
            mutated[pos] ^= flip
            assert not identifier_verify(bytes(mutated))


def test_verify_rejects_wrong_length():
    with pytest.raises(BadLength):
        identifier_verify(b"short")
    with pytest.raises(BadLength):
        identifier_verify(bytes(17))


def test_uniqueness_over_many_draws():
    rng = RandomSource(123)
    seen = {identifier_new(rng) for _ in range(10_000)}
    assert len(seen) == 10_000


def test_random_strings_never_verify():
    # Expected false-accept rate is 2^-32 per candidate; over 1e5 random
    # candidates the expected count is ~2e-5, so zero passes.
    rng = RandomSource(31337)
    hits = sum(1 for _ in range(100_000) if identifier_verify(rng.randbytes(16)))
    assert hits == 0


def test_share_body_length_enforced():
    Share(1, bytes(16))
    with pytest.raises(BadLength):
        Share(1, bytes(15))
    with pytest.raises(BadLength):
        Share(1, bytes(17))
