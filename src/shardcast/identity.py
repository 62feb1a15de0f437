"""Self-verifying device identifiers and the share container.

An identifier is 16 bytes: 12 random bytes followed by their CRC-32
(IEEE 802.3) serialized big-endian. The checksum is what lets a receiver
decide that k recombined shares really came from one device, without any
cleartext checksum ever appearing on air.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .errors import BadLength
from .rng import RandomSource

RANDOM_LEN = 12
CHECKSUM_LEN = 4
IDENTIFIER_LEN = RANDOM_LEN + CHECKSUM_LEN


def identifier_new(rng: RandomSource) -> bytes:
    """Fresh identifier: 12 random bytes plus their big-endian CRC-32."""
    body = rng.randbytes(RANDOM_LEN)
    return body + zlib.crc32(body).to_bytes(CHECKSUM_LEN, "big")


def identifier_verify(candidate: bytes) -> bool:
    """True when the trailing checksum matches the leading 12 bytes."""
    if len(candidate) != IDENTIFIER_LEN:
        raise BadLength(f"identifier must be {IDENTIFIER_LEN} bytes, got {len(candidate)}")
    expected = zlib.crc32(candidate[:RANDOM_LEN])
    return int.from_bytes(candidate[RANDOM_LEN:], "big") == expected


@dataclass(frozen=True)
class Share:
    """One key share: interpolation x-coordinate plus 16 evaluation bytes."""

    share_id: int
    body: bytes

    def __post_init__(self):
        if len(self.body) != IDENTIFIER_LEN:
            raise BadLength(f"share body must be {IDENTIFIER_LEN} bytes, got {len(self.body)}")
