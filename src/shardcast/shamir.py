"""Byte-wise threshold secret sharing over GF(2^8).

A secret of any length is split into n shares so that any k of them
recover it and any k-1 reveal nothing: every secret byte gets its own
random polynomial of degree k-1 whose constant term is that byte, and
share i carries the evaluations at x=i. Share ids double as the
interpolation x-coordinates, which is why id 0 is never issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernel
from .errors import DuplicateShareId, InvalidParams, LengthMismatch, WrongShareCount
from .rng import RandomSource


@dataclass(frozen=True)
class SchemeParams:
    """Threshold k out of n shares, 2 <= k <= n <= 255."""

    k: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.n, int)):
            raise InvalidParams("k and n must be integers")
        if not (2 <= self.k <= self.n <= 255):
            raise InvalidParams(f"need 2 <= k <= n <= 255, got k={self.k} n={self.n}")


def split(secret: bytes, params: SchemeParams, rng: RandomSource) -> list[tuple[int, bytes]]:
    """Split ``secret`` into n (share_id, body) pairs."""
    k, n = params.k, params.n
    coeffs = rng.randbytes(len(secret) * (k - 1))
    bodies = kernel.split_secret(bytes(secret), k, n, coeffs)
    return [(i + 1, bodies[i]) for i in range(n)]


def recover(shares: Iterable[tuple[int, bytes]] | Sequence[tuple[int, bytes]], k: int) -> bytes:
    """Interpolate exactly k shares back into the secret.

    Raises InvalidParams when k is not an int, WrongShareCount unless exactly
    k shares (at least one) are supplied, DuplicateShareId on repeated ids,
    InvalidParams on ids outside 1..255, and LengthMismatch on unequal body
    lengths.
    """
    if not isinstance(k, int):
        raise InvalidParams(f"k {k!r} must be an integer")
    items = list(shares)
    if not items:
        raise WrongShareCount("no shares given")
    if len(items) != k:
        raise WrongShareCount(f"need exactly {k} shares, got {len(items)}")
    seen: set[int] = set()
    width = len(items[0][1])
    for share_id, body in items:
        if not isinstance(share_id, int) or not (1 <= share_id <= 255):
            raise InvalidParams(f"share id {share_id!r} outside 1..255")
        if share_id in seen:
            raise DuplicateShareId(f"share id {share_id} supplied twice")
        seen.add(share_id)
        if len(body) != width:
            raise LengthMismatch("share bodies differ in length")
    xs = bytes(share_id for share_id, _ in items)
    packed = b"".join(bytes(body) for _, body in items)
    return kernel.recover_secret(xs, packed)
