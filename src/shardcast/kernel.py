"""Bulk share kernels: polynomial share splitting and recovery.

Every multiply by a field constant ``a`` goes through ``MUL[a]``, the
256-byte table of ``a*b`` for every byte ``b`` that `gf256` builds and
checks, so a whole share body is scaled by one ``bytes.translate`` and
bodies are added with one XOR of big integers. A split/recover round trip
at import guards the kernels themselves.
"""

from __future__ import annotations

from functools import lru_cache

from . import gf256
from .gf256 import MUL

BACKEND = "python"


def split_secret(secret: bytes, k: int, n: int, coeffs: bytes) -> list[bytes]:
    """Evaluate one random degree-(k-1) polynomial per secret byte at x=1..n.

    ``coeffs`` supplies the len(secret)*(k-1) random coefficient bytes,
    byte j's coefficients a_1..a_{k-1} at ``coeffs[j*(k-1):(j+1)*(k-1)]``,
    so the caller controls the randomness stream.
    """
    width = len(secret)
    # coeffs[c::k-1] is coefficient a_{c+1} of every byte. Horner starts
    # from a_{k-1} and folds in a_{k-2}, ..., a_1 and finally the secret.
    top = coeffs[k - 2 :: k - 1]
    rows = [int.from_bytes(coeffs[c :: k - 1], "big") for c in range(k - 3, -1, -1)]
    rows.append(int.from_bytes(secret, "big"))
    bodies = []
    for x in range(1, n + 1):
        mul = MUL[x]
        acc = top
        for row in rows:
            acc = (int.from_bytes(acc.translate(mul), "big") ^ row).to_bytes(width, "big")
        bodies.append(acc)
    return bodies


def lagrange_weights(xs: bytes) -> bytes:
    """Basis weights at x=0 for the share x-coordinates ``xs``."""
    k = len(xs)
    exp, log = gf256.EXP, gf256.LOG
    out = bytearray(k)
    for i in range(k):
        xi = xs[i]
        num_log = 0
        den_log = 0
        for j in range(k):
            if i == j:
                continue
            xj = xs[j]
            num_log += log[xj]
            den_log += log[xj ^ xi]
        out[i] = exp[(num_log - den_log) % 255]
    return bytes(out)


@lru_cache(maxsize=1024)
def weights_by_x(xset: bytes) -> dict[int, int]:
    """Each x's Lagrange weight at x=0, for one sorted x-set.

    Share ids arrive off the air, so the number of distinct x-sets is
    chosen by whoever transmits; the cache is therefore bounded.
    """
    return dict(zip(xset, lagrange_weights(xset)))


def recover_secret(xs: bytes, bodies: bytes) -> bytes:
    """Interpolate the k packed share bodies at x=0.

    ``bodies`` holds k equal-length bodies concatenated; length must be a
    multiple of len(xs).
    """
    width = len(bodies) // len(xs)
    weights = weights_by_x(bytes(sorted(xs)))
    acc = 0
    off = 0
    for x in xs:
        acc ^= int.from_bytes(bodies[off : off + width].translate(MUL[weights[x]]), "big")
        off += width
    return acc.to_bytes(width, "big")


def _startup_check() -> None:
    secret = bytes(range(16))
    coeffs = bytes((7 * i + 3) % 256 for i in range(16 * 2))
    bodies = split_secret(secret, 3, 5, coeffs)
    if recover_secret(bytes([1, 3, 5]), bodies[0] + bodies[2] + bodies[4]) != secret:
        raise AssertionError("share kernels do not round-trip")


_startup_check()
