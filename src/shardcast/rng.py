"""Injectable randomness.

Every randomized operation in the package takes a RandomSource argument so
tests and simulations stay reproducible. A RandomSource is a
``random.Random``: ``RandomSource(seed)`` is a deterministic stream, and
``RandomSource()`` is seeded from OS entropy.
"""

from __future__ import annotations

import random


class RandomSource(random.Random):
    def randbytes(self, n: int) -> bytes:
        # Big-endian, unlike random.Random.randbytes: every pinned stream
        # (identifiers, share coefficients, MAC tokens) depends on it.
        return self.getrandbits(8 * n).to_bytes(n, "big")

    def derive(self) -> "RandomSource":
        """Child source seeded with 48 bits of this stream; keeps runs reproducible."""
        return RandomSource(self.getrandbits(48))
