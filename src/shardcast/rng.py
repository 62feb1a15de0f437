"""Injectable randomness.

Every randomized operation in the package takes a RandomSource argument so
tests and simulations stay reproducible. ``RandomSource(seed)`` is a
deterministic stream; ``RandomSource()`` draws from OS entropy.
"""

from __future__ import annotations

import random


class RandomSource:
    def __init__(self, seed: int | None = None):
        self.seed = seed
        if seed is None:
            self._rng: random.Random = random.SystemRandom()
        else:
            self._rng = random.Random(seed)
        # The generator's own methods, with no wrapper call: the simulator
        # draws once per emission and scanner, the search once per pool draw.
        self.random = self._rng.random
        self.getrandbits = self._rng.getrandbits

    def randbytes(self, n: int) -> bytes:
        return self._rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def derive(self, bits: int = 48) -> "RandomSource":
        """Child source seeded from this stream; keeps runs reproducible."""
        return RandomSource(self.getrandbits(bits))
